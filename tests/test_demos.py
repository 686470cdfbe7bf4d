"""Each narrated demo runs to completion against the current library.

Demo 03 is left out: its search_k sweep takes about 12 s on a 2-core host.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_proposal_geometry", "02_embedding_training", "04_retrieval_and_metrics",
         "05_collage", "06_full_pipeline"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # the demos write into fresh temporary directories; keep those under tmp_path
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
