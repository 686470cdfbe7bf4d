"""Each narrated demo runs to completion against the current library and
cleans up after itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_proposal_geometry", "02_embedding_training", "03_ann_index",
         "04_retrieval_and_metrics", "05_collage", "06_full_pipeline"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # the demos write into temporary directories; point those at tmp_path to see them removed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmp_path.iterdir()) == []
