"""Training's page faults. A training step that allocates and frees large
temporaries cycles them through glibc's heap trims, so a process pays minor
faults for the same pages again and again. Each test generates a benchmark
workload's data set with perfbench/datagen.py in one process, then runs ingest
once and the train stage twice, at 30 iterations, in a fresh one, and bounds
the minor faults (ru_minflt) of each train stage."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the bounds are set for glibc malloc, whose trim threshold the fault counts follow",
)

# argv: perfbench's directory, the workload, the directory holding data/ and out/
CHILD = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
from coseg.pipeline import merge_config, run_stage
tmp = sys.argv[3]
cfg = merge_config(WORKLOADS[sys.argv[2]].config, {
    "seed": "3", "train.iterations": "30", "data.manifest": f"{tmp}/data/manifest.csv",
    "data.proposals": f"{tmp}/data/proposals.csv", "data.out_dir": f"{tmp}/out"})
run_stage("ingest", cfg)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_stage("train", cfg)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def train_faults(tmp_path: Path, workload: str) -> list[int]:
    """Minor faults of the first and the second train stage of one fresh
    process, over workload's data set at seed 3. The processes run one BLAS
    thread, as CI does, and write no bytecode, so each run of the test
    imports as the last one did."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    generate = [str(PERFBENCH / "datagen.py"), "--workload", workload, "--seed", "3",
                "--out", str(tmp_path / "data")]
    for argv in (generate, ["-c", CHILD, str(PERFBENCH), workload, str(tmp_path)]):
        done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_first_train_stage_pays_no_trims(tmp_path):
    # train-mined: 432 training rows under aggressive mining
    first, second = train_faults(tmp_path, "train-mined")
    assert first <= 2 * second, (first, second)


def test_repeated_train_stage_pays_no_trims(tmp_path):
    # retrieve-exact: 48 training rows
    first, second = train_faults(tmp_path, "retrieve-exact")
    assert second <= 4_000, (first, second)
