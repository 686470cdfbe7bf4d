"""Run coseg's pipeline, or some of its stages, under a PEP 578 audit hook and
print, as one JSON object on stdout, every file event each stage call raised.

    python tests/stage_audit.py '{"cfg": {...}, "stages": null, "sabotage": null}'

"stages" null runs run_pipeline twice, so the second run replaces every
artifact; a list runs those stages once each through run_stage. "sabotage"
names one of SABOTAGE's broken stages to put in STAGES first. Events are
grouped by stage call, by wrapping coseg.pipeline.run_stage; events outside
every stage call go to "outside". A hook cannot be removed once added, so
this runs in its own process.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy.random  # noqa: F401  NumPy imports it on first use; imported before the hook

from coseg import pipeline
from coseg.descriptors import load_descriptors_file, save_descriptors_file

# each event that reads, lists, writes, creates, moves or deletes a file or
# directory -> the position of its dir_fd argument (None: it has none)
EVENTS = {"open": None, "os.listdir": None, "os.scandir": None, "os.mkdir": 2, "os.rename": 2,
          "os.remove": 1, "os.rmdir": 1, "shutil.rmtree": 1}
READS = {"os.listdir", "os.scandir"}
WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC


def _reads_a_sibling(cfg, inputs, outputs):
    inputs["model.csgm"].with_name("items.csv").read_bytes()
    pipeline.stage_embed(cfg, inputs, outputs)


def _writes_to_out_dir(cfg, inputs, outputs):
    pipeline.stage_embed(cfg, inputs, outputs)
    save_descriptors_file(*load_descriptors_file(outputs["emb_test.csgd"]),
                          inputs["model.csgm"].with_name("emb_test.csgd"))


# name -> (stage, a run function that breaks the contract)
SABOTAGE = {"with_name": ("embed", _reads_a_sibling), "out_dir": ("embed", _writes_to_out_dir)}


def _path(value, dir_fd=None) -> str | None:
    """An absolute path, or None for an fd or a path relative to a dir_fd."""
    if isinstance(value, int) or dir_fd not in (None, -1):
        return None
    return os.path.abspath(os.fsdecode(value))


def _entry(event: str, args: tuple) -> list:
    """[event, path, rename's destination or None, whether it writes]; os.open
    gives no dir_fd, so a relative path it opens counts as relative to one."""
    at = EVENTS[event]
    if event == "open":
        path = None if args[1] is None and not os.path.isabs(args[0]) else _path(args[0])
        return [event, path, None, bool(args[2] & WRITE_FLAGS)]
    dst = _path(args[1], args[3]) if event == "os.rename" else None
    return [event, _path(args[0], None if at is None else args[at]), dst, event not in READS]


def main(request: dict) -> dict:
    if request["sabotage"]:
        stage, run = SABOTAGE[request["sabotage"]]
        pipeline.STAGES[stage] = replace(pipeline.STAGES[stage], run=run)
    calls: list[dict] = []
    current: list[dict | None] = [None]
    outside: list[list] = []

    def hook(event, args):
        if event in EVENTS and recording:
            (current[0]["events"] if current[0] else outside).append(_entry(event, args))

    run_stage = pipeline.run_stage

    def traced(name, cfg):
        current[0] = {"stage": name, "events": []}
        calls.append(current[0])
        try:
            return run_stage(name, cfg)
        finally:
            current[0] = None

    pipeline.run_stage = traced
    recording = False
    sys.addaudithook(hook)
    recording = True
    if request["stages"] is None:
        for _ in range(2):
            pipeline.run_pipeline(request["cfg"])
    else:
        for name in request["stages"]:
            pipeline.run_stage(name, request["cfg"])
    recording = False
    return {"calls": calls, "outside": outside}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
