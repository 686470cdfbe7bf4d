"""The stage contract, observed: each stage, run in a subprocess under an audit
hook (stage_audit.py), reads only its declared artifacts, the images and masks
manifest_used.csv names (ingest: data.manifest, data.proposals and the
manifest's paths) and the interpreter's own files; opens each artifact at
most once; and writes, creates, moves and deletes only under .staging, apart
from the commit's renames."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import synthdata

from coseg.pipeline import STAGES, load_manifest, merge_config, save_manifest
from coseg.pnm import write_pbm

RUNNER = Path(__file__).with_name("stage_audit.py")
SRC = Path(__file__).resolve().parent.parent / "src"

FAST = {
    "seed": "5", "train.iterations": "40", "train.batch_size": "16", "train.layers": "16,8",
    "index.n_trees": "4", "index.leaf_capacity": "4", "retrieve.k": "3", "retrieve.search_k": "4",
    "collage.limit": "4",
}


def audit(cfg: dict[str, str], stages=None, sabotage=None) -> dict:
    """stage_audit.py's record of a subprocess run. The subprocess writes no
    bytecode, so the interpreter's own imports write nothing."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    request = json.dumps({"cfg": cfg, "stages": stages, "sabotage": sabotage})
    done = subprocess.run([sys.executable, str(RUNNER), request], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _within(path: Path, root: Path) -> bool:
    return path == root or root in path.parents


def breaches(record: dict, cfg: dict[str, str]) -> list[str]:
    """Every event in record that breaks the contract, as 'call <n> <stage>: what'."""
    def real(path):
        return Path(os.path.realpath(path))

    out = real(cfg["data.out_dir"])
    staging = out / ".staging"
    prefixes = [real(sys.prefix), real(sys.base_prefix)]  # the subprocess runs sys.executable
    data = {real(p) for r in load_manifest(out / "manifest_used.csv")
            for p in (r.image_path, r.gt_mask_path) if p}
    found = [f"outside any stage: {e}" for e in record["outside"]]
    for n, call in enumerate(record["calls"]):
        stage = STAGES[call["stage"]]
        where = f"call {n} {call['stage']}"
        inputs = {out / a for a in stage.reads} | data
        if call["stage"] == "ingest":
            inputs |= {real(cfg["data.manifest"]), real(cfg["data.proposals"])}
        commit = {(staging / a, out / a) for a in stage.writes}
        replaced = {out / a for a in stage.writes}
        opened: dict[Path, int] = {}
        rmtree = None  # the tree shutil.rmtree is removing, whose entries it reaches by fd
        for event, path, dst, writes in call["events"]:
            if path is None:
                if rmtree is None or not _within(rmtree, staging):
                    found.append(f"{where}: {event} by fd, in no tree under .staging")
                continue
            path = real(path)
            if event == "shutil.rmtree":
                rmtree = path
            if event == "os.rename":
                # the commit, or an old output directory moved into staging to be deleted
                dst = real(dst) if dst else None
                aside = dst and _within(dst, staging) and (_within(path, staging) or path in replaced)
                if (path, dst) not in commit and not aside:
                    found.append(f"{where}: renames {path} to {dst}")
            elif _within(path, staging):
                continue
            elif event == "os.mkdir" and _within(staging, path):
                continue  # staging.mkdir(parents=True) makes data.out_dir first
            elif writes:
                found.append(f"{where}: {event} {path} outside .staging")
            elif path in inputs or any(_within(path, p) for p in prefixes):
                if _within(path, out):
                    opened[path] = opened.get(path, 0) + 1
            else:
                found.append(f"{where}: {event} {path}, which it may not read")
        found += [f"{where}: opens {p.name} {k} times" for p, k in opened.items() if k > 1]
    return found


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A synthetic set in which every third image's ground truth is its box
    drawn as a PBM mask, so retrieve and evaluate read masks; returns its config."""
    root = tmp_path_factory.mktemp("contract")
    manifest, proposals = synthdata.make_image_dataset(root, seed=2)
    records = load_manifest(manifest)
    for k, r in enumerate(records):
        if k % 3 == 0:
            mask = np.zeros((synthdata.IMAGE_SIDE,) * 2, dtype=bool)
            b = r.gt_box
            mask[b.y : b.y + b.h, b.x : b.x + b.w] = True
            write_pbm(root / f"{r.item_id}.pbm", mask)
            records[k] = replace(r, gt_box=None, gt_mask_path=f"{r.item_id}.pbm")
    save_manifest(records, manifest)
    return merge_config({"data.manifest": str(manifest), "data.proposals": str(proposals),
                         "data.out_dir": str(root / "out"), **FAST})


@pytest.fixture(scope="module")
def pipeline_record(dataset):
    return audit(dataset)


def test_every_stage_keeps_the_contract(dataset, pipeline_record):
    assert breaches(pipeline_record, dataset) == []


def test_the_record_sees_the_masks_and_the_commit(dataset, pipeline_record):
    # the check above is empty only if the hook saw what it must judge
    out = Path(os.path.realpath(dataset["data.out_dir"]))
    calls = pipeline_record["calls"]
    assert [c["stage"] for c in calls] == list(STAGES) * 2
    opened = {c["stage"]: {Path(e[1]).suffix for e in c["events"] if e[0] == "open" and e[1]} for c in calls}
    assert ".pbm" in opened["retrieve"] and ".pbm" in opened["evaluate"]
    renamed = {(Path(e[1]).name, Path(e[2])) for c in calls for e in c["events"] if e[0] == "os.rename"}
    assert ("collages", out / "collages") in renamed and ("collages", out / ".staging" / ".old") in renamed


@pytest.mark.parametrize("sabotage, breach", [
    ("with_name", "items.csv, which it may not read"),
    ("out_dir", "emb_test.csgd outside .staging"),
])
def test_a_stage_breaking_the_contract_is_caught(dataset, pipeline_record, tmp_path, sabotage, breach):
    # embed alone, over a copy of the finished run, with stage_audit.py's broken embed
    out = tmp_path / "out"
    shutil.copytree(dataset["data.out_dir"], out)
    cfg = {**dataset, "data.out_dir": str(out)}
    found = breaches(audit(cfg, stages=["embed"], sabotage=sabotage), cfg)
    assert len(found) == 1 and found[0].startswith("call 0 embed: ") and found[0].endswith(breach), found
