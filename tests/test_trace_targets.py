"""The benchmark's tracer (perfbench/tracing.py) wraps functions by name in the
namespaces the pipeline calls them from. A renamed or no longer called target
would make its per-layer metric read 0; this run shows every target is still
present and called, and every stage leaves a span."""

import importlib.util
from pathlib import Path

import pytest
import synthdata
from coseg.pipeline import STAGE_NAMES, merge_config, run_pipeline

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mining", ["aggressive", "random"])
def test_traced_pipeline_run_has_no_gaps(tmp_path, mining):
    manifest, proposals = synthdata.make_image_dataset(tmp_path, seed=0)
    cfg = merge_config({
        "data.manifest": str(manifest),
        "data.proposals": str(proposals),
        "data.out_dir": str(tmp_path / "out"),
        "seed": "7",
        "train.iterations": "30",
        "train.batch_size": "16",
        "train.layers": "32,16",
        "train.mining": mining,
        "index.n_trees": "4",
        "retrieve.k": "3",
        "collage.limit": "2",
    })
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        with tracer.span("pipeline.run"):
            run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert tracer.gaps(tracer.spans, STAGE_NAMES) == []
