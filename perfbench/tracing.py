"""Spans around the calls the pipeline makes into each coseg layer.

The tracer replaces a function by a timing wrapper in the namespace its
caller looks it up in (``coseg.pipeline.build``, ``coseg.retrieval.query``,
...), records one span per call in memory, and puts every original back on
`uninstall`. Nothing in coseg itself changes. Spans carry a name, start and
end (``time.perf_counter`` seconds), the id of the enclosing span, the run id
and optional counts measured at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _proposals_in(args, kwargs, result):
    return {"in": len(args[0])}


def _proposals_kept(args, kwargs, result):
    return {"kept": len(result)}


def _members(args, kwargs, result):
    return {"before": len(args[0].members.neighbors), "after": len(result.members.neighbors)}


# (module, attribute, span name, counter); a str name with "{0}" is formatted
# with the call's first argument. Every workload calls every target in every
# run (read_pbm is left out: the generated ground truth has no masks).
TARGETS = [
    ("coseg.pipeline", "run_stage", "pipeline.{0}", None),
    ("coseg.pipeline", "train", "embedder.train", None),
    ("coseg.embedder", "forward_batch", "embedder.forward_batch", _rows),
    ("coseg.retrieval", "forward_batch", "embedder.embed", _rows),
    ("coseg.pipeline", "build", "annindex.build", None),
    ("coseg.pipeline", "save_index_file", "annindex.save", None),
    ("coseg.pipeline", "load_index_file", "annindex.load", None),
    ("coseg.retrieval", "query", "annindex.query", None),
    ("coseg.pipeline", "retrieve_similar", "retrieval.retrieve", None),
    ("coseg.pipeline", "filter_candidates", "retrieval.filter", _members),
    ("coseg.pipeline", "read_image", "pnm.read", _file_bytes),
    ("coseg.pipeline", "write_ppm", "pnm.write", None),
    ("coseg.pipeline", "patch_descriptor", "descriptors.patch", None),
    ("coseg.pipeline", "load_descriptors_file", "descriptors.io", None),
    ("coseg.pipeline", "save_descriptors_file", "descriptors.io", None),
    ("coseg.pipeline", "dedup_near", "geometry.reduce", _proposals_in),
    ("coseg.pipeline", "nms", "geometry.reduce", None),
    ("coseg.pipeline", "top_k", "geometry.reduce", _proposals_kept),
    ("coseg.pipeline", "evaluate", "metrics.evaluate", None),
    ("coseg.pipeline", "make_collage", "collage.make", None),
]


class Tracer:
    """In-memory span recorder; install() patches TARGETS, uninstall() undoes it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # targets this version of coseg lacks
        self.calls: dict[str, int] = {}  # target -> calls since install()

    def install(self) -> None:
        self.calls = {}
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            target = f"{module_name}.{attr}"
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(target)
                continue
            self.calls[target] = 0
            setattr(module, attr, self._wrap(original, name, counter, target))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def gaps(self, spans: list[dict], stages) -> list[str]:
        """Why the spans of the run since install() cannot give every
        per-layer metric: a target this coseg lacks, a target the pipeline
        no longer calls there, or a stage with no span. Any of these would
        make a layer read 0, as if it had become free."""
        found = {s["name"] for s in spans}
        out = [f"trace target {t} absent" for t in sorted(self.missing)]
        out += [f"trace target {t} not called" for t, n in sorted(self.calls.items()) if n == 0]
        out += [f"no pipeline.{stage} span" for stage in stages if f"pipeline.{stage}" not in found]
        if not _mining(spans):
            out.append("no embedder.forward_batch span inside embedder.train")
        return out

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name: str, counter, target: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[target] += 1
            span = self._open(name.format(*args[:1]))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover. Spans
    come from one thread, so children never overlap each other."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _mining(spans: list[dict]) -> list[dict]:
    """forward_batch spans inside train: hard-pair mining's re-embeds."""
    train_ids = {s["id"] for s in spans if s["name"] == "embedder.train"}
    return [s for s in spans if s["name"] == "embedder.forward_batch" and s["parent"] in train_ids]


def layer_metrics(spans: list[dict], stages, cfg: dict[str, str], index_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, from its spans."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(group):
        return sum(s["end"] - s["start"] for s in group)

    def self_busy(group):
        return sum(own[s["id"]] for s in group)

    def count(group, key):
        return sum(s.get("counts", {}).get(key, 0) for s in group)

    m: dict[str, float] = {}
    for stage in stages:
        m[f"pipeline.{stage}_s"] = busy(named(f"pipeline.{stage}"))
    m["pipeline.evaluate_self_s"] = self_busy(named("pipeline.evaluate"))

    train, mine = named("embedder.train"), _mining(spans)
    iterations = int(cfg["train.iterations"])
    m["embedder.train_s"] = busy(train)
    m["embedder.iter_ms"] = 1000.0 * busy(train) / iterations
    m["embedder.mine_forward_s"] = busy(mine)
    m["embedder.mine_rows"] = count(mine, "rows")
    useful = 2 * int(cfg["train.batch_size"]) * iterations
    m["embedder.mine_useful_frac"] = useful / m["embedder.mine_rows"] if mine else 0.0
    m["embedder.train_self_s"] = self_busy(train)
    m["embedder.embed_s"] = busy(named("embedder.embed"))

    queries = named("annindex.query")
    m["annindex.query_ms"] = 1000.0 * busy(queries) / len(queries) if queries else 0.0
    m["annindex.queries"] = len(queries)
    m["annindex.build_s"] = busy(named("annindex.build"))
    m["annindex.save_s"] = busy(named("annindex.save"))
    m["annindex.load_s"] = busy(named("annindex.load"))
    m["annindex.index_bytes"] = index_bytes

    retrieve, filters = named("retrieval.retrieve"), named("retrieval.filter")
    m["retrieval.retrieve_s"] = busy(retrieve)
    m["retrieval.retrieve_self_s"] = self_busy(retrieve)
    m["retrieval.filter_s"] = busy(filters)
    m["retrieval.members_before"] = count(filters, "before")
    m["retrieval.members_after"] = count(filters, "after")

    reads, patches, reduce = named("pnm.read"), named("descriptors.patch"), named("geometry.reduce")
    m["pnm.read_s"] = busy(reads)
    m["pnm.read_bytes"] = count(reads, "bytes")
    m["pnm.write_s"] = busy(named("pnm.write"))
    m["descriptors.patch_s"] = busy(patches)
    m["descriptors.patches"] = len(patches)
    m["descriptors.io_s"] = busy(named("descriptors.io"))
    m["geometry.reduce_s"] = busy(reduce)
    m["geometry.proposals_in"] = count(reduce, "in")
    m["geometry.proposals_kept"] = count(reduce, "kept")
    m["metrics.evaluate_s"] = busy(named("metrics.evaluate"))
    collages = named("collage.make")
    m["collage.make_s"] = busy(collages)
    m["collage.collages"] = len(collages)
    return m


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
