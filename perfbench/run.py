"""coseg benchmark: the seven-stage pipeline on seeded synthetic data.

    python3 perfbench/run.py --workload desk-vga --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; coseg is imported from ./src. One
invocation:

1. sets up five times, once in this process and four times in fresh
   interpreters. A set-up imports coseg, generates the workload's data set
   from --seed and runs the pipeline once, cold. `setup_s` is the median
   time from interpreter start-up to the end of that first run, and
   `peak_rss_mb` the median peak RSS of those processes, which is what one
   `coseg pipeline` process costs. Every set-up must produce the same data
   bytes and the same artifact bytes;
2. runs `coseg.pipeline.run_pipeline` back to back in this now warm process
   for about --seconds, each run into an empty output directory, and checks
   every run: model.csgm, index.csgi, groups.jsonl and report.json by sha256
   against the first run, groups against a brute-force search, the report
   and the collages by shape (see checks.py);
3. with --trace 0 reports the end-to-end metrics, timings as medians over
   the timed runs. With --trace 1 it alternates untraced and traced runs and
   reports the per-layer metrics as medians over the traced ones
   (tracing.py); their spans are written out when the run ends.

Every time reported, set-ups included, is scaled to the host's quiet speed:
a side thread samples how fast this process runs (hostspeed.py), and each
wall time is divided by how much slower than quiet the host ran during it.
On a host shared with other tenants this takes out most of their load,
which otherwise moves wall times by a third from one minute to the next.
The unscaled wall times are kept in the results file and printed as
`wall_s` and `setup_wall_s` lines.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it give the environment and every metric with its
unit. Results and spans go to perfbench/out/; the generated data is deleted
when the invocation ends. perfbench/predictions.json says which end-to-end
metric each per-layer metric should move, on which workload.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

from hostspeed import HostSpeed  # noqa: E402

# sampled from start-up on, so set-up time can be scaled like run times
SPEED = HostSpeed().start()

import os  # noqa: E402

# fixed BLAS thread count, set before NumPy loads so every commit measures alike
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
MIN_RUNS = 3  # timed runs per invocation (of each kind when tracing)
SETUPS = 5  # this process plus four fresh interpreters
# no timed run may start that would end more than this many seconds after
# start-up, so an invocation exits well within three minutes
DEADLINE_S = 150.0

sys.path.insert(0, str(BENCH_DIR))

from checks import check_run, sha256s, tree_bytes  # noqa: E402
from datagen import write_dataset  # noqa: E402
from tracing import Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_coseg():
    """Import coseg.pipeline from this checkout's src/, refusing any other copy."""
    if not (SRC / "coseg" / "pipeline.py").is_file():
        sys.exit(f"error: {SRC}/coseg not found; run from the root of a coseg checkout")
    sys.path.insert(0, str(SRC))
    import coseg.pipeline

    if Path(coseg.pipeline.__file__).resolve().parent != SRC / "coseg":
        sys.exit(f"error: imported coseg from {coseg.pipeline.__file__}, not {SRC}")
    return coseg.pipeline


def environment() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB. VmHWM covers only the
    process's own address space; ru_maxrss would also count the RSS of the
    parent that forked it, which here is larger than a set-up's own."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Bench:
    """The pipeline runs of one process, their checks and their raw numbers."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.pipeline = _import_coseg()
        wl = WORKLOADS[workload]
        self.data = work / "data"
        self.manifest, proposals = write_dataset(self.data, wl.data, seed)
        self.out_dir = work / "out"
        self.cfg = self.pipeline.merge_config({
            "seed": str(seed),
            "data.manifest": str(self.manifest),
            "data.proposals": str(proposals),
            "data.out_dir": str(self.out_dir),
            **wl.config,
        })
        k = int(self.cfg["retrieve.k"])
        budget = max(int(self.cfg["retrieve.search_k"]), (k + 1) * int(self.cfg["index.n_trees"]))
        self.expect = {
            "train_items": wl.data.train_items,
            "test_items": wl.data.test_items,
            "k": k,
            "iou_filter": float(self.cfg["retrieve.iou_filter"]),
            "exact": budget >= wl.data.test_items,
            "min_recall": wl.min_recall,
            "collage_limit": int(self.cfg["collage.limit"]),
        }
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"failed: {why}", file=sys.stderr)

    def run_once(self, tracer: Tracer | None = None, run_id: int = 0) -> dict | None:
        """One timed pipeline run plus its checks; None when it failed."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                stages = self.pipeline.run_pipeline(self.cfg)
                end = time.perf_counter()
            else:
                first_span = len(tracer.spans)
                tracer.run = run_id
                tracer.install()
                try:
                    with tracer.span("pipeline.run") as span:
                        stages = self.pipeline.run_pipeline(self.cfg)
                finally:
                    tracer.uninstall()
                start, end = span["start"], span["end"]
            maxrss_mb = peak_rss_mb()
            fails, quality = check_run(self.out_dir, self.manifest, self.expect)
            if tracer is not None:
                fails += tracer.gaps(tracer.spans[first_span:], self.pipeline.STAGE_NAMES)
            hashes = sha256s(self.out_dir)
        except Exception as exc:  # a crashed run is a failed run, not a crashed benchmark
            fails, hashes = [f"{type(exc).__name__}: {exc}"], None
        if hashes is not None and not fails:
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                fails.append("artifact sha256 differs from the first run of this seed")
        if fails:
            self.fail(f"run {run_id}: " + "; ".join(fails[:5]))
            return None
        return {
            "run": run_id,
            "pipeline_s": end - start,
            "spin": SPEED.mean_spin(start, end),
            "end": end,
            "maxrss_mb": maxrss_mb,
            "stages": stages,
            "out_bytes": tree_bytes(self.out_dir),
            "index_bytes": (self.out_dir / "index.csgi").stat().st_size,
            **quality,
        }


def setup_only(workload: str, seed: int, work: Path) -> None:
    """A set-up in a fresh interpreter; prints what the parent compares."""
    bench = Bench(workload, seed, work)
    warm = bench.run_once()
    print(json.dumps(warm and {
        **setup_record(warm),
        "maxrss_mb": warm["maxrss_mb"],
        "hashes": bench.reference,
        "data": _digest(bench.data),
    }))


def setup_record(warm: dict) -> dict:
    """The set-up ending with this process's first run, at quiet speed."""
    wall = warm["end"] - T0
    return {"wall_s": wall, "setup_s": wall * SPEED.quiet() / SPEED.mean_spin(T0, warm["end"])}


def at_quiet_speed(run: dict) -> float:
    """A run's wall time scaled to the host's quiet speed (hostspeed.py)."""
    return run["pipeline_s"] * SPEED.quiet() / run["spin"]


def more_setups(bench: Bench, workload: str, seed: int, work: Path) -> list[dict]:
    """SETUPS - 1 set-ups in fresh interpreters, checked against this one."""
    done, data = [], _digest(bench.data)
    for i in range(1, SETUPS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work / f"setup{i}")]
        bench.attempted += 1
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.strip().splitlines()
        got = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if got is None:
            bench.fail(f"set-up {i} did not finish: {proc.stderr.strip()[-500:]}")
        elif got["data"] != data:
            bench.fail(f"set-up {i}: the generator wrote other bytes for the same seed")
        elif got["hashes"] != bench.reference:
            bench.fail(f"set-up {i}: artifacts differ from this process's for the same seed")
        else:
            done.append(got)
        shutil.rmtree(work / f"setup{i}", ignore_errors=True)
    return done


def end_to_end(bench: Bench, setups: list[dict], runs: list[dict]) -> dict:
    pipeline_s = statistics.median(at_quiet_speed(r) for r in runs)
    last = runs[-1]
    return {
        "pipeline_s": (pipeline_s, "s"),
        "items_per_s": (bench.expect["test_items"] / pipeline_s, "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(s["maxrss_mb"] for s in setups), "MB"),
        "out_bytes": (statistics.median(r["out_bytes"] for r in runs), "bytes"),
        "recall_at_k": (last["recall_at_k"], "fraction"),
        "same_class_at_k": (last["same_class_at_k"], "fraction"),
        "avg_precision": (last["avg_precision"], "fraction"),
        "avg_jaccard": (last["avg_jaccard"], "fraction"),
        "success_frac": (1.0 - bench.failed / bench.attempted, "fraction"),
    }


# embedder.mine_useful_frac exceeds 1 when the train set has fewer than
# 2 * batch_size rows, so it is a ratio, not a fraction
UNITS = {"_s": "s", "_ms": "ms", "_bytes": "bytes", "_frac": "ratio"}


def unit_of(name: str) -> str:
    return next((u for sfx, u in UNITS.items() if name.endswith(sfx)), "count")


def per_layer(bench: Bench, untraced: list[dict], traced: list[tuple[dict, list[dict]]]):
    """Per-layer metrics (medians over traced runs) and each stage's median
    share of its traced run. Every time is scaled to quiet speed by its own
    run's factor, as pipeline_s is, so layers and end-to-end times compare."""
    stages = bench.pipeline.STAGE_NAMES
    runs = []
    for rec, spans in traced:
        scale = at_quiet_speed(rec) / rec["pipeline_s"]
        m = layer_metrics(spans, stages, bench.cfg, rec["index_bytes"])
        m = {k: v * scale if unit_of(k) in ("s", "ms") else v for k, v in m.items()}
        m["trace.pipeline_s"] = at_quiet_speed(rec)
        runs.append(m)
    layers = median_metrics(runs)
    # each traced run follows an untraced one; pairing them cancels the
    # slow drift in host speed that separate medians would keep
    plain = {r["run"]: at_quiet_speed(r) for r in untraced}
    pairs = [at_quiet_speed(rec) - plain[rec["run"] - 1] for rec, _ in traced if rec["run"] - 1 in plain]
    layers["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
    shares = {
        stage: statistics.median(m[f"pipeline.{stage}_s"] / m["trace.pipeline_s"] for m in runs)
        for stage in stages
    }
    return {name: (value, unit_of(name)) for name, value in layers.items()}, shares


def measure(bench: Bench, seconds: float, trace: bool):
    """Back-to-back timed runs for about `seconds`; traced ones alternate in
    when `trace` is set. Returns (untraced records, (record, spans) pairs,
    tracer)."""
    tracer = Tracer()
    untraced: list[dict] = []
    traced: list[tuple[dict, list[dict]]] = []
    start = time.perf_counter()
    run_id = 0
    while True:
        run_id += 1
        trace_this = trace and run_id % 2 == 0
        first_span = len(tracer.spans)
        rec = bench.run_once(tracer if trace_this else None, run_id)
        if rec is not None and trace_this:
            traced.append((rec, tracer.spans[first_span:]))
        elif rec is not None:
            untraced.append(rec)
        now = time.perf_counter()
        next_end = now + (now - start) / run_id
        done = len(traced) if trace else len(untraced)
        if done >= MIN_RUNS and next_end - start > seconds:
            break
        if next_end - T0 > DEADLINE_S or bench.failed >= MIN_RUNS:
            break
    return untraced, traced, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="coseg pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only is not None:
        setup_only(args.workload, args.seed, args.setup_only)
        return 0

    _import_coseg()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        warm = bench.run_once()
        setups = [{**setup_record(warm), "maxrss_mb": warm["maxrss_mb"]}] if warm else []
        env = environment()
        print("env " + json.dumps(env), flush=True)
        untraced, traced, tracer = [], [], None
        if warm is not None:
            if not args.trace:
                setups += more_setups(bench, args.workload, args.seed, work)
            untraced, traced, tracer = measure(bench, args.seconds, bool(args.trace))

        metrics, shares = {}, {}
        if setups and untraced and (traced or not args.trace):
            if args.trace:
                metrics, shares = per_layer(bench, untraced, traced)
            else:
                metrics = end_to_end(bench, setups, untraced)
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value:18.6f} {unit}")
        if metrics and not args.trace:
            print(f"{'wall_s':32s} {statistics.median(r['pipeline_s'] for r in untraced):18.6f} s (unscaled)")
            print(f"{'setup_wall_s':32s} {statistics.median(s['wall_s'] for s in setups):18.6f} s (unscaled)")
        if shares:
            print("stage shares of trace.pipeline_s: "
                  + ", ".join(f"{k} {v:.0%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))

        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "environment": env, "config": bench.cfg, "expect": bench.expect,
            "setups": setups, "runs": untraced + [rec for rec, _ in traced],
            "quiet_spin_s": SPEED.quiet(),
            "stage_shares": shares, "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }, indent=1) + "\n", encoding="utf-8")
        if tracer is not None and args.trace:
            tracer.write(OUT / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SPEED.stop()
