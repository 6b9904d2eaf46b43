"""indeq benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload oracle|families|basis|all --seed N \
        --seconds S --trace 0|1

A run makes a fixed number of passes, set by --seconds alone.  A pass is
one fresh worker process (worker.py) that sets up, runs the workload's op
list serially and checks every output.  Every pass pays its own import
and cold caches, as each real process does.  With --trace 1 every
untraced pass is followed by a traced one, and the run reports per-layer
spans plus the trace overhead.

Metric names and units come from BENCHMARK.json.  Human-readable lines
go first.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle", "families", "basis")
# Seconds one pass of each workload took on the seed code (2 vCPU, Python
# 3.11.7).  The pass count of a run is --seconds over this, whatever the
# speed of the code measured, so two commits get the same samples and a
# faster one simply finishes sooner.
PASS_S = {"oracle": 8.0, "families": 5.7, "basis": 4.3}
MIN_PASSES = 3
SETUP_SAMPLES = 9  # set-up is timed in every pass; extra set-up-only processes fill up to this
PASS_TIMEOUT_S = 150
MIN_COVERAGE = 0.9
SHARE_TOLERANCE = 0.10
# what the program sees: no worker pool and one hash seed, whatever the caller's environment
PINNED_ENV = {"INDEQ_WORKERS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def per_op(passes: list[dict], key: str, pick) -> list[float]:
    """Each op's latency over the run's passes, in seconds: pick (min or
    median) over the passes of the op's time under key."""
    return [pick(column) for column in zip(*(p[key] for p in passes))]


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (exclusive method), q in 1..99."""
    return statistics.quantiles(values, n=100)[q - 1]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # git would report the HEAD of an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    """Run the passes that `seconds` buys; return (metrics, counts, notes)."""
    plain, traced = [], []
    for _ in range(max(MIN_PASSES, round(seconds / PASS_S[workload]))):
        plain.append(worker(workload, seed))
        if trace:
            traced.append(worker(workload, seed, "--trace"))
    passes = plain + traced
    setups = [p["setup_ref_s"] for p in plain]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, "--setup-only")["setup_ref_s"])

    # each op at the reference speed, median over the passes
    op_ms = [t * 1000 for t in per_op(plain, "op_ref_s", statistics.median)]
    wall = sum(op_ms) / 1000
    raw_wall = sum(per_op(plain, "op_s", min))
    notes = [f"as measured: wall {raw_wall:.4g} s (fastest repeat of each op); "
             "host slowdown per pass " + ", ".join(f"{p['slowdown']:.2f}" for p in plain)]
    metrics = {
        "wall_s": (wall, len(plain)),
        "op_p50_ms": (statistics.median(op_ms), len(op_ms)),
        "op_p90_ms": (quantile(op_ms, 90), len(op_ms)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), len(plain)),
        "setup_s": (statistics.median(setups), len(setups)),
    }
    if trace:
        metrics.update(layer_metrics(workload, traced, raw_wall, notes))
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    notes += [f"failed op: {f}" for f in dict.fromkeys(failures)]
    counts = {"attempted": attempted, "failed": len(failures)}
    return metrics, counts, notes


def layer_metrics(workload: str, traced: list[dict], plain_wall: float, notes: list[str]) -> dict:
    """Per-layer spans of the traced passes.  These time the code as
    measured, not at the reference speed, and so does the untraced
    plain_wall that trace.overhead divides by."""
    import spans

    n = len(traced)
    layers = {k: (statistics.median(p["layers"][k] for p in traced), n) for k in traced[0]["layers"]}
    wall = sum(per_op(traced, "op_s", min))
    layers["trace.overhead"] = (wall / plain_wall, n)
    coverage = layers["trace.coverage"][0]
    if coverage < MIN_COVERAGE:
        notes.append(f"TRACE COVERAGE {coverage:.3f} below {MIN_COVERAGE}: time escaped the spans")

    def share(key: str) -> float:
        """Self time over the traced pass's op time, median over traced passes."""
        return statistics.median(p["layers"][key + ".self_s"] / sum(p["op_s"]) for p in traced)

    for key, predicted in spans.PREDICTED_SHARES[workload].items():
        measured = share(key)
        verdict = "differs" if abs(measured - predicted) > SHARE_TOLERANCE else "as predicted"
        notes.append(f"share {key}: predicted {predicted:.2f}, measured {measured:.2f} ({verdict})")
    dominant = spans.DOMINANT[workload]
    total = sum(share(m) for m in dominant)
    notes.append(f"share {'+'.join(dominant)}: {total:.2f} "
                 f"({'dominates' if total > 0.5 else 'does NOT dominate, contrary to prediction'})")
    return layers


def run_one(workload: str, args, spec: dict) -> dict:
    metrics, counts, notes = measure(workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    coverage_ok = not args.trace or metrics["trace.coverage"][0] >= MIN_COVERAGE
    fail_ratio = counts["failed"] / counts["attempted"]
    for note in notes:
        print(f"{workload}: {note}")
    for m in wanted:
        value, samples = metrics[m["name"]]
        print(f"{workload}: {m['name']} = {value:.6g} {m['unit']} (samples: {samples})")
    print(f"{workload}: fail_ratio = {fail_ratio:.6g} ({counts['failed']} of {counts['attempted']} ops)")
    return {
        "correct": counts["failed"] == 0 and coverage_ok,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into an exception, so that subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "indeq", "__init__.py")):
        print("error: src/indeq not found next to the benchmark; nothing to measure", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    try:
        if args.workload != "all":
            result = run_one(args.workload, args, spec)
        else:
            results = {w: run_one(w, args, spec) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
