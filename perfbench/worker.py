"""One pass of one workload, in a fresh process: set up, run every op, check.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Prints one JSON object.  Set-up is the import of indeq plus input
generation.  Timing ends with the last op; peak RSS is read before any
check runs.  An untraced pass samples the host's speed throughout
(speed.py) and reports set-up and every op both as measured and at the
reference speed; a traced pass reports them as measured.  Checks run only after the last op, with tracing removed, so
they can neither warm a library cache for a timed op nor land in a span.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEMORY_LIMIT = 2 << 30  # address space; a blow-up fails an op instead of the machine


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    sampler = None
    if not args.trace:
        import speed

        sampler = speed.Sampler()
        sampler.start()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed)
    setup_end = time.perf_counter()
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_end - START, "setup_ref_s": sampler.scaled(START, setup_end)}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    run = workload.run if tracer is None else lambda op: tracer.call(spans.BENCH, workload.run, op)
    outputs, intervals = [], []
    begin = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(run(op))
        except Exception as exc:  # an op that raises (MemoryError included) fails
            outputs.append(exc)
        intervals.append((t0, time.perf_counter()))
    wall_s = time.perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_s = [t1 - t0 for t0, t1 in intervals]
    timing = {"setup_s": setup_end - START, "op_s": op_s}
    layers = None
    if sampler is not None:
        sampler.stop()
        timing.update(setup_ref_s=sampler.scaled(START, setup_end),
                      op_ref_s=[sampler.scaled(t0, t1) for t0, t1 in intervals],
                      slowdown=sampler.slowdown(begin, begin + wall_s))
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.report(wall_s)

    failures = []
    for op, out in zip(ops, outputs):
        try:
            ok = not isinstance(out, Exception) and workload.check(op, out)
        except Exception as exc:
            out, ok = exc, False
        if not ok:
            failures.append(f"{op.kind} {op.label}: {out!r}"[:300])
    print(json.dumps({
        **timing, "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops), "failures": failures, "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
