#!/usr/bin/env python3
"""Confirm the classifiers against exhaustive enumeration, one size at a time.

Runs the ``path-classes``, ``cycle-classes`` and ``cover-search`` checks
of the verification registry (``indeq.checks``), one size per call, and
prints each result with its time.  For a path or cycle the oracle grows
every graph on the same vertex count edge by edge up to the edge count
the polynomial forces, drops each graph whose independent-set counts can
no longer reach the reference's, and keeps the graphs of the last level
whose counts equal the reference's.  Adding an edge never creates an
independent set, and the independent 3-sets that adding xy removes,
n - |N[x] | N[y]|, never grow in number in a supergraph, so a child is
dropped before its augmentation test once the edges left, each removing
at most the largest such loss over its parent's non-edges, cannot bring
its 3-sets down to the reference's; every member's canonical ancestors
are spanning subgraphs of it and pass both tests.  Each child's counts
come from its parent's, and every count is made by the oracle's own
brute-force counter (``indpoly.bruteforce_counter``), never by the
classifier's evaluator.  The survivors must be exactly the classifier's
members (for odd paths, the path alone).  The only inputs to the search
are the reference's counts, so the confirmation is independent of the
classification argument.  The catalogue cover search is then compared
with the classifier for every even path size up to ``--max-path``.

Usage: python scripts/exhaustive_crosscheck.py [--max-path 12] [--max-cycle 10]

The class search is capped at 14 vertices: ``--max-path 14`` adds P_13
and P_14, ``--max-cycle 14`` adds C_11 to C_14, and README.md gives the
times of the defaults, of P_12 to P_14 and of C_12.  A larger
``--max-path`` or ``--max-cycle`` is refused before any check runs.
"""

import argparse
import sys
import time

from indeq.checks import CHECKS
from indeq.oracle import CLASS_MAX


def run(label: str, check: str, bounds: dict) -> bool:
    start = time.perf_counter()
    ok, detail = CHECKS[check](bounds)
    elapsed = time.perf_counter() - start
    print(f"{label}: {detail} [{elapsed:.1f}s] {'ok' if ok else 'MISMATCH'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-path", type=int, default=12)
    parser.add_argument("--max-cycle", type=int, default=10)
    args = parser.parse_args()
    for flag, value in (("--max-path", args.max_path), ("--max-cycle", args.max_cycle)):
        if value > CLASS_MAX:
            parser.error(f"{flag} {value} is above the class search's cap of {CLASS_MAX} vertices")
    ok = True
    for n in range(3, args.max_path + 1):
        if n % 2 == 0:
            bounds = {"class_paths": (n,), "odd_paths": ()}
        else:
            bounds = {"class_paths": (), "odd_paths": (n,)}
        ok &= run(f"P_{n}", "path-classes", bounds)
    if args.max_path >= 4:
        ok &= run("cover search", "cover-search", {"search": args.max_path})
    for n in range(3, args.max_cycle + 1):
        ok &= run(f"C_{n}", "cycle-classes", {"cycles": (n,)})
    print("all confirmations passed" if ok else "MISMATCH FOUND", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
