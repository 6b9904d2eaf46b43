#!/usr/bin/env python3
"""Confirm the classifiers against exhaustive enumeration, one size at a time.

Runs the ``path-classes``, ``cycle-classes`` and ``cover-search`` checks
of the verification registry (``indeq.checks``), one size per call, and
prints each result with its time.  For a path or cycle the oracle lists
every graph on the same vertex and edge counts (up to isomorphism) and
keeps those whose independent-set counts equal the reference's, every
count made by the oracle's own brute-force counter
(``indpoly.bruteforce_counts``), never by the classifier's evaluator; the
survivors must be exactly the classifier's members (for odd paths, the
path alone).  The only inputs to the enumeration are the two counts
forced by the polynomial, so the confirmation is independent of the
classification argument.  The catalogue cover search is then compared with the
classifier for every even path size up to ``--max-path``.

Usage: python scripts/exhaustive_crosscheck.py [--max-path 10] [--max-cycle 9]

The defaults take about 5.5 s on a 2-vCPU host.  The filtered enumeration
is capped at 12 vertices, so P_11, P_12 and C_10 to C_12 are within the
cap but limited by time: on the same host P_11 takes about 11 s, C_10
about 5 s and P_12 about 47 s; C_11 and C_12 grow through several times
as many classes and have not been timed.
"""

import argparse
import sys
import time

from indeq.checks import CHECKS


def run(label: str, check: str, bounds: dict) -> bool:
    start = time.perf_counter()
    ok, detail = CHECKS[check](bounds)
    elapsed = time.perf_counter() - start
    print(f"{label}: {detail} [{elapsed:.1f}s] {'ok' if ok else 'MISMATCH'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-path", type=int, default=10)
    parser.add_argument("--max-cycle", type=int, default=9)
    args = parser.parse_args()
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
