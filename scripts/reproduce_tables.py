#!/usr/bin/env python3
"""Print the reference tables: factorizations, the shortlist screen, classes.

Everything is recomputed from scratch with exact arithmetic; nothing is
hardcoded.  Output sections:

  1. basis factors f_n / f~_n for small indices
  2. factorizations of small path and cycle polynomials
  3. the candidate shortlist with screening verdicts and values at -1/4
  4. equivalence classes of the even paths up to a bound, plus the
     sporadic cycle classes

Usage: python scripts/reproduce_tables.py [--max-path 30]
"""

import argparse
import warnings

from indeq.classify import (
    CATALOGUE,
    ELIMINATION_FORMS,
    EvenCycleClassNote,
    cycle_class,
    elimination_value,
    path_class,
    screen_family,
)
from indeq.factorbasis import basis, factor_cycle, factor_into_basis, factor_path, orders
from indeq.graphcore import build, spec
from indeq.indpoly import independence_polynomial


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-path", type=int, default=30,
                        help="largest even path to classify (default 30)")
    args = parser.parse_args()

    section("Basis factors")
    for f in map(basis, orders(12)):
        print(f"  {f.name:<4} = {f.poly}")

    section("Path and cycle factorizations")
    for n in range(3, 13):
        names = " ".join(f.name for f in factor_cycle(n))
        print(f"  I(C_{n:<2}) = {names:<18} = {independence_polynomial(build(spec('C', n)))}")
    for n in range(1, 13):
        names = " ".join(f.name for f in factor_path(n))
        print(f"  I(P_{n:<2}) = {names:<18} = {independence_polynomial(build(spec('P', n)))}")

    section("Candidate shortlist")
    for entry in CATALOGUE:
        if entry.spec is None:
            print(f"  {entry.label:<28} kept (whole family)")
            continue
        verdict = screen_family(entry.spec)
        value_text = (f"I(-1/4) = {elimination_value(entry.spec)}"
                      if entry.spec.family in ELIMINATION_FORMS else "")
        status = "eliminated: " + entry.reason if entry.eliminated else "kept"
        factors = " ".join(f.name for f in factor_into_basis(independence_polynomial(build(entry.spec))))
        print(f"  {entry.label:<12} = {factors:<14} roots-ok={verdict.admissible!s:<5} "
              f"{value_text:<18} {status}")

    section("Even path equivalence classes")
    for n in range(2, args.max_path + 1, 2):
        cls = path_class(n)
        print(f"  P_{n} ({len(cls)} member{'s' if len(cls) != 1 else ''}):")
        for line in cls.member_lines():
            print("      " + line)

    section("Sporadic cycle classes")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvenCycleClassNote)
        for n in (6, 9, 15):
            cls = cycle_class(n)
            print(f"  C_{n} ({len(cls)} members):")
            for line in cls.member_lines():
                print("      " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
