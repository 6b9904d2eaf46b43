"""Acceptance criteria: one test per claim, each printing a PASS/FAIL line.

Every criterion is exact arithmetic except the root cross-check, whose
stated agreement tolerance is 1e-9.  Runtime budgets are asserted
against the wall clock.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.

Criteria 3-9 run the checks of the verification registry
(``indeq.checks``): 3, 7, 8 and 9 at the ``full`` bounds, 4-6 at their
own class sizes next to the member lists the paper states.
"""

import math
import time
import warnings
from fractions import Fraction

from indeq.checks import BOUNDS, CHECKS
from indeq.classify import EvenCycleClassNote, cycle_class, path_class
from indeq.factorbasis import basis_f, basis_ftilde, factor_path, real_cyclotomic
from indeq.graphcore import build, canonical_form
from indeq.indpoly import cycle_polynomial, independence_polynomial, path_polynomial
from indeq.polyalg import IntPoly, SturmChain, count_real_roots, refine_root

from conftest import fs


FULL = BOUNDS["full"]


def _claim(name, bounds):
    """Run one registry check; its detail names the counterexample on failure."""
    ok, detail = CHECKS[name](bounds)
    assert ok, detail


def _report(num, description, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description} "
          f"[{elapsed:.1f}s, budget {budget_s:.0f}s]")
    assert ok, f"runtime budget exceeded: {elapsed:.1f}s >= {budget_s}s"


def test_criterion_01_coefficients():
    def body():
        assert independence_polynomial(build(fs("P", 10))) == IntPoly((1, 10, 36, 56, 35, 6))
        assert independence_polynomial(build(fs("C", 6))) == IntPoly((1, 6, 9, 2))

    _report(1, "path/cycle coefficient reproduction", 1.0, body)


def test_criterion_02_basis_pipeline():
    def body():
        assert basis_f(2).poly == IntPoly((1, 2))
        assert basis_f(3).poly == IntPoly((1, 3))
        assert basis_f(6).poly == IntPoly((1, 4, 1))
        assert basis_ftilde(3).poly == IntPoly((1, 1))
        # the factors equal the defining pipeline minimal-poly -> shift(-2) -> reverse
        for n in range(2, 61):
            assert basis_f(n).poly == real_cyclotomic(2 * n).shift(-2).reverse_negate(), n
        for n in range(3, 121, 2):
            assert basis_ftilde(n).poly == real_cyclotomic(n).shift(-2).reverse_negate(), n
        assert [f.name for f in factor_path(10)] == ["f2", "f3", "f6", "f~3"]

    _report(2, "basis factors via the shift-and-reverse pipeline", 1.0, body)


def test_criterion_03_factorization_identities():
    def body():
        assert FULL["factor"] == 200
        _claim("factor-products", FULL)

    _report(3, "factor products equal recurrence polynomials, n <= 200", 60.0, body)


def test_criterion_04_p10_class_count():
    def body():
        assert len(path_class(10).canonical_forms()) == 10
        _claim("path-classes", {"class_paths": (10,), "odd_paths": ()})

    _report(4, "P_10 has exactly ten equivalent graphs, confirmed exhaustively", 600.0, body)


def test_criterion_05_small_classes():
    expected = {
        4: [[fs("P", 4)], [fs("P", 1), fs("C", 3)]],
        6: [[fs("P", 6)], [fs("P", 2), fs("C", 4)], [fs("P", 2), fs("D", 4)]],
        8: [[fs("P", 8)], [fs("P", 3), fs("C", 5)], [fs("P", 3), fs("D", 5)]],
    }

    def body():
        for n, members in expected.items():
            want = {canonical_form(build(member)) for member in members}
            assert path_class(n).canonical_forms() == want, n
        _claim("path-classes", {"class_paths": (4, 6, 8), "odd_paths": (3, 5, 7, 9)})

    _report(5, "small path classes equal the exhaustive oracle", 300.0, body)


def test_criterion_06_cycle_classes():
    def body():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EvenCycleClassNote)
            assert cycle_class(6).canonical_forms() == {
                canonical_form(build(fs("C", 6))),
                canonical_form(build(fs("D", 6))),
                canonical_form(build([fs("K4e"), fs("P", 2)])),
            }
        assert len(cycle_class(9).canonical_forms()) == 6
        _claim("cycle-classes", {"cycles": (6, 9)})

    _report(6, "cycle classes for C_6 and C_9 confirmed exhaustively", 300.0, body)


def test_criterion_07_elimination_closed_forms():
    def body():
        assert FULL["elim"] == 20
        _claim("closed-forms", FULL)

    _report(7, "elimination closed forms equal exact evaluation, parameters <= 20", 120.0, body)


def test_criterion_08_screening():
    def body():
        assert FULL["sweep"] == 40
        _claim("screens", FULL)

    _report(8, "root screening sweeps reproduce the admissible sets, m <= 40", 120.0, body)


def test_criterion_09_equivalence_battery():
    def body():
        assert (FULL["equiv"], FULL["spider"], FULL["grid"]) == (100, 40, 10)
        _claim("equivalences", FULL)

    _report(9, "equivalence battery over the full grids", 120.0, body)


def _closed_form_roots(kind, n):
    if kind == "path":
        return sorted(
            -1.0 / (2 + 2 * math.cos(2 * i * math.pi / (n + 2)))
            for i in range(1, (n + 1) // 2 + 1)
        )
    return sorted(
        -1.0 / (2 + 2 * math.cos((2 * i - 1) * math.pi / n))
        for i in range(1, n // 2 + 1)
    )


def _check_roots_against_closed_form(poly, closed):
    assert len(closed) == poly.degree
    cuts = [Fraction(closed[0]) - 1]
    for a, b in zip(closed, closed[1:]):
        cuts.append(Fraction((a + b) / 2))
    cuts.append(Fraction(0))
    chain = SturmChain.of(poly)
    for k, approx in enumerate(closed):
        lo, hi = cuts[k], cuts[k + 1]
        # each closed-form root sits in its own certified one-root interval
        assert count_real_roots(chain, lo, hi) == 1
        rlo, rhi = refine_root(poly, lo, hi, Fraction(1, 10**12))
        assert abs(float((rlo + rhi) / 2) - approx) < 1e-9


def test_criterion_10_root_formula_cross_check():
    def body():
        for n in range(1, 51):
            _check_roots_against_closed_form(path_polynomial(n), _closed_form_roots("path", n))
        for n in range(3, 51):
            _check_roots_against_closed_form(cycle_polynomial(n), _closed_form_roots("cycle", n))

    _report(10, "closed-form roots land in distinct Sturm intervals (1e-9)", 60.0, body)
