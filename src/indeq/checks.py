"""The verification registry: every claim ``indeq verify`` checks, stated once.

Each check takes a bounds dict and returns ``(ok, detail)``; ``detail``
names the claim on success and the first counterexample on failure.
A check reads only its own keys, so callers may pass a partial dict.
``BOUNDS`` holds the two named bound sets of the CLI, ``SUITES`` maps
each suite to its checks by name, in the order ``indeq verify`` runs
them, and ``CHECKS`` maps every check name to its function.  The CLI,
the acceptance tests and ``scripts/exhaustive_crosscheck.py`` all run
these same functions.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Callable

from . import classify, factorbasis, indpoly, oracle, polyalg
from .classify import QUARTER
from .graphcore import FAMILIES, FamilySpec, build, canonical_form, spec

BOUNDS: dict[str, dict] = {
    "small": {
        "equiv": 40, "spider": 15, "grid": 6, "recur": 10, "edge_verts": 10,
        "factor": 60, "degree": 120, "coprime": 24, "roots": 30,
        "elim": 6, "sweep": 15, "class_paths": (4, 6, 8), "odd_paths": (3, 5, 7),
        "cycles": (4, 5, 6), "search": 20, "enum": 6,
    },
    "full": {
        "equiv": 100, "spider": 40, "grid": 10, "recur": 20, "edge_verts": 12,
        "factor": 200, "degree": 500, "coprime": 60, "roots": 60,
        "elim": 20, "sweep": 40, "class_paths": (4, 6, 8, 10), "odd_paths": (3, 5, 7, 9),
        "cycles": (4, 5, 6, 7, 8, 9), "search": 40, "enum": 7,
    },
}

Check = Callable[[dict], tuple[bool, str]]


def _poly_of(*specs) -> polyalg.IntPoly:
    return indpoly.independence_polynomial(build(list(specs)))


def _check_equivalences(b) -> tuple[bool, str]:
    top = b["equiv"]
    for n in range(4, top + 1):
        if _poly_of(spec("C", n)) != _poly_of(spec("D", n)):
            return False, f"C:{n} != D:{n}"
    for n in range(2, top + 1):
        if _poly_of(spec("P", 2 * n)) != _poly_of(spec("P", n - 1), spec("C", n + 1)):
            return False, f"P:{2*n} != P:{n-1}+C:{n+1}"
    for m in range(1, b["spider"] + 1):
        if _poly_of(spec("Y", m, 2, 1)) != _poly_of(spec("P", 1), spec("C", m + 3)):
            return False, f"Y:{m},2,1 != P:1+C:{m+3}"
    g = b["grid"]
    for a in range(1, g + 1):
        for c in range(1, g + 1):
            pa = _poly_of(spec("A", a, c))
            if pa != _poly_of(spec("E", a, c)) or pa != _poly_of(spec("E", c, a)):
                return False, f"A/E mismatch at {a},{c}"
            if _poly_of(spec("F1", a, c)) != _poly_of(spec("F5", a, c)):
                return False, f"F1/F5 mismatch at {a},{c}"
        if _poly_of(spec("F2", a)) != _poly_of(spec("F4", a)):
            return False, f"F2/F4 mismatch at {a}"
    return True, f"cycle/path/spider/tadpole identities up to {top}"


def _check_recurrences(b) -> tuple[bool, str]:
    """Each parameter is the length of one induced path: along it, the others
    at their floors, I(G_m) = I(G_m-1) + x I(G_m-2) from floor + 2 (D's from
    4, through its stated alias D:2 = P:2)."""
    top = b["recur"]
    for name, family in FAMILIES.items():
        for i, floor in enumerate(family.floors):
            head, tail = family.floors[:i], family.floors[i + 1:]
            polys = [_poly_of(FamilySpec(name, head + (m,) + tail)) for m in range(floor, top + 1)]
            for m, (two, one, this) in enumerate(zip(polys, polys[1:], polys[2:]), floor + 2):
                if this != one + two.mul_xpow(1):
                    return False, f"two-term recurrence fails for {name} parameter {i + 1} at m={m}"
    return True, f"two-term deletion recurrences hold up to index {top}"


def _check_edge_deletion(b) -> tuple[bool, str]:
    specs = [spec("C", 6), spec("D", 6), spec("Y", 3, 2, 1), spec("E", 2, 2),
             spec("A", 2, 2), spec("B", 1, 2, 1), spec("K4e"), spec("F3", 2),
             spec("F7", 1), spec("F9", 0, 1, 0)]
    for s in specs:
        g = build(s)
        if g.n > b["edge_verts"]:
            continue
        pg = indpoly.independence_polynomial(g)
        for u, v in g.edges():
            minus_e, minus_nbhd = g.delete_edge_and_open_neighborhoods(u, v)
            rhs = indpoly.independence_polynomial(minus_e) - indpoly.independence_polynomial(minus_nbhd).mul_xpow(2)
            if pg != rhs:
                return False, f"edge identity fails for {s} at edge ({u},{v})"
    return True, "edge-deletion identity holds across the catalogue sample"


def _check_factorizations(b) -> tuple[bool, str]:
    top = b["factor"]
    for n in range(3, top + 1):
        if factorbasis.product_of(factorbasis.factor_cycle(n)) != indpoly.cycle_polynomial(n):
            return False, f"cycle factor product fails at n={n}"
    for n in range(0, top - 1):
        if factorbasis.product_of(factorbasis.factor_path(n)) != indpoly.path_polynomial(n):
            return False, f"path factor product fails at n={n}"
    return True, f"factor products reproduce path/cycle polynomials up to {top}"


def _check_degrees(b) -> tuple[bool, str]:
    top = b["degree"]
    for order in factorbasis.orders(top):
        factor = factorbasis.basis(order)
        if factor.poly.degree != factorbasis.euler_phi(order) // 2:
            return False, f"deg {factor.name} wrong"
    return True, f"basis degrees match phi-formulas up to {top}"


def _check_coprime(b) -> tuple[bool, str]:
    top = b["coprime"]
    polys = [factorbasis.basis(order).poly for order in factorbasis.orders(top)]
    if any(polyalg.poly_gcd(p, q).degree != 0 for p, q in itertools.combinations(polys, 2)):
        return False, "common factor found"
    for k in range(3, top + 1):
        fk = set(factorbasis.factor_cycle(k))
        for n in range(3, top + 1):
            divides = fk <= set(factorbasis.factor_cycle(n))
            odd_ratio = n % k == 0 and (n // k) % 2 == 1
            if divides != odd_ratio:
                return False, f"cycle divisibility law fails at k={k}, n={n}"
    return True, f"pairwise coprimality and the odd-ratio divisibility law up to {top}"


def _check_basis_roots(b) -> tuple[bool, str]:
    top = b["roots"]
    for n in range(1, top + 1):
        if not polyalg.all_roots_real_below(indpoly.path_polynomial(n), QUARTER):
            return False, f"path polynomial roots escape at n={n}"
        if n >= 3 and not polyalg.all_roots_real_below(indpoly.cycle_polynomial(n), QUARTER):
            return False, f"cycle polynomial roots escape at n={n}"
    for factor in map(factorbasis.basis, factorbasis.orders(top)):
        if not polyalg.all_roots_real_below(factor.poly, QUARTER):
            return False, f"{factor.name} roots escape"
    return True, f"all path/cycle/basis roots real and below -1/4 up to {top}"


def _check_elimination_values(b) -> tuple[bool, str]:
    top = b["elim"]
    for fam in classify.ELIMINATION_FORMS:
        floors = FAMILIES[fam].floors
        for params in itertools.product(*[range(f, top + 1) for f in floors]):
            s = FamilySpec(fam, params)
            if classify.elimination_value(s) != _poly_of(s).eval_rational(QUARTER):
                return False, f"closed form disagrees with evaluation at {s}"
    return True, f"elimination closed forms equal exact evaluation, parameters <= {top}"


def _check_screens(b) -> tuple[bool, str]:
    top = b["sweep"]
    y = {m for m in range(1, top + 1)
         if classify.screen_family(spec("Y", m, 1, 1)).admissible}
    if y != {2, 5, 10} & set(range(1, top + 1)):
        return False, f"Y:m,1,1 admissible set is {sorted(y)}"
    bb = {m for m in range(0, top + 1)
          if classify.screen_family(spec("B", m, 1, 1)).admissible}
    if bb != {0, 5} & set(range(0, top + 1)):
        return False, f"B:m,1,1 admissible set is {sorted(bb)}"
    triples = {s.params for s, v in classify.sweep_family("Y", 6)
               if v.admissible and min(s.params) >= 2}
    want = {t for legs in ((4, 2, 2), (3, 3, 2), (3, 2, 2)) for t in itertools.permutations(legs)}
    if triples != {t for t in want if max(t) <= 6}:
        return False, f"Y triple admissible set is {sorted(triples)}"
    return True, f"screening sweeps match the expected admissible sets, m <= {top}"


def _check_catalogue(b) -> tuple[bool, str]:
    for entry in classify.CATALOGUE:
        if entry.spec is None:
            continue
        g = build(entry.spec)
        try:
            found = tuple(f.name for f in factorbasis.factor_into_basis(indpoly.independence_polynomial(g)))
        except factorbasis.FactorizationError:
            found = None
        if entry.factors != found:
            return False, f"catalogue factorization wrong for {entry.label}"
        if (g.triangle_count(), g.degrees().count(3)) != (entry.triangle_count, entry.degree3_count):
            return False, f"catalogue structure counts wrong for {entry.label}"
    return True, "catalogue rows reproduce their factorizations and structure counts"


def _oracle_agrees(reference: FamilySpec, predicted: frozenset) -> bool:
    """The exhaustive class of the reference has exactly the predicted canonical forms."""
    found = oracle.equivalence_class_bruteforce(build(reference))
    return frozenset(canonical_form(g) for g in found) == predicted


def _check_path_classes(b) -> tuple[bool, str]:
    for nv in b["class_paths"]:
        if not _oracle_agrees(spec("P", nv), classify.path_class(nv).canonical_forms()):
            return False, f"path class mismatch at n={nv}"
    for nv in b["odd_paths"]:
        if not _oracle_agrees(spec("P", nv), frozenset({canonical_form(build(spec("P", nv)))})):
            return False, f"odd path P:{nv} is not unique in its class"
    return True, f"brute-force classes match for paths {b['class_paths']} and odd {b['odd_paths']}"


def _check_cycle_classes(b) -> tuple[bool, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", classify.EvenCycleClassNote)
        for n in b["cycles"]:
            if not _oracle_agrees(spec("C", n), classify.cycle_class(n).canonical_forms()):
                return False, f"cycle class mismatch at n={n}"
    return True, f"brute-force cycle classes match for n in {b['cycles']}"


def _check_search(b) -> tuple[bool, str]:
    for nv in range(2, b["search"] + 1, 2):
        if oracle.catalogue_class_search(nv).members != classify.path_class(nv).members:
            return False, f"catalogue search disagrees with the classifier at n={nv}"
    return True, f"catalogue cover search matches the classifier for even n <= {b['search']}"


def _check_enumeration(b) -> tuple[bool, str]:
    top = b["enum"]
    for n in range(1, top + 1):
        counted = oracle.count_isomorphism_classes(n)
        if counted != oracle.unlabeled_graph_count(n):
            return False, f"enumeration count wrong at n={n}: {counted}"
        if n <= oracle.NAIVE_MAX and counted != oracle.naive_bucket_count(n):
            return False, f"naive bucketing disagrees at n={n}"
    return True, f"enumeration counts match orbit counting up to n={top}"


SUITES: dict[str, dict[str, Check]] = {
    "identities": {"equivalences": _check_equivalences, "recurrences": _check_recurrences,
                   "edge-deletion": _check_edge_deletion},
    "factorization": {"factor-products": _check_factorizations, "basis-degrees": _check_degrees,
                      "coprimality": _check_coprime, "root-locations": _check_basis_roots},
    "eliminations": {"closed-forms": _check_elimination_values, "screens": _check_screens,
                     "catalogue": _check_catalogue},
    "classes-vs-oracle": {"enumeration": _check_enumeration, "path-classes": _check_path_classes,
                          "cycle-classes": _check_cycle_classes, "cover-search": _check_search},
}

CHECKS: dict[str, Check] = {name: check for suite in SUITES.values() for name, check in suite.items()}
