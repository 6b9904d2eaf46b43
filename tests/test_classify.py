import hashlib
import itertools
import warnings
from fractions import Fraction

import pytest

from indeq import classify
from indeq.checks import CHECKS
from indeq.classify import (
    CATALOGUE,
    CatalogueEntry,
    ELIMINATION_FORMS,
    EquivClass,
    EvenCycleClassNote,
    cycle_class,
    elimination_value,
    path_class,
    screen_family,
    sweep_family,
)
from indeq.cli import main
from indeq.factorbasis import factor_into_basis
from indeq.graphcore import FAMILIES, FamilySpec, build, canonical_form
from indeq.indpoly import independence_polynomial

from conftest import QUARTER, fs


def test_degree_stats_examples():
    g = build(fs("P", 10))
    assert sorted(g.degrees()) == [1] * 2 + [2] * 8 and g.triangle_count() == 0
    g = build(fs("K4e"))
    assert sorted(g.degrees()) == [2, 2, 3, 3] and g.triangle_count() == 2
    g = build(fs("B", 0, 1, 1))
    assert (sorted(g.degrees()), g.triangle_count()) == ([1, 1, 2, 2, 3, 3], 1)


def test_elimination_value_examples():
    assert elimination_value(fs("F3", 7)) == 0
    # exact evaluation fixes the exponents: A at +4, B at +4, F7 at +5
    assert elimination_value(fs("A", 3, 1)) == Fraction(1, 256)
    assert elimination_value(fs("A", 3, 1)) == independence_polynomial(
        build(fs("A", 3, 1))
    ).eval_rational(QUARTER)
    for m1 in range(0, 6):
        spec = fs("B", m1, 1, 1)
        assert elimination_value(spec) == Fraction(1, 2 ** (m1 + 6))
        assert elimination_value(spec) == independence_polynomial(
            build(spec)
        ).eval_rational(QUARTER)
    with pytest.raises(ValueError, match="closed form"):
        elimination_value(fs("E", 1, 1))


FAMILY_GRIDS = {
    "Y": 5, "B": 5, "A": 6, "F3": 8, "F4": 8, "F5": 6,
    "F6": 4, "F7": 8, "F8": 6, "F9": 4,
}


def test_family_grids_cover_every_closed_form():
    assert list(FAMILY_GRIDS) == list(ELIMINATION_FORMS)


@pytest.mark.parametrize("fam", sorted(FAMILY_GRIDS))
def test_elimination_value_matches_evaluation(fam):
    top = FAMILY_GRIDS[fam]
    for params in itertools.product(*[range(f, top + 1) for f in FAMILIES[fam].floors]):
        spec = FamilySpec(fam, params)
        assert elimination_value(spec) == independence_polynomial(
            build(spec)
        ).eval_rational(QUARTER), spec


def test_f4_base_values():
    assert elimination_value(fs("F4", 1)) == 0
    assert elimination_value(fs("F4", 2)) == Fraction(-1, 64)
    assert elimination_value(fs("F4", 3)) == Fraction(-1, 64)


def test_screen_examples():
    assert {m for m in range(1, 16) if screen_family(fs("Y", m, 1, 1)).admissible} == {2, 5, 10}
    assert {m for m in range(0, 16) if screen_family(fs("B", m, 1, 1)).admissible} == {0, 5}
    verdict = screen_family(fs("F3", 2))
    assert not verdict.admissible and "-1/4" in verdict.reason
    assert screen_family(fs("Y", 3, 2, 1)).admissible


def test_screen_triple_leg_spiders():
    admissible = {s.params for s, v in sweep_family("Y", 6)
                  if v.admissible and min(s.params) >= 2}
    expected = {perm for base in ((4, 2, 2), (3, 3, 2), (3, 2, 2))
                for perm in itertools.permutations(base)}
    assert admissible == expected


def test_screen_consistent_with_value_sign():
    for s, verdict in sweep_family("B", 4):
        if elimination_value(s) <= 0:
            assert not verdict.admissible, s


def test_screen_root_admissible_but_shortlist_eliminated():
    # these pass the root screen; they die later on divisibility grounds
    for spec in (fs("Y", 5, 4, 1), fs("Y", 9, 3, 1), fs("Y", 7, 3, 1), fs("Y", 4, 3, 1)):
        assert screen_family(spec).admissible, spec


def test_catalogue_rows():
    structure_pairs = set()
    for entry in CATALOGUE:
        structure_pairs.add((entry.triangle_count, entry.degree3_count))
        if entry.spec is None:
            continue
        g = build(entry.spec)
        found = factor_into_basis(independence_polynomial(g))
        assert entry.factors == tuple(f.name for f in found), entry.label
        assert (g.triangle_count(), g.degrees().count(3)) == (
            entry.triangle_count, entry.degree3_count
        ), entry.label
        if entry.eliminated:
            assert entry.reason
    allowed = {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 4)}
    assert structure_pairs <= allowed


@pytest.mark.parametrize("label, field, value", [
    ("K4e", "factors", ("f9",)),  # a wrong factor
    ("E:1,1", "factors", ("f~3", "f6")),  # the right factors, out of factor_into_basis's order
    ("K4e", "spec", fs("Y", 2, 2, 2)),  # a shape whose polynomial is no product of basis factors
])
def test_catalogue_check_rejects_a_misstated_row(monkeypatch, label, field, value):
    def restated(e):
        if e.label != label:
            return e
        return CatalogueEntry(*(value if f == field else getattr(e, f) for f in CatalogueEntry._fields))

    monkeypatch.setattr(classify, "CATALOGUE", tuple(map(restated, CATALOGUE)))
    assert CHECKS["catalogue"]({}) == (False, f"catalogue factorization wrong for {label}")


STRUCTURE_BY_FAMILY = {
    "P": (0, 0), "C": (0, 0), "D": (1, 1), "Y": (0, 1), "E": (0, 1),
    "A": (1, 2), "B": (1, 2), "F1": (1, 2), "F2": (1, 2), "F3": (2, 2),
    "F4": (2, 3), "F5": (2, 3), "F6": (2, 3), "F7": (3, 4), "F8": (3, 4),
    "F9": (3, 4), "K4e": (2, 2),
}


def _structure_grid():
    for fam, want in STRUCTURE_BY_FAMILY.items():
        floors = FAMILIES[fam].floors
        if fam == "P":
            floors = (1,)
        if fam == "C":
            floors = (4,)
        if fam == "D":
            floors = (4,)
        if fam == "F4":
            floors = (1,)  # at m=0 the shape degenerates to K4e
        for params in itertools.product(*[range(f, max(f + 1, 9)) for f in floors]):
            yield FamilySpec(fam, params), want


def test_family_structure_counts():
    for spec, want in _structure_grid():
        g = build(spec)
        assert (g.triangle_count(), g.degrees().count(3)) == want, spec


def test_degree3_triangle_bounds():
    # connected, max degree 3: g3 >= 2*tri - 2, and at most three triangles
    for spec, _ in _structure_grid():
        g = build(spec)
        degrees, tri = g.degrees(), g.triangle_count()
        assert tri <= 3, spec
        if max(degrees) == 3:
            assert degrees.count(3) >= 2 * tri - 2, spec


def test_path_class_examples():
    assert len(path_class(10)) == 10
    members4 = path_class(4).members
    assert members4 == ((fs("P", 4),), (fs("P", 1), fs("C", 3)))
    members6 = {tuple(map(str, m)) for m in path_class(6).members}
    assert members6 == {("P:6",), ("P:2", "C:4"), ("P:2", "D:4")}
    members8 = {tuple(map(str, m)) for m in path_class(8).members}
    assert members8 == {("P:8",), ("P:3", "C:5"), ("P:3", "D:5")}


def test_path_class_rejects_odd():
    with pytest.raises(ValueError, match="independence unique"):
        path_class(7)


def test_path_class_expand_toggle():
    full = path_class(10)
    collapsed = path_class(10, expand_d=False)
    assert len(collapsed) == 8
    assert {m for m in collapsed.members} <= set(full.members)
    assert not any(s.family == "D" for m in collapsed.members for s in m)


@pytest.mark.parametrize("n", range(2, 31, 2))
def test_path_class_soundness(n):
    cls = path_class(n)
    ref = independence_polynomial(build(fs("P", n)))
    forms = set()
    for member in cls.members:
        g = build(member)
        assert g.n == n, member
        assert independence_polynomial(g) == ref, member
        forms.add(canonical_form(g))
    assert len(forms) == len(cls.members)


def test_cycle_class_examples():
    with pytest.warns(EvenCycleClassNote):
        six = cycle_class(6)
    assert {tuple(map(str, m)) for m in six.members} == {
        ("C:6",), ("D:6",), ("P:2", "K4e")
    }
    assert cycle_class(3).members == ((fs("C", 3),),)
    assert len(cycle_class(9)) == 6
    assert len(cycle_class(15)) == 8
    assert len(cycle_class(7)) == 2


@pytest.mark.parametrize("n", range(3, 31))
def test_cycle_class_soundness(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvenCycleClassNote)
        cls = cycle_class(n)
    ref = independence_polynomial(build(fs("C", n)))
    forms = set()
    for member in cls.members:
        g = build(member)
        assert independence_polynomial(g) == ref, member
        forms.add(canonical_form(g))
    assert len(forms) == len(cls.members)


# sha256 over the `class ... --json` stdout of every path class P_2..P_2000
# (both expand modes) and every cycle class C_3..C_399, one line each: pins
# membership and order
CLASS_DIGEST = "d558160a5d7cb681c430f19b4cf158b451ffdfb8911db831311ee7fc5201efa6"


def test_class_lists_match_digest(capsys):
    h = hashlib.sha256()
    for n in range(2, 2001, 2):
        for flags in ([], ["--no-expand-d"]):
            assert main(["class", "path", str(n), "--json", *flags]) == 0
            h.update(capsys.readouterr().out.encode())
    for n in range(3, 400):
        assert main(["class", "cycle", str(n), "--json"]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == CLASS_DIGEST


def test_equiv_class_stores_the_member_normal_form():
    members = [
        [fs("C", 5), fs("P", 3)],
        [fs("D", 4), fs("P", 2)],
        (fs("P", 8),),
        (fs("P", 3), fs("C", 5)),
        [fs("P", 2), fs("C", 4)],
        (fs("P", 8),),
    ]
    cls = EquivClass(fs("P", 8), (iter(m) for m in reversed(members)))
    assert cls.members == (
        (fs("P", 8),),
        (fs("P", 2), fs("C", 4)),
        (fs("P", 2), fs("D", 4)),
        (fs("P", 3), fs("C", 5)),
    )
    assert list(cls.member_lines()) == ["P:8", "P:2 + C:4", "P:2 + D:4", "P:3 + C:5"]
    assert cls == EquivClass(fs("P", 8), members)
