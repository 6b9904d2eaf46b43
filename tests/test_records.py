"""The library's seven records: constructors and their argument binding,
equality (never with a plain tuple), hashing, immutability, repr text,
ordering and refusals, pickle and copy round trips (of IntPoly and Graph
too), plus a start-up guard that importing the CLI pulls in neither
`dataclasses` nor `inspect`."""

import copy
import functools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from indeq.classify import CATALOGUE, CatalogueEntry, EquivClass, Verdict, path_class
from indeq.factorbasis import BasisFactor, basis_f, basis_ftilde
from indeq.graphcore import FamilySpec, Graph
from indeq.oracle import EnumFilter
from indeq.polyalg import IntPoly, SturmChain

SRC = Path(__file__).resolve().parent.parent / "src"

Y321 = FamilySpec("Y", (3, 2, 1))
P2, C4 = FamilySpec("P", (2,)), FamilySpec("C", (4,))
CHAIN = SturmChain.of(IntPoly([1, 3, 1]))

# one of each record, then IntPoly and Graph
RECORDS = [Y321, EnumFilter(6, 3), Verdict(False, "no"), CATALOGUE[5], path_class(6), basis_f(7), CHAIN]
ALL_RECORDS = RECORDS + [IntPoly([1, 2]), Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])]


# pairs of distinct objects that must compare and hash equal
EQUAL_TWINS = [
    (Y321, FamilySpec(family="Y", params=[3, 2, 1])),
    (FamilySpec("K4e"), FamilySpec("K4e", ())),
    (EnumFilter(5), EnumFilter(5, None, None, False)),
    (EnumFilter(6, edge_count=3, connected_only=True),
     EnumFilter(vertex_count=6, edge_count=3, max_degree=None, connected_only=True)),
    (Verdict(True, "ok"), Verdict(admissible=True, reason="ok")),
    (CatalogueEntry("x", 0, 1), CatalogueEntry("x", 0, 1, None, None, False, "")),
    (EquivClass(P2, [[C4, P2]]), EquivClass(reference=P2, members=([P2, C4],))),
    (BasisFactor("f", 5, IntPoly([1, 5, 5])), BasisFactor("f", 5, IntPoly([7]))),
    (CHAIN, SturmChain(chain=CHAIN.chain, steps=CHAIN.steps)),
]


@pytest.mark.parametrize("a,b", EQUAL_TWINS, ids=lambda obj: type(obj).__name__)
def test_equal_records_hash_equal_and_serve_as_keys(a, b):
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1 and len({a, b}) == 1

    @functools.lru_cache(maxsize=None)
    def seen(record):
        return object()

    assert seen(a) is seen(b)
    assert seen.cache_info().misses == 1


@pytest.mark.parametrize("a,b", [
    (Y321, FamilySpec("Y", (3, 2, 2))),
    (FamilySpec("C", (4,)), FamilySpec("D", (4,))),
    (EnumFilter(5), EnumFilter(5, connected_only=True)),
    (Verdict(True, "ok"), Verdict(False, "ok")),
    (CatalogueEntry("x", 0, 1), CatalogueEntry("x", 0, 1, eliminated=True)),
    (EquivClass(P2, [[P2]]), EquivClass(C4, [[P2]])),
    (BasisFactor("f", 5, IntPoly([1])), BasisFactor("ftilde", 5, IntPoly([1]))),
    (CHAIN, SturmChain.of(IntPoly([1, 4, 1]))),
], ids=lambda obj: type(obj).__name__)
def test_records_differing_in_a_field_differ(a, b):
    assert a != b and not a == b


def test_records_of_different_kinds_are_unequal():
    assert Y321 != "Y:3,2,1" and Y321 != 0
    assert basis_f(3) != basis_ftilde(3)
    assert EquivClass(P2, [[P2]]) != P2


def test_family_spec_keeps_its_parameters_as_a_tuple_of_ints():
    assert FamilySpec("K4e").params == ()
    assert FamilySpec("Y", [3, 2, 1]).params == (3, 2, 1)
    assert type(FamilySpec("P", [True]).params[0]) is int
    with pytest.raises(ValueError, match="P takes 1 parameter"):
        FamilySpec("P")
    assert str(Y321) == "Y:3,2,1" and str(FamilySpec("K4e")) == "K4e"
    with pytest.raises(TypeError):
        FamilySpec("P", (2.0,))


@pytest.mark.parametrize("args,message", [
    (("Z", (1,)), "unknown family 'Z'"),
    (("Y", (3, 2)), "Y takes 3 parameter(s), got 2"),
    (("K4e", (1,)), "K4e takes 0 parameter(s), got 1"),
    (("Y", (0, 1, 1)), "Y parameter 1 must be >= 1, got 0"),
    (("C", (2,)), "C parameter 1 must be >= 3, got 2"),
])
def test_family_spec_refusals(args, message):
    with pytest.raises(ValueError) as refused:
        FamilySpec(*args)
    assert str(refused.value) == message


def test_enum_filter_defaults():
    filt = EnumFilter(7)
    assert (filt.vertex_count, filt.edge_count, filt.max_degree, filt.connected_only) == (7, None, None, False)
    filt = EnumFilter(vertex_count=4, max_degree=2, connected_only=True)
    assert (filt.vertex_count, filt.edge_count, filt.max_degree, filt.connected_only) == (4, None, 2, True)


@pytest.mark.parametrize("kwargs,message", [
    ({"vertex_count": -1}, "vertex count must be non-negative"),
    ({"vertex_count": 3, "max_degree": -1}, "max degree must be non-negative, got -1"),
    ({"vertex_count": 5, "edge_count": 11}, "edge count 11 impossible on 5 vertices"),
    ({"vertex_count": 5, "edge_count": -1}, "edge count -1 impossible on 5 vertices"),
    ({"vertex_count": 11}, "unfiltered enumeration is capped at 10 vertices (n=11 spans 2^55 labeled graphs)"),
    ({"vertex_count": 13, "edge_count": 3}, "enumeration is capped at 12 vertices (n=13 spans 2^78 labeled graphs)"),
])
def test_enum_filter_refusals(kwargs, message):
    with pytest.raises(ValueError) as refused:
        EnumFilter(**kwargs)
    assert str(refused.value) == message


def test_verdict_and_catalogue_entry_fields():
    verdict = Verdict(admissible=False, reason="why")
    assert (verdict.admissible, verdict.reason) == (False, "why")
    entry = CatalogueEntry("P:k (k>=1)", 0, 0)
    assert (entry.spec, entry.factors, entry.eliminated, entry.reason) == (None, None, False, "")
    row = next(e for e in CATALOGUE if e.label == "Y:4,2,2")
    assert row.spec == FamilySpec("Y", (4, 2, 2))
    assert row.factors == ("f12", "f~3")


def test_equiv_class_stores_each_member_once_in_order():
    cls = EquivClass(reference=P2, members=iter([[C4, P2], (P2, C4), [P2]]))
    assert cls.members == ((P2,), (P2, C4))
    assert len(cls) == 2
    assert list(cls.member_lines()) == ["P:2", "P:2 + C:4"]
    assert EquivClass(P2, [[P2]]).members == ((P2,),)


def test_basis_factors_sort_by_kind_then_index_ignoring_the_polynomial():
    unsorted = [basis_ftilde(3), basis_f(9), basis_ftilde(1), basis_f(2)]
    assert [f.name for f in sorted(unsorted)] == ["f2", "f9", "f~1", "f~3"]
    low, high = BasisFactor("f", 2, IntPoly([9, 9])), BasisFactor("f", 3, IntPoly([1]))
    assert low < high and low <= high and high > low and high >= low
    same = BasisFactor("f", 2, IntPoly([1]))
    assert low == same and low <= same and low >= same and not low < same
    assert hash(low) == hash(same)
    assert basis_f(1) == BasisFactor(kind="f", index=1, poly=IntPoly([1])) and basis_f(1).poly == 1
    with pytest.raises(TypeError):
        low < ("f", 3)


def test_sturm_chain_of_is_a_classmethod_on_the_class_itself():
    assert isinstance(vars(SturmChain)["of"], classmethod)
    chain = SturmChain.of(IntPoly([1, 3, 1]))
    assert chain.poly == IntPoly([1, 3, 1]) and chain.squarefree
    assert chain.all_roots_real_below(Fraction(-1, 4))


@pytest.mark.parametrize("record,field", [
    (Y321, "family"), (Y321, "params"), (EnumFilter(5), "vertex_count"),
    (Verdict(True, "ok"), "reason"), (CATALOGUE[0], "label"),
    (EquivClass(P2, [[P2]]), "members"), (basis_f(5), "poly"), (CHAIN, "chain"),
], ids=lambda obj: type(obj).__name__ if not isinstance(obj, str) else obj)
def test_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) == before


@pytest.mark.parametrize("record,field", [
    (Y321, "family"), (Y321, "params"), (EnumFilter(5), "vertex_count"),
    (Verdict(True, "ok"), "reason"), (CATALOGUE[0], "label"),
    (EquivClass(P2, [[P2]]), "members"), (basis_f(5), "poly"), (CHAIN, "chain"),
    (IntPoly([1, 2]), "coeffs"), (Graph.empty(2), "adj"),
], ids=lambda obj: type(obj).__name__ if not isinstance(obj, str) else obj)
def test_records_refuse_deletion(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before
    assert hash(record) == hash(copy.copy(record))


def test_records_print_as_their_fields():
    assert repr(Y321) == "FamilySpec(family='Y', params=(3, 2, 1))"
    assert repr(FamilySpec("K4e")) == "FamilySpec(family='K4e', params=())"
    assert repr(EnumFilter(5, max_degree=2)) == (
        "EnumFilter(vertex_count=5, edge_count=None, max_degree=2, connected_only=False)")
    assert repr(Verdict(True, "ok")) == "Verdict(admissible=True, reason='ok')"
    assert repr(CATALOGUE[2]) == (
        "CatalogueEntry(label='C:3', triangle_count=1, degree3_count=0,"
        " spec=FamilySpec(family='C', params=(3,)), factors=('f3',), eliminated=False, reason='')")
    assert repr(EquivClass(P2, [[P2]])) == (
        "EquivClass(reference=FamilySpec(family='P', params=(2,)),"
        " members=((FamilySpec(family='P', params=(2,)),),))")
    assert repr(basis_f(5)) == "BasisFactor(kind='f', index=5, poly=IntPoly('1 + 5x + 5x^2'))"
    assert repr(SturmChain.of(IntPoly([0, 1]))) == "SturmChain(chain=(IntPoly('x'), IntPoly('1')), steps=())"


@pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda obj: type(obj).__name__)
def test_records_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and type(twin) is type(record) and repr(twin) == repr(record)


@pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda obj: type(obj).__name__)
def test_records_are_not_tuples(record):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert record != fields and fields != record and not record == fields
    assert not isinstance(record, tuple)
    # a NamedTuple's _replace and _make skip the constructor's checks:
    # EnumFilter(5)._replace(vertex_count=40) would ask for an enumeration past the caps
    for name in ("_replace", "_make", "_asdict"):
        with pytest.raises(AttributeError):
            getattr(record, name)


@pytest.mark.parametrize("record", RECORDS, ids=lambda obj: type(obj).__name__)
def test_records_refuse_a_missing_unknown_surplus_or_repeated_argument(record):
    cls, fields = type(record), record._fields
    args = tuple(getattr(record, name) for name in fields)
    assert cls(*args) == record and cls(**dict(zip(fields, args))) == record
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], args[1:])))  # the first field left out
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


def test_record_binder_names_the_fields_in_its_refusal():
    with pytest.raises(TypeError) as refused:
        Verdict(True, admissible=False)
    assert str(refused.value) == ("Verdict() takes each of ('admissible', 'reason') once, "
                                  "got 1 positional and ['admissible'] by keyword")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_pickled_enum_filter_comes_back_through_its_validation(protocol):
    data = pickle.dumps(EnumFilter(5, 7), protocol)
    assert pickle.loads(data) == EnumFilter(5, 7)
    # the edge count 7 spelled as 11, which no 5-vertex graph has
    seven, eleven = (b"I7\n", b"I11\n") if protocol == 0 else (b"K\x07", b"K\x0b")
    assert data.count(seven) == 1
    with pytest.raises(ValueError, match="edge count 11 impossible on 5 vertices"):
        pickle.loads(data.replace(seven, eleven))


def test_importing_the_cli_pulls_in_neither_dataclasses_nor_inspect():
    child = ("import sys; before = set(sys.modules); import indeq.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
