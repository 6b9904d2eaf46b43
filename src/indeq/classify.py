"""Candidate catalogue, exact elimination screens, and equivalence-class listers.

A connected graph can only appear as a component of something
independence-equivalent to a path if its independence polynomial is
squarefree with every root real and strictly below -1/4.  This module
carries three layers of that argument:

  * exact elimination values: closed forms for I(G, -1/4) on the Y, B,
    A and F families, used to discard shapes whose value is <= 0
  * the candidate catalogue: the shortlist shapes that survive the root
    screens, each row with its basis factorization, triangle count and
    number of degree-3 vertices
  * the final classifiers: complete member lists for the independence
    equivalence classes of even paths and of cycles, including the
    triangle-for-vertex (D) substitutions

The class listers are symbolic: members are multisets of FamilySpec
components, built into graphs only when validation asks for it.  Both
listers share one member pipeline, in which each cycle may stand in for
any member of its own class, so the D-twin rule and the sporadic cycle
classes (C_6, and the f_9 and f_15 carriers of C_9, C_15) are stated once.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .graphcore import FAMILIES, MAX_ECHO, FamilySpec, Graph, Record, build, canonical_form, echo, echo_number, spec
from .indpoly import independence_polynomial
from .polyalg import SturmChain, count_real_roots

#: The point -1/4 that every root of a path-class component lies below.
QUARTER = Fraction(-1, 4)


class EvenCycleClassNote(UserWarning):
    """Even-cycle classes come from the two-member case list; see README caveats."""


# -- exact elimination values ---------------------------------------------------

# Closed forms for I(spec, -1/4), one per family that admits one, each as
# (numerator, c): I = numerator(*params) / 2^(sum(params) + c).  Derived by
# pushing the vertex-deletion identity through the known values
# I(P_k, -1/4) = (k+2)/2^(k+1) and I(C_k, -1/4) = I(D_k, -1/4) = 1/2^(k-1),
# or by solving tau_m = (U m + V)/2^m against two base cases for the
# families satisfying the two-term recurrence.
ELIMINATION_FORMS: dict[str, tuple[Callable[..., int], int]] = {
    "Y": (lambda a, b, c: (a + 2) * (b + 2) * (c + 2) - 2 * (a + 1) * (b + 1) * (c + 1), 3),
    "B": (lambda a, b, c: 2 - b * c, 4),
    "A": (lambda a, b: 4 - a * b, 4),
    "F3": (lambda m: 0, 0),
    "F4": (lambda m: 1 - m, 4),
    "F5": (lambda a, b: -b, 5),
    "F6": (lambda a, b, c: -c, 5),
    "F7": (lambda m: -1, 5),
    "F8": (lambda a, b: -1, 6),
    "F9": (lambda a, b, c: -1, 6),
}


def elimination_value(spec: FamilySpec) -> Fraction:
    """I(spec, -1/4) by the closed form of its family (``ELIMINATION_FORMS``)."""
    if spec.family not in ELIMINATION_FORMS:
        raise ValueError(f"no elimination closed form for family {spec.family}")
    numerator, c = ELIMINATION_FORMS[spec.family]
    return Fraction(numerator(*spec.params), 2 ** (sum(spec.params) + c))


def _exact_text(value: Fraction) -> str:
    """str(value), spelled through Decimal, which has no int-to-str digit limit."""
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


class Verdict(Record):
    __slots__ = _fields = ("admissible", "reason")


def screen_family(spec: FamilySpec) -> Verdict:
    """Admissible iff every root of I(spec, x) is real and below -1/4.

    A closed-form value I(-1/4) <= 0 eliminates the shape before its
    graph is built: a polynomial with constant term 1 whose roots are all
    real and below -1/4 is positive at -1/4.
    """
    if spec.family in ELIMINATION_FORMS and (value := elimination_value(spec)) <= 0:
        return Verdict(False, f"I(-1/4) = {_exact_text(value)} <= 0 forces a root in [-1/4, 1)")
    poly = independence_polynomial(build(spec))
    chain = SturmChain.of(poly)
    if chain.all_roots_real_below(QUARTER):
        return Verdict(True, "all roots real and below -1/4")
    if not chain.squarefree:
        return Verdict(False, "independence polynomial has repeated roots")
    real = count_real_roots(chain, None, None)
    if real < poly.degree:
        return Verdict(False, f"only {real} of {poly.degree} roots are real")
    return Verdict(False, "has a real root at or above -1/4")


#: The most parameter tuples one sweep_family call screens.
MAX_SWEEP_SPECS = 100_000


def sweep_family(family: str, max_param: int) -> Iterator[tuple[FamilySpec, Verdict]]:
    """Screen every parameter tuple of a family with all parameters <= max_param,
    lazily: each (spec, verdict) row is made as it is taken.  A ValueError
    refuses a negative max_param, or more than MAX_SWEEP_SPECS tuples, at the
    call, before any is made."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if max_param < 0:
        raise ValueError(f"max parameter must be non-negative, got {echo_number(max_param)}")
    floors = FAMILIES[family].floors
    count = math.prod(max(0, max_param + 1 - f) for f in floors)
    if count > MAX_SWEEP_SPECS:
        raise ValueError(f"{family} up to {echo_number(max_param)} has {echo_number(count)} "
                         f"parameter tuples, above the cap of {MAX_SWEEP_SPECS}")
    ranges = [range(f, max_param + 1) for f in floors]
    specs = (FamilySpec(family, params) for params in itertools.product(*ranges))
    return ((spec, screen_family(spec)) for spec in specs)


# -- the candidate catalogue (shortlist) ----------------------------------------

class CatalogueEntry(Record):
    """One shortlist row: a shape that survives the root screens.

    ``spec`` is None for parametric rows (whole families kept for every
    parameter).  ``factors`` is the basis factorization of a concrete row,
    as the names BasisFactor.name prints ("f12", "f~3") in the order
    factor_into_basis returns them.  Eliminated rows keep the
    factorization that doomed them plus the reason.
    """

    __slots__ = _fields = ("label", "triangle_count", "degree3_count", "spec", "factors", "eliminated", "reason")
    _defaults = {"spec": None, "factors": None, "eliminated": False, "reason": ""}


def _row(spec, tri, deg3, factors, eliminated=False, reason=""):
    return CatalogueEntry(str(spec), tri, deg3, spec, tuple(factors), eliminated, reason)


def _obstruction(name: str) -> str:
    return f"forced factor {name} has no carrier among the candidates"


CATALOGUE: tuple[CatalogueEntry, ...] = (
    CatalogueEntry("P:k (k>=1)", 0, 0),
    CatalogueEntry("C:k (k>=4) / D:k", 0, 0),
    _row(spec("C", 3), 1, 0, ("f3",)),
    CatalogueEntry("D:k (k>=4)", 1, 1),
    CatalogueEntry("Y:z,2,1 (z>=1)", 0, 1),
    _row(spec("Y", 10, 1, 1), 0, 1, ("f4", "f9", "f~5"),
         True, _obstruction("f36")),
    _row(spec("Y", 9, 3, 1), 0, 1, ("f21", "f~5"),
         True, _obstruction("f105")),
    _row(spec("Y", 7, 3, 1), 0, 1, ("f15", "f~7"),
         True, _obstruction("f105")),
    _row(spec("Y", 5, 4, 1), 0, 1, ("f3", "f15", "f~3"),
         True, _obstruction("f~15")),
    _row(spec("Y", 5, 1, 1), 0, 1, ("f6", "f~3", "f~5"),
         True, _obstruction("f~15")),
    _row(spec("Y", 4, 3, 1), 0, 1, ("f9", "f~5"),
         True, _obstruction("f~45")),
    _row(spec("Y", 4, 2, 2), 0, 1, ("f12", "f~3")),
    _row(spec("Y", 3, 3, 2), 0, 1, ("f2", "f15"),
         True, _obstruction("f30")),
    _row(spec("Y", 3, 2, 2), 0, 1, ("f2", "f9"),
         True, _obstruction("f18")),
    _row(spec("B", 5, 1, 1), 1, 2, ("f4", "f15"),
         True, _obstruction("f60")),
    _row(spec("B", 0, 1, 1), 1, 2, ("f9",)),
    _row(spec("E", 2, 1), 0, 1, ("f9",)),
    _row(spec("E", 1, 2), 0, 1, ("f9",)),
    _row(spec("A", 2, 1), 1, 2, ("f9",)),
    _row(spec("E", 3, 1), 0, 1, ("f15",)),
    _row(spec("E", 1, 3), 0, 1, ("f15",)),
    _row(spec("A", 3, 1), 1, 2, ("f15",)),
    _row(spec("E", 1, 1), 0, 1, ("f6", "f~3")),
    _row(spec("A", 1, 1), 1, 2, ("f6", "f~3")),
    _row(spec("K4e"), 2, 2, ("f6",)),
)


# -- equivalence classes -----------------------------------------------------

Member = tuple[FamilySpec, ...]


class EquivClass(Record):
    """All graphs sharing the reference's independence polynomial.

    Members may come as any iterable of component iterables, consumed once;
    each is stored once, components by sort_key, members by size then components.
    """

    __slots__ = _fields = ("reference", "members")

    def __init__(self, reference: FamilySpec, members: Iterable[Iterable[FamilySpec]]):
        by_key = operator.attrgetter("sort_key")
        unique = {tuple(sorted(member, key=by_key)) for member in members}
        ordered = sorted(unique, key=lambda m: (len(m), tuple(map(by_key, m))))
        object.__setattr__(self, "reference", reference)
        object.__setattr__(self, "members", tuple(ordered))

    def __len__(self) -> int:
        return len(self.members)

    def graphs(self) -> list[Graph]:
        return [build(member) for member in self.members]

    def canonical_forms(self) -> frozenset[bytes]:
        return frozenset(canonical_form(g) for g in self.graphs())

    def member_lines(self) -> Iterator[str]:
        """Each member as its components joined by " + "."""
        for member in self.members:
            yield " + ".join(map(str, member))


def _carriers(*factors: str) -> tuple[FamilySpec, ...]:
    """The kept shortlist shapes that factor as exactly these named basis factors."""
    return tuple(e.spec for e in CATALOGUE if not e.eliminated and e.factors == factors)


#: The members of the class of C_n besides C_n and its twin D_n: for n = 6,
#: 9 and 15, each carrier of f_n beside P_2, C_3 or C_3 + C_5, so these
#: stand in for C_n also in the path classes with m = 3, 9, 15.
_SPORADIC_CYCLE_MEMBERS: dict[int, tuple[Member, ...]] = {
    6: tuple((spec("P", 2), c) for c in _carriers("f6")),
    9: tuple((spec("C", 3), c) for c in _carriers("f9")),
    15: tuple((spec("C", 3), spec("C", 5), c) for c in _carriers("f15")),
}

#: The most components, summed over its members, a class may list.
MAX_CLASS_COMPONENTS = 1 << 20


def _variants(s: FamilySpec, expand_d: bool) -> list[Member]:
    """The component lists that may stand in for s in a class member.

    A cycle C_k may be swapped for any member of its own class: its
    sporadic members and, when expand_d is set and k >= 4, its twin D_k.
    """
    if s.family != "C":
        return [(s,)]
    k = s.params[0]
    out = [(s,)] + ([(FamilySpec("D", (k,)),)] if expand_d and k >= 4 else [])
    for row in _SPORADIC_CYCLE_MEMBERS.get(k, ()):
        out += [sum(combo, ()) for combo in itertools.product(*(_variants(c, expand_d) for c in row))]
    return out


def _equiv_class(reference: FamilySpec, raw: Sequence[Sequence[FamilySpec | slice]],
                 expand_d: bool = True, chain: Sequence[FamilySpec] = ()) -> EquivClass:
    """The class of reference from raw members, each cycle in them expanded
    by _variants.  A raw member lists specs and slices, a slice standing for
    a run of chain that starts at its head or ends at its tail.  A ValueError
    refuses more than MAX_CLASS_COMPONENTS components, counted from the
    chain's prefix and suffix products and prefix sums before any member is
    built."""
    # each chain cycle's variants; a slice of a raw member indexes this list
    chain_variants = [_variants(s, expand_d) for s in chain]
    lengths = [len(v) for v in chain_variants]
    counts = list(itertools.accumulate(lengths, operator.mul, initial=1))
    tails = list(itertools.accumulate(reversed(lengths), operator.mul, initial=1))[::-1]
    widths = list(itertools.accumulate((max(map(len, v)) for v in chain_variants), initial=0))
    bound = 0
    for parts in raw:
        count, width = 1, 0
        for p in parts:
            if isinstance(p, slice):
                count *= counts[p.stop] if p.start == 0 else tails[p.start]
                width += widths[p.stop] - widths[p.start]
            else:
                v = _variants(p, expand_d)
                count, width = count * len(v), width + max(map(len, v))
        bound += count * width
    if bound > MAX_CLASS_COMPONENTS:
        text = str(reference)
        text = text if len(text) <= MAX_ECHO else echo(text)
        raise ValueError(f"the class of {text} has up to {echo_number(bound)} components, "
                         f"above the cap of {MAX_CLASS_COMPONENTS}")
    options = ([v for p in parts for v in
                (chain_variants[p] if isinstance(p, slice) else [_variants(p, expand_d)])]
               for parts in raw)
    return EquivClass(reference, (itertools.chain(*combo)
                                  for opts in options for combo in itertools.product(*opts)))


def path_class(n_vertices: int, expand_d: bool = True) -> EquivClass:
    """The complete independence equivalence class of the even path P_n.

    Members are generated from the divisor structure of n + 2 = 2^t * m
    (m odd): a shorter path of the same odd part together with the
    intermediate cycles, plus the sporadic shapes that exist exactly
    when m is 3, 9 or 15.  Every cycle may be swapped for a member of
    its own class; D twins only when expand_d is set.
    """
    if n_vertices % 2 != 0:
        name = f"P_{n_vertices}" if abs(n_vertices) < 10**MAX_ECHO else f"P_n with n {echo_number(n_vertices)}"
        raise ValueError(f"odd paths are independence unique; no class to enumerate for {name}")
    if n_vertices < 2:
        raise ValueError(f"need at least 2 vertices, got {echo_number(n_vertices)}")
    t = ((n_vertices + 2) & -(n_vertices + 2)).bit_length() - 1
    m = (n_vertices + 2) >> t

    # the cycles C_(m 2^j), j0 <= j < t, built once; a row names a run of
    # them by one slice, so that counting its components is O(1)
    j0 = next(j for j in range(t + 1) if m << j >= 3)
    chain = [spec("C", m << j) for j in range(j0, t)]

    def cycles(lo: int, hi: int) -> slice:
        return slice(lo - j0, hi - j0)

    # a split point whose first cycle would be shorter than 3 has no member
    raw = [[spec("P", n_vertices)]] + [
        [spec("P", (m << tp) - 2), cycles(tp, t)] for tp in range(j0, t)]
    if m == 3:
        # the rows that hold C_6 gain its sporadic members through _variants
        raw += [[cycles(0, z), spec("Y", (3 << z) - 3, 2, 1), cycles(z + 1, t)]
                for z in range(1, t)]
        if t >= 2:
            raw += [[c, spec("P", 2), spec("C", 3), cycles(2, t)] for c in _carriers("f6", "f~3")]
        if t >= 3:
            for y in _carriers("f12", "f~3"):
                raw.append([y, spec("C", 3), spec("C", 4), spec("C", 6), cycles(3, t)])
                raw += [[y, spec("C", 3), spec("P", 6), k, cycles(3, t)] for k in _carriers("f6")]
    return _equiv_class(spec("P", n_vertices), raw, expand_d, chain)


def cycle_class(n: int) -> EquivClass:
    """The independence equivalence class of the cycle C_n."""
    if n < 3:
        raise ValueError(f"cycle length must be >= 3, got {echo_number(n)}")
    if n % 2 == 0:
        warnings.warn(
            "even-cycle classes follow the two-member case list (three members "
            "for n = 6); exhaustive confirmation exists only at oracle scale",
            EvenCycleClassNote,
            stacklevel=2,
        )
    return _equiv_class(spec("C", n), [[spec("C", n)]])
