import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indeq import polyalg
from indeq.classify import screen_family
from indeq.cli import main
from indeq.factorbasis import basis_f
from indeq.graphcore import FamilySpec, build
from indeq.indpoly import (
    bruteforce_counts,
    cycle_polynomial,
    independence_polynomial,
    path_polynomial,
)
from indeq.polyalg import (
    IntPoly,
    SturmChain,
    all_roots_real_below,
    count_real_roots,
    is_squarefree,
    isolate_real_roots,
    poly_gcd,
    real_roots_approx,
    refine_root,
    squarefree_part,
)

from conftest import QUARTER, fs
from reference import poly_product

polys = st.builds(IntPoly, st.lists(st.integers(min_value=-9, max_value=9), max_size=7))


def test_multiplication_example():
    assert IntPoly((1, 2)) * IntPoly((1, 4, 1)) == IntPoly((1, 6, 9, 2))
    p = IntPoly((3, -1, 2))
    assert p * IntPoly.one() == p


def test_mul_xpow():
    p = IntPoly((1, 2))
    assert p.mul_xpow(0) == p and p.mul_xpow(2) == IntPoly((0, 0, 1, 2))
    assert IntPoly.zero().mul_xpow(3) == IntPoly.zero()
    for q in (p, IntPoly.zero()):
        with pytest.raises(ValueError, match="negative"):
            q.mul_xpow(-1)


def test_try_divide():
    # dividend is the brute-force independence polynomial of the 9-cycle
    dividend = IntPoly(bruteforce_counts(build(fs("C", 9))))
    assert dividend == IntPoly((1, 9, 27, 30, 9))
    assert dividend.try_divide(IntPoly((1, 3))) == IntPoly((1, 6, 9, 3))
    assert IntPoly((1, 1, 1)).try_divide(IntPoly((1, 1))) is None
    with pytest.raises(ZeroDivisionError):
        dividend.try_divide(IntPoly.zero())


@given(polys, polys, polys)
@settings(max_examples=80, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


# lengths on both sides of _KRONECKER_MIN_TERMS; coefficient widths from a
# few bits to a few hundred, so that both sides of the slot-width test
# occur too; zero coefficients and negative leading ones included
@st.composite
def product_factors(draw):
    bits = draw(st.sampled_from([2, 40, 700]))
    size = draw(st.integers(0, 2 * polyalg._KRONECKER_MIN_TERMS))
    coeff = st.integers(-2**bits, 2**bits) | st.just(0)
    return IntPoly(draw(st.lists(coeff, min_size=size, max_size=size)))


@given(product_factors(), product_factors() | st.integers(-10**30, 10**30))
@settings(max_examples=150, deadline=None)
def test_multiply_matches_schoolbook_reference(a, b):
    got = a * b
    assert isinstance(got, IntPoly)
    if isinstance(b, int):
        assert got == b * a == IntPoly(c * b for c in a.coeffs)
    else:
        assert got.coeffs == poly_product(a.coeffs, b.coeffs)
        assert (a * a).coeffs == poly_product(a.coeffs, a.coeffs)
        assert a * IntPoly.zero() == IntPoly.zero() * a == IntPoly.zero()


def test_long_products_take_the_kronecker_route(monkeypatch):
    calls = []
    kronecker = polyalg._kronecker_product
    monkeypatch.setattr(polyalg, "_kronecker_product", lambda *a: calls.append(a) or kronecker(*a))
    short = polyalg._KRONECKER_MIN_TERMS
    p, q = path_polynomial(2 * short - 2), path_polynomial(2 * short)  # short, short + 1 terms
    assert (p * q).coeffs == poly_product(p.coeffs, q.coeffs) and len(calls) == 1
    # one factor too short, or narrow coefficients in slots as wide as
    # I(P_3000)'s: schoolbook
    r, wide = path_polynomial(2 * short - 4), path_polynomial(3000)
    assert (r * q).coeffs == poly_product(r.coeffs, q.coeffs)
    assert (p * wide).coeffs == poly_product(p.coeffs, wide.coeffs)
    assert len(calls) == 1


def test_evaluator_products_keep_the_schoolbook_route(monkeypatch):
    # P:99+C:101 has the longest factors of every spec `indeq verify`
    # evaluates, 51 coefficients each
    calls = []
    monkeypatch.setattr(polyalg, "_kronecker_product", lambda *a: calls.append(a))
    got = independence_polynomial(build((FamilySpec("P", (99,)), FamilySpec("C", (101,)))))
    assert got.coeffs == poly_product(path_polynomial(99).coeffs, cycle_polynomial(101).coeffs)
    assert len(path_polynomial(99).coeffs) == len(cycle_polynomial(101).coeffs) == 51
    assert calls == []


def test_kronecker_slots_hold_extreme_coefficients():
    # every coefficient at its largest magnitude and 2^7 - 1 terms, so that
    # the middle product coefficient comes as close to the slot bound as it
    # can, at every residue of the slot width modulo 8
    terms = 127
    assert terms >= polyalg._KRONECKER_MIN_TERMS
    for bits in range(1, 72):
        top = 2**bits - 1
        p, q = IntPoly([top] * terms), IntPoly([-top] * terms + [top])
        assert (p * q).coeffs == poly_product(p.coeffs, q.coeffs), bits
        assert (q * q).coeffs == poly_product(q.coeffs, q.coeffs), bits


def _assert_codec_round_trip(coeffs, width):
    packed = polyalg.pack(tuple(coeffs), width)
    assert packed == sum(c * 256 ** (width * i) for i, c in enumerate(coeffs))
    assert polyalg.unpack(packed, width, len(coeffs)) == coeffs


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_codec_round_trips_signed_slots_at_every_width(data):
    # magnitudes up to a slot's signed bound, the extremes drawn often
    width = data.draw(st.integers(1, 80))
    top = 2 ** (8 * width - 1) - 1
    coeff = st.integers(-top, top) | st.sampled_from([top, -top, 0])
    _assert_codec_round_trip(data.draw(st.lists(coeff, max_size=12)), width)


@given(st.sampled_from([8 * k + d for k in range(41) for d in (-1, 0, 1) if 8 * k + d >= 0]), st.data())
@settings(max_examples=200, deadline=None)
def test_codec_holds_the_evaluator_counts_in_its_slots(n, data):
    # the evaluator packs counts below 2^n, n the component's vertices, in
    # slots of n // 8 + 1 bytes; n = 8k - 1 leaves the narrowest margin
    coeff = st.integers(0, 2 ** n - 1) | st.just(2 ** n - 1)
    _assert_codec_round_trip(data.draw(st.lists(coeff, max_size=12)), n // 8 + 1)


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_divide_undoes_multiply(a, b):
    if b:
        assert (a * b).try_divide(b) == a


def test_shift_examples():
    assert IntPoly((-3, 0, 1)).shift(-2) == IntPoly((1, -4, 1))
    assert IntPoly((1, 1)).shift(-2) == IntPoly((-1, 1))
    p = IntPoly((5, -2, 7))
    assert p.shift(0) == p


@given(polys, st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_shift_composes(p, a, b):
    assert p.shift(a).shift(b) == p.shift(a + b)


def test_reverse_negate_examples():
    assert IntPoly((1, -4, 1)).reverse_negate() == IntPoly((1, 4, 1))
    assert IntPoly((-2, 1)).reverse_negate() == IntPoly((1, 2))
    assert IntPoly((-1, 1)).reverse_negate() == IntPoly((1, 1))
    with pytest.raises(ValueError):
        IntPoly.zero().reverse_negate()


@given(polys)
@settings(max_examples=80, deadline=None)
def test_reverse_negate_double_application(p):
    # twice is the identity on even degree and negation on odd degree,
    # provided no degree is lost (nonzero constant term)
    if not p or p.coeffs[0] == 0:
        return
    twice = p.reverse_negate().reverse_negate()
    assert twice == (p if p.degree % 2 == 0 else -p)


def test_eval_rational():
    assert cycle_polynomial(6).eval_rational(QUARTER) == Fraction(1, 32)
    assert path_polynomial(4).eval_rational(QUARTER) == Fraction(3, 16)
    assert IntPoly.one().eval_rational(Fraction(7, 3)) == 1


def _horner(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@given(polys, st.one_of(st.integers(-50, 50), st.fractions(max_denominator=1000)))
@settings(max_examples=150, deadline=None)
def test_eval_rational_equals_fraction_horner(p, x):
    value = p.eval_rational(x)
    assert type(value) is Fraction and value == _horner(p, x)


@pytest.mark.parametrize("n", range(1, 30))
def test_path_value_at_quarter(n):
    # exact value of I(P_n, -1/4); the exponent is n + 1
    assert path_polynomial(n).eval_rational(QUARTER) == Fraction(n + 2, 2 ** (n + 1))


@pytest.mark.parametrize("n", range(3, 30))
def test_cycle_value_at_quarter(n):
    assert cycle_polynomial(n).eval_rational(QUARTER) == Fraction(1, 2 ** (n - 1))


def test_count_real_roots_examples():
    chain = SturmChain.of(IntPoly((1, 6, 7)))
    assert count_real_roots(chain, QUARTER, None) == 1
    chain = SturmChain.of(path_polynomial(4))
    assert count_real_roots(chain, None, QUARTER) == 2
    chain = SturmChain.of(IntPoly((1, 10, 33, 39, 8)))
    assert count_real_roots(chain, None, None) == 2


def test_count_endpoint_convention():
    # roots at the upper endpoint count, roots at the lower one do not
    p = IntPoly((1, 4))  # root exactly -1/4
    chain = SturmChain.of(p)
    assert count_real_roots(chain, None, QUARTER) == 1
    assert count_real_roots(chain, QUARTER, None) == 0


def _descartes_variations(p):
    signs = [1 if c > 0 else -1 for c in p.coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_unit_interval(q):
    """Distinct roots of squarefree q in the open interval (0, 1).

    Descartes bound on (x+1)^n q(1/(x+1)): 0 or 1 is exact, otherwise
    bisect.  Independent of the Sturm machinery under test.
    """
    n = q.degree
    w = IntPoly(tuple(reversed(q.coeffs)) + (0,) * (n + 1 - len(q.coeffs))).shift(1)
    v = _descartes_variations(w)
    if v <= 1:
        return v
    left = IntPoly(c * 2 ** (n - k) for k, c in enumerate(q.coeffs))  # q(x/2) scaled
    right = left.shift(1)
    mid_root = 1 if left.eval_int(1) == 0 else 0
    return _count_unit_interval(left) + mid_root + _count_unit_interval(right)


def _descartes_root_count(p):
    """Independent oracle: distinct real roots via sign-variation bisection."""
    bound = 1
    while p.cauchy_bound() > bound:
        bound *= 2
    at_zero = 1 if p.coeffs[0] == 0 else 0
    pos = IntPoly(c * bound**k for k, c in enumerate(p.coeffs))  # p(bound * x)
    neg = IntPoly(c * (-bound) ** k for k, c in enumerate(p.coeffs))
    return at_zero + _count_unit_interval(pos) + _count_unit_interval(neg)


@pytest.mark.parametrize("spec", [
    fs("P", 8), fs("P", 12), fs("C", 9), fs("C", 12), fs("D", 8),
    fs("Y", 3, 2, 1), fs("Y", 4, 2, 2), fs("E", 2, 2), fs("A", 2, 2),
    fs("B", 1, 1, 1), fs("K4e"), fs("F3", 2), fs("F9", 0, 0, 0),
])
def test_sturm_agrees_with_descartes_bisection(spec):
    p = squarefree_part(SturmChain.of(independence_polynomial(build(spec))))
    assert p.degree <= 12
    chain = SturmChain.of(p)
    assert count_real_roots(chain, None, None) == _descartes_root_count(p)


def test_all_roots_real_below_examples():
    assert all_roots_real_below(path_polynomial(10), QUARTER)
    assert not all_roots_real_below(IntPoly((1, 4)), QUARTER)
    f3_2 = independence_polynomial(build(fs("F3", 2)))
    assert not all_roots_real_below(f3_2, QUARTER)
    # repeated roots disqualify outright
    assert not all_roots_real_below(IntPoly((1, 2)) * IntPoly((1, 2)), QUARTER)


# (question, Sturm chains built, gcd(p, p') computations); every input but
# C:4+C:4 is squarefree (its squarefree part comes off its first chain),
# and E:2,2 has a root at -1/4
ROOT_QUESTIONS = {
    "screen-admissible": (lambda: screen_family(fs("Y", 2, 1, 1)), 1, 0),
    "screen-eliminated": (lambda: screen_family(fs("E", 2, 2)), 1, 0),
    "all-roots-real-below": (lambda: all_roots_real_below(path_polynomial(12), QUARTER), 1, 0),
    "indeq-roots": (lambda: main(["roots", "Y:2,1,1"]), 1, 0),
    "indeq-roots-repeated": (lambda: main(["roots", "C:4+C:4"]), 2, 0),
}


@pytest.mark.parametrize("name", ROOT_QUESTIONS)
def test_one_sturm_chain_per_root_question(monkeypatch, capsys, name):
    question, chains, gcds = ROOT_QUESTIONS[name]
    calls = []
    of, gcd = SturmChain.of.__func__, polyalg.poly_gcd
    monkeypatch.setattr(SturmChain, "of", classmethod(lambda cls, p: calls.append("chain") or of(cls, p)))
    monkeypatch.setattr(polyalg, "poly_gcd", lambda a, b: calls.append("gcd") or gcd(a, b))
    question()
    assert (calls.count("chain"), calls.count("gcd")) == (chains, gcds)


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_chain_squarefree_answer_equals_the_gcd_route(a, b):
    for p in (a, a * a * b):
        if p:
            assert SturmChain.of(p).squarefree == is_squarefree(p) == (poly_gcd(p, p.derivative()).degree == 0)


small_polys = st.builds(IntPoly, st.lists(st.integers(min_value=-5, max_value=5), max_size=4))
signs = st.sampled_from((1, -1))


@given(small_polys, small_polys, small_polys, signs)
@settings(max_examples=150, deadline=None)
def test_squarefree_part_equals_the_gcd_route(a, b, c, sign):
    # a b^2 c^3 of either sign: repeated roots, and chains whose last
    # member has a negative leading coefficient
    p = sign * a * b * b * c * c * c
    if p:
        assert squarefree_part(SturmChain.of(p)) == p.primitive_part().try_divide(poly_gcd(p, p.derivative()))


@pytest.mark.parametrize("n", range(1, 61))
def test_path_cycle_roots_battery(n):
    assert all_roots_real_below(path_polynomial(n), QUARTER)
    if n >= 3:
        assert all_roots_real_below(cycle_polynomial(n), QUARTER)


def test_isolation_and_refinement():
    p = path_polynomial(6)
    intervals = isolate_real_roots(SturmChain.of(p))
    assert len(intervals) == p.degree
    mids = []
    for lo, hi in intervals:
        rlo, rhi = refine_root(p, lo, hi, Fraction(1, 10**15))
        mids.append((rlo + rhi) / 2)
    assert mids == sorted(mids)
    approx = real_roots_approx(SturmChain.of(p))
    assert len(approx) == p.degree
    assert all(m < -0.25 for m in approx)
    with pytest.raises(ValueError):
        isolate_real_roots(SturmChain.of(IntPoly((1, 2)) * IntPoly((1, 2))))


def test_refine_root_refuses_an_empty_interval():
    # x^2 - 1 on the reversed (2, 0]: refused as count_real_roots refuses it,
    # not refined into an interval that holds no root
    p = IntPoly((-1, 0, 1))
    with pytest.raises(ValueError, match=r"^empty interval \(2, 0\]$"):
        count_real_roots(SturmChain.of(p), 2, 0)
    for lo, hi, text in ((2, 0, r"\(2, 0\]"), (1, 1, r"\(1, 1\]")):
        with pytest.raises(ValueError, match=rf"^empty interval {text}$"):
            refine_root(p, lo, hi, Fraction(1, 1000))


# sha256 of the repr of every isolating interval and of its refinement to
# width 1e-12, recorded while the chain was evaluated member by member by Horner
ISOLATION_DIGEST = "3b3d71d4fc60e1bbff26df599163892b7ba6123efc0232e50f6f83bf81132866"
# sha256 of the repr of the isolating intervals of P_200, P_300, P_400 and
# C_301, recorded while the isolation bisected (-B, B] on the chain
LARGE_ISOLATION_DIGEST = "eba205466c7f1461b7104b79649b640c709f2c9526ba221fc409cc83b2295b92"


def test_isolation_and_refinement_match_golden():
    polys = ([path_polynomial(n) for n in range(1, 81)]
             + [cycle_polynomial(n) for n in range(3, 81)]
             + [independence_polynomial(build(fs("Y", m, 1, 1))) for m in range(1, 41)]
             + [squarefree_part(SturmChain.of(independence_polynomial(build([fs("P", 2)] * 3))))])
    digest = hashlib.sha256()
    for p in polys:
        intervals = isolate_real_roots(SturmChain.of(p))
        digest.update(repr(intervals).encode())
        digest.update(repr([refine_root(p, lo, hi, Fraction(1, 10**12)) for lo, hi in intervals]).encode())
    assert digest.hexdigest() == ISOLATION_DIGEST


def test_large_degree_isolation_matches_golden():
    digest = hashlib.sha256()
    for p in (path_polynomial(200), path_polynomial(300), path_polynomial(400), cycle_polynomial(301)):
        digest.update(repr(isolate_real_roots(SturmChain.of(p))).encode())
    assert digest.hexdigest() == LARGE_ISOLATION_DIGEST


# -- the chain's remainder recurrence -----------------------------------------


def _assert_remainder_identities(chain):
    s = chain.chain
    assert len(chain.steps) == max(len(s) - 2, 0)
    for i, (q, m, g, k) in enumerate(chain.steps):
        assert g > 0 and m > 0
        assert k == s[i].degree - s[i + 2].degree
        assert g * s[i + 2] == q * s[i + 1] - m * s[i]


def test_chain_steps_satisfy_the_remainder_identity():
    polys = ([path_polynomial(n) for n in range(1, 41)]
             + [cycle_polynomial(n) for n in range(3, 41)]
             + [basis_f(n).poly for n in range(2, 41)])
    for p in polys:
        _assert_remainder_identities(SturmChain.of(p))


def _cleared_value(p, x):
    """den^deg p(x), x = num/den, by Horner over Fractions (0 for p = 0)."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc * x.denominator ** max(p.degree, 0)


def _reference_variations(chain, x):
    """Sign variations at x, every member evaluated on its own by sign_at."""
    signs = [s for s in (member.sign_at(x) for member in chain.chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


small_coeffs = st.integers(-4, 4)
# (factor, multiplicity): linear and quadratic factors with small integer
# coefficients, zero constant terms included; multiplicities above 1 give
# chains that end in a non-constant gcd
factors = st.tuples(
    st.one_of(
        st.builds(lambda c0, c1: IntPoly((c0, c1)), small_coeffs, small_coeffs.filter(bool)),
        st.builds(lambda c0, c1, c2: IntPoly((c0, c1, c2)), small_coeffs, small_coeffs, small_coeffs.filter(bool)),
    ),
    st.sampled_from((1, 1, 2, 3)),
)
points = st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=60))


@given(st.lists(factors, min_size=1, max_size=5), st.lists(points, max_size=8))
@settings(max_examples=120, deadline=None)
def test_recurrence_values_equal_horner_on_each_member(parts, drawn):
    p = IntPoly.one()
    for factor, multiplicity in parts:
        for _ in range(multiplicity):
            p = p * factor
    chain = SturmChain.of(p)
    _assert_remainder_identities(chain)
    # rational roots of the linear factors (roots of p and of the gcd) and of
    # the linear interior members, where members vanish
    roots = [Fraction(-f.coeffs[0], f.coeffs[1]) for f, _ in parts if f.degree == 1]
    roots += [Fraction(-s.coeffs[0], s.coeffs[1]) for s in chain.chain[1:-1] if s.degree == 1]
    for x in drawn + roots:
        values = chain.values_at(x)
        assert values == [_cleared_value(s, x) for s in chain.chain]
        assert [(v > 0) - (v < 0) for v in values] == [s.sign_at(x) for s in chain.chain]
        assert chain.variations_at(x) == _reference_variations(chain, x)


# -- isolation and refinement against plain bisection ------------------------


def _bisection_isolate(p):
    """Reference isolation: bisect (-B, B], B the Cauchy bound, counting
    every split on the full Sturm chain at both ends."""
    chain = SturmChain.of(p)
    bound = p.cauchy_bound()
    stack = [(-bound, bound, count_real_roots(chain, -bound, bound))]
    out = []
    while stack:
        a, b, k = stack.pop()
        if k == 1:
            out.append((a, b))
        elif k > 1:
            mid = (a + b) / 2
            left = count_real_roots(chain, a, mid)
            stack += [(a, mid, left), (mid, b, k - left)]
    return sorted(out)


def _bisection_refine(p, lo, hi, width):
    """Reference refinement: halve (lo, hi] until it is no wider than width."""
    s_hi = p.sign_at(hi)
    if s_hi == 0:
        return hi, hi
    s_lo = p.sign_at(lo)
    while s_lo == 0:
        mid = (lo + hi) / 2
        s_mid = p.sign_at(mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_hi:
            hi = mid
        else:
            lo, s_lo = mid, s_mid
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = p.sign_at(mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


WIDTHS = (Fraction(1, 10**12), Fraction(1, 7), Fraction(3, 1000))
# dyadic denominators put roots on bisection grids; the others never do
rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 4, 8, 16, 3, 5, 7, 12]))
quadratics = st.builds(
    lambda c0, c1, c2: IntPoly((c0, c1, c2)),
    st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 9),
)


@given(st.builds(IntPoly, st.lists(st.integers(-10**6, 10**6), max_size=8)),
       st.one_of(st.integers(-40, 40), rationals, st.fractions(-9, 9, max_denominator=10**9)))
@example(IntPoly(), Fraction(-3, 7))
@example(IntPoly((5,)), Fraction(5, 8))
@example(IntPoly((0, 0, -3)), 0)
@settings(max_examples=200, deadline=None)
def test_every_evaluation_route_equals_the_fraction_reference(p, x):
    value = _cleared_value(p, x)
    num, den = x.numerator, x.denominator
    if den == 1:
        assert p.eval_int(num) == value
    assert p.homogeneous_value(num, den) == value
    assert p.eval_rational(x) == value / den ** max(p.degree, 0)
    assert p.sign_at(x) == (value > 0) - (value < 0)
    if p:
        chain = SturmChain.of(p)
        assert chain.values_at(x) == [_cleared_value(s, x) for s in chain.chain]


def _with_roots(roots):
    """Primitive product of the linear factors (den x - num), one per root."""
    p = IntPoly.one()
    for r in roots:
        p = p * IntPoly((-r.numerator, r.denominator))
    return p


@given(st.lists(rationals, min_size=1, max_size=6, unique=True), st.lists(quadratics, max_size=1))
@settings(max_examples=60, deadline=None)
def test_isolation_and_refinement_equal_bisection(roots, quadratic):
    p = _with_roots(roots)
    for q in quadratic:
        p = p * q
    if not is_squarefree(p):
        return
    intervals = isolate_real_roots(SturmChain.of(p))
    assert intervals == _bisection_isolate(p)
    for lo, hi in intervals:
        for width in WIDTHS:
            assert refine_root(p, lo, hi, width) == _bisection_refine(p, lo, hi, width)


@given(st.lists(rationals, min_size=2, max_size=6, unique=True))
@settings(max_examples=40, deadline=None)
def test_refinement_from_a_root_at_the_lower_end_equals_bisection(roots):
    # (r_i, m] isolates r_(i+1) when m lies between r_(i+1) and the next
    # root; the root at lo is excluded, so the refinement first steps inward
    p = _with_roots(roots)
    roots = sorted(roots) + [max(roots) + 2]
    for lo, r, nxt in zip(roots, roots[1:], roots[2:]):
        for hi in (r, (r + nxt) / 2):
            for width in WIDTHS:
                assert refine_root(p, lo, hi, width) == _bisection_refine(p, lo, hi, width)


@given(rationals, rationals.filter(lambda r: r > 0), st.integers(1, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_refinement_lands_on_a_root_at_a_grid_point(lo, length, m, data):
    hi = lo + length
    root = lo + length * Fraction(2 * data.draw(st.integers(0, 2 ** (m - 1) - 1)) + 1, 2**m)
    p = _with_roots([root, hi + 1, lo - 1])
    for width in WIDTHS:
        assert refine_root(p, lo, hi, width) == _bisection_refine(p, lo, hi, width)
    assert refine_root(p, lo, hi, Fraction(1, 10**12)) == (root, root)


# denominators 1, 2, 8 and 1024 make dyadic roots, some of them on the final
# grid of a refinement or at an isolation endpoint (0 is the first split of
# every isolation); 3, 7 and 61 never do
linear_roots = st.builds(Fraction, st.one_of(st.integers(-12, 12), st.integers(-5000, 5000)),
                         st.sampled_from([1, 2, 8, 1024, 3, 7, 61]))


@given(st.lists(linear_roots, min_size=1, max_size=7, unique=True), st.sampled_from([1, -1, 3, -2]))
@example([Fraction(-1), Fraction(0), Fraction(1)], 1)
@example([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)], -1)
@settings(max_examples=150, deadline=None)
def test_real_roots_approx_equals_bisection_midpoints(roots, lead):
    # real_roots_approx takes the sign above each root from the lead's sign
    # and the number of roots above it, and refines below 10^-12 (WIDTHS[0]);
    # the examples put roots at isolation ends
    p = _with_roots(roots) * lead
    expected = [float((a + b) / 2) for a, b in
                (_bisection_refine(p, lo, hi, WIDTHS[0]) for lo, hi in _bisection_isolate(p))]
    assert real_roots_approx(SturmChain.of(p)) == expected


@given(st.lists(linear_roots, min_size=1, max_size=7, unique=True), st.sampled_from([1, -1, 3, -2]))
# -1/7 is a midpoint of (-B, B], never reached by dyadic probes: p is
# evaluated exactly there
@example([Fraction(-1, 7), Fraction(0)], -2)
# 1/2, 3/4 and 1 are dyadic probes of (-R, R], so their brackets end at a root
@example([Fraction(1, 2), Fraction(3, 4), Fraction(1)], 3)
# the last two roots are 1/62464 apart, 2^-42 of the cell of (-B, B] whose
# midpoint splits them
@example([Fraction(-5000), Fraction(5000), Fraction(-4999), Fraction(4999),
          Fraction(4885, 1024), Fraction(291, 61)], 1)
@settings(max_examples=150, deadline=None)
def test_isolation_on_rational_roots_equals_bisection(roots, lead):
    p = _with_roots(roots) * lead
    assert isolate_real_roots(SturmChain.of(p)) == _bisection_isolate(p)


def test_isolation_evaluates_only_short_points(monkeypatch):
    # bisecting (-B, B] evaluates the chain at 86-bit numerators for P_120;
    # the isolation probes dyadic points of (-R, R], R about 2^10, instead
    chains = [SturmChain.of(path_polynomial(120)), SturmChain.of(cycle_polynomial(90))]
    points = []
    method = IntPoly.homogeneous_value
    monkeypatch.setattr(IntPoly, "homogeneous_value",
                        lambda self, num, den: points.append((num, den)) or method(self, num, den))
    for chain in chains:
        isolate_real_roots(chain)
    assert points
    assert max(max(abs(num).bit_length(), den.bit_length()) for num, den in points) <= 40


def test_refinement_evaluates_fewer_than_half_the_points_of_bisection(monkeypatch):
    p = path_polynomial(60)
    intervals = isolate_real_roots(SturmChain.of(p))
    width = Fraction(1, 10**12)
    # refinement probes dyadic points by eval_int on a scaled copy of p and
    # evaluates exactly by sign_at; bisection evaluates every point by sign_at
    calls = []
    for name in ("eval_int", "sign_at"):
        method = getattr(IntPoly, name)
        monkeypatch.setattr(IntPoly, name, lambda self, x, method=method: calls.append(x) or method(self, x))
    fast = [refine_root(p, lo, hi, width) for lo, hi in intervals]
    refined = len(calls)
    slow = [_bisection_refine(p, lo, hi, width) for lo, hi in intervals]
    bisected = len(calls) - refined
    assert fast == slow
    assert bisected > 0 and 2 * refined < bisected
    # real_roots_approx knows the sign above each root from the isolation
    # order, so past its dyadic probes it evaluates p exactly (through
    # homogeneous_value, which sign_at calls) at most once per root
    p = path_polynomial(120)
    chain = SturmChain.of(p)
    intervals = isolate_real_roots(chain)
    monkeypatch.setattr(polyalg, "isolate_real_roots", lambda chain: intervals)
    exact = []
    method = IntPoly.homogeneous_value
    monkeypatch.setattr(IntPoly, "homogeneous_value",
                        lambda self, num, den: exact.append(num) or method(self, num, den))
    calls.clear()
    approx = real_roots_approx(chain)
    refined, certified = len(calls), len(exact)
    slow = [_bisection_refine(p, lo, hi, width) for lo, hi in intervals]
    bisected = len(calls) - refined
    assert approx == [float((a + b) / 2) for a, b in slow]
    assert len(approx) == 60 and certified <= len(approx)
    assert 2 * refined < bisected


def test_gcd_and_squarefree():
    a = IntPoly((1, 3)) * IntPoly((1, 4, 1))
    b = IntPoly((1, 3)) * IntPoly((1, 2))
    assert poly_gcd(a, b) == IntPoly((1, 3))
    sq = IntPoly((1, 3)) * IntPoly((1, 3)) * IntPoly((1, 2))
    assert not is_squarefree(sq)
    assert squarefree_part(SturmChain.of(sq)) == IntPoly((1, 3)) * IntPoly((1, 2))
