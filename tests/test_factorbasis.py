import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indeq import factorbasis
from indeq.factorbasis import (
    FactorizationError,
    basis,
    basis_f,
    basis_ftilde,
    cyclotomic,
    divisors,
    euler_phi,
    factor_cycle,
    factor_into_basis,
    factor_path,
    factorize,
    orders,
    product_of,
    real_cyclotomic,
    two_adic_split,
)
from indeq.graphcore import build
from indeq.indpoly import cycle_polynomial, independence_polynomial, path_polynomial
from indeq.polyalg import IntPoly, all_roots_real_below, poly_gcd

from conftest import QUARTER, fs
from reference import cycle_factor_names, path_factor_names


def test_cyclotomic_examples():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(7) == IntPoly((1,) * 7)
    # independent route: divide x^12 - 1 by the proper-divisor cyclotomics
    x12 = IntPoly((-1,) + (0,) * 11 + (1,))
    prod = IntPoly.one()
    for d in (1, 2, 3, 4, 6):
        prod = prod * cyclotomic(d)
    assert cyclotomic(12) == x12.try_divide(prod)
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))


@pytest.mark.parametrize("n", range(1, 80))
def test_cyclotomic_product_identity(n):
    prod = IntPoly.one()
    for d in divisors(n):
        prod = prod * cyclotomic(d)
    assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


# sha256 of one line of comma-separated coefficients per Phi_n, 1 <= n < 3000,
# recorded from the Moebius product of x^d - 1 binomials with exact division
PHI_DIGEST = "bd6eb35f5d91ec64f28419436b73103481eeb9b18c4c07dd4a9a6d12c5957b32"


def test_cyclotomic_matches_digest():
    h = hashlib.sha256()
    for n in range(1, 3000):
        h.update((",".join(map(str, cyclotomic(n).coeffs)) + "\n").encode("ascii"))
    assert h.hexdigest() == PHI_DIGEST


def test_real_cyclotomic_examples():
    assert real_cyclotomic(5) == IntPoly((-1, 1, 1))
    assert real_cyclotomic(12) == IntPoly((-3, 0, 1))
    assert real_cyclotomic(3) == IntPoly((1, 1))
    assert real_cyclotomic(1) == IntPoly((-2, 1))
    assert real_cyclotomic(2) == IntPoly((2, 1))


@pytest.mark.parametrize("n", range(3, 41))
def test_real_cyclotomic_defining_identity(n):
    # Phi_n(x) = x^d * psi_n(x + 1/x) with d = phi(n)/2, checked symbolically
    psi = real_cyclotomic(n)
    d = euler_phi(n) // 2
    assert psi.degree == d and psi.lead == 1
    acc, power = IntPoly.zero(), IntPoly.one()  # power = (x^2 + 1)^j
    for j, c in enumerate(psi.coeffs):
        acc = acc + power.mul_xpow(d - j) * c
        power = power * IntPoly((1, 0, 1))
    assert acc == cyclotomic(n)


def test_basis_examples():
    assert basis_f(2).poly == IntPoly((1, 2))
    assert basis_f(3).poly == IntPoly((1, 3))
    assert basis_f(6).poly == IntPoly((1, 4, 1))
    assert basis_ftilde(3).poly == IntPoly((1, 1))
    # psi_8 = x^2 - 2 -> shift -2 -> x^2 - 4x + 2 -> reverse-negate -> 1 + 4x + 2x^2
    assert real_cyclotomic(8) == IntPoly((-2, 0, 1))
    assert basis_f(4).poly == IntPoly((1, 4, 2))
    assert basis_f(4).poly == cycle_polynomial(4)
    # psi_5 -> shift -> x^2 - 3x + 1 -> 1 + 3x + x^2 = I(P_3)
    assert basis_ftilde(5).poly == IntPoly((1, 3, 1)) == path_polynomial(3)


def test_units():
    assert basis_f(1).poly == 1
    assert basis_ftilde(1).poly == 1
    with pytest.raises(ValueError, match="odd"):
        basis_ftilde(4)


def test_basis_is_indexed_by_the_order_of_its_roots():
    for order in range(1, 401):
        want = basis_f(order // 2) if order % 2 == 0 else basis_ftilde(order)
        got = basis(order)
        assert (got.kind, got.index, got.poly) == (want.kind, want.index, want.poly), order
        if order >= 3:
            assert got.poly.degree == euler_phi(order) // 2, order
    assert basis(1).poly == 1 and basis(2).poly == 1
    for order in (0, -1, -2, -7):
        with pytest.raises(ValueError, match="index must be >= 1"):
            basis(order)


@pytest.mark.parametrize("top", [1, 2, 3, 4, 17, 60, 200])
def test_orders_name_f_then_the_odd_ftilde(top):
    want = ([basis_f(i) for i in range(2, top + 1)]
            + [basis_ftilde(i) for i in range(3, top + 1, 2)])
    assert [basis(order) for order in orders(top)] == want


def test_factor_path_and_cycle_match_the_parity_split():
    for n in range(0, 601):
        assert [(f.kind, f.index) for f in factor_path(n)] == path_factor_names(n), n
    for n in range(3, 601):
        assert [(f.kind, f.index) for f in factor_cycle(n)] == cycle_factor_names(n), n


def test_even_path_splits_into_a_path_and_a_cycle():
    # I(P_{2n-2}) = I(P_{n-2}) * I(C_n), as factor multisets
    for n in range(3, 301):
        assert tuple(sorted(factor_cycle(n) + factor_path(n - 2))) == factor_path(2 * n - 2), n


def test_factor_cycle_examples():
    assert [f.name for f in factor_cycle(6)] == ["f2", "f6"]
    assert [f.name for f in factor_cycle(4)] == ["f4"]
    nine = factor_cycle(9)
    assert [f.name for f in nine] == ["f3", "f9"]
    # f9 is forced by dividing the brute cycle polynomial by f3
    assert nine[1].poly == cycle_polynomial(9).try_divide(basis_f(3).poly)
    assert product_of(factor_cycle(4)) == cycle_polynomial(4)


def test_factor_path_examples():
    assert [f.name for f in factor_path(10)] == ["f2", "f3", "f6", "f~3"]
    assert [f.name for f in factor_path(1)] == ["f~3"]
    assert [f.name for f in factor_path(3)] == ["f~5"]
    assert product_of(factor_path(3)) == IntPoly((1, 3, 1))


@pytest.mark.parametrize("n", range(3, 61))
def test_factor_products_reproduce_polynomials(n):
    assert product_of(factor_cycle(n)) == cycle_polynomial(n)
    assert product_of(factor_path(n - 2)) == path_polynomial(n - 2)


def test_degree_bookkeeping():
    for n in range(2, 501):
        assert basis_f(n).poly.degree == euler_phi(2 * n) // 2
        if n % 2 == 1 and n >= 3:
            assert basis_ftilde(n).poly.degree == euler_phi(n) // 2


def test_basis_is_irreducible_by_sympy():
    # a second system's factorization: one factor, of multiplicity 1 and
    # of the basis degree, for f_n, n <= 40, and odd f~_n, n < 80
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    cases = [(basis_f(n), euler_phi(2 * n) // 2) for n in range(2, 41)]
    cases += [(basis_ftilde(n), euler_phi(n) // 2) for n in range(3, 80, 2)]
    for factor, degree in cases:
        _, factors = sympy.factor_list(sympy.Poly(factor.poly.coeffs[::-1], x))
        assert [(f.degree(), m) for f, m in factors] == [(degree, 1)], factor.name


def test_two_adic_split():
    assert two_adic_split(1) == (0, 1)
    for k in range(12):
        for m in (1, 3, 5, 45, 2**61 - 1):
            assert two_adic_split(2**k * m) == (k, m)
    for n in (0, -4):
        with pytest.raises(ValueError):
            two_adic_split(n)


def test_number_theory_refuses_n_below_one():
    assert (factorize(1), divisors(1), euler_phi(1)) == ((), [1], 1)
    assert (factorize(12), divisors(12), euler_phi(12)) == (((2, 2), (3, 1)), [1, 2, 3, 4, 6, 12], 4)
    for n in (0, -6):
        for fn in (factorize, divisors, euler_phi):
            with pytest.raises(ValueError, match="n >= 1"):
                fn(n)


def test_pairwise_coprimality():
    top = 60
    polys = [basis_f(n).poly for n in range(2, top + 1)]
    polys += [basis_ftilde(n).poly for n in range(3, top + 1, 2)]
    for p, q in itertools.combinations(polys, 2):
        assert poly_gcd(p, q).degree == 0


@pytest.mark.parametrize("k", range(3, 61))
def test_cycle_divisibility_law(k):
    fk = set(factor_cycle(k))
    for n in range(3, 61):
        divides = fk <= set(factor_cycle(n))
        assert divides == (n % k == 0 and (n // k) % 2 == 1), (k, n)


@pytest.mark.parametrize("n", range(2, 61))
def test_basis_roots_below_quarter(n):
    assert all_roots_real_below(basis_f(n).poly, QUARTER)
    if n % 2 == 1 and n >= 3:
        assert all_roots_real_below(basis_ftilde(n).poly, QUARTER)


def test_factor_into_basis_examples():
    got = factor_into_basis(independence_polynomial(build(fs("Y", 4, 2, 2))))
    assert [f.name for f in got] == ["f12", "f~3"]
    got = factor_into_basis(independence_polynomial(build(fs("E", 1, 1))))
    assert [f.name for f in got] == ["f6", "f~3"]
    with pytest.raises(FactorizationError) as info:
        factor_into_basis(IntPoly((1, 4)))
    assert info.value.remainder == IntPoly((1, 4))


def test_factor_into_basis_handles_multiplicity():
    square = basis_f(3).poly * basis_f(3).poly * basis_f(2).poly
    got = factor_into_basis(square, max_index=3)
    assert [f.name for f in got] == ["f2", "f3", "f3"]


# f_i with i <= 40 and odd f~_i with i <= 39, each with multiplicity 1..3
basis_multisets = st.dictionaries(
    st.one_of(st.integers(2, 40).map(basis_f),
              st.integers(1, 19).map(lambda k: basis_ftilde(2 * k + 1))),
    st.integers(1, 3), max_size=5)


@given(basis_multisets)
@settings(max_examples=80, deadline=None)
def test_factor_into_basis_round_trips_basis_products(multiplicities):
    expected = tuple(sorted(f for f, m in multiplicities.items() for _ in range(m)))
    p = product_of(expected)
    assert factor_into_basis(p) == expected
    if expected:
        top = max(f.index for f in expected)
        assert factor_into_basis(p, max_index=top) == expected
        with pytest.raises(FactorizationError):
            factor_into_basis(p, max_index=top - 1)


def test_factor_into_basis_builds_only_factors_that_fit(monkeypatch):
    p = path_polynomial(400)
    built = []

    def recording(n, real=factorbasis._factor_poly):
        built.append(real(n))
        return built[-1]

    basis_f.cache_clear()
    basis_ftilde.cache_clear()
    monkeypatch.setattr(factorbasis, "_factor_poly", recording)
    assert factor_into_basis(p) == factor_path(400)
    assert max(g.degree for g in built) <= p.degree
    # the default bound 2(i_1 + 2) = 804 names 803 f's and 401 f~'s
    assert len(built) < 1204


def test_factor_into_basis_describes_candidates_by_degree_not_by_i1(monkeypatch):
    p = IntPoly((1, 10**5, 1))
    with pytest.raises(FactorizationError):
        factor_into_basis(p)  # builds the factors that fit, so only descriptions are counted below
    calls = []

    def counting(n, real=factorbasis.euler_phi):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(factorbasis, "euler_phi", counting)
    with pytest.raises(FactorizationError):
        factor_into_basis(p)
    # degree 2 admits orders up to 8 * 2^2 = 32: f_2 .. f_32 and f~_3 .. f~_31,
    # where the default bound 2(i_1 + 2) would describe 300,004
    assert len(calls) <= 46


def _defining_pipeline(n):
    """The factor built on Phi_n by definition: psi_n, shift by -2, reverse-negate."""
    return real_cyclotomic(n).shift(-2).reverse_negate()


def test_basis_f_matches_defining_pipeline():
    for n in range(2, 351):
        assert basis_f(n).poly == _defining_pipeline(2 * n), n


def test_basis_ftilde_matches_defining_pipeline():
    for n in range(3, 700, 2):
        assert basis_ftilde(n).poly == _defining_pipeline(n), n


# dense kernels: 1155 = 3*5*7*11 (176 of 241 a_k nonzero, s = 1) and
# 1405 = 5*281 (393 of 561, s = 0); sparse ones: 2029 prime (a = 1, s = 0)
# and 4058 = 2*2029 (a = 1 - y, s = 1)
@pytest.mark.parametrize("n", [1155, 1405, 2029, 4058])
def test_large_basis_factors_match_defining_pipeline(n):
    got = basis_ftilde(n) if n % 2 else basis_f(n // 2)
    assert got.poly == _defining_pipeline(n)
