"""The irreducible factor basis of path and cycle independence polynomials.

Every root of a path or cycle independence polynomial has the form
-1/(2 + 2*cos(2*pi*k/N)), gcd(k, N) = 1.  Its minimal polynomial is
g_N = basis(N), of degree phi(N)/2, obtained from the minimal polynomial
of 2*cos(2*pi/N) by translating two units left and then applying the
reverse-negate transform p -> sum_t b_t (-x)^(d-t).  The paper, after
Beaton, Brown and Cameron, spells g_N two ways, as BasisFactor.name does:

  f_n   = g_2n = basis_f(n)       minimal polynomial of -1/(2 + 2*cos(pi/n))
  f~_n  = g_n  = basis_ftilde(n)  for odd n

g_1 = g_2 = f_1 = f~_1 is the unit and never appears in factor multisets.
The factors are pairwise coprime, and:

  I(P_n, x)  =  product of g_N over N | n + 2,         N > 2
  I(C_n, x)  =  product of g_N over N | 2n, N not | n, N > 2

factor_into_basis divides any polynomial by the factors of index up to
max_index (default: 2(i_1 + 2)) and order up to 8 d^2, d its degree,
whose degree, phi(N)/2, fits the cofactor.

Construction is exact.  Phi_n is the Moebius product of 1 - x^d binomials
as a power series cut at degree phi(n).  The 2*cos minimal polynomial psi_n
(real_cyclotomic) solves Phi_n(x) = x^d * psi_n(x + 1/x), d = phi(n)/2,
by a triangular solve; the basis does not use it.  A basis factor
g = reverse_negate(psi_N(x - 2)), N = 2n for f_n and N = n for f~_n,
comes straight from Phi_N: substituting x = -y/(1+y)^2 gives
Phi_N(y) = (1+y)^(2d) * g(-y/(1+y)^2), and Lagrange inversion on
y = w * (-(1+y)^2) yields, for j = 0..d,

  g_j = sum over k <= j of  a_k (-1)^k C(2d - j - k + s, j - k)

where a is (1 - y) Phi_N(y) for s = 0 or (1 - y^2) Phi_N(y) for s = 1
(both hold for every N; only a_0..a_d matter).  For N = p prime and
s = 0, a = 1 and g_j = C(p - 1 - j, j); for N = 2p and s = 1, a = 1 - y.
Each nonzero a_k costs one diagonal of d - k + 1 big-by-small steps, so
a factor costs O(nnz(a) * d) such steps, against O(d^2) big products
for the solve and as many again for the Taylor shift.
"""

from __future__ import annotations

import operator
from functools import lru_cache, total_ordering
from itertools import chain, combinations
from math import comb, prod

from .graphcore import Record, echo_number
from .polyalg import IntPoly


class FactorizationError(ValueError):
    """A polynomial failed to factor over the given basis candidates."""

    def __init__(self, message: str, remainder: IntPoly):
        super().__init__(message)
        self.remainder = remainder


# -- elementary number theory -------------------------------------------------

@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...).  Raises ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"factorization needs n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            e += 1
            n //= d
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# -- cyclotomic and 2cos minimal polynomials -----------------------------------

def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial.  For n > 1 it is the product of
    (1 - x^d)^mu(n/d) over d | n, read as a power series cut at degree
    phi(n) (Arnold and Monagan, Math. Comp. 80, 2011)."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    if n == 1:
        return IntPoly((-1, 1))
    top = euler_phi(n)
    c = [1] + [0] * top
    primes = [p for p, _ in factorize(n)]
    # mu(n/d) is nonzero exactly when n/d is a product e of distinct primes
    for e in chain.from_iterable(combinations(primes, k) for k in range(len(primes) + 1)):
        d = n // prod(e)
        if len(e) % 2 == 0:  # mu(n/d) = 1: times 1 - x^d
            for i in range(top, d - 1, -1):
                c[i] -= c[i - d]
        else:  # mu(n/d) = -1: times 1 / (1 - x^d) = 1 + x^d + x^2d + ...
            for i in range(d, top + 1):
                c[i] += c[i - d]
    return IntPoly(c)


@lru_cache(maxsize=None)
def real_cyclotomic(n: int) -> IntPoly:
    """Minimal polynomial of 2*cos(2*pi/n): monic, degree phi(n)/2 for n >= 3.

    Satisfies Phi_n(x) = x^(phi(n)/2) * psi_n(x + 1/x); the coefficients
    are recovered by a triangular solve against that identity.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if n == 1:
        return IntPoly((-2, 1))  # 2cos(2pi) = 2
    if n == 2:
        return IntPoly((2, 1))  # 2cos(pi) = -2
    d = euler_phi(n) // 2
    residual = list(cyclotomic(n).coeffs)
    coeffs = [0] * (d + 1)
    # row[k] = C(j, k), the coefficient of x^(2k) in (x^2+1)^j
    row = [comb(d, k) for k in range(d + 1)]
    for j in range(d, -1, -1):
        c = residual[d + j]
        coeffs[j] = c
        if c:
            base = d - j
            for k, b in enumerate(row):
                residual[base + 2 * k] -= c * b
        # step down to row j - 1 by Pascal's rule: C(j-1, k) = C(j, k) - C(j-1, k-1)
        row.pop()
        for k in range(1, j):
            row[k] -= row[k - 1]
    if any(residual):
        raise ArithmeticError(f"triangular solve failed for index {n}")
    return IntPoly(coeffs)


# -- the basis itself ----------------------------------------------------------

@total_ordering
class BasisFactor(Record):
    """One irreducible basis polynomial: kind 'f' or 'ftilde' plus its index,
    ordered by (kind, index), so every f_n precedes every f~_n; poly takes
    no part in ==, < or hash."""

    __slots__ = _fields = ("kind", "index", "poly")
    _key = operator.attrgetter("kind", "index")

    def __lt__(self, other) -> bool:
        if other.__class__ is not BasisFactor:
            return NotImplemented
        return self._key(self) < self._key(other)

    @property
    def name(self) -> str:
        return ("f~" if self.kind == "ftilde" else "f") + str(self.index)


def _factor_poly(n: int) -> IntPoly:
    """reverse_negate(psi_n(x - 2)) for n >= 3, straight from Phi_n.

    Lagrange inversion, as in the module docstring, on whichever kernel
    (s = 0 or 1) has fewer nonzero a_k.  Down each diagonal k the term
    a_k (-1)^k C(r - m, m), r = 2d - 2k + s, steps to m + 1 by one small
    multiplier and one exact division by a small integer.
    """
    d = euler_phi(n) // 2
    phi = cyclotomic(n).coeffs
    kernels = [[phi[k] - (phi[k - 1 - s] if k > s else 0) for k in range(d + 1)]
               for s in (0, 1)]
    s = int(sum(map(bool, kernels[1])) < sum(map(bool, kernels[0])))
    g = [0] * (d + 1)
    for k, c in enumerate(kernels[s]):
        if not c:
            continue
        if k % 2:
            c = -c
        r = 2 * (d - k) + s
        g[k] += c
        for m in range(d - k):
            c = c * ((r - 2 * m) * (r - 2 * m - 1)) // ((m + 1) * (r - m))
            g[k + m + 1] += c
    return IntPoly(g)


@lru_cache(maxsize=None)
def basis_f(n: int) -> BasisFactor:
    """Minimal polynomial of -1/(2 + 2*cos(pi/n)); n = 1 gives the unit."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if n == 1:
        return BasisFactor("f", 1, IntPoly.one())
    return BasisFactor("f", n, _factor_poly(2 * n))


@lru_cache(maxsize=None)
def basis_ftilde(n: int) -> BasisFactor:
    """Minimal polynomial of -1/(2 + 2*cos(2*pi/n)) for odd n; n = 1 is the unit."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if n % 2 == 0:
        raise ValueError(f"ftilde index must be odd, got {n}")
    if n == 1:
        return BasisFactor("ftilde", 1, IntPoly.one())
    return BasisFactor("ftilde", n, _factor_poly(n))


def basis(order: int) -> BasisFactor:
    """g_N, the minimal polynomial of -1/(2 + 2*cos(2*pi/N)) for N = order:
    f_{N/2} for even N, f~_N for odd N; N = 1 and 2 give the unit."""
    return basis_ftilde(order) if order % 2 else basis_f(order // 2)


def orders(top: int) -> list[int]:
    """The orders of f_2 .. f_top, then of the odd-index f~_3 .. f~_top."""
    return [*range(4, 2 * top + 1, 2), *range(3, top + 1, 2)]


FactorMultiset = tuple[BasisFactor, ...]

#: The largest n factor_path and factor_cycle accept.  Basis factors have
#: positive coefficients and multiply to I(P_n) or I(C_n), so each
#: coefficient is at most F(n + 3) or L(n): about 4,180 digits here, within
#: what Python converts to a decimal string.
MAX_FACTOR_INDEX = 20_000


def product_of(factors: FactorMultiset) -> IntPoly:
    return prod((f.poly for f in factors), start=IntPoly.one())


def factor_cycle(n: int) -> FactorMultiset:
    """Factor multiset of I(C_n, x): g_N over the orders N > 2 of 2n that do not divide n."""
    if n < 3:
        raise ValueError(f"cycle length must be >= 3, got {echo_number(n)}")
    if n > MAX_FACTOR_INDEX:
        raise ValueError(f"cycle length {echo_number(n)} is above the cap of {MAX_FACTOR_INDEX}")
    return tuple(sorted(basis(N) for N in divisors(2 * n) if n % N and N > 2))


def factor_path(n_vertices: int) -> FactorMultiset:
    """Factor multiset of I(P_n, x): g_N over the orders N > 2 dividing n + 2."""
    if n_vertices < 0:
        raise ValueError(f"path length must be >= 0, got {echo_number(n_vertices)}")
    if n_vertices > MAX_FACTOR_INDEX:
        raise ValueError(f"path length {echo_number(n_vertices)} is above the cap of {MAX_FACTOR_INDEX}")
    return tuple(sorted(basis(N) for N in divisors(n_vertices + 2) if N > 2))


def check_max_index(max_index: int) -> None:
    """Refuse, with a ValueError, a max_index above MAX_FACTOR_INDEX."""
    if max_index > MAX_FACTOR_INDEX:
        raise ValueError(f"max index {echo_number(max_index)} is above the cap of {MAX_FACTOR_INDEX}")


def factor_into_basis(p: IntPoly, max_index: int | None = None) -> FactorMultiset:
    """Factor p over the basis by repeated exact division.

    The candidates are g_N over orders(top), f_2 .. f_top and the odd
    f~_3 .. f~_top, top = max_index or 2*(i_1 + 2), which covers every
    shortlist shape.  For p of degree d, top is cut to 8*d^2, so at most
    12*d^2 candidates are described: phi(N) >= sqrt(N/2), so no g_N of
    larger order fits.  They are tried in descending degree, phi(N)/2 (f,
    even N, first on ties, then by N), each built only once it fits the
    cofactor still undivided; the order cannot change the outcome because
    distinct basis factors are coprime.  Raises FactorizationError
    carrying the remainder when the leftover cofactor is not the constant 1.

    An explicit max_index above MAX_FACTOR_INDEX is refused by
    check_max_index before any candidate is described; the default is not,
    as the degree cut bounds what it describes.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if max_index is None:
        max_index = 2 * (p.coeffs[1] + 2) if p.degree > 0 else 1
    else:
        check_max_index(max_index)
    described = sorted((-(euler_phi(N) // 2), N % 2, N) for N in orders(min(max_index, 8 * p.degree**2)))
    remainder = p
    found: list[BasisFactor] = []
    for neg_degree, _, order in described:
        while remainder.degree >= -neg_degree:
            cand = basis(order)
            quotient = remainder.try_divide(cand.poly)
            if quotient is None:
                break
            found.append(cand)
            remainder = quotient
    if remainder != 1:
        raise FactorizationError(
            f"polynomial is not a product of the candidate basis factors; "
            f"remainder ({remainder})",
            remainder,
        )
    return tuple(sorted(found))
