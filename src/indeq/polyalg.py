"""Exact univariate polynomial arithmetic over the integers.

Polynomials are dense ascending coefficient vectors over Python's
arbitrary-precision integers; the empty vector is the zero polynomial.
Exact scalars are ``fractions.Fraction``.  Long polynomials multiply by
Kronecker substitution, big-integer products of their coefficients
packed into fixed-width slots by ``pack`` and ``unpack``, the one slot
codec, which the evaluator also uses; short ones by the schoolbook
loop.  One rational point num/den is evaluated cleared of denominators,
den^d·p(num/den), by ``homogeneous_value``; root refinement, whose
probes k/2^e share one denominator, scales a copy of p once per root and
runs Horner.
Sturm chains give exact real-root counts over half-open intervals
``(lo, hi]`` with rational or infinite endpoints.  A chain keeps, for
each remainder step, the data of its exact identity
g·s[i+2] = q·s[i+1] − m·s[i] (q the pseudo-quotient, m > 0 the
pseudo-division multiplier, g > 0 the content divided out), so its
values at a rational point follow from those of its last two members by
that recurrence, in O(d) big-integer products instead of Horner's O(d²);
every division in it is exact, so every sign is.  Squarefreeness is
read from a chain's last member, which is gcd(p, p') up to a scalar, and
so is whether every root is real and below a bound; dividing p by that
member gives p's squarefree part.  Root isolation and refinement, used
for diagnostics, return the intervals plain bisection returns, probing
short dyadic points: the isolation brackets each root by Sturm bisection
of (-R, R], R a power-of-two root bound, and reads bisection's leaves off
those brackets; the refinement finds bisection's final grid cell by
quadratic interval refinement, with at most one exact evaluation at a
point of that grid.

Everything here is pure value semantics: polynomials and chains are
immutable and safe to share between threads.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm
from typing import Iterable, Optional, Union

from .graphcore import Record

#: Accepted exact scalar types for evaluation points.
RationalLike = Union[int, Fraction]


#: Products take Kronecker substitution when both factors have at least
#: _KRONECKER_MIN_TERMS coefficients and the slots waste little: per pair
#: of coefficients, a packed product costs about slot**2 / _KRONECKER_PAYS
#: bit operations, schoolbook bits_a * bits_b plus one interpreter step,
#: worth about _PAIR_COST_BITS2 (measured crossovers, CPython 3.11, 2
#: vCPUs).  Kronecker wins from 16-32 balanced terms.  The evaluator,
#: the codec's second user, holds each component's values packed in one
#: integer, so of its products only the fold of the components'
#: polynomials comes here.  A factor with narrow coefficients pays for
#: slots as wide as the other's: packed, I(P_126) times I(P_4000) takes
#: 2.7 times as long as schoolbook.
_KRONECKER_MIN_TERMS = 64
_KRONECKER_PAYS = 8
_PAIR_COST_BITS2 = 1 << 14


def pack(coeffs: tuple[int, ...], width: int) -> int:
    """sum c_i * 256**(width * i): the positive and the negative
    coefficients packed separately into width-byte slots of one integer each."""
    zero = bytes(width)
    pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in coeffs)
    neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def unpack(value: int, width: int, n: int) -> list[int]:
    """The n signed width-byte slots of value, each of which must lie
    strictly between -(256**width)/2 and (256**width)/2."""
    # adding half a slot to every slot leaves each one holding c + half, in
    # [0, 2 * half), so no borrow crosses a slot boundary
    half = bytes(width - 1) + b"\x80"
    data = (value + int.from_bytes(half * n, "little")).to_bytes(width * n, "little")
    offset = 1 << (8 * width - 1)
    return [int.from_bytes(data[i:i + width], "little") - offset for i in range(0, width * n, width)]


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...], width: int) -> list[int]:
    """The coefficients of h = a * b, each strictly between -(256**width)/2
    and (256**width)/2, by two-point Kronecker substitution (Harvey, J.
    Symb. Comput. 44, 2009): h(2**s) and h(-2**s), s = 4 * width bits, are
    two products of integers half as long as those of h(256**width).  Their
    half sum holds h's even coefficients in width-byte slots, and their
    half difference, shifted down by s, its odd ones."""
    s = 4 * width

    def at_plus_minus(c: tuple[int, ...]) -> tuple[int, int]:
        even, odd = pack(c[0::2], width), pack(c[1::2], width) << s
        return even + odd, even - odd

    a_plus, a_minus = at_plus_minus(a)
    b_plus, b_minus = (a_plus, a_minus) if b is a else at_plus_minus(b)
    plus, minus = a_plus * b_plus, a_minus * b_minus
    n = len(a) + len(b) - 1
    out = [0] * n
    out[0::2] = unpack((plus + minus) >> 1, width, (n + 1) // 2)
    out[1::2] = unpack((plus - minus) >> (s + 1), width, n // 2)
    return out


class IntPoly(Record):
    """Dense polynomial over the integers, coefficients ascending by degree."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __repr__(self) -> str:
        return f"IntPoly('{self}')"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if k > 0 and abs(c) != 1:
                term = f"{abs(c)}{term}"
            elif k == 0:
                term = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        return IntPoly(a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other: "IntPoly | int") -> "IntPoly":
        return self + -other

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero()
        if len(a) >= _KRONECKER_MIN_TERMS <= len(b):
            bits_a, bits_b = max(map(int.bit_length, a)), max(map(int.bit_length, b))
            # every product coefficient fits in slot - 1 bits and a sign
            slot = bits_a + bits_b + min(len(a), len(b)).bit_length() + 1
            if slot * slot <= _KRONECKER_PAYS * (bits_a * bits_b + _PAIR_COST_BITS2):
                return IntPoly(_kronecker_product(a, b, (slot + 7) // 8))
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return IntPoly(out)

    __rmul__ = __mul__

    def mul_xpow(self, k: int) -> "IntPoly":
        """Multiply by x**k, for k >= 0."""
        if k <= 0 or not self.coeffs:
            if k < 0:
                raise ValueError(f"cannot multiply by x**{k}: the power is negative")
            return self
        return IntPoly((0,) * k + self.coeffs)

    def try_divide(self, divisor: "IntPoly") -> "IntPoly | None":
        """Exact quotient in Z[x], or None when the division does not come out."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return IntPoly.zero()
        if divisor.degree > self.degree:
            return None
        rem = list(self.coeffs)
        div = divisor.coeffs
        lead = div[-1]
        out = [0] * (len(rem) - len(div) + 1)
        for top in range(len(rem) - 1, len(div) - 2, -1):
            c = rem[top]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                return None
            off = top - (len(div) - 1)
            out[off] = q
            for i, d in enumerate(div):
                rem[off + i] -= q * d
        if any(rem[: len(div) - 1]):
            return None
        return IntPoly(out)

    # -- transforms: shift and reverse_negate state the basis polynomials by
    #    their definition, the tests' route independent of factorbasis;
    #    derivative and primitive_part feed gcds and Sturm chains ---------

    def shift(self, c: int) -> "IntPoly":
        """Return p(x + c) by Horner composition with (x + c)."""
        out: list[int] = []
        for a in reversed(self.coeffs):
            # out := out * (x + c) + a
            nxt = [0] * (len(out) + 1)
            for i, v in enumerate(out):
                nxt[i + 1] += v
                nxt[i] += c * v
            nxt[0] += a
            out = nxt
        return IntPoly(out)

    def reverse_negate(self) -> "IntPoly":
        """With p = sum b_t x^t of degree d, return sum b_t (-x)^(d-t).

        The result's coefficient of x^j is (-1)^j * b_(d-j).  Applying the
        transform twice multiplies by (-1)^d, so it is an involution
        exactly on even-degree polynomials.
        """
        if not self:
            raise ValueError("reverse_negate is undefined for the zero polynomial")
        d = self.degree
        return IntPoly((-1) ** j * self.coeffs[d - j] for j in range(d + 1))

    def derivative(self) -> "IntPoly":
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def primitive_part(self) -> "IntPoly":
        """Divide out the content, the positive gcd of the coefficients;
        keeps the sign of the leading coefficient."""
        g = int_gcd(*self.coeffs)
        if g in (0, 1):
            return self
        return IntPoly(c // g for c in self.coeffs)

    # -- evaluation -----------------------------------------------------

    def eval_rational(self, x: RationalLike) -> Fraction:
        """Exact value at a rational point, integer arithmetic only."""
        den = x.denominator
        return Fraction(self.homogeneous_value(x.numerator, den), den ** max(self.degree, 0))

    def eval_int(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def homogeneous_value(self, num: int, den: int) -> int:
        """den^d * p(num / den), d the degree, by Horner on integers."""
        acc = 0
        dp = 1
        for c in reversed(self.coeffs):
            acc = acc * num + c * dp
            dp *= den
        return acc

    def sign_at(self, x: RationalLike) -> int:
        """Sign of p(x) at a rational point, integer arithmetic only."""
        # den > 0, so the scaling by den^d is sign-safe
        v = self.homogeneous_value(x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def sign_at_infinity(self, positive: bool) -> int:
        if not self:
            return 0
        s = (self.lead > 0) - (self.lead < 0)
        if positive or self.degree % 2 == 0:
            return s
        return -s

    def cauchy_bound(self) -> Fraction:
        """B with all real roots strictly inside (-B, B)."""
        if self.degree < 1:
            return Fraction(1)
        lead = abs(self.lead)
        return 1 + max(Fraction(abs(c), lead) for c in self.coeffs[:-1])


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> tuple[list[int], list[int]]:
    """The elimination of pseudo-division of a by b: (r, leads), where r is
    lb^steps·a minus a multiple of b, of degree below b's, lb is b's
    leading coefficient, and leads[i] is the leading coefficient that the
    step at degree i + deg b removed (0 where no step ran)."""
    db = b.degree
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lb = b.lead
    rb = b.coeffs
    r = list(a.coeffs)
    leads = [0] * (len(r) - db)
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < db or not r:
            return r, leads
        lr = r[-1]
        r = [lb * c for c in r]
        off = dr - db
        for i, d in enumerate(rb):
            r[off + i] -= lr * d
        leads[off] = lr


def _pseudo_divide(a: IntPoly, b: IntPoly) -> tuple[IntPoly, int, int, IntPoly]:
    """Pseudo-division of a by b, normalized for Sturm chains: (q, m, g, r) with

        m·a = q·b − g·r,   m > 0, g > 0, r primitive,

    so r is a negative multiple of the rational remainder of a by b: the
    member that follows a and b in a Sturm chain.  Each elimination step
    multiplies by b's leading coefficient lb, so m = |lb|^steps.
    """
    r, quot = _pseudo_remainder(a, b)
    lb = b.lead
    # each step multiplied the terms found before it by lb, so the terms
    # take lb^0, lb^1, ... from the lowest up, and scale ends at lb^steps
    scale = 1
    for i, c in enumerate(quot):
        if c:
            quot[i] = c * scale
            scale *= lb
    # m·a = q·b − g·r with m = |scale|: lb^steps's sign goes to q, its
    # opposite to r, in the pass that divides out r's content g
    if scale < 0:
        quot = [-c for c in quot]
    g = int_gcd(*r) or 1
    h = -g if scale > 0 else g
    if h != 1:
        r = [c // h for c in r]
    return IntPoly(quot), abs(scale), g, IntPoly(r)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[x] with positive leading coefficient."""
    a = a.primitive_part()
    b = b.primitive_part()
    while b:
        a, b = b, IntPoly(_pseudo_remainder(a, b)[0]).primitive_part()
    return -a if a.lead < 0 else a


def is_squarefree(p: IntPoly) -> bool:
    return bool(p) and SturmChain.of(p).squarefree


# -- Sturm chains and root counting ------------------------------------

#: Endpoint ``None`` means the infinite end of the real line.
Endpoint = Optional[RationalLike]


class SturmChain(Record):
    """Signed remainder sequence of p and p', content-normalized.

    ``steps[i]`` is the tuple (q, m, g, k) of the exact identity

        g·s[i+2] = q·s[i+1] − m·s[i],   m > 0, g > 0,

    that ties the members s[i], s[i+1] and s[i+2]: q the pseudo-quotient
    (of degree deg s[i] − deg s[i+1], usually 1), m the pseudo-division
    multiplier, g the content divided out, and k = deg s[i] − deg s[i+2],
    the degree drop.  At x = num/den the values
    cleared of denominators, H = den^deg · s(x), then follow from those
    of the last two members, bottom up:

        H[i] = (q̂·H[i+1] − g·den^k·H[i+2]) / m,   q̂ = den^deg q · q(x).

    That is O(d) big-integer products per point where Horner on every
    member takes O(d²).  The division is exact, so every value and every
    sign is the exact one.
    """

    __slots__ = _fields = ("chain", "steps")

    @classmethod
    def of(cls, p: IntPoly) -> "SturmChain":
        if not p:
            raise ValueError("Sturm chain of the zero polynomial")
        seq = [p.primitive_part()]
        steps = []
        dp = p.derivative()
        if dp:
            seq.append(dp.primitive_part())
            while seq[-1].degree > 0:
                q, m, g, r = _pseudo_divide(seq[-2], seq[-1])
                if not r:
                    break
                steps.append((q, m, g, seq[-2].degree - r.degree))
                seq.append(r)
        return cls(tuple(seq), tuple(steps))

    @property
    def poly(self) -> IntPoly:
        return self.chain[0]

    @property
    def squarefree(self) -> bool:
        """Whether the polynomial is squarefree: the chain's last member is
        gcd(p, p') up to a scalar, so it is constant exactly then."""
        return self.chain[-1].degree <= 0

    def all_roots_real_below(self, bound: RationalLike) -> bool:
        """True iff the polynomial is squarefree with all its roots real and < bound."""
        return (self.squarefree and self.poly.sign_at(bound) != 0
                and count_real_roots(self, None, bound) == self.poly.degree)

    def values_at(self, x: RationalLike) -> list[int]:
        """den^deg s(x) for each member s, x = num/den with den > 0; each
        has the sign of s(x).

        Horner gives the last two members, for a squarefree polynomial a
        constant and (unless the chain skips a degree) a linear one, and
        the remainder steps give the rest from the bottom of the chain up.
        """
        num, den = x.numerator, x.denominator
        values = [s.homogeneous_value(num, den) for s in self.chain[:-3:-1]]
        for q, m, g, k in reversed(self.steps):
            values.append((q.homogeneous_value(num, den) * values[-1] - g * den**k * values[-2]) // m)
        values.reverse()
        return values

    def variations_at(self, x: Endpoint, positive_infinity: bool = False) -> int:
        """Sign variation count at x (zeros skipped); x=None means an infinite end."""
        if x is None:
            signs = [q.sign_at_infinity(positive_infinity) for q in self.chain]
        else:
            signs = [(v > 0) - (v < 0) for v in self.values_at(x)]
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def squarefree_part(chain: SturmChain) -> IntPoly:
    """p / gcd(p, p'), primitive with p's leading sign, p the chain's polynomial.

    The chain's last member is gcd(p, p') up to sign; it and p are
    primitive, so by Gauss's lemma the division is exact.
    """
    g = chain.chain[-1]
    return chain.poly.try_divide(-g if g.lead < 0 else g)


def count_real_roots(chain: SturmChain, lo: Endpoint, hi: Endpoint) -> int:
    """Number of distinct real roots of the chain's polynomial in (lo, hi].

    With the zero-skipping variation convention a root exactly at ``hi``
    is counted and a root exactly at ``lo`` is not, which is what the
    half-open interval requires.  The chain's polynomial should be
    squarefree; counts are of distinct roots.
    """
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        raise ValueError(f"empty interval ({lo}, {hi}]")
    v_lo = chain.variations_at(lo, positive_infinity=False)
    v_hi = chain.variations_at(hi, positive_infinity=True)
    return v_lo - v_hi


def all_roots_real_below(p: IntPoly, bound: RationalLike) -> bool:
    """True iff p is squarefree with deg(p) distinct real roots, all < bound."""
    return SturmChain.of(p).all_roots_real_below(bound)


def _root_radius(p: IntPoly) -> int:
    """Least power of two r with |a_d| r^d > sum_{i<d} |a_i| r^i.

    Cauchy's polynomial bound: for |z| >= r the leading term outweighs the
    rest, so every root of p lies in the open disc |z| < r.
    """
    majorant = IntPoly([-abs(c) for c in p.coeffs[:-1]] + [abs(p.lead)])
    r = 1
    while majorant.eval_int(r) <= 0:
        r *= 2
    return r


def isolate_real_roots(chain: SturmChain) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (lo, hi], one per distinct real root.

    The chain's polynomial must be squarefree.  Intervals are returned
    sorted; they are the leaves of the bisection of (-B, B], B the Cauchy
    bound, at the first level where a cell holds at most one root.

    Those leaves are found in two passes.  Sturm bisection of (-R, R], R
    a power of two beyond every root, brackets each root in a dyadic cell
    of its own, so the chain is evaluated only at short dyadic points
    (Sagraloff and Mehlhorn, J. Symb. Comput. 73, 2016).  Bisection of
    (-B, B] is then replayed on integers, each cell splitting while it
    holds two or more brackets (``_bisection_leaves``).
    """
    p = chain.poly
    if not chain.squarefree:
        raise ValueError("root isolation requires a squarefree polynomial")
    if p.degree <= 0:
        return []
    return _bisection_leaves(p, _dyadic_brackets(chain, _root_radius(p)))


def _midpoint(a: int, b: int, e: int) -> tuple[int, int, int, int]:
    """(a, c, b, e) with c / 2^e the midpoint of (a / 2^e, b / 2^e], e raised
    by one when a + b is odd; then c is odd, so c / 2^e is in lowest terms."""
    if (a ^ b) & 1:
        a, b, e = 2 * a, 2 * b, e + 1
    return a, (a + b) >> 1, b, e


def _dyadic_brackets(chain: SturmChain, radius: int) -> list[list[int]]:
    """One bracket [a, b, e] per real root, ascending: the root lies in
    (a / 2^e, b / 2^e] and no other root does.

    Sturm bisection of (-radius, radius], first split at 0.  No root lies
    at or beyond +-radius, so the counts at the infinite ends stand for
    the counts there.  Each stack entry carries the variation counts at
    its ends, so a split evaluates the chain at its midpoint only.
    """
    v0 = chain.variations_at(0)
    stack = [(0, v0, radius, chain.variations_at(None, positive_infinity=True), 0),
             (-radius, chain.variations_at(None), 0, v0, 0)]
    out = []
    while stack:
        a, va, b, vb, e = stack.pop()
        if va - vb == 1:
            out.append([a, b, e])
        elif va - vb > 1:
            a, c, b, e = _midpoint(a, b, e)
            vc = chain.variations_at(Fraction(c, 1 << e))
            stack.append((c, vc, b, vb, e))
            stack.append((a, va, c, vc, e))
    return out


def _bisection_leaves(p: IntPoly, brackets: list[list[int]]) -> list[tuple[Fraction, Fraction]]:
    """The leaves of the bisection of (-B, B], B = num / den the Cauchy
    bound, given ``_dyadic_brackets``' brackets, which it may narrow.

    Cell i of level l is (num (2i - 2^l), num (2i + 2 - 2^l)] / (den 2^l),
    and it splits at M = num (2i + 1 - 2^l) / (den 2^l) while it holds two
    or more roots.  A bracket on one side of M puts its root there.  The
    at most one bracket that straddles M is halved on short dyadic points,
    using p's sign above its root, until it falls on one side; p is
    evaluated at M itself only once those points would be no shorter than
    M.  A probe that hits the root leaves the bracket a point, (c, c].
    """
    bound = p.cauchy_bound()
    num, den = bound.numerator, bound.denominator

    def above_m(j: int, m_num: int, m_den: int) -> bool:
        """Whether the root of brackets[j] lies above M = m_num / m_den."""
        bracket = brackets[j]
        # above a simple root p has the sign it has at +infinity, flipped
        # once for every root further up
        above = (1 if p.lead > 0 else -1) * (-1) ** (len(brackets) - 1 - j)
        while True:
            a, b, e = bracket
            if b * m_den <= m_num << e:
                return False
            if a * m_den >= m_num << e:
                return True
            a, c, b, e = _midpoint(a, b, e)
            if max(c.bit_length(), e + 1) >= max(m_num.bit_length(), m_den.bit_length()):
                # the root is above M exactly when p has there the sign below it
                return p.sign_at(Fraction(m_num, m_den)) == -above
            v = p.homogeneous_value(c, 1 << e)
            bracket[:] = (c, c, e) if v == 0 else (a, c, e) if (v > 0) == (above > 0) else (c, b, e)

    out = []
    stack = [(0, 0, 0, len(brackets))]  # cell i of level l holds the roots of brackets[lo:hi]
    while stack:
        i, l, lo, hi = stack.pop()
        if hi - lo == 1:
            out.append((Fraction(num * (2 * i - (1 << l)), den << l),
                        Fraction(num * (2 * i + 2 - (1 << l)), den << l)))
        elif hi - lo > 1:
            m_num, m_den = num * (2 * i + 1 - (1 << l)), den << l
            # the first root above M
            split = bisect.bisect_left(range(hi), True, lo, hi, key=lambda j: above_m(j, m_num, m_den))
            stack.append((2 * i + 1, l + 1, split, hi))
            stack.append((2 * i, l + 1, lo, split))
    return out


def refine_root(p: IntPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval (lo, hi] of p below the given width.

    The result is the interval bisection returns: the cell of its final
    level that holds the root, or (x, x) when the root is a point x of
    that level's grid.  Exact signs at hi and just right of lo, stepping
    inward first when lo is a root itself, give the sign of p above the
    root; quadratic interval refinement on short dyadic points then finds
    the cell, with at most one more exact evaluation, at a point of that
    grid.  Raises ValueError when lo >= hi, or when p has the same sign
    just right of lo as at hi: (lo, hi] isolates no root.
    """
    if width <= 0:
        raise ValueError(f"refinement width must be positive, not {width}")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"empty interval ({lo}, {hi}]")
    above = p.sign_at(hi)
    if above == 0:
        return hi, hi
    below = p.sign_at(lo)
    if below == 0:
        # lo is a different root (excluded by the half-open convention); just
        # right of it p has the sign of its first derivative nonzero at lo
        q = p.derivative()
        while not (below := q.sign_at(lo)):
            q = q.derivative()
        if below != above:
            while True:  # step inward until that sign shows up
                mid = (lo + hi) / 2
                s_mid = p.sign_at(mid)
                if s_mid == 0:
                    return mid, mid
                if s_mid == below:
                    lo = mid
                    break
                hi = mid
    if below == above:
        raise ValueError(f"({lo}, {hi}] is not an isolating interval")
    return _refine_isolated(p, lo, hi, width, above)


def _refine_isolated(p: IntPoly, lo: Fraction, hi: Fraction, width: Fraction,
                     above: int) -> tuple[Fraction, Fraction]:
    """``refine_root`` for an interval (lo, hi] that holds exactly one root r
    of p, a simple one, where lo is no root and p has the sign ``above`` on
    (r, hi) and its opposite on (lo, r).  No exact value at lo or hi is
    needed.

    Quadratic interval refinement (J. Abbott, ACM Commun. Comput. Algebra
    48, 2014) probes dyadic points k / 2^e strictly inside (lo, hi), e the
    least with 2^-e at most 1/16 of bisection's final grid spacing, so the
    probes are far shorter integers than that grid's points (M. Sagraloff
    and K. Mehlhorn, J. Symb. Comput. 73, 2016).  Its final bracket is
    narrower than a grid cell, so it meets at most one grid point, and only
    then is p evaluated exactly, once, at that point.
    """
    # bisection stops at the least level j with (hi - lo) / 2^j <= width;
    # that level's grid is x_i = (num0 + step * i) / den, i = 0 .. 2^j
    den = lcm(lo.denominator, hi.denominator)
    num0 = lo.numerator * (den // lo.denominator)
    step = hi.numerator * (den // hi.denominator) - num0
    # 2^j >= (hi - lo) / width = step * width.denominator / (den * width.numerator)
    j = ((step * width.denominator - 1) // (den * width.numerator)).bit_length()
    num0 <<= j
    den <<= j
    e = ((16 * den - 1) // step).bit_length()  # least e with 2^e * step >= 16 * den
    # every probe shares the denominator 2^e: scaled.eval_int(k) = 2^(e d) p(k / 2^e)
    d = p.degree
    scaled = IntPoly(c << e * (d - i) for i, c in enumerate(p.coeffs))

    def grid_index(k: int) -> tuple[int, int]:
        """Quotient and remainder of (k / 2^e - lo) by the grid spacing."""
        return divmod(k * den - (num0 << e), step << e)

    def cell(i: int) -> tuple[Fraction, Fraction]:
        return Fraction(num0 + step * i, den), Fraction(num0 + step * (i + 1), den)

    # the bracket (a, b) of probe indices starts at lo and hi themselves,
    # a = kmin - 1 and b = kmax + 1 standing for them; its first probes are
    # the dyadic points nearest hi and lo, which give the secant its values
    kmin = (lo.numerator << e) // lo.denominator + 1
    kmax = -((-hi.numerator << e) // hi.denominator) - 1
    a, fa, b, fb = kmin - 1, 0, kmax + 1, 0
    up = above > 0
    n = 4
    while b - a > 1:
        if not fb:
            x0 = x1 = b - 1
        elif not fa:
            x0 = x1 = a + 1
        else:
            # probe the window of w indices around the secant point
            w = max(1, (b - a) // n)
            guess = a + (b - a) * fa // (fa - fb)
            x0 = min(max(a, guess - w // 2), b - w)
            x1 = x0 + w
        for k in (x0, x1):
            if a < k < b:
                f = scaled.eval_int(k)
                if f == 0:  # a probe hit the root: read its cell directly
                    i, rem = grid_index(k)
                    if rem:
                        return cell(i)
                    x = Fraction(k, 1 << e)
                    return x, x
                if (f > 0) == up:
                    b, fb = k, f
                    break
                a, fa = k, f
        n = n * n if x0 <= a and b <= x1 else max(4, isqrt(n))
    # r lies in (A, B), A = lo or a / 2^e and B = b / 2^e, or in (A, hi] when
    # b stands for hi; the grid point after A's cell is the only one that can
    # lie in (A, B], and hi always does when b stands for it
    i = 0 if a < kmin else grid_index(a)[0]
    g = num0 + step * (i + 1)
    if b > kmax or g << e < b * den:
        x = Fraction(g, den)
        s = p.sign_at(x)
        if s == 0:
            return x, x
        if s != above:
            i += 1
    return cell(i)


def real_roots_approx(chain: SturmChain) -> list[float]:
    """Float approximations of the distinct real roots of the chain's
    polynomial, which must be squarefree, each the midpoint of an interval
    no wider than 10^-12 (diagnostics only)."""
    width = Fraction(1, 10**12)
    p = chain.poly
    intervals = isolate_real_roots(chain)
    # above a simple root p has the sign it has at +infinity, flipped once
    # for every root further up
    above = (1 if p.lead > 0 else -1) * (-1) ** (len(intervals) - 1)
    roots = []
    a = b = None
    for lo, hi in intervals:
        if a == b == lo:
            # the root below sits at lo, and bisection steps in from it first
            a, b = refine_root(p, lo, hi, width)
        else:
            a, b = _refine_isolated(p, lo, hi, width, above)
        roots.append(float((a + b) / 2))
        above = -above
    return roots
