"""Reference values that the benchmark checks the library's outputs against.

Nothing here imports indeq.  Each value comes from a method the library
does not use: a frontier dynamic programme for independence polynomials,
2x2 transfer matrices for paths and cycles, and the cosine closed forms
for their roots.
"""

from __future__ import annotations

import math
from fractions import Fraction

# values are compared modulo this prime, which keeps path values for
# million-vertex class members cheap to compute
MOD = (1 << 61) - 1


def indep_counts(n: int, adj) -> tuple[int, ...]:
    """Independent-set counts by size, by a frontier DP along the vertex order.

    `adj` holds one neighbour bitmask per vertex.  The state is the set of
    chosen vertices that still have an unprocessed neighbour, so the cost
    is exponential only in the width of the vertex order.
    """
    retire_at = [0] * n
    for v in range(n):
        retire_at[max(v, adj[v].bit_length() - 1)] |= 1 << v
    states: dict[int, list[int]] = {0: [1]}
    for v in range(n):
        nxt: dict[int, list[int]] = {}
        for chosen, counts in states.items():
            _merge(nxt, chosen & ~retire_at[v], counts, 0)
            if not adj[v] & chosen:
                _merge(nxt, (chosen | 1 << v) & ~retire_at[v], counts, 1)
        states = nxt
    return tuple(states[0])


def _merge(table: dict[int, list[int]], key: int, counts: list[int], shift: int) -> None:
    out = table.setdefault(key, [])
    need = len(counts) + shift
    if len(out) < need:
        out.extend([0] * (need - len(out)))
    for k, c in enumerate(counts):
        out[k + shift] += c


def eval_mod(coeffs, x: int) -> int:
    """Value of the polynomial with ascending coefficients at x, modulo MOD."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + int(c)) % MOD
    return acc


def _matmul(a, b):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % MOD, (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % MOD),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % MOD, (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % MOD),
    )


def _transfer_power(x: int, e: int):
    """T^e for T = [[1, x], [1, 0]]: row = state of a vertex, column = state of
    the next one (free, chosen), weighted by x for a chosen vertex."""
    result = ((1, 0), (0, 1))
    base = ((1, x % MOD), (1, 0))
    while e:
        if e & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        e >>= 1
    return result


def path_value(n: int, x: int) -> int:
    """I(P_n, x) modulo MOD; P_0 is the empty graph."""
    if n == 0:
        return 1
    t = _transfer_power(x, n - 1)
    return (t[0][0] + t[0][1] + x * (t[1][0] + t[1][1])) % MOD


def cycle_value(n: int, x: int) -> int:
    """I(C_n, x) modulo MOD, as the trace of T^n (n >= 3)."""
    t = _transfer_power(x, n)
    return (t[0][0] + t[1][1]) % MOD


def d_value(n: int, x: int) -> int:
    """I(D_n, x) modulo MOD: a triangle with a path of n - 3 vertices on one
    corner.  Deleting that corner leaves an edge plus P_{n-3}; deleting its
    closed neighbourhood leaves P_{n-4}."""
    return ((1 + 2 * x) * path_value(n - 3, x) + x * path_value(n - 4, x)) % MOD


def path_roots(n: int) -> list[float]:
    """Roots of I(P_n, x), ascending: -1 / (4 cos^2(j pi / (n + 2)))."""
    return sorted(-1 / (4 * math.cos(j * math.pi / (n + 2)) ** 2) for j in range(1, (n + 1) // 2 + 1))


def cycle_roots(n: int) -> list[float]:
    """Roots of I(C_n, x), ascending: -1 / (4 cos^2((2j - 1) pi / (2n)))."""
    return sorted(-1 / (4 * math.cos((2 * j - 1) * math.pi / (2 * n)) ** 2) for j in range(1, n // 2 + 1))


def brackets_sign_change(coeffs, root: float, tol: float = 1e-9) -> bool:
    """True if the exact polynomial changes sign within tol (relative) of root."""
    r = Fraction(root)
    h = Fraction(tol) * max(1, abs(r))
    lo, hi = _exact_value(coeffs, r - h), _exact_value(coeffs, r + h)
    return lo == 0 or hi == 0 or (lo < 0) != (hi < 0)


def _exact_value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True

