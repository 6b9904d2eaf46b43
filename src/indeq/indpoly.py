"""Independence polynomials: exact evaluator plus a brute-force counter.

The evaluator is one recursion over vertex masks of the input's fixed
adjacency rows.  A mask splits into connected components, whose
polynomials multiply; one sweep finds each component with its in-mask
degrees, and the call that found it evaluates it.  A component with
in-mask degrees at most 2 is a path or a cycle (its degree sum tells
which) and takes its closed form, i_k(P_n) = C(n-k+1, k) and
i_k(C_n) = n/(n-k) * C(n-k, k), built by the exact ratio of consecutive
coefficients; any other component pivots on the lowest vertex v of
largest in-mask degree:

    I(G, x) = I(G - v, x) + x * I(G - N[v], x)

Results are memoized by mask within one call; on ladders and grids,
where the pivots sweep across the graph, that turns the exponential
pivot into a dynamic program over the pathwidth frontier.  The
brute-force counter, a separate memoized deletion recursion, is the
module's independent ground truth.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .graphcore import Graph, mask_components
from .polyalg import IntPoly

_ONE = IntPoly.one()

#: The most vertex masks one evaluation memoizes; a 5 x 10 grid takes
#: about 2,900, and a 10 x 10 grid is refused.
MAX_EVAL_MASKS = 1 << 18


# Each closed form is built from i_0 = 1 by the ratio of consecutive
# coefficients: one multiply by a small integer and one exact division per
# coefficient, where a binomial per coefficient costs a product of k terms.

@lru_cache()
def path_polynomial(n: int) -> IntPoly:
    """I(P_n, x), with i_k = C(n-k+1, k); P_0 is the empty graph.

    i_k = i_(k-1) * (n-2k+3)(n-2k+2) / (k * (n-k+2)).
    """
    if n < 0:
        raise ValueError(f"path length must be >= 0, got {n}")
    coeffs = [1]
    for k in range(1, (n + 3) // 2):
        coeffs.append(coeffs[-1] * ((n - 2 * k + 3) * (n - 2 * k + 2)) // (k * (n - k + 2)))
    return IntPoly(coeffs)


@lru_cache()
def cycle_polynomial(n: int) -> IntPoly:
    """I(C_n, x) for n >= 3: i_k = n/(n-k) * C(n-k, k).

    i_(k+1) = i_k * (n-2k)(n-2k-1) / ((k+1) * (n-k-1)).
    """
    if n < 3:
        raise ValueError(f"cycle length must be >= 3, got {n}")
    coeffs = [1]
    for k in range(n // 2):
        coeffs.append(coeffs[-1] * ((n - 2 * k) * (n - 2 * k - 1)) // ((k + 1) * (n - k - 1)))
    return IntPoly(coeffs)


def independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G, x); coefficient k counts the independent sets of size k.

    Raises ValueError when the pivot recursion outgrows Python's recursion
    limit, as it does on a 2 x 1000 ladder, or memoizes more than
    MAX_EVAL_MASKS masks, as it would on a 10 x 10 grid.
    """
    adj = g.adj
    memo = {0: _ONE}
    too_many = (f"graph on {g.n} vertices needs more than {MAX_EVAL_MASKS} "
                "memoized masks in the pivot recursion")

    def poly(mask: int) -> IntPoly:
        out = memo.get(mask)
        if out is not None:
            return out
        if len(memo) > MAX_EVAL_MASKS:
            raise ValueError(too_many)
        out = None
        for comp, degree_sum, top, pivot in mask_components(adj, mask):
            part = memo.get(comp)
            if part is None:
                if len(memo) > MAX_EVAL_MASKS:
                    raise ValueError(too_many)
                n = comp.bit_count()
                if top <= 2:
                    part = cycle_polynomial(n) if degree_sum == 2 * n else path_polynomial(n)
                else:
                    part = poly(comp ^ 1 << pivot) + poly(comp & ~(adj[pivot] | 1 << pivot)).mul_xpow(1)
                memo[comp] = part
            out = part if out is None else out * part
        memo[mask] = out
        return out

    try:
        return poly((1 << g.n) - 1)
    except RecursionError:
        raise ValueError(f"graph on {g.n} vertices is too deep for the pivot recursion") from None


# -- brute force ------------------------------------------------------------

_BRUTE_FORCE_MAX = 40


def bruteforce_counts(g: Graph) -> tuple[int, ...]:
    """All independent-set counts by size."""
    return bruteforce_counter(g)((1 << g.n) - 1)


def bruteforce_counter(g: Graph) -> Callable[[int], tuple[int, ...]]:
    """The independent-set counts by size of g's subgraph on a free-vertex
    mask, as a function of the mask: a deletion recursion that skips or
    takes the lowest free vertex, memoized across calls."""
    if g.n > _BRUTE_FORCE_MAX:
        raise ValueError(
            f"brute-force counting is capped at {_BRUTE_FORCE_MAX} vertices, got {g.n}"
        )
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def counts(free: int) -> tuple[int, ...]:
        got = memo.get(free)
        if got is not None:
            return got
        v = (free & -free).bit_length() - 1
        skip = counts(free & (free - 1))
        take = counts(free & ~closed[v])
        out = list(skip) + [0] * max(0, len(take) + 1 - len(skip))
        for k, c in enumerate(take):
            out[k + 1] += c
        result = tuple(out)
        memo[free] = result
        return result

    return counts
