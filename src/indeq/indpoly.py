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

Results are memoized by mask within one call.  One degree pass marks the
branch vertices, of degree 3 or more, and the run edges v-(v + 1) between
vertices of degree at most 2, along which a sweep takes a whole stretch
in one step.  A top-level component with b <= BRANCH_MAX branch vertices
pivots, in at most 2^(b+1) - 1 sweeps since every pivot is one.  One with
more, such as a grid, tries the frontier route first: a greedy vertex
order that keeps the frontier (the placed vertices with an unplaced
neighbour) at most FRONTIER_WIDTH wide, then a transfer-matrix dynamic
program along it (Calkin and Wilf, SIAM J. Discrete Math. 11, 1998),
linear in the vertex count at fixed width.  A component whose order grows
too wide, or whose tables pass MAX_FRONTIER_WORK, pivots, capped by
MAX_EVAL_MASKS.  The brute-force counter, a separate memoized deletion
recursion, is the module's independent ground truth.

Both routes hold a polynomial of a top-level component C packed into one
integer, a slot of |C| // 8 + 1 bytes per coefficient (Kronecker
substitution): every value either route makes is I(H) for an induced
subgraph H of C, and i_k(H) <= C(|C|, k) < 2^|C|, so no slot overflows
and no coefficient is negative.  A product of packed polynomials is one
integer product, a sum one integer sum, and x times one a shift by a
slot.  Each component is unpacked to an IntPoly once, at the top.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .graphcore import Graph, mask_components
from .polyalg import IntPoly

#: The most vertex masks one evaluation memoizes.  Grids up to 12 x 12
#: take the frontier route; a 13 x 13 grid, too wide for it, is refused.
MAX_EVAL_MASKS = 1 << 18
#: The most branch vertices a top-level component may have and pivot at
#: once; no catalogue shape has more than 4, whatever its arm lengths.
BRANCH_MAX = 4
#: The widest frontier the frontier route's order may reach.  An n-row
#: grid or ladder takes n, and a table holds at most 2^12 entries.
FRONTIER_WIDTH = 12
#: A cap, in bits, on the frontier route's work: a component whose order
#: lets a table hold more than MAX_FRONTIER_WORK / n bits, n its vertex
#: count, goes back to the recursion, so the route's n tables stay under
#: the cap together.  A 2 x 1600 ladder and a 12 x 27 grid are inside it.
MAX_FRONTIER_WORK = 1 << 37


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


@lru_cache()
def _closed_form(n: int, cycle: bool, slot: int) -> IntPoly | int:
    """I(C_n, x) or I(P_n, x) packed, or the IntPoly itself when slot is 0."""
    p = cycle_polynomial(n) if cycle else path_polynomial(n)
    if not slot:
        return p
    return int.from_bytes(b"".join(c.to_bytes(slot, "little") for c in p.coeffs), "little")


def _unpacked(packed: int, slot: int) -> IntPoly:
    """The IntPoly whose coefficients fill the slot-byte slots of packed."""
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    return IntPoly(int.from_bytes(data[k:k + slot], "little") for k in range(0, len(data), slot))


# a degree pass's codes as binary digits: code 1 marks a vertex of degree
# at most 2, and code 2 one that is also adjacent to the next vertex
_LOW, _RUN = bytes.maketrans(b"\0\1\2", b"011"), bytes.maketrans(b"\0\1\2", b"001")


def independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G, x); coefficient k counts the independent sets of size k.

    Raises ValueError when the pivot recursion, which every component the
    frontier route does not answer goes back to, outgrows Python's
    recursion limit or memoizes more than MAX_EVAL_MASKS masks, as it does
    on a 13 x 13 grid.
    """
    adj = g.adj
    memo: dict[int, IntPoly | int] = {}
    codes = bytearray(g.n)
    for v, row in enumerate(adj):
        if row.bit_count() <= 2:
            codes[v] = 1 + (row >> v + 1 & 1)
    codes.reverse()  # the highest vertex is the first digit
    low = int(b"0" + codes.translate(_LOW), 2)
    branch, runs = (1 << g.n) - 1 ^ low, int(b"0" + codes.translate(_RUN), 2) & low >> 1
    too_many = (f"graph on {g.n} vertices needs more than {MAX_EVAL_MASKS} "
                "memoized masks in the pivot recursion")

    def poly(mask: int, slot: int = 0) -> IntPoly | int:
        """I(G[mask], x) packed into slot-byte slots.  At the top level,
        slot 0, it is an IntPoly, and each component that is not a path
        or a cycle is packed in slots of its own and unpacked once."""
        out = memo.get(mask)
        if out is not None:
            return out
        if not mask:  # the empty graph is P_0
            return _closed_form(0, False, slot)
        if len(memo) > MAX_EVAL_MASKS:
            raise ValueError(too_many)
        out = None
        for comp, degree_sum, top, pivot in mask_components(adj, mask, runs):
            part = memo.get(comp)
            if part is None:
                if len(memo) > MAX_EVAL_MASKS:
                    raise ValueError(too_many)
                n = comp.bit_count()
                if top <= 2:
                    part = _closed_form(n, degree_sum == 2 * n, slot)
                else:
                    width = slot or n // 8 + 1
                    part = (_frontier_polynomial(adj, comp, width)
                            if not slot and (comp & branch).bit_count() > BRANCH_MAX else None)
                    if part is None:
                        part = poly(comp ^ 1 << pivot, width) + (
                            poly(comp & ~(adj[pivot] | 1 << pivot), width) << 8 * width)
                    if not slot:
                        part = _unpacked(part, width)
                memo[comp] = part
            out = part if out is None else out * part
        memo[mask] = out
        return out

    try:
        return poly((1 << g.n) - 1)
    except RecursionError:
        raise ValueError(f"graph on {g.n} vertices is too deep for the pivot recursion") from None
    finally:
        # poly refers to itself through its closure cell; breaking that cycle
        # frees the memo and adj when the call returns, not at the next
        # cyclic collection
        del poly


# -- frontier route ---------------------------------------------------------

def _frontier_polynomial(adj: list[int], comp: int, slot: int) -> int | None:
    """I(G, x) of the connected component comp, packed, by a dynamic
    program along a greedy vertex order, or None when the order's frontier
    grows too wide or its tables could pass MAX_FRONTIER_WORK.

    The table maps each independent set of frontier vertices to the
    packed polynomial of the independent sets of the placed vertices that
    meet the frontier in it.  Placing v adds each entry to the table once
    with v left out and, shifted by one slot, once more with v taken, where
    no neighbour of v is in its set."""
    n = comp.bit_count()
    steps = _frontier_order(adj, comp, MAX_FRONTIER_WORK // (n * 8 * slot))
    if steps is None:
        return None
    shift = 8 * slot
    table = {0: 1}
    for v, front in steps:
        row, bit = adj[v], 1 << v
        out = {}
        get = out.get
        for chosen, packed in table.items():
            key = chosen & front
            out[key] = get(key, 0) + packed
            if not chosen & row:
                key = (chosen | bit) & front
                out[key] = get(key, 0) + (packed << shift)
        table = out
    (packed,) = table.values()
    return packed


def _frontier_order(adj: list[int], comp: int, most_slots: int) -> list[tuple[int, int]] | None:
    """A vertex order of the connected component comp as (vertex, frontier
    after it) steps, or None as soon as a frontier passes FRONTIER_WIDTH
    vertices or a table along the order could pass most_slots slots: after
    j steps and with frontier F, a table holds at most 2^|F| entries of at
    most j + 1 slots.

    The frontier is the placed vertices that keep an unplaced neighbour.
    The order starts at the lowest vertex of least degree, then places the
    unplaced neighbour of the placed vertices that leaves the smallest
    frontier; ties go to the one with more frontier neighbours, then to the
    lowest."""
    start, low, rest = 0, None, comp
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        d = (adj[v] & comp).bit_count()
        if low is None or d < low:
            start, low = v, d
    rest, front, reach, steps = comp, 0, 1 << start, []
    while rest:
        best, candidates = None, reach
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            others = rest ^ 1 << v
            after = front | 1 << v if adj[v] & others else front
            near = leaving = adj[v] & front
            while leaving:
                u = (leaving & -leaving).bit_length() - 1
                leaving &= leaving - 1
                if not adj[u] & others:
                    after ^= 1 << u
            key = (after.bit_count(), -near.bit_count(), v)
            if best is None or key < best:
                best = key
                place, front_after = v, after
        width = best[0]
        if width > FRONTIER_WIDTH or (len(steps) + 2) << width > most_slots:
            return None
        steps.append((place, front_after))
        rest ^= 1 << place
        front = front_after
        reach = (reach | adj[place]) & rest
    return steps


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
