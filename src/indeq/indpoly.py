"""Independence polynomials: exact evaluator plus a brute-force counter.

The evaluator reads each vertex's degree once, then splits the graph into
connected components, whose polynomials multiply, in one sweep over the
input's fixed adjacency rows.  A component without branch vertices, of
degree 3 or more, is a path if it has a vertex of degree at most 1 and a
cycle if not, and takes its closed form, i_k(P_n) = C(n-k+1, k) and
i_k(C_n) = n/(n-k) * C(n-k, k), built by the exact ratio of consecutive
coefficients.  Any other component C has branch vertices B and runs, the
components of C - B: induced paths whose ends alone have neighbours in B,
their one or two attachments.  So

    I(C, x) = sum over independent S in B of x^|S| prod_r I(P_(m_r - a_r(S)), x)

where run r has m_r vertices and a_r(S) of them have a neighbour in S.
One dynamic program evaluates it along a greedy order of B (a path
decomposition DP, Arnborg and Proskurowski, Discrete Appl. Math. 23, 1989;
transfer matrices after Calkin and Wilf, SIAM J. Discrete Math. 11, 1998).
Its table is keyed by the unplaced vertices that the chosen ones block, so
partial sets with one neighbourhood share an entry (Bui-Xuan, Telle and
Vatshelle, Theor. Comput. Sci. 511, 2013): K_(124,124) keeps 3 entries
where its frontier has 2^62 independent sets.  Placing v keeps each entry
with v left out and, where v is unblocked, adds it blocked by v's row and
shifted by one slot; once a run's attachments are all placed, each entry
is multiplied by the closed form of what its blocked ends leave of the
run.  A dominant run, of more than 64 vertices and more than half of its
component, enters at the order's last vertex instead, its ends carried
in the keys until then, so no earlier step handles values of its size.
Nothing recurses or memoizes, and one cap, MAX_EVAL_WORK, bounds
the program's work before each step.  On a 2-vCPU Intel Xeon host under
Python 3.11.7 a 13 x 13 grid takes 0.07 s in-process and a 2 x 1650 ladder
2.0 s, while a 14 x 70 grid and a 2 x 5000 ladder are refused in 0.01 and
0.1 s.
The brute-force counter, a separate memoized deletion recursion, is the
module's independent ground truth.

Values are packed into one integer by polyalg's codec, a slot of
|C| // 8 + 1 bytes per coefficient (Kronecker substitution): each counts,
by size, some of the independent sets of C, and i_k(C) <= C(|C|, k) <
2^|C| <= 2^(8 * slot - 1), so each fits a slot's signed range.  A sum of
packed polynomials is one integer sum, a product one integer product, and
x times one a shift by a slot; each component is unpacked to an IntPoly
once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .graphcore import Graph, mask_components
from .polyalg import IntPoly, pack, unpack

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
def _packed_path(m: int, slot: int) -> int:
    """I(P_m, x) packed in slot-byte slots."""
    return pack(path_polynomial(m).coeffs, slot)


#: The most work one component's dynamic program may take, in bytes of
#: packed values handled.  It is checked before each step against the work
#: done plus the table carried through every step left, so a refusal comes
#: before the work or memory that would pass it.
MAX_EVAL_WORK = 1 << 34
_ENTRY_WORK = 2048  # per entry and step: what a dictionary update costs beside a value's bytes

# a degree pass's codes as binary digits: a vertex of degree 2 takes code
# 1 and one of degree at most 1 code 3, each one more when it is adjacent
# to the next vertex
_CODE = (3, 3, 1)
_LOW, _RUN, _END = (bytes.maketrans(b"\0\1\2\3\4", digits) for digits in (b"01111", b"00101", b"00011"))


def independence_polynomial(g: Graph) -> IntPoly:
    """Exact I(G, x); coefficient k counts the independent sets of size k.

    Raises ValueError past MAX_EVAL_WORK, as on a 14 x 70 grid."""
    adj = g.adj
    codes = bytearray(g.n)
    for v, row in enumerate(adj):
        d = row.bit_count()
        if d <= 2:
            codes[v] = _CODE[d] + (row >> v + 1 & 1)
    codes.reverse()  # the highest vertex is the first digit
    low, ends = int(b"0" + codes.translate(_LOW), 2), int(b"0" + codes.translate(_END), 2)
    branch, runs = (1 << g.n) - 1 ^ low, int(b"0" + codes.translate(_RUN), 2) & low >> 1
    out = None
    for comp in mask_components(adj, (1 << g.n) - 1, runs):
        if comp & branch:
            slot = comp.bit_count() // 8 + 1
            packed = _branch_polynomial(adj, comp, comp & branch, runs, slot)
            # as many slots as the value fills; |C| + 1 would unpack empty ones
            part = IntPoly(unpack(packed, slot, -(-packed.bit_length() // (8 * slot))))
        else:  # a path, which has an end, or a cycle
            part = (path_polynomial if comp & ends else cycle_polynomial)(comp.bit_count())
        out = part if out is None else out * part
    return path_polynomial(0) if out is None else out


def _branch_polynomial(adj: list[int], comp: int, branch: int, runs: int, slot: int) -> int:
    """I(C, x) of the connected component comp, packed, by a dynamic program
    over its branch vertices; raises ValueError past MAX_EVAL_WORK."""
    skeleton, touch, rest = {}, 0, branch
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        touch |= adj[v]
        skeleton[v] = adj[v] & branch
    # each run, an induced path, touches branch at its ends alone, at one or
    # two vertices, its attachments, which the skeleton joins
    attached, rest = [], comp ^ branch
    for run in mask_components(adj, rest, runs):
        ends = run & touch
        att = (adj[(ends & -ends).bit_length() - 1] | adj[ends.bit_length() - 1]) & branch
        a, b = (att & -att).bit_length() - 1, att.bit_length() - 1
        skeleton[a] |= att ^ 1 << a
        skeleton[b] |= att ^ 1 << b
        attached.append((a, b, run, ends, run.bit_count()))
    # one or two vertices are as narrow in any order as in the greedy one
    order = list(skeleton) if len(skeleton) < 3 else _frontier_order(skeleton, branch)
    step_of = {v: i for i, v in enumerate(order)}
    completes, size = {}, comp.bit_count()  # v: the runs entering at v, a dominant one last
    for a, b, run, ends, m in attached:
        v = order[-1] if m > 64 and 2 * m > size else a if step_of[a] > step_of[b] else b
        completes.setdefault(v, []).append((run, ends, m))
    # a step's work per entry, in bytes: the slots its values span (one more
    # than the vertices placed or multiplied in so far) plus _ENTRY_WORK, and
    # for runs completed, each value's bytes once per 8 bytes of their forms
    costs, slots = [], 1
    for v in order:
        slots += 1
        cost = slots * slot + _ENTRY_WORK
        done = completes.get(v)
        if done:
            terms = 0
            for _, _, m in done:
                terms += m + 3 >> 1
                slots += m
            cost += (cost - _ENTRY_WORK) * terms * slot // 8 + slots * slot
        costs.append(cost)
    ahead, spent = sum(costs), 0
    shift = 8 * slot
    table = {0: 1}
    left = comp
    for v, cost in zip(order, costs):
        if spent + len(table) * ahead > MAX_EVAL_WORK:
            raise ValueError(f"a component on {comp.bit_count()} vertices needs more than "
                             f"MAX_EVAL_WORK = {MAX_EVAL_WORK} bytes of evaluator work")
        spent += len(table) * cost
        ahead -= cost
        bit = 1 << v
        left ^= bit
        row = adj[v] & left
        out = {}
        get = out.get
        for blocked, packed in table.items():
            key = blocked & left
            out[key] = get(key, 0) + packed
            if not blocked & bit:
                key |= row
                out[key] = get(key, 0) + (packed << shift)
        table = out
        done = completes.get(v)
        if done:
            # each run done here leaves the keys, entering as I(P_m) of its m unblocked vertices
            ends = 0
            for run, run_ends, _ in done:
                left ^= run
                ends |= run_ends
            out, factors = {}, {}
            get = out.get
            for blocked, packed in table.items():
                seen = blocked & ends
                f = factors.get(seen)
                if f is None:
                    f = 1
                    for run, _, m in done:
                        f *= _packed_path(m - (seen & run).bit_count(), slot)
                    factors[seen] = f
                key = blocked & left
                out[key] = get(key, 0) + packed * f
            table = out
    return table[0]  # every vertex is placed, so no key is left


def _frontier_order(adj: dict[int, int], comp: int) -> list[int]:
    """A vertex order of the connected graph on comp whose rows are adj.

    The frontier is the placed vertices that keep an unplaced neighbour.
    The order starts at the lowest vertex of least degree, then places the
    unplaced neighbour of the placed vertices that leaves the smallest
    frontier, ties going to more frontier neighbours, then to the lowest."""
    start = min(adj, key=lambda v: adj[v].bit_count())  # adj lists vertices in ascending order
    rest, front, reach, order = comp, 0, 1 << start, []
    closing = {}  # w: the frontier vertices whose one unplaced neighbour is w
    get = closing.get
    while rest:
        best, candidates = None, reach
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            v = bit.bit_length() - 1
            row = adj[v]
            after = front ^ get(v, 0)
            if row & rest:
                after |= bit
            key = (after.bit_count() << 32) - (row & front).bit_count()
            if best is None or key < best:
                best, place, front_after = key, v, after
        order.append(place)
        bit = 1 << place
        rest ^= bit
        front = front_after
        row = adj[place]
        reach = (reach | row) & rest
        near = (row | bit) & front
        while near:
            bit = near & -near
            near ^= bit
            free = adj[bit.bit_length() - 1] & rest
            if not free & free - 1:
                w = free.bit_length() - 1
                closing[w] = get(w, 0) | bit
    return order


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
