"""Independent ground truth: exhaustive graph enumeration and class search.

Three mechanisms cross-check the classifier from different directions:

  * enumerate_graphs: every isomorphism class on a fixed vertex count,
    grown edge by edge from the empty graph by canonical augmentation
    (McKay, "Isomorph-free exhaustive generation", 1998) and streamed in
    a deterministic order: a parent gains one new edge per orbit of its
    automorphisms, and a child is kept only from its canonical parent,
    the child less its canonical last edge, so each class arises once
    and no level needs deduplicating; each level past half the pairs, so
    never the middle one, is read off as the complement forms of its mirror
  * equivalence_class_bruteforce(reference): every graph sharing the
    reference's independence polynomial, with the reference as its only
    input, grown by the same level loop up to the vertex and edge counts
    forced by the polynomial's first two coefficients; a child is
    dropped before its augmentation test once the edges left cannot
    remove its surplus of independent 3-sets (an edge xy removes
    n - |N[x] | N[y]| of them, a loss that never grows in a supergraph,
    so the edges left remove at most the largest losses over the parent's
    non-edges), and before its canonical search once its independent-set
    counts can no longer reach the reference's (adding an edge never
    creates an independent set); every spanning subgraph of a member
    survives both, and every count, the reference's included, is made
    by indpoly's brute-force counter (a child's from its parent's), not
    by the classifier's evaluator
  * catalogue_class_search: assemble class members as exact covers of
    the reference's basis-factor set by shortlist components, each
    factored from its own polynomial, using none of the final case analysis

Enumeration totals are themselves checked two ways: against naive
bucketing of all labeled graphs (small n) and against an orbit-counting
computation over permutation cycle types that never touches the
canonical-form machinery.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from collections import Counter
from functools import lru_cache, partial
from math import comb, factorial, gcd
from typing import Iterator, Optional

from .classify import CATALOGUE, EquivClass
from .factorbasis import factor_into_basis
from .graphcore import FamilySpec, Graph, automorphisms, build, canonical_form, canonical_order, canonize
from .graphcore import MAX_ECHO, Record, complement_form, echo_number, from_canonical_form, spec
from .indpoly import bruteforce_counter, bruteforce_counts, independence_polynomial

_UNFILTERED_MAX = 10
#: C(45, 22): the widest level --vertices 10 grows, in labeled graphs (a class has at most n! labelings).
_WIDEST = comb(comb(_UNFILTERED_MAX, 2), comb(_UNFILTERED_MAX, 2) // 2)
_FILTERED_MAX = 12
#: The most vertices naive_bucket_count canonicalizes every labeled graph on.
NAIVE_MAX = 6
#: The brute-force class search's cap on vertices (README gives P_12 .. P_14 timings).
CLASS_MAX = 14


class EnumFilter(Record):
    """What to enumerate: vertex count plus optional structural filters; a ValueError
    refuses an impossible filter, a vertex count above the caps, or (with no degree
    filter) an edge count e whose grown levels hold at least C(M, e)/n! > C(45, 22)/10! classes."""

    __slots__ = _fields = ("vertex_count", "edge_count", "max_degree", "connected_only")

    def __init__(self, vertex_count: int, edge_count: Optional[int] = None,
                 max_degree: Optional[int] = None, connected_only: bool = False):
        if vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        if max_degree is not None and max_degree < 0:
            raise ValueError(f"max degree must be non-negative, got {echo_number(max_degree)}")
        n, pairs = vertex_count, comb(vertex_count, 2)
        if edge_count is not None and not (0 <= edge_count <= pairs):
            raise ValueError(
                f"edge count {echo_number(edge_count)} impossible on {echo_number(n)} vertices")
        if edge_count is None and n > _UNFILTERED_MAX:
            raise ValueError(
                f"unfiltered enumeration is capped at {_UNFILTERED_MAX} vertices{_span(n, pairs)}")
        if n > _FILTERED_MAX:
            raise ValueError(f"enumeration is capped at {_FILTERED_MAX} vertices{_span(n, pairs)}")
        top = pairs // 2 if edge_count is None else min(edge_count, pairs - edge_count)
        if max_degree is None and comb(pairs, top) * factorial(_UNFILTERED_MAX) > _WIDEST * factorial(n):
            raise ValueError(f"edge count {edge_count} on {n} vertices grows a level of at least "
                             f"{comb(pairs, top) // factorial(n):,} classes, above the edge-filter cap of "
                             f"{_WIDEST // factorial(_UNFILTERED_MAX):,}")
        super().__init__(vertex_count, edge_count, max_degree, connected_only)


def _span(n: int, pairs: int) -> str:
    """The labeled graphs on n vertices, left unsaid past MAX_ECHO digits."""
    return f" (n={n} spans 2^{pairs} labeled graphs)" if pairs < 10**MAX_ECHO else ""


def _edge_orbit(pair: tuple[int, int], autos) -> set[tuple[int, int]]:
    """The pairs (x, y), x < y, that the automorphisms map pair to."""
    orbit, todo = {pair}, [pair]
    while todo:
        a, b = todo.pop()
        for perm in autos:
            x, y = perm[a], perm[b]
            image = (x, y) if x < y else (y, x)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _orbit_leaders(pairs: list[tuple[int, int]], autos) -> list[tuple[int, int]]:
    """The pairs (u, v) of an ascending list of non-edges, a union of whole
    orbits, that are least in their orbit under the group the automorphisms
    generate.

    Adding any edge of an orbit gives isomorphic children, so one per
    orbit loses no class.  The stored automorphisms generate the whole
    group, so no two leaders give isomorphic children either.
    """
    leaders = []
    seen = set()
    for pair in pairs:
        if pair not in seen:
            leaders.append(pair)
            seen |= _edge_orbit(pair, autos)
    return leaders


def _top_edges(n: int, adj) -> list[tuple[int, int]]:
    """The edges (a, b), a < b, with the largest isomorphism invariant:
    the two end degrees, larger first, then the common-neighbour count.

    The larger end degree of a top edge is the maximum degree, so only
    the edges at vertices of maximum degree are compared.
    """
    width = n.bit_length()
    degree = [row.bit_count() for row in adj]
    most = max(degree, default=0)
    best, top = -1, []
    for a in range(n):
        if degree[a] != most:
            continue
        row = rest = adj[a]
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            if b < a and degree[b] == most:
                continue  # met from b
            inv = degree[b] << width | (row & adj[b]).bit_count()
            if inv > best:
                best, top = inv, []
            if inv == best:
                top.append((a, b) if a < b else (b, a))
    return top


def _from_canonical_parent(g: Graph, edge: tuple[int, int], top: list[tuple[int, int]]) -> bool:
    """Whether edge, one of g's top edges, lies in the Aut(g) orbit of g's
    canonical last edge: the top edge whose pair of canonical positions,
    larger first, is largest.  That orbit is the same for every labeling
    of g, so g - edge is g's canonical parent."""
    if len(top) == 1:
        return True
    autos = automorphisms(g)
    place = [0] * g.n
    for i, v in enumerate(canonical_order(g)):
        place[v] = i
    last = max(top, key=lambda e: (max(place[e[0]], place[e[1]]), min(place[e[0]], place[e[1]])))
    return edge == last or edge in _edge_orbit(last, autos)


def _expand_level(n: int, rows: list[tuple], max_degree: Optional[int],
                  prune: Optional[tuple]) -> list[tuple]:
    """Children of a chunk of _levels rows on n vertices (worker-safe), as such rows.

    A child G + uv is kept only from its canonical parent: when uv lies in
    the Aut(G + uv) orbit of the child's canonical last edge, an edge of
    largest invariant (_top_edges), ties broken by canonical position
    (_from_canonical_parent).  Every class of the next level then arises
    from exactly one parent and one orbit leader, so no two children are
    isomorphic (McKay, "Isomorph-free exhaustive generation", 1998).  A
    child whose edge uv has a smaller invariant than another edge is
    dropped before its canonical search.  That search starts from the
    parent's stored automorphisms that map {u, v} to itself, which are
    automorphisms of the child too, so it need not find them again.

    With a prune of (target counts, edges left after the child), a child
    is dropped before its orbit walk unless the edges left can still
    remove its surplus of independent 3-sets (_may_shed_3_sets), and
    before its canonical search unless _within_reach keeps its counts,
    made from its parent's.  The 3-set test and the degree filters are
    isomorphism invariants, so they keep or drop whole orbits of the
    parent's non-edges and leave the orbit leaders as they were; a child
    they drop costs no orbit walk, top-edge pass, counter query or
    canonical search.
    Every filter keeps every graph's canonical parent along with the
    graph: deleting an edge raises no degree, and the canonical parent of
    a spanning subgraph of a member is one too, so each canonical
    ancestor of a member is its parent plus one non-edge, and the member
    is that plus `left` more of the parent's non-edges.
    """
    bounds = None if prune is None else _reach_bounds(n, *prune)
    cap = n if max_degree is None else max_degree
    out = []
    for _, adj, autos, counts in rows:
        counter = None if bounds is None else bruteforce_counter(Graph(n, adj))
        degree = [row.bit_count() for row in adj]
        most = max(degree, default=0)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if not adj[u] >> v & 1]
        if prune is not None:
            pairs = _may_shed_3_sets(n, adj, counts, pairs, *prune)
        # under the degree cap; a top edge of the child meets a vertex of its maximum degree
        pairs = [(u, v) for u, v in pairs if most - 1 <= max(degree[u], degree[v]) < cap]
        for u, v in _orbit_leaders(pairs, autos):
            child_adj = list(adj)
            child_adj[u] |= 1 << v
            child_adj[v] |= 1 << u
            top = _top_edges(n, child_adj)
            if (u, v) not in top:
                continue
            child = Graph(n, child_adj)
            child_counts = None if counter is None else _counts_with_edge(counts, counter, n, adj, u, v)
            if child_counts is not None and not _within_reach(child_counts, bounds):
                continue
            canonize(child, [a for a in autos if a[u] == u and a[v] == v or a[u] == v and a[v] == u])
            key = canonical_form(child)
            if _from_canonical_parent(child, (u, v), top):
                out.append((key, child.adj, automorphisms(child), child_counts))
    return out


def _may_shed_3_sets(n: int, adj, counts, pairs: list[tuple[int, int]],
                     target: tuple[int, ...], left: int) -> list[tuple[int, int]]:
    """The non-edges uv, of H's ascending list, whose child H + uv can still
    bring its independent 3-sets down to the target's with `left` more edges.

    Adding xy removes the L(x, y) = n - |N[x] | N[y]| independent 3-sets
    {x, y, z}.  Neighbourhoods only grow, so L never grows in a supergraph,
    and the `left` later edges remove at most the `left` largest L over H's
    non-edges.
    """
    closed = [row | 1 << v for v, row in enumerate(adj)]
    loss = [n - (closed[u] | closed[v]).bit_count() for u, v in pairs]
    room = sum(sorted(loss, reverse=True)[:left])
    excess = (counts[3] if len(counts) > 3 else 0) - (target[3] if len(target) > 3 else 0) - room
    return [pair for pair, lost in zip(pairs, loss) if lost >= excess]


def _counts_with_edge(counts, counter, n: int, adj, u: int, v: int) -> tuple[int, ...]:
    """H + uv's independent-set counts from H's and H's bruteforce_counter:
    i_k(H + uv) = i_k(H) - i_{k-2}(H - N[u] - N[v])."""
    lost = (0, 0) + counter((1 << n) - 1 & ~(adj[u] | adj[v] | 1 << u | 1 << v))
    out = tuple(c - x for c, x in itertools.zip_longest(counts, lost, fillvalue=0))
    return out if out[-1] else out[:-1]  # one edge lowers the independence number by at most 1


def _reach_bounds(n: int, target: tuple[int, ...], left: int) -> list[tuple[int, int]]:
    """Per size k, the (least, most) independent k-sets a graph on n vertices
    may have if `left` more edges can bring its counts down to target.

    Adding an edge never creates an independent set, so no count may be
    below the target's.  Edge uv removes exactly the independent k-sets
    holding both u and v, at most C(n-2, k-2) of them, so no count may
    exceed the target's by more than `left` such edges remove.
    """
    padded = target + (0,) * (n + 1 - len(target))
    return [(t, t + left * comb(n - 2, k - 2) if k >= 2 else t) for k, t in enumerate(padded)]


def _within_reach(counts: tuple[int, ...], bounds: list[tuple[int, int]]) -> bool:
    return all(lo <= c <= hi for c, (lo, hi) in itertools.zip_longest(counts, bounds, fillvalue=0))


def _worker_count() -> int:
    """INDEQ_WORKERS, clamped to [1, cpu count]; 1 when unset or not an integer."""
    raw = os.environ.get("INDEQ_WORKERS", "1")
    try:
        return max(1, min(int(raw), os.cpu_count() or 1))
    except ValueError:
        return 1


def _levels(n: int, top: int, max_degree: Optional[int],
            target: Optional[tuple[int, ...]] = None) -> Iterator[list[tuple]]:
    """The graphs on n vertices grown edge by edge from the empty graph,
    one level per edge count 0..top: a (canonical form, adjacency,
    automorphisms, counts) row per class, in no particular order.

    With target counts, a row's counts are its independent-set counts, and
    a child is kept only if they can still reach the target with the edges
    left up to top (_reach_bounds); without, they are None.  One process pool
    serves every level; it opens at the first level worth splitting and
    closes when the generator finishes or is closed.
    """
    workers = _worker_count()
    empty = Graph.empty(n)
    counts = None if target is None else bruteforce_counts(empty)
    level = [(canonical_form(empty), empty.adj, automorphisms(empty), counts)]
    pool = None
    try:
        for edges in range(top + 1):
            yield level
            if edges == top:
                break
            prune = None if target is None else (target, top - edges - 1)
            mapper, chunks = map, [level]
            if workers > 1 and len(level) >= 4 * workers:
                if pool is None:
                    # imported here, so callers that never split a level do not load them
                    import multiprocessing
                    from concurrent.futures import ProcessPoolExecutor
                    pool = ProcessPoolExecutor(
                        max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
                mapper, chunks = pool.map, [level[i::workers] for i in range(workers)]
            expand = partial(_expand_level, n, max_degree=max_degree, prune=prune)
            level = [row for chunk in mapper(expand, chunks) for row in chunk]
    finally:
        if pool is not None:
            pool.shutdown()


def _keyed_levels(filt: EnumFilter) -> Iterator[tuple[int, list[bytes]]]:
    """(edge count, sorted canonical forms) of each level the filter asks for,
    by increasing edge count, under enumerate_graphs' complement rule; a level
    kept for its complement is held as one joined bytes object."""
    n, pairs = filt.vertex_count, comb(filt.vertex_count, 2)
    wanted = range(pairs + 1) if filt.edge_count is None else (filt.edge_count,)
    mirror, kept = filt.max_degree is None, []
    top = max(min(e, pairs - e) if mirror else e for e in wanted)
    with contextlib.closing(_levels(n, top, filt.max_degree)) as levels:
        for edges, level in enumerate(levels):
            if edges in wanted:
                yield edges, sorted(row[0] for row in level)
            if mirror and 2 * edges < pairs and pairs - edges in wanted:
                kept.append((edges, b"".join(row[0] for row in level)))
    width = len(canonical_form(Graph.empty(n)))
    while kept:
        edges, joined = kept.pop()
        yield pairs - edges, sorted(complement_form(joined[i:i + width]) for i in range(0, len(joined), width))


def enumerate_graphs(filt: EnumFilter) -> Iterator[Graph]:
    """One representative per isomorphism class matching the filter.

    Graphs are yielded by increasing edge count and, within an edge
    count, by canonical form, so the stream is byte-deterministic.
    Complementing maps the classes with e edges one-to-one onto those
    with M - e, M = C(n, 2): only the levels up to M/2 are grown (up to
    M - E under an edge filter E > M/2), and each level above is read off
    as the complement forms of its mirror.  The middle level is grown, as
    complement_form need not be canonical there, and so is every level
    under a degree filter, which complements do not preserve.
    """
    with contextlib.closing(_keyed_levels(filt)) as levels:
        for _, keys in levels:
            # canonical representatives, whatever labeled copy each worker found
            for g in map(from_canonical_form, keys):
                if not filt.connected_only or g.is_connected():
                    yield g


def count_isomorphism_classes(n: int) -> int:
    """Number of graphs on n unlabeled vertices, via enumeration."""
    return sum(len(keys) for _, keys in _keyed_levels(EnumFilter(n)))


def _partitions(n: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def unlabeled_graph_count(n: int) -> int:
    """Burnside count of graphs on n unlabeled vertices.

    Sums 2^(pair cycles) over permutation cycle types; independent of
    the canonical-form machinery by construction.
    """
    total = 0
    for parts in _partitions(n):
        perms = factorial(n)
        for length, count in Counter(parts).items():
            perms //= length**count * factorial(count)
        pair_cycles = sum(p // 2 for p in parts)
        pair_cycles += sum(gcd(a, b) for a, b in itertools.combinations(parts, 2))
        total += perms * 2**pair_cycles
    return total // factorial(n)


def naive_bucket_count(n: int) -> int:
    """Count classes by canonicalizing every labeled graph (small n only)."""
    if n > NAIVE_MAX:
        raise ValueError(f"naive bucketing is capped at {NAIVE_MAX} vertices")
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        seen.add(canonical_form(Graph.from_edges(n, edges)))
    return len(seen)


def equivalence_class_bruteforce(reference: Graph) -> list[Graph]:
    """Every graph (up to isomorphism) sharing the reference's polynomial,
    sorted by canonical form.

    The graphs on the reference's vertex count are grown edge by edge up
    to the edge count read off the polynomial's second coefficient,
    dropping each child whose independent-set counts can no longer reach
    the reference's (_may_shed_3_sets, _reach_bounds); the last level
    keeps the graphs whose counts equal them.  Every count, the
    reference's included, is made by indpoly.bruteforce_counts, not by
    the classifier's evaluator.
    References above CLASS_MAX vertices are refused before any work.
    """
    if reference.n > CLASS_MAX:
        raise ValueError(
            f"the brute-force class search is capped at {CLASS_MAX} vertices, "
            f"got {reference.n}"
        )
    target = bruteforce_counts(reference)
    i1 = target[1] if len(target) > 1 else 0
    i2 = target[2] if len(target) > 2 else 0
    assert i1 == reference.n
    for level in _levels(reference.n, comb(reference.n, 2) - i2, None, target):
        pass
    keys = sorted(row[0] for row in level)
    return [g for g in map(from_canonical_form, keys) if bruteforce_counts(g) == target]


# -- catalogue-driven class search ---------------------------------------------

@lru_cache(maxsize=None)
def _basis_factors(s: FamilySpec) -> Optional[frozenset]:
    """The basis factors of I(s), or None when one repeats."""
    factors = factor_into_basis(independence_polynomial(build(s)))
    unique = frozenset(factors)
    return unique if len(unique) == len(factors) else None


def catalogue_class_search(n_vertices: int) -> EquivClass:
    """Members of the even path's class via exact cover of its factor set.

    Each candidate shape (paths, cycles, D twins, Y:z,2,1 and the surviving
    concrete shortlist rows) occupies the basis factors of its own
    polynomial, factored here; members are the covers of the path's factor
    set by disjoint candidate sets.  None of the classifier's case analysis
    is used, so agreement with path_class is a real check.
    """
    if n_vertices % 2 != 0 or n_vertices < 2:
        raise ValueError("catalogue search is defined for even paths on >= 2 vertices")
    if n_vertices > 60:
        raise ValueError("catalogue search is capped at 60 vertices")
    target = _basis_factors(spec("P", n_vertices))
    # the shortlist's C_3 row is also a cycle; dict keys list each shape once
    shapes = dict.fromkeys(itertools.chain(
        (spec("P", k) for k in range(1, n_vertices + 1)),
        (spec("C", k) for k in range(3, n_vertices + 1)),
        (spec("D", k) for k in range(4, n_vertices + 1)),
        (spec("Y", z, 2, 1) for z in range(1, n_vertices - 3)),
        (row.spec for row in CATALOGUE if row.spec is not None and not row.eliminated),
    ))
    # shapes with the same factor set are interchangeable in every cover
    groups: dict[frozenset, list[FamilySpec]] = {}
    for s in shapes:
        fs = _basis_factors(s)
        if fs is not None and fs <= target:
            groups.setdefault(fs, []).append(s)

    def covers(remaining: frozenset) -> list[tuple[FamilySpec, ...]]:
        if not remaining:
            return [()]
        pivot = min(remaining)
        return [(s,) + rest for fs, group in groups.items() if pivot in fs and fs <= remaining
                for rest in covers(remaining - fs) for s in group]

    return EquivClass(spec("P", n_vertices), covers(target))
