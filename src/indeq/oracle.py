"""Independent ground truth: exhaustive graph enumeration and class search.

Three mechanisms cross-check the classifier from different directions:

  * enumerate_graphs: every isomorphism class on a fixed vertex count,
    grown edge by edge from the empty graph with canonical-form
    deduplication at each level, streamed in a deterministic order; a
    parent gains one new edge per orbit of its automorphisms, not one per
    non-edge (McKay, "Isomorph-free exhaustive generation", 1998)
  * equivalence_class_bruteforce(reference): every graph sharing the
    reference's independence polynomial, with the reference as its only
    input, grown by the same level loop up to the vertex and edge counts
    forced by the polynomial's first two coefficients; a child is
    dropped before its canonical search once its independent-set counts
    can no longer reach the reference's (adding an edge never creates an
    independent set, so every spanning subgraph of a member survives),
    and every count, the reference's included, is made by
    indpoly.bruteforce_counts, not by the classifier's evaluator
  * catalogue_class_search: assemble class members as exact covers of
    the reference's basis-factor set by shortlist components, using the
    factorization tables but none of the final case analysis

Enumeration totals are themselves checked two ways: against naive
bucketing of all labeled graphs (small n) and against an orbit-counting
computation over permutation cycle types that never touches the
canonical-form machinery.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Iterator, Optional

from .classify import CATALOGUE, EquivClass, _member_key
from .factorbasis import factor_cycle, factor_path
from .graphcore import FamilySpec, Graph, automorphisms, canonical_form, from_canonical_form
from .indpoly import bruteforce_counts

_UNFILTERED_MAX = 10
_FILTERED_MAX = 12
# the class search's own cap: P_13 takes about 5 s and P_14 about 16 s
# on a 2-vCPU host
_CLASS_MAX = 14
_WORKERS_ENV = "INDEQ_WORKERS"


@dataclass(frozen=True)
class EnumFilter:
    """What to enumerate: vertex count plus optional structural filters."""

    vertex_count: int
    edge_count: Optional[int] = None
    max_degree: Optional[int] = None
    connected_only: bool = False

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be non-negative")
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError(f"max degree must be non-negative, got {self.max_degree}")
        cap = comb(self.vertex_count, 2)
        if self.edge_count is not None and not (0 <= self.edge_count <= cap):
            raise ValueError(
                f"edge count {self.edge_count} impossible on {self.vertex_count} vertices"
            )


def _check_bounds(filt: EnumFilter) -> None:
    n = filt.vertex_count
    if filt.edge_count is None and n > _UNFILTERED_MAX:
        raise ValueError(
            f"unfiltered enumeration is capped at {_UNFILTERED_MAX} vertices "
            f"(n={n} spans 2^{comb(n, 2)} labeled graphs)"
        )
    if n > _FILTERED_MAX:
        raise ValueError(
            f"enumeration is capped at {_FILTERED_MAX} vertices "
            f"(n={n} spans 2^{comb(n, 2)} labeled graphs)"
        )


def _orbit_leaders(n: int, adj: tuple[int, ...], autos) -> list[tuple[int, int]]:
    """The non-edges (u, v), u < v, that are least in their orbit under
    the group the automorphisms generate.

    Adding any edge of an orbit gives isomorphic children, so one per
    orbit loses no class.  If autos generate only part of the group, the
    orbits are finer and some children are merely canonicalized twice.
    """
    leaders = []
    seen = set()
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1 or (u, v) in seen:
                continue
            leaders.append((u, v))
            seen.add((u, v))
            todo = [(u, v)]
            while todo:
                a, b = todo.pop()
                for perm in autos:
                    x, y = perm[a], perm[b]
                    pair = (x, y) if x < y else (y, x)
                    if pair not in seen:
                        seen.add(pair)
                        todo.append(pair)
    return leaders


def _expand_level(args) -> dict[bytes, tuple]:
    """Children of a chunk of (adjacency, automorphisms) parents (worker-safe):
    canonical form -> (adjacency, automorphisms) of the first child found.

    With a prune of (target counts, edges left after the child), a child
    is dropped before its canonical search unless _within_reach keeps it.
    """
    n, rows, max_degree, prune = args
    bounds = None if prune is None else _reach_bounds(n, *prune)
    out: dict[bytes, tuple] = {}
    for adj, autos in rows:
        for u, v in _orbit_leaders(n, adj, autos):
            # degrees are invariant, so the filter keeps or drops whole orbits
            if max_degree is not None and (
                adj[u].bit_count() >= max_degree or adj[v].bit_count() >= max_degree
            ):
                continue
            child_adj = list(adj)
            child_adj[u] |= 1 << v
            child_adj[v] |= 1 << u
            child = Graph(n, child_adj)
            if bounds is not None and not _within_reach(bruteforce_counts(child), bounds):
                continue
            key = canonical_form(child)
            if key not in out:
                out[key] = (child.adj, automorphisms(child))
    return out


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
    raw = os.environ.get(_WORKERS_ENV, "1")
    try:
        return max(1, min(int(raw), os.cpu_count() or 1))
    except ValueError:
        return 1


def _levels(n: int, top: int, max_degree: Optional[int],
            target: Optional[tuple[int, ...]] = None) -> Iterator[dict[bytes, tuple]]:
    """The graphs on n vertices grown edge by edge from the empty graph,
    one level per edge count 0..top: canonical form -> (adjacency,
    automorphisms) of one labeled member.

    With target counts, a child is kept only if it can still reach them
    with the edges left up to top (_reach_bounds).  One process pool
    serves every level; it opens at the first level worth splitting and
    closes when the generator finishes or is closed.
    """
    workers = _worker_count()
    empty = Graph.empty(n)
    level = {canonical_form(empty): (empty.adj, automorphisms(empty))}
    pool = None
    try:
        for edges in range(top + 1):
            yield level
            if edges == top:
                break
            prune = None if target is None else (target, top - edges - 1)
            rows = list(level.values())
            if workers > 1 and len(rows) >= 4 * workers:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
                chunks = [(n, rows[i::workers], max_degree, prune) for i in range(workers)]
                level = {}
                for result in pool.map(_expand_level, chunks):
                    for key, entry in result.items():
                        level.setdefault(key, entry)
            else:
                level = _expand_level((n, rows, max_degree, prune))
    finally:
        if pool is not None:
            pool.shutdown()


def enumerate_graphs(filt: EnumFilter) -> Iterator[Graph]:
    """One representative per isomorphism class matching the filter.

    Graphs are yielded by increasing edge count and, within an edge
    count, by canonical form, so the stream is byte-deterministic.
    """
    _check_bounds(filt)
    n = filt.vertex_count
    top = comb(n, 2) if filt.edge_count is None else filt.edge_count
    with contextlib.closing(_levels(n, top, filt.max_degree)) as levels:
        for edges, level in enumerate(levels):
            if filt.edge_count is None or edges == filt.edge_count:
                # yield the canonical representative so the stream does not
                # depend on which labeled copy each worker found first
                for key in sorted(level):
                    if not filt.connected_only or Graph(n, level[key][0]).is_connected():
                        yield from_canonical_form(key)


def count_isomorphism_classes(n: int) -> int:
    """Number of graphs on n unlabeled vertices, via enumeration."""
    return sum(1 for _ in enumerate_graphs(EnumFilter(n)))


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
        mult: dict[int, int] = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        perms = factorial(n)
        for length, count in mult.items():
            perms //= length**count * factorial(count)
        pair_cycles = sum(p // 2 for p in parts)
        pair_cycles += sum(gcd(a, b) for a, b in itertools.combinations(parts, 2))
        total += perms * 2**pair_cycles
    return total // factorial(n)


def naive_bucket_count(n: int) -> int:
    """Count classes by canonicalizing every labeled graph (small n only)."""
    if n > 6:
        raise ValueError("naive bucketing is capped at 6 vertices")
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
    the reference's (_reach_bounds); the last level keeps the graphs
    whose counts equal them.  Every count, the reference's included, is
    made by indpoly.bruteforce_counts, not by the classifier's evaluator.
    References above _CLASS_MAX vertices are refused before any work.
    """
    if reference.n > _CLASS_MAX:
        raise ValueError(
            f"the brute-force class search is capped at {_CLASS_MAX} vertices, "
            f"got {reference.n}"
        )
    target = bruteforce_counts(reference)
    i1 = target[1] if len(target) > 1 else 0
    i2 = target[2] if len(target) > 2 else 0
    assert i1 == reference.n
    for level in _levels(reference.n, comb(reference.n, 2) - i2, None, target):
        pass
    return [g for g in map(from_canonical_form, sorted(level)) if bruteforce_counts(g) == target]


# -- catalogue-driven class search ---------------------------------------------

def _factor_key(factors) -> frozenset:
    return frozenset((f.kind, f.index) for f in factors)


def catalogue_class_search(n_vertices: int) -> EquivClass:
    """Members of the even path's class via exact cover of its factor set.

    Candidate components are the shortlist shapes; each occupies the set
    of basis factors of its polynomial, and members are exactly the ways
    to cover the path's factor set with disjoint candidate sets.  The
    search consumes the factorization tables but not the case analysis
    behind the final classification, so agreement with path_class is a
    real check.
    """
    if n_vertices % 2 != 0 or n_vertices < 2:
        raise ValueError("catalogue search is defined for even paths on >= 2 vertices")
    if n_vertices > 60:
        raise ValueError("catalogue search is capped at 60 vertices")
    target = _factor_key(factor_path(n_vertices))

    entries: list[tuple[frozenset, tuple[FamilySpec, ...]]] = []
    for k in range(1, n_vertices + 1):
        fs = _factor_key(factor_path(k))
        if fs and fs <= target:
            entries.append((fs, (FamilySpec("P", (k,)),)))
    for k in range(3, n_vertices + 1):
        fs = _factor_key(factor_cycle(k))
        if fs <= target:
            variants = (FamilySpec("C", (k,)),)
            if k >= 4:
                variants += (FamilySpec("D", (k,)),)
            entries.append((fs, variants))
    for z in range(1, max(0, n_vertices - 3)):
        fs = frozenset({("ftilde", 3)} | _factor_key(factor_cycle(z + 3)))
        if fs <= target:
            entries.append((fs, (FamilySpec("Y", (z, 2, 1)),)))
    # the other concrete shortlist rows that survive the screens (paths,
    # cycles and D twins are listed above), grouped by their factor sets
    groups: dict[frozenset, tuple[FamilySpec, ...]] = {}
    for row in CATALOGUE:
        if row.spec is not None and not row.eliminated and row.spec.family not in ("P", "C", "D"):
            key = frozenset(row.factors)
            groups[key] = groups.get(key, ()) + (row.spec,)
    entries += [(fs, variants) for fs, variants in groups.items() if fs <= target]
    entries.sort(key=lambda e: (sorted(e[0]), e[1]))

    order = sorted(target)
    covers: list[tuple[int, ...]] = []

    def cover(remaining: frozenset, start_chosen: tuple[int, ...]) -> None:
        if not remaining:
            covers.append(start_chosen)
            return
        pivot = min(f for f in order if f in remaining)
        for idx, (fs, _) in enumerate(entries):
            if pivot in fs and fs <= remaining:
                cover(remaining - fs, start_chosen + (idx,))

    cover(target, ())

    members = set()
    for chosen in covers:
        pools = [entries[idx][1] for idx in chosen]
        for combo in itertools.product(*pools):
            members.add(tuple(sorted(combo, key=lambda s: s.sort_key)))
    ordered = tuple(sorted(members, key=_member_key))
    return EquivClass(FamilySpec("P", (n_vertices,)), ordered)
