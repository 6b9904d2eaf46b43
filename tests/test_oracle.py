import contextlib
import hashlib
import os
import random
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from math import comb
from pathlib import Path
from unittest import mock

import pytest

from indeq.classify import CATALOGUE, EvenCycleClassNote, cycle_class, path_class
from hypothesis import given, settings
from hypothesis import strategies as st

from indeq import graphcore, oracle
from indeq.graphcore import (
    Graph, automorphisms, build, canonical_form, graph6_read, graph6_write,
)
from indeq.indpoly import bruteforce_counter, bruteforce_counts, independence_polynomial
from indeq.oracle import (
    EnumFilter,
    _counts_with_edge,
    _expand_level,
    _from_canonical_parent,
    _keyed_levels,
    _levels,
    _may_shed_3_sets,
    _orbit_leaders,
    _top_edges,
    _worker_count,
    catalogue_class_search,
    count_isomorphism_classes,
    enumerate_graphs,
    equivalence_class_bruteforce,
    naive_bucket_count,
    unlabeled_graph_count,
)

from conftest import fs, random_graphs
from reference import group_order, is_automorphism, isomorphic_bruteforce, isomorphisms


def test_enumerate_counts_small():
    assert count_isomorphism_classes(3) == 4
    assert count_isomorphism_classes(4) == 11
    assert count_isomorphism_classes(5) == 34


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_orbit_counting(n):
    assert count_isomorphism_classes(n) == unlabeled_graph_count(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_naive_bucketing(n):
    assert count_isomorphism_classes(n) == naive_bucket_count(n)


def test_burnside_known_values():
    assert [unlabeled_graph_count(n) for n in range(1, 9)] == [
        1, 2, 4, 11, 34, 156, 1044, 12346
    ]


def test_enumerate_edge_filter_membership():
    got = {canonical_form(g) for g in enumerate_graphs(
        EnumFilter(6, edge_count=6, connected_only=True)
    )}
    assert canonical_form(build(fs("C", 6))) in got
    assert canonical_form(build(fs("D", 6))) in got
    for g in enumerate_graphs(EnumFilter(6, edge_count=6, connected_only=True)):
        assert g.is_connected() and g.edge_count == 6


def test_enumerate_deterministic_stream():
    lines1 = [graph6_write(g) for g in enumerate_graphs(EnumFilter(5, edge_count=4))]
    lines2 = [graph6_write(g) for g in enumerate_graphs(EnumFilter(5, edge_count=4))]
    assert lines1 == lines2
    assert lines1 == sorted(lines1)


# sha256 of the enumerator's graph6 lines (each ending in a newline), recorded
# before the enumerator learned to extend each parent once per orbit; the
# stream must not change with the way the classes are reached
GOLDEN_STREAMS = [
    (EnumFilter(0), "ce773b87709a04bbcb0ead74fea94b1f20fa4a4d185fc06a24a9bc703dd99613"),
    (EnumFilter(1), "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46"),
    (EnumFilter(2), "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb"),
    (EnumFilter(3), "af2f77461a0c6ead588ab554abaf75d44f62f9183021f5656b2be2c189dd77c4"),
    (EnumFilter(4), "8ca9e155939708588125a5910cc245b757017318811a4d95ec68bd9d85092d7f"),
    (EnumFilter(5), "cb18a7a8da6caabb828de5aeffa9314f46b82c71d1e24e22aadb458d4145ff7e"),
    (EnumFilter(6), "34581c4a78e12f4f86a8ca17f3b956cb8d64a740ff4e1898cf46c6ab435b9a40"),
    (EnumFilter(7), "9ae6c8b279f11a01a5d5f0fd2b9f44a4d1eed4eefd41cfd2b349d3b2ea50931e"),
    (EnumFilter(8, 7), "24c2e4e6297bb1f089f87c8ecf4695006b3b11567cbf78f5b43de7c449b90772"),
    (EnumFilter(9, 8), "cf7131a359437cecab27726de18969871fc8359c4ba2cd692e24d5ff67db7551"),
    # recorded while every level was still grown: a degree filter, and a
    # level read off as the complements of a sparser one
    (EnumFilter(7, 15, 5), "f7df2e693a532ec8b7f46f4babb04c6e897cf7dbcf1c6c12cf481bba4f178731"),
    (EnumFilter(9, 30), "ee5b5254f7c940ca9a599b1fe3ca62f53a8e62a90b6f018f3f2c7e60f9e7c03c"),
]


@pytest.mark.parametrize(
    "filt,digest", GOLDEN_STREAMS,
    ids=[f"{f.vertex_count}-{f.edge_count}" for f, _ in GOLDEN_STREAMS],
)
def test_enumeration_stream_matches_golden(filt, digest):
    h = hashlib.sha256()
    for g in enumerate_graphs(filt):
        h.update(graph6_write(g).encode("ascii") + b"\n")
    assert h.hexdigest() == digest


def test_enumerated_graphs_carry_their_canonical_form():
    reps = list(enumerate_graphs(EnumFilter(5)))
    with mock.patch.object(graphcore, "_canonical_order") as search:
        forms = [canonical_form(g) for g in reps]
    assert search.call_count == 0
    assert forms == [canonical_form(Graph(g.n, g.adj)) for g in reps]


def _child(g, u, v):
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, adj)


def _non_edges(g):
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]


@given(random_graphs(max_vertices=8))
@settings(max_examples=60, deadline=None)
def test_orbit_leaders_reach_every_child(g):
    leaders = _orbit_leaders(_non_edges(g), automorphisms(g))
    assert leaders == sorted(set(leaders))
    assert all(not g.has_edge(u, v) for u, v in leaders)
    reached = {canonical_form(_child(g, u, v)) for u, v in leaders}
    assert {canonical_form(_child(g, u, v)) for u, v in _non_edges(g)} == reached


def test_orbit_leaders_prune_symmetric_parents():
    for n in range(2, 9):
        g = Graph.empty(n)
        assert _orbit_leaders(_non_edges(g), automorphisms(g)) == [(0, 1)]
    c6 = build(fs("C", 6))
    assert _orbit_leaders(_non_edges(c6), automorphisms(c6)) == [(0, 2), (0, 3)]


def _accepted_edges(g):
    """The edges uv that the level loop accepts g from, as (g - uv) + uv."""
    top = _top_edges(g.n, g.adj)
    return {e for e in top if _from_canonical_parent(g, e, top)}


# every graph on 2..6 vertices with at least one edge, freshly labeled
SMALL_GRAPHS = [Graph(g.n, g.adj) for n in range(2, 7)
                for g in enumerate_graphs(EnumFilter(n)) if g.edge_count]


def test_accepted_edges_form_one_automorphism_orbit():
    for g in SMALL_GRAPHS:
        accepted = _accepted_edges(g)
        a, b = min(accepted)
        # the orbit under every automorphism, found by backtracking
        orbit = {tuple(sorted((image[a], image[b]))) for image in isomorphisms(g, g)}
        assert accepted == orbit, graph6_write(g)


def test_accepted_edges_follow_a_relabelling():
    rng = random.Random(19)
    for g in SMALL_GRAPHS:
        image = list(range(g.n))
        rng.shuffle(image)
        h = Graph.from_edges(g.n, [(image[a], image[b]) for a, b in g.edges()])
        moved = {tuple(sorted((image[a], image[b]))) for a, b in _accepted_edges(g)}
        assert _accepted_edges(h) == moved, graph6_write(g)


@pytest.mark.parametrize("n", range(1, 8))
def test_each_level_holds_each_class_once(n):
    sizes = []
    with contextlib.closing(_levels(n, comb(n, 2), None)) as levels:
        for edges, level in enumerate(levels):
            keys = [row[0] for row in level]
            assert len(set(keys)) == len(keys)
            for key, adj, _, counts in level:
                g = Graph(n, adj)
                assert g.edge_count == edges and canonical_form(g) == key and counts is None
            sizes.append(len(level))
    assert sum(sizes) == unlabeled_graph_count(n)


@given(random_graphs(max_vertices=10))
@settings(max_examples=80, deadline=None)
def test_children_store_generators_of_their_own_groups(g):
    # each child's search starts from the parent's automorphisms that map
    # its new edge to itself; every stored map must be an automorphism of
    # the child, they must generate its whole group, and the form must be
    # the one an unseeded search finds
    for parent in (g, g.complement()):
        row = (canonical_form(parent), parent.adj, automorphisms(parent), None)
        for key, adj, autos, _ in _expand_level(parent.n, [row], None, None):
            child = Graph(parent.n, adj)
            assert all(is_automorphism(child, a) for a in autos), graph6_write(child)
            assert canonical_form(child) == key
            assert group_order(child.n, autos) == group_order(child.n, automorphisms(child))


def _refinements(monkeypatch, search, *args):
    """search(*args), run in this process, and how many times it refined a partition."""
    calls = []
    refine = graphcore._refine
    monkeypatch.setenv("INDEQ_WORKERS", "1")
    monkeypatch.setattr(graphcore, "_refine", lambda adj, cells: calls.append(1) or refine(adj, cells))
    found = search(*args)
    monkeypatch.undo()
    return found, len(calls)


def test_seeded_child_searches_stay_within_their_refinements(monkeypatch):
    # the children's searches refine 712, 1,143 and 966 times here, each
    # seeded with its parent's automorphisms that fix the new edge; the two
    # class searches' counts also rest on the 3-set bound's pruning, which
    # enumeration, having no target, does not do
    p10, calls = _refinements(monkeypatch, equivalence_class_bruteforce, build(fs("P", 10)))
    assert calls <= 712
    assert {canonical_form(g) for g in p10} == path_class(10).canonical_forms()
    c10, calls = _refinements(monkeypatch, equivalence_class_bruteforce, build(fs("C", 10)))
    assert calls <= 1143
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvenCycleClassNote)
        assert {canonical_form(g) for g in c10} == cycle_class(10).canonical_forms()
    n7, calls = _refinements(monkeypatch, count_isomorphism_classes, 7)
    assert calls <= 966
    assert n7 == unlabeled_graph_count(7) == 1044


def _grown_keys(n, top):
    """The sorted canonical forms of every level 0..top, each level grown."""
    with contextlib.closing(_levels(n, top, None)) as levels:
        return [sorted(row[0] for row in level) for level in levels]


@pytest.mark.parametrize("n", range(8))
def test_keyed_levels_equal_the_grown_levels(n):
    assert list(_keyed_levels(EnumFilter(n))) == list(enumerate(_grown_keys(n, comb(n, 2))))


def test_keyed_levels_past_half_equal_the_grown_levels_at_8_vertices():
    pairs = comb(8, 2)
    grown = _grown_keys(8, pairs - 1)
    for edges in (pairs - 1, pairs - 3, pairs // 2 + 1):
        assert list(_keyed_levels(EnumFilter(8, edge_count=edges))) == [(edges, grown[edges])]


def test_a_dense_edge_filter_grows_only_its_mirror():
    with mock.patch.object(oracle, "_expand_level", wraps=oracle._expand_level) as expand, \
            mock.patch.dict(os.environ, {"INDEQ_WORKERS": "1"}):
        assert len(list(enumerate_graphs(EnumFilter(9, edge_count=30)))) == 63
        assert expand.call_count == 6  # levels 0..5 grow levels 1..6 = 36 - 30
    dense = [canonical_form(Graph(12, g.adj)) for g in enumerate_graphs(EnumFilter(12, edge_count=63))]
    sparse = list(enumerate_graphs(EnumFilter(12, edge_count=3)))
    assert len(sparse) == 5
    assert dense == sorted(canonical_form(g.complement()) for g in sparse)


def test_enumerate_pairwise_nonisomorphic():
    reps = list(enumerate_graphs(EnumFilter(5)))
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not isomorphic_bruteforce(g, h)


def test_enumerate_bounds():
    with pytest.raises(ValueError, match="unfiltered enumeration is capped"):
        next(enumerate_graphs(EnumFilter(11)))
    with pytest.raises(ValueError, match="capped at 12"):
        next(enumerate_graphs(EnumFilter(13, edge_count=3)))
    with pytest.raises(ValueError, match="impossible"):
        EnumFilter(4, edge_count=7)


@pytest.mark.parametrize("n,edges", [(12, 33), (11, 27), (12, 16), (11, 17), (12, 50), (11, 38)])
def test_an_edge_filter_whose_levels_cannot_fit_is_refused_at_once(n, edges):
    # grown, 33 of 66 edges passes a level of 16 billion classes and 27 of 55
    # one of 100 million; 16 and 50 of 66, 17 and 38 of 55 are the first refused
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above the edge-filter cap of 1,134,456"):
            EnumFilter(n, edge_count=edges)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.5, seconds


def test_the_edge_filter_cap_admits_what_fits():
    # C(M, e)/n! classes at least in the widest level, against C(45, 22)/10!:
    # every edge filter on 10 or fewer vertices, 12 vertices with e <= 15 or
    # e >= 51, 11 with e <= 16 or e >= 39, and degree filters as before
    for n in range(11):
        for edges in range(comb(n, 2) + 1):
            EnumFilter(n, edge_count=edges)
    for n, edges in [(12, 15), (12, 51), (12, 63), (11, 16), (11, 39), (12, 0), (12, 66)]:
        EnumFilter(n, edge_count=edges)
    EnumFilter(10)
    EnumFilter(12, edge_count=33, max_degree=3)


def test_enumerate_max_degree_filter():
    cubic = [g for g in enumerate_graphs(EnumFilter(6, edge_count=6, max_degree=2))]
    assert all(max(g.degrees(), default=0) <= 2 for g in cubic)
    # 6 vertices, 6 edges, max degree 2: the 6-cycle and the two-triangle split
    assert len(cubic) == 2


def test_workers_mode_matches_sequential():
    base = [graph6_write(g) for g in enumerate_graphs(EnumFilter(6, edge_count=5))]
    with mock.patch.dict(os.environ, {"INDEQ_WORKERS": "2"}):
        par = [graph6_write(g) for g in enumerate_graphs(EnumFilter(6, edge_count=5))]
    assert base == par


def test_one_pool_per_enumeration():
    made = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.closed = False
            made.append(self)

        def shutdown(self, *args, **kwargs):
            self.closed = True
            super().shutdown(*args, **kwargs)

    filt = EnumFilter(7, edge_count=8)  # four levels large enough to split
    base = [graph6_write(g) for g in enumerate_graphs(filt)]
    with mock.patch("concurrent.futures.ProcessPoolExecutor", Pool), \
            mock.patch("os.cpu_count", return_value=2), \
            mock.patch.dict(os.environ, {"INDEQ_WORKERS": "2"}):
        assert [graph6_write(g) for g in enumerate_graphs(filt)] == base
        assert len(made) == 1 and made[0].closed
        # closing the generator early closes its pool too
        stream = enumerate_graphs(EnumFilter(7))
        while next(stream).edge_count < 6:
            pass
        stream.close()
        assert len(made) == 2 and made[1].closed


@pytest.mark.parametrize(
    "filt,digest",
    [row for row in GOLDEN_STREAMS if row[0] in (EnumFilter(7), EnumFilter(9, 8), EnumFilter(9, 30))],
    ids=["7-None", "9-8", "9-30"],
)
def test_pool_stream_matches_golden(filt, digest):
    # the workers' chunks are concatenated, not merged by canonical form
    made = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    h = hashlib.sha256()
    with mock.patch("concurrent.futures.ProcessPoolExecutor", Pool), \
            mock.patch("os.cpu_count", return_value=2), \
            mock.patch.dict(os.environ, {"INDEQ_WORKERS": "2"}):
        for g in enumerate_graphs(filt):
            h.update(graph6_write(g).encode("ascii") + b"\n")
    assert len(made) == 1
    assert h.hexdigest() == digest


def test_importing_the_oracle_loads_no_process_machinery():
    # the pool's modules are imported only when a level is split, so the
    # CLI and every caller that never splits skip their import cost
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = ("import sys, indeq.cli, indeq.checks, indeq.oracle; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_worker_count_is_clamped_to_cpu_count():
    with mock.patch("os.cpu_count", return_value=4):
        for raw, want in (("1000", 4), ("3", 3), ("0", 1), ("-5", 1), ("many", 1)):
            with mock.patch.dict(os.environ, {"INDEQ_WORKERS": raw}):
                assert _worker_count() == want, raw
    with mock.patch("os.cpu_count", return_value=None), \
            mock.patch.dict(os.environ, {"INDEQ_WORKERS": "8"}):
        assert _worker_count() == 1


def test_bruteforce_class_p4():
    members = equivalence_class_bruteforce(build(fs("P", 4)))
    assert len(members) == 2
    want = {canonical_form(build(fs("P", 4))),
            canonical_form(build([fs("P", 1), fs("C", 3)]))}
    assert {canonical_form(g) for g in members} == want


def test_bruteforce_class_p7_unique():
    members = equivalence_class_bruteforce(build(fs("P", 7)))
    assert len(members) == 1
    assert isomorphic_bruteforce(members[0], build(fs("P", 7)))


def test_bruteforce_class_c6():
    members = equivalence_class_bruteforce(build(fs("C", 6)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EvenCycleClassNote)
        want = cycle_class(6).canonical_forms()
    assert {canonical_form(g) for g in members} == want


def test_bruteforce_class_never_calls_the_evaluator():
    def refuse(g):
        raise AssertionError("the oracle counts with bruteforce_counts")

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("indeq") and hasattr(module, "independence_polynomial"):
                stack.enter_context(mock.patch.object(module, "independence_polynomial", refuse))
        members = equivalence_class_bruteforce(build(fs("P", 8)))
    assert len(members) == 3


@pytest.mark.parametrize("n", (4, 6, 8))
def test_bruteforce_class_matches_classifier(n):
    members = equivalence_class_bruteforce(build(fs("P", n)))
    assert {canonical_form(g) for g in members} == path_class(n).canonical_forms()


def _unpruned_class(reference):
    """The class as the plain filter of an exhaustive enumeration."""
    target = bruteforce_counts(reference)
    return [graph6_write(g) for g in enumerate_graphs(EnumFilter(reference.n, reference.edge_count))
            if bruteforce_counts(g) == target]


def _pruned_class(reference):
    return [graph6_write(g) for g in equivalence_class_bruteforce(reference)]


# every catalogue row on at most 8 vertices, the families instantiated
SMALL_SPECS = [s for s in (
    [fs("P", n) for n in range(1, 9)] + [fs("C", n) for n in range(3, 9)]
    + [fs("D", n) for n in range(4, 9)] + [fs("Y", z, 2, 1) for z in range(1, 5)]
    + [row.spec for row in CATALOGUE if row.spec is not None]
) if build(s).n <= 8]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_pruned_class_equals_unpruned(spec):
    g = build(spec)
    assert _pruned_class(g) == _unpruned_class(g)


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_vertices=7))
def test_pruned_class_equals_unpruned_on_random_graphs(g):
    members = _pruned_class(g)
    assert members == _unpruned_class(g)
    assert canonical_form(g) in {canonical_form(graph6_read(m)) for m in members}


def test_pruned_class_equals_unpruned_with_workers():
    refs = [build(fs("P", 8)), build(fs("C", 8))]
    base = [_unpruned_class(g) for g in refs]
    with mock.patch("os.cpu_count", return_value=2), \
            mock.patch.dict(os.environ, {"INDEQ_WORKERS": "2"}):
        assert [_pruned_class(g) for g in refs] == base


def test_class_search_prunes_before_canonicalizing():
    # a child dropped by its degrees, its 3-set loss or the top-edge test
    # makes no counter query; each other child makes one on its parent's counter
    counted = {"canonical_form": 0, "prune queries": 0}

    def canonical(g):
        counted["canonical_form"] += 1
        return canonical_form(g)

    def counter_of(g):
        counts = bruteforce_counter(g)

        def query(mask):
            counted["prune queries"] += 1
            return counts(mask)
        return query

    with mock.patch.object(oracle, "canonical_form", canonical), \
            mock.patch.object(oracle, "bruteforce_counter", counter_of), \
            mock.patch.dict(os.environ, {"INDEQ_WORKERS": "1"}):
        assert len(equivalence_class_bruteforce(build(fs("P", 8)))) == 3
    assert 0 < counted["canonical_form"] < counted["prune queries"], counted


def _i3(g):
    counts = bruteforce_counts(g)
    return counts[3] if len(counts) > 3 else 0


@given(random_graphs(max_vertices=10), st.data())
@settings(max_examples=100, deadline=None)
def test_later_edges_shed_at_most_the_largest_3_set_losses(g, data):
    # L(x, y), the independent 3-sets that adding xy to g removes, never
    # grows in a supergraph, so m later edges remove at most the m largest L
    non_edges = _non_edges(g)
    loss = sorted((_i3(g) - _i3(_child(g, *e)) for e in non_edges), reverse=True)
    order = data.draw(st.permutations(non_edges))
    added = order[:data.draw(st.integers(min_value=0, max_value=len(order)))]
    m = Graph.from_edges(g.n, g.edges() + added)
    assert _i3(g) - _i3(m) <= sum(loss[:len(added)])
    if added:
        # the class search keeps exactly the children g + uv whose excess
        # over m fits in the other edges' room, m's ancestor g + added[0] among them
        room = sum(loss[:len(added) - 1])
        kept = _may_shed_3_sets(g.n, g.adj, bruteforce_counts(g), non_edges,
                                bruteforce_counts(m), len(added) - 1)
        assert kept == [e for e in non_edges if _i3(_child(g, *e)) - _i3(m) <= room]
        assert added[0] in kept


@given(random_graphs(max_vertices=10))
@settings(max_examples=80, deadline=None)
def test_child_counts_come_from_the_parent(g):
    counts, counter = bruteforce_counts(g), bruteforce_counter(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                want = bruteforce_counts(_child(g, u, v))
                assert _counts_with_edge(counts, counter, g.n, g.adj, u, v) == want, (u, v)


@pytest.mark.parametrize("n", range(2, 61, 2))
def test_catalogue_search_matches_classifier(n):
    assert catalogue_class_search(n).members == path_class(n).members


def test_catalogue_search_examples():
    assert len(catalogue_class_search(10)) == 10
    assert len(catalogue_class_search(4)) == 2
    assert len(catalogue_class_search(6)) == 3


def test_catalogue_search_validation():
    with pytest.raises(ValueError, match="even"):
        catalogue_class_search(7)
    with pytest.raises(ValueError, match="capped"):
        catalogue_class_search(62)
