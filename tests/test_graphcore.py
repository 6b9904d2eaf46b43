import hashlib
import itertools
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indeq import graphcore
from indeq.cli import parse_spec_text
from indeq.graphcore import (
    FAMILIES,
    FamilySpec,
    Graph,
    Graph6Error,
    automorphisms,
    build,
    canonical_form,
    canonical_order,
    canonize,
    complement_form,
    from_canonical_form,
    graph6_read,
    graph6_write,
    is_path_graph,
    mask_components,
)
from indeq.oracle import EnumFilter, enumerate_graphs

from conftest import fs, grid_graph, random_graphs
from reference import automorphism_count, group_order, is_automorphism, isomorphic_bruteforce


# closed-form vertex/edge counts read off the family drawings
COUNTS = {
    "P": (lambda p: p[0], lambda p: max(0, p[0] - 1)),
    "C": (lambda p: p[0], lambda p: p[0]),
    "D": (lambda p: p[0], lambda p: p[0]),
    "Y": (lambda p: sum(p) + 1, lambda p: sum(p)),
    "E": (lambda p: sum(p) + 3, lambda p: sum(p) + 3),
    "A": (lambda p: sum(p) + 3, lambda p: sum(p) + 3),
    "B": (lambda p: sum(p) + 4, lambda p: sum(p) + 4),
    "F1": (lambda p: sum(p) + 6, lambda p: sum(p) + 7),
    "F2": (lambda p: p[0] + 4, lambda p: p[0] + 5),
    "F3": (lambda p: p[0] + 6, lambda p: p[0] + 7),
    "F4": (lambda p: p[0] + 4, lambda p: p[0] + 5),
    "F5": (lambda p: sum(p) + 6, lambda p: sum(p) + 7),
    "F6": (lambda p: sum(p) + 7, lambda p: sum(p) + 8),
    "F7": (lambda p: p[0] + 7, lambda p: p[0] + 9),
    "F8": (lambda p: sum(p) + 9, lambda p: sum(p) + 11),
    "F9": (lambda p: sum(p) + 10, lambda p: sum(p) + 12),
    "K4e": (lambda p: 4, lambda p: 5),
}

FLOORS = {
    "P": (1,), "C": (3,), "D": (4,), "Y": (1, 1, 1), "E": (1, 1), "A": (1, 1),
    "B": (0, 1, 1), "F1": (0, 1), "F2": (1,), "F3": (0,), "F4": (0,),
    "F5": (0, 1), "F6": (0, 0, 1), "F7": (0,), "F8": (0, 0), "F9": (0, 0, 0),
    "K4e": (),
}


BUILD_GOLDEN = Path(__file__).parent / "golden" / "build_specs.tsv"


def test_build_labels_match_golden():
    """Every spec with parameters <= 12 (<= 6 for three-parameter families),
    1960 in all, builds with the vertex labels recorded in the golden file,
    one ``spec<TAB>graph6`` line each, in table order."""
    rows = [line.split("\t") for line in BUILD_GOLDEN.read_text().splitlines()]
    grid = [
        FamilySpec(fam, params)
        for fam, row in FAMILIES.items()
        for params in itertools.product(
            *[range(f, (6 if len(row.floors) == 3 else 12) + 1) for f in row.floors])
    ]
    assert [text for text, _ in rows] == [str(s) for s in grid]
    assert len(grid) == 1960
    for s, (_, want) in zip(grid, rows):
        assert graph6_write(build(s)) == want, s
    assert set(FLOORS) == set(COUNTS) == set(FAMILIES)


def grid_specs(top=8, three_param_top=4):
    for fam, floors in FLOORS.items():
        cap = three_param_top if len(floors) == 3 else top
        for params in itertools.product(*[range(f, cap + 1) for f in floors]):
            yield FamilySpec(fam, params)


@pytest.mark.parametrize("fam", sorted(COUNTS))
def test_family_counts_match_drawings(fam):
    vf, ef = COUNTS[fam]
    floors = FLOORS[fam]
    for params in itertools.product(*[range(f, f + 5) for f in floors]):
        g = build(FamilySpec(fam, params))
        assert g.n == vf(params) == sum(params) + graphcore._vertex_offset(fam), (fam, params)
        assert g.edge_count == ef(params), (fam, params)


# For each family and parameter, the edge of build(params) from the vertex
# its run hangs off to the run's first vertex, in the golden labels: its
# subdivision lengthens that run.  (u, None) hangs a new leaf off u, for an
# empty pendant run or P's far end; (None, None) adds a lone vertex to P:0
RUN_EDGES = {
    "P": lambda n: [(n - 1 if n else None, None)],
    "C": lambda n: [(1, 2)],
    "D": lambda n: [(2, 3 if n > 3 else None)],
    "Y": lambda a, b, c: [(0, 1), (0, a + 1), (0, a + b + 1)],
    "E": lambda a, b: [(1, 2), (0, a + 3)],
    "A": lambda a, b: [(1, 3), (2, a + 3)],
    "B": lambda a, b, c: [(2, 3), (a + 3, a + 4), (a + 3, a + b + 4)],
    "F1": lambda a, b: [(2, 3), (a + 3, a + 4)],
    "F2": lambda m: [(1, 2)],
    "F3": lambda m: [(2, 3)],
    "F4": lambda m: [(3, 4 if m else None)],
    "F5": lambda a, b: [(2, 3), (a + 4, a + 6)],
    "F6": lambda a, b, c: [(2, 3), (a + 3, a + 4), (a + 3, a + b + 7)],
    "F7": lambda m: [(3, 4)],
    "F8": lambda a, b: [(2, 3), (a + 4, a + 6)],
    "F9": lambda a, b, c: [(2, 3), (a + 3, a + 4), (a + 3, a + b + 7)],
    "K4e": lambda: [],
}


def lengthened(g, u, v):
    """g plus one vertex w: edge uv becomes the path u-w-v, or w hangs off u."""
    assert v is None or g.has_edge(u, v), (u, v)
    w = g.n
    edges = [e for e in g.edges() if set(e) != {u, v}]
    edges += [(x, w) for x in (u, v) if x is not None]
    return Graph.from_edges(w + 1, edges)


def test_each_parameter_is_one_run():
    for fam, (floors, moves) in FAMILIES.items():
        runs = [m.param for m in moves if isinstance(m, graphcore.Run)]
        assert sorted(runs) == list(range(len(floors))), fam


@pytest.mark.parametrize("fam", sorted(RUN_EDGES))
def test_adding_one_to_a_parameter_subdivides_its_run(fam):
    """build(p + e_i) is build(p) with one more vertex on run i, for each p
    from the floors to the floors + 3 (D from 3, past its P:2 alias)."""
    floors = (3,) if fam == "D" else FAMILIES[fam].floors
    for params in itertools.product(*[range(f, f + 4) for f in floors]):
        g = build(FamilySpec(fam, params))
        for i, (u, v) in enumerate(RUN_EDGES[fam](*params)):
            grown = build(FamilySpec(fam, params[:i] + (params[i] + 1,) + params[i + 1:]))
            assert canonical_form(grown) == canonical_form(lengthened(g, u, v)), (fam, params, i)
    assert len(RUN_EDGES[fam](*floors)) == len(floors)


def test_build_examples():
    c6 = build(fs("C", 6))
    assert (c6.n, c6.edge_count) == (6, 6)
    d4 = build(fs("D", 4))
    assert (d4.n, d4.edge_count, d4.triangle_count()) == (4, 4, 1)
    b = build(fs("B", 0, 1, 1))
    assert (b.n, b.triangle_count()) == (6, 1)
    # the two degree-3 vertices are adjacent and each carries a pendant
    deg3 = [v for v in range(b.n) if b.degrees()[v] == 3]
    assert len(deg3) == 2 and b.has_edge(*deg3)
    assert sorted(b.degrees()).count(1) == 2


def test_parameter_range_errors():
    with pytest.raises(ValueError, match="C parameter 1 must be >= 3"):
        FamilySpec("C", (2,))
    with pytest.raises(ValueError, match="takes 3 parameter"):
        FamilySpec("Y", (1, 2))
    with pytest.raises(ValueError, match="E parameter 2 must be >= 1"):
        FamilySpec("E", (1, 0))
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("Q", (1,))
    # a parameter must be an integer, not a float truncated to one
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        FamilySpec("P", (3.7,))


def test_d_aliases_resolve():
    assert build(fs("D", 2)) == build(fs("P", 2))
    assert build(fs("D", 3)) == build(fs("C", 3))


def test_is_path_graph():
    rng = random.Random(5)
    for n in range(1, 10):
        order = list(range(n))
        rng.shuffle(order)
        assert is_path_graph(build(fs("P", n)).induced(order)), n
    # n - 1 edges and no degree above 2, but disconnected; or not a tree
    for text in ("P:0", "C:3+P:1", "C:5+P:2", "P:2+P:2", "Y:1,1,1", "C:6", "K4e"):
        assert not is_path_graph(build(parse_spec_text(text))), text


@pytest.mark.parametrize("n", range(4, 12))
def test_d_structure(n):
    g = build(fs("D", n))
    assert g.triangle_count() == 1
    assert sum(1 for v in range(g.n) if g.degrees()[v] == 3) == 1


def test_delete_vertex():
    p5 = canonical_form(build(fs("P", 5)))
    assert canonical_form(build(fs("C", 6)).delete_vertex(3)) == p5
    assert canonical_form(build(fs("D", 6)).delete_vertex(0)) == p5
    assert build(fs("P", 1)).delete_vertex(0).n == 0
    with pytest.raises(IndexError):
        build(fs("P", 3)).delete_vertex(5)


def test_delete_closed_neighborhood():
    p3 = canonical_form(build(fs("P", 3)))
    assert canonical_form(build(fs("C", 6)).delete_closed_neighborhood(0)) == p3
    assert build(fs("K4e")).delete_closed_neighborhood(1).n == 0
    assert build(fs("P", 3)).delete_closed_neighborhood(1).n == 0


def test_delete_edge_and_open_neighborhoods():
    c6 = build(fs("C", 6))
    minus_e, minus_n = c6.delete_edge_and_open_neighborhoods(0, 1)
    assert canonical_form(minus_e) == canonical_form(build(fs("P", 6)))
    assert canonical_form(minus_n) == canonical_form(build(fs("P", 2)))
    p2 = build(fs("P", 2))
    minus_e, minus_n = p2.delete_edge_and_open_neighborhoods(0, 1)
    assert (minus_e.n, minus_e.edge_count, minus_n.n) == (2, 0, 0)
    # spider leg deletion: edge from the center to its single-vertex leg
    m = 4
    y = build(fs("Y", m, 2, 1))
    leaf = next(v for v in range(y.n) if y.has_edge(0, v) and y.degrees()[v] == 1)
    minus_e, minus_n = y.delete_edge_and_open_neighborhoods(0, leaf)
    assert sorted(len(c) for c in minus_e.connected_components()) == [1, m + 3]
    assert sorted(len(c) for c in minus_n.connected_components()) == [1, m - 1]
    with pytest.raises(ValueError, match="not present"):
        build(fs("P", 3)).delete_edge(0, 2)


def test_induced_keeps_only_edges_inside():
    g = build(fs("Y", 3, 2, 1))
    for keep in ([0, 1, 2], [4, 1, 6, 2], list(range(g.n))[::-1]):
        pos = {v: i for i, v in enumerate(keep)}
        inside = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
        assert g.induced(keep) == Graph.from_edges(len(keep), inside), keep


def test_canonical_form_examples():
    p3 = build(fs("P", 3))
    assert canonical_form(p3) == canonical_form(p3.induced([2, 0, 1]))
    assert canonical_form(build(fs("C", 6))) != canonical_form(build(fs("D", 6)))
    e11, a11 = build(fs("E", 1, 1)), build(fs("A", 1, 1))
    assert not isomorphic_bruteforce(e11, a11)
    assert canonical_form(e11) != canonical_form(a11)


def test_canonical_agrees_with_bruteforce_on_grid():
    pool = [build(s) for s in grid_specs(top=4, three_param_top=2)]
    pool = [g for g in pool if g.n <= 8][:40]
    for g, h in itertools.combinations(pool, 2):
        assert (canonical_form(g) == canonical_form(h)) == isomorphic_bruteforce(g, h)


def test_canonical_graph_round_trip():
    g = build(fs("B", 1, 2, 1))
    h = from_canonical_form(canonical_form(g))
    assert canonical_form(h) == canonical_form(g)
    assert isomorphic_bruteforce(g, h)


@st.composite
def graphs_with_runs(draw):
    """A catalogue shape with its labels turned and maybe reflected, v to
    +-v + k mod n, which keeps most of its runs, or a path with a few
    random chords."""
    if draw(st.booleans()):
        fam = draw(st.sampled_from(sorted(FAMILIES)))
        params = tuple(draw(st.integers(min_value=f, max_value=f + 6)) for f in FAMILIES[fam].floors)
        g = build(FamilySpec(fam, params))
        k, sign = draw(st.integers(min_value=0, max_value=g.n)), draw(st.sampled_from((1, -1)))
        return Graph.from_edges(g.n, [((sign * u + k) % g.n, (sign * v + k) % g.n) for u, v in g.edges()])
    n = draw(st.integers(min_value=1, max_value=30))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges = {(v, v + 1) for v in range(n - 1)} | {(min(e), max(e)) for e in chords if e[0] != e[1]}
    return Graph.from_edges(n, sorted(edges))


def _runs(g: Graph) -> int:
    """Each v whose edge to v + 1 joins two vertices of degree at most 2."""
    degrees = g.degrees()
    return sum(1 << v for v in range(g.n - 1)
               if g.has_edge(v, v + 1) and max(degrees[v], degrees[v + 1]) <= 2)


@given(st.one_of(random_graphs(max_vertices=14), graphs_with_runs()), st.data())
@settings(max_examples=300, deadline=None)
def test_mask_components_recounted(g, data):
    full = (1 << g.n) - 1
    # any mask, or all vertices but a few, which leaves long runs
    drop = data.draw(st.lists(st.integers(min_value=0, max_value=max(g.n - 1, 0)), max_size=3))
    mask = data.draw(st.one_of(st.integers(min_value=0, max_value=full),
                               st.just(full & ~sum(1 << v for v in set(drop)))))
    inside = [v for v in range(g.n) if mask >> v & 1]
    # components by merging labels along the edges inside the mask
    label = {v: v for v in inside}
    for u, v in g.edges():
        if u in label and v in label:
            old, new = label[u], label[v]
            label = {w: new if lab == old else lab for w, lab in label.items()}
    groups = {}
    for w in inside:
        groups.setdefault(label[w], []).append(w)
    expected = [sum(1 << w for w in members) for members in sorted(groups.values())]  # by lowest vertex
    assert mask_components(g.adj, mask) == expected
    # the run edges, all or any of them, give the same masks a stretch at a time
    runs = _runs(g)
    assert mask_components(g.adj, mask, runs) == expected
    assert mask_components(g.adj, mask, runs & data.draw(st.integers(min_value=0, max_value=full))) == expected


def test_mask_components_take_a_run_cut_at_both_ends_and_in_the_middle():
    # a 12-cycle whose vertex 0 also holds a pendant vertex 12: its run is 1..11
    g = Graph.from_edges(13, [(v, v + 1) for v in range(11)] + [(0, 11), (0, 12)])
    runs = _runs(g)
    assert runs == 0b11111111110
    mask = (1 << 13) - 1 ^ (1 << 1 | 1 << 6 | 1 << 11)
    expected = [1 | 1 << 12, 0b111100, 0b11110000000]
    assert mask_components(g.adj, mask, runs) == expected == mask_components(g.adj, mask)


@given(random_graphs(max_vertices=9), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_canonical_relabel_invariance(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    assert canonical_form(g) == canonical_form(g.induced(order))


@given(random_graphs(max_vertices=9))
@settings(max_examples=60, deadline=None)
def test_canonical_graph_is_a_fixed_point(g):
    # from_canonical_form presets the form it was read from; a fresh copy
    # of the same adjacency must compute that same form
    h = from_canonical_form(canonical_form(g))
    assert canonical_form(Graph(h.n, h.adj)) == canonical_form(g)


@given(random_graphs(max_vertices=10))
@settings(max_examples=80, deadline=None)
def test_stored_automorphisms_preserve_edges(g):
    for perm in automorphisms(g):
        assert sorted(perm) == list(range(g.n))
        assert is_automorphism(g, perm)


@given(random_graphs(max_vertices=10))
@settings(max_examples=80, deadline=None)
def test_canonical_order_relabels_to_the_canonical_form(g):
    order = canonical_order(g)
    assert sorted(order) == list(range(g.n))
    place = {v: i for i, v in enumerate(order)}
    relabeled = Graph.from_edges(g.n, [(place[u], place[v]) for u, v in g.edges()])
    assert relabeled.adj == from_canonical_form(canonical_form(g)).adj


def _closure_size(n, gens):
    """The order of the group the permutations generate: the identity
    closed under composition with each of them."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for a in gens:
            q = tuple(a[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


def test_stored_automorphisms_generate_the_group():
    # the backjump keeps the stored set small: at most n - 1 generators.
    # enumerate_graphs yields canonical labelings, so the pool also holds
    # each graph relabelled by a random.Random(6) permutation and that
    # relabelling's complement, whose searches take other branches
    pool = [g for n in range(8) for g in enumerate_graphs(EnumFilter(n))]
    pool += [Graph.empty(8), build([fs("P", 2)] * 4), build(fs("C", 8)), build([fs("C", 4)] * 2)]
    rng = random.Random(6)
    for g in pool[:]:
        order = list(range(g.n))
        rng.shuffle(order)
        r = g.induced(order)
        pool += [r, r.complement()]
    # a search that stored every block transposition regardless of the
    # automorphisms already met would store 7 generators here
    pool.append(graph6_read("FXvuo"))
    for g in pool:
        assert _closure_size(g.n, automorphisms(g)) == automorphism_count(g), graph6_write(g)
        assert len(automorphisms(g)) <= max(g.n - 1, 0), graph6_write(g)
    assert len(automorphisms(Graph.empty(20))) == 19


@st.composite
def block_graphs(draw):
    """Disjoint cliques, independent sets and complete bipartite graphs,
    then a few extra vertices each joined to some earlier vertices, the
    whole relabelled: their searches meet uniform blocks at the root and,
    once an extra vertex is fixed, below it."""
    edges, n = [], 0
    for kind, a, b in draw(st.lists(st.tuples(st.sampled_from("KIB"), st.integers(1, 4), st.integers(1, 3)),
                                    min_size=1, max_size=4)):
        if kind == "K":
            edges += itertools.combinations(range(n, n + a), 2)
        elif kind == "B":
            edges += [(u, w) for u in range(n, n + a) for w in range(n + a, n + a + b)]
            a += b
        n += a
    for x in range(n, n + draw(st.integers(0, 3))):
        edges += [(u, x) for u in draw(st.sets(st.integers(0, x - 1), max_size=x))]
        n += 1
    order = draw(st.permutations(range(n)))
    return Graph.from_edges(n, edges).induced(order)


@given(st.one_of(random_graphs(max_vertices=10), block_graphs()))
@settings(max_examples=200, deadline=None)
def test_uniform_blocks_change_no_search_result(g):
    # the same search without the shortcut walks each block's subtree
    # leaf by leaf; rows, order and stored automorphisms must not change
    for x in (g, g.complement()):
        with mock.patch.object(graphcore, "_uniform_blocks", return_value=False):
            walked = graphcore._canonical_order(x)
        assert graphcore._canonical_order(x) == walked, graph6_write(x)


def _assert_known_change_nothing(g, known):
    plain, seeded = Graph(g.n, g.adj), Graph(g.n, g.adj)
    canonize(seeded, known)
    assert canonical_form(seeded) == canonical_form(plain), graph6_write(g)
    assert canonical_order(seeded) == canonical_order(plain), graph6_write(g)
    autos = automorphisms(seeded)
    assert list(autos[:len(known)]) == list(known)
    assert group_order(g.n, autos) == group_order(g.n, automorphisms(plain)), graph6_write(g)


@given(random_graphs(max_vertices=10), st.data())
@settings(max_examples=150, deadline=None)
def test_known_automorphisms_change_no_search_result(g, data):
    # a search given automorphisms prunes by them from the start; its form,
    # order and generated group must be the unseeded search's.  They are
    # drawn two ways: some of those the unseeded search stores, or the
    # identity, and a parent's stored ones that map a non-edge {u, v} to
    # itself, which are automorphisms of the child parent + uv
    for parent in (g, g.complement()):
        gens = automorphisms(parent)
        some = st.lists(st.sampled_from(gens + (tuple(range(parent.n)),)), min_size=1, unique=True)
        _assert_known_change_nothing(parent, data.draw(some))
        non_edges = [e for e in itertools.combinations(range(parent.n), 2) if not parent.has_edge(*e)]
        if non_edges:
            u, v = data.draw(st.sampled_from(non_edges))
            child = Graph.from_edges(parent.n, parent.edges() + [(u, v)])
            known = [a for a in gens if {a[u], a[v]} == {u, v}]
            assert all(is_automorphism(child, a) for a in known), graph6_write(parent)
            _assert_known_change_nothing(child, known)


def test_uniform_blocks_end_the_search_at_the_root():
    # the empty graph, K_5,7 (whose complement K_5 + K_7 is searched) and
    # K_6: one refinement each, and each block's adjacent transpositions
    k57 = Graph.from_edges(12, [(u, w) for u in range(5) for w in range(5, 12)])
    k6 = Graph.from_edges(6, itertools.combinations(range(6), 2))
    for g, gens in ((Graph.empty(200), 199), (k57, 10), (k6, 5)):
        with mock.patch.object(graphcore, "_refine", wraps=graphcore._refine) as refine:
            assert len(automorphisms(g)) == gens
        assert refine.call_count == 1, g.n


def test_symmetric_graphs_canonicalize_fast():
    # without orbit pruning the search walks most of their n! leaves
    for g in (build([fs("P", 2)] * 8), Graph.empty(15), Graph.empty(20), Graph.empty(200)):
        start = time.perf_counter()
        canonical_form(g)
        assert time.perf_counter() - start < 1, g.n


# sha256 of one "form<TAB>repr(canonical_order)" and one
# "form<TAB>repr(automorphisms)" line per graph: every graph on 7 vertices,
# relabelled by a random.Random(7) permutation, then its complement.  The
# automorphism digests here and below were re-recorded when the search began
# pruning by orbits, and again when it began backjumping on each automorphism;
# both changed the automorphisms stored but not the forms or the orders.
FORMS_AND_ORDERS_7 = "8066ec46fb911a60f6da3a25adbd065b4e8740bc89d4d1cbd32517264d2084f4"
FORMS_AND_AUTOS_7 = "2fc93b20968e32ecab2e8f2103e724d56ca705de6daff215f6c9bdfe88de0705"


def test_canonical_forms_and_automorphisms_match_golden():
    rng = random.Random(7)
    h, orders = hashlib.sha256(), hashlib.sha256()
    for g in enumerate_graphs(EnumFilter(7)):
        order = list(range(g.n))
        rng.shuffle(order)
        r = g.induced(order)
        for x in (r, r.complement()):
            h.update(canonical_form(x) + b"\t" + repr(automorphisms(x)).encode("ascii") + b"\n")
            orders.update(canonical_form(x) + b"\t" + repr(canonical_order(x)).encode("ascii") + b"\n")
    assert (orders.hexdigest(), h.hexdigest()) == (FORMS_AND_ORDERS_7, FORMS_AND_AUTOS_7)


# sha256 over graphs on up to 13 vertices: random.Random(13) graphs on 8-13
# vertices and symmetric shapes, each relabelled by a seeded permutation,
# then its complement.  FORMS_8_13 covers the canonical bytes alone;
# FORMS_AND_ORDERS_8_13 and FORMS_AND_AUTOS_8_13 add one repr(canonical_order)
# or repr(automorphisms) per graph, as for FORMS_AND_AUTOS_7.
FORMS_8_13 = "340b26b9fee9e4f3dc7bb80a16ff3566fb86cbf5f51465ffd29b18b8f2a12c81"
FORMS_AND_ORDERS_8_13 = "729b232fdb90fd1081f661f8f6ae8123d95d29d7e9d4bdc549c40cc95dcc6ede"
FORMS_AND_AUTOS_8_13 = "32a4c779a7df7b05af16dbb0e2688fa49d78b6fefc205bf091f1ed0a0bb7c5ab"


def test_canonical_forms_past_7_vertices_match_golden():
    rng = random.Random(13)
    pool = [Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            for n in range(8, 14) for p in (0.15, 0.3, 0.45, 0.6) for _ in range(6)]
    pool += [Graph.empty(n) for n in range(14)]
    pool += [build([fs("P", 2)] * k) for k in range(1, 7)]
    pool += [build(fs("C", n)) for n in range(3, 14)]
    pool.append(Graph.from_edges(12, [(v, v + 1) for v in range(12) if v % 4 != 3]
                                 + [(v, v + 4) for v in range(8)]))
    forms, with_autos, orders = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for g in pool:
        order = list(range(g.n))
        rng.shuffle(order)
        r = g.induced(order)
        for x in (r, r.complement()):
            forms.update(canonical_form(x) + b"\n")
            with_autos.update(canonical_form(x) + b"\t" + repr(automorphisms(x)).encode("ascii") + b"\n")
            orders.update(canonical_form(x) + b"\t" + repr(canonical_order(x)).encode("ascii") + b"\n")
    assert (forms.hexdigest(), orders.hexdigest(), with_autos.hexdigest()) == (
        FORMS_8_13, FORMS_AND_ORDERS_8_13, FORMS_AND_AUTOS_8_13)


# sha256 of one "form<TAB>repr(canonical_order)" and one
# "form<TAB>repr(automorphisms)" line per graph on 14-200 vertices: long
# paths and cycles, spiders, repeated components, grids, random.Random(200)
# trees and G(n, p) graphs, each relabelled by a seeded permutation, then its
# complement.  Their refinement chains are long, so this pins the partitions
# the search refines past FORMS_AND_AUTOS_8_13.
FORMS_AND_ORDERS_LARGE = "880b92b09e5224ac4c6952ca176aaa8233b8cb988231df62fe4ec754cf669732"
FORMS_AND_AUTOS_LARGE = "33efec7df123ae748efe4996003990a2bacedc0940c63f32f84581a376b02995"


def test_canonical_forms_of_large_graphs_match_golden():
    rng = random.Random(200)

    def gnp(n, p):
        return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])

    pool = [build(parse_spec_text(text)) for text in (
        "P:200", "C:100", "Y:30,30,30", "+".join(["C:20"] * 5), "+".join(["P:2"] * 10), "D:40+E:10,10")]
    pool += [grid_graph(10, 10), grid_graph(4, 25)]
    pool += [Graph.from_edges(50, [(v, rng.randrange(v)) for v in range(1, 50)]) for _ in range(20)]
    pool += [gnp(40, 0.3), gnp(80, 0.1), gnp(30, 0.5)] + [gnp(20, 0.2) for _ in range(30)]
    h, orders = hashlib.sha256(), hashlib.sha256()
    for g in pool:
        order = list(range(g.n))
        rng.shuffle(order)
        r = g.induced(order)
        for x in (r, r.complement()):
            h.update(canonical_form(x) + b"\t" + repr(automorphisms(x)).encode("ascii") + b"\n")
            orders.update(canonical_form(x) + b"\t" + repr(canonical_order(x)).encode("ascii") + b"\n")
    assert (orders.hexdigest(), h.hexdigest()) == (FORMS_AND_ORDERS_LARGE, FORMS_AND_AUTOS_LARGE)


def _refine_reference(adj, cells):
    """The refinement rule written plainly: split the first cell that is not
    uniform against every cell, by its full count vectors, parts sorted."""
    cells = [list(c) for c in cells]
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        for ci, cell in enumerate(cells):
            sigs = {}
            for v in cell:
                sigs.setdefault(tuple((adj[v] & m).bit_count() for m in masks), []).append(v)
            if len(sigs) > 1:
                cells[ci:ci + 1] = [sigs[k] for k in sorted(sigs)]
                break
        else:
            return cells


@given(random_graphs(max_vertices=12), st.data())
@settings(max_examples=120, deadline=None)
def test_refine_is_the_plain_rule(g, data):
    labels = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    start = [c for c in ([v for v in range(g.n) if labels[v] == k] for k in range(4)) if c]

    def refine(cells):
        # _refine splits cell masks; read each back as its ascending vertex list
        masks = [sum(1 << v for v in c) for c in cells]
        graphcore._refine(g.adj, masks)
        return [[v for v in range(g.n) if m >> v & 1] for m in masks]

    out = refine(start)
    assert out == _refine_reference(g.adj, start)
    # equitable: each cell's vertices agree on their count into every cell
    for x in out:
        for y in out:
            assert len({(g.adj[v] & sum(1 << w for w in y)).bit_count() for v in x}) == 1
    # each input cell is cut into consecutive parts that keep its vertex order
    owner = {v: (i, j) for i, c in enumerate(start) for j, v in enumerate(c)}
    assert sorted(v for c in out for v in c) == list(range(g.n))
    assert all(owner[c[0]][0] <= owner[d[0]][0] for c, d in zip(out, out[1:]))
    for c in out:
        places = [owner[v] for v in c]
        assert len({i for i, _ in places}) == 1 and places == sorted(places)
    # a child node splits one vertex off an equitable cell
    ti = next((i for i, c in enumerate(out) if len(c) > 1), None)
    if ti is not None:
        v = data.draw(st.sampled_from(out[ti]))
        child = out[:ti] + [[v], [w for w in out[ti] if w != v]] + out[ti + 1:]
        assert refine(child) == _refine_reference(g.adj, child)


def test_automorphisms_come_with_the_canonical_form():
    g = build(fs("C", 6))
    with mock.patch.object(graphcore, "_canonical_order", wraps=graphcore._canonical_order) as search:
        canonical_form(g)
        assert automorphisms(g)
        assert search.call_count == 1
    assert automorphisms(Graph.empty(0)) == ()
    assert automorphisms(build(fs("Y", 3, 2, 1))) == ()  # no symmetry to find


def test_canonical_forms_separate_the_graph_atlas():
    atlas = pytest.importorskip("networkx.generators.atlas")
    rng = random.Random(1253)
    forms = set()
    for a in atlas.graph_atlas_g():
        g = Graph.from_edges(a.number_of_nodes(), a.edges())
        key = canonical_form(g)
        order = list(range(g.n))
        rng.shuffle(order)
        assert canonical_form(g.induced(order)) == key, graph6_write(g)
        forms.add(key)
    assert len(forms) == 1253


def test_complement_form_is_canonical_off_the_middle_level():
    differ = {}
    for n in range(8):
        pairs = n * (n - 1) // 2
        for g in enumerate_graphs(EnumFilter(n)):
            g = Graph(n, g.adj)  # searched afresh, not read off its enumerated form
            if complement_form(canonical_form(g)) != canonical_form(g.complement()):
                assert 2 * g.edge_count == pairs, graph6_write(g)
                differ[n, g.edge_count] = differ.get((n, g.edge_count), 0) + 1
    # why the enumerator grows the middle level instead of complementing it
    assert differ[4, 3] == 3 and differ[5, 5] >= 1


@pytest.mark.parametrize("n", range(13))
def test_complement_form_round_trips(n):
    # n = 0..12 meets every padding width of the last data byte
    rng = random.Random(n)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
    key = graph6_write(g).encode()
    assert graph6_read(complement_form(key).decode()) == g.complement()
    assert complement_form(complement_form(key)) == key


@given(random_graphs(max_vertices=9))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip(g):
    text = graph6_write(g)
    back = graph6_read(text)
    assert back.n == g.n and back.adj == g.adj


def test_graph6_round_trip_is_linear():
    k = Graph(1200, [((1 << 1200) - 1) & ~(1 << v) for v in range(1200)])
    start = time.perf_counter()
    assert graph6_read(graph6_write(k)) == k
    assert time.perf_counter() - start < 5


def test_graph6_examples():
    assert graph6_read(graph6_write(build(fs("P", 2)))).edge_count == 1
    five = graph6_read("D?{")
    assert five.n == 5
    assert graph6_write(five) == "D?{"


def test_graph6_errors():
    with pytest.raises(Graph6Error, match="offset 0"):
        graph6_read("\x1f")
    with pytest.raises(Graph6Error, match="data byte"):
        graph6_read("E?")  # n=6 needs 3 data bytes
    with pytest.raises(Graph6Error, match="oversized length header"):
        graph6_read("~??A??")
    with pytest.raises(Graph6Error):
        graph6_read("")
    # n=5 has 10 data bits: the last byte's two low bits are padding
    with pytest.raises(Graph6Error, match=r"nonzero padding bits \(byte offset 2\)"):
        graph6_read("D?@")
    with pytest.raises(Graph6Error, match=r"invalid graph6 byte 0x7f \(byte offset 2\)"):
        graph6_read("E?\x7f?")
    with pytest.raises(Graph6Error, match=r"truncated 36-bit size header \(byte offset 4\)"):
        graph6_read("~~??")
    # a non-ASCII character is refused at its first UTF-8 byte, not read as "?"
    with pytest.raises(Graph6Error, match=r"invalid graph6 byte 0xc3 \(byte offset 1\)"):
        graph6_read("C\u00e9")


@pytest.mark.parametrize("n,head", [(62, "}"), (63, "~??~")])
def test_graph6_round_trip_at_both_header_forms(n, head):
    rng = random.Random(n)
    g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
    text = graph6_write(g)
    assert text.startswith(head) and len(text) == len(head) + (n * (n - 1) // 2 + 5) // 6
    assert graph6_read(text) == g


def test_graph6_round_trip_at_the_vertex_cap_is_fast():
    # a sparse graph at MAX_BUILD_VERTICES: its text holds 8.3 million data bytes
    n = graphcore.MAX_BUILD_VERTICES
    rng = random.Random(n)
    g = Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])
    start = time.perf_counter()
    text = graph6_write(g)
    mid = time.perf_counter()
    assert graph6_read(text) == g
    seconds = (mid - start, time.perf_counter() - mid)
    assert max(seconds) < 3, seconds
