import itertools
import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indeq import indpoly
from indeq.cli import main
from indeq.graphcore import FAMILIES, FamilySpec, Graph, build, graph6_write, mask_components
from indeq.indpoly import (
    bruteforce_counts,
    cycle_polynomial,
    independence_polynomial,
    path_polynomial,
)
from indeq.polyalg import IntPoly

from conftest import fs, grid_graph, random_graphs


def _generic_recursion(g: Graph) -> IntPoly:
    """Plain pivot recursion with no fast paths or memo (test-local oracle)."""
    if g.n == 0:
        return IntPoly.one()
    pivot = max(range(g.n), key=lambda v: (g.degrees()[v], -v))
    return _generic_recursion(g.delete_vertex(pivot)) + _generic_recursion(
        g.delete_closed_neighborhood(pivot)
    ).mul_xpow(1)


def test_examples():
    assert independence_polynomial(build(fs("P", 2))) == IntPoly((1, 2))
    assert independence_polynomial(build(fs("Y", 2, 1, 1))) == IntPoly((1, 5, 6, 2))
    assert independence_polynomial(Graph.empty(0)) == IntPoly.one()
    assert independence_polynomial(build(fs("P", 10))) == IntPoly((1, 10, 36, 56, 35, 6))
    assert independence_polynomial(build(fs("C", 6))) == IntPoly((1, 6, 9, 2))


def test_bruteforce_examples():
    assert bruteforce_counts(build(fs("P", 10)))[2] == 36
    assert bruteforce_counts(build(fs("C", 6)))[0] == 1
    assert bruteforce_counts(build(fs("F9", 0, 0, 0)))[3] == 39
    assert bruteforce_counts(build(fs("P", 3))) == (1, 3, 1)
    with pytest.raises(ValueError, match="capped"):
        bruteforce_counts(Graph.empty(41))


SMALL_GRID = [
    fs("P", 9), fs("P", 14), fs("C", 11), fs("D", 9), fs("K4e"),
    fs("Y", 4, 3, 2), fs("E", 3, 3), fs("A", 4, 2), fs("B", 2, 2, 1),
    fs("F1", 1, 2), fs("F2", 3), fs("F3", 4), fs("F4", 5), fs("F5", 2, 2),
    fs("F6", 1, 1, 2), fs("F7", 3), fs("F8", 1, 1), fs("F9", 1, 1, 1),
]


def _catalogue_grid(max_vertices, top=8, three_param_top=4):
    for fam, (floors, _) in FAMILIES.items():
        if fam == "P":
            floors = (1,)
        cap = three_param_top if len(floors) == 3 else top
        for params in itertools.product(*[range(f, cap + 1) for f in floors]):
            g = build(FamilySpec(fam, params))
            if g.n <= max_vertices:
                yield FamilySpec(fam, params), g


def test_evaluator_matches_bruteforce_across_catalogue():
    checked = 0
    for spec, g in _catalogue_grid(max_vertices=14):
        assert independence_polynomial(g) == IntPoly(bruteforce_counts(g)), spec
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("spec", SMALL_GRID, ids=str)
def test_evaluator_matches_generic_recursion(spec):
    g = build(spec)
    assert independence_polynomial(g) == _generic_recursion(g)


@pytest.mark.parametrize("n", range(1, 15))
def test_closed_forms_cross_validated(n):
    assert path_polynomial(n) == _generic_recursion(build(fs("P", n)))
    if n >= 3:
        assert cycle_polynomial(n) == _generic_recursion(build(fs("C", n)))


def _deletion_recurrence(top):
    """P_0..P_top and C_3..C_top by deleting an end vertex, then its closed
    neighborhood (test-local oracle)."""
    paths = [IntPoly.one(), IntPoly((1, 1))]
    while len(paths) <= top:
        paths.append(paths[-1] + paths[-2].mul_xpow(1))
    cycles = {n: paths[n - 1] + paths[n - 3].mul_xpow(1) for n in range(3, top + 1)}
    return paths, cycles


def test_closed_forms_match_deletion_recurrence():
    paths, cycles = _deletion_recurrence(400)
    for n, want in enumerate(paths):
        assert path_polynomial(n) == want, n
    for n, want in cycles.items():
        assert cycle_polynomial(n) == want, n


# every n up to 1500, then every 97th up to 10,000 and 10,000 itself; the
# closed forms are built uncached, so no large polynomial stays in memory
CLOSED_FORM_NS = sorted({*range(1501), *range(1501, 10_001, 97), 10_000})


def test_closed_form_values_match_integer_recurrences():
    # p_n = p_(n-1) + x p_(n-2) and c_n = p_(n-1) + x p_(n-3) at x = 1, 2, -1
    p = {}
    for x in (1, 2, -1):
        p[x] = [1, 1 + x]
        while len(p[x]) <= CLOSED_FORM_NS[-1]:
            p[x].append(p[x][-1] + x * p[x][-2])
    for n in CLOSED_FORM_NS:
        path = path_polynomial.__wrapped__(n)
        assert [path.eval_int(x) for x in p] == [p[x][n] for x in p], n
        if n >= 3:
            cycle = cycle_polynomial.__wrapped__(n)
            assert [cycle.eval_int(x) for x in p] == [p[x][n - 1] + x * p[x][n - 3] for x in p], n


@pytest.mark.parametrize("n", [4099, 9998, 9999, 10_000])
def test_closed_forms_match_sampled_binomials(n):
    path, cycle = path_polynomial.__wrapped__(n).coeffs, cycle_polynomial.__wrapped__(n).coeffs
    assert (len(path), len(cycle)) == ((n + 3) // 2, n // 2 + 1)
    for k in random.Random(n).sample(range(n // 2 + 1), 25) + [0, 1, n // 2]:
        assert path[k] == comb(n + 1 - k, k)
        assert cycle[k] * (n - k) == n * comb(n - k, k)
    assert path[-1] == comb(n + 1 - (n + 1) // 2, (n + 1) // 2)


def test_closed_forms_match_bruteforce():
    for n in range(31):
        assert path_polynomial(n).coeffs == bruteforce_counts(build(fs("P", n))), n
        if n >= 3:
            assert cycle_polynomial(n).coeffs == bruteforce_counts(build(fs("C", n))), n


def test_edge_deletion_identity_across_catalogue():
    checked = 0
    for spec, g in _catalogue_grid(max_vertices=12):
        pg = independence_polynomial(g)
        for u, v in g.edges():
            minus_e, minus_n = g.delete_edge_and_open_neighborhoods(u, v)
            rhs = independence_polynomial(minus_e) - independence_polynomial(
                minus_n
            ).mul_xpow(2)
            assert pg == rhs, (spec, u, v)
        checked += 1
    assert checked > 50


def test_equivalence_examples():
    assert independence_polynomial(build(fs("C", 6))) == independence_polynomial(build(fs("D", 6)))
    assert independence_polynomial(build(fs("P", 10))) == independence_polynomial(
        build([fs("P", 4), fs("C", 6)])
    )
    assert independence_polynomial(build(fs("C", 6))) != independence_polynomial(build(fs("C", 7)))


@pytest.mark.parametrize("n", range(4, 41))
def test_cycle_triangle_twin_battery(n):
    assert independence_polynomial(build(fs("C", n))) == independence_polynomial(build(fs("D", n)))


@pytest.mark.parametrize("n", range(2, 41))
def test_even_path_split_battery(n):
    assert independence_polynomial(build(fs("P", 2 * n))) == independence_polynomial(
        build([fs("P", n - 1), fs("C", n + 1)])
    )


@pytest.mark.parametrize("m", range(1, 21))
def test_spider_tadpole_battery(m):
    assert independence_polynomial(build(fs("Y", m, 2, 1))) == independence_polynomial(
        build([fs("P", 1), fs("C", m + 3)])
    )


def test_twin_family_grids():
    for a, b in itertools.product(range(1, 7), repeat=2):
        pa = independence_polynomial(build(fs("A", a, b)))
        assert pa == independence_polynomial(build(fs("E", a, b)))
        assert pa == independence_polynomial(build(fs("E", b, a)))
        assert independence_polynomial(build(fs("F1", a, b))) == independence_polynomial(
            build(fs("F5", a, b))
        )
    for m in range(1, 9):
        assert independence_polynomial(build(fs("F2", m))) == independence_polynomial(
            build(fs("F4", m))
        )


RECURRENCE_SERIES = [
    ("P", lambda m: [fs("P", m)], 2),
    ("C", lambda m: [fs("C", m)], 5),
    ("D", lambda m: [fs("D", m)], 4),
    ("Y:m,1,1", lambda m: [fs("Y", m, 1, 1)], 3),
    ("B:m,1,1", lambda m: [fs("B", m, 1, 1)], 2),
    ("A:m,3", lambda m: [fs("A", m, 3)], 3),
    ("F4", lambda m: [fs("F4", m)], 3),
    ("F5:2,m", lambda m: [fs("F5", 2, m)], 3),
    ("F6:2,1,m", lambda m: [fs("F6", 2, 1, m)], 3),
]


@pytest.mark.parametrize("name,make,start", RECURRENCE_SERIES, ids=lambda x: x if isinstance(x, str) else "")
def test_two_term_recurrence(name, make, start):
    for m in range(start, 21):
        lhs = independence_polynomial(build(make(m)))
        rhs = independence_polynomial(build(make(m - 1))) + independence_polynomial(
            build(make(m - 2))
        ).mul_xpow(1)
        assert lhs == rhs, (name, m)


def test_recurrence_base_cases():
    assert independence_polynomial(build(fs("Y", 1, 1, 1))) == IntPoly((1, 4, 3, 1))
    assert independence_polynomial(build(fs("B", 0, 1, 1))) == IntPoly((1, 6, 9, 3))
    assert independence_polynomial(build(fs("B", 1, 1, 1))) == IntPoly((1, 7, 14, 8, 2))


def test_repeated_calls_agree_with_each_other_and_bruteforce():
    g = build(fs("B", 2, 3, 1))
    first = independence_polynomial(g)
    again = independence_polynomial(build(fs("B", 2, 3, 1)))
    assert first == again == IntPoly(bruteforce_counts(g))


@given(random_graphs(max_vertices=16))
@settings(max_examples=80, deadline=None)
def test_evaluator_matches_bruteforce_on_random_graphs(g):
    assert independence_polynomial(g).coeffs == bruteforce_counts(g)


@st.composite
def connected_graphs(draw, max_vertices):
    """A connected graph on 1 to max_vertices vertices: a random tree, each
    vertex hung off an earlier one, plus any drawn set of further edges."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    tree = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = draw(st.integers(min_value=0, max_value=len(pairs)))
    return Graph.from_edges(n, sorted(tree) + draw(st.permutations(pairs))[:extra])


@given(connected_graphs(max_vertices=13))
@settings(max_examples=100, deadline=None)
def test_packed_recursion_matches_bruteforce_and_generic_recursion(g):
    # one component: the dynamic program packs its values
    assert independence_polynomial(g).coeffs == bruteforce_counts(g)
    assert independence_polynomial(g) == _generic_recursion(g)


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


@st.composite
def relabelled_paths_and_cycles(draw):
    """A disjoint union of paths and cycles of up to 400 vertices, with
    isolated vertices, P_2 and C_3 among the parts drawn, under a random
    labelling, so that no run bit marks their edges; and its parts."""
    long = st.tuples(st.just("P"), st.integers(1, 400)) | st.tuples(st.just("C"), st.integers(3, 400))
    parts = draw(st.lists(long | st.sampled_from([("P", 1), ("P", 2), ("C", 3)]), min_size=1, max_size=6))
    label = list(range(sum(m for _, m in parts)))
    draw(st.randoms(use_true_random=False)).shuffle(label)
    edges, start = [], 0
    for kind, m in parts:
        edges += [(label[start + i], label[start + i + 1]) for i in range(m - 1)]
        if kind == "C":
            edges.append((label[start + m - 1], label[start]))
        start += m
    return Graph.from_edges(len(label), edges), parts


@given(relabelled_paths_and_cycles())
@settings(max_examples=80, deadline=None)
def test_relabelled_paths_and_cycles_take_their_closed_forms(case):
    # a component without branch vertices is a path if it has an end, a
    # cycle if not, well past the brute-force cap
    g, parts = case
    want = IntPoly.one()
    for kind, m in parts:
        want *= path_polynomial(m) if kind == "P" else cycle_polynomial(m)
    assert independence_polynomial(g) == want


@pytest.mark.parametrize("n", [n for k in (1, 2, 4, 16, 31) for n in (8 * k - 1, 8 * k, 8 * k + 1)])
def test_packed_slots_hold_the_widest_coefficients(n):
    # a slot is n // 8 + 1 bytes, n + 1 bits at n = 8k - 1; the middle
    # coefficients of a star or a complete bipartite graph come nearest 2^n
    for a in {1, 2, n // 2}:
        b = n - a
        # I(K_(a,b)) = (1 + x)^a + (1 + x)^b - 1
        want = tuple(comb(a, k) + comb(b, k) - (k == 0) for k in range(max(a, b) + 1))
        assert independence_polynomial(_complete_bipartite(a, b)).coeffs == want, (a, b)


def _spider_closed_form(a, b, c):
    """I(Y:a,b,c): the center out, three paths; or in, three paths one shorter."""
    p = path_polynomial
    return p(a) * p(b) * p(c) + (p(a - 1) * p(b - 1) * p(c - 1)).mul_xpow(1)


@pytest.mark.parametrize("params,slot", [((85, 85, 84), 32), ((85, 85, 85), 33), ((200, 200, 200), 76)])
def test_spiders_are_packed_and_unpacked_once(monkeypatch, params, slot):
    # 255 and 256 vertices take slots of 32 and 33 bytes, 601 of 76
    g = build(FamilySpec("Y", params))
    calls = []
    unpacked = indpoly.unpack
    monkeypatch.setattr(indpoly, "unpack", lambda *args: calls.append(args) or unpacked(*args))
    assert independence_polynomial(g) == _spider_closed_form(*params)
    assert [s for _, s, _ in calls] == [slot]


@pytest.mark.parametrize("cols", [127, 128])
def test_pivoted_ladders_match_transfer_matrix(cols):
    # the ladder is one component, 254 vertices in slots of 32 bytes or 256
    # in slots of 33
    assert independence_polynomial(grid_graph(2, cols)).coeffs == _grid_counts_by_transfer_matrix(2, cols)


def test_union_of_components_in_different_slots_is_the_product_of_its_parts():
    # each component is packed in slots of its own, 1 to 76 bytes, and
    # unpacked before the product
    parts = [_complete_bipartite(1, 5), build(fs("F9", 1, 1, 1)), build(fs("Y", 200, 200, 200)),
             _complete_bipartite(1, 296)]
    offset, edges = 0, []
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    whole = independence_polynomial(Graph.from_edges(offset, edges))
    alone = [independence_polynomial(part) for part in parts]
    assert whole == alone[0] * alone[1] * alone[2] * alone[3]
    assert alone[2] == _spider_closed_form(200, 200, 200)
    assert independence_polynomial(build([fs("F9", 1, 1, 1), fs("Y", 200, 200, 200)])) == alone[1] * alone[2]


def _grid_counts_by_transfer_matrix(rows, cols):
    """Independent sets of the rows x cols grid by size, column by column
    over the independent column states (test-local oracle)."""
    states = [s for s in range(1 << rows) if not s & s >> 1]
    by_state = {0: [1]}
    for _ in range(cols):
        step = {}
        for t in states:
            size = bin(t).count("1")
            out = []
            for s, counts in by_state.items():
                if not s & t:
                    out += [0] * (len(counts) + size - len(out))
                    for k, c in enumerate(counts):
                        out[k + size] += c
            step[t] = out
        by_state = step
    total = [0] * max(map(len, by_state.values()))
    for counts in by_state.values():
        for k, c in enumerate(counts):
            total[k] += c
    return tuple(total)


@pytest.mark.parametrize(
    "rows,cols",
    [(2, k) for k in range(1, 41)] + [(2, 600), (2, 1000)] + [(5, k) for k in range(1, 11)]
    + [(6, 6), (9, 9), (10, 10)],
)
def test_grids_match_transfer_matrix(rows, cols):
    g = grid_graph(rows, cols)
    assert independence_polynomial(g).coeffs == _grid_counts_by_transfer_matrix(rows, cols)


# OEIS A006506: the number of independent sets of the n x n grid, n = 1..10
A006506 = [2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955, 770548397261707,
           2030049051145980050]


@pytest.mark.parametrize("n", range(1, 11))
def test_square_grid_totals_match_oeis(n):
    assert independence_polynomial(grid_graph(n, n)).eval_int(1) == A006506[n - 1]


@st.composite
def graphs_with_long_runs(draw):
    """A random graph on at most 8 vertices with pendant paths, runs with
    both ends on one vertex, one-vertex runs between two vertices, and each
    edge subdivided by 0 to 6 new vertices: each run is cut short, or left
    out, where it would pass 40 vertices in all."""
    base = draw(random_graphs(max_vertices=8))
    n, edges = base.n, []

    def run(u, v, length):
        # a path of length new vertices from u to v, or hung off u alone
        nonlocal n
        length = min(length, 40 - n)
        if length < (2 if u == v else 1 if v is None else 0):
            return
        path = [u] + list(range(n, n + length)) + ([v] if v is not None else [])
        n += length
        edges.extend(zip(path, path[1:]))

    if base.n:
        vertex = st.integers(min_value=0, max_value=base.n - 1)
        for u, length in draw(st.lists(st.tuples(vertex, st.integers(min_value=1, max_value=6)), max_size=3)):
            run(u, None, length)
        for u, length in draw(st.lists(st.tuples(vertex, st.integers(min_value=2, max_value=6)), max_size=2)):
            run(u, u, length)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
            if u != v:
                run(u, v, 1)
    for u, v in base.edges():
        run(u, v, draw(st.integers(min_value=0, max_value=6)))
    return Graph.from_edges(n, edges)


@given(graphs_with_long_runs())
@settings(max_examples=150, deadline=None)
def test_graphs_with_long_runs_match_bruteforce(g):
    assert independence_polynomial(g).coeffs == bruteforce_counts(g)


@given(connected_graphs(max_vertices=10), st.data())
@settings(max_examples=80, deadline=None)
def test_one_long_run_hung_off_a_small_graph_splits_on_its_attachment(h, data):
    # a run of m vertices hung off u at either of its ends, m on both
    # sides of the 64 past which a run holding most of its component
    # enters last; split on u, I(G) = I(P_m) I(H - u) + x I(P_(m-1)) I(H - N[u])
    u = data.draw(st.integers(min_value=0, max_value=h.n - 1))
    m = data.draw(st.integers(min_value=1, max_value=64) | st.integers(min_value=65, max_value=2000))
    end = data.draw(st.sampled_from((h.n, h.n + m - 1)))
    g = Graph.from_edges(h.n + m, h.edges() + [(u, end)] + [(v, v + 1) for v in range(h.n, h.n + m - 1)])
    without_u = IntPoly(bruteforce_counts(h.delete_vertex(u)))
    without_closed = IntPoly(bruteforce_counts(h.delete_closed_neighborhood(u)))
    assert independence_polynomial(g) == (
        path_polynomial(m) * without_u + (path_polynomial(m - 1) * without_closed).mul_xpow(1))


@st.composite
def mixed_graphs(draw):
    """A disjoint union, in a drawn order, of a random graph on at most 12
    vertices, a 5 x k grid or 2 x k ladder, paths, cycles and isolated
    vertices: 30 vertices at most."""
    blocks = [draw(random_graphs(max_vertices=12))]
    room = 30 - blocks[0].n
    rows = draw(st.sampled_from((2, 5)))
    blocks.append(grid_graph(rows, draw(st.integers(min_value=0, max_value=room // rows))))
    room -= blocks[-1].n
    for cycle, n in draw(st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=8)),
                                  max_size=4)):
        n = max(n, 3) if cycle else n
        if n <= room:
            edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)] * cycle
            blocks.append(Graph.from_edges(n, edges))
            room -= n
    blocks.append(Graph.from_edges(draw(st.integers(min_value=0, max_value=min(room, 3))), []))
    offset, edges = 0, []
    for block in draw(st.permutations(blocks)):
        edges += [(u + offset, v + offset) for u, v in block.edges()]
        offset += block.n
    return Graph.from_edges(offset, edges)


@given(mixed_graphs(), st.integers(min_value=0, max_value=1 << 22))
@settings(max_examples=150, deadline=None)
def test_fallback_matches_bruteforce_at_every_budget(g, budget):
    # under the drawn MAX_EVAL_WORK, closed-form and dynamic-program
    # components meet in one component loop: the graph is either answered
    # exactly or refused naming the cap, never answered wrongly
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indpoly, "MAX_EVAL_WORK", budget)
        try:
            counts = independence_polynomial(g).coeffs
        except ValueError as exc:
            assert f"MAX_EVAL_WORK = {budget} bytes" in str(exc)
        else:
            assert counts == bruteforce_counts(g)


@pytest.fixture
def sweep_counter(monkeypatch):
    """The masks the evaluator has swept so far, one per component sweep."""
    calls = []

    def counting(adj, mask, runs=0):
        calls.append(mask)
        return mask_components(adj, mask, runs)

    monkeypatch.setattr(indpoly, "mask_components", counting)
    return calls


def _assert_swept_once_and_runs_once(sweep_counter, graphs):
    # no recursion: one sweep finds the components, and one more finds the
    # runs of each component that is not a path or a cycle, whatever its
    # number of branch vertices
    for g in graphs:
        sweep_counter.clear()
        independence_polynomial(g)
        degrees = g.degrees()
        branching = sum(max(degrees[v] for v in comp) >= 3 for comp in g.connected_components())
        assert len(sweep_counter) == 1 + branching, g


def test_each_component_is_swept_once_and_its_runs_once(sweep_counter):
    shapes = [FamilySpec(fam, params) for fam, (floors, _) in FAMILIES.items()
              for params in itertools.product(*[range(f, 9) for f in floors])]
    _assert_swept_once_and_runs_once(sweep_counter, [build(spec) for spec in shapes])


def test_grids_are_swept_once_and_their_runs_once(sweep_counter):
    # the 2 x 4 ladder has four branch vertices, its middle columns, and the
    # 5 x 8 grid 28; each is one component sweep and one run sweep
    grids = [grid_graph(5, 8), grid_graph(2, 4), build(SMALL_GRID)]
    _assert_swept_once_and_runs_once(sweep_counter, grids)
    assert independence_polynomial(grid_graph(2, 4)).coeffs == _grid_counts_by_transfer_matrix(2, 4)


def test_component_past_the_work_cap_is_refused(monkeypatch, capsys):
    # a cap of 0 refuses every component with a branch vertex, before its
    # first step, and leaves paths and cycles to their closed forms
    monkeypatch.setattr(indpoly, "MAX_EVAL_WORK", 0)
    assert independence_polynomial(build([fs("P", 9), fs("C", 7)])) == path_polynomial(9) * cycle_polynomial(7)
    g = grid_graph(5, 8)
    with pytest.raises(ValueError, match=r"^a component on 40 vertices needs more than MAX_EVAL_WORK = 0 bytes"):
        independence_polynomial(g)
    assert main(["poly", graph6_write(g)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "MAX_EVAL_WORK" in captured.err


def test_components_with_wide_frontiers_are_answered():
    # the table is keyed by the vertices the chosen set blocks, not by the
    # chosen set: K_{40,40} has 2^40 independent sets on one side, yet its
    # keys are few, and the 5 x 8 grid's frontier is five cells wide
    a = b = 40
    g = Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    # (1 + x)^a + (1 + x)^b - 1: a set lies within one side, and the empty set on both
    assert independence_polynomial(g) == IntPoly([comb(a, k) + comb(b, k) - (k == 0) for k in range(a + 1)])
    assert independence_polynomial(grid_graph(5, 8)).coeffs == _grid_counts_by_transfer_matrix(5, 8)


def test_long_closed_form_shapes_still_evaluate():
    # the dynamic program's one step places the degree-3 vertex; the
    # triangle's far edge and the tail enter as closed forms of paths
    assert independence_polynomial(build(fs("D", 1200))) == cycle_polynomial(1200)
    spider = independence_polynomial(build(fs("Y", 1200, 1200, 1200)))
    fib = [0, 1]
    while len(fib) < 1203:
        fib.append(fib[-1] + fib[-2])
    # P_n has fib[n + 2] independent sets; the center is out or in
    assert spider.eval_int(1) == fib[1202] ** 3 + fib[1201] ** 3
    assert spider.degree == 1801


def test_ladder_past_the_recursion_limit_is_answered():
    # a recursion over the ladder's columns would overflow from a bare
    # interpreter at about 2 x 995; the dynamic program takes no frames
    assert independence_polynomial(grid_graph(2, 995)).coeffs == _grid_counts_by_transfer_matrix(2, 995)


def test_ladder_with_a_clique_at_one_end_is_answered():
    # a 2 x 1500 ladder whose vertex 0 joins a 14-clique, refused as too
    # deep by a recursion over the ladder: deleting that edge uv,
    # I(G) = I(G - uv) - x^2 I(G - N[u] - N[v]), where G - uv is the
    # ladder beside the clique and the clique is gone from G - N[u] - N[v]
    ladder, clique = grid_graph(2, 1500), 14
    n = ladder.n + clique
    edges = ladder.edges() + [(0, ladder.n)] + list(itertools.combinations(range(ladder.n, n), 2))
    got = independence_polynomial(Graph.from_edges(n, edges))
    whole = IntPoly(_grid_counts_by_transfer_matrix(2, 1500))
    assert got == whole * IntPoly((1, clique)) - independence_polynomial(
        ladder.delete_closed_neighborhood(0)).mul_xpow(2)


def _grid_value_by_profile(rows, cols, x):
    """I(G, x) of the rows x cols grid at the integer x, cell by cell in
    column order over the choices of the last rows cells, without
    polynomials (test-local oracle, fast at 13 rows)."""
    table, full = {0: 1}, (1 << rows) - 1
    for _ in range(cols):
        for r in range(rows):
            out = {}
            for profile, count in table.items():
                # bit 0 is the cell above, bit rows - 1 the cell to the left
                key = profile << 1 & full
                out[key] = out.get(key, 0) + count
                if not profile >> rows - 1 & 1 and not (r and profile & 1):
                    out[key | 1] = out.get(key | 1, 0) + count * x
            table = out
    return sum(table.values())


def test_profile_oracle_matches_transfer_matrix():
    for rows, cols in [(1, 1), (1, 5), (2, 7), (3, 4), (5, 6), (6, 3)]:
        counts = _grid_counts_by_transfer_matrix(rows, cols)
        for x in (1, 2, -1):
            assert _grid_value_by_profile(rows, cols, x) == sum(c * x**k for k, c in enumerate(counts))


@pytest.mark.parametrize("rows,cols", [(13, 13), (12, 50), (6, 300)])
def test_grids_past_a_12_vertex_frontier_match_the_profile_oracle(rows, cols):
    p = independence_polynomial(grid_graph(rows, cols))
    assert [p.eval_int(x) for x in (1, 2)] == [_grid_value_by_profile(rows, cols, x) for x in (1, 2)]


def test_long_pendant_path_on_a_grid_is_answered_fast():
    # a 2,000-vertex path hung off vertex 9 of a 5 x 8 grid: the run, most
    # of its component, enters as one closed form at the order's last vertex,
    # whatever the order's start; split on the hub u,
    # I(G) = I(P_m) I(H - u) + x I(P_(m-1)) I(H - N[u])
    grid, m, u = grid_graph(5, 8), 2000, 9
    edges = grid.edges() + [(u, grid.n)] + [(v, v + 1) for v in range(grid.n, grid.n + m - 1)]
    g = Graph.from_edges(grid.n + m, edges)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        got = independence_polynomial(g)
        seconds.append(time.perf_counter() - start)
    assert got == path_polynomial(m) * independence_polynomial(grid.delete_vertex(u)) + (
        path_polynomial(m - 1) * independence_polynomial(grid.delete_closed_neighborhood(u))
    ).mul_xpow(1)
    # best of three: 0.090-0.092 s on a 2-vCPU Intel Xeon host under Python
    # 3.11.7, where entering the run at its attachment took 0.21-0.22 s
    assert min(seconds) <= 0.3, seconds
