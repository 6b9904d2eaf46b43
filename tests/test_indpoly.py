import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indeq import indpoly
from indeq.cli import main
from indeq.graphcore import FAMILIES, FamilySpec, Graph, build, graph6_write, mask_components
from indeq.indpoly import (
    BRANCH_MAX,
    FRONTIER_WIDTH,
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
    # one component: the pivot recursion packs its values
    assert independence_polynomial(g).coeffs == bruteforce_counts(g)
    assert independence_polynomial(g) == _generic_recursion(g)


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


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
    unpacked = indpoly._unpacked
    monkeypatch.setattr(indpoly, "_unpacked", lambda *args: calls.append(args) or unpacked(*args))
    assert independence_polynomial(g) == _spider_closed_form(*params)
    assert [s for _, s in calls] == [slot]


@pytest.mark.parametrize("cols", [127, 128])
def test_pivoted_ladders_match_transfer_matrix(monkeypatch, cols):
    # with no cap on branch vertices the pivot recursion answers the whole
    # ladder, 254 vertices in slots of 32 bytes or 256 in slots of 33
    monkeypatch.setattr(indpoly, "BRANCH_MAX", 1 << 30)
    assert independence_polynomial(grid_graph(2, cols)).coeffs == _grid_counts_by_transfer_matrix(2, cols)


def test_union_of_components_in_different_slots_is_the_product_of_its_parts():
    # a star's pivot leaves the empty mask: the two stars ask for it in
    # slots of 1 and 38 bytes, in one memo
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


def _frontier_route(g: Graph) -> IntPoly:
    """I(G, x) with every component, paths and cycles included, answered by
    the frontier route, whatever BRANCH_MAX and the frontier width."""
    out = IntPoly.one()
    for comp, *_ in mask_components(g.adj, (1 << g.n) - 1):
        slot = comp.bit_count() // 8 + 1
        part = indpoly._frontier_polynomial(g.adj, comp, slot)
        assert part is not None
        out *= indpoly._unpacked(part, slot)
    return out


@given(random_graphs(max_vertices=16), st.integers(min_value=0, max_value=4))
@settings(max_examples=120, deadline=None)
def test_frontier_route_matches_recursion_and_bruteforce(g, isolated):
    g = Graph.from_edges(g.n + isolated, g.edges())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indpoly, "FRONTIER_WIDTH", g.n)
        by_frontier = _frontier_route(g)
        patch.setattr(indpoly, "BRANCH_MAX", 1 << 30)
        by_recursion = independence_polynomial(g)
    assert by_frontier == by_recursion
    assert by_frontier.coeffs == bruteforce_counts(g)


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


@given(mixed_graphs(), st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=12))
@settings(max_examples=150, deadline=None)
def test_fallback_matches_bruteforce_at_every_budget(g, branch_max, width):
    # under the drawn BRANCH_MAX, memoized, closed-form, frontier and pivoted
    # components meet in one component loop; a narrow width makes the
    # frontier route decline some components and answer others
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(indpoly, "BRANCH_MAX", branch_max)
        patch.setattr(indpoly, "FRONTIER_WIDTH", width)
        assert independence_polynomial(g).coeffs == bruteforce_counts(g)


@pytest.fixture
def sweep_counter(monkeypatch):
    """The masks the evaluator has swept so far, one per component sweep."""
    calls = []

    def counting(adj, mask, runs=0):
        calls.append(mask)
        return mask_components(adj, mask, runs)

    monkeypatch.setattr(indpoly, "mask_components", counting)
    return calls


@pytest.fixture
def frontier_calls(monkeypatch):
    """The components the frontier route has been asked for so far."""
    calls = []
    route = indpoly._frontier_polynomial
    monkeypatch.setattr(indpoly, "_frontier_polynomial",
                        lambda adj, comp, slot: calls.append(comp) or route(adj, comp, slot))
    return calls


def _branch_counts(g: Graph) -> list[int]:
    """The vertices of degree 3 or more in each component of g."""
    degrees = g.degrees()
    return [sum(degrees[v] >= 3 for v in comp) for comp in g.connected_components()]


def test_catalogue_shapes_pivot_within_their_branch_bound(sweep_counter, frontier_calls):
    # so catalogue traffic never reaches the frontier route, and every pivot
    # is a branch vertex: b of them cost at most 2^(b+1) - 1 sweeps
    worst = 0
    for fam, (floors, _) in FAMILIES.items():
        for params in itertools.product(*[range(f, 9) for f in floors]):
            g = build(FamilySpec(fam, params))
            (branches,) = _branch_counts(g) or [0]
            assert branches <= BRANCH_MAX, (fam, params)
            sweep_counter.clear()
            independence_polynomial(g)
            assert len(sweep_counter) <= 2 ** (branches + 1) - 1, (fam, params)
            worst = max(worst, len(sweep_counter))
    assert worst > 1 and frontier_calls == []


def test_grids_past_branch_max_take_the_frontier_route_after_one_sweep(sweep_counter, frontier_calls):
    g = grid_graph(5, 8)
    independence_polynomial(g)
    assert len(sweep_counter) == 1 and frontier_calls == [(1 << g.n) - 1]
    # a 2 x 4 ladder has BRANCH_MAX branch vertices, its middle columns, and pivots
    sweep_counter.clear()
    assert _branch_counts(grid_graph(2, 4)) == [BRANCH_MAX]
    assert independence_polynomial(grid_graph(2, 4)).coeffs == _grid_counts_by_transfer_matrix(2, 4)
    assert 1 < len(sweep_counter) <= 2 ** (BRANCH_MAX + 1) - 1 and len(frontier_calls) == 1


@pytest.mark.parametrize("cap", ["FRONTIER_WIDTH", "MAX_FRONTIER_WORK"])
def test_component_past_a_frontier_cap_goes_back_to_the_recursion(monkeypatch, cap):
    g = grid_graph(5, 8)
    monkeypatch.setattr(indpoly, cap, 4 if cap == "FRONTIER_WIDTH" else 1 << 16)
    assert indpoly._frontier_polynomial(g.adj, (1 << g.n) - 1, g.n // 8 + 1) is None
    assert independence_polynomial(g).coeffs == _grid_counts_by_transfer_matrix(5, 8)


def test_long_closed_form_shapes_still_evaluate():
    # one pivot at the degree-3 vertex leaves only paths
    assert independence_polynomial(build(fs("D", 1200))) == cycle_polynomial(1200)
    spider = independence_polynomial(build(fs("Y", 1200, 1200, 1200)))
    fib = [0, 1]
    while len(fib) < 1203:
        fib.append(fib[-1] + fib[-2])
    # P_n has fib[n + 2] independent sets; the center is out or in
    assert spider.eval_int(1) == fib[1202] ** 3 + fib[1201] ** 3
    assert spider.degree == 1801


def test_ladder_past_the_recursion_limit_is_answered():
    # the pivot recursion takes one frame per ladder column and overflows
    # from a bare interpreter at 2 x 995; the frontier route has no frames
    assert independence_polynomial(grid_graph(2, 995)).coeffs == _grid_counts_by_transfer_matrix(2, 995)


def test_recursion_overflow_is_a_clear_error(capsys):
    # a 2 x 1500 ladder with a clique on FRONTIER_WIDTH + 2 vertices at one
    # end: the clique's frontier is too wide for the frontier route, so the
    # recursion takes the ladder one frame per column and overflows
    ladder, clique = grid_graph(2, 1500), FRONTIER_WIDTH + 2
    n = ladder.n + clique
    edges = ladder.edges() + [(0, ladder.n)] + list(itertools.combinations(range(ladder.n, n), 2))
    g = Graph.from_edges(n, edges)
    with pytest.raises(ValueError, match=f"{n} vertices is too deep"):
        independence_polynomial(g)
    assert main(["poly", graph6_write(g)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and f"{n} vertices" in captured.err
