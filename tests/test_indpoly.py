import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings

from indeq.cli import main
from indeq.graphcore import FAMILIES, FamilySpec, Graph, build, graph6_write
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
    [(2, k) for k in range(1, 41)] + [(2, 600)] + [(5, k) for k in range(1, 11)] + [(6, 6)],
)
def test_grids_match_transfer_matrix(rows, cols):
    g = grid_graph(rows, cols)
    assert independence_polynomial(g).coeffs == _grid_counts_by_transfer_matrix(rows, cols)


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


def test_recursion_overflow_is_a_clear_error(capsys):
    # one frame per ladder column: 2 x 994 is answered from a bare
    # interpreter, 2 x 995 overflows there and so in any deeper caller
    ladder = grid_graph(2, 995)
    with pytest.raises(ValueError, match="1990 vertices"):
        independence_polynomial(ladder)
    assert main(["poly", graph6_write(ladder)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "1990 vertices" in captured.err
