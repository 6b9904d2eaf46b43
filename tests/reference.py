"""Reference routes the tests check the library against.

They find isomorphisms by backtracking vertex assignment and share no
code with the canonical search, order permutation groups through sympy,
multiply polynomials by the schoolbook double loop, and name the basis
factors of paths and cycles by the parity split of their index.
"""

from typing import Iterator, Sequence

import pytest

from indeq.graphcore import Graph


def isomorphisms(g: Graph, h: Graph) -> Iterator[list[int]]:
    """Every vertex map from g onto h (image[u] = w) that takes g's edges
    exactly onto h's, by backtracking in order of falling degree."""
    n = g.n
    if h.n != n:
        return
    gdeg, hdeg = g.degrees(), h.degrees()
    order = sorted(range(n), key=lambda v: -gdeg[v])
    image = [-1] * n
    used = 0

    def assign(idx: int) -> Iterator[list[int]]:
        nonlocal used
        if idx == n:
            yield list(image)
            return
        u = order[idx]
        for w in range(n):
            if used >> w & 1 or hdeg[w] != gdeg[u]:
                continue
            if all(g.has_edge(u, prev) == h.has_edge(w, image[prev]) for prev in order[:idx]):
                image[u] = w
                used |= 1 << w
                yield from assign(idx + 1)
                used &= ~(1 << w)

    yield from assign(0)


def isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Isomorphism by backtracking vertex assignment; no canonical forms."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return next(isomorphisms(g, h), None) is not None


def automorphism_count(g: Graph) -> int:
    """The order of g's automorphism group, by counting its vertex maps."""
    return sum(1 for _ in isomorphisms(g, g))


def is_automorphism(g: Graph, perm: Sequence[int]) -> bool:
    """Whether the vertex map takes g's edges exactly onto g's edges."""
    edges = set(g.edges())
    return {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges


def group_order(n: int, gens) -> int:
    """The order of the group the vertex maps on n vertices generate, by
    sympy's Schreier-Sims, which shares no code with the canonical search."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perms = [combinatorics.Permutation(list(a)) for a in gens]
    return combinatorics.PermutationGroup([combinatorics.Permutation(list(range(n)))] + perms).order()


def poly_product(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The coefficients of a * b, ascending, by the schoolbook double loop;
    trailing zeros are dropped, so the zero polynomial is ()."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ci in enumerate(a):
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _two_adic(n: int) -> tuple[int, int]:
    """n = 2^t * m with m odd, by repeated halving; returns (t, m)."""
    t = 0
    while n % 2 == 0:
        n, t = n // 2, t + 1
    return t, n


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def path_factor_names(n_vertices: int) -> list[tuple[str, int]]:
    """The (kind, index) of each basis factor of I(P_n), sorted, by the
    parity split of n + 2 = 2^t * m, m odd: f~_s for s | m, s > 1, and
    for even n + 2 also f_r for r | 2^(t-1) * m, r > 1."""
    t, m = _two_adic(n_vertices + 2)
    names = [("ftilde", s) for s in _divisors(m) if s > 1]
    if t:
        names += [("f", r) for r in _divisors(2 ** (t - 1) * m) if r > 1]
    return sorted(names)


def cycle_factor_names(n: int) -> list[tuple[str, int]]:
    """The (kind, index) of each basis factor of I(C_n), sorted: f_{2^t * r}
    for r | m, 2^t * r > 1, where n = 2^t * m, m odd."""
    t, m = _two_adic(n)
    return sorted(("f", 2**t * r) for r in _divisors(m) if 2**t * r > 1)
