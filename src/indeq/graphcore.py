"""Finite simple graphs, the parametric family catalogue, and isomorphism tools.

Graphs are immutable: ``n`` vertices labeled 0..n-1 and a tuple of
adjacency bitmasks.  The family catalogue covers every shape the
classifier and the screening machinery work with:

  P:n           path on n vertices (P:0 is the empty graph)
  C:n           cycle, n >= 3
  D:n           cycle with one vertex expanded into a triangle: a triangle
                with a path of n-3 vertices hanging off one corner
                (D:2 and D:3 are aliases for P:2 and C:3)
  Y:a,b,c       spider: three paths of a, b, c vertices joined at a center
  E:a,b         tadpole: cycle of a+3 vertices with a path of b vertices
                attached to one cycle vertex
  A:a,b         triangle with paths of a and b vertices attached to two
                different corners
  B:a,b,c       triangle, path of a vertices to a branch vertex carrying
                two paths of b and c vertices
  F1:a,b        triangle joined by a path of a vertices to a vertex of a
                cycle of b+3 vertices
  F2:m          cycle of m+3 vertices with an apex adjacent to two
                consecutive cycle vertices
  F3:m          two triangles joined corner-to-corner by a path of m vertices
  F4:m          K4 minus an edge with a path of m vertices on a degree-2 vertex
  F5:a,b        like F3:a with an extra path of b vertices on the far triangle
  F6:a,b,c      triangle -path(a)- branch -path(b)- triangle, with a path of
                c vertices hanging off the branch vertex
  F7:m          K4 minus an edge joined by a path of m vertices to a triangle
  F8:a,b        three triangles in a chain, spaced by paths of a and b vertices
  F9:a,b,c      central branch vertex with three arms, each a path
                (a / b / c vertices) ending in a triangle
  K4e           K4 minus an edge

Whenever a spacing parameter is 0 the two anchor vertices it separates
are adjacent.  ``FAMILIES`` states each family once: its parameter
floors and its moves.  Each parameter is the length of one run, an
induced path, so adding 1 to a parameter adds one vertex to that path
and changes nothing else.  D:2 alone is drawn as a stated alias for P:2;
D's run premise starts at 3.  Vertex labels follow the order of the
moves (triangle first, then spine, then branches) so fixtures are stable.
"""

from __future__ import annotations

import binascii
import operator
from typing import Iterable, NamedTuple, Sequence, Union


class Graph6Error(ValueError):
    """Malformed graph6 text; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Record:
    """Base of the immutable ``__slots__`` records.

    ``_fields`` names a record's constructor arguments in order: what
    pickling and copying carry and what ``repr`` prints.  ``==`` and
    ``hash`` compare records of one class by ``_key(record)``, a getter
    built once per class over the fields (one field's value bare) unless
    the class sets its own; a class with its own ``__eq__`` keeps this
    hash.  Setting or deleting any attribute raises AttributeError, so
    ``__init__`` sets the slots through ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_key" not in vars(cls):
            cls._key = operator.attrgetter(*cls._fields)
        if "__eq__" in vars(cls) and vars(cls)["__hash__"] is None:  # as Python unsets it
            cls.__hash__ = Record.__hash__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Graph(Record):
    """Immutable simple undirected graph on vertices 0..n-1."""

    # _search: (canonical order, automorphisms found) of the canonical search;
    # like _canon it is not a field, so a copy searches again
    __slots__ = ("n", "adj", "_canon", "_search")
    _fields = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_canon", None)
        object.__setattr__(self, "_search", None)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not a simple graph")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    @classmethod
    def empty(cls, n: int = 0) -> "Graph":
        return cls(n, (0,) * n)

    # -- queries --------------------------------------------------------

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u] >> u + 1 << u + 1)]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    # -- surgery ----------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for {self.n} vertices")

    def _remap(self, order: Sequence[int], keep: int) -> "Graph":
        """Graph whose new vertex i is the old vertex order[i], keeping only
        the edges into the vertex mask ``keep``."""
        pos = [0] * self.n
        for i, v in enumerate(order):
            pos[v] = i
        adj = [sum(1 << pos[u] for u in _bits(self.adj[v] & keep)) for v in order]
        return Graph(len(adj), adj)

    def subgraph_without(self, drop: Iterable[int]) -> "Graph":
        """Induced subgraph after deleting the given vertices (relabeled)."""
        drop_mask = 0
        for v in drop:
            self._check_vertex(v)
            drop_mask |= 1 << v
        keep = [v for v in range(self.n) if not (drop_mask >> v & 1)]
        return self._remap(keep, ~drop_mask)

    def delete_vertex(self, v: int) -> "Graph":
        return self.subgraph_without((v,))

    def delete_closed_neighborhood(self, v: int) -> "Graph":
        """Delete v together with all of its neighbors."""
        self._check_vertex(v)
        return self.subgraph_without(_bits(self.adj[v] | 1 << v))

    def delete_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, adj)

    def delete_edge_and_open_neighborhoods(self, u: int, v: int) -> tuple["Graph", "Graph"]:
        """For an edge uv, return (G - uv, G - (N(u) union N(v))).

        Since uv is an edge, the open-neighborhood union contains both
        endpoints, so the second graph drops u and v as well.
        """
        without_edge = self.delete_edge(u, v)
        return without_edge, self.subgraph_without(_bits(self.adj[u] | self.adj[v]))

    def induced(self, vertices: Sequence[int]) -> "Graph":
        mask = 0
        for v in vertices:
            mask |= 1 << v
        return self._remap(vertices, mask)

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [full & ~(self.adj[v] | 1 << v) for v in range(self.n)])

    # -- structure ----------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted, in order."""
        return [_bits(comp) for comp in mask_components(self.adj, (1 << self.n) - 1)]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def triangle_count(self) -> int:
        total = 0
        for u, v in self.edges():
            total += (self.adj[u] & self.adj[v]).bit_count()
        return total // 3


def mask_components(adj: Sequence[int], mask: int, runs: int = 0) -> list[int]:
    """The masks of the connected components of the subgraph that the
    adjacency rows ``adj`` induce on ``mask``, ordered by lowest vertex,
    found by one breadth-first sweep each.

    Each set bit v of ``runs`` must mark an edge v-(v + 1) between two
    vertices of degree at most 2.  The sweep takes each stretch a..b of
    such edges inside the mask in one step: an inner vertex has exactly
    its two stretch neighbours, so only the rows of a and b are read."""
    comps = []
    runs &= mask & mask >> 1
    chained = runs | runs << 1  # the vertices on a stretch
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            grow = stretches = 0
            if chained:
                stretches = frontier & chained
                frontier ^= stretches
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                grow |= adj[v]
            while stretches:
                v = (stretches & -stretches).bit_length() - 1
                up = runs >> v
                a = (~runs & (1 << v) - 1).bit_length()
                b = v + (up ^ up + 1).bit_length() - 1
                stretch = (2 << b) - (1 << a)
                stretches &= ~stretch
                comp |= stretch
                grow |= adj[a] | adj[b]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


# -- family specifications ------------------------------------------------

class Run(NamedTuple):
    """A path of ``params[param] + offset`` new vertices hung off the vertex
    that move ``anchor`` made, or a fresh path for ``anchor=None``."""

    anchor: int | None
    param: int
    offset: int


class Family(NamedTuple):
    """One catalogue family: the minimum of each parameter, and its moves.

    ``build`` makes the moves from left to right, each new vertex taking the
    next label.  A tuple of earlier move indices adds one vertex adjacent to
    the vertices those moves made.  A ``Run`` makes its path's far end, or
    its anchor when the path is empty.  A triangle is ``(), (0,), (0, 1)``
    and a ring is ``(), (0,), Run(1, i, c), (2, 0)``.
    """

    floors: tuple[int, ...]
    moves: tuple[Union[tuple[int, ...], Run], ...]


#: The family catalogue in sort order; the module docstring describes each shape.
FAMILIES: dict[str, Family] = {
    "P": Family((0,), (Run(None, 0, 0),)),
    "C": Family((3,), ((), (0,), Run(1, 0, -3), (2, 0))),
    "D": Family((2,), ((), (0,), (0, 1), Run(2, 0, -3))),
    "Y": Family((1, 1, 1), ((), Run(0, 0, 0), Run(0, 1, 0), Run(0, 2, 0))),
    "E": Family((1, 1), ((), (0,), Run(1, 0, 0), (2, 0), Run(0, 1, 0))),
    "A": Family((1, 1), ((), (0,), (0, 1), Run(1, 0, 0), Run(2, 1, 0))),
    "B": Family((0, 1, 1), ((), (0,), (0, 1), Run(2, 0, 1), Run(3, 1, 0), Run(3, 2, 0))),
    "F1": Family((0, 1), ((), (0,), (0, 1), Run(2, 0, 1), Run(3, 1, 1), (4, 3))),
    "F2": Family((1,), ((), (0,), Run(1, 0, 0), (2, 0), (0, 1))),
    "F3": Family((0,), ((), (0,), (0, 1), Run(2, 0, 1), (3,), (3, 4))),
    "F4": Family((0,), ((), (0,), (0, 1), (1, 2), Run(3, 0, 0))),
    "F5": Family((0, 1), ((), (0,), (0, 1), Run(2, 0, 1), (3,), (3, 4), Run(4, 1, 0))),
    "F6": Family((0, 0, 1), (
        (), (0,), (0, 1), Run(2, 0, 1), Run(3, 1, 1), (4,), (4, 5), Run(3, 2, 0))),
    "F7": Family((0,), ((), (0,), (0, 1), (1, 2), Run(3, 0, 1), (4,), (4, 5))),
    "F8": Family((0, 0), (
        (), (0,), (0, 1), Run(2, 0, 1), (3,), (3, 4), Run(4, 1, 1), (6,), (6, 7))),
    "F9": Family((0, 0, 0), (
        (), (0,), (0, 1), Run(2, 0, 1), Run(3, 1, 1), (4,), (4, 5), Run(3, 2, 1), (7,), (7, 8))),
    "K4e": Family((), ((), (0,), (0, 1), (1, 2))),
}

#: Each family's place in the catalogue, the first field of FamilySpec.sort_key.
_FAMILY_RANK = {name: rank for rank, name in enumerate(FAMILIES)}


class FamilySpec(Record):
    """Symbolic descriptor of one parametric graph, e.g. Y:3,2,1."""

    __slots__ = _fields = ("family", "params")

    def __init__(self, family: str, params: Iterable[int] = ()):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        params = tuple(map(operator.index, params))
        floors = FAMILIES[family].floors
        if len(params) != len(floors):
            raise ValueError(f"{family} takes {len(floors)} parameter(s), got {len(params)}")
        for slot, (p, floor) in enumerate(zip(params, floors)):
            if p < floor:
                raise ValueError(f"{family} parameter {slot + 1} must be >= {floor}, got {p}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def __str__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}:{','.join(map(str, self.params))}"

    @property
    def sort_key(self) -> tuple:
        return (_FAMILY_RANK[self.family], self.params)


#: One FamilySpec, or any iterable of them meaning a disjoint union.
SpecLike = Union[FamilySpec, Sequence[FamilySpec]]


def spec(text_family: str, *params: int) -> FamilySpec:
    return FamilySpec(text_family, tuple(params))


#: The most vertices build() draws and graph6_read() accepts in a header;
#: P_n's adjacency rows take about n^2/16 bytes.
MAX_BUILD_VERTICES = 10_000

#: The most characters of refused text, and digits of a refused count,
#: that an error message repeats.
MAX_ECHO = 40


def echo(text: str) -> str:
    """repr(text), cut to its first MAX_ECHO characters and '...'."""
    return repr(text) if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]!r}..."


def echo_number(n: int) -> str:
    """str(n), or "over 10^MAX_ECHO" ("below -10^MAX_ECHO" when n is
    negative) for a number of more than MAX_ECHO digits."""
    if abs(n) < 10**MAX_ECHO:
        return str(n)
    return f"over 10^{MAX_ECHO}" if n > 0 else f"below -10^{MAX_ECHO}"


def _vertex_offset(family: str) -> int:
    """Vertices beyond the parameter sum: one per vertex move, plus the run offsets."""
    return sum(m.offset if isinstance(m, Run) else 1 for m in FAMILIES[family].moves)


#: The one alias build draws: D:2 is P:2, not of D's triangle-and-run form.
_D2 = FamilySpec("D", (2,))


def build(specs: SpecLike) -> Graph:
    """Construct the graph described by a FamilySpec or a disjoint union of
    them; a ValueError refuses more than MAX_BUILD_VERTICES vertices."""
    if isinstance(specs, FamilySpec):
        specs = (specs,)
    n = sum(sum(s.params) + _vertex_offset(s.family) for s in specs)
    if n > MAX_BUILD_VERTICES:
        text = "+".join(map(str, specs))
        text = text if len(text) <= MAX_ECHO else echo(text)
        raise ValueError(f"{text} has {echo_number(n)} vertices, above the cap of {MAX_BUILD_VERTICES}")
    adj: list[int] = []
    for s in specs:
        made: list[int | None] = []
        for move in FAMILIES["P" if s == _D2 else s.family].moves:
            if isinstance(move, Run):
                v = None if move.anchor is None else made[move.anchor]
                for w in range(len(adj), len(adj) + s.params[move.param] + move.offset):
                    if v is None:
                        adj.append(0)
                    else:
                        adj[v] |= 1 << w
                        adj.append(1 << v)
                    v = w
            else:
                v = len(adj)
                adj.append(0)
                for u in (made[i] for i in move):
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            made.append(v)
    return Graph(len(adj), adj)


# -- path and cycle shapes --------------------------------------------------

def is_path_graph(g: Graph) -> bool:
    """True for P_n, n >= 1: connected, n - 1 edges, no degree above 2."""
    return (g.n >= 1 and g.edge_count == g.n - 1
            and all(m.bit_count() <= 2 for m in g.adj) and g.is_connected())


def is_cycle_graph(g: Graph) -> bool:
    if g.n < 3:
        return False
    return all(m.bit_count() == 2 for m in g.adj) and g.is_connected()


# -- canonical forms ---------------------------------------------------------

def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant byte identifier: equal iff the graphs are isomorphic.

    The bytes are the graph6 encoding of a canonical relabeling, so they
    decode back to a representative of the class.
    """
    if g._canon is None:
        canonize(g)
    return g._canon


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of g that its canonical search was given
    (canonize's known, first) plus those it met.

    Each is a vertex map, perm[v] being the image of v.  They generate the
    whole automorphism group: the search prunes a child only by the orbits
    of automorphisms it was given or has already met, and leaves a branch
    early only when one just met maps an explored branch onto it.  A node
    whose remaining cells are uniform blocks (cliques or independent sets,
    joined to each other all or nothing) is not searched below: its one
    leaf is read off, and when that leaf is a new best the transpositions
    of adjacent vertices within each block, which its subtree would have
    met, are stored instead; Graph.empty(n) stores n - 1.
    """
    if g._search is None:
        canonize(g)
    return g._search[1]


def canonical_order(g: Graph) -> tuple[int, ...]:
    """The vertex at each position of g's canonical labeling."""
    if g._search is None:
        canonize(g)
    return g._search[0]


def canonize(g: Graph, known: Iterable[tuple[int, ...]] = ()) -> None:
    """Run g's canonical search and store its results: g's canonical form,
    its canonical order (the vertex at each canonical position) and the
    automorphisms the search was given and found.

    known: automorphisms of g already known, as vertex maps.  The search
    starts with them as if it had met them, so orbit pruning skips the
    branches it would only revisit to find them again.  The leaves skipped
    are images of leaves explored, so the form and the order do not
    change.  Anything in known that is not an automorphism of g makes the
    search wrong.
    """
    n = g.n
    # dense graphs canonicalize faster through the complement; the
    # ordering and automorphisms found there hold for the original,
    # whose rows are the complement's rows flipped within their width
    flip = 2 * g.edge_count > n * (n - 1) // 2
    rows, order, autos = _canonical_order(g.complement() if flip else g, known)
    if flip:
        rows = [row ^ ((1 << j) - 1) for j, row in enumerate(rows, 1)]
    object.__setattr__(g, "_canon", _graph6(n, rows))
    object.__setattr__(g, "_search", (tuple(order), autos))


def from_canonical_form(key: bytes) -> Graph:
    """The graph a canonical form encodes, with that form preset.

    A graph in canonical labeling is its own canonical relabeling, so its
    canonical form is the key it was read from.
    """
    g = graph6_read(key.decode("ascii"))
    object.__setattr__(g, "_canon", key)
    return g


def complement_form(key: bytes) -> bytes:
    """The graph6 bytes of the complement of the graph key encodes, same labeling.

    For key = canonical_form(g) that is canonical_form(g.complement()) unless g
    has exactly half the pairs: canonize searches the sparser of the two, and
    at the middle each graph its own (all 3 classes with 4 vertices, 3 edges differ).
    """
    size = 1 if key[:1] != b"~" else 3 if key[1:2] != b"~" else 6
    head, n = size + size // 3, 0
    for byte in key[head - size:head]:
        n = n << 6 | byte - 63
    # sextet s is byte s + 63, its complement byte 126 - s; padding bits stay zero
    data, pad = key[head:].translate(_COMPLEMENT), -(n * (n - 1) // 2) % 6
    return key[:head] + data[:-1] + bytes([63 + ((data[-1] - 63) >> pad << pad)]) if data else key


def _refine(adj: Sequence[int], cells: list[int]) -> None:
    """Equitable refinement of an ordered partition, in place (stable, iso-invariant).

    Each cell is a vertex mask.  Until every cell is uniform against every
    cell, the first cell that is not is split by its vertices' count
    vectors into every cell, the parts in ascending order of those vectors.
    A vector is packed into one int, a field of equal width per cell, which
    orders the vectors as tuples would.
    """
    width = len(adj).bit_length()
    while True:
        for ci, cell in enumerate(cells):
            if cell & (cell - 1) == 0:
                continue
            sigs: dict[int, int] = {}
            for v in _bits(cell):
                av, sig = adj[v], 0
                for c in cells:
                    sig = sig << width | (av & c).bit_count()
                sigs[sig] = sigs.get(sig, 0) | 1 << v
            if len(sigs) > 1:
                cells[ci:ci + 1] = [sigs[k] for k in sorted(sigs)]
                break
        else:
            return


def _uniform_blocks(adj: Sequence[int], cells: list[int]) -> bool:
    """Whether the cells of an equitable partition that have more than one
    vertex are each a clique or an independent set and are pairwise joined
    completely or not at all.  Equitable, so one vertex per cell decides."""
    big = [c for c in cells if c & (c - 1)]
    for i, c in enumerate(big):
        bit = c & -c
        av = adj[bit.bit_length() - 1] | bit
        for d in big[i:]:
            m = av & d
            if m != d and m != bit & d:
                return False
    return True


def _canonical_order(g: Graph, known: Iterable[tuple[int, ...]] = ()
                     ) -> tuple[list[int], list[int], tuple[tuple[int, ...], ...]]:
    """The adjacency rows of g's canonical ordering, the ordering itself
    (the vertex at each position), and the automorphisms known (first)
    and found.

    Row k (k = 1..n-1) holds the adjacency of the k-th vertex to the
    vertices before it, the first of them in its top bit.  A smaller row
    list is more canonical.  The search's ordered partition is a list of
    cell masks, seeded with the degree classes, highest degree first.
    """
    n, adj = g.n, g.adj
    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    start = [by_degree[d] for d in sorted(by_degree, reverse=True)]

    best_key = best_order = None
    autos: list[tuple[int, ...]] = list(map(tuple, known))

    def search(cells: list[int], prefix: list[int], key: list[int]) -> int:
        # prefix: the leading singleton cells, key: their rows; both
        # extend the parent's, since refinement keeps singletons in place.
        # Returns the target position to go on from, n when unchanged
        nonlocal best_key, best_order
        _refine(adj, cells)
        ti = len(prefix)
        while ti < n and cells[ti] & (cells[ti] - 1) == 0:
            ti += 1
        # when the cells from ti on are uniform blocks, every leaf below
        # lists them each in some order and has one key; the automorphisms
        # that fix the prefix permute within them.  Take the leaf that lists
        # each in ascending order as this node's only leaf
        end = len(cells) if ti < n and _uniform_blocks(adj, cells[ti:]) else ti
        for u in [u for c in cells[len(prefix):end] for u in _bits(c)]:
            if prefix:
                au, row = adj[u], 0
                for w in prefix:
                    row = row << 1 | (au >> w & 1)
                key.append(row)
            prefix.append(u)
        if best_key is not None and key > best_key[:len(key)]:
            return n
        if len(prefix) == n:
            if best_key is None or key < best_key:
                best_key, best_order = key, prefix
                if end > ti:
                    # store what searching the blocks would have: the swap of
                    # positions i, i + 1 of a block, deepest first, unless an
                    # automorphism given or stored earlier fixes positions < i
                    # and moves i (then i and i + 1 already share an orbit; a
                    # given identity moves none)
                    firsts = {next((i for i, u in enumerate(prefix) if a[u] != u), n) for a in autos}
                    pairs = []
                    for c in cells[ti:end]:
                        pairs += range(ti, ti + c.bit_count() - 1)
                        ti += c.bit_count()
                    for i in reversed(pairs):
                        if i not in firsts:
                            perm = list(range(n))
                            perm[prefix[i]], perm[prefix[i + 1]] = prefix[i + 1], prefix[i]
                            autos.append(tuple(perm))
            elif key == best_key:
                perm = [0] * n
                for u, w in zip(prefix, best_order):
                    perm[u] = w
                autos.append(tuple(perm))
                # it maps their common ancestor's explored branch onto this
                # one, so go on from that ancestor (McKay's backjump, 1981)
                return next(i for i, (u, w) in enumerate(zip(prefix, best_order)) if u != w)
            return n
        # skip v when an earlier vertex of the target cell shares its orbit
        # under the stored automorphisms that fix the prefix (orb: v's orbit)
        target = cells[ti]
        members = _bits(target)
        orb: dict[int, set[int]] = {}
        seen = 0
        for v in members:
            for a in autos[seen:]:
                if all(a[x] == x for x in prefix):
                    orb = orb or {x: {x} for x in members}
                    for x in members:
                        o, p = orb[x], orb[a[x]]
                        if o is not p:
                            o |= p
                            orb.update(dict.fromkeys(p, o))
            seen = len(autos)
            if orb and min(orb[v]) < v:
                continue
            bit = 1 << v
            back = search(cells[:ti] + [bit, target ^ bit] + cells[ti + 1:], prefix[:], key[:])
            if back < ti:
                return back
        return n

    search(start, [], [])
    return best_key, best_order, tuple(autos)


# -- graph6 (header-less) ----------------------------------------------------

# graph6 data bytes are the base64 digits of the same sextets, moved to 63..126
_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6, _FROM_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6), bytes.maketrans(_GRAPH6, _BASE64)
_COMPLEMENT = bytes.maketrans(_GRAPH6, _GRAPH6[::-1])


def _graph6(n: int, columns: Iterable[int]) -> bytes:
    """graph6 bytes of an n-vertex graph from its upper triangle, column by
    column: column j (j = 1..n-1) holds rows 0..j-1, row 0 in its top bit."""
    # n in 1, 3 or 6 sextets, the longer forms after one or two "~"
    size = 1 if n <= 62 else 3 if n <= 258047 else 6
    head = b"~" * (size // 3) + bytes([(n >> s & 63) + 63 for s in range(6 * size - 6, -1, -6)])
    # whole 3-byte groups, four sextets each, leave encoded once 4096 bits
    # are pending, so that no shift copies more than those and one column
    pieces, pending, width = [head], 0, 0
    for j, column in enumerate(columns, 1):
        pending, width = pending << j | column, width + j
        if width >= 4096:
            keep = width % 24
            group = (pending >> keep).to_bytes((width - keep) // 8, "big")
            pieces.append(binascii.b2a_base64(group, newline=False).translate(_TO_GRAPH6))
            pending, width = pending & ((1 << keep) - 1), keep
    last = (pending << -width % 8).to_bytes((width + 7) // 8, "big")
    # the cut drops base64's "=" padding and any zero sextet past the data
    pieces.append(binascii.b2a_base64(last, newline=False).translate(_TO_GRAPH6)[:(width + 5) // 6])
    return b"".join(pieces)


def graph6_write(g: Graph) -> str:
    # column j lists rows 0..j-1, row 0 first: adj[j]'s low bits reversed
    columns = (int(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1], 2) for j in range(1, g.n))
    return _graph6(g.n, columns).decode("ascii")


def graph6_read(text: str) -> Graph:
    raw = text.strip().encode(errors="surrogatepass")
    if not raw:
        raise Graph6Error("empty graph6 string", 0)
    bad = raw.translate(None, _GRAPH6)
    if bad:
        raise Graph6Error(f"invalid graph6 byte 0x{bad[0]:02x}", raw.index(bad[0]))
    if raw[0] != 126:
        n, pos = raw[0] - 63, 1
    else:
        # "~" and 3 size bytes for n >= 63, or "~~" and 6 for n >= 258048
        bits, pos, low = (36, 8, 258048) if len(raw) < 2 or raw[1] == 126 else (18, 4, 63)
        if len(raw) < pos:
            raise Graph6Error(f"truncated {bits}-bit size header", len(raw))
        n = 0
        for byte in raw[pos - bits // 6:pos]:
            n = n << 6 | (byte - 63)
        if n < low:
            raise Graph6Error("oversized length header for small n", 0)
        if n > MAX_BUILD_VERTICES:
            raise Graph6Error(f"graph6 header states {n} vertices, above the cap of {MAX_BUILD_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(raw) - pos != need:
        raise Graph6Error(
            f"expected {need} data byte(s) for n={n}, got {len(raw) - pos}", pos
        )
    if (raw[-1] - 63) & ((1 << -nbits % 6) - 1):
        raise Graph6Error("nonzero padding bits", len(raw) - 1)
    # split the data back into _graph6's columns, each from the bytes it
    # spans; the top set bit of column j is row j - bit_length
    packed = binascii.a2b_base64(raw[pos:].translate(_FROM_GRAPH6) + b"A" * (-need % 4))
    adj = [0] * n
    for j in range(1, n):
        end = j * (j + 1) // 2
        column = int.from_bytes(packed[end - j >> 3:end + 7 >> 3], "big") >> -end % 8 & (1 << j) - 1
        while column:
            top = column.bit_length()
            column ^= 1 << top - 1
            adj[j - top] |= 1 << j
            adj[j] |= 1 << j - top
    return Graph(n, adj)
