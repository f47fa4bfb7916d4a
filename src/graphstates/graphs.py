"""Simple undirected labeled graphs on dense 0-based vertices.

Adjacency is stored as one int bitmask per vertex (bit b of rows[a] set iff
{a,b} is an edge).  Graphs are immutable values: every edit returns a new
Graph.  Vertex subsets are plain int masks throughout; helpers convert from
iterables of vertex indices.

Rows are validated once, where they enter: Graph(n, rows) itself, the
public constructors (from_edges, complete_graph, ...) and parse_graph6.
parse_graph6 checks its text (header, body length, characters, padding)
and builds through _graph: graph6 holds only the upper triangle, so a body
that passes those checks decodes to symmetric, loop-free rows.  A
function that derives a graph from a valid Graph (an edit, a relabelling, a
local complementation, an induced subgraph) builds it with _graph, which
skips the check: its arguments were checked already, and the rewrite keeps
the rows symmetric, loop-free and in range.  The orbit decode builds one
per orbit member, and the persistency search one per child it makes
(measurement.measure_via_lc).

Graph, stabilizer.PauliOp and stabilizer.LocalClifford are _Value classes:
slotted, with equality, hash, repr and pickling written out once, in
_Value.  They are not dataclasses because importing dataclasses (and the
inspect module it loads) takes longer than most commands take to run.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

CANONICAL_CAP = 10  # vertices before canonical_form gives up
RANDOM_GRAPH_DRAW_CAP = 10_000  # disconnected draws before random_connected_graph gives up


class CapExceeded(RuntimeError):
    """An operation was asked to exceed its configured size cap."""


class _Value:
    """Immutable value with the fields named in __slots__, which _key
    returns in that order.  Equal only to an instance of the same class;
    fields are set once, in __init__, through object.__setattr__."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class Graph(_Value):
    """Simple graph: symmetric bit-matrix adjacency with zero diagonal.

    Constructing a Graph validates the rows (__post_init__); graphs derived
    from a valid Graph inside this package are built by _graph without it.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]) -> None:
        _set_field(self, "n", n)
        _set_field(self, "rows", rows)
        self.__post_init__()

    def _key(self) -> tuple[int, tuple[int, ...]]:
        return self.n, self.rows

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError("need one adjacency row per vertex")
        full = (1 << self.n) - 1
        for a, r in enumerate(self.rows):
            if r & ~full:
                raise ValueError("adjacency bits outside vertex range")
            if (r >> a) & 1:
                raise ValueError("loops are not allowed")
        for a in range(self.n):
            ra = self.rows[a]
            for b in range(a + 1, self.n):
                if ((ra >> b) & 1) != ((self.rows[b] >> a) & 1):
                    raise ValueError("adjacency must be symmetric")

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for a in range(self.n):
            r = self.rows[a] >> (a + 1)
            b = a + 1
            while r:
                if r & 1:
                    out.append((a, b))
                r >>= 1
                b += 1
        return out

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def _check_vertex(self, a: int) -> None:
        if not 0 <= a < self.n:
            raise IndexError(f"vertex {a} out of range for n={self.n}")


# Bound once for _graph, which runs once per orbit member: the orbit decode
# (orbits._graphs_of) maps it over the row tuples that it zips from one
# chunk of interned row lists.  object.__setattr__ fills the slots past the
# raising _Value.__setattr__.
_new_object = object.__new__
_set_field = object.__setattr__


def _graph(n: int, rows: tuple[int, ...]) -> Graph:
    """Graph from rows known to be valid, without running __post_init__.

    Only for graphs derived from an already valid Graph; outside input goes
    through Graph(n, rows).
    """
    g = _new_object(Graph)
    _set_field(g, "n", n)
    _set_field(g, "rows", rows)
    return g


def bits_of(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def as_mask(n: int, subset) -> int:
    """Coerce an int mask or an iterable of vertex indices to a mask over
    vertices 0..n-1; IndexError for a vertex outside them."""
    if isinstance(subset, int):
        if subset & ~((1 << n) - 1):
            raise IndexError(f"vertex mask outside of range for n={n}")
        return subset
    m = 0
    for v in subset:
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range for n={n}")
        m |= 1 << v
    return m


# ---------------------------------------------------------------------------
# constructors

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for a, b in edges:
        if a == b:
            raise ValueError("loops are not allowed")
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"edge ({a},{b}) out of range")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return from_edges(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << a) for a in range(n)))


def grid_graph(n_rows: int, n_cols: int) -> Graph:
    """Rectangular lattice, vertices numbered row-major."""
    def vid(r, c):
        return r * n_cols + c
    edges = []
    for r in range(n_rows):
        for c in range(n_cols):
            if c + 1 < n_cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < n_rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return from_edges(n_rows * n_cols, edges)


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, edges)


def relabel(g: Graph, perm) -> Graph:
    """Image graph with new vertex i := old vertex perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertices")
    rows = []
    for i in range(g.n):
        old = g.rows[perm[i]]
        r = 0
        for j in range(g.n):
            if (old >> perm[j]) & 1:
                r |= 1 << j
        rows.append(r)
    return _graph(g.n, tuple(rows))


def random_connected_graph(rng, n: int, p: float = 0.5) -> Graph:
    """Sample G(n, p) conditioned on connectivity (rejection sampling).

    Raises CapExceeded after RANDOM_GRAPH_DRAW_CAP disconnected draws in a
    row, which only a small p makes likely.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if p == 0 and n >= 2:
        raise ValueError("G(n, 0) is never connected for n >= 2")
    for _ in range(RANDOM_GRAPH_DRAW_CAP):
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < p]
        g = from_edges(n, edges)
        if is_connected(g):
            return g
    raise CapExceeded(f"no connected G({n}, {p}) in {RANDOM_GRAPH_DRAW_CAP} draws")


def random_tree(rng, n: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n <= 1:
        return empty_graph(max(n, 0))
    if n == 2:
        return from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# edits

def induced_subgraph(g: Graph, subset) -> Graph:
    """Keep only the vertices in subset (order preserved) and edges inside it."""
    mask = as_mask(g.n, subset)
    keep = list(bits_of(mask))
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        r = 0
        for w in bits_of(g.rows[v] & mask):
            r |= 1 << pos[w]
        rows.append(r)
    return _graph(len(keep), tuple(rows))


def _lc_rows(rows: tuple[int, ...], a: int) -> tuple[int, ...]:
    nb = m = rows[a]
    out = list(rows)
    while m:
        low = m & -m
        out[low.bit_length() - 1] ^= nb ^ low
        m ^= low
    return tuple(out)


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighborhood of a."""
    g._check_vertex(a)
    return _graph(g.n, _lc_rows(g.rows, a))


# ---------------------------------------------------------------------------
# connectivity and coloring

def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by smallest member."""
    todo = g.vertex_mask()
    comps = []
    while todo:
        root = todo & -todo
        seen = root
        frontier = root
        while frontier:
            nxt = 0
            for v in bits_of(frontier):
                nxt |= g.rows[v]
            frontier = nxt & ~seen
            seen |= nxt
        comps.append(seen)
        todo &= ~seen
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def two_coloring(g: Graph) -> tuple[int, int] | None:
    """A proper 2-coloring as (mask0, mask1), or None iff an odd cycle exists.

    The smallest vertex of every component gets color 0, so the coloring is
    deterministic.
    """
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in bits_of(g.rows[v]):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    m0 = m1 = 0
    for v, c in enumerate(color):
        if c == 0:
            m0 |= 1 << v
        else:
            m1 |= 1 << v
    return m0, m1


# ---------------------------------------------------------------------------
# vertex covers

def _drop_vertex_edges(rows: list[int], v: int) -> None:
    bit = 1 << v
    m = rows[v]
    while m:
        low = m & -m
        rows[low.bit_length() - 1] ^= bit
        m ^= low
    rows[v] = 0


def greedy_vertex_cover(g: Graph) -> int:
    """A (not necessarily minimal) cover mask: repeatedly take a max-degree
    vertex, the least-indexed one on ties."""
    rows = list(g.rows)
    deg = [r.bit_count() for r in rows]
    cover = 0
    top = max(deg, default=0)
    while top:
        v = deg.index(top)
        bit = 1 << v
        cover |= bit
        m = rows[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            rows[w] ^= bit
            deg[w] -= 1
            m ^= low
        rows[v] = 0
        deg[v] = 0
        top = max(deg)
    return cover


def _cover_within(rows: tuple[int, ...] | list[int], k: int) -> int | None:
    """Mask of a vertex cover of at most k vertices of the graph with these
    rows, or None if it has none.  A cover holds a vertex v of highest
    degree d or else all of N(v), so the search branches on those two; and
    k vertices cover at most k*d edges, so it gives up on a graph with
    more."""
    deg = [r.bit_count() for r in rows]
    top = max(deg, default=0)
    if not top:
        return 0
    if sum(deg) > 2 * k * top:
        return None
    v = deg.index(top)
    work = list(rows)
    _drop_vertex_edges(work, v)
    found = _cover_within(work, k - 1)
    if found is not None:
        return found | 1 << v
    if top > k:
        return None
    nb = rows[v]
    work = list(rows)
    for w in bits_of(nb):
        _drop_vertex_edges(work, w)
    found = _cover_within(work, k - top)
    return None if found is None else found | nb


def _min_cover(rows: tuple[int, ...], floor: int) -> int:
    """Mask of a minimum vertex cover of the graph with these rows, given
    that none has fewer than floor vertices: the first cover found within
    floor, floor + 1, ... vertices."""
    k = floor
    while (cover := _cover_within(rows, k)) is None:
        k += 1
    return cover


def min_vertex_cover(g: Graph) -> int:
    """Mask of an exact minimum vertex cover."""
    return _min_cover(g.rows, 0)


# ---------------------------------------------------------------------------
# twins and canonical forms

def twin_reps(rows: tuple[int, ...]) -> list[int]:
    """reps[v]: the least vertex that is a twin of v, or v itself.

    Vertices u and v are twins when they have the same neighbours outside
    {u, v}.  Swapping twins is an automorphism that fixes every other vertex,
    so a search over vertices needs to branch on one vertex of each twin set
    only.  Twin-ness is an equivalence relation, so each vertex is compared
    only against the first vertex of each class found so far.
    """
    reps = []
    firsts = []
    for v, r in enumerate(rows):
        for u in firsts:
            if not (rows[u] ^ r) & ~(1 << u | 1 << v):
                break
        else:
            u = v
            firsts.append(v)
        reps.append(u)
    return reps


def _refine(rows: tuple[int, ...], cells: list[int], fresh: list[int]) -> list[int]:
    """The coarsest equitable refinement of an ordered partition.

    cells are disjoint vertex masks in order, equitable with respect to all
    but the cells in fresh.  Each round splits every cell by its vertices'
    neighbour counts into the fresh cells, the parts taking the cell's place
    in the order of their counts; the parts are the next round's fresh
    cells, and counts into any other cell are already equal across each
    cell.  Counts and their order depend only on the graph and the cells,
    never on the labels, and singletons keep their places.
    """
    base = len(rows) + 1
    while fresh:
        out = []
        split = []
        for cell in cells:
            if cell & (cell - 1):
                parts: dict[int, int] = {}
                m = cell
                while m:
                    low = m & -m
                    m ^= low
                    r = rows[low.bit_length() - 1]
                    key = 0
                    for c in fresh:
                        key = key * base + (r & c).bit_count()
                    parts[key] = parts.get(key, 0) | low
                if len(parts) > 1:
                    parts = [parts[k] for k in sorted(parts)]
                    out += parts
                    split += parts
                    continue
            out.append(cell)
        cells, fresh = out, split
    return cells


def canonical_form(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """A canonical relabeling of g plus a witnessing permutation.

    Isomorphic graphs get equal canonical graphs, and the witness maps
    canonical position i to original vertex perm[i].  The form is found by
    individualization-refinement with automorphism pruning (McKay &
    Piperno, J. Symb. Comp. 60, 2014): refine the vertex partition to an
    equitable one (_refine), individualize each vertex of its first smallest
    cell that is not one twin class in turn, and recurse.  A node whose
    cells are all singletons or twin classes is a leaf: its order relabels g
    the same whichever way the twins go.  The certificate of a leaf is its
    relabelled row tuple, and the least certificate wins.  Two leaves with
    one certificate give an automorphism; the search then drops the rest of
    the later leaf's branch below the node where the two paths part, and
    skips any child in the orbit of an explored sibling under the twin
    swaps and the automorphisms found so far that fix the path to it.
    """
    if g.n > CANONICAL_CAP:
        raise CapExceeded(f"canonical_form capped at n<={CANONICAL_CAP}, got n={g.n}")
    rows = g.rows
    n = g.n
    reps = twin_reps(rows)
    twins = [0] * n  # twins[v]: mask of v's twin class
    for v, u in enumerate(reps):
        twins[u] |= 1 << v
    for v, u in enumerate(reps):
        twins[v] = twins[u]
    leaves: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    autos: list[list[int]] = []
    best: tuple[int, ...] | None = None
    best_order: list[int] = []

    def search(cells: list[int], path: list[int]) -> int:
        """Explore a node; return the depth at which the search resumes."""
        nonlocal best, best_order
        target = 0
        for cell in cells:
            if cell & ~twins[(cell & -cell).bit_length() - 1] and (
                    not target or cell.bit_count() < target.bit_count()):
                target = cell
        if not target:
            order = [v for cell in cells for v in bits_of(cell)]
            moved = {1 << v: 1 << i for i, v in enumerate(order)}
            cert = []
            for v in order:
                r = rows[v]
                x = 0
                while r:
                    low = r & -r
                    x |= moved[low]
                    r ^= low
                cert.append(x)
            cert = tuple(cert)
            if cert not in leaves:
                leaves[cert] = (path, order)
                if best is None or cert < best:
                    best, best_order = cert, order
                return n
            first_path, first_order = leaves[cert]
            auto = [0] * n
            for u, v in zip(first_order, order):
                auto[u] = v
            autos.append(auto)
            depth = 0  # where the two paths part: the later branch repeats the first
            while first_path[depth] == path[depth]:
                depth += 1
            return depth
        depth = len(path)
        at = cells.index(target)
        explored = 0  # explored children and their images under the stabilizer
        for v in bits_of(target):
            if explored >> v & 1:
                continue
            bit = 1 << v
            child = cells[:at] + [bit, target ^ bit] + cells[at + 1:]
            resume = search(_refine(rows, child, [bit]), path + [v])
            if resume < depth:
                return resume
            explored |= bit
            gens = [a for a in autos if all(a[p] == p for p in path)]
            while True:
                grown = explored
                for u in bits_of(explored):
                    grown |= twins[u] & target
                    for a in gens:
                        grown |= 1 << a[u]
                if grown == explored:
                    break
                explored = grown
        return depth

    cells = [g.vertex_mask()] if n else []
    search(_refine(rows, cells, cells), [])
    return _graph(n, best), tuple(best_order)


# ---------------------------------------------------------------------------
# one-vertex extension

def _add_vertex(h: Graph, neighbor_mask: int) -> Graph:
    """h with a new last vertex adjacent to the vertices in neighbor_mask."""
    n = h.n + 1
    rows = [h.rows[i] | (((neighbor_mask >> i) & 1) << (n - 1)) for i in range(h.n)]
    rows.append(neighbor_mask)
    return _graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6 I/O

def to_graph6(g: Graph) -> str:
    """Standard graph6 encoding (n <= 62: single-byte size)."""
    if g.n > 62:
        raise ValueError("graph6 encoder supports n <= 62")
    out = [chr(63 + g.n)]
    group = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            group = (group << 1) | ((g.rows[i] >> j) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + group))
                group = 0
                nbits = 0
    if nbits:
        group <<= 6 - nbits
        out.append(chr(63 + group))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    head = ord(s[0]) - 63
    if head == 63:
        raise ValueError("multi-byte graph6 sizes (n > 62) are not supported")
    if not 0 <= head <= 62:
        raise ValueError(f"malformed graph6 header {s[0]!r}")
    n = head
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body of {len(body)} chars, expected {need}")
    bits = 0
    for c in body:
        v = ord(c) - 63
        if not 0 <= v < 64:
            raise ValueError(f"invalid graph6 character {c!r}")
        bits = (bits << 6) | v
    pad = 6 * need - nbits
    if pad and bits & ((1 << pad) - 1):
        raise ValueError("nonzero trailing padding bits")
    bits >>= pad
    rows = [0] * n
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return _graph(n, tuple(rows))
