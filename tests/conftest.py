import pytest
from hypothesis import settings

from graphstates import orbits
from graphstates.entanglement import _cross_rank
from graphstates.graphs import (
    Graph,
    _add_vertex,
    canonical_form,
    is_connected,
    local_complement,
    relabel,
    to_graph6,
)

# One profile for every property test: the same examples on every run, no
# per-example deadline on a shared host, and a bounded example count.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("tier1")


def _connected_classes(n_max):
    """Canonical representatives of the connected isomorphism classes on
    2..n_max vertices, by n, each sorted by (edges, graph6).

    Brute force: every graph on n vertices, connected or not, extends one on
    n - 1 by a vertex, so extending all isomorphism classes by all
    neighbourhoods and keeping one graph per canonical form lists them all.
    """
    level = [Graph(1, (0,))]
    out = {}
    for n in range(2, n_max + 1):
        found = {}
        for parent in level:
            for s in range(1 << (n - 1)):
                canon = canonical_form(_add_vertex(parent, s))[0]
                found[canon.rows] = canon
        level = list(found.values())
        out[n] = tuple(sorted((g for g in level if is_connected(g)),
                              key=lambda g: (g.edge_count, to_graph6(g))))
    return out


def toggle_edge(g, a, b):
    """g with the edge {a, b} added if absent and removed if present."""
    rows = list(g.rows)
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    return Graph(g.n, tuple(rows))


@pytest.fixture(scope="session")
def connected_classes():
    """Canonical representatives of all connected isomorphism classes, n = 2..7."""
    return _connected_classes(7)


@pytest.fixture(scope="session")
def lc_classes8():
    """The members of every class of connected graphs up to 8 vertices under
    local complementation plus isomorphism, as listed by the class walk: the
    one walk of the session, which every class fixture reads."""
    return orbits._lc_classes(8)


@pytest.fixture(scope="session")
def lc_classes7(lc_classes8):
    """The classes up to 7 vertices: the first 45 of the walk up to 8, which
    lists the classes level by level."""
    return lc_classes8[:45]


@pytest.fixture(scope="session")
def classification8(lc_classes8):
    """The class records of the full classification up to 8 vertices."""
    return orbits._records(lc_classes8)


@pytest.fixture(scope="session")
def classification7(classification8):
    """The class records of the full classification up to 7 vertices: the
    first 45 rows up to 8, since the table sorts by vertex count first."""
    return classification8[:45]


@pytest.fixture(scope="session")
def schmidt_rank_list():
    """Rank for every nonempty proper subset, indexed by subset mask - 1.

    Constant along a labeled orbit; two labelings of the same graph generally
    give different lists.
    """
    def ranks(g):
        return tuple(_cross_rank(g, m) for m in range(1, g.vertex_mask()))
    return ranks


@pytest.fixture(scope="session")
def rank_list_fingerprint():
    """Sorted multiset of (smaller side size, rank) over unordered
    bipartitions; invariant under local complementation and relabeling."""
    def fingerprint(g):
        out = []
        for m in range(1 << (g.n - 1)):
            a_mask = (m << 1) | 1
            if a_mask == g.vertex_mask():
                continue
            size = a_mask.bit_count()
            out.append((min(size, g.n - size), _cross_rank(g, a_mask)))
        return tuple(sorted(out))
    return fingerprint


@pytest.fixture(scope="session")
def reference_walk():
    """The orbit of g under local complementation, and under adjacent label
    swaps too if relabel_too, by a plain breadth-first search over Graph values
    (graphs.local_complement, graphs.relabel), sorted by row tuple."""
    def walk(g, relabel_too=False):
        seen = {g}
        frontier = [g]
        while frontier:
            nxt = []
            for h in frontier:
                images = [local_complement(h, a) for a in range(h.n)]
                if relabel_too:
                    for i in range(h.n - 1):
                        perm = list(range(h.n))
                        perm[i], perm[i + 1] = i + 1, i
                        images.append(relabel(h, perm))
                for x in images:
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return sorted(seen, key=lambda x: x.rows)
    return walk
