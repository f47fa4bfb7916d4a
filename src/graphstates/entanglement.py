"""Schmidt-rank computations and entanglement bounds for graph states.

The Schmidt rank across a bipartition (A, B) equals the GF(2) rank of the
cross block of the adjacency matrix. The maximum over all bipartitions lower
bounds the Schmidt measure; the minimal number of single-qubit Pauli
measurements that disentangles the state (found by iterative-deepening
search over the graph rewrite rules) upper bounds it, and is itself at most
the minimum vertex cover size. All ranks are base-2 logarithms, i.e. plain
GF(2) ranks.

Persistency is in fact the least minimum vertex cover over the graph's LC
class.  Measuring a set M leaves, up to local Cliffords, the graph state of
a vertex-minor of G on V - M, and every vertex-minor on a set S is G'[S] for
some G' locally equivalent to G (Bouchet, Graphic presentations of isotropic
systems, JCTB 45, 1988; Oum, JCTB 95, 2005).  The state is a product state
exactly when that graph has no edges, that is when M covers G'; cover size
does not change under isomorphism.  The search below does not use this; a
test checks it against the class walk.

Whether some cut rank reaches k is one question, asked of the kernel
_full_rank_split: it is so exactly when some set A of k vertices has cut
rank k (the k vertices whose cross rows are independent in a split of rank
at least k form one), and the kernel searches for such an A by independence
of 2k vectors (see its docstring).  The maximum is the first k, from
min(floor(n/2), c) down, for which the kernel finds a set, where c is the
greedy vertex cover size: every cross edge has an end in a cover, so no cut
rank exceeds c.  The rank indices come from one walk over the sets of at
most 3 vertices that keeps the same XOR basis (rank_indices).

The same fact makes the minimum cover of a bounds query cheap: no cut rank
exceeds a cover's size, so a cover the size of the lower bound is minimum.
_bounds_parts hands the lower bound to graphs._min_cover as its floor, which
asks the one cover decision, graphs._cover_within, for k = floor,
floor + 1, ... vertices; the first cover found is minimum.

The persistency search decides whether a node, a graph G with a budget of
b measurements, can be emptied, and it needs no z measurement: a node
succeeds exactly when G has a vertex cover of at most b vertices or one of
its children by y or x succeeds with budget b - 1.  Take a smallest set M
of at most b Pauli measurements that empties G.  No vertex of M is
isolated, since M without it would empty G too.  If every measurement in M
is z, then G - M has no edges, so M is a cover of at most b vertices.
Otherwise some v in M is measured in y or x; measurements on different
qubits commute, so v can go first.  What is left is a local Clifford times
the graph state of the rule's child, and the rest of M, conjugated by that
Clifford, is still at most b - 1 Pauli measurements, which empty the child.

The search prunes by cut rank at every node, which is the lower
bound applied below the root.  A measurement takes a graph to a
vertex-minor: local complementation keeps every cut rank, and deleting one
vertex lowers any cut rank by at most 1 (Oum, Rank-width and vertex-minors,
JCTB 95, 2005).  So a node with budget b and a set of cut rank b + 1 can
never be emptied.  When b < floor(n/2) a node asks the kernel for such a
set before the cover test, which a cut rank above b would fail.
This one prune also refutes a node with more than b components with edges:
one vertex with a neighbour in each of b + 1 of them is a set of cut rank
b + 1, and those components hold at least 2(b + 1) vertices.

The search branches on one vertex of each twin set (see graphs.twin_reps):
measuring either twin in the same basis gives isomorphic graphs; for x the
two default special neighbours may differ, but any choice gives a locally
equivalent graph.  Persistency is invariant under both, so the pruning is
exact.

The node cap bounds the search at any n: it gives up with CapExceeded once
its memo holds more than SEARCH_NODE_CAP nodes, the nodes it refutes or
branches on.  The search without the prune branches on every node it
reaches that has no cover within its budget, and these include every node
the pruned search stores, since no cover is below a cut rank.  Pruned
subtrees are never entered, so the pruned search stores a subset of that
search's entries and trips the cap only on inputs where that search would.
On a 2-vCPU Xeon, odd rings up to C19 and the n = 12 gap graph
KVp`qtKGUrkO finish in under 0.02 s, and
random_connected_graph(random.Random(0), 20, 0.35) still reaches the cap, in
0.8-1.3 s.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2 import _insert, gf2_rank_of_rows
from .graphs import (
    CapExceeded,
    Graph,
    _cover_within,
    _min_cover,
    as_mask,
    greedy_vertex_cover,
    is_connected,
    twin_reps,
)
from .measurement import measure_via_lc

SCAN_CAP = 20  # vertices before lower_bound_max_rank gives up
SEARCH_NODE_CAP = 20_000  # memo entries before the persistency search gives up


class BoundsReport(NamedTuple):
    lower: int
    upper: int
    cover_size: int
    tight: bool


def _cross_rank(g: Graph, a_mask: int) -> int:
    b_mask = g.vertex_mask() & ~a_mask
    rows = g.rows
    cross = []
    while a_mask:
        low = a_mask & -a_mask
        cross.append(rows[low.bit_length() - 1] & b_mask)
        a_mask ^= low
    return gf2_rank_of_rows(cross)


def schmidt_rank(g: Graph, subset) -> int:
    """GF(2) rank of the adjacency block between the subset and its complement."""
    a_mask = as_mask(g.n, subset)
    if a_mask == 0 or a_mask == g.vertex_mask():
        raise ValueError("bipartition needs a nonempty proper vertex subset")
    return _cross_rank(g, a_mask)


def rank_indices(g: Graph) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
    """(RI_2, RI_3): for k = 2 and 3, the histogram of cut ranks over the
    unordered splits whose smaller side has k vertices.  counts[0] is the
    number of splits with rank k, down to counts[k-1] with rank 1.  An index
    is None when k > n/2 or g is not connected.

    One depth-first walk over the sets A with |A| <= 3, in vertex order,
    keeps one XOR basis of {row_a, e_a : a in A}, undone on backtracking;
    A's cut rank is its dimension minus |A| (see _full_rank_split).  When
    2k = n only the sets that hold vertex 0 count, so each split counts once.
    """
    n, rows = g.n, g.rows
    top = min(3, n // 2) if is_connected(g) else 0
    counts = [[0] * k for k in range(top + 1)]  # counts[k][k - rank]
    basis = [0] * (n + 1)

    def walk(start: int, size: int, dim: int, with0: bool) -> None:
        size += 1
        for v in range(start, n):
            s1 = _insert(basis, 1 << v)
            s2 = _insert(basis, rows[v])
            d = dim + (s1 > 0) + (s2 > 0)
            w0 = with0 or v == 0
            if size >= 2 and (2 * size < n or w0):
                counts[size][2 * size - d] += 1
            if size < top:
                walk(v + 1, size, d, w0)
            basis[s2] = 0
            basis[s1] = 0

    if top >= 2:
        walk(0, 0, 0, False)
    return tuple(tuple(counts[k]) if k <= top else None for k in (2, 3))


def _full_rank_split(rows: tuple[int, ...], n: int, k: int) -> int:
    """Mask of a vertex set A with |A| = k and cut rank k, or 0 if there is
    none (1 <= k <= n/2).

    Over GF(2), rank(Gamma[A, V - A]) = dim span{row_a, e_a : a in A} - |A|,
    so A has full rank k exactly when its 2k vectors are independent, and
    then its complement B has 2|B| vectors of dependence |B| - k = n - 2k.
    Both conditions are hereditary.  Vertices are placed in order, first on
    side A, with one XOR basis per side (keyed by leading bit, undone on
    backtracking); A must stay independent and B's dependence at most
    n - 2k.  When 2k = n, vertex 0 stays on side A.
    """
    slack = n - 2 * k
    basis_a = [0] * (n + 1)
    basis_b = [0] * (n + 1)

    def place(v: int, a_mask: int, size_a: int, size_b: int, dep_b: int) -> int:
        bit = 1 << v
        s1 = _insert(basis_a, bit)
        if s1:
            s2 = _insert(basis_a, rows[v])
            if s2:
                found = (a_mask | bit if size_a + 1 == k
                         else place(v + 1, a_mask | bit, size_a + 1, size_b, dep_b))
                basis_a[s2] = 0
                if found:
                    return found
            basis_a[s1] = 0
        if size_b == n - k or (v == 0 and slack == 0):
            return 0
        s1 = _insert(basis_b, bit)
        s2 = _insert(basis_b, rows[v])
        dep = dep_b + (not s1) + (not s2)
        found = place(v + 1, a_mask, size_a, size_b + 1, dep) if dep <= slack else 0
        basis_b[s2] = 0
        basis_b[s1] = 0
        return found

    return place(0, 0, 0, 0, 0)


def lower_bound_max_rank(g: Graph) -> int:
    """Maximum Schmidt rank over all bipartitions."""
    if g.n > SCAN_CAP:
        raise CapExceeded(f"cut-rank lower bound capped at n<={SCAN_CAP}, got n={g.n}")
    for k in range(min(g.n // 2, greedy_vertex_cover(g).bit_count()), 0, -1):
        if _full_rank_split(g.rows, g.n, k):
            return k
    return 0


def _can_disentangle(g: Graph, budget: int, memo: dict) -> bool:
    """Can budget measurements empty g?  At budget 0 the cut-rank prune
    refutes any g with an edge (then n >= 2, and an end of the edge is a
    set of cut rank 1)."""
    rows = g.rows
    if not any(rows):
        return True
    key = (rows, budget)
    # The memo holds the nodes that the search refutes or branches on; a
    # node with a cover within its budget is not stored.
    hit = memo.get(key)
    if hit is not None:
        return hit
    if budget < g.n // 2 and _full_rank_split(rows, g.n, budget + 1):
        result = False
    elif _cover_within(rows, budget) is not None:
        return True
    else:
        twins = twin_reps(rows)
        # a twin of a lesser vertex gives isomorphic children
        result = any(_can_disentangle(measure_via_lc(g, v, basis), budget - 1, memo)
                     for v in range(g.n) if rows[v] and twins[v] == v
                     for basis in ("y", "x"))
    memo[key] = result
    if len(memo) > SEARCH_NODE_CAP:
        raise CapExceeded(
            f"persistency search expanded more than {SEARCH_NODE_CAP} nodes")
    return result


def _bounds_parts(g: Graph, depth_limit: int | None) -> tuple[int, int, int]:
    """(lower, upper, cover_size); upper is the exact Pauli persistency unless
    depth_limit cut the search short, in which case it is still a valid upper
    bound (the cover size)."""
    lower = lower_bound_max_rank(g)
    cover = _min_cover(g.rows, lower).bit_count()
    memo: dict = {}
    top = cover if depth_limit is None else min(cover, depth_limit + 1)
    for depth in range(lower, top):
        if _can_disentangle(g, depth, memo):
            return lower, depth, cover
    return lower, cover, cover


def pauli_persistency(g: Graph, depth_limit: int | None = None) -> int:
    """Minimal number of single-qubit Pauli measurements that disentangles the
    graph state (graph rules, minimum-index special neighbor for x).

    When the lower bound already meets the minimum vertex cover size no search
    is needed.  Otherwise the search deepens from the lower bound.  It
    refutes a node with budget b that has a set of cut rank b + 1, found by
    the kernel, accepts one with a vertex cover of at most b vertices, and
    otherwise measures y or x at each vertex with an edge.  It raises
    CapExceeded once its memo, the nodes it refutes or branches on, holds
    more than SEARCH_NODE_CAP of them, at any n.
    """
    return _bounds_parts(g, depth_limit)[1]


def bounds(g: Graph, depth_limit: int | None = None) -> BoundsReport:
    lower, upper, cover = _bounds_parts(g, depth_limit)
    return BoundsReport(lower, upper, cover, lower == upper)

