"""Schmidt-rank computations and entanglement bounds for graph states.

The Schmidt rank across a bipartition (A, B) equals the GF(2) rank of the
cross block of the adjacency matrix.  The maximum over all bipartitions lower
bounds the Schmidt measure; the minimal number of single-qubit Pauli
measurements that disentangles the state (found by iterative-deepening search
over the graph rewrite rules) upper bounds it, and is itself at most the
minimum vertex cover size.  All ranks are base-2 logarithms, i.e. plain
GF(2) ranks.

Every scan over bipartitions walks unordered splits by the size k of the
smaller side (_splits).  The maximum is scanned from k = min(floor(n/2), c)
down, where c is the minimum vertex cover size: every cross edge has an end
in the cover, so no cut rank exceeds c, and the r cross rows that give a
split rank r give a split with smaller side r that reaches it.  A split with
smaller side k has rank at most k, so a class stops as soon as one split
reaches k, and the scan stops at the first k that is no more than the best
rank found, since no smaller class can beat it.  A star thus ends at its
first split.

The search branches on one vertex of each twin set (see graphs.twin_reps):
measuring either twin in the same basis gives isomorphic graphs; for x the
two default special neighbours may differ, but any choice gives a locally
equivalent graph.  Persistency is invariant under both, so the pruning is
exact.

Nodes with a budget of one measurement are settled without branching.  One
that gets that far is not a star (its greedy cover exceeds 1) and has one
component with edges.  A graph that one measurement empties has every cut
rank at most 1, so that component is in the GHZ class, whose connected
local-complementation orbit holds only the stars and the complete graph.
So the node succeeds exactly when its edged vertices form a clique, which y
at any of them empties.

The search's only bound is its node cap: it gives up with CapExceeded once
its memo holds more than SEARCH_NODE_CAP nodes, whatever n is.  Every
benchmark and classification input stays below 1,100 nodes, odd rings up to
C13 finish in seconds, and gap graphs at n = 12 that would otherwise run for
minutes stop in about a second (KVp`qtKGUrkO: 0.8-1.4 s on a 2-vCPU Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import gf2_rank_of_rows
from .graphs import (
    CapExceeded,
    Graph,
    _graph,
    as_mask,
    bits_of,
    connected_components,
    greedy_vertex_cover,
    is_connected,
    min_vertex_cover,
    to_graph6,
    twin_reps,
    two_coloring,
)
from .measurement import measure_via_lc

SCAN_CAP = 20  # vertices before the bipartition scan gives up
SEARCH_NODE_CAP = 20_000  # memo entries before the persistency search gives up


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: int
    cover_size: int
    tight: bool


@dataclass(frozen=True)
class RankIndex:
    """Histogram of ranks over the bipartitions with smaller side k.

    counts[0] is the number of splits with rank k, counts[1] with rank k-1,
    down to counts[k-1] with rank 1.
    """

    k: int
    counts: tuple[int, ...]


def _check_bipartition(g: Graph, a_mask: int) -> None:
    if a_mask == 0 or a_mask == g.vertex_mask():
        raise ValueError("bipartition needs a nonempty proper vertex subset")


def _cross_rank(g: Graph, a_mask: int) -> int:
    b_mask = g.vertex_mask() & ~a_mask
    rows = g.rows
    cross = []
    while a_mask:
        low = a_mask & -a_mask
        cross.append(rows[low.bit_length() - 1] & b_mask)
        a_mask ^= low
    return gf2_rank_of_rows(cross, g.n)


def _splits(n: int, k: int):
    """Smaller side A of every unordered split of n vertices with |A| = k,
    for 1 <= k <= n/2, as masks in increasing numeric order.  When 2k = n,
    vertex 0 stays on side A so that each split is listed once."""
    fixed = 0
    if 2 * k == n:  # vertex 0 on side A: choose the other k - 1 from 1..n-1
        n, k, fixed = n - 1, k - 1, 1
    if k == 0:
        yield fixed
        return
    m = (1 << k) - 1
    while m >> n == 0:  # Gosper's hack: the next larger mask with k bits
        yield m << fixed | fixed
        lsb = m & -m
        ripple = m + lsb
        m = ripple | ((m ^ ripple) >> 2) // lsb


def schmidt_rank(g: Graph, subset) -> int:
    """GF(2) rank of the adjacency block between the subset and its complement."""
    a_mask = as_mask(g.n, subset)
    _check_bipartition(g, a_mask)
    return _cross_rank(g, a_mask)


def rank_index(g: Graph, k: int) -> RankIndex:
    """Rank histogram over all unordered bipartitions with smaller side k."""
    if k not in (2, 3):
        raise ValueError("rank indices are tabulated for k = 2 or 3")
    if k > g.n // 2:
        raise ValueError(f"k={k} exceeds floor(n/2) for n={g.n}")
    if not is_connected(g):
        raise ValueError("rank_index expects a connected graph")
    counts = [0] * k
    for a_mask in _splits(g.n, k):
        counts[k - _cross_rank(g, a_mask)] += 1
    return RankIndex(k, tuple(counts))


def lower_bound_max_rank(g: Graph) -> int:
    """Maximum Schmidt rank over all bipartitions."""
    if g.n > SCAN_CAP:
        raise CapExceeded(f"bipartition scan capped at n<={SCAN_CAP}, got n={g.n}")
    best = 0
    for k in range(min(g.n // 2, min_vertex_cover(g).bit_count()), 0, -1):
        if k <= best:
            break  # no split with smaller side k can beat best
        for a_mask in _splits(g.n, k):
            r = _cross_rank(g, a_mask)
            if r > best:
                best = r
                if best == k:
                    break
    return best


def _components_with_edges(g: Graph) -> int:
    return sum(1 for comp in connected_components(g)
               if any(g.rows[v] for v in bits_of(comp)))


def _can_disentangle(g: Graph, budget: int, memo: dict) -> bool:
    if all(r == 0 for r in g.rows):
        return True
    if budget <= 0:
        return False
    rows = g.rows
    key = (rows, budget)
    hit = memo.get(key)  # the memo holds only nodes that passed both checks below
    if hit is not None:
        return hit
    if greedy_vertex_cover(g).bit_count() <= budget:
        return True
    if _components_with_edges(g) > budget:
        return False
    result = False
    if budget == 1:
        # one edged component that is not a star: only a clique is one
        # measurement (y at any of its vertices) from empty
        edged = 0
        for r in rows:
            edged |= r
        result = all(r == 0 or r | 1 << v == edged for v, r in enumerate(rows))
    else:
        twins = twin_reps(rows)
        for v in range(g.n):
            # a twin of a lesser vertex gives isomorphic children
            if rows[v] == 0 or twins[v] != v:
                continue
            if any(_can_disentangle(measure_via_lc(g, v, basis), budget - 1, memo)
                   for basis in ("z", "y", "x")):
                result = True
                break
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
    cover = min_vertex_cover(g).bit_count()
    if lower == cover:
        return lower, lower, cover
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
    is needed.  Otherwise the search settles nodes with one measurement left
    in closed form (one succeeds exactly when its edges form a star or a
    clique), and the node cap is its only bound: it raises CapExceeded after
    SEARCH_NODE_CAP memo entries, at any n.
    """
    return _bounds_parts(g, depth_limit)[1]


def bounds(g: Graph, depth_limit: int | None = None) -> BoundsReport:
    lower, upper, cover = _bounds_parts(g, depth_limit)
    return BoundsReport(lower, upper, cover, lower == upper)


def max_rank_criterion(g: Graph, subset) -> bool:
    """Sufficient test for a bipartition to reach the maximal Schmidt rank
    min(|A|, |B|).

    Component-wise on the cross subgraph: every component must be acyclic and
    have at most one leaf in its smaller side, which forces that component's
    cross block to full rank min(|A and C|, |B and C|); those per-component
    maxima must additionally add up to min(|A|, |B|) (isolated or lopsided
    components would otherwise leave rank on the table).
    """
    a_mask = as_mask(g.n, subset)
    _check_bipartition(g, a_mask)
    b_mask = g.vertex_mask() & ~a_mask
    cross_rows = tuple(
        (g.rows[v] & b_mask) if (a_mask >> v) & 1 else (g.rows[v] & a_mask)
        for v in range(g.n))
    cross = _graph(g.n, cross_rows)
    rank_sum = 0
    for comp in connected_components(cross):
        verts = list(bits_of(comp))
        edges = sum(cross.rows[v].bit_count() for v in verts) // 2
        if edges >= len(verts):
            return False  # a cycle
        in_a = (comp & a_mask).bit_count()
        in_b = (comp & b_mask).bit_count()
        if in_a < in_b:
            small_sides = (comp & a_mask,)
        elif in_b < in_a:
            small_sides = (comp & b_mask,)
        else:
            small_sides = (comp & a_mask, comp & b_mask)
        if not any(sum(1 for v in bits_of(side)
                       if cross.rows[v].bit_count() == 1) <= 1
                   for side in small_sides):
            return False
        rank_sum += min(in_a, in_b)
    return rank_sum == min(a_mask.bit_count(), b_mask.bit_count())


def two_colorable_bounds(g: Graph) -> tuple[int, int]:
    """(lower, upper) Schmidt-measure bounds special to 2-colorable graphs:
    half the adjacency rank, and the size of the smaller color class."""
    coloring = two_coloring(g)
    if coloring is None:
        raise ValueError("graph has an odd cycle, not 2-colorable")
    rank = gf2_rank_of_rows(g.rows, g.n)
    lower = (rank + 1) // 2
    upper = min(coloring[0].bit_count(), coloring[1].bit_count())
    return lower, upper


def bounds_record(g: Graph, depth_limit: int | None = None) -> dict:
    """Flat record used for CSV/JSON rendering of a bounds query."""
    rep = bounds(g, depth_limit)
    connected = is_connected(g)
    record = {
        "graph6": to_graph6(g),
        "lower": rep.lower,
        "upper": rep.upper,
        "cover_size": rep.cover_size,
        "tight": rep.tight,
        "RI_2": rank_index(g, 2).counts if connected and 2 <= g.n // 2 else None,
        "RI_3": rank_index(g, 3).counts if connected and 3 <= g.n // 2 else None,
        "two_colorable": two_coloring(g) is not None,
    }
    return record
