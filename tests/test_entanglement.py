"""Schmidt ranks, rank indices, bounds, and the persistency search."""

import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from graphstates import entanglement, measurement, oracle
from graphstates.entanglement import (
    SCAN_CAP,
    SEARCH_NODE_CAP,
    bounds,
    lower_bound_max_rank,
    pauli_persistency,
    rank_indices,
    schmidt_rank,
)
from graphstates.gf2 import gf2_rank_of_rows
from graphstates.graphs import (
    CapExceeded,
    Graph,
    bits_of,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    from_edges,
    greedy_vertex_cover,
    grid_graph,
    is_connected,
    local_complement,
    min_vertex_cover,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_tree,
    relabel,
    star_graph,
    to_graph6,
    two_coloring,
)
from graphstates.measurement import measure_via_lc
from graphstates.orbits import lc_equivalent
from conftest import toggle_edge
from test_gf2 import gauss_jordan_kernel

BOUNDS_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "bounds_pool.json"


def _mask(vs):
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def test_rank_even_ring_alternating_pairs():
    # the split {0,1,4,6,8,...} of an even ring reaches the maximal rank n/2
    c18 = cycle_graph(18)
    a = [0, 1] + list(range(4, 17, 2))
    assert len(a) == 9
    assert schmidt_rank(c18, a) == 9


def test_rank_star_always_one():
    g = star_graph(7)
    for m in range(1, (1 << 7) - 1):
        assert schmidt_rank(g, m) == 1


def test_rank_single_vertex():
    assert schmidt_rank(path_graph(4), [2]) == 1


def test_rank_symmetric_in_sides():
    rng = random.Random(18)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        m = rng.randrange(1, g.vertex_mask())
        assert schmidt_rank(g, m) == schmidt_rank(g, g.vertex_mask() ^ m)


def test_rank_rejects_improper_subsets():
    with pytest.raises(ValueError):
        schmidt_rank(path_graph(3), 0)
    with pytest.raises(ValueError):
        schmidt_rank(path_graph(3), 0b111)


def test_rank_index_star_seven():
    assert rank_indices(star_graph(7)) == ((0, 21), (0, 0, 35))


def test_rank_index_counts_sum():
    rng = random.Random(19)
    for _ in range(20):
        ri_2, ri_3 = rank_indices(random_connected_graph(rng, 7))
        assert sum(ri_2) == 21
        assert sum(ri_3) == 35
    assert sum(rank_indices(cycle_graph(6))[1]) == 10  # halves counted once


def test_rank_indices_are_none_past_half_the_vertices_or_when_disconnected():
    for n in range(4):
        assert rank_indices(path_graph(n)) == (None, None)
    assert rank_indices(path_graph(4)) == ((2, 1), None)  # rank 2: {0,2}, {0,3}; 1: {0,1}
    assert rank_indices(cycle_graph(5)) == ((10, 0), None)  # every pair has rank 2
    two_paths = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert rank_indices(two_paths) == (None, None)


def test_lower_bound_examples():
    assert lower_bound_max_rank(path_graph(2)) == 1
    assert lower_bound_max_rank(cycle_graph(6)) == 3
    assert lower_bound_max_rank(path_graph(4)) == 2


def _reference_cross_rank(g, a_mask):
    """Cut rank by the kernel dimension of the cross block, found by the
    Gauss-Jordan reference, so independent of gf2._insert."""
    b_mask = g.vertex_mask() & ~a_mask
    rows = [g.rows[v] & b_mask for v in bits_of(a_mask)]
    return g.n - len(gauss_jordan_kernel(rows, g.n))


def _reference_max_rank(g):
    """The mask-order scan: every split with vertex 0 on side A, in numeric
    order, stopping at floor(n/2)."""
    best = 0
    for m in range(1 << max(g.n - 1, 0)):
        a_mask = (m << 1) | 1
        if a_mask >= g.vertex_mask():
            continue
        best = max(best, _reference_cross_rank(g, a_mask))
        if best == g.n // 2:
            break
    return best


def _reference_rank_index(g, k):
    counts = [0] * k
    for combo in itertools.combinations(range(g.n), k):
        if 2 * k == g.n and combo[0] != 0:
            continue
        counts[k - _reference_cross_rank(g, _mask(combo))] += 1
    return tuple(counts)


def _reference_rank_indices(g):
    return tuple(_reference_rank_index(g, k) if k <= g.n // 2 and is_connected(g) else None
                 for k in (2, 3))


def _labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for keep in range(1 << len(pairs)):
        yield from_edges(n, [e for i, e in enumerate(pairs) if (keep >> i) & 1])


def test_lower_bound_matches_mask_order_scan_on_all_small_labelled_graphs():
    for n in range(0, 6):
        for g in _labelled_graphs(n):
            assert lower_bound_max_rank(g) == _reference_max_rank(g), g.rows


def test_lower_bound_and_rank_index_match_references_on_connected_classes(connected_classes):
    for n, classes in connected_classes.items():
        for g in classes:
            assert lower_bound_max_rank(g) == _reference_max_rank(g), g.rows
            assert rank_indices(g) == _reference_rank_indices(g), g.rows


def test_lower_bound_matches_mask_order_scan_on_random_graphs():
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randrange(0, 13)
        p = rng.choice((0.0, 0.1, 0.2, 0.35, 0.5, 0.8))
        g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        assert lower_bound_max_rank(g) == _reference_max_rank(g), (n, g.rows)
    for n in (3, 8, 12):
        assert lower_bound_max_rank(empty_graph(n)) == 0 == _reference_max_rank(empty_graph(n))
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(6, 13), 0.3)
        assert rank_indices(g) == _reference_rank_indices(g), g.rows


def test_lower_bound_scan_starts_at_the_cover(monkeypatch):
    # no cut rank exceeds a vertex cover: the star's scan is one kernel call
    calls = []
    real = entanglement._full_rank_split

    def counting(rows, n, k):
        calls.append(k)
        return real(rows, n, k)

    monkeypatch.setattr(entanglement, "_full_rank_split", counting)
    assert lower_bound_max_rank(star_graph(20)) == 1
    assert calls == [1]


def _brute_full_rank(g, k):
    return any(entanglement._cross_rank(g, _mask(a)) == k
               for a in itertools.combinations(range(g.n), k))


def _check_full_rank_split(g):
    for k in range(1, g.n // 2 + 1):
        a_mask = entanglement._full_rank_split(g.rows, g.n, k)
        assert bool(a_mask) == _brute_full_rank(g, k), (g.rows, k)
        if a_mask:
            assert a_mask.bit_count() == k
            assert entanglement._cross_rank(g, a_mask) == k


def test_full_rank_split_matches_brute_force_on_all_small_labelled_graphs():
    for n in range(0, 7):
        for g in _labelled_graphs(n):
            _check_full_rank_split(g)


def test_full_rank_split_matches_brute_force_on_random_graphs():
    rng = random.Random(36)
    for _ in range(150):
        n = rng.randrange(7, 13)
        p = rng.random()
        _check_full_rank_split(
            from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))


def test_lower_bound_at_twenty_vertices():
    # symmetric inputs whose top (floor(n/2) or the greedy cover) is far
    # above their largest cut rank
    k10 = complete_graph(10)
    barbell = from_edges(20, k10.edges() + [(a + 10, b + 10) for a, b in k10.edges()] + [(9, 10)])
    cases = [
        (complete_graph(20), 1),
        (from_edges(20, [(a, b) for a in range(10) for b in range(10, 20)]), 2),
        (barbell, 3),
        (from_edges(20, [(a, b) for a in range(3) for b in range(3, 20)]), 2),
        (random_tree(random.Random(0), 20), 9),
        (grid_graph(4, 5), 10),
    ]
    for g, rank in cases:
        assert lower_bound_max_rank(g) == rank


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@given(_small_graphs())
def test_one_measurement_lowers_each_cut_rank_by_at_most_one(g):
    # the lemma behind the search's cut-rank prune: a measured graph is a
    # vertex-minor, and deleting a vertex costs any cut rank at most 1
    for v in range(g.n):
        for basis in ("z", "y", "x"):
            h = measure_via_lc(g, v, basis)
            for a_mask in range(1, g.vertex_mask()):
                if a_mask >> v & 1:
                    continue
                rank = entanglement._cross_rank(g, a_mask)
                # x at an isolated vertex leaves the graph as it is
                if h.n == g.n:
                    a_h = a_mask
                else:
                    # deleting v moves every later vertex down one label
                    a_h = _mask(u - (u > v) for u in bits_of(a_mask))
                    assert _mask(u + (u >= v) for u in bits_of(a_h)) == a_mask
                assert entanglement._cross_rank(h, a_h) in (rank, rank - 1)


@given(_small_graphs(), st.data())
def test_rank_indices_match_the_reference_and_survive_lc_and_relabelling(g, data):
    want = _reference_rank_indices(g)
    assert rank_indices(g) == want
    for v in range(g.n):
        assert rank_indices(local_complement(g, v)) == want
    perm = data.draw(st.permutations(range(g.n)))
    assert rank_indices(relabel(g, perm)) == want


@given(_small_graphs())
def test_cut_rank_is_symmetric_and_unchanged_by_local_complementation(g):
    full = g.vertex_mask()
    images = [local_complement(g, v) for v in range(g.n)]
    for a_mask in range(1, full):
        r = entanglement._cross_rank(g, a_mask)
        assert entanglement._cross_rank(g, full ^ a_mask) == r
        assert all(entanglement._cross_rank(h, a_mask) == r for h in images)


def test_lower_bound_scan_cap():
    with pytest.raises(CapExceeded):
        lower_bound_max_rank(path_graph(SCAN_CAP + 1))
    assert lower_bound_max_rank(cycle_graph(SCAN_CAP)) == SCAN_CAP // 2


@pytest.mark.parametrize("cap, call", [
    (oracle.STATE_CAP, oracle.graph_state),
    (oracle.TRACE_FORM_CAP, lambda g: oracle.verify_partial_trace_form(g, 1)),
    (SCAN_CAP, lower_bound_max_rank),
], ids=["STATE_CAP", "TRACE_FORM_CAP", "SCAN_CAP"])
def test_caps_fail_fast_on_symmetric_graphs(cap, call):
    # symmetric inputs are where an exponential path would show: the cap
    # must be checked before any work
    for g in (complete_graph(cap + 1), empty_graph(cap + 1)):
        with pytest.raises(CapExceeded):
            call(g)
    accepted = [complete_graph(cap), empty_graph(cap)]
    if cap >= 10:
        accepted.append(petersen_graph())
    for g in accepted:
        call(g)  # no CapExceeded


# One member of each class up to n = 8 whose persistency a search without
# the y basis overstates, with the class's persistency.  Representatives and
# the bounds pool all happen to be searched right without y.
Y_NEEDED = [("FGE^?", 3), ("F@QFw", 3), ("GGCZCK", 3), ("G@TclO", 4), ("GGC^Cw", 3),
            ("G_F`ps", 3), ("G@^EL_", 4), ("GGCZC{", 3), ("G`NEH{", 3), ("GK?G^{", 3),
            ("G@QF~{", 3)]


def test_persistency_examples():
    assert pauli_persistency(star_graph(6)) == 1
    assert pauli_persistency(cycle_graph(6)) == 3
    # odd ring: one more measurement than the rank bound suggests
    assert lower_bound_max_rank(cycle_graph(5)) == 2
    assert pauli_persistency(cycle_graph(5)) == 3
    for graph6, upper in Y_NEEDED:
        assert pauli_persistency(parse_graph6(graph6)) == upper, graph6


def test_persistency_single_y_on_complete_graph():
    assert pauli_persistency(complete_graph(7)) == 1


def test_bounds_on_random_trees_are_tight_at_the_cover():
    rng = random.Random(20)
    for _ in range(30):
        t = random_tree(rng, rng.randrange(2, 11))
        rep = bounds(t)
        cover = min_vertex_cover(t).bit_count()
        assert rep.tight
        assert rep.lower == rep.upper == rep.cover_size == cover


def test_bounds_grid_2x3():
    rep = bounds(grid_graph(2, 3))
    assert rep.tight and rep.lower == rep.upper == 3


def test_bounds_odd_ring_gap():
    rep = bounds(cycle_graph(5))
    assert (rep.lower, rep.upper, rep.cover_size, rep.tight) == (2, 3, 3, False)


def test_persistency_odd_rings():
    # gap cases above n = 7, settled by the cut-rank prune
    for n in range(9, 21, 2):
        assert pauli_persistency(cycle_graph(n)) == (n + 1) // 2


def test_persistency_of_a_gap_graph_at_twelve_vertices():
    # G(12, 0.35) with lower 6 and cover 7; without the cut-rank prune the
    # search reaches the node cap
    g = parse_graph6("KVp`qtKGUrkO")
    assert (lower_bound_max_rank(g), min_vertex_cover(g).bit_count()) == (6, 7)
    assert pauli_persistency(g) == 7


def test_persistency_node_cap():
    g = random_connected_graph(random.Random(0), 20, 0.35)
    assert (lower_bound_max_rank(g), min_vertex_cover(g).bit_count()) == (10, 12)
    with pytest.raises(CapExceeded, match=str(SEARCH_NODE_CAP)):
        pauli_persistency(g)


def _reference_can_disentangle(g, budget, memo):
    """The persistency search without twin pruning or node cap."""
    if all(r == 0 for r in g.rows):
        return True
    if budget <= 0:
        return False
    if greedy_vertex_cover(g).bit_count() <= budget:
        return True
    with_edges = [c for c in connected_components(g) if any(g.rows[v] for v in bits_of(c))]
    if len(with_edges) > budget:
        return False
    key = (g.rows, budget)
    if key not in memo:
        memo[key] = any(
            _reference_can_disentangle(measure_via_lc(g, v, basis), budget - 1, memo)
            for v in range(g.n) if g.rows[v] for basis in ("z", "y", "x"))
    return memo[key]


def _disjoint_union(g, h):
    return from_edges(g.n + h.n, g.edges() + [(a + g.n, b + g.n) for a, b in h.edges()])


@pytest.mark.parametrize("g, emptied", [
    (complete_graph(2), False), (path_graph(3), False), (cycle_graph(5), False),
    (empty_graph(3), True),
], ids=["K2", "P3", "C5", "edgeless3"])
def test_budget_zero_empties_only_an_edgeless_graph(g, emptied):
    # no guard for budget 0: the cut-rank prune asks the kernel for a set of
    # cut rank 1, which any edge gives
    assert entanglement._can_disentangle(g, 0, {}) is emptied


def test_budget_one_nodes_match_the_reference(connected_classes):
    rng = random.Random(35)
    graphs = [g for n in range(6) for g in _labelled_graphs(n)]
    for n in range(2, 8):
        graphs += [relabel(g, rng.sample(range(n), n)) for g in connected_classes[n]]
    small = [g for n in range(2, 5) for g in connected_classes[n]]
    graphs += [_disjoint_union(g, h) for g in small for h in small]
    graphs += [complete_graph(n) for n in range(3, 8)] + [star_graph(n) for n in range(2, 8)]
    near_misses = [toggle_edge(star_graph(n), 1, 2) for n in range(4, 8)]
    for g in near_misses:
        assert not entanglement._can_disentangle(g, 1, {})
    for g in graphs + near_misses:
        assert entanglement._can_disentangle(g, 1, {}) == _reference_can_disentangle(g, 1, {}), g.rows


def _reference_persistency(g):
    cover = min_vertex_cover(g).bit_count()
    memo = {}
    return next((d for d in range(cover) if _reference_can_disentangle(g, d, memo)), cover)


def test_pruned_search_matches_reference_on_small_graphs(connected_classes):
    # the disjoint unions hold nodes with more edged components than their
    # budget b >= 2, which the search refutes by cut rank and the reference
    # by counting
    rng = random.Random(31)
    graphs = [g for n in range(2, 7) for g in connected_classes[n] for _ in range(2)]
    small = [g for n in range(2, 5) for g in connected_classes[n]]
    tiny = [g for n in range(2, 4) for g in connected_classes[n]]
    searched = [g for g in connected_classes[5]
                if lower_bound_max_rank(g) < min_vertex_cover(g).bit_count()]
    graphs += [_disjoint_union(g, h) for g, h in itertools.combinations_with_replacement(small, 2)]
    graphs += [_disjoint_union(_disjoint_union(g, h), k)
               for g, h, k in itertools.combinations_with_replacement(tiny, 3)]
    graphs += [_disjoint_union(g, h) for g in searched for h in tiny]
    for g in graphs:
        h = relabel(g, rng.sample(range(g.n), g.n))
        assert pauli_persistency(h) == _reference_persistency(h), h.rows


def _is_star_or_complete(g):
    degrees = sorted(r.bit_count() for r in g.rows)
    return degrees in ([1] * (g.n - 1) + [g.n - 1], [g.n - 1] * g.n)


def test_connected_graphs_with_every_cut_rank_at_most_one_are_stars_or_complete(connected_classes):
    # the nodes of budget 1 that pass the cut-rank prune: such a graph is in
    # the GHZ class, where the cover test accepts a star and y at any vertex
    # empties a clique
    found = 0
    for n in range(2, 8):
        for g in connected_classes[n]:
            ghz = _is_star_or_complete(g)
            assert (lower_bound_max_rank(g) <= 1) == ghz, g.rows
            found += ghz
    assert found == 1 + 2 * 5  # K2, then a star and K_n for n = 3..7


def _twins(rows, u, v):
    return not (rows[u] ^ rows[v]) & ~(1 << u | 1 << v)


def test_search_branches_on_one_vertex_of_each_twin_set(monkeypatch, connected_classes):
    rng = random.Random(32)
    gaps = []
    for n in range(4, 8):
        for g in connected_classes[n]:
            g = relabel(g, rng.sample(range(n), n))
            p = pauli_persistency(g)
            if p > lower_bound_max_rank(g):
                gaps.append((g, p))
    measured = {}
    real = entanglement.measure_via_lc

    def recording(g, v, basis):
        measured.setdefault(g.rows, set()).add(v)
        return real(g, v, basis)

    monkeypatch.setattr(entanglement, "measure_via_lc", recording)
    for g, p in gaps:
        # a search that fails expands every node it does not cut off
        assert not entanglement._can_disentangle(g, p - 1, {})
    pruned = 0
    for rows, done in measured.items():
        for w in range(len(rows)):
            if rows[w] and w not in done:
                assert any(_twins(rows, u, w) for u in done)
                pruned += 1
        assert not any(_twins(rows, u, v) for u in done for v in done if u < v)
    assert pruned >= 20


def test_each_search_child_is_checked_and_built_once(monkeypatch):
    # the search's one step checks its basis and vertex and builds one Graph;
    # the rule itself (measurement._measure_rows) checks nothing
    counts = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counting)

    count(measurement, "_check_basis")
    count(Graph, "_check_vertex")
    count(measurement, "_graph")
    count(entanglement, "measure_via_lc")
    for g in (cycle_graph(7), parse_graph6("KVp`qtKGUrkO")):
        counts.clear()
        bounds(g)
        assert counts["measure_via_lc"] > 0
        assert counts == dict.fromkeys(
            ("_check_basis", "_check_vertex", "_graph", "measure_via_lc"),
            counts["measure_via_lc"])
    for basis in ("z", "y", "x"):
        counts.clear()
        measurement.measure_pauli(cycle_graph(7), 3, basis)
        assert counts == {"_check_basis": 1, "_check_vertex": 1, "_graph": 1}


def _with_twin(g, v, adjacent):
    """g plus a new last vertex with v's neighbours (and v itself if adjacent)."""
    edges = g.edges() + [(w, g.n) for w in bits_of(g.rows[v])]
    return from_edges(g.n + 1, edges + [(v, g.n)] * adjacent)


def test_measuring_either_twin_gives_equivalent_graphs():
    # the argument behind twin pruning: swapping twins u, v is an automorphism,
    # so measuring v gives the image of measuring u; for x the default special
    # neighbours may differ, which changes the result only by complementations
    rng = random.Random(33)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 8), 0.4)
        g = _with_twin(g, rng.randrange(g.n), rng.random() < 0.5)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.rows[u] or not _twins(g.rows, u, v):
                    continue
                # child_u keeps v, child_v keeps u in v's place
                keep_u = [w for w in range(g.n) if w != u]
                perm = [(u if w == v else w) for w in keep_u]
                perm = [w - (w > v) for w in perm]
                for basis in ("z", "y", "x"):
                    child_u = measure_via_lc(g, u, basis)
                    image = relabel(measure_via_lc(g, v, basis), perm)
                    if basis == "x":
                        assert lc_equivalent(image, child_u)
                    else:
                        assert image == child_u
                    checked += 1
    assert checked > 100


def test_bounds_match_the_frozen_benchmark_pool():
    for entry in json.loads(BOUNDS_POOL.read_text()):
        rep = bounds(parse_graph6(entry["graph6"]))
        assert (rep.lower, rep.upper, rep.cover_size) == (
            entry["lower"], entry["upper"], entry["cover"]), entry["graph6"]


def test_persistency_is_the_least_cover_over_the_lc_class(lc_classes8, classification8):
    # the vertex-minor argument of the module docstring, checked without the
    # measurement rules.  Every representative up to n = 8 has the least
    # cover of its class, where a search that refutes too much still gives
    # the cover, so the member with the largest cover is searched as well.
    upper_of = {r.representative: r.upper for r in classification8}
    for cls in lc_classes8:
        rep = min(cls, key=lambda g: (g.edge_count, to_graph6(g)))
        covers = [min_vertex_cover(g).bit_count() for g in cls]
        assert upper_of[to_graph6(rep)] == min(covers), to_graph6(rep)
        worst = cls[covers.index(max(covers))]
        assert pauli_persistency(worst) == min(covers), to_graph6(worst)
    assert len(lc_classes8) == 146
    assert sum(r.lower < r.upper for r in classification8) == 20
    assert sum(r.lower < r.upper for r in classification8[:45]) == 8  # n <= 7


def max_rank_criterion(g, a_mask):
    """Sufficient test for a bipartition to reach the maximal Schmidt rank
    min(|A|, |B|).

    Component-wise on the cross subgraph: every component must be acyclic and
    have at most one leaf in its smaller side, which forces that component's
    cross block to full rank min(|A and C|, |B and C|); those per-component
    maxima must additionally add up to min(|A|, |B|) (isolated or lopsided
    components would otherwise leave rank on the table).
    """
    b_mask = g.vertex_mask() & ~a_mask
    cross = Graph(g.n, tuple(
        (g.rows[v] & b_mask) if (a_mask >> v) & 1 else (g.rows[v] & a_mask)
        for v in range(g.n)))
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


def two_colorable_bounds(g):
    """(lower, upper) Schmidt-measure bounds special to 2-colorable graphs:
    half the adjacency rank, and the size of the smaller color class."""
    coloring = two_coloring(g)
    if coloring is None:
        raise ValueError("graph has an odd cycle, not 2-colorable")
    lower = (gf2_rank_of_rows(g.rows) + 1) // 2
    return lower, min(coloring[0].bit_count(), coloring[1].bit_count())


def test_max_rank_criterion_on_six_ring():
    c6 = cycle_graph(6)
    assert max_rank_criterion(c6, _mask([0, 1, 4]))
    assert schmidt_rank(c6, _mask([0, 1, 4])) == 3
    # alternating split: the cross graph is the whole ring (a cycle), and the
    # rank indeed falls short of maximal
    assert not max_rank_criterion(c6, _mask([0, 2, 4]))
    assert schmidt_rank(c6, _mask([0, 2, 4])) == 2


def test_max_rank_criterion_single_edge():
    assert max_rank_criterion(from_edges(2, [(0, 1)]), 0b01)


def test_max_rank_criterion_implies_max_rank_randomized():
    rng = random.Random(21)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        m = rng.randrange(1, g.vertex_mask())
        if max_rank_criterion(g, m):
            small = min(m.bit_count(), g.n - m.bit_count())
            assert schmidt_rank(g, m) == small


def test_two_colorable_bounds():
    assert two_colorable_bounds(star_graph(8)) == (1, 1)
    assert two_colorable_bounds(cycle_graph(6)) == (2, 3)
    with pytest.raises(ValueError):
        two_colorable_bounds(cycle_graph(5))


def test_two_colorable_lower_bound_is_below_max_rank():
    rng = random.Random(22)
    checked = 0
    while checked < 40:
        g = random_tree(rng, rng.randrange(2, 10))
        lo, _ = two_colorable_bounds(g)
        assert lo <= lower_bound_max_rank(g)
        checked += 1


def test_edge_toggle_moves_every_rank_by_at_most_one():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        a, b = rng.sample(range(g.n), 2)
        h = toggle_edge(g, a, b)
        for m in range(1, g.vertex_mask()):
            assert abs(schmidt_rank(g, m) - schmidt_rank(h, m)) <= 1


def test_vertex_deletion_does_not_raise_lower_bound():
    rng = random.Random(24)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        v = rng.randrange(g.n)
        assert lower_bound_max_rank(measure_via_lc(g, v, "z")) <= lower_bound_max_rank(g)


def test_rank_matches_reduced_density_rank():
    rng = random.Random(25)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 7))
        state = oracle.graph_state(g)
        m = rng.randrange(1, g.vertex_mask())
        traced = [v for v in range(g.n) if (m >> v) & 1]
        assert oracle.reduced_rank_and_entropy(state, traced)[0] == 1 << schmidt_rank(g, m)
