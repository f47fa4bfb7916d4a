"""Acceptance suite.

Each test is one exit criterion, checked at its stated tolerance, and prints
one PASS line on success (run with -s to see them).  The classification and
enumeration fixtures are shared session-wide because they dominate runtime.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from graphstates import measurement, oracle, orbits
from graphstates.entanglement import (
    bounds,
    lower_bound_max_rank,
    schmidt_rank,
)
from graphstates.graphs import (
    canonical_form,
    min_vertex_cover,
    cycle_graph,
    from_edges,
    grid_graph,
    local_complement,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_tree,
    relabel,
    to_graph6,
    two_coloring,
)
from graphstates.stabilizer import local_complement_clifford
from conftest import toggle_edge
from test_oracle import BASIS_KETS, insert_qubit, project
from test_stabilizer import exact_support_count

PROB_TOL = 1e-12
ENTROPY_TOL = 1e-6


def _report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {label}: PASS")


# Expected classification of all connected graphs on 2..7 vertices:
# (class size, vertices, min edges, lower, upper, RI_3, RI_2, 2-colorable
# member exists).  Values are frozen against the dense-state oracle; the
# entries that are easiest to mis-tabulate (class 11's RI_2 and the
# 2-colorability flags of classes 16 and 17) are re-derived independently in
# test_criterion_01_corroborations below.
EXPECTED_CLASSIFICATION = [
    (1, 2, 1, 1, 1, None, None, True),
    (2, 3, 2, 1, 1, None, None, True),
    (2, 4, 3, 1, 1, None, (0, 3), True),
    (4, 4, 3, 2, 2, None, (2, 1), True),
    (2, 5, 4, 1, 1, None, (0, 10), True),
    (6, 5, 4, 2, 2, None, (6, 4), True),
    (10, 5, 4, 2, 2, None, (8, 2), True),
    (3, 5, 5, 2, 3, None, (10, 0), False),
    (2, 6, 5, 1, 1, (0, 0, 10), (0, 15), True),
    (6, 6, 5, 2, 2, (0, 6, 4), (8, 7), True),
    (4, 6, 5, 2, 2, (0, 9, 1), (9, 6), True),
    (16, 6, 5, 2, 2, (0, 9, 1), (11, 4), True),
    (10, 6, 5, 3, 3, (4, 4, 2), (12, 3), True),
    (25, 6, 5, 3, 3, (4, 5, 1), (13, 2), True),
    (5, 6, 6, 2, 2, (0, 10, 0), (12, 3), True),
    (5, 6, 6, 3, 3, (4, 6, 0), (12, 3), False),
    (21, 6, 6, 3, 3, (4, 6, 0), (14, 1), False),
    (16, 6, 6, 3, 3, (6, 4, 0), (15, 0), True),
    (2, 6, 9, 3, 4, (10, 0, 0), (15, 0), False),
    (2, 7, 6, 1, 1, (0, 0, 35), (0, 21), True),
    (6, 7, 6, 2, 2, (0, 20, 15), (10, 11), True),
    (6, 7, 6, 2, 2, (0, 30, 5), (12, 9), True),
    (16, 7, 6, 2, 2, (0, 30, 5), (14, 7), True),
    (10, 7, 6, 2, 2, (0, 33, 2), (15, 6), True),
    (10, 7, 6, 3, 3, (12, 16, 7), (16, 5), True),
    (16, 7, 6, 3, 3, (12, 20, 3), (16, 5), True),
    (44, 7, 6, 3, 3, (12, 21, 2), (17, 4), True),
    (44, 7, 6, 3, 3, (16, 16, 3), (18, 3), True),
    (14, 7, 6, 3, 3, (20, 12, 3), (18, 3), True),
    (66, 7, 6, 3, 3, (20, 13, 2), (19, 2), True),
    (10, 7, 7, 2, 2, (0, 34, 1), (16, 5), True),
    (10, 7, 7, 3, 3, (12, 22, 1), (16, 5), False),
    (21, 7, 7, 3, 3, (12, 22, 1), (18, 3), False),
    (26, 7, 7, 3, 3, (16, 18, 1), (18, 3), True),
    (36, 7, 7, 3, 3, (16, 19, 0), (19, 2), False),
    (28, 7, 7, 3, 3, (20, 14, 1), (18, 3), False),
    (72, 7, 7, 3, 3, (20, 15, 0), (19, 2), False),
    (114, 7, 7, 3, 3, (22, 13, 0), (20, 1), True),
    (56, 7, 7, 3, 4, (24, 10, 1), (20, 1), False),
    (92, 7, 7, 3, 4, (28, 7, 0), (21, 0), False),
    (57, 7, 8, 3, 4, (26, 9, 0), (20, 1), False),
    (33, 7, 8, 3, 4, (28, 7, 0), (21, 0), False),
    (9, 7, 9, 3, 3, (28, 7, 0), (21, 0), True),
    (46, 7, 9, 3, 4, (32, 3, 0), (21, 0), False),
    (9, 7, 10, 3, 4, (30, 5, 0), (20, 1), False),
]


@pytest.fixture(scope="module")
def sample_graphs():
    rng = random.Random(2024)
    return [random_connected_graph(rng, rng.randrange(2, 9)) for _ in range(200)]


def test_criterion_01_classification_table(classification7):
    records = classification7
    assert len(records) == 45
    assert sum(r.member_count for r in records) == 995
    got = [(r.member_count, r.n_vertices, r.n_edges, r.lower, r.upper,
            r.ri_3, r.ri_2, r.has_two_colorable_member) for r in records]
    for i, (g, e) in enumerate(zip(got, EXPECTED_CLASSIFICATION), start=1):
        assert g == e, f"class {i}: got {g}, expected {e}"
    # gap classes carry a strict lower < upper, all others are tight
    gaps = [r.class_id for r in records if r.lower < r.upper]
    assert gaps == [8, 19, 39, 40, 41, 42, 44, 45]
    _report(1, "classification of 995 graphs into 45 classes")


def test_criterion_01_corroborations(classification7, connected_classes,
                                     rank_list_fingerprint):
    """Independently re-derive the frozen cells that disagree across common
    transcriptions of this classification."""
    records = classification7
    # class 11 rank histogram straight from reduced density operators
    rep11 = parse_graph6(records[10].representative)
    state = oracle.graph_state(rep11)
    counts = Counter()
    for combo in itertools.combinations(range(6), 2):
        r = oracle.reduced_rank_and_entropy(state, list(combo))[0]
        counts[int(round(np.log2(r)))] += 1
    assert (counts[2], counts[1]) == (9, 6) == records[10].ri_2
    # classes 16/17 cannot contain a 2-colorable member: no bipartite graph
    # on six vertices shares their (complementation-invariant) fingerprint
    bipartite = [g for g in connected_classes[6] if two_coloring(g) is not None]
    assert len(bipartite) == 17
    for idx in (15, 16):
        fp = rank_list_fingerprint(parse_graph6(records[idx].representative))
        assert all(rank_list_fingerprint(g) != fp for g in bipartite)
        assert not records[idx].has_two_colorable_member
    _report(1, "corroboration of frozen classification cells")


def test_criterion_02_measurement_projection_rule(sample_graphs):
    for g in sample_graphs:
        state = oracle.graph_state(g)
        for a in range(g.n):
            for basis in ("x", "y", "z"):
                out = measurement.measure_pauli(g, a, basis)
                ref_plus = oracle.apply_local_clifford(
                    oracle.graph_state(out.graph_after), out.byproduct_plus)
                ref_minus = oracle.apply_local_clifford(
                    oracle.graph_state(out.graph_after), out.byproduct_minus)
                for sign, ref in ((1, ref_plus), (-1, ref_minus)):
                    prob, post = project(state, a, basis, sign)
                    expected_p = float(out.prob_plus if sign > 0
                                       else 1 - out.prob_plus)
                    assert abs(prob - expected_p) <= PROB_TOL
                    if post is None:
                        continue
                    full = insert_qubit(ref, a, BASIS_KETS[basis, sign])
                    assert oracle.equal_up_to_global_phase(post, full)
    # deterministic branch: x at an isolated vertex
    g = from_edges(3, [(1, 2)])
    prob, post = project(oracle.graph_state(g), 0, "x", 1)
    assert abs(prob - 1.0) <= PROB_TOL
    out = measurement.measure_pauli(g, 0, "x")
    assert out.prob_plus == 1 and out.graph_after.rows == g.rows
    _report(2, "projection rule vs dense states (200 graphs, all bases)")


def test_criterion_03_bipartite_rank_rule(sample_graphs):
    for g in sample_graphs:
        state = oracle.graph_state(g)
        full = g.vertex_mask()
        for m in range(1 << (g.n - 1)):
            a_mask = (m << 1) | 1
            if a_mask == full:
                continue
            r = schmidt_rank(g, a_mask)
            traced = [v for v in range(g.n) if (a_mask >> v) & 1]
            rank, entropy = oracle.reduced_rank_and_entropy(state, traced)
            assert rank == 1 << r
            assert abs(entropy - r) <= ENTROPY_TOL
            assert oracle.verify_partial_trace_form(g, a_mask, state=state)
            assert oracle.verify_partial_trace_form(g, full ^ a_mask, state=state)
    _report(3, "bipartite rank and partial-trace form (every bipartition)")


def test_criterion_04_complementation_unitaries():
    rng = random.Random(777)
    for _ in range(100):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        state = oracle.graph_state(g)
        for a in range(g.n):
            lhs = oracle.apply_local_clifford(state, local_complement_clifford(g, a))
            rhs = oracle.graph_state(local_complement(g, a))
            assert oracle.equal_up_to_global_phase(lhs, rhs)
    _report(4, "complementation unitary rule (100 graphs, all vertices)")


def test_criterion_05_trees():
    rng = random.Random(555)
    for _ in range(100):
        t = random_tree(rng, rng.randrange(2, 11))
        cover = min_vertex_cover(t).bit_count()
        rep = bounds(t)
        assert rep.lower == rep.upper == cover
    _report(5, "trees: bounds meet at the minimum vertex cover (100 trees)")


def test_criterion_06_chains_grids_rings():
    cases = [path_graph(n) for n in range(2, 9)]
    cases += [grid_graph(2, 2), grid_graph(2, 3), grid_graph(3, 3)]
    cases += [cycle_graph(n) for n in range(4, 13, 2)]
    for g in cases:
        rep = bounds(g)
        assert rep.tight and rep.lower == g.n // 2, (g.n, rep)
    _report(6, "chains, grids, and even rings reach floor(n/2) tightly")


def test_criterion_07_y_measurement_closure(classification7):
    records = classification7
    g = cycle_graph(6)
    assert two_coloring(g) is not None
    h = measurement.measure_via_lc(g, 0, "y")
    closure = orbits.lc_closure_with_relabelings(h)
    assert len(closure) == 132
    shapes = {canonical_form(x)[0].rows for x in closure}
    assert len(shapes) == 3
    assert all(two_coloring(x) is None for x in closure)
    rec8 = records[7]
    assert rec8.class_id == 8 and rec8.member_count == 3
    assert orbits.lc_equivalent(h, parse_graph6(rec8.representative))
    _report(7, "y-measurement of a 2-colorable graph: 132/3 closure, none 2-colorable")


def test_criterion_08_petersen_labelings(schmidt_rank_list, rank_list_fingerprint):
    g = petersen_graph()
    h = relabel(g, (5, 6, 7, 8, 9, 0, 1, 2, 3, 4))  # swap the spoke endpoints
    assert schmidt_rank_list(g) == schmidt_rank_list(h)
    assert rank_list_fingerprint(g) == rank_list_fingerprint(h)
    assert not orbits.lc_equivalent(g, h)
    _report(8, "Petersen labelings: identical rank lists, not LC-equivalent")


def test_criterion_09_support_count_identity(connected_classes):
    from graphstates.entanglement import _cross_rank

    for n in range(2, 7):
        for g in connected_classes[n]:
            for size in range(0, 4):
                for combo in itertools.combinations(range(n), size):
                    a_mask = 0
                    for v in combo:
                        a_mask |= 1 << v
                    total = 0
                    b = a_mask
                    while True:
                        total += exact_support_count(g, b)
                        if b == 0:
                            break
                        b = (b - 1) & a_mask
                    rank = _cross_rank(g, a_mask) if 0 < a_mask < g.vertex_mask() else 0
                    assert total == 1 << (size - rank)
    _report(9, "support-count identity, exhaustive n<=6, |A|<=3")


def test_criterion_10_monotonicity(connected_classes, lc_classes7, classification7):
    # sandwich over every isomorphism class up to 7 vertices; upper is the
    # persistency of the member's LC class, held by the class record
    upper_of = {r.representative: r.upper for r in classification7}
    for cls in lc_classes7:
        upper = upper_of[to_graph6(min(cls, key=lambda g: (g.edge_count, to_graph6(g))))]
        for g in cls:
            assert lower_bound_max_rank(g) <= upper <= min_vertex_cover(g).bit_count()
    # edge toggles move each bipartite rank by at most one
    for n, classes in connected_classes.items():
        for g in classes:
            base = {m: schmidt_rank(g, m) for m in _proper_masks(g)}
            for u in range(n):
                for v in range(u + 1, n):
                    h = toggle_edge(g, u, v)
                    for m, r in base.items():
                        assert abs(schmidt_rank(h, m) - r) <= 1
    # vertex deletion never raises the maximal rank
    for n, classes in connected_classes.items():
        for g in classes:
            lb = lower_bound_max_rank(g)
            for v in range(n):
                assert lower_bound_max_rank(measurement.measure_via_lc(g, v, "z")) <= lb
    _report(10, "rank/bound monotonicity, exhaustive n<=7")


def _proper_masks(g):
    full = g.vertex_mask()
    return [(m << 1) | 1 for m in range(1 << (g.n - 1)) if ((m << 1) | 1) != full]


def test_out_of_scope_note():
    """The two large tabulated examples whose graphs exist only as drawings
    are intentionally not reproduced; nothing to verify here."""
    _report(0, "out-of-scope items acknowledged (pictorial-only graphs)")
