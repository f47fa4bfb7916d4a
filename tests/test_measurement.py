"""Measurement rewrite rules, byproducts, and sequence threading."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from graphstates import oracle
from graphstates.graphs import (
    bits_of,
    complete_graph,
    cycle_graph,
    from_edges,
    path_graph,
    random_connected_graph,
    star_graph,
    to_graph6,
    two_coloring,
)
from graphstates.measurement import (
    ZeroProbabilityOutcome,
    conjugate_basis,
    measure_pauli,
    measure_via_lc,
    run_sequence,
)
from graphstates.orbits import lc_equivalent
from graphstates.stabilizer import CL_I, identity_clifford
from test_oracle import BASIS_KETS, insert_qubit, project


def test_z_at_path_middle():
    out = measure_pauli(path_graph(3), 1, "z")
    assert out.graph_after.rows == (0, 0)
    assert out.prob_plus == Fraction(1, 2)
    assert out.byproduct_plus == identity_clifford(2)
    assert str(out.byproduct_minus) == "Z@0 Z@1"


def test_y_disentangles_complete_graphs():
    for n in range(3, 7):
        for a in range(n):
            out = measure_pauli(complete_graph(n), a, "y")
            assert out.graph_after.edge_count == 0


def test_x_at_path_leaf_gives_empty_graph():
    # frozen from the dense oracle (see cross-check below): projecting x on a
    # leaf of the 3-path leaves a product state, i.e. an edgeless graph
    out = measure_pauli(path_graph(3), 0, "x")
    assert out.chosen_b0 == 1
    assert out.graph_after.rows == (0, 0)
    state = oracle.graph_state(path_graph(3))
    prob, post = project(state, 0, "x", 1)
    ref = oracle.graph_state(out.graph_after)
    ref = oracle.apply_local_clifford(ref, out.byproduct_plus)
    ref = insert_qubit(ref, 0, BASIS_KETS["x", 1])
    assert oracle.equal_up_to_global_phase(post, ref)


def test_x_at_isolated_vertex_is_deterministic():
    g = from_edges(3, [(1, 2)])
    out = measure_pauli(g, 0, "x")
    assert out.prob_plus == 1
    assert out.graph_after.rows == g.rows
    assert out.chosen_b0 is None
    assert out.byproduct_plus == identity_clifford(3)


def test_invalid_b0_rejected():
    with pytest.raises(ValueError):
        measure_pauli(path_graph(4), 0, "x", b0=2)
    with pytest.raises(ValueError):
        measure_pauli(path_graph(4), 0, "w")


@pytest.mark.parametrize("rule", [measure_pauli, measure_via_lc])
def test_b0_is_checked_at_an_isolated_vertex(rule):
    g = from_edges(2, [])
    with pytest.raises(IndexError):
        rule(g, 0, "x", b0=99)
    with pytest.raises(ValueError):
        rule(g, 0, "x", b0=1)


@pytest.mark.parametrize("call, message", [
    (lambda: conjugate_basis(CL_I, "x", 0), "sign must be +1 or -1"),
    (lambda: run_sequence(path_graph(3), [(0, "x", 2)]), "outcome must be +1 or -1"),
], ids=["conjugate-sign", "step-outcome"])
def test_entry_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def _pairs_between(a_mask, b_mask):
    """Unordered pairs with one end in each mask (the masks may overlap)."""
    return {(min(u, v), max(u, v)) for u in bits_of(a_mask)
            for v in bits_of(b_mask & ~(1 << u))}


def _pairs_within(mask):
    return set(itertools.combinations(bits_of(mask), 2))


def _toggle_rule(g, a, basis, b0):
    """The graph after measuring basis at a, by the pair-toggle rule of Hein,
    Eisert and Briegel: z deletes a; y toggles every pair in a's
    neighbourhood N_a, then deletes a; x at special neighbour b0 toggles the
    pairs between N_b0 and N_a, within N_b0 & N_a, and between b0 and the
    rest of N_a, then deletes a.

    Independent of the package's rewrite: the toggles are a symmetric
    difference of edge sets, and the deletion renumbers the edges left."""
    nb = g.rows[a]
    if basis == "z":
        pairs = set()
    elif basis == "y":
        pairs = _pairs_within(nb)
    else:
        nb0 = g.rows[b0]
        pairs = (_pairs_between(nb0, nb) ^ _pairs_within(nb0 & nb)
                 ^ _pairs_between(1 << b0, nb & ~(1 << b0)))
    edges = set(g.edges()) ^ pairs
    return from_edges(g.n - 1, [(b - (b > a), c - (c > a))
                                for b, c in edges if a not in (b, c)])


def test_via_lc_matches_rule_exhaustively(connected_classes):
    x_cases = 0
    for n, classes in connected_classes.items():
        for g in classes:
            for a in range(n):
                measurements = [("y", None), ("z", None)]
                measurements += [("x", b0) for b0 in bits_of(g.rows[a])]
                for basis, b0 in measurements:
                    ref = _toggle_rule(g, a, basis, b0).rows
                    assert measure_via_lc(g, a, basis, b0).rows == ref, \
                        (to_graph6(g), a, basis, b0)
                    assert measure_pauli(g, a, basis, b0).graph_after.rows == ref
                x_cases += len(measurements) - 2
    assert x_cases == 21328  # one per vertex and special neighbour


def test_special_neighbor_choice_is_immaterial_up_to_lc():
    rng = random.Random(15)
    checked = 0
    while checked < 30:
        g = random_connected_graph(rng, rng.randrange(3, 8))
        a = rng.randrange(g.n)
        nb = list(bits_of(g.rows[a]))
        if len(nb) < 2:
            continue
        b0a, b0b = rng.sample(nb, 2)
        h1 = measure_pauli(g, a, "x", b0a).graph_after
        h2 = measure_pauli(g, a, "x", b0b).graph_after
        assert lc_equivalent(h1, h2)
        checked += 1


def test_z_and_x_preserve_two_colorability():
    rng = random.Random(16)
    checked = 0
    while checked < 60:
        g = random_connected_graph(rng, rng.randrange(3, 9))
        if two_coloring(g) is None:
            continue
        a = rng.randrange(g.n)
        assert two_coloring(measure_via_lc(g, a, "z")) is not None
        assert two_coloring(measure_via_lc(g, a, "x")) is not None
        checked += 1


def test_y_can_break_two_colorability():
    # measuring y on a 6-ring lands on a 5-ring
    h = measure_via_lc(cycle_graph(6), 0, "y")
    assert two_coloring(h) is None


def test_empty_sequence():
    g = cycle_graph(4)
    final, byp, prob = run_sequence(g, [])[1:]
    assert final.rows == g.rows and byp == identity_clifford(4) and prob == 1


def test_cover_sequence_disentangles():
    g = cycle_graph(6)
    steps = [(0, "z", 1), (2, "z", -1), (4, "z", 1)]
    final, _, prob = run_sequence(g, steps)[1:]
    assert final.edge_count == 0
    assert prob == Fraction(1, 8)


def test_sequence_rejects_repeats():
    with pytest.raises(ValueError):
        run_sequence(path_graph(3), [(0, "z", 1), (0, "z", 1)])
    with pytest.raises(ValueError, match="no rng"):
        run_sequence(path_graph(3), [(0, "z", None)])


def test_threading_turns_z_into_x_after_x():
    # an x measurement leaves a quarter Y-turn on its special neighbor, so a
    # later z there acts like an x on the rewritten graph
    p4 = path_graph(4)
    first = measure_pauli(p4, 0, "x")  # b0 = 1
    threaded, _, _ = run_sequence(p4, [(0, "x", 1), (1, "z", 1)])[1:]
    manual = measure_via_lc(first.graph_after, 0, "x")  # old vertex 1 is now 0
    assert threaded.rows == manual.rows


def test_sequence_matches_dense_projections():
    rng = random.Random(17)
    done = 0
    while done < 25:
        n = rng.randrange(3, 8)
        g = random_connected_graph(rng, n)
        verts = rng.sample(range(n), rng.randrange(1, n))
        steps = [(v, rng.choice("xyz"), rng.choice((1, -1))) for v in verts]
        try:
            final, byp, p = run_sequence(g, steps)[1:]
        except ZeroProbabilityOutcome:
            continue
        if final.n != n - len(verts):
            continue  # a step hit an isolated vertex in the x basis
        state = oracle.graph_state(g)
        prob = 1.0
        for v, basis, sign in steps:
            step_p, state = project(state, v, basis, sign)
            prob *= step_p
        assert abs(prob - float(p)) < 1e-12
        ref = oracle.graph_state(final)
        ref = oracle.apply_local_clifford(ref, byp)
        rho = oracle.reduced_density(state, sorted(verts))
        assert np.max(np.abs(rho - np.outer(ref, ref.conj()))) < 1e-9
        done += 1


def test_zero_probability_outcome_raises():
    g = from_edges(1, [])
    with pytest.raises(ZeroProbabilityOutcome):
        run_sequence(g, [(0, "x", -1)])


def test_transcript_fields():
    rec = run_sequence(star_graph(4), [(0, "z", -1)])[0]
    assert rec == [{
        "vertex": 0,
        "basis": "z",
        "outcome": -1,
        "graph6_after": to_graph6(from_edges(3, [])),
        "byproduct": "Z@0 Z@1 Z@2",
    }]
