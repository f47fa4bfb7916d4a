"""Graphs derived from a valid Graph skip validation; each must still pass it.

Every function that builds its result with graphs._graph is checked here by
re-running the full check: Graph(h.n, h.rows) validates the rows again and
must give back an equal graph.
"""

import itertools
import random

from hypothesis import given, strategies as st

from graphstates import graphs, orbits
from graphstates.graphs import (
    Graph,
    canonical_form,
    empty_graph,
    from_edges,
    induced_subgraph,
    local_complement,
    relabel,
)
from graphstates.measurement import BASES, measure_pauli, measure_via_lc


def _assert_valid(h):
    assert type(h) is Graph and type(h.n) is int and type(h.rows) is tuple
    assert Graph(h.n, h.rows) == h
    assert hash(h) == hash(Graph(h.n, h.rows))


def _random_graph(rng, n):
    p = rng.choice((0.2, 0.5, 0.8))
    return from_edges(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < p])


def _seeded_graphs():
    rng = random.Random(606)
    for n in range(11):
        yield empty_graph(n)
        for _ in range(3):
            yield _random_graph(rng, n)


def _measured(g):
    for a in range(g.n):
        for basis in BASES:
            yield measure_pauli(g, a, basis).graph_after
            yield measure_via_lc(g, a, basis)
        for b in graphs.bits_of(g.rows[a]):
            yield measure_pauli(g, a, "x", b0=b).graph_after
            yield measure_via_lc(g, a, "x", b0=b)


def test_every_derived_graph_passes_validation():
    rng = random.Random(607)
    for g in _seeded_graphs():
        out = list(_measured(g))
        out.append(canonical_form(g)[0])
        out.append(relabel(g, rng.sample(range(g.n), g.n)))
        out.append(induced_subgraph(g, rng.getrandbits(g.n)))
        out.append(graphs._add_vertex(g, rng.getrandbits(g.n)))
        out.extend(local_complement(g, a) for a in range(g.n))
        if g.n <= 8:  # orbits of random graphs reach 10^4 members at n = 9-10
            out.extend(orbits.lc_orbit(g))
        if g.n <= 4:
            out.extend(orbits.lc_closure_with_relabelings(g))
        for h in out:
            _assert_valid(h)


@st.composite
def _graph_and_vertex(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edges(n, [e for e, k in zip(pairs, keep) if k])
    return g, draw(st.integers(0, n - 1)), draw(st.sampled_from(BASES))


@given(_graph_and_vertex())
def test_measured_and_complemented_graphs_pass_validation(case):
    g, a, basis = case
    for h in (measure_pauli(g, a, basis).graph_after, measure_via_lc(g, a, basis),
              local_complement(g, a), canonical_form(g)[0]):
        _assert_valid(h)
