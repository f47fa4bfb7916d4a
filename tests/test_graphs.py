"""Graph edits, covers, canonical forms, enumeration, and graph6 round trips."""

import functools
import itertools
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphstates.entanglement import bounds, lower_bound_max_rank
from graphstates.graphs import (
    CANONICAL_CAP,
    CapExceeded,
    Graph,
    _cover_within,
    _min_cover,
    as_mask,
    bits_of,
    canonical_form,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    greedy_vertex_cover,
    grid_graph,
    induced_subgraph,
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
    twin_reps,
    two_coloring,
)
from graphstates.measurement import measure_via_lc
from conftest import labelled_graphs, toggle_edge


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # loop
    with pytest.raises(ValueError):
        from_edges(2, [(0, 0)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: Graph(-1, ()), ValueError, "vertex count must be non-negative"),
    (lambda: Graph(2, (0,)), ValueError, "need one adjacency row per vertex"),
    (lambda: Graph(1, (0b10,)), ValueError, "adjacency bits outside vertex range"),
    (lambda: from_edges(2, [(0, 2)]), IndexError, "edge (0,2) out of range"),
    (lambda: cycle_graph(2), ValueError, "cycles need at least 3 vertices"),
    (lambda: relabel(path_graph(3), (0, 0, 1)), ValueError,
     "not a permutation of the vertices"),
    (lambda: random_connected_graph(random.Random(0), 0), ValueError,
     "need at least one vertex"),
    (lambda: to_graph6(empty_graph(63)), ValueError, "graph6 encoder supports n <= 62"),
    (lambda: parse_graph6("!"), ValueError, "malformed graph6 header '!'"),
    (lambda: parse_graph6(">>graph6<<!"), ValueError, "malformed graph6 header '!'"),
    (lambda: parse_graph6(" "), ValueError, "empty graph6 string"),
    (lambda: parse_graph6("~??~"), ValueError,
     "multi-byte graph6 sizes (n > 62) are not supported"),
    (lambda: parse_graph6("A"), ValueError, "graph6 body of 0 chars, expected 1"),
    (lambda: parse_graph6("A>"), ValueError, "invalid graph6 character '>'"),
    (lambda: parse_graph6("A" + chr(63 + 0b100001)), ValueError,
     "nonzero trailing padding bits"),
], ids=["negative-n", "row-count", "row-bits", "edge-range", "short-cycle",
        "relabel", "random-n", "graph6-n", "graph6-header",
        "graph6-prefix", "graph6-empty", "graph6-multibyte", "graph6-length",
        "graph6-char", "graph6-padding"])
def test_entry_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_delete_star_center():
    assert measure_via_lc(star_graph(5), 0, "z").rows == empty_graph(4).rows


def test_induced_subgraph_of_cycle_is_path():
    c5 = cycle_graph(5)
    sub = induced_subgraph(c5, [1, 2, 3])
    assert sub.rows == path_graph(3).rows


def test_local_complement_star_is_complete():
    assert local_complement(star_graph(6), 0).rows == complete_graph(6).rows


def test_local_complement_involution():
    rng = random.Random(4)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        a = rng.randrange(g.n)
        assert local_complement(local_complement(g, a), a).rows == g.rows


def test_local_complement_triangle():
    # complementing at one vertex removes the opposite edge
    assert local_complement(complete_graph(3), 0).rows == \
        from_edges(3, [(0, 1), (0, 2)]).rows


def test_connectivity():
    assert is_connected(path_graph(4))
    assert not is_connected(from_edges(3, [(0, 1)]))
    assert is_connected(empty_graph(1))


def test_two_coloring():
    assert two_coloring(path_graph(4)) is not None
    assert two_coloring(cycle_graph(5)) is None
    c0, c1 = two_coloring(cycle_graph(6))
    assert c0.bit_count() == 3 and c1.bit_count() == 3
    assert c0 == 0b010101  # even positions rooted at 0


def _covers(g, mask):
    return all((mask >> a | mask >> b) & 1 for a, b in g.edges())


def _brute_min_cover_size(g):
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if _covers(g, as_mask(g.n, combo)):
                return size
    raise AssertionError


def test_min_vertex_cover_examples():
    assert min_vertex_cover(star_graph(5)) == 1
    assert min_vertex_cover(cycle_graph(6)).bit_count() == 3
    assert min_vertex_cover(complete_graph(4)).bit_count() == 3


def _cover_cases():
    rng = random.Random(5)
    return [random_connected_graph(rng, rng.randrange(2, 8)) for _ in range(60)]


def test_min_vertex_cover_against_brute_force():
    for g in _cover_cases():
        mask = min_vertex_cover(g)
        assert _covers(g, mask)
        assert mask.bit_count() == _brute_min_cover_size(g)
        assert greedy_vertex_cover(g).bit_count() >= mask.bit_count()


def test_cover_decision_against_brute_force():
    # the one cover search: a cover within k exactly when the minimum is at most k
    graphs = [g for n in range(6) for g in labelled_graphs(n)] + _cover_cases()
    for g in graphs:
        least = _brute_min_cover_size(g)
        for k in range(g.n + 1):
            mask = _cover_within(g.rows, k)
            if least <= k:
                assert mask is not None and _covers(g, mask), (g.rows, k)
                assert mask.bit_count() <= k, (g.rows, k)
            else:
                assert mask is None, (g.rows, k)


def test_cover_floored_at_the_cut_rank_bound_against_brute_force():
    # no cut rank exceeds a cover's size, so the search may stop at a cover
    # the size of the lower bound; bounds runs it that way
    for g in _cover_cases():
        mask = _min_cover(g.rows, lower_bound_max_rank(g))
        assert _covers(g, mask)
        assert mask.bit_count() == _brute_min_cover_size(g) == bounds(g).cover_size


def test_cover_floored_at_the_cut_rank_bound_on_every_class_member(lc_classes8):
    # 12,112 graphs; on 4,674 of them the lower bound is the minimum cover
    for g in (g for cls in lc_classes8 for g in cls):
        floored = _min_cover(g.rows, lower_bound_max_rank(g))
        assert floored.bit_count() == min_vertex_cover(g).bit_count()


def _reference_greedy_cover(g):
    """Take the first vertex of maximal degree, by a fresh scan each round."""
    rows = list(g.rows)
    cover = 0
    while True:
        v = max(range(g.n), key=lambda u: rows[u].bit_count(), default=None)
        if v is None or rows[v] == 0:
            return cover
        cover |= 1 << v
        for w in bits_of(rows[v]):
            rows[w] &= ~(1 << v)
        rows[v] = 0


def test_greedy_cover_matches_the_rescanning_rule():
    rng = random.Random(6)
    graphs = [empty_graph(0), empty_graph(1), empty_graph(5), star_graph(6), complete_graph(7)]
    for _ in range(300):
        n = rng.randrange(2, 21)
        p = rng.random()
        graphs.append(from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                     if rng.random() < p]))
    for g in graphs:
        mask = greedy_vertex_cover(g)
        assert mask == _reference_greedy_cover(g), g.rows
        assert _covers(g, mask)


def test_canonical_form_is_relabeling_invariant():
    base = path_graph(4)
    forms = set()
    for perm in itertools.permutations(range(4)):
        forms.add(canonical_form(relabel(base, perm))[0].rows)
    assert len(forms) == 1


def test_canonical_witness_permutation():
    rng = random.Random(6)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        canon, perm = canonical_form(g)
        assert relabel(g, perm).rows == canon.rows


def test_twin_reps_picks_the_least_twin(connected_classes):
    graphs = [g for n in range(6) for g in labelled_graphs(n)]
    graphs += [g for n in range(2, 8) for g in connected_classes[n]]
    for g in graphs:
        nbrs = [set(bits_of(r)) for r in g.rows]
        reps = twin_reps(g.rows)
        for v in range(g.n):
            assert reps[v] == min(u for u in range(g.n)
                                  if nbrs[u] - {u, v} == nbrs[v] - {u, v})
            swap = list(range(g.n))
            swap[v], swap[reps[v]] = reps[v], v
            assert relabel(g, swap) == g


@functools.lru_cache(maxsize=None)
def _permutation_table(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int8)


def _brute_canonical(g):
    """Oracle: scan all n! relabellings for the minimal upper-triangle string,
    read column by column.  Returns (canonical rows, order of Aut(g))."""
    n = g.n
    if n <= 1:
        return g.rows, 1
    perms = _permutation_table(n)
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        for w in bits_of(g.rows[v]):
            a[v, w] = 1
    ii, jj = zip(*((i, j) for j in range(1, n) for i in range(j)))
    weights = 1 << np.arange(len(ii) - 1, -1, -1, dtype=np.int64)
    vals = a[perms[:, ii], perms[:, jj]] @ weights
    k = int(np.argmin(vals))
    best = relabel(g, [int(x) for x in perms[k]]).rows
    return best, int((vals == vals[k]).sum())


def test_canonical_form_matches_brute_force():
    # forms are equal exactly when the n! oracle's least forms are, they do
    # not move under relabelling, and the witness relabels g onto its form
    rng = random.Random(7)
    graphs = [random_connected_graph(rng, rng.randrange(4, 8)) for _ in range(50)]
    graphs += [random_connected_graph(rng, 8) for _ in range(5)]
    graphs += [complete_graph(6), cycle_graph(7), star_graph(7), empty_graph(7),
               cycle_graph(8), star_graph(8), grid_graph(2, 4)]
    forms, oracle = [], []
    for g in graphs:
        canon, perm = canonical_form(g)
        assert relabel(g, perm).rows == canon.rows
        for _ in range(3):
            assert canonical_form(relabel(g, rng.sample(range(g.n), g.n)))[0] == canon
        forms.append(canon)
        oracle.append(_brute_canonical(g)[0])
    for (f, o), (f2, o2) in itertools.combinations(zip(forms, oracle), 2):
        assert (f == f2) == (o == o2)
    assert len(set(oracle)) < len(graphs)  # some pairs are isomorphic


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@st.composite
def _graph_pair(draw):
    """A graph on n <= 9 vertices, random or circulant (vertex-transitive,
    so the search meets many automorphisms), and a relabelling of it with
    up to two vertex pairs toggled."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = from_edges(n, [e for e, k in zip(pairs, keep) if k])
    else:
        jumps = draw(st.sets(st.integers(1, max(n // 2, 1))))
        g = from_edges(n, {tuple(sorted((i, (i + j) % n)))
                           for i in range(n) for j in jumps if j % n})
    h = relabel(g, draw(st.permutations(range(n))))
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True)):
            h = toggle_edge(h, a, b)
    return g, h


@given(_graph_pair())
def test_canonical_form_agrees_with_networkx_isomorphism(pair):
    g, h = pair
    same = canonical_form(g)[0] == canonical_form(h)[0]
    assert same == nx.is_isomorphic(_nx_graph(g), _nx_graph(h))


def test_canonical_form_on_symmetric_graphs_at_the_cap():
    n = CANONICAL_CAP
    matching = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    two_rings = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    cocktail_party = [(i, j) for j in range(n) for i in range(j) if (i, j) not in matching]
    # regular, so refinement cannot split the root cell, with vertex orbits
    # of sizes 2, 4 and 4: the search must reach a vertex of every orbit
    cubic = [(0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 7), (2, 3), (2, 4), (2, 6), (3, 7),
             (3, 8), (4, 9), (5, 8), (6, 9), (8, 9)]
    sextic = [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 6),
              (1, 9), (2, 4), (2, 5), (2, 7), (2, 9), (3, 5), (3, 7), (3, 8), (3, 9), (4, 5),
              (4, 7), (4, 8), (4, 9), (5, 6), (5, 8), (6, 7), (6, 8), (6, 9), (7, 8), (8, 9)]
    rng = random.Random(10)
    for g in (complete_graph(n), empty_graph(n), star_graph(n), petersen_graph(),
              from_edges(n, matching), from_edges(n, two_rings), from_edges(n, cocktail_party),
              from_edges(n, cubic), from_edges(n, sextic)):
        canon, perm = canonical_form(g)
        assert relabel(g, perm).rows == canon.rows
        assert nx.is_isomorphic(_nx_graph(canon), _nx_graph(g))
        for _ in range(10):
            assert canonical_form(relabel(g, rng.sample(range(n), n)))[0].rows == canon.rows
    with pytest.raises(CapExceeded):
        canonical_form(complete_graph(n + 1))


def _brute_connected_classes(n):
    """Independent isomorphism-class count: pairwise permutation tests."""
    reps = []
    for bits in range(1 << (n * (n - 1) // 2)):
        edges = []
        k = 0
        for j in range(1, n):
            for i in range(j):
                if (bits >> k) & 1:
                    edges.append((i, j))
                k += 1
        g = from_edges(n, edges)
        if not is_connected(g):
            continue
        if any(any(relabel(g, p).rows == r.rows
                   for p in itertools.permutations(range(n))) for r in reps):
            continue
        reps.append(g)
    return reps


def test_enumeration_counts_small_against_brute_force(connected_classes):
    for n, expected in ((2, 1), (3, 2), (4, 6), (5, 21)):
        assert len(_brute_connected_classes(n)) == expected
        assert len(connected_classes[n]) == expected


def test_enumeration_counts_six_and_seven(connected_classes):
    assert len(connected_classes[6]) == 112
    assert len(connected_classes[7]) == 853


def test_enumeration_has_no_duplicates_and_is_connected(connected_classes):
    for n, classes in connected_classes.items():
        seen = set()
        for g in classes:
            assert is_connected(g)
            canon, _ = canonical_form(g)
            assert canon.rows == g.rows  # already canonical
            assert g.rows not in seen
            seen.add(g.rows)


def _connected_labeled_graph_count(n):
    """Number of connected labeled graphs on n vertices (classical recurrence)."""
    total = [1] + [2 ** math.comb(k, 2) for k in range(1, n + 1)]
    conn = [0] * (n + 1)
    for k in range(1, n + 1):
        s = total[k]
        for j in range(1, k):
            s -= math.comb(k - 1, j - 1) * conn[j] * total[k - j]
        conn[k] = s
    return conn[n]


def test_enumeration_completeness_by_labeled_count(connected_classes):
    # sum over classes of n!/|Aut| must equal the labeled connected count
    for n in (5, 6, 7):
        total = sum(math.factorial(n) // _brute_canonical(g)[1]
                    for g in connected_classes[n])
        assert total == _connected_labeled_graph_count(n)


def test_graph6_known_strings():
    assert to_graph6(from_edges(2, [(0, 1)])) == "A_"
    assert to_graph6(empty_graph(1)) == "@"
    # path 0-1-2: column bits 1,0,1 -> 101000 -> chr(63+40)
    assert to_graph6(path_graph(3)) == "Bg"


def test_graph6_round_trip():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(1, 30)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.3]
        g = from_edges(n, edges)
        assert parse_graph6(to_graph6(g)).rows == g.rows
        assert parse_graph6(">>graph6<<" + to_graph6(g)) == g  # optional header


@given(st.data())
def test_parsed_graph6_passes_the_entry_check(data):
    # graph6 holds only the upper triangle, so parse_graph6 builds its
    # result without Graph's check, which must accept it all the same
    n = data.draw(st.integers(0, 30))
    pairs = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    g = from_edges(n, [e for i, e in enumerate(pairs) if keep >> i & 1])
    parsed = parse_graph6(to_graph6(g))
    assert Graph(parsed.n, parsed.rows) == parsed == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("A")  # missing body
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(62))  # character below the graph6 range
    # nonzero padding: K2 body with a stray low bit
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(63 + 0b100001))


def test_random_tree_is_tree():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(2, 11)
        t = random_tree(rng, n)
        assert is_connected(t) and t.edge_count == n - 1


def test_random_connected_graph_draws_are_pinned():
    # seeded draws that tests and `verify` rely on
    for seed, n, g6 in [(0, 5, "DFg"), (1, 7, "F`rtW"), (2, 9, "HCdRjyh"),
                        (3, 12, "KlON|GWgCPAR")]:
        assert to_graph6(random_connected_graph(random.Random(seed), n)) == g6
    rng = random.Random(7)
    assert [to_graph6(random_connected_graph(rng, n)) for n in (2, 3, 4)] == ["A_", "Bg", "CV"]


def test_random_connected_graph_rejects_hopeless_p():
    rng = random.Random(0)
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            random_connected_graph(rng, 5, p)
    with pytest.raises(ValueError):
        random_connected_graph(rng, 2, 0.0)
    assert random_connected_graph(rng, 1, 0.0) == empty_graph(1)
    assert random_connected_graph(rng, 4, 1.0) == complete_graph(4)
    with pytest.raises(CapExceeded):  # fails fast instead of drawing for minutes
        random_connected_graph(rng, 7, 0.01)


def test_petersen_shape():
    g = petersen_graph()
    assert g.n == 10 and g.edge_count == 15
    assert all(r.bit_count() == 3 for r in g.rows)
