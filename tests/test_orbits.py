"""Orbit enumeration, equivalence testing, and the classification quotient."""

import csv
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from graphstates import cli, entanglement, orbits
from graphstates.entanglement import pauli_persistency
from graphstates.gf2 import gf2_rank_of_rows
from graphstates.graphs import (
    CapExceeded,
    Graph,
    _add_vertex,
    bits_of,
    canonical_form,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    from_edges,
    grid_graph,
    local_complement,
    parse_graph6,
    path_graph,
    petersen_graph,
    random_connected_graph,
    relabel,
    star_graph,
    to_graph6,
    twin_reps,
    two_coloring,
)
from graphstates.oracle import apply_local_clifford, equal_up_to_global_phase, graph_state
from graphstates.stabilizer import (
    clifford_conjugate_pauli,
    stabilizer_element,
    stabilizer_generator,
)
from conftest import labelled_graphs, toggle_edge
from test_gf2 import xor_of_selected

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
CLASSIFY8 = Path(__file__).resolve().parent / "data" / "classify8.csv"
CLASSIFY9 = Path(__file__).resolve().parent / "data" / "classify9.csv"
LC_POOL = REFERENCE / "lc_pool.json"


def _scramble(rng, g, steps):
    for _ in range(steps):
        g = local_complement(g, rng.randrange(g.n))
    return g


def _assert_witness(g, h, w):
    """w maps every generator of g onto h's stabilizer group, phase included,
    and, for n <= 10, maps the state of g onto that of h."""
    assert w is not None and w.n == g.n
    for a in range(g.n):
        image = clifford_conjugate_pauli(w, stabilizer_generator(g, a))
        assert image == stabilizer_element(h, image.x)
    if g.n <= 10:
        assert equal_up_to_global_phase(apply_local_clifford(graph_state(g), w),
                                        graph_state(h))


def test_single_edge_orbit_is_trivial():
    orb = orbits.lc_orbit(from_edges(2, [(0, 1)]))
    assert len(orb) == 1


def test_star_orbits_have_m_plus_one_members():
    for m in (*range(3, 9), 70):  # at 70 a packed orbit key spans many machine words
        orb = orbits.lc_orbit(star_graph(m))
        assert len(orb) == m + 1
        kinds = {g.edge_count for g in orb}
        assert kinds == {m - 1, m * (m - 1) // 2}  # m stars and one complete graph


def test_five_ring_orbit_has_three_shapes():
    orb = orbits.lc_orbit(cycle_graph(5))
    shapes = {canonical_form(g)[0].rows for g in orb}
    assert len(shapes) == 3


def test_closure_with_relabelings_of_five_ring():
    closure = orbits.lc_closure_with_relabelings(cycle_graph(5))
    assert len(closure) == 132
    shapes = {canonical_form(g)[0].rows for g in closure}
    assert len(shapes) == 3
    assert all(two_coloring(g) is None for g in closure)


def test_orbit_limit_raises():
    with pytest.raises(CapExceeded):
        orbits.lc_orbit(cycle_graph(7), limit=10)
    # C5 has 132 members in its orbit and as many in its closure
    g = cycle_graph(5)
    assert len(orbits.lc_orbit(g, limit=132)) == 132
    assert len(orbits.lc_closure_with_relabelings(g, limit=132)) == 132
    with pytest.raises(CapExceeded, match="orbit exceeded 131 members"):
        orbits.lc_orbit(g, limit=131)
    with pytest.raises(CapExceeded, match="closure exceeded 131 members"):
        orbits.lc_closure_with_relabelings(g, limit=131)


@pytest.mark.parametrize("walk", [orbits.lc_orbit, orbits.lc_closure_with_relabelings])
@pytest.mark.parametrize("limit", [0, -5])
def test_orbit_limit_below_one_is_a_value_error(walk, limit):
    # K2 and the empty graph have one member, so a cap checked only when a
    # member is added would let them through
    for g in (complete_graph(2), empty_graph(3), cycle_graph(5)):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            walk(g, limit=limit)


def test_orbits_longer_than_a_decode_chunk_match_a_plain_walk(reference_walk):
    # 1052, 808 and 5580 members: several chunks each and a partial last one
    chunk = orbits._DECODE_CHUNK
    for g in (cycle_graph(7), random_connected_graph(random.Random(3), 9, 0.4)):
        orbit = orbits.lc_orbit(g)
        assert len(orbit) > chunk and len(orbit) % chunk
        assert orbit == reference_walk(g)
    closure = orbits.lc_closure_with_relabelings(cycle_graph(6))
    assert len(closure) > chunk and len(closure) % chunk
    assert closure == reference_walk(cycle_graph(6), relabel_too=True)


@st.composite
def _small_graph(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edges(n, [e for e, k in zip(pairs, keep) if k])


@given(g=_small_graph())
@example(g=empty_graph(0))
@example(g=empty_graph(1))
@example(g=from_edges(8, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7)]))
# twins 0 and 1 share one flip mask; the leaf 4 and the isolated 5 have mask 0
@example(g=from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))
def test_orbit_matches_a_plain_walk_over_local_complements(reference_walk, g):
    assert orbits.lc_orbit(g) == reference_walk(g)


def test_closure_is_the_union_of_the_orbits_of_every_relabelling(reference_walk):
    rng = random.Random(33)
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for p in (0.3, 0.6):
            g = from_edges(n, [e for e in pairs if rng.random() < p])
            union = {h for perm in itertools.permutations(range(n))
                     for h in orbits.lc_orbit(relabel(g, perm))}
            closure = orbits.lc_closure_with_relabelings(g)
            assert closure == sorted(union, key=lambda h: h.rows)
            assert closure == reference_walk(g, relabel_too=True)


def test_lc_equivalent_basics():
    star = star_graph(5)
    assert orbits.lc_equivalent(star, complete_graph(5))
    assert orbits.lc_equivalent(star, star)
    assert not orbits.lc_equivalent(path_graph(4), star_graph(4))
    with pytest.raises(ValueError):
        orbits.lc_equivalent(star_graph(4), star_graph(5))


def test_lc_equivalence_is_symmetric_and_respects_moves():
    rng = random.Random(26)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 7))
        a = rng.randrange(g.n)
        h = local_complement(g, a)
        assert orbits.lc_equivalent(g, h)
        assert orbits.lc_equivalent(h, g)


def test_lc_equivalent_matches_orbit_walk_on_every_small_pair():
    # every ordered pair of labeled graphs on up to 4 vertices, disconnected
    # ones included; the orbit listing is the oracle
    for n in range(5):
        graphs = list(labelled_graphs(n))
        orbit_of = {}
        for g in graphs:
            if g.rows not in orbit_of:
                orbit = frozenset(x.rows for x in orbits.lc_orbit(g))
                orbit_of.update(dict.fromkeys(orbit, orbit))
        for g in graphs:
            for h in graphs:
                w = orbits.lc_equivalence_witness(g, h)
                assert (w is not None) == (h.rows in orbit_of[g.rows])
                if w is not None:
                    _assert_witness(g, h, w)


def test_lc_equivalent_matches_orbit_walk_on_seeded_pairs():
    rng = random.Random(29)
    for n in range(5, 9):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(6):
            g = from_edges(n, [e for e in pairs if rng.random() < 0.4])
            orbit = {x.rows for x in orbits.lc_orbit(g)}
            scrambled = _scramble(rng, g, 3 * n)
            unrelated = from_edges(n, [e for e in pairs if rng.random() < 0.4])
            relabelled = relabel(scrambled, rng.sample(range(n), n))
            for h in (scrambled, unrelated, relabelled):
                w = orbits.lc_equivalence_witness(g, h)
                assert (w is not None) == (h.rows in orbit)
                assert orbits.lc_equivalent(g, h) == (h.rows in orbit)
                if w is not None:
                    _assert_witness(g, h, w)


def test_lc_equivalent_splits_components():
    for n in (0, 1, 5):
        g = empty_graph(n)
        _assert_witness(g, g, orbits.lc_equivalence_witness(g, g))
    # a triangle and a 3-path swapped by a relabelling: the same component
    # partition, and the triangle is the 3-path complemented at its middle
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    h = relabel(g, (3, 4, 5, 0, 1, 2))
    _assert_witness(g, h, orbits.lc_equivalence_witness(g, h))
    # a 4-path and an edge swapped: the partitions differ
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    h = relabel(g, (2, 3, 4, 5, 0, 1))
    assert orbits.lc_equivalence_witness(g, h) is None
    assert not orbits.lc_equivalent(from_edges(3, [(0, 1)]), from_edges(3, [(1, 2)]))


def test_witnesses_on_the_benchmark_pool():
    pool = json.loads(LC_POOL.read_text())
    rng = random.Random(30)
    for entry in pool["equivalent"]:
        base = parse_graph6(entry["graph6"])
        g, h = _scramble(rng, base, 2 * base.n), _scramble(rng, base, 2 * base.n)
        _assert_witness(g, h, orbits.lc_equivalence_witness(g, h))
    families = set()
    for entry in pool["inequivalent"]:
        g, h = parse_graph6(entry["graph6_a"]), parse_graph6(entry["graph6_b"])
        assert orbits.lc_equivalence_witness(g, h) is None
        families.add(entry["family"])
    assert "petersen spoke swap" in families and len(families) == 6
    p = petersen_graph()
    assert orbits.lc_equivalence_witness(p, relabel(p, (5, 6, 7, 8, 9, 0, 1, 2, 3, 4))) is None


def test_witness_for_a_cluster_state_beyond_the_orbit_walk():
    rng = random.Random(31)
    g = grid_graph(6, 6)
    h = _scramble(rng, g, 72)
    _assert_witness(g, h, orbits.lc_equivalence_witness(g, h))
    assert orbits.lc_equivalence_witness(g, toggle_edge(h, 0, 35)) is None


def _lc_entry(g, h, mask, j, k):
    """The coefficients of entry (j, k) by the formula
    h_jk a_k + sum_i h_ji g_ik b_i + [j = k] c_j + g_jk d_j, one per unknown
    of _lc_system: a, b, c, then d, each over the vertices of mask."""
    def gb(x, y):
        return (g.rows[x] >> y) & 1

    def hb(x, y):
        return (h.rows[x] >> y) & 1

    vs = list(bits_of(mask))
    return ([hb(j, k) * (u == k) for u in vs]
            + [hb(j, i) * gb(i, k) for i in vs]
            + [int(j == k == u) for u in vs]
            + [gb(j, k) * (u == j) for u in vs])


def _assert_lc_system(g, h, mask):
    """Every bit of _lc_system(g, h, mask) is its coefficient by the formula:
    entries with j and k in mask, and zero everywhere else."""
    n = g.n
    columns = orbits._lc_system(g, h, mask)
    assert len(columns) == 4 * mask.bit_count()
    assert all(c >> (n * n) == 0 for c in columns)
    for j, k in itertools.product(range(n), repeat=2):
        got = [(c >> (j * n + k)) & 1 for c in columns]
        if (mask >> j) & (mask >> k) & 1:
            assert got == _lc_entry(g, h, mask, j, k), (g, h, mask, j, k)
        else:
            assert not any(got), (g, h, mask, j, k)


def test_lc_system_matches_its_formula_entry_by_entry():
    for n in range(4):
        graphs = list(labelled_graphs(n))
        for g, h in itertools.product(graphs, repeat=2):
            for mask in set(connected_components(g)) & set(connected_components(h)):
                _assert_lc_system(g, h, mask)
    rng = random.Random(32)
    for n in range(4, 8):
        for p in (0.2, 0.35, 0.5) * 2:
            g = from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            h = _scramble(rng, g, 2 * n)
            comps = connected_components(g)
            for mask in comps:
                _assert_lc_system(g, h, mask)
            # a pair toggled inside the largest component: the other
            # components stay common, and that one too unless it splits
            pairs = list(itertools.combinations(bits_of(max(comps, key=int.bit_count)), 2))
            if pairs:
                h = toggle_edge(h, *rng.choice(pairs))
                for mask in set(comps) & set(connected_components(h)):
                    _assert_lc_system(g, h, mask)


def test_bouchet_candidates_find_a_solution_in_any_kernel_basis(monkeypatch):
    """Stars and complete graphs (the GHZ class) have LC kernels of
    dimension above 4, where _invertible_solution tries only basis vectors
    and sums of two.  By Bouchet's lemma that finds an invertible solution
    whatever basis the kernel comes in: here the kernel basis is recombined
    by random invertible GF(2) matrices."""
    rng = random.Random(33)
    kernel = orbits.gf2_kernel_basis

    def recombined(columns):
        basis = kernel(columns)
        while True:
            matrix = [rng.getrandbits(len(basis)) for _ in basis]
            if gf2_rank_of_rows(matrix) == len(basis):
                break
        return [xor_of_selected(basis, r) for r in matrix]

    for make in (star_graph, complete_graph):
        for n in range(5, 10):
            for _ in range(3):
                g = _scramble(rng, make(n), n)
                h = _scramble(rng, g, 2 * n)
                mask = g.vertex_mask()
                assert len(kernel(orbits._lc_system(g, h, mask))) > 4
                with monkeypatch.context() as m:
                    m.setattr(orbits, "gf2_kernel_basis", recombined)
                    for _ in range(10):
                        assert orbits._invertible_solution(g, h, mask) is not None
                    _assert_witness(g, h, orbits.lc_equivalence_witness(g, h))


@st.composite
def _graph_and_scramble(draw):
    g = h = draw(_small_graph(min_n=1))
    for a in draw(st.lists(st.integers(0, g.n - 1), max_size=3 * g.n)):
        h = local_complement(h, a)
    return g, h


@given(_graph_and_scramble())
def test_scrambles_are_lc_equivalent_with_a_checked_witness(pair):
    g, h = pair
    assert orbits.lc_equivalent(g, h)
    _assert_witness(g, h, orbits.lc_equivalence_witness(g, h))


def test_rank_list_is_constant_on_orbits(schmidt_rank_list):
    rng = random.Random(27)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        ref = schmidt_rank_list(g)
        for a in range(g.n):
            assert schmidt_rank_list(local_complement(g, a)) == ref


def test_disjoint_orbits_of_one_class_have_different_rank_lists(
        schmidt_rank_list, rank_list_fingerprint):
    # two labelings of the 4-path that no complementation sequence connects:
    # same fingerprint (they are isomorphic) but different labeled rank lists
    base = path_graph(4)
    orb = {g.rows for g in orbits.lc_orbit(base)}
    other = None
    for perm in itertools.permutations(range(4)):
        cand = relabel(base, perm)
        if cand.rows not in orb:
            other = cand
            break
    assert other is not None
    assert not orbits.lc_equivalent(base, other)
    assert schmidt_rank_list(base) != schmidt_rank_list(other)
    assert rank_list_fingerprint(base) == rank_list_fingerprint(other)


def test_fingerprint_is_isomorphism_invariant(rank_list_fingerprint):
    rng = random.Random(28)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert rank_list_fingerprint(g) == \
            rank_list_fingerprint(relabel(g, perm))


def test_classify_two_vertices():
    records = orbits.classify(2)
    assert len(records) == 1
    rec = records[0]
    assert rec.member_count == 1 and rec.lower == rec.upper == 1


def test_classify_four_vertices():
    records = orbits.classify(4)
    assert [r.member_count for r in records] == [1, 2, 2, 4]
    assert [r.n_vertices for r in records] == [2, 3, 4, 4]
    assert [r.n_edges for r in records] == [1, 2, 3, 3]
    assert [(r.lower, r.upper) for r in records] == [(1, 1), (1, 1), (1, 1), (2, 2)]
    assert records[2].ri_2 == (0, 3)
    assert records[3].ri_2 == (2, 1)
    assert all(r.has_two_colorable_member for r in records)


def test_classify_six_vertices_has_nineteen_classes():
    records = orbits.classify(6)
    assert len(records) == 19
    assert sum(r.member_count for r in records) == 1 + 2 + 6 + 21 + 112


def test_classify_rejects_oversized_cap():
    with pytest.raises(CapExceeded):
        orbits.classify(orbits.CLASSIFY_CAP + 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: orbits.classify(1), ValueError, "n_max must be at least 2"),
    (lambda: orbits.classify(orbits.CLASSIFY_CAP + 1), CapExceeded,
     f"classification capped at n_max<={orbits.CLASSIFY_CAP}"),
], ids=["classify-small", "classify-cap"])
def test_entry_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_records_render_csv_json_dot():
    records = orbits.classify(3)
    csv_text = cli.records_to_csv(records)
    lines = csv_text.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 3
    data = json.loads(cli.records_to_json(records))
    assert [d["no"] for d in data] == [1, 2]
    for d in data:
        g = parse_graph6(d["representative"])
        assert g.n == d["n_vertices"]
    dot = cli.representatives_dot(records)
    assert dot.startswith("graph classes {")
    assert "cluster_1" in dot and "--" in dot


def test_classes_cover_every_connected_graph(lc_classes7, connected_classes):
    members = [g for cls in lc_classes7 for g in cls]
    for n, classes in connected_classes.items():
        assert {g for g in members if g.n == n} == set(classes)


def test_csv_matches_the_frozen_classify7_table(classification7):
    records = classification7
    assert cli.records_to_csv(records).encode() == (REFERENCE / "classify7.csv").read_bytes()


def test_classify_eight_matches_published_counts_and_the_frozen_table(classification8):
    # 101 classes (OEIS A090899) of 11,117 connected graphs (A001349) on 8
    # vertices; the frozen table pins every row and column beyond those counts
    at8 = [r for r in classification8 if r.n_vertices == 8]
    assert len(at8) == 101
    assert sum(r.member_count for r in at8) == 11_117
    assert cli.records_to_csv(classification8).encode() == CLASSIFY8.read_bytes()


def test_frozen_classify9_table_matches_published_counts_and_extends_classify8():
    # written by `python -m graphstates classify 9`, which takes minutes, so
    # a change to the class walk or to canonical_form is checked by a cmp of
    # its output against this file; here the file alone is read
    text = CLASSIFY9.read_bytes()
    rows = list(csv.DictReader(text.decode().splitlines()))
    assert len(rows) == 586
    at9 = [r for r in rows if r["n_vertices"] == "9"]
    assert len(at9) == 440  # OEIS A090899
    assert sum(int(r["class_size"]) for r in at9) == 261_080  # A001349
    assert b"".join(text.splitlines(keepends=True)[:147]) == CLASSIFY8.read_bytes()


def test_table_order_does_not_rest_on_the_representative(classification7):
    # the sort key short of the representative tells every class apart, so
    # the table's order does not depend on how canonical_form labels graphs
    keys = [(r.n_vertices, r.n_edges, r.lower, r.upper, r.ri_3, r.ri_2, r.member_count)
            for r in classification7]
    assert len(set(keys)) == len(keys) == 45


def _lc_class(g):
    """Canonical forms of the class of g under LC plus isomorphism, by a walk
    over the canonical forms of local complements."""
    members = [canonical_form(g)[0]]
    seen = set(members)
    for h in members:
        for a in range(h.n):
            image = canonical_form(local_complement(h, a))[0]
            if image not in seen:
                seen.add(image)
                members.append(image)
    return members


def test_member_edge_counts_order_classes_that_tie_before_them():
    # two classes on 9 vertices with 120 members each that agree on every
    # earlier key; H??WPFB has 1 member with 9 edges, H??GhVC has 3
    first, second = (_lc_class(parse_graph6(g6)) for g6 in ("H??WPFB", "H??GhVC"))
    for classes in ([first, second], [second, first]):
        records = orbits._records(classes)
        assert [r.representative for r in records] == ["H??WPFB", "H??GhVC"]
    a, b = records
    keys = [(r.n_vertices, r.n_edges, r.lower, r.upper, r.ri_3, r.ri_2, r.member_count)
            for r in records]
    assert keys[0] == keys[1]
    assert a.edge_histogram[9] == 1 and b.edge_histogram[9] == 3
    assert sum(a.edge_histogram) == sum(b.edge_histogram) == a.member_count == 120


def test_representatives_up_to_seven_vertices_are_pinned(classification7):
    # each is the least (edges, graph6) canonical form of its class, so a
    # change to the labelling canonical_form picks shows here
    assert [r.representative for r in classification7] == [
        "A_", "BW", "CF", "CL", "D?{", "D@s", "DBg", "DLo",
        "E?Bw", "E?Fg", "E?NG", "E?NO", "E@QW", "E@U_", "E?]o", "E@UW", "E@V_", "EBj?",
        "ELv_",
        "F??Fw", "F??Ng", "F??^G", "F??^O", "F??}O", "F?CeW", "F?CmG", "F?Cm_", "F?HSo",
        "F@Q?w", "F?LT?", "F??}o", "F?CmW", "F?Cn_", "F?H[o", "F?Dl_", "F@DKW", "F?LTG",
        "F?LV?", "F@UBG", "F@Ue?", "FBHKW", "F@Q^?", "F?]u_", "F@U^?", "F@Tn_"]


def test_class_counts_match_a090899(classification7):
    # connected graphs under LC plus isomorphism, n = 2..7 (OEIS A090899)
    records = classification7
    assert Counter(r.n_vertices for r in records) == {2: 1, 3: 1, 4: 2, 5: 4, 6: 11, 7: 26}


def test_classes_are_closed_under_local_complementation(lc_classes7):
    class_of = {g: i for i, members in enumerate(lc_classes7) for g in members}
    assert len(class_of) == sum(len(members) for members in lc_classes7) == 995
    for g, i in class_of.items():
        for a in range(g.n):
            assert class_of[canonical_form(local_complement(g, a))[0]] == i


def _untrimmed_lc_classes(n_max):
    """The class walk of orbits._lc_classes with no vertex skipped: every
    member is complemented at all n vertices."""
    classes = []
    reps = [from_edges(1, [])]
    for n in range(2, n_max + 1):
        seen = set()
        level = []
        for rep in reps:
            for s in range(1, 1 << (n - 1)):
                edges = rep.edges() + [(v, n - 1) for v in range(n - 1) if s >> v & 1]
                start = canonical_form(from_edges(n, edges))[0]
                if start in seen:
                    continue
                seen.add(start)
                members = [start]
                for g in members:
                    for a in range(n):
                        image = canonical_form(local_complement(g, a))[0]
                        if image not in seen:
                            seen.add(image)
                            members.append(image)
                level.append(members)
        classes.extend(level)
        reps = [members[0] for members in level]
    return classes


def test_trimmed_walk_lists_the_untrimmed_walks_classes_in_order(lc_classes7):
    # the classes of every n <= 7, members in walk order
    assert lc_classes7 == _untrimmed_lc_classes(7)


def test_walk_skips_degree_one_vertices_and_twins(monkeypatch):
    calls = 0

    def counting(g):
        nonlocal calls
        calls += 1
        return canonical_form(g)

    monkeypatch.setattr(orbits, "canonical_form", counting)
    orbits._lc_classes(6)
    # 974 when every vertex of every member is complemented and every
    # extension is tried, 679 with degree-one and twin skips alone
    assert calls == 431


@given(g=_small_graph(max_n=9))
@example(g=empty_graph(0))
@example(g=empty_graph(5))
@example(g=complete_graph(7))
# twins 0 and 1, the leaf 4 and the isolated 5
@example(g=from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]))
def test_complementing_an_image_at_the_witnessed_vertex_gives_the_graph_back(g):
    # canonical position i of an image is vertex perm[i] of the complement,
    # so the class walk may skip perm.index(a) when it walks the image
    form = canonical_form(g)[0]
    for a in range(g.n):
        image, perm = canonical_form(local_complement(g, a))
        assert canonical_form(local_complement(image, perm.index(a)))[0] == form


def _twin_prefix(rep, s):
    """s with its vertices in each twin set of rep moved to the least ones."""
    reps = twin_reps(rep.rows)
    prefix = 0
    for u in set(reps):
        twins = [v for v in range(rep.n) if reps[v] == u]
        for v in twins[:sum(s >> v & 1 for v in twins)]:
            prefix |= 1 << v
    return prefix


def test_walk_extends_each_representative_by_twin_prefix_subsets_only(monkeypatch,
                                                                      lc_classes8):
    tried = {}

    def recording(rep, s):
        tried.setdefault(rep, []).append(s)
        return _add_vertex(rep, s)

    monkeypatch.setattr(orbits, "_add_vertex", recording)
    orbits._lc_classes(7)
    reps = [cls[0] for cls in lc_classes8 if cls[0].n <= 6]
    assert list(tried) == [Graph(1, (0,))] + reps
    for rep in reps:
        subsets = range(1, 1 << rep.n)
        assert tried[rep] == [s for s in subsets if _twin_prefix(rep, s) == s]
        for s in subsets:
            # the least subset of its twin-swap orbit, so tried first
            prefix = _twin_prefix(rep, s)
            assert prefix <= s
            assert (canonical_form(_add_vertex(rep, prefix))[0]
                    == canonical_form(_add_vertex(rep, s))[0])


def test_class_upper_is_every_members_persistency(lc_classes8, classification8):
    # all 12,112 members up to 8 vertices.  The search branches on a member
    # whose cover is above the lower bound: a search without y overstates
    # members of the 20 classes with lower < upper, one without x overstates
    # 282 members of classes whose lower bound is tight.
    upper_of = {r.representative: r.upper for r in classification8}
    for cls in lc_classes8:
        rep = min(cls, key=lambda g: (g.edge_count, to_graph6(g)))
        for g in cls:
            assert pauli_persistency(g) == upper_of[to_graph6(rep)], to_graph6(g)


def test_classify_computes_no_cover_of_its_own(monkeypatch):
    calls = Counter()

    def counting(module, name):
        f = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(module, name, wrapped)

    # the bounds come from one bounds query per class, which asks the lower
    # bound once and runs the cover search (graphs._min_cover) once; orbits
    # has no name of its own for either part
    for name in ("min_vertex_cover", "_min_cover", "lower_bound_max_rank",
                 "pauli_persistency"):
        assert name not in vars(orbits)
    counting(entanglement, "_min_cover")
    counting(entanglement, "lower_bound_max_rank")
    counting(orbits, "rank_indices")
    orbits.classify(6)
    # each once per class representative: 19 classes of 142 members
    assert calls == {"_min_cover": 19, "lower_bound_max_rank": 19, "rank_indices": 19}


@pytest.mark.parametrize("name, column", [
    ("lower_bound_max_rank", lambda r: r.lower),
    pytest.param("rank_indices", lambda r: (r.ri_2, r.ri_3), id="rank_indices"),
])
def test_classify_checks_invariants_are_constant_on_a_class(lc_classes8, classification8,
                                                            name, column):
    # cut ranks are LC-invariant, so classify computes the lower bound and
    # the rank indices on the representative alone; here each is computed on
    # all 12,112 members of the 146 classes with n <= 8 and checked against
    # the class's record
    assert len(lc_classes8) == 146
    assert sum(len(cls) for cls in lc_classes8) == 12_112
    invariant = getattr(entanglement, name)
    record_of = {r.representative: r for r in classification8}
    for cls in lc_classes8:
        rep = min(cls, key=lambda g: (g.edge_count, to_graph6(g)))
        expected = column(record_of[to_graph6(rep)])
        for g in cls:
            assert invariant(g) == expected, to_graph6(g)
