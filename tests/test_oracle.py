"""Dense state-vector reference: construction, contraction, reductions.

Also the tests' own full-projection reference (project, insert_qubit,
BASIS_KETS), built from np.kron and imported by the measurement and
acceptance tests."""

import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from graphstates import oracle
from graphstates.entanglement import schmidt_rank
from graphstates.graphs import (
    CapExceeded,
    bits_of,
    cycle_graph,
    empty_graph,
    from_edges,
    induced_subgraph,
    local_complement,
    path_graph,
    random_connected_graph,
    star_graph,
    to_graph6,
)
from graphstates.oracle import CLIFFORD_MATRICES, PAULI_MATRICES
from graphstates.stabilizer import (
    CL_I,
    LocalClifford,
    PauliOp,
    local_complement_clifford,
    identity_clifford,
    stabilizer_generator,
)


def test_single_vertex_state():
    assert np.allclose(oracle.graph_state(empty_graph(1)),
                       np.array([1, 1]) / np.sqrt(2))


def test_edge_state():
    assert np.allclose(oracle.graph_state(from_edges(2, [(0, 1)])),
                       np.array([1, 1, 1, -1]) / 2)


def test_cap():
    with pytest.raises(CapExceeded):
        oracle.graph_state(empty_graph(oracle.STATE_CAP + 1))


def test_partial_trace_form_cap():
    n = oracle.TRACE_FORM_CAP
    assert oracle.verify_partial_trace_form(path_graph(n), (1 << n) - 2)
    with pytest.raises(CapExceeded):
        oracle.verify_partial_trace_form(path_graph(n + 1), (1 << (n + 1)) - 2)


def _index_bits(mask: int, n: int) -> int:
    """Vertex mask -> amplitude-index mask (vertex v is index bit n-1-v)."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def _apply_pauli(state: np.ndarray, p: PauliOp) -> np.ndarray:
    """Apply i^phase * prod X^x Z^z using index arithmetic."""
    n = len(state).bit_length() - 1
    assert p.n == n
    xi = _index_bits(p.x, n)
    zi = _index_bits(p.z, n)
    idx = np.arange(len(state))
    src = idx ^ xi
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zi) & 1)
    return (1j) ** p.phase * signs * state[src]


def test_generators_fix_the_state():
    rng = random.Random(29)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        state = oracle.graph_state(g)
        for a in range(g.n):
            fixed = _apply_pauli(state, stabilizer_generator(g, a))
            assert np.allclose(fixed, state, atol=1e-9)


def test_state_independent_of_edge_order():
    rng = random.Random(30)
    g = random_connected_graph(rng, 7)
    ref = oracle.graph_state(g)
    edges = g.edges()
    for _ in range(5):
        rng.shuffle(edges)
        again = oracle.graph_state(from_edges(g.n, edges))
        assert np.allclose(again, ref)


def test_projector_probabilities():
    plus = oracle.graph_state(empty_graph(1))
    _, prob = oracle.contract_qubit(plus, 0, "z", 1)
    assert abs(prob - 0.5) < 1e-12
    phi, prob = oracle.contract_qubit(plus, 0, "x", 1)
    assert abs(prob - 1.0) < 1e-12 and phi.shape == (1,)
    phi, prob = oracle.contract_qubit(plus, 0, "x", -1)
    assert prob < 1e-24 and abs(phi[0]) < 1e-12


def test_pauli_measurements_are_fair_coins_on_connected_graphs():
    rng = random.Random(31)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        state = oracle.graph_state(g)
        a = rng.randrange(g.n)
        for basis in ("x", "y", "z"):
            _, prob = oracle.contract_qubit(state, a, basis, 1)
            assert abs(prob - 0.5) < 1e-12


def test_phase_equality():
    s = oracle.graph_state(path_graph(3))
    assert oracle.equal_up_to_global_phase(s, np.exp(0.7j) * s)
    assert not oracle.equal_up_to_global_phase(s, oracle.graph_state(cycle_graph(3)))
    zero = np.zeros(len(s), dtype=complex)
    assert not oracle.equal_up_to_global_phase(zero, s)
    assert not oracle.equal_up_to_global_phase(s, zero)


def test_phase_equality_rejects_states_of_different_sizes():
    # numpy would fail on the reshape with a message that hides the slip
    s = oracle.graph_state(path_graph(3))
    with pytest.raises(ValueError, match="size mismatch"):
        oracle.equal_up_to_global_phase(s, oracle.graph_state(path_graph(2)))
    with pytest.raises(ValueError, match="size mismatch"):
        oracle.equal_up_to_global_phase(oracle.graph_state(path_graph(2)), s)


@pytest.mark.parametrize("call, error, message", [
    (lambda: oracle.apply_single_site(oracle.graph_state(path_graph(3)), 3,
                                      PAULI_MATRICES[0]), IndexError, "3"),
    (lambda: oracle.apply_local_clifford(oracle.graph_state(path_graph(3)),
                                         identity_clifford(2)), ValueError, "size mismatch"),
], ids=["single-site", "local-clifford-size"])
def test_entry_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_identity_clifford_is_noop():
    s = oracle.graph_state(path_graph(3))
    assert np.allclose(oracle.apply_local_clifford(s, identity_clifford(3)), s)


def test_local_complement_unitary_matches_graph_rule():
    rng = random.Random(32)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        a = rng.randrange(g.n)
        lhs = oracle.apply_local_clifford(oracle.graph_state(g),
                                          local_complement_clifford(g, a))
        rhs = oracle.graph_state(local_complement(g, a))
        assert oracle.equal_up_to_global_phase(lhs, rhs)


def test_reduced_rank_and_entropy_basic():
    product = oracle.graph_state(empty_graph(3))
    rank, entropy = oracle.reduced_rank_and_entropy(product, [0])
    assert rank == 1
    assert abs(entropy) < 1e-9
    bell = oracle.graph_state(from_edges(2, [(0, 1)]))
    rank, entropy = oracle.reduced_rank_and_entropy(bell, [0])
    assert rank == 2
    assert abs(entropy - 1.0) < 1e-9


def test_repeated_traced_vertices_count_once():
    state = oracle.graph_state(from_edges(3, [(1, 2)]))
    assert (oracle.reduced_rank_and_entropy(state, [0, 0])[0]
            == oracle.reduced_rank_and_entropy(state, [0])[0] == 1)
    assert np.allclose(oracle.reduced_density(state, [0, 0]),
                       oracle.reduced_density(state, [0]))


@pytest.mark.parametrize("traced", [[7], [-1], 1 << 7, -1, [0, 3]])
def test_traced_vertices_outside_the_state_are_rejected(traced):
    state = oracle.graph_state(from_edges(3, [(1, 2)]))
    with pytest.raises(IndexError):
        oracle.reduced_rank_and_entropy(state, traced)
    with pytest.raises(IndexError):
        oracle.reduced_density(state, traced)


def test_reduced_density_rejects_a_mask_beyond_the_state():
    with pytest.raises(IndexError):
        oracle.reduced_density(oracle.graph_state(from_edges(3, [(1, 2)])), 1 << 5)


def test_reduced_rank_and_entropy_follow_the_cut_rank():
    rng = random.Random(35)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        traced = rng.randrange(1, g.vertex_mask())
        r = schmidt_rank(g, traced)
        rank, entropy = oracle.reduced_rank_and_entropy(oracle.graph_state(g), traced)
        assert rank == 1 << r and abs(entropy - r) < 1e-9


def test_partial_trace_form_with_a_given_state():
    rng = random.Random(36)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        subset = rng.randrange(1, g.vertex_mask())
        assert oracle.verify_partial_trace_form(g, subset, state=oracle.graph_state(g))
        # the mixture comes from the reduced graph, so a product state, whose
        # reduction is pure, fails against the mixed reduction of a connected g
        product = oracle.graph_state(empty_graph(g.n))
        assert not oracle.verify_partial_trace_form(g, subset, state=product)


def test_partial_trace_form():
    k2 = from_edges(2, [(0, 1)])
    assert oracle.verify_partial_trace_form(k2, 0)       # empty set
    assert oracle.verify_partial_trace_form(k2, 0b01)    # single vertex
    rho = oracle.reduced_density(oracle.graph_state(k2), [0])
    assert np.allclose(rho, np.eye(2) / 2)  # maximally mixed
    rng = random.Random(33)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        subset = rng.randrange(0, 1 << g.n)
        assert oracle.verify_partial_trace_form(g, subset)


def _mixture_reference(g, a_mask):
    """The uniform mixture summed one z at a time: for each subset z of the
    traced vertices, the reduced graph's state with Z on every kept vertex
    adjacent to an odd number of them, added as an outer product."""
    a_verts = list(bits_of(a_mask))
    kept = [v for v in range(g.n) if not (a_mask >> v) & 1]
    pos = {v: i for i, v in enumerate(kept)}
    base = oracle.graph_state(induced_subgraph(g, g.vertex_mask() & ~a_mask))
    dim = len(base)
    idx = np.arange(dim)
    mix = np.zeros((dim, dim), dtype=complex)
    k = len(a_verts)
    for z in range(1 << k):
        zmask = 0
        for i, v in enumerate(a_verts):
            if (z >> i) & 1:
                zmask ^= g.rows[v]
        zmask &= ~a_mask
        phase_bits = 0
        for v in bits_of(zmask):
            phase_bits |= 1 << (len(kept) - 1 - pos[v])
        phased = (1.0 - 2.0 * (np.bitwise_count(idx & phase_bits) & 1)) * base
        mix += np.outer(phased, phased.conj())
    return mix / (1 << k)


def test_trace_mixture_matches_the_sum_of_outer_products():
    rng = random.Random(38)
    graphs = [empty_graph(0), empty_graph(1), empty_graph(4), star_graph(4)]
    graphs += [random_connected_graph(rng, n) for n in range(2, 8) for _ in range(3)]
    for g in graphs:
        for a_mask in range(1 << g.n):
            assert np.allclose(oracle._trace_mixture(g, a_mask), _mixture_reference(g, a_mask),
                               rtol=0, atol=1e-12), (to_graph6(g), a_mask)


def _cz_reference(g):
    """The graph state by definition: one controlled-Z per edge applied to
    the uniform superposition, each as a sign flip on the indices that hold
    both ends."""
    dim = 1 << g.n
    vec = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    idx = np.arange(dim)
    for a, b in g.edges():
        mask = (1 << (g.n - 1 - a)) | (1 << (g.n - 1 - b))
        vec[(idx & mask) == mask] *= -1.0
    return vec


def _labelled_graphs(n):
    pairs = list(combinations(range(n), 2))
    return [from_edges(n, [p for i, p in enumerate(pairs) if (bits >> i) & 1])
            for bits in range(1 << len(pairs))]


def test_graph_state_equals_cz_reference_on_all_labelled_graphs_up_to_5():
    for n in range(6):
        for g in _labelled_graphs(n):
            assert np.array_equal(oracle.graph_state(g), _cz_reference(g)), g.edges()


def test_graph_state_equals_cz_reference_on_empty_and_random_graphs():
    for n in range(3):
        assert np.array_equal(oracle.graph_state(empty_graph(n)),
                              _cz_reference(empty_graph(n)))
    rng = random.Random(34)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(2, oracle.STATE_CAP + 1))
        assert np.array_equal(oracle.graph_state(g), _cz_reference(g)), to_graph6(g)


# (I + sign * P) / 2 for the Pauli P of each basis, and the eigenvector |b>
# of P with eigenvalue sign that it projects onto.
_PROJECTORS = {(basis, sign): (np.eye(2) + sign * PAULI_MATRICES[axis]) / 2
               for axis, basis in zip(PAULI_MATRICES, "xyz") for sign in (1, -1)}
BASIS_KETS = {
    ("x", 1): np.array([1, 1]) / np.sqrt(2), ("x", -1): np.array([1, -1]) / np.sqrt(2),
    ("y", 1): np.array([1, 1j]) / np.sqrt(2), ("y", -1): np.array([1, -1j]) / np.sqrt(2),
    ("z", 1): np.array([1, 0]), ("z", -1): np.array([0, 1]),
}


def _kron_at(n, site, m):
    return np.kron(np.kron(np.eye(1 << site), m), np.eye(1 << (n - 1 - site)))


def _kron_apply(state, site, m):
    """(I_L (x) m (x) I_R) state with L = 2^site, R = 2^(n-1-site), as one
    np.kron factor on the smaller of the two sides, so no factor is larger
    than 2^(n//2 + 1) square."""
    n = len(state).bit_length() - 1
    left, right = 1 << site, 1 << (n - 1 - site)
    if left <= right:
        return (np.kron(np.eye(left), m) @ state.reshape(2 * left, right)).reshape(-1)
    return (state.reshape(left, 2 * right) @ np.kron(m, np.eye(right)).T).reshape(-1)


def project(state, site, basis, sign):
    """(probability, normalized post-measurement state); the state is None on
    the zero-probability branch.  The full n-qubit projection, as the
    reference for oracle.contract_qubit."""
    out = _kron_apply(state, site, _PROJECTORS[basis, sign])
    prob = float(np.vdot(out, out).real)
    if prob < 1e-12:
        return 0.0, None
    return prob, out / np.sqrt(prob)


def insert_qubit(state, site, ket):
    """Tensor the single-qubit state ket in at position site."""
    n = len(state).bit_length()
    return np.kron(state.reshape(1 << site, 1 << (n - 1 - site)),
                   np.asarray(ket).reshape(2, 1)).reshape(-1)


def test_apply_single_site_matches_kron_product():
    assert len(CLIFFORD_MATRICES) == 24 and len(_PROJECTORS) == 6
    rng = np.random.default_rng(35)
    for n in range(1, 7):
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for m in list(CLIFFORD_MATRICES) + list(_PROJECTORS.values()):
            for site in range(n):
                assert np.allclose(oracle.apply_single_site(state, site, m),
                                   _kron_at(n, site, m) @ state, atol=1e-12)


def test_apply_local_clifford_matches_the_per_site_kron_product():
    rng = np.random.default_rng(37)
    for n in range(1, 7):
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for c in range(24):
            for site in range(n):
                u = LocalClifford(tuple(c if v == site else CL_I for v in range(n)))
                assert np.allclose(oracle.apply_local_clifford(state, u),
                                   _kron_at(n, site, CLIFFORD_MATRICES[c]) @ state,
                                   atol=1e-12), (n, c, site)
        for _ in range(30):
            u = LocalClifford(tuple(int(c) for c in rng.integers(24, size=n)))
            ref = state
            for site, c in enumerate(u.indices):
                ref = _kron_at(n, site, CLIFFORD_MATRICES[c]) @ ref
            assert np.allclose(oracle.apply_local_clifford(state, u), ref, atol=1e-12), u


def test_monomial_table_holds_the_four_diagonal_and_four_antidiagonal_cliffords():
    # The zero entries of the table's matrices are rounding residues, not
    # exact zeros, so an exact test would miss the antidiagonal four.
    flips = [flip for flip, _, _ in oracle._MONOMIAL.values()]
    assert len(oracle._MONOMIAL) == 8
    assert flips.count(0) == 4 and flips.count(1) == 4
    for c, (flip, k0, k1) in oracle._MONOMIAL.items():
        m = np.zeros((2, 2), dtype=complex)
        m[0, flip], m[1, 1 - flip] = 1j ** k0, 1j ** k1
        assert np.allclose(CLIFFORD_MATRICES[c], m, atol=1e-12), c
    for c in set(range(24)) - set(oracle._MONOMIAL):
        assert np.abs(CLIFFORD_MATRICES[c]).min() > 0.7, c


def test_kron_apply_matches_the_full_kron_product():
    rng = np.random.default_rng(39)
    for n in range(1, 7):
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for m in _PROJECTORS.values():
            for site in range(n):
                assert np.allclose(_kron_apply(state, site, m), _kron_at(n, site, m) @ state)


def test_contraction_times_the_ket_is_the_projected_state():
    # P_b psi = |b> (x) <b|_a psi, and |<b|_a psi|^2 is the outcome's probability
    rng = random.Random(40)
    graphs = [g for n in range(1, 5) for g in _labelled_graphs(n)]
    graphs += [random_connected_graph(rng, n) for n in range(5, oracle.STATE_CAP + 1)
               for _ in range(2)]
    for g in graphs:
        state = oracle.graph_state(g)
        for (basis, sign), proj in _PROJECTORS.items():
            for site in range(g.n):
                phi, prob = oracle.contract_qubit(state, site, basis, sign)
                assert len(phi) == len(state) // 2
                projected = _kron_apply(state, site, proj)
                assert np.allclose(insert_qubit(phi, site, BASIS_KETS[basis, sign]),
                                   projected, rtol=0, atol=1e-12), (to_graph6(g), basis, sign)
                assert abs(prob - np.vdot(projected, projected).real) < 1e-12


@pytest.mark.parametrize("site", [-1, 3, 4])
def test_contraction_site_outside_the_state_is_an_index_error(site):
    with pytest.raises(IndexError):
        oracle.contract_qubit(oracle.graph_state(path_graph(3)), site, "x", 1)


@pytest.mark.parametrize("length", [0, 3, 6])
def test_state_length_not_a_power_of_two_is_a_value_error(length):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not a power of two"):
            oracle._n_qubits(np.zeros(length, dtype=complex))


@pytest.mark.parametrize("length, n", [(1, 0), (4096, 12)])
def test_state_length_power_of_two_is_accepted(length, n):
    assert oracle._n_qubits(np.zeros(length, dtype=complex)) == n
