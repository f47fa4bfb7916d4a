"""Pauli algebra, stabilizer generators, and the single-qubit Clifford table."""

import random

import numpy as np
import pytest

from graphstates import oracle
from graphstates import stabilizer as st
from graphstates.graphs import (
    CapExceeded,
    Graph,
    as_mask,
    bits_of,
    complete_graph,
    cycle_graph,
    from_edges,
    local_complement,
    path_graph,
    random_connected_graph,
    star_graph,
)
from graphstates.measurement import conjugate_basis

_SQ2 = 1.0 / np.sqrt(2.0)

# principal square roots of +-i sigma_a (the byproduct alphabet)
SQRT_MATRICES = {
    ("x", +1): _SQ2 * np.array([[1, 1j], [1j, 1]], dtype=complex),    # (+i sx)^1/2
    ("x", -1): _SQ2 * np.array([[1, -1j], [-1j, 1]], dtype=complex),  # (-i sx)^1/2
    ("y", +1): _SQ2 * np.array([[1, 1], [-1, 1]], dtype=complex),     # (+i sy)^1/2
    ("y", -1): _SQ2 * np.array([[1, -1], [1, 1]], dtype=complex),     # (-i sy)^1/2
    ("z", +1): np.array([[np.exp(1j * np.pi / 4), 0], [0, np.exp(-1j * np.pi / 4)]]),
    ("z", -1): np.array([[np.exp(-1j * np.pi / 4), 0], [0, np.exp(1j * np.pi / 4)]]),
}


def clifford_index_of_matrix(m: np.ndarray) -> int:
    """Table index of a single-qubit Clifford matrix, up to global phase;
    ValueError for any other matrix."""
    return st.CLIFFORD_AXIS_IMAGE.index(oracle._axis_action(m))


def _pauli_matrix(p: st.PauliOp) -> np.ndarray:
    m = np.array([[1.0 + 0j]])
    for s in range(p.n):
        site = np.eye(2, dtype=complex)
        if (p.x >> s) & 1:
            site = site @ oracle.PAULI_MATRICES[st.AXIS_X]
        if (p.z >> s) & 1:
            site = site @ oracle.PAULI_MATRICES[st.AXIS_Z]
        m = np.kron(m, site)
    return (1j) ** p.phase * m


def identity_pauli(n: int) -> st.PauliOp:
    return st.PauliOp(n, 0, 0, 0)


def pauli_product(p: st.PauliOp, q: st.PauliOp) -> st.PauliOp:
    """Operator product p*q with the phase tracked mod 4, one site pair at a
    time: the reference for stabilizer_element's closed form."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    extra = 2 * ((p.z & q.x).bit_count() & 1)  # Z X = - X Z per site
    return st.PauliOp(p.n, p.x ^ q.x, p.z ^ q.z, p.phase + q.phase + extra)


def test_generator_examples():
    assert str(st.stabilizer_generator(from_edges(2, []), 0)) == "+XI"
    assert str(st.stabilizer_generator(path_graph(3), 1)) == "+ZXZ"
    assert str(st.stabilizer_generator(star_graph(4), 0)) == "+XZZZ"


def test_product_identity_and_involution():
    g = cycle_graph(4)
    k = st.stabilizer_generator(g, 0)
    assert pauli_product(k, identity_pauli(4)) == k
    assert pauli_product(k, k) == identity_pauli(4)


def test_single_site_xz_product():
    x = st.PauliOp(1, 1, 0)
    z = st.PauliOp(1, 0, 1)
    assert str(pauli_product(x, z)) == "-iY"
    assert str(pauli_product(z, x)) == "+iY"


def test_generators_commute_exhaustively(connected_classes):
    for n in range(2, 8):
        for g in connected_classes[n]:
            gens = [st.stabilizer_generator(g, a) for a in range(n)]
            for i in range(n):
                for j in range(i, n):
                    assert pauli_product(gens[i], gens[j]) == \
                        pauli_product(gens[j], gens[i])


def test_stabilizer_element_examples():
    k2 = from_edges(2, [(0, 1)])
    assert st.stabilizer_element(k2, 0) == identity_pauli(2)
    assert st.stabilizer_element(k2, 0b01) == st.stabilizer_generator(k2, 0)
    assert str(st.stabilizer_element(k2, 0b11)) == "+YY"


def test_product_matches_dense_matrices():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(1, 4)
        p, q = (st.PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
                for _ in range(2))
        assert np.allclose(_pauli_matrix(pauli_product(p, q)),
                           _pauli_matrix(p) @ _pauli_matrix(q), atol=1e-9)


def test_stabilizer_element_is_the_ordered_generator_product(connected_classes):
    # the closed form against the generator-by-generator product, and its
    # phase against 2|E(S)|, on every subset of every class representative
    # with n <= 5
    for n in range(2, 6):
        for g in connected_classes[n]:
            for s in range(1 << n):
                ref = identity_pauli(n)
                for a in bits_of(s):
                    ref = pauli_product(ref, st.stabilizer_generator(g, a))
                element = st.stabilizer_element(g, s)
                assert element == ref
                edges = sum((g.rows[a] & s).bit_count() for a in bits_of(s)) // 2
                assert element.phase == 2 * edges % 4


def test_stabilizer_element_is_homomorphism_mod_phase():
    rng = random.Random(10)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        s1 = rng.randrange(1 << g.n)
        s2 = rng.randrange(1 << g.n)
        a = st.stabilizer_element(g, s1)
        b = st.stabilizer_element(g, s2)
        c = st.stabilizer_element(g, s1 ^ s2)
        prod = pauli_product(a, b)
        assert (prod.x, prod.z) == (c.x, c.z)


SUPPORT_CAP = 16  # vertices before exact_support_count gives up


def exact_support_count(g: Graph, subset) -> int:
    """Number of stabilizer elements acting non-trivially exactly on the subset.

    Only generator products over S within the subset can qualify (the
    X-support of the product is S itself), so the enumeration is over
    submasks of the subset.  Acceptance criterion 09 counts with it too.
    """
    a_mask = as_mask(g.n, subset)
    if g.n > SUPPORT_CAP:
        raise CapExceeded(f"support enumeration capped at n<={SUPPORT_CAP}, got n={g.n}")
    count = 0
    s = a_mask
    while True:
        zsup = 0
        for v in bits_of(s):
            zsup ^= g.rows[v]
        if (s | zsup) == a_mask:
            count += 1
        if s == 0:
            break
        s = (s - 1) & a_mask
    return count


def test_exact_support_count_examples():
    k2 = from_edges(2, [(0, 1)])
    assert exact_support_count(k2, 0) == 1
    assert exact_support_count(k2, 0b11) == 3


def test_exact_support_count_cap():
    assert exact_support_count(path_graph(SUPPORT_CAP), 0b1) == 0
    with pytest.raises(CapExceeded):
        exact_support_count(path_graph(SUPPORT_CAP + 1), 0b1)


def test_support_count_identity_random():
    # sum over subsets B of A of I_B equals 2^(|A| - cross rank)
    from graphstates.entanglement import schmidt_rank

    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(2, 7))
        a_mask = rng.randrange(1, 1 << g.n)
        if a_mask.bit_count() > 4:
            continue
        total = 0
        b = a_mask
        while True:
            total += exact_support_count(g, b)
            if b == 0:
                break
            b = (b - 1) & a_mask
        if a_mask == g.vertex_mask():
            rank = 0
        else:
            rank = schmidt_rank(g, a_mask)
        assert total == 1 << (a_mask.bit_count() - rank)


def test_clifford_table_is_a_group_of_24():
    assert len(st.CLIFFORD_NAMES) == 24
    for i in range(24):
        assert st.CLIFFORD_COMPOSE[i][st.CL_I] == i
        assert st.CLIFFORD_COMPOSE[st.CL_I][i] == i
        assert st.CLIFFORD_COMPOSE[i][st.CLIFFORD_INVERSE[i]] == st.CL_I
    rng = random.Random(12)
    for _ in range(100):
        i, j, k = (rng.randrange(24) for _ in range(3))
        ij_k = st.CLIFFORD_COMPOSE[st.CLIFFORD_COMPOSE[i][j]][k]
        i_jk = st.CLIFFORD_COMPOSE[i][st.CLIFFORD_COMPOSE[j][k]]
        assert ij_k == i_jk


def test_sqrt_matrices_square_to_targets():
    for (axis, sign), m in SQRT_MATRICES.items():
        target = sign * 1j * oracle.PAULI_MATRICES["xyz".index(axis)]
        assert np.allclose(m @ m, target, atol=1e-9)


def test_axis_action_matches_matrices():
    for idx in range(24):
        u = oracle.CLIFFORD_MATRICES[idx]
        for axis in (st.AXIS_X, st.AXIS_Y, st.AXIS_Z):
            axis2, sign = st.clifford_axis_image(idx, axis)
            got = u @ oracle.PAULI_MATRICES[axis] @ u.conj().T
            assert np.allclose(got, sign * oracle.PAULI_MATRICES[axis2], atol=1e-9)


def test_projector_commutation_relations_all_elements():
    # P(basis, sign) U == U P(basis', sign') for every table element
    def proj(basis, sign):
        axis = "xyz".index(basis)
        return (np.eye(2, dtype=complex) + sign * oracle.PAULI_MATRICES[axis]) / 2
    for idx in range(24):
        u = oracle.CLIFFORD_MATRICES[idx]
        for basis in "xyz":
            for sign in (1, -1):
                b2, s2 = conjugate_basis(idx, basis, sign)
                assert np.allclose(proj(basis, sign) @ u, u @ proj(b2, s2),
                                   atol=1e-9)


def test_projector_commutation_spot_values():
    assert conjugate_basis(st.CL_Z, "x", 1) == ("x", -1)
    assert conjugate_basis(st.CL_SQRT_IY, "z", 1) == ("x", 1)
    assert conjugate_basis(st.CL_I, "y", -1) == ("y", -1)
    # a Z-rotation byproduct converts a later x measurement into a y one
    assert conjugate_basis(st.CL_SQRT_MIZ, "x", 1)[0] == "y"


def test_conjugate_pauli_flips_x_under_z():
    p = st.PauliOp(1, 1, 0)
    u = st.LocalClifford((st.CL_Z,))
    assert str(st.clifford_conjugate_pauli(u, p)) == "-X"


def test_conjugate_pauli_matches_matrices_multisite():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randrange(1, 4)
        p = st.PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n),
                       rng.randrange(4))
        u = st.LocalClifford(tuple(rng.randrange(24) for _ in range(n)))
        q = st.clifford_conjugate_pauli(u, p)
        big = np.array([[1.0 + 0j]])
        for s in range(n):
            big = np.kron(big, oracle.CLIFFORD_MATRICES[u.indices[s]])
        assert np.allclose(big @ _pauli_matrix(p) @ big.conj().T,
                           _pauli_matrix(q), atol=1e-9)


def test_compose_matches_matrix_product():
    for i in range(24):
        for j in range(24):
            m = oracle.CLIFFORD_MATRICES[i] @ oracle.CLIFFORD_MATRICES[j]
            assert clifford_index_of_matrix(m) == st.CLIFFORD_COMPOSE[i][j]


def test_inverse_matches_conjugate_transpose():
    for i in range(24):
        m = oracle.CLIFFORD_MATRICES[i].conj().T
        assert clifford_index_of_matrix(m) == st.CLIFFORD_INVERSE[i]


def test_index_of_matrix_ignores_global_phase():
    assert clifford_index_of_matrix(np.exp(0.3j) * oracle.CLIFFORD_MATRICES[5]) == 5


@pytest.mark.parametrize("m", [
    np.diag([1, np.exp(1j * np.pi / 4)]),  # T: unitary, not Clifford
    2 * np.eye(2),                          # not unitary
    np.zeros((2, 2)),
    np.full((2, 2), np.nan),
])
def test_index_of_matrix_rejects_non_cliffords(m):
    with pytest.raises(ValueError):
        oracle._axis_action(m.astype(complex))


def test_table_order_is_pinned():
    # the index order shows in measure's byproduct strings and in the
    # Clifford that lc_equivalence_witness prints
    assert st.CLIFFORD_NAMES == (
        "I", "H", "S", "HS", "SH", "Z", "Qx-", "Qy-", "Qx+", "Qy+", "Sd", "HSHS",
        "X", "HSSS", "SHSS", "SSHS", "HSHSS", "HSSHS", "SHSSH", "SHSSS", "SSHSS",
        "HSHSSH", "HSHSSS", "Y")
    assert st.CLIFFORD_BY_ACTION == {
        (1, 0, 0, 1): 0, (0, 1, 1, 0): 1, (1, 0, 1, 1): 2, (1, 1, 1, 0): 3,
        (0, 1, 1, 1): 4, (1, 1, 0, 1): 6}


def test_named_cliffords_match_their_matrices():
    # the constants are literal axis actions; each must name the table index
    # of the matrix it stands for (S and S^dagger share theirs with the
    # square roots of -+i sigma_z)
    pauli, sqrt = oracle.PAULI_MATRICES, SQRT_MATRICES
    pairs = [
        (st.CL_I, np.eye(2, dtype=complex)),
        (st.CL_X, pauli[st.AXIS_X]),
        (st.CL_Y, pauli[st.AXIS_Y]),
        (st.CL_Z, pauli[st.AXIS_Z]),
        (st.CL_H, oracle._H_MATRIX),
        (st.CL_S, oracle._S_MATRIX),
        (st.CL_SDG, oracle._S_MATRIX.conj().T),
        (st.CL_SQRT_MIX, sqrt["x", -1]),
        (st.CL_SQRT_IY, sqrt["y", +1]),
        (st.CL_SQRT_MIY, sqrt["y", -1]),
        (st.CL_SQRT_IZ, sqrt["z", +1]),
        (st.CL_SQRT_MIZ, sqrt["z", -1]),
        (st.CLIFFORD_NAMES.index("Qx+"), sqrt["x", +1]),
    ]
    for idx, m in pairs:
        assert clifford_index_of_matrix(m) == idx


def test_local_complement_clifford_shape():
    g = star_graph(4)
    u = st.local_complement_clifford(g, 0)
    assert u.indices[0] == st.CL_SQRT_MIX
    assert all(u.indices[b] == st.CL_SQRT_IZ for b in (1, 2, 3))
    assert "Qx-@0" in str(u)


@pytest.mark.parametrize("call", [
    lambda: st.clifford_compose(st.identity_clifford(2), st.identity_clifford(3)),
    lambda: st.clifford_conjugate_pauli(st.identity_clifford(2), st.PauliOp(3, 0, 0)),
], ids=["compose", "conjugate"])
def test_entry_checks(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "size mismatch"


def test_pauli_validation():
    with pytest.raises(ValueError):
        st.PauliOp(2, 0b100, 0)
    with pytest.raises(ValueError):
        pauli_product(identity_pauli(2), identity_pauli(3))
