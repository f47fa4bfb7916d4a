"""Dense state-vector reference implementation.

Verifies every graph rule against actual quantum states at small sizes.
Amplitude indexing: vertex 0 is the most significant bit, so axis v of the
state reshaped to (2,)*n is qubit v.

graph_state computes the definition of the graph state, the controlled-Z
circuit on the uniform superposition: the amplitude of basis state x is
(-1)^(number of edges with both ends in x) / 2^(n/2).  It reads only the
adjacency rows and uses no graph rule (measurement, local complementation,
stabilizer), so the checks built on it stay independent of those rules.
"""

from __future__ import annotations

import numpy as np

from .graphs import CapExceeded, Graph, as_mask, bits_of, induced_subgraph
from .stabilizer import (
    CLIFFORD_MATRICES,
    CL_I,
    LocalClifford,
    PAULI_MATRICES,
    PauliOp,
)

STATE_CAP = 12
TRACE_FORM_CAP = 10  # vertices before verify_partial_trace_form gives up
PHASE_TOL = 1e-9
RANK_TOL = 1e-8

_BASIS_VECTORS = {
    ("x", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("x", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
    ("z", +1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
}


_PROJECTORS = {
    (basis, sign): (np.eye(2, dtype=complex) + sign * PAULI_MATRICES[axis]) / 2
    for axis, basis in enumerate("xyz") for sign in (1, -1)
}

_PARITY_SIGN = np.array([1.0, -1.0])


def basis_eigenvector(basis: str, sign: int) -> np.ndarray:
    return _BASIS_VECTORS[(basis, sign)].copy()


def _n_qubits(state: np.ndarray) -> int:
    dim = len(state)
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"state length {dim} is not a power of two")
    return dim.bit_length() - 1


def _index_bits(mask: int, n: int) -> int:
    """Vertex mask -> amplitude-index mask (vertex v is index bit n-1-v)."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def graph_state(g: Graph) -> np.ndarray:
    """Controlled-Z circuit applied to the uniform superposition.

    Built one vertex at a time, from the last to vertex 0: vertex v becomes
    the new high bit, and its "1" half is the vector so far times
    (-1)^(number of later neighbours of v set in the index)."""
    if g.n > STATE_CAP:
        raise CapExceeded(f"dense states capped at n<={STATE_CAP}, got n={g.n}")
    n = g.n
    vec = np.full(1, 1.0 / np.sqrt(1 << n))
    idx = np.arange(1 << max(n - 1, 0))
    for v in range(n - 1, -1, -1):
        later = _index_bits(g.rows[v] >> (v + 1) << (v + 1), n)
        odd = np.bitwise_count(idx[:len(vec)] & later) & 1
        vec = np.concatenate((vec, vec * _PARITY_SIGN[odd]))
    return vec.astype(complex)


def apply_single_site(state: np.ndarray, site: int, m: np.ndarray) -> np.ndarray:
    n = _n_qubits(state)
    if not 0 <= site < n:
        raise IndexError(site)
    t = state.reshape(1 << site, 2, 1 << (n - 1 - site))
    t0 = t[:, 0, :]
    t1 = t[:, 1, :]
    out = np.empty(t.shape, dtype=np.result_type(m, state))
    out[:, 0, :] = m[0, 0] * t0 + m[0, 1] * t1
    out[:, 1, :] = m[1, 0] * t0 + m[1, 1] * t1
    return out.reshape(-1)


def apply_projector(state: np.ndarray, site: int, basis: str, sign: int
                    ) -> tuple[float, np.ndarray | None]:
    """(probability, normalized post-measurement state); state is None on the
    zero-probability branch."""
    if basis not in ("x", "y", "z"):
        raise ValueError(f"bad basis {basis!r}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = apply_single_site(state, site, _PROJECTORS[basis, sign])
    prob = float(np.vdot(out, out).real)
    if prob < 1e-12:
        return 0.0, None
    return prob, out / np.sqrt(prob)


def apply_local_clifford(state: np.ndarray, u: LocalClifford) -> np.ndarray:
    if u.n != _n_qubits(state):
        raise ValueError("size mismatch")
    out = state
    for site, idx in enumerate(u.indices):
        if idx != CL_I:
            out = apply_single_site(out, site, CLIFFORD_MATRICES[idx])
    return out


def apply_pauli(state: np.ndarray, p: PauliOp) -> np.ndarray:
    """Apply i^phase * prod X^x Z^z using index arithmetic."""
    n = _n_qubits(state)
    if p.n != n:
        raise ValueError("size mismatch")
    xi = _index_bits(p.x, n)
    zi = _index_bits(p.z, n)
    idx = np.arange(len(state))
    src = idx ^ xi
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zi) & 1)
    return (1j) ** p.phase * signs * state[src]


def equal_up_to_global_phase(s: np.ndarray, t: np.ndarray) -> bool:
    ns = np.sqrt(np.vdot(s, s).real)
    nt = np.sqrt(np.vdot(t, t).real)
    if ns < 1e-12 or nt < 1e-12:
        return False
    return abs(np.vdot(s, t)) / (ns * nt) >= 1.0 - PHASE_TOL


def insert_qubit(state: np.ndarray, site: int, vec2: np.ndarray) -> np.ndarray:
    """Tensor a single-qubit state in at the given position."""
    n = _n_qubits(state) + 1
    if not 0 <= site < n:
        raise IndexError(site)
    t = state.reshape(1 << site, 1, 1 << (n - 1 - site))
    return (t * np.asarray(vec2, dtype=complex).reshape(1, 2, 1)).reshape(-1)


def reduced_density(state: np.ndarray, traced) -> np.ndarray:
    """Density operator of the complement of the traced qubit set."""
    n = _n_qubits(state)
    mask = as_mask(n, traced)
    order = list(bits_of(mask)) + [v for v in range(n) if not (mask >> v) & 1]
    t = np.transpose(state.reshape((2,) * n), order).reshape(1 << mask.bit_count(), -1)
    return t.T @ t.conj()


def _small_side_spectrum(state: np.ndarray, traced_mask: int) -> np.ndarray:
    """Eigenvalues of the reduced density operator, diagonalized on whichever
    side is smaller (both sides share the nonzero spectrum for a pure state):
    the larger side is the one traced out."""
    n = _n_qubits(state)
    if 2 * traced_mask.bit_count() <= n:
        traced_mask ^= (1 << n) - 1
    return np.linalg.eigvalsh(reduced_density(state, traced_mask))


def reduced_rank_and_entropy(state: np.ndarray, traced) -> tuple[int, float]:
    """Rank, and entropy in bits, of the density operator left after tracing
    out the given qubits, both from one diagonalization."""
    mask = as_mask(_n_qubits(state), traced)
    if mask == 0:
        return (1 if np.linalg.norm(state) > RANK_TOL else 0), 0.0
    evals = _small_side_spectrum(state, mask)
    nonzero = evals[evals > 1e-14]
    return int((evals > RANK_TOL).sum()), float(-(nonzero * np.log2(nonzero)).sum())


def verify_partial_trace_form(g: Graph, traced, state: np.ndarray | None = None) -> bool:
    """Check that tracing out a vertex set equals the uniform mixture of
    locally rotated graph states of the reduced graph.

    state, when given, must be graph_state(g); the mixture is always built
    from the reduced graph's own state."""
    if g.n > TRACE_FORM_CAP:
        raise CapExceeded(f"partial-trace check capped at n<={TRACE_FORM_CAP}")
    a_mask = as_mask(g.n, traced)
    if state is None:
        state = graph_state(g)
    direct = reduced_density(state, a_mask)

    a_verts = list(bits_of(a_mask))
    kept = [v for v in range(g.n) if not (a_mask >> v) & 1]
    pos = {v: i for i, v in enumerate(kept)}
    reduced_graph = induced_subgraph(g, g.vertex_mask() & ~a_mask)
    base = graph_state(reduced_graph)
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
    mix /= 1 << k
    return bool(np.max(np.abs(mix - direct)) <= RANK_TOL)
