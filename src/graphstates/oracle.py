"""Dense state-vector reference implementation.

Verifies every graph rule against actual quantum states at small sizes.
Amplitude indexing: vertex 0 is the most significant bit, so axis v of the
state reshaped to (2,)*n is qubit v.

graph_state computes the definition of the graph state, the controlled-Z
circuit on the uniform superposition: the amplitude of basis state x is
(-1)^(x^T U x) / 2^(n/2), where U is the strict upper adjacency, so x^T U x
counts the edges with both ends in x.  The form is evaluated for all x at
once by splitting x into two halves of at most six vertices each (see
graph_state), so no bit table has more than 2^6 rows.

apply_local_clifford splits a local Clifford into its monomial sites, whose
matrices are a bit flip times a phase (I, X, Y, Z, S, S^dagger and two
more), and the rest.  The monomial sites act together as one index xor and
one phase i^k per amplitude; each other site is a 2x2 product on its axis.
The monomial table is read off CLIFFORD_MATRICES at import.

contract_qubit measures one qubit by contraction.  The projector onto the
eigenvector |b> of a Pauli basis at qubit a factors as

    P_b psi = |b> (x) <b|_a psi,

so post-selecting on |b> leaves |b> at a times phi = <b|_a psi, a state of
the other n - 1 qubits, and the outcome's probability is |phi|^2.  So a
measurement rule is checked on phi alone, against the rewritten graph's
state on those n - 1 qubits.

This module owns every matrix of the package and is its one numpy user;
the rest of graphstates runs on integer tables and loads it only for
verify.  CLIFFORD_MATRICES[i] is the product of the H/S word
CLIFFORD_WORDS[i], its phase normalized after each factor.  At import each
matrix's signed axis action, computed from the matrix itself, must equal
the symbolic table's CLIFFORD_AXIS_IMAGE[i], so the oracle checks the
symbolic walk instead of being its source.

The oracle reads a graph only through its adjacency rows and a local
Clifford only through CLIFFORD_MATRICES.  It uses no graph rule
(measurement, local complementation), and only its import check reads the
symbolic stabilizer tables (axis images, H/S words), so the checks built on
it stay independent of the rules they check.
"""

from __future__ import annotations

import numpy as np

from .graphs import CapExceeded, Graph, as_mask, bits_of, induced_subgraph
from .stabilizer import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    CLIFFORD_AXIS_IMAGE,
    CLIFFORD_WORDS,
    CL_I,
    LocalClifford,
)

STATE_CAP = 12
TRACE_FORM_CAP = 10  # vertices before verify_partial_trace_form gives up
PHASE_TOL = 1e-9
RANK_TOL = 1e-8

PAULI_MATRICES = {
    AXIS_X: np.array([[0, 1], [1, 0]], dtype=complex),
    AXIS_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    AXIS_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

_H_MATRIX = 1.0 / np.sqrt(2.0) * np.array([[1, 1], [1, -1]], dtype=complex)
_S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)


def _normalize_phase(m: np.ndarray) -> np.ndarray:
    """Scale by a unit phase so the first nonzero entry is real positive."""
    v = m.flat[np.flatnonzero(np.abs(m) > 1e-9)[0]]
    return m / (v / abs(v))


_PAULI_STACK = np.array([PAULI_MATRICES[ax] for ax in (AXIS_X, AXIS_Y, AXIS_Z)])


def _axis_action(m: np.ndarray) -> tuple[tuple[int, int], ...]:
    """((axis', sign) for X, Y, Z) with  m sigma m^dagger = sign * sigma_axis'.

    ValueError unless every image is a signed Pauli axis, which holds exactly
    for the Clifford unitaries, up to any global phase."""
    q = m @ _PAULI_STACK @ np.conj(m).T
    # sigma_b's coefficient in q_a is the Hilbert-Schmidt product / 2
    coeff = (q.reshape(3, 4) @ _PAULI_STACK.reshape(3, 4).conj().T).real / 2
    axes = np.abs(coeff).argmax(axis=1)
    signs = np.where(coeff[np.arange(3), axes] < 0, -1, 1)
    err = np.abs(q - signs[:, None, None] * _PAULI_STACK[axes]).max()
    if not err <= 1e-9:  # NaN fails too
        raise ValueError("not a single-qubit Clifford unitary")
    return tuple((int(a), int(s)) for a, s in zip(axes, signs))


def _clifford_matrices() -> np.ndarray:
    """Entry i is the product of the H/S word CLIFFORD_WORDS[i], left to
    right, its phase normalized after each factor.  AssertionError unless
    each matrix's own axis action is the symbolic CLIFFORD_AXIS_IMAGE[i]."""
    mats = []
    for i, word in enumerate(CLIFFORD_WORDS):
        m = np.eye(2, dtype=complex)
        for letter in word:
            m = _normalize_phase(m @ (_H_MATRIX if letter == "H" else _S_MATRIX))
        if _axis_action(m) != CLIFFORD_AXIS_IMAGE[i]:
            raise AssertionError(f"Clifford {i} ({word or 'I'}): matrix and "
                                 f"symbolic table disagree")
        mats.append(m)
    return np.array(mats)


CLIFFORD_MATRICES = _clifford_matrices()


_R = 1.0 / np.sqrt(2.0)
# <b|: the conjugated eigenvector of each (basis, sign), entries for bits 0, 1
_BRAS = {
    ("x", 1): (_R, _R), ("x", -1): (_R, -_R),
    ("y", 1): (_R, -1j * _R), ("y", -1): (_R, 1j * _R),
    ("z", 1): (1.0, 0.0), ("z", -1): (0.0, 1.0),
}

_PARITY_SIGN = np.array([1.0, -1.0])
_I_POWERS = np.array([1, 1j, -1, -1j])

# Row j of _BIT_TABLES[m] holds the m bits of j, most significant first: the
# vertex bits of one half of an amplitude index, in vertex order.
_BIT_TABLES = tuple((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
                    for m in range((STATE_CAP + 1) // 2 + 1))
_SHIFTS = np.arange(STATE_CAP)
# Entry e of _AMPLITUDES[n] is (-1)^e / 2^(n/2), for e from 0 to the number
# of vertex pairs.
_AMPLITUDES = tuple(
    np.resize(np.array([a, -a], dtype=complex), STATE_CAP * (STATE_CAP - 1) // 2 + 1)
    for a in (1.0 / np.sqrt(1 << n) for n in range(STATE_CAP + 1)))


def _monomial_cliffords() -> dict[int, tuple[int, int, int]]:
    """Clifford index -> (flip, k0, k1) for every matrix with one nonzero
    entry per row: output bit b takes the input amplitude at bit b ^ flip
    times i^(k_b).  Read off CLIFFORD_MATRICES, whose zero entries are only
    zero to rounding."""
    table = {}
    for idx, m in enumerate(CLIFFORD_MATRICES):
        for flip in (0, 1):
            if max(abs(m[0, 1 - flip]), abs(m[1, flip])) > PHASE_TOL:
                continue
            entries = np.array([m[0, flip], m[1, 1 - flip]])
            powers = np.rint(np.angle(entries) / (np.pi / 2)).astype(int) % 4
            if np.abs(entries - _I_POWERS[powers]).max() > PHASE_TOL:
                raise AssertionError(f"Clifford {idx} is not a phased bit flip")
            table[idx] = (flip, int(powers[0]), int(powers[1]))
    return table


_MONOMIAL = _monomial_cliffords()


def _n_qubits(state: np.ndarray) -> int:
    dim = len(state)
    if dim == 0 or dim & (dim - 1):
        raise ValueError(f"state length {dim} is not a power of two")
    return dim.bit_length() - 1


def graph_state(g: Graph) -> np.ndarray:
    """Controlled-Z circuit applied to the uniform superposition.

    The amplitude of basis state x is (-1)^(x^T U x) / 2^(n/2), with U the
    strict upper adjacency and x the vertex bits of the index.  Split x into
    its first h = n//2 vertices a (the high index bits) and the rest b:

        x^T U x = a^T U_aa a + b^T U_bb b + a^T U_ab b.

    With A and B the bit tables of the halves (row j holds the bits of j),
    the first two terms are the row-wise dot products of A U_aa with A and
    of B U_bb with B, and the cross term is the matrix (A U_ab) B^T, whose
    entry (j, k) belongs to amplitude index j * 2^(n-h) + k.  The sum, the
    number of edges inside x, picks the signed amplitude."""
    if g.n > STATE_CAP:
        raise CapExceeded(f"dense states capped at n<={STATE_CAP}, got n={g.n}")
    n = g.n
    h = n // 2
    upper = [r >> (a + 1) << (a + 1) for a, r in enumerate(g.rows)]
    u = (np.array(upper, dtype=np.int64)[:, None] >> _SHIFTS[:n]) & 1
    hi, lo = _BIT_TABLES[h], _BIT_TABLES[n - h]
    hi_u = hi @ u[:h]
    form = (np.vecdot(hi_u[:, :h], hi)[:, None] + np.vecdot(lo @ u[h:, h:], lo)
            + hi_u[:, h:] @ lo.T)
    return _AMPLITUDES[n][form.reshape(-1)]


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


def contract_qubit(state: np.ndarray, site: int, basis: str, sign: int
                   ) -> tuple[np.ndarray, float]:
    """(phi, |phi|^2) with phi = <b|_site state, the (n-1)-qubit state left
    beside |b> when the outcome sign of the Pauli basis is post-selected at
    site; |phi|^2 is that outcome's probability.  phi is not normalized."""
    n = _n_qubits(state)
    if not 0 <= site < n:
        raise IndexError(site)
    b0, b1 = _BRAS[basis, sign]
    t = state.reshape(1 << site, 2, 1 << (n - 1 - site))
    phi = (b0 * t[:, 0, :] + b1 * t[:, 1, :]).reshape(-1)
    return phi, float(np.vdot(phi, phi).real)


def apply_local_clifford(state: np.ndarray, u: LocalClifford) -> np.ndarray:
    """Every monomial site in one step, then apply_single_site per other site.

    The monomial sites (a bit flip times a phase, 8 of the 24 Cliffords)
    together move amplitude y ^ flip to y and multiply it by i^k, where k is
    the sum of their phase powers at the bits of y.  Site s adds k0 when its
    bit of y is 0 and k1 when it is 1, so k is the sum of the k0 plus the
    popcount of y over the sites whose step k1 - k0 (mod 4) has its 1 bit,
    plus twice that over the sites whose step has its 2 bit."""
    n = _n_qubits(state)
    if u.n != n:
        raise ValueError("size mismatch")
    flip = ones = twos = power = 0
    other = []
    for site, c in enumerate(u.indices):
        if c == CL_I:
            continue
        if c not in _MONOMIAL:
            other.append(site)
            continue
        f, k0, k1 = _MONOMIAL[c]
        bit = 1 << (n - 1 - site)
        step = (k1 - k0) & 3
        flip |= bit * f
        ones |= bit * (step & 1)
        twos |= bit * (step >> 1)
        power += k0
    out = state
    if flip or ones or twos or power & 3:
        idx = np.arange(len(state))
        k = power + np.bitwise_count(idx & ones) + 2 * np.bitwise_count(idx & twos)
        out = _I_POWERS[k & 3] * (state[idx ^ flip] if flip else state)
    for site in other:
        out = apply_single_site(out, site, CLIFFORD_MATRICES[u.indices[site]])
    return out


def equal_up_to_global_phase(s: np.ndarray, t: np.ndarray) -> bool:
    if len(s) != len(t):
        raise ValueError("size mismatch")
    ns = np.sqrt(np.vdot(s, s).real)
    nt = np.sqrt(np.vdot(t, t).real)
    if ns < 1e-12 or nt < 1e-12:
        return False
    return abs(np.vdot(s, t)) / (ns * nt) >= 1.0 - PHASE_TOL


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


def _trace_mixture(g: Graph, a_mask: int) -> np.ndarray:
    """Uniform mixture over z in {0,1}^k of the reduced graph's state with a
    Z on every kept neighbour of an odd number of the traced vertices that z
    selects, as (S^T S / 2^k) * (base base^dagger): row z of the 2^k x dim
    sign table S holds that Z string's sign on every amplitude."""
    kept = [v for v in range(g.n) if not (a_mask >> v) & 1]
    base = graph_state(induced_subgraph(g, g.vertex_mask() & ~a_mask))
    last = len(kept) - 1
    masks = [0]  # amplitude-index mask of the Z string of each z
    for v in bits_of(a_mask):
        z = sum(1 << (last - i) for i, w in enumerate(kept) if (g.rows[v] >> w) & 1)
        masks += [m ^ z for m in masks]
    signs = _PARITY_SIGN[np.bitwise_count(np.array(masks)[:, None] & np.arange(len(base))) & 1]
    return (signs.T @ signs) / len(masks) * np.outer(base, base.conj())


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
    return bool(np.max(np.abs(_trace_mixture(g, a_mask) - direct)) <= RANK_TOL)
