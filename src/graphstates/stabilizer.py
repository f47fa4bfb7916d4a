"""Symbolic Pauli and local-Clifford algebra for graph-state stabilizers.

PauliOp stores an n-qubit Pauli in symplectic form: X-support mask, Z-support
mask, and a global phase as a power of i.  The operator it denotes is

    i^phase * prod_sites X^{x_s} Z^{z_s}

so a site in both supports carries XZ = -iY.  Single-qubit Cliffords live in
a precomputed 24-element table (indices, composition, inverse, and signed
axis action).  The group is keyed by its exact signed axis action, how each
element permutes and signs X, Y and Z; all symbolic paths use the integer
tables only.  Matrices exist only for the dense oracle and for
clifford_index_of_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CapExceeded, Graph, bits_of, as_mask

AXIS_X, AXIS_Y, AXIS_Z = 0, 1, 2
SUPPORT_CAP = 16  # vertices before exact_support_count gives up

_SQ2 = 1.0 / np.sqrt(2.0)

PAULI_MATRICES = {
    AXIS_X: np.array([[0, 1], [1, 0]], dtype=complex),
    AXIS_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    AXIS_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

_H_MATRIX = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
_S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)

# principal square roots of +-i sigma_a (the byproduct alphabet)
SQRT_MATRICES = {
    ("x", +1): _SQ2 * np.array([[1, 1j], [1j, 1]], dtype=complex),    # (+i sx)^1/2
    ("x", -1): _SQ2 * np.array([[1, -1j], [-1j, 1]], dtype=complex),  # (-i sx)^1/2
    ("y", +1): _SQ2 * np.array([[1, 1], [-1, 1]], dtype=complex),     # (+i sy)^1/2
    ("y", -1): _SQ2 * np.array([[1, -1], [1, 1]], dtype=complex),     # (-i sy)^1/2
    ("z", +1): np.array([[np.exp(1j * np.pi / 4), 0], [0, np.exp(-1j * np.pi / 4)]]),
    ("z", -1): np.array([[np.exp(-1j * np.pi / 4), 0], [0, np.exp(1j * np.pi / 4)]]),
}


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


def _compose_action(a: tuple, b: tuple) -> tuple:
    """Signed axis action of U_a U_b: b's image first, then a's."""
    return tuple((a[ax][0], sign * a[ax][1]) for ax, sign in b)


def _build_tables():
    """Breadth-first walk from I over right factors H then S, keyed by the
    exact signed axis action (a Clifford is fixed by it up to phase); each
    element's word is its shortest H/S product, first found by the walk."""
    gens = [(m, _axis_action(m), letter) for m, letter in ((_H_MATRIX, "H"), (_S_MATRIX, "S"))]
    mats = [np.eye(2, dtype=complex)]
    images = [_axis_action(mats[0])]
    words = [""]
    index = {images[0]: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for gen, gen_image, letter in gens:
                image = _compose_action(images[i], gen_image)
                if image not in index:
                    index[image] = len(images)
                    images.append(image)
                    mats.append(_normalize_phase(mats[i] @ gen))
                    words.append(words[i] + letter)
                    nxt.append(index[image])
        frontier = nxt
    if len(mats) != 24:
        raise AssertionError(f"expected 24 single-qubit Cliffords, built {len(mats)}")
    compose = [[index[_compose_action(a, b)] for b in images] for a in images]
    inverse = [row.index(0) for row in compose]
    return np.array(mats), compose, inverse, tuple(images), words


(CLIFFORD_MATRICES, CLIFFORD_COMPOSE, CLIFFORD_INVERSE, CLIFFORD_AXIS_IMAGE,
 _WORDS) = _build_tables()


def clifford_index_of_matrix(m: np.ndarray) -> int:
    """Table index of a single-qubit Clifford matrix, up to global phase;
    ValueError for any other matrix."""
    return CLIFFORD_AXIS_IMAGE.index(_axis_action(m))


CL_I = clifford_index_of_matrix(np.eye(2, dtype=complex))
CL_X = clifford_index_of_matrix(PAULI_MATRICES[AXIS_X])
CL_Y = clifford_index_of_matrix(PAULI_MATRICES[AXIS_Y])
CL_Z = clifford_index_of_matrix(PAULI_MATRICES[AXIS_Z])
CL_H = clifford_index_of_matrix(_H_MATRIX)
CL_S = clifford_index_of_matrix(_S_MATRIX)
CL_SDG = clifford_index_of_matrix(_S_MATRIX.conj().T)
CL_SQRT_MIX = clifford_index_of_matrix(SQRT_MATRICES[("x", -1)])
CL_SQRT_IY = clifford_index_of_matrix(SQRT_MATRICES[("y", +1)])
CL_SQRT_MIY = clifford_index_of_matrix(SQRT_MATRICES[("y", -1)])
CL_SQRT_IZ = clifford_index_of_matrix(SQRT_MATRICES[("z", +1)])
CL_SQRT_MIZ = clifford_index_of_matrix(SQRT_MATRICES[("z", -1)])

_NAMES = {CL_I: "I", CL_X: "X", CL_Y: "Y", CL_Z: "Z", CL_H: "H", CL_S: "S", CL_SDG: "Sd",
          CL_SQRT_MIX: "Qx-", clifford_index_of_matrix(SQRT_MATRICES["x", +1]): "Qx+",
          CL_SQRT_IY: "Qy+", CL_SQRT_MIY: "Qy-"}
# the rest get their shortest H/S word
CLIFFORD_NAMES = tuple(_NAMES.get(i, word) for i, word in enumerate(_WORDS))


def clifford_axis_image(idx: int, axis: int) -> tuple[int, int]:
    """(axis', sign) with  U sigma_axis U^dagger = sign * sigma_axis'."""
    return CLIFFORD_AXIS_IMAGE[idx][axis]


# ---------------------------------------------------------------------------
# Pauli operators

@dataclass(frozen=True)
class PauliOp:
    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if (self.x & ~full) or (self.z & ~full):
            raise ValueError("support outside of qubit range")
        object.__setattr__(self, "phase", self.phase % 4)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0 and self.phase == 0

    def __str__(self) -> str:
        """Human-readable form like '+XZZI' or '-iYY'."""
        y_count = (self.x & self.z).bit_count()
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[(self.phase - y_count) % 4]
        return prefix + "".join("IXZY"[((self.x >> s) & 1) + 2 * ((self.z >> s) & 1)]
                                for s in range(self.n))


def identity_pauli(n: int) -> PauliOp:
    return PauliOp(n, 0, 0, 0)


def pauli_product(p: PauliOp, q: PauliOp) -> PauliOp:
    """Operator product p*q with the phase tracked mod 4."""
    if p.n != q.n:
        raise ValueError("size mismatch")
    extra = 2 * ((p.z & q.x).bit_count() & 1)  # Z X = - X Z per site
    return PauliOp(p.n, p.x ^ q.x, p.z ^ q.z, p.phase + q.phase + extra)


def commutes(p: PauliOp, q: PauliOp) -> bool:
    """Symplectic inner product is zero."""
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def stabilizer_generator(g: Graph, a: int) -> PauliOp:
    """X on a, Z on every neighbor of a."""
    g._check_vertex(a)
    return PauliOp(g.n, 1 << a, g.rows[a], 0)


def stabilizer_element(g: Graph, subset) -> PauliOp:
    """Ordered product of generators over the subset, ascending vertex index."""
    mask = as_mask(g.n, subset)
    out = identity_pauli(g.n)
    for a in bits_of(mask):
        out = pauli_product(out, stabilizer_generator(g, a))
    return out


def exact_support_count(g: Graph, subset) -> int:
    """Number of stabilizer elements acting non-trivially exactly on the subset.

    Only generator products over S within the subset can qualify (the
    X-support of the product is S itself), so the enumeration is over
    submasks of the subset.
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


# ---------------------------------------------------------------------------
# local Cliffords (one table index per vertex)

@dataclass(frozen=True)
class LocalClifford:
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        for i in self.indices:
            if not 0 <= i < 24:
                raise ValueError("invalid Clifford index")

    @property
    def n(self) -> int:
        return len(self.indices)

    def is_identity(self) -> bool:
        return all(i == CL_I for i in self.indices)

    def __str__(self) -> str:
        parts = [f"{CLIFFORD_NAMES[idx]}@{v}" for v, idx in enumerate(self.indices)
                 if idx != CL_I]
        return " ".join(parts) if parts else "I"


def identity_clifford(n: int) -> LocalClifford:
    return LocalClifford((CL_I,) * n)


def embed_clifford(n: int, assignments: dict[int, int]) -> LocalClifford:
    idx = [CL_I] * n
    for v, c in assignments.items():
        idx[v] = c
    return LocalClifford(tuple(idx))


def clifford_compose(u: LocalClifford, v: LocalClifford) -> LocalClifford:
    """Composite acting as v first, then u (matrix product u @ v per site)."""
    if u.n != v.n:
        raise ValueError("size mismatch")
    return LocalClifford(tuple(CLIFFORD_COMPOSE[a][b] for a, b in zip(u.indices, v.indices)))


_BITS_TO_AXIS = {(1, 0): AXIS_X, (1, 1): AXIS_Y, (0, 1): AXIS_Z}
_AXIS_TO_BITS = {AXIS_X: (1, 0), AXIS_Y: (1, 1), AXIS_Z: (0, 1)}


def _build_action_index() -> dict[tuple[int, int, int, int], int]:
    out: dict[tuple[int, int, int, int], int] = {}
    for idx, images in enumerate(CLIFFORD_AXIS_IMAGE):
        a, c = _AXIS_TO_BITS[images[AXIS_X][0]]
        b, d = _AXIS_TO_BITS[images[AXIS_Z][0]]
        out.setdefault((a, b, c, d), idx)
    return out


# Binary action (a, b, c, d) -> the lowest Clifford index with that action:
# X goes to X^a Z^c and Z to X^b Z^d, up to sign.  The six invertible 2x2
# matrices over GF(2) each take four of the 24 indices, one per Pauli factor.
CLIFFORD_BY_ACTION = _build_action_index()


def clifford_conjugate_pauli(u: LocalClifford, p: PauliOp) -> PauliOp:
    """U p U^dagger, staying inside the Pauli group."""
    if u.n != p.n:
        raise ValueError("size mismatch")
    new_x = new_z = 0
    sign_flips = 0
    y_in = (p.x & p.z).bit_count()
    y_out = 0
    for s in range(p.n):
        xb = (p.x >> s) & 1
        zb = (p.z >> s) & 1
        if not (xb or zb):
            continue
        axis = _BITS_TO_AXIS[(xb, zb)]
        axis2, sign = CLIFFORD_AXIS_IMAGE[u.indices[s]][axis]
        if sign < 0:
            sign_flips += 1
        xb2, zb2 = _AXIS_TO_BITS[axis2]
        new_x |= xb2 << s
        new_z |= zb2 << s
        y_out += xb2 & zb2
    # value = i^{phase - y_in} * (hermitian string); conjugation maps the
    # hermitian string to +-(new hermitian string) = i^{y_out} * XZ-form
    phase = p.phase - y_in + y_out + 2 * sign_flips
    return PauliOp(p.n, new_x, new_z, phase)


def local_complement_clifford(g: Graph, a: int) -> LocalClifford:
    """Per-vertex Clifford turning the graph state into that of the local
    complement at a: quarter X-turn on a, quarter Z-turns on its neighbors."""
    g._check_vertex(a)
    assign = {a: CL_SQRT_MIX}
    for b in bits_of(g.rows[a]):
        assign[b] = CL_SQRT_IZ
    return embed_clifford(g.n, assign)
