"""Symbolic Pauli and local-Clifford algebra for graph-state stabilizers.

PauliOp stores an n-qubit Pauli in symplectic form: X-support mask, Z-support
mask, and a global phase as a power of i.  The operator it denotes is

    i^phase * prod_sites X^{x_s} Z^{z_s}

so a site in both supports carries XZ = -iY.  Single-qubit Cliffords live in
a precomputed 24-element table (indices, composition, inverse, signed axis
action, and shortest H/S word).  The group is keyed by its exact signed axis
action, how each element permutes and signs X, Y and Z, walked from the
actions of H and S.  This module holds integer tables only, no numpy: the
matrices live in the dense oracle, which builds them from the H/S words and
checks them against the axis actions here.
"""

from __future__ import annotations

from .graphs import Graph, _set_field, _Value, bits_of, as_mask

AXIS_X, AXIS_Y, AXIS_Z = 0, 1, 2


def _signed_axes(*images: str) -> tuple[tuple[int, int], ...]:
    """Signed axis action from the images of X, Y and Z, e.g. "+Z" or "-Y"."""
    return tuple(("XYZ".index(a), 1 if s == "+" else -1) for s, a in images)


def _compose_action(a: tuple, b: tuple) -> tuple:
    """Signed axis action of U_a U_b: b's image first, then a's."""
    return tuple((a[ax][0], sign * a[ax][1]) for ax, sign in b)


def _build_tables():
    """Breadth-first walk from I over right factors H then S, keyed by the
    exact signed axis action (a Clifford is fixed by it up to phase); each
    element's word is its shortest H/S product, first found by the walk."""
    gens = ((_signed_axes("+Z", "-Y", "+X"), "H"), (_signed_axes("+Y", "-X", "+Z"), "S"))
    images = [_signed_axes("+X", "+Y", "+Z")]
    words = [""]
    index = {images[0]: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for gen_image, letter in gens:
                image = _compose_action(images[i], gen_image)
                if image not in index:
                    index[image] = len(images)
                    images.append(image)
                    words.append(words[i] + letter)
                    nxt.append(index[image])
        frontier = nxt
    if len(images) != 24:
        raise AssertionError(f"expected 24 single-qubit Cliffords, built {len(images)}")
    compose = [[index[_compose_action(a, b)] for b in images] for a in images]
    inverse = [row.index(0) for row in compose]
    return compose, inverse, tuple(images), tuple(words)


CLIFFORD_COMPOSE, CLIFFORD_INVERSE, CLIFFORD_AXIS_IMAGE, CLIFFORD_WORDS = _build_tables()


def _index_of(*images: str) -> int:
    """Table index of the Clifford mapping X, Y and Z to the given signed axes."""
    return CLIFFORD_AXIS_IMAGE.index(_signed_axes(*images))


CL_I = _index_of("+X", "+Y", "+Z")
CL_X = _index_of("+X", "-Y", "-Z")
CL_Y = _index_of("-X", "+Y", "-Z")
CL_Z = _index_of("-X", "-Y", "+Z")
CL_H = _index_of("+Z", "-Y", "+X")
CL_S = _index_of("+Y", "-X", "+Z")
CL_SDG = _index_of("-Y", "+X", "+Z")
# principal square roots of +-i sigma_a (the byproduct alphabet); a root of
# -i sigma_z is S up to phase, and one of +i sigma_z is S^dagger
CL_SQRT_MIX = _index_of("+X", "+Z", "-Y")
CL_SQRT_IY = _index_of("+Z", "+Y", "-X")
CL_SQRT_MIY = _index_of("-Z", "+Y", "+X")
CL_SQRT_IZ = _index_of("-Y", "+X", "+Z")
CL_SQRT_MIZ = _index_of("+Y", "-X", "+Z")

_NAMES = {CL_I: "I", CL_X: "X", CL_Y: "Y", CL_Z: "Z", CL_H: "H", CL_S: "S", CL_SDG: "Sd",
          CL_SQRT_MIX: "Qx-", _index_of("+X", "-Z", "+Y"): "Qx+",
          CL_SQRT_IY: "Qy+", CL_SQRT_MIY: "Qy-"}
# the rest get their shortest H/S word
CLIFFORD_NAMES = tuple(_NAMES.get(i, word) for i, word in enumerate(CLIFFORD_WORDS))


def clifford_axis_image(idx: int, axis: int) -> tuple[int, int]:
    """(axis', sign) with  U sigma_axis U^dagger = sign * sigma_axis'."""
    return CLIFFORD_AXIS_IMAGE[idx][axis]


# ---------------------------------------------------------------------------
# Pauli operators

class PauliOp(_Value):
    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: int, z: int, phase: int = 0) -> None:
        full = (1 << n) - 1
        if (x & ~full) or (z & ~full):
            raise ValueError("support outside of qubit range")
        _set_field(self, "n", n)
        _set_field(self, "x", x)
        _set_field(self, "z", z)
        _set_field(self, "phase", phase % 4)

    def _key(self) -> tuple[int, int, int, int]:
        return self.n, self.x, self.z, self.phase

    def __str__(self) -> str:
        """Human-readable form like '+XZZI' or '-iYY'."""
        y_count = (self.x & self.z).bit_count()
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[(self.phase - y_count) % 4]
        return prefix + "".join("IXZY"[((self.x >> s) & 1) + 2 * ((self.z >> s) & 1)]
                                for s in range(self.n))


def stabilizer_generator(g: Graph, a: int) -> PauliOp:
    """X on a, Z on every neighbor of a."""
    g._check_vertex(a)
    return PauliOp(g.n, 1 << a, g.rows[a], 0)


def stabilizer_element(g: Graph, subset) -> PauliOp:
    """K_S, the product of the generators K_a over a in S in ascending order,
    in closed form: K_S = (-1)^|E(S)| X_S Z_(xor of N(a) over a in S).

    Bringing the product to X-before-Z form moves each Z of K_a past the X
    of every later b in S, a sign flip when b is in N(a), so the phase is
    sum over a in S of |N(a) & S| = 2|E(S)| (mod 4).
    """
    mask = as_mask(g.n, subset)
    z = phase = 0
    for a in bits_of(mask):
        row = g.rows[a]
        z ^= row
        phase += (row & mask).bit_count()
    return PauliOp(g.n, mask, z, phase)


# ---------------------------------------------------------------------------
# local Cliffords (one table index per vertex)

class LocalClifford(_Value):
    __slots__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]) -> None:
        for i in indices:
            if not 0 <= i < 24:
                raise ValueError("invalid Clifford index")
        _set_field(self, "indices", indices)

    def _key(self) -> tuple[tuple[int, ...]]:
        return (self.indices,)

    @property
    def n(self) -> int:
        return len(self.indices)

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
