"""Graph rewrite rules for single-qubit Pauli measurements on graph states.

Measuring x, y, or z at a vertex maps a graph state to another graph state up
to a local Clifford byproduct on the remaining vertices.  Both outcomes give
the same rewritten graph, built from local complementations and one vertex
deletion (_measure_rows); only the byproduct differs.  Each byproduct is one
index list over the input vertices: the rule sets its entries, the entry of
the measured vertex is deleted, and the list becomes a LocalClifford.  For
measurement sequences the accumulated byproduct re-interprets each requested
basis before the graph rule is applied, and run_sequence takes the one
deterministic case, x at an isolated vertex, from measure_pauli's outcome
(prob_plus 1, vertex kept).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import Graph, _graph, _lc_rows, bits_of, to_graph6
from .stabilizer import (
    CL_I,
    CL_SQRT_IY,
    CL_SQRT_IZ,
    CL_SQRT_MIY,
    CL_SQRT_MIZ,
    CL_Z,
    CLIFFORD_COMPOSE,
    CLIFFORD_INVERSE,
    LocalClifford,
    clifford_axis_image,
    identity_clifford,
)

BASES = ("x", "y", "z")


class ZeroProbabilityOutcome(ValueError):
    """The requested measurement outcome occurs with probability zero."""


class MeasurementOutcome(NamedTuple):
    """Result of one Pauli measurement.

    graph_after uses post-deletion labels (vertices above the measured one
    shift down by one); the byproducts are indexed the same way.  prob_plus
    is 1 only for an x-measurement at an isolated vertex, in which case the
    graph is returned unchanged (vertex included) and the minus branch is
    unreachable.
    """

    graph_after: Graph
    byproduct_plus: LocalClifford
    byproduct_minus: LocalClifford
    prob_plus: Fraction
    chosen_b0: int | None


def _check_basis(basis: str) -> None:
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")


def _default_b0(g: Graph, a: int, basis: str, b0: int | None) -> int | None:
    """The special neighbor of the rules: for x, b0 checked to be a neighbor
    of a, or a's least neighbor when b0 is None (None when a is isolated);
    for y and z, None, and a given b0 is an error."""
    if basis != "x":
        if b0 is not None:
            raise ValueError(f"b0 is for basis x only, got b0={b0} with basis {basis}")
        return None
    nb = g.rows[a]
    if b0 is None:
        return (nb & -nb).bit_length() - 1 if nb else None
    g._check_vertex(b0)
    if not (nb >> b0) & 1:
        raise ValueError(f"b0={b0} is not a neighbor of {a}")
    return b0


def measure_pauli(g: Graph, a: int, basis: str, b0: int | None = None) -> MeasurementOutcome:
    """Rewrite rule for measuring the given Pauli at vertex a.

    For basis x at a non-isolated vertex a special neighbor b0 is required
    (default: the minimum-index neighbor); any choice gives locally
    equivalent results.  A given b0 must be a neighbor of a, at an isolated
    vertex too, and is an error with y or z.
    """
    _check_basis(basis)
    g._check_vertex(a)
    chosen = _default_b0(g, a, basis, b0)
    if basis == "x" and chosen is None:
        ident = identity_clifford(g.n)
        return MeasurementOutcome(g, ident, ident, Fraction(1), None)

    nb = g.rows[a]
    plus = [CL_I] * g.n
    minus = [CL_I] * g.n
    if basis == "z":
        for b in bits_of(nb):
            minus[b] = CL_Z
    elif basis == "y":
        for b in bits_of(nb):
            plus[b] = CL_SQRT_MIZ
            minus[b] = CL_SQRT_IZ
    else:
        nb0 = g.rows[chosen]
        for b in bits_of(nb & ~nb0):
            plus[b] = CL_Z
        for b in bits_of(nb0 & ~nb):
            minus[b] = CL_Z
        plus[chosen] = CL_SQRT_IY
        minus[chosen] = CL_SQRT_MIY
    del plus[a], minus[a]
    after = _graph(g.n - 1, _measure_rows(g.rows, a, basis, chosen))
    return MeasurementOutcome(after, LocalClifford(tuple(plus)), LocalClifford(tuple(minus)),
                              Fraction(1, 2), chosen)


def _measure_rows(rows: tuple[int, ...], a: int, basis: str,
                  b0: int | None) -> tuple[int, ...]:
    """The rows after measuring basis at a: a word of local complementations
    tau, then the deletion of a (vertices above a shift down by one).

    The rules are P_z: G - a, P_y: tau_a(G) - a and P_x: tau_b0(tau_a
    tau_b0(G) - a).  Complementing at b0 != a commutes with deleting a, so
    the last tau_b0 runs before the deletion, and the words are z (), y (a,)
    and x (b0, a, b0), applied in that order.  For x with b0 None (a is
    isolated) the rows come back unchanged, a included.  Nothing is checked:
    the callers check basis, a and b0.
    """
    if basis == "y":
        rows = _lc_rows(rows, a)
    elif basis == "x":
        if b0 is None:
            return rows
        rows = _lc_rows(_lc_rows(_lc_rows(rows, b0), a), b0)
    low = (1 << a) - 1
    return tuple([(r & low) | ((r >> (a + 1)) << a)
                  for v, r in enumerate(rows) if v != a])


def measure_via_lc(g: Graph, a: int, basis: str, b0: int | None = None) -> Graph:
    """The rewritten graph of measure_pauli (see _measure_rows); b0 as
    there.  x at an isolated vertex gives g back unchanged."""
    _check_basis(basis)
    g._check_vertex(a)
    rows = _measure_rows(g.rows, a, basis, _default_b0(g, a, basis, b0))
    return _graph(len(rows), rows)


def conjugate_basis(clifford_idx: int, basis: str, sign: int) -> tuple[str, int]:
    """Commute a projector past a single-qubit Clifford U:

        P(basis, sign) U = U P(basis', sign')

    and return (basis', sign')."""
    _check_basis(basis)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    axis = "xyz".index(basis)
    axis2, s2 = clifford_axis_image(CLIFFORD_INVERSE[clifford_idx], axis)
    return "xyz"[axis2], sign * s2


def run_sequence(g: Graph, steps, rng=None) -> tuple[list[dict], Graph, LocalClifford, Fraction]:
    """Apply measurements (vertex, basis, outcome) in order, in one pass.

    Vertices are labels of the *input* graph; each may be measured once.  An
    outcome of None is drawn from rng (+1 when rng.random() < 0.5); if the
    drawn outcome cannot occur, the other one, which is then certain, is taken.
    Returns one JSON-ready record per step, the final graph, the total
    byproduct on its vertices, and the probability of the outcome string.
    """
    current = g
    labels = list(range(g.n))  # input label of each vertex of current, None once measured
    byp = [CL_I] * g.n
    prob = Fraction(1)
    transcript = []
    for vertex, basis, sign in steps:
        _check_basis(basis)
        drawn = sign is None
        if drawn:
            if rng is None:
                raise ValueError(f"no rng to draw the outcome of {basis} at vertex {vertex}")
            sign = 1 if rng.random() < 0.5 else -1
        elif sign not in (1, -1):
            raise ValueError("outcome must be +1 or -1")
        if vertex is None or vertex not in labels:
            raise ValueError(f"vertex {vertex} already measured or out of range")
        v = labels.index(vertex)
        basis_eff, sign_eff = conjugate_basis(byp[v], basis, sign)
        out = measure_pauli(current, v, basis_eff)
        if out.prob_plus == 1:
            # x at an isolated vertex: it stays in the graph; only +1 can occur
            labels[v] = None
            if sign_eff < 0:
                if not drawn:
                    raise ZeroProbabilityOutcome(
                        f"outcome {sign:+d} for {basis} at vertex {vertex} cannot occur")
                sign = -sign
        else:
            w = out.byproduct_plus if sign_eff > 0 else out.byproduct_minus
            del byp[v], labels[v]
            byp = [CLIFFORD_COMPOSE[u][wi] for u, wi in zip(byp, w.indices)]
            current = out.graph_after
            prob *= out.prob_plus
        transcript.append({
            "vertex": vertex,
            "basis": basis,
            "outcome": sign,
            "graph6_after": to_graph6(current),
            "byproduct": str(LocalClifford(tuple(byp))),
        })
    return transcript, current, LocalClifford(tuple(byp)), prob
