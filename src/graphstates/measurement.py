"""Graph rewrite rules for single-qubit Pauli measurements on graph states.

Measuring x, y, or z at a vertex maps a graph state to another graph state up
to a local Clifford byproduct on the remaining vertices.  Both outcomes give
the same rewritten graph, built from local complementations and one vertex
deletion (_measure_rows); only the byproduct differs.  For measurement
sequences the accumulated byproduct re-interprets each requested basis before
the graph rule is applied.
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
    embed_clifford,
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


def _shift_down(assignments: dict[int, int], removed: int) -> dict[int, int]:
    return {(v - 1 if v > removed else v): c for v, c in assignments.items()
            if v != removed}


def _default_b0(g: Graph, a: int, b0: int | None) -> int | None:
    """b0 checked to be a neighbor of a, or a's least neighbor when b0 is
    None (None when a is isolated)."""
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
    vertex too.
    """
    _check_basis(basis)
    g._check_vertex(a)
    nb = g.rows[a]

    chosen = _default_b0(g, a, b0) if basis == "x" else None
    if basis == "x" and chosen is None:
        ident = identity_clifford(g.n)
        return MeasurementOutcome(g, ident, ident, Fraction(1), None)

    if basis == "z":
        plus: dict[int, int] = {}
        minus = {b: CL_Z for b in bits_of(nb)}
    elif basis == "y":
        plus = {b: CL_SQRT_MIZ for b in bits_of(nb)}
        minus = {b: CL_SQRT_IZ for b in bits_of(nb)}
    else:
        nb0 = g.rows[chosen]
        plus = {b: CL_Z for b in bits_of(nb & ~nb0 & ~(1 << chosen))}
        plus[chosen] = CL_SQRT_IY
        minus = {b: CL_Z for b in bits_of(nb0 & ~nb & ~(1 << a))}
        minus[chosen] = CL_SQRT_MIY

    n_out = g.n - 1
    after = _graph(n_out, _measure_rows(g.rows, a, basis, chosen))
    bp_plus = embed_clifford(n_out, _shift_down(plus, a))
    bp_minus = embed_clifford(n_out, _shift_down(minus, a))
    return MeasurementOutcome(after, bp_plus, bp_minus, Fraction(1, 2), chosen)


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
    if basis == "x":
        b0 = _default_b0(g, a, b0)
    rows = _measure_rows(g.rows, a, basis, b0)
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
    orig_to_cur = {v: v for v in range(g.n)}
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
        if vertex not in orig_to_cur:
            raise ValueError(f"vertex {vertex} already measured or out of range")
        v = orig_to_cur.pop(vertex)
        basis_eff, sign_eff = conjugate_basis(byp[v], basis, sign)
        if basis_eff == "x" and current.rows[v] == 0:
            # the isolated vertex stays in the graph; only +1 can occur
            if sign_eff < 0:
                if not drawn:
                    raise ZeroProbabilityOutcome(
                        f"outcome {sign:+d} for {basis} at vertex {vertex} cannot occur")
                sign = -sign
        else:
            out = measure_pauli(current, v, basis_eff)
            w = out.byproduct_plus if sign_eff > 0 else out.byproduct_minus
            rest = byp[:v] + byp[v + 1:]
            byp = [CLIFFORD_COMPOSE[u][wi] for u, wi in zip(rest, w.indices)]
            current = out.graph_after
            for k in orig_to_cur:
                if orig_to_cur[k] > v:
                    orig_to_cur[k] -= 1
            prob *= Fraction(1, 2)
        transcript.append({
            "vertex": vertex,
            "basis": basis,
            "outcome": sign,
            "graph6_after": to_graph6(current),
            "byproduct": str(LocalClifford(tuple(byp))),
        })
    return transcript, current, LocalClifford(tuple(byp)), prob
