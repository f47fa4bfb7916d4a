"""Command-line interface.

Subcommands: bounds, classify, measure, orbit, verify.  Graphs are given as
graph6 text, either inline, as a file path, or as "-" for standard input
(one graph per line).  Vertex labels are 0-based everywhere.

Exit codes: 0 success, 1 usage or parse error, 2 size cap exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys

from . import entanglement, measurement, orbits
from .graphs import (
    CapExceeded,
    Graph,
    local_complement,
    parse_graph6,
    random_connected_graph,
    to_graph6,
    two_coloring,
)
from .measurement import run_sequence
from .stabilizer import local_complement_clifford

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for caps
        raise _UsageError(message)


def _int_at_least(low: int):
    """argparse type: an int no smaller than low, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _load_graphs(spec: str) -> list[Graph]:
    if spec == "-":
        text = sys.stdin.read()
        return [parse_graph6(line) for line in text.splitlines() if line.strip()]
    if os.path.exists(spec):
        with open(spec, "r", encoding="ascii") as fh:
            return [parse_graph6(line) for line in fh if line.strip()]
    return [parse_graph6(spec)]


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# class-table renderings

def _ri_str(ri: tuple[int, ...] | None) -> str:
    return "(" + ",".join(str(c) for c in ri) + ")" if ri is not None else ""


CSV_HEADER = "no,class_size,n_vertices,n_edges,lower,upper,RI_3,RI_2,two_colorable"


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.class_id),
            str(r.member_count),
            str(r.n_vertices),
            str(r.n_edges),
            str(r.lower),
            str(r.upper),
            f'"{_ri_str(r.ri_3)}"',
            f'"{_ri_str(r.ri_2)}"',
            "yes" if r.has_two_colorable_member else "no",
        ]))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    out = []
    for r in records:
        out.append({
            "no": r.class_id,
            "class_size": r.member_count,
            "n_vertices": r.n_vertices,
            "n_edges": r.n_edges,
            "lower": r.lower,
            "upper": r.upper,
            "RI_3": list(r.ri_3) if r.ri_3 is not None else None,
            "RI_2": list(r.ri_2) if r.ri_2 is not None else None,
            "two_colorable": r.has_two_colorable_member,
            "representative": r.representative,
        })
    return json.dumps(out, indent=2)


def representatives_dot(records) -> str:
    """DOT rendering of one representative graph per class."""
    lines = ["graph classes {"]
    for r in records:
        g = parse_graph6(r.representative)
        lines.append(f"  subgraph cluster_{r.class_id} {{")
        lines.append(f'    label="class {r.class_id}";')
        for v in range(g.n):
            lines.append(f"    c{r.class_id}_{v};")
        for a, b in g.edges():
            lines.append(f"    c{r.class_id}_{a} -- c{r.class_id}_{b};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_bounds(args) -> int:
    graphs = _load_graphs(args.graph)
    for g in graphs:
        if g.n > args.max_vertices:
            raise CapExceeded(f"graph has {g.n} vertices, cap is {args.max_vertices}")
    records = []
    for g in graphs:
        report = entanglement.bounds(g, args.depth_limit)
        ri_2, ri_3 = entanglement.rank_indices(g)
        records.append({"graph6": to_graph6(g), **report._asdict(),
                        "RI_2": ri_2, "RI_3": ri_3,
                        "two_colorable": two_coloring(g) is not None})
    if args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.output)
    elif args.format == "csv":
        lines = ["graph6,lower,upper,cover_size,tight,RI_2,RI_3,two_colorable"]
        for r in records:
            lines.append(",".join([
                r["graph6"], str(r["lower"]), str(r["upper"]),
                str(r["cover_size"]), "yes" if r["tight"] else "no",
                f'"{_ri_str(r["RI_2"])}"', f'"{_ri_str(r["RI_3"])}"',
                "yes" if r["two_colorable"] else "no"]))
        _emit("\n".join(lines) + "\n", args.output)
    else:
        lines = []
        for r in records:
            lines.append(
                f'{r["graph6"]} lower={r["lower"]} upper={r["upper"]}'
                f' cover={r["cover_size"]} tight={"yes" if r["tight"] else "no"}'
                f' RI_2={_ri_str(r["RI_2"])}'
                f' RI_3={_ri_str(r["RI_3"])}'
                f' two_colorable={"yes" if r["two_colorable"] else "no"}')
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    records = orbits.classify(args.n_max)
    if args.format == "json":
        _emit(records_to_json(records) + "\n", args.output)
    elif args.format == "dot":
        _emit(representatives_dot(records), args.output)
    else:
        _emit(records_to_csv(records), args.output)
    return EXIT_OK


_STEP_RE = re.compile(r"^([xyz])(\d+)([+-]?)$")


def _parse_steps(tokens) -> list[tuple[int, str, int | None]]:
    """Parse step tokens into (vertex, basis, sign) triples; sign is None
    where the token leaves the outcome unspecified."""
    parsed = []
    for tok in tokens:
        m = _STEP_RE.match(tok)
        if not m:
            raise ValueError(
                f"bad step {tok!r}: expected <basis><vertex>[+-], e.g. x0 or z2-")
        basis, vertex, sign = m.group(1), int(m.group(2)), m.group(3)
        parsed.append((vertex, basis, {"": None, "+": 1, "-": -1}[sign]))
    return parsed


def _cmd_measure(args) -> int:
    graphs = _load_graphs(args.graph)
    if len(graphs) != 1:
        raise ValueError("measure expects exactly one input graph")
    g = graphs[0]
    transcript, final, byproduct, prob = run_sequence(
        g, _parse_steps(args.steps), random.Random(args.seed))
    if args.format == "json":
        _emit(json.dumps({
            "input": to_graph6(g),
            "steps": transcript,
            "final_graph6": to_graph6(final),
            "byproduct": str(byproduct),
            "probability": f"{prob.numerator}/{prob.denominator}",
        }, indent=2) + "\n", args.output)
    else:
        lines = [f"input {to_graph6(g)}"]
        for rec in transcript:
            lines.append(
                f'{rec["basis"]}{rec["vertex"]}{"+" if rec["outcome"] > 0 else "-"}'
                f' -> {rec["graph6_after"]}  byproduct: {rec["byproduct"]}')
        lines.append(f"final {to_graph6(final)}  probability {prob}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    graphs = _load_graphs(args.graph)
    if len(graphs) != 1:
        raise ValueError("orbit expects exactly one input graph")
    g = graphs[0]
    if g.n > args.max_vertices:
        raise CapExceeded(f"graph has {g.n} vertices, cap is {args.max_vertices}")
    if args.with_isomorphisms:
        members = orbits.lc_closure_with_relabelings(g, limit=args.orbit_limit)
    else:
        members = orbits.lc_orbit(g, limit=args.orbit_limit)
    _emit("\n".join(to_graph6(m) for m in members) + "\n", args.output)
    return EXIT_OK


def _verify_suite(seed: int, max_n: int, trials: int) -> list[str]:
    from . import oracle

    rng = random.Random(seed)
    failures: list[str] = []

    def check(label: str, ok: bool) -> None:
        if not ok:
            failures.append(label)

    for t in range(trials):
        n = rng.randrange(2, max_n + 1)
        g = random_connected_graph(rng, n)
        state = oracle.graph_state(g)
        tag = f"trial {t} {to_graph6(g)}"

        a = rng.randrange(n)
        for basis in ("x", "y", "z"):
            # Both outcomes share the rewritten graph; only the byproduct differs.
            out = measurement.measure_pauli(g, a, basis)
            after = oracle.graph_state(out.graph_after)
            for sign in (1, -1):
                # P_b state = |b> (x) phi with phi = <b|_a state, so the rule
                # is checked on the n - 1 qubits that phi leaves
                phi, prob = oracle.contract_qubit(state, a, basis, sign)
                check(f"{tag}: probability {basis}{a}",
                      abs(prob - float(out.prob_plus if sign > 0 else 1 - out.prob_plus)) < 1e-12)
                if prob < 1e-12:
                    continue
                byp = out.byproduct_plus if sign > 0 else out.byproduct_minus
                check(f"{tag}: projection rule {basis}{a}",
                      oracle.equal_up_to_global_phase(phi, oracle.apply_local_clifford(after, byp)))

        a_mask = rng.randrange(1, (1 << n) - 1)
        r = entanglement.schmidt_rank(g, a_mask)
        rank, entropy = oracle.reduced_rank_and_entropy(state, a_mask)
        check(f"{tag}: reduced rank", rank == 1 << r)
        check(f"{tag}: reduced entropy", abs(entropy - r) < 1e-6)

        v = rng.randrange(n)
        flipped = oracle.apply_local_clifford(state, local_complement_clifford(g, v))
        check(f"{tag}: complementation rule",
              oracle.equal_up_to_global_phase(
                  flipped, oracle.graph_state(local_complement(g, v))))

        if n <= 8:
            check(f"{tag}: partial trace form",
                  oracle.verify_partial_trace_form(g, a_mask, state=state))
    return failures


def _cmd_verify(args) -> int:
    from . import oracle  # the one numpy user, loaded for verify alone

    if args.max_vertices > oracle.STATE_CAP:
        raise CapExceeded(f"verify builds dense states, capped at "
                          f"n<={oracle.STATE_CAP}, got --max-vertices {args.max_vertices}")
    failures = _verify_suite(args.seed, args.max_vertices, args.trials)
    total = args.trials
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"verify: {len(failures)} failures over {total} trials "
              f"(seed={args.seed}, n<={args.max_vertices})")
        return EXIT_VERIFY
    print(f"verify: all checks passed over {total} trials "
          f"(seed={args.seed}, n<={args.max_vertices})")
    return EXIT_OK


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: it keeps no state
    between parse_args calls, and building it costs more than a small
    command's work."""
    p = _Parser(prog="graphstates",
                description="Graph-state entanglement bounds, measurement "
                            "rewrites, and local-complementation orbits.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="Schmidt-measure bounds for graph6 input")
    b.add_argument("graph", help="graph6 string, file of graph6 lines, or -")
    b.add_argument("--format", choices=("text", "csv", "json"), default="text")
    b.add_argument("--max-vertices", type=_int_at_least(1), default=12,
                   help="largest graph accepted; a larger one exits with code 2")
    b.add_argument("--depth-limit", type=_int_at_least(0), default=None,
                   help="limit persistency search depth (upper bound stays valid)")
    b.add_argument("--output")
    b.set_defaults(func=_cmd_bounds)

    c = sub.add_parser("classify", help="classify connected graphs up to n_max")
    c.add_argument("n_max", type=int)
    c.add_argument("--format", choices=("csv", "json", "dot"), default="csv")
    c.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: classification runs in one process")
    c.add_argument("--output")
    c.set_defaults(func=_cmd_classify)

    m = sub.add_parser("measure", help="apply a Pauli measurement sequence")
    m.add_argument("graph")
    m.add_argument("steps", nargs="+",
                   help="steps like x0 z2- y1+ (sign omitted = sampled)")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--format", choices=("text", "json"), default="text")
    m.add_argument("--output")
    m.set_defaults(func=_cmd_measure)

    o = sub.add_parser("orbit", help="local-complementation orbit listing")
    o.add_argument("graph")
    o.add_argument("--orbit-limit", type=_int_at_least(1),
                   default=orbits.ORBIT_LIMIT_DEFAULT)
    o.add_argument("--max-vertices", type=_int_at_least(1), default=12)
    o.add_argument("--with-isomorphisms", action="store_true",
                   help="also close under vertex relabelings")
    o.add_argument("--output")
    o.set_defaults(func=_cmd_orbit)

    v = sub.add_parser("verify", help="randomized state-vector verification")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-vertices", type=_int_at_least(2), default=8)
    v.add_argument("--trials", type=_int_at_least(1), default=50)
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
