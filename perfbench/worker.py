"""One fresh interpreter that imports graphstates and runs one pass of ops.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Reads a
job from stdin, {"ops": [...], "trace": bool, "spans": path or null}, runs
the ops one after another, and prints one JSON object on stdout with the
monotonic time at which `import graphstates` finished, the pass wall time
(the sum of the op times), each op's start, seconds and answer, the
reference-loop timings, the peak RSS and, when traced, the per-layer
metrics.  No op starts a thread or a process.

Between ops, at most every REFERENCE_EVERY_S seconds and once at the end,
the worker times reference_loop(), a fixed piece of pure-Python work that
uses no code of the program.  run.py divides each op's time by the speed
the host showed in the reference loops around it (see run.py).  The loops
run outside every op's timed interval.
"""

import time
import graphstates  # the set-up being timed: builds the Clifford tables
T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
from graphstates import cli, graphs, orbits  # noqa: E402


REFERENCE_EVERY_S = 0.1


def reference_loop() -> float:
    """Seconds taken by a fixed amount of work like the program's: bit masks
    of graph rows, local complements, tuples hashed into a dict.  The least
    of three timings, so that an interrupt in one does not count.  The
    garbage collector is off meanwhile: a collection would traverse the
    objects the program holds, and the loop must take the same time whatever
    they are."""
    clock = time.perf_counter
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t = clock()
            rows = [0b1011001101, 0b0110110010, 0b1100101011, 0b0011010110, 0b1010101010,
                    0b0101010101, 0b1110001110, 0b0001110001, 0b1001100110, 0b0110011001]
            seen = {}
            for k in range(600):
                nb = rows[k % 10]
                rows = [r ^ (nb & ~(1 << b)) if (nb >> b) & 1 else r for b, r in enumerate(rows)]
                key = tuple(rows)
                seen[key] = seen.get(key, 0) + 1
            best = min(best, clock() - t)
        return best
    finally:
        if collecting:
            gc.enable()


def run_op(op):
    kind = op[0]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op[1])
        return [rc, buf.getvalue()]
    if kind == "lc_equivalent":
        return orbits.lc_equivalent(graphs.parse_graph6(op[1]), graphs.parse_graph6(op[2]))
    if kind == "lc_orbit":
        return len(orbits.lc_orbit(graphs.parse_graph6(op[1])))
    raise ValueError(f"unknown op kind {kind!r}")


def run_pass(ops):
    """(op starts, op seconds, answers, reference timings as [start, seconds]).
    A reference loop runs before the first op and after the last."""
    answers, op_t, op_s, ref = [], [], [], []
    clock = time.perf_counter
    for op in ops:
        if not ref or clock() - ref[-1][0] >= REFERENCE_EVERY_S:
            ref.append([clock(), reference_loop()])
        t = clock()
        try:
            answer = run_op(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        op_t.append(t)
        op_s.append(clock() - t)
        answers.append(answer)
    ref.append([clock(), reference_loop()])
    return op_t, op_s, answers, ref


def main() -> int:
    job = json.load(sys.stdin)
    out = {"t_imported": T_IMPORTED, "graphstates_file": graphstates.__file__,
           "numpy": numpy.__version__}
    tracer = None
    if job.get("trace"):
        from tracer import Tracer, layer_metrics
        tracer = Tracer().install()
    try:
        out["op_t"], out["op_s"], out["answers"], out["reference"] = run_pass(job["ops"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["wall_s"] = sum(out["op_s"])
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        cached = getattr(graphs, "_canonical_cached", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        out["layers"] = layer_metrics(tracer, info)
        if job.get("spans"):
            tracer.save(job["spans"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
