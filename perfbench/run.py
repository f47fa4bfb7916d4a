"""graphstates benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are listed in workloads.py and
perfbench/README.md.  Every pass of the workload's op list runs in a fresh
interpreter (worker.py) that imports the package from src/, so the lru
caches start empty as they do for a CLI user; passes repeat until --seconds
would be exceeded, and at least one runs.  Import-only workers, spread over
the run, time set-up as well.  Answers are checked against the
frozen references after each pass, outside the timed region.

Every end-to-end time is corrected for the speed of the host.  On a shared
host the same pass runs up to about 1.8 times slower for seconds or minutes
at a time, when other guests load the machine.  The worker therefore times a
fixed pure-Python reference loop (worker.reference_loop, no code of the
program) at least every 0.1 s between ops, and each op's time is scaled by
REFERENCE_S over the mean of the two reference timings around it, to the
power SENSITIVITY[workload]: the time the op would have taken when the
reference loop takes REFERENCE_S.  A change
to the program does not change the reference loop, so it shows in full.
The raw pass walls and set-up times go to the record in .perfbench/.

--trace 0 prints the end-to-end metrics:
  wall_s       corrected seconds of one pass over the op list, after set-up:
               the sum over the ops of each op's median across the passes
  setup_s      median corrected seconds from starting a worker until
               `import graphstates` has finished, over every worker of the
               run: the passes and up to eight import-only probes; scaled
               by the worker's first reference timing
  peak_rss_mb  median over the passes of each pass's peak resident set
  op_p50_ms    median over the ops of each op's median corrected latency
               across the passes
  op_p95_ms    95th percentile of the same per-op medians (at least 11
               ops lie beyond it; classify6 has one op, so there both
               quantiles equal wall_s)
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of tracer.LAYER_METRICS (lower medians over traced passes), with
traced_wall_s and trace_overhead_ratio, traced over untraced pass wall.
Each traced pass's layer times are scaled by that pass's corrected over raw
wall, so they too are corrected and add up to the corrected pass.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every op passed its check, 1
when any op failed, and 2 when the benchmark could not run (no src/ tree, a
worker crashed); then no result line is printed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 8
RUN_LIMIT_S = 170
# Seconds of worker.reference_loop() on the host where the benchmark was
# defined, a 2-vCPU Intel Xeon VM with Python 3.11, when that host was quiet
# (busy, it took up to 1.7 ms).  Corrected times are in seconds of that
# host at that speed.
REFERENCE_S = 0.0009
# How strongly each workload's ops follow the reference loop when the host
# slows: a time is scaled by (REFERENCE_S / reference time) ** SENSITIVITY.
# Fitted on that host to the spread between passes of the same ops (see
# README.md): about 1 where the ops are short, about 0.6 for classify6,
# whose one op runs 0.5 s between two reference timings and is mostly numpy
# permutation tables, which a busy host slows less.
SENSITIVITY = {"classify6": 0.6, "bounds_batch": 1.0, "lc_queries": 1.0, "verify": 1.0}
# numpy's OpenBLAS starts one spinning thread per CPU at import; one thread
# keeps the worker a single-threaded client and its set-up time steady.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _read_first(path: Path, default: str = "unknown") -> str:
    try:
        return path.read_text(encoding="ascii").splitlines()[0].strip()
    except (OSError, IndexError):
        return default


def git_commit() -> str:
    head = _read_first(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read_first(ROOT / ".git" / head[5:])
    return head


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "seed": seed, "loadavg_start": _read_first(Path("/proc/loadavg"))}


def spawn(job: dict, deadline: float, sensitivity: float) -> dict:
    """Run one worker to completion and return its report."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S} s run limit") from exc
    t1 = time.monotonic()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    try:
        report = json.loads(proc.stdout)
    except ValueError as exc:
        raise BenchError("worker printed no report") from exc
    if not Path(report["graphstates_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported graphstates from {report['graphstates_file']}, "
                         f"not from {SRC}")
    report["raw_setup_s"] = report["t_imported"] - t0
    report["setup_s"] = report["raw_setup_s"] * (
        REFERENCE_S / report["reference"][0][1]) ** sensitivity
    report["worker_s"] = t1 - t0
    report["corrected_op_s"] = corrected(report, sensitivity)
    report["corrected_wall_s"] = sum(report["corrected_op_s"])
    return report


def corrected(report: dict, sensitivity: float) -> list[float]:
    """Each op's seconds scaled by REFERENCE_S over the mean of the reference
    timings just before and just after the op started, to the power
    sensitivity."""
    ref = report["reference"]
    starts = [t for t, _ in ref]
    out = []
    for t, s in zip(report["op_t"], report["op_s"]):
        i = bisect.bisect_right(starts, t)  # ref[i - 1] ran before the op, ref[i] after
        out.append(s * (2 * REFERENCE_S / (ref[i - 1][1] + ref[i][1])) ** sensitivity)
    return out


def _quantile(samples, q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.start = time.monotonic()
        self.deadline = self.start + args.seconds
        self.hard_deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def worker(self, pass_index: int | None = None, **job) -> dict:
        """An import-only probe, or pass number pass_index over that pass's
        inputs, whose answers are checked after it ran."""
        ops, expected = [], []
        if pass_index is not None:
            ops, expected = workloads.make_ops(self.args.workload, self.args.seed, pass_index)
        report = spawn(dict(job, ops=ops), self.hard_deadline, SENSITIVITY[self.args.workload])
        self.attempted += len(ops)
        for op, want, got in zip(ops, expected, report["answers"]):
            if not workloads.check(op, want, got):
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{json.dumps(op)[:200]} -> {json.dumps(got)[:200]}")
        return report

    def has_time_for(self, seconds: float) -> bool:
        return time.monotonic() + seconds <= self.deadline

    def end_to_end(self) -> tuple[dict, list]:
        probes, passes = [], []
        while True:
            # Import-only probes are spread over the run, not bunched at its
            # start, so that one slow moment of the host does not set setup_s.
            while len(probes) < SETUP_PROBES and len(probes) <= SETUP_PROBES * (
                    time.monotonic() - self.start) / self.args.seconds:
                probes.append(self.worker())
            if passes and not self.has_time_for(max(p["worker_s"] for p in passes)):
                break
            passes.append(self.worker(len(passes)))
        op_medians = list(map(statistics.median, zip(*(p["corrected_op_s"] for p in passes))))
        workers = probes + passes
        metrics = {
            "wall_s": [sum(op_medians), "s"],
            "setup_s": [statistics.median(w["setup_s"] for w in workers), "s"],
            "peak_rss_mb": [statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"],
            "op_p50_ms": [1000 * _quantile(op_medians, 50), "ms"],
            "op_p95_ms": [1000 * _quantile(op_medians, 95), "ms"],
        }
        return metrics, workers

    def per_layer(self) -> tuple[dict, list]:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{self.args.workload}.npz"  # overwritten: one file per workload
        plain, traced = [], []
        while True:
            plain.append(self.worker(len(plain)))
            traced.append(self.worker(len(traced), trace=True, spans=str(spans)))
            if not self.has_time_for(plain[-1]["worker_s"] + traced[-1]["worker_s"]):
                break
        def layer(t, m):
            # times take their pass's correction, so they add up to its corrected wall
            value, unit = t["layers"][m]
            return value * t["corrected_wall_s"] / t["wall_s"] if unit == "s" else value

        metrics = {m: [statistics.median_low(layer(t, m) for t in traced), unit]
                   for m, (_, unit) in traced[0]["layers"].items()}
        traced_wall = statistics.median(t["corrected_wall_s"] for t in traced)
        metrics["traced_wall_s"] = [traced_wall, "s"]
        metrics["trace_overhead_ratio"] = [
            traced_wall / statistics.median(p["corrected_wall_s"] for p in plain), "ratio"]
        return metrics, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphstates" / "__init__.py").is_file():
        print(f"error: no graphstates package under {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    run = Run(args)
    try:
        metrics, workers = run.per_layer() if args.trace else run.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["numpy"] = workers[0]["numpy"]
    env["workers"] = len(workers)
    env["reference_loop_s_median"] = statistics.median(
        r for w in workers for _, r in w["reference"])
    env["ops_per_pass"] = len(workers[-1]["op_s"])

    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {run.failed / run.attempted} ratio "
          f"({run.failed} of {run.attempted} ops failed)")
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "args": vars(args), **result,
                                  "pass_walls": [w["wall_s"] for w in workers],
                                  "raw_setups": [w["raw_setup_s"] for w in workers],
                                  "setups": [w["setup_s"] for w in workers]}, indent=1))
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
