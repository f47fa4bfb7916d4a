"""Workload definitions: seeded op lists, frozen reference answers, checks.

Every workload is a list of ops that one closed-loop client sends to the
program one after another.  An op is a JSON-able list:

    ["cli", argv]               graphstates.cli.main(argv), stdout captured
    ["lc_equivalent", g6, g6]   orbits.lc_equivalent on two parsed graphs
    ["lc_orbit", g6]            len(orbits.lc_orbit(parsed graph))

The program receives only graph6 strings.  bounds_batch and lc_queries draw
from frozen pools in reference/ whose answers were computed once at the seed
commit (see make_reference.py).  The run seed and the pass index pick a
random relabelling and a random local-complementation scramble for each pool
entry, and the run seed an order, so every seed gives a different graph6
list while each answer stays known: the bounds, the rank indices and the
orbit size are invariant under relabelling, and a scramble stays inside the
LC orbit.  How long an op takes depends on its disguise (an LC-orbit walk
stops where it meets the other graph), so each pass of a run draws fresh
disguises, and a run's per-op medians are over several of them.  Keeping the
whole pool in every run, rather than sampling it, keeps the heavy-tailed
per-op cost from making the run-to-run spread depend on which graphs were
drawn.

This module is pure Python on row tuples and shares no code with the
program, so the inputs for a seed stay the same across commits.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("classify6", "bounds_batch", "lc_queries", "verify")  # see README.md

# Do not use this seed while developing a change; use it once to confirm a claim.
HELD_OUT_SEED = 9001

BOUNDS_ARGV = ["bounds", None, "--max-vertices", "18", "--format", "json"]
VERIFY_CALLS = 240
VERIFY_ARGV = ["verify", "--seed", None, "--max-vertices", "12", "--trials", "10"]
CLASSIFY_ARGV = ["classify", "6", "--jobs", "1"]
CLASSIFY_N_MAX = 6


# ---------------------------------------------------------------------------
# graphs as (n, rows) with rows[a] the neighbour mask of vertex a

def decode_graph6(text: str) -> tuple[int, tuple[int, ...]]:
    n = ord(text[0]) - 63
    bits = 0
    for c in text[1:]:
        bits = (bits << 6) | (ord(c) - 63)
    nbits = n * (n - 1) // 2
    bits >>= 6 * (len(text) - 1) - nbits
    rows = [0] * n
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return n, tuple(rows)


def encode_graph6(n: int, rows) -> str:
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append((rows[i] >> j) & 1)
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        v = 0
        for b in bits[k:k + 6]:
            v = (v << 1) | b
        out.append(chr(63 + v))
    return "".join(out)


def relabel(rows, perm) -> tuple[int, ...]:
    """New vertex i is old vertex perm[i]."""
    out = []
    for i in range(len(perm)):
        old = rows[perm[i]]
        r = 0
        for j, p in enumerate(perm):
            if (old >> p) & 1:
                r |= 1 << j
        out.append(r)
    return tuple(out)


def local_complement(rows, a: int) -> tuple[int, ...]:
    nb = rows[a]
    out = list(rows)
    for b in range(len(rows)):
        if (nb >> b) & 1:
            out[b] ^= nb & ~(1 << b)
    return tuple(out)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _scramble(rng: random.Random, n: int, rows) -> tuple[int, ...]:
    for _ in range(n):
        rows = local_complement(rows, rng.randrange(n))
    return rows


def _disguise(rng: random.Random, g6: str, perm=None, scramble=False) -> str:
    n, rows = decode_graph6(g6)
    rows = relabel(rows, perm if perm is not None else _shuffled(rng, n))
    if scramble:
        rows = _scramble(rng, n, rows)
    return encode_graph6(n, rows)


# ---------------------------------------------------------------------------
# reference data

def load_reference(name: str):
    path = REFERENCE_DIR / name
    text = path.read_text(encoding="ascii")
    return json.loads(text) if path.suffix == ".json" else text


def classify_reference() -> str:
    """The n <= 6 rows of the frozen classify-7 table, which is the paper's."""
    lines = load_reference("classify7.csv").splitlines()
    header = lines[0].split(",")
    col = header.index("n_vertices")
    keep = [lines[0]] + [ln for ln in lines[1:]
                         if int(ln.split(",")[col]) <= CLASSIFY_N_MAX]
    return "\n".join(keep) + "\n"


# ---------------------------------------------------------------------------
# op lists

def make_ops(workload: str, seed: int, pass_index: int = 0):
    """(ops, expected) for one pass of a run; expected[i] is what check()
    compares.  The disguises, and the verify seeds, are drawn from the seed
    and the pass index; the order of the pool entries from the seed alone,
    so op i of every pass of a run is the same pool entry."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "classify6":
        return [["cli", CLASSIFY_ARGV]], [classify_reference()]
    if workload == "verify":
        seeds = [rng.randrange(1 << 31) for _ in range(VERIFY_CALLS)]
        ops = [["cli", [str(s) if a is None else a for a in VERIFY_ARGV]]
               for s in seeds]
        return ops, [None] * len(ops)
    if workload == "bounds_batch":
        pairs = []
        for entry in load_reference("bounds_pool.json"):
            g6 = _disguise(rng, entry["graph6"])
            argv = [g6 if a is None else a for a in BOUNDS_ARGV]
            want = {k: entry[k] for k in ("lower", "upper", "cover", "RI_2", "RI_3")}
            pairs.append((["cli", argv], want))
    else:
        pool = load_reference("lc_pool.json")
        pairs = []
        for entry in pool["equivalent"]:
            n = int(ord(entry["graph6"][0]) - 63)
            perm = _shuffled(rng, n)
            a = _disguise(rng, entry["graph6"], perm, scramble=True)
            b = _disguise(rng, entry["graph6"], perm, scramble=True)
            pairs.append((["lc_equivalent", a, b], True))
        for entry in pool["inequivalent"]:
            n = int(ord(entry["graph6_a"][0]) - 63)
            perm = _shuffled(rng, n)
            a = _disguise(rng, entry["graph6_a"], perm, scramble=True)
            b = _disguise(rng, entry["graph6_b"], perm, scramble=True)
            pairs.append((["lc_equivalent", a, b], False))
        for entry in pool["orbit"]:
            g6 = _disguise(rng, entry["graph6"], scramble=True)
            pairs.append((["lc_orbit", g6], entry["orbit_size"]))
    random.Random(f"{workload}:{seed}").shuffle(pairs)
    return [op for op, _ in pairs], [want for _, want in pairs]


def input_graphs(ops) -> list[str]:
    """Every graph6 string the ops hand to the program, in order."""
    out = []
    for op in ops:
        if op[0] != "cli":
            out += op[1:]
        elif op[1][0] == "bounds":
            out.append(op[1][1])
    return out


# ---------------------------------------------------------------------------
# checks, run outside the timed region

def check(op, want, answer) -> bool:
    """Whether one op's answer is right.  An op that raised, exited nonzero
    or returned a wrong answer fails."""
    if isinstance(answer, dict) and "error" in answer:
        return False
    if op[0] != "cli":
        return answer == want
    rc, out = answer
    if rc != 0:
        return False
    command = op[1][0]
    if command == "bounds":
        try:
            (rec,) = json.loads(out)
        except ValueError:
            return False
        got = {"lower": rec.get("lower"), "upper": rec.get("upper"),
               "cover": rec.get("cover_size"), "RI_2": rec.get("RI_2"),
               "RI_3": rec.get("RI_3")}
        return got == want
    if command == "classify":
        return out == want
    return True  # verify: exit code 0 means zero failed checks
