"""Rebuild the frozen reference data in perfbench/reference/.

    python3 perfbench/make_reference.py

Draws the input pools from fixed pool seeds with the program's own random
graph generators and records the program's answers for them.  The files in
reference/ were written by this script at the commit that defined the
benchmark; they are the answers every later commit is checked against, so
rebuild them only when the pool itself is meant to change.  The classify-7
run alone takes about 45 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphstates import cli, orbits  # noqa: E402
from graphstates.graphs import (  # noqa: E402
    cycle_graph,
    grid_graph,
    petersen_graph,
    random_connected_graph,
    random_tree,
    relabel,
    to_graph6,
)

OUT = Path(__file__).resolve().parent / "reference"

# (n, p) -> count of random connected G(n, p) graphs.  No n = 9, p = 0.6
# graph: one took 1.2-2.1 s, depending on the labelling, which is 3 times
# the heaviest op the workload is meant to have and too long an op for the
# host-speed correction of run.py, which samples the host between ops.
BOUNDS_GNP = {(7, 0.3): 60, (7, 0.45): 60, (7, 0.6): 60,
              (8, 0.3): 8, (8, 0.45): 8, (8, 0.6): 8,
              (9, 0.3): 1, (9, 0.45): 1}
BOUNDS_TREES = {14: 2, 15: 2, 16: 1}
BOUNDS_GRIDS = [(2, 7), (3, 5), (4, 4), (2, 8), (3, 6), (2, 9)]
BOUNDS_RINGS = [14, 16, 18]

LC_P = 0.3
LC_EQUIVALENT = {8: 80, 9: 30, 10: 12, 11: 2, 12: 1}
LC_INEQUIVALENT = {8: 30, 9: 30, 10: 20, 11: 16, 12: 16}
LC_PETERSEN_PAIRS = 2
LC_ORBIT = {9: 6, 10: 1}
PETERSEN_SPOKE_SWAP = (5, 6, 7, 8, 9, 0, 1, 2, 3, 4)


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}")
    return buf.getvalue()


def bounds_pool() -> list[dict]:
    # one random stream per family, so that changing one count leaves the
    # other families' graphs as they are
    graphs = []
    for (n, p), count in BOUNDS_GNP.items():
        rng = random.Random(f"bounds_pool gnp n={n} p={p}")
        graphs += [(f"gnp n={n} p={p}", random_connected_graph(rng, n, p))
                   for _ in range(count)]
    for n, count in BOUNDS_TREES.items():
        rng = random.Random(f"bounds_pool tree n={n}")
        graphs += [(f"tree n={n}", random_tree(rng, n)) for _ in range(count)]
    graphs += [(f"grid {r}x{c}", grid_graph(r, c)) for r, c in BOUNDS_GRIDS]
    graphs += [(f"ring n={n}", cycle_graph(n)) for n in BOUNDS_RINGS]
    pool = []
    for family, g in graphs:
        (rec,) = json.loads(_run_cli(
            ["bounds", to_graph6(g), "--max-vertices", "18", "--format", "json"]))
        pool.append({"graph6": rec["graph6"], "family": family,
                     "lower": rec["lower"], "upper": rec["upper"],
                     "cover": rec["cover_size"], "RI_2": rec["RI_2"],
                     "RI_3": rec["RI_3"]})
    return pool


def lc_pool() -> dict:
    rng = random.Random("lc_pool")
    equivalent = []
    for n, count in LC_EQUIVALENT.items():
        for _ in range(count):
            equivalent.append({"graph6": to_graph6(random_connected_graph(rng, n, LC_P))})
    inequivalent = []
    for n, count in LC_INEQUIVALENT.items():
        for _ in range(count):
            g = random_connected_graph(rng, n, LC_P)
            while True:
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                if not orbits.lc_equivalent(g, h):
                    break
            inequivalent.append({"graph6_a": to_graph6(g), "graph6_b": to_graph6(h),
                                 "family": f"relabelled n={n}"})
    p = petersen_graph()
    q = relabel(p, PETERSEN_SPOKE_SWAP)
    if orbits.lc_equivalent(p, q):
        raise RuntimeError("Petersen spoke-swap pair must not be LC-equivalent")
    inequivalent += [{"graph6_a": to_graph6(p), "graph6_b": to_graph6(q),
                      "family": "petersen spoke swap"}] * LC_PETERSEN_PAIRS
    orbit = []
    for n, count in LC_ORBIT.items():
        for _ in range(count):
            g = random_connected_graph(rng, n, LC_P)
            orbit.append({"graph6": to_graph6(g),
                          "orbit_size": len(orbits.lc_orbit(g))})
    return {"equivalent": equivalent, "inequivalent": inequivalent, "orbit": orbit}


def classify7_table() -> str:
    text = _run_cli(["classify", "7", "--jobs", "1"])
    rows = text.splitlines()[1:]
    gaps = [int(r.split(",")[0]) for r in rows
            if r.split(",")[4] != r.split(",")[5]]
    members = sum(int(r.split(",")[1]) for r in rows)
    if (len(rows), members, gaps) != (45, 995, [8, 19, 39, 40, 41, 42, 44, 45]):
        raise RuntimeError("classify 7 does not reproduce the paper's table")
    return text


def main() -> int:
    OUT.mkdir(exist_ok=True)
    (OUT / "bounds_pool.json").write_text(
        json.dumps(bounds_pool(), indent=1) + "\n", encoding="ascii")
    (OUT / "lc_pool.json").write_text(
        json.dumps(lc_pool(), indent=1) + "\n", encoding="ascii")
    (OUT / "classify7.csv").write_text(classify7_table(), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
