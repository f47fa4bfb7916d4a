"""Seeded inputs and frozen references of the benchmark."""

import contextlib
import io
import json

import pytest

import workloads
from graphstates import cli
from graphstates.graphs import parse_graph6, random_connected_graph, to_graph6


@pytest.mark.parametrize("workload", ["bounds_batch", "lc_queries", "verify"])
def test_seed_fixes_the_inputs(workload):
    first, expected = workloads.make_ops(workload, 7)
    again, _ = workloads.make_ops(workload, 7)
    other, _ = workloads.make_ops(workload, 8)
    held_out, _ = workloads.make_ops(workload, workloads.HELD_OUT_SEED)
    assert held_out not in (first, other)
    assert first == again
    assert first != other
    # a later pass disguises the same pool entries, in the same order, anew
    second_pass, second_expected = workloads.make_ops(workload, 7, 1)
    assert second_pass != first
    assert second_expected == expected
    if workload != "verify":
        graphs = workloads.input_graphs(first)
        assert graphs == workloads.input_graphs(again)
        assert graphs != workloads.input_graphs(other)
        assert all(isinstance(g6, str) for g6 in graphs)


def test_classify6_takes_no_seed():
    assert workloads.make_ops("classify6", 1) == workloads.make_ops("classify6", 2)


def test_graph6_helpers_match_the_program():
    import random
    rng = random.Random(5)
    for n in range(2, 19):
        g = random_connected_graph(rng, n, 0.4)
        g6 = to_graph6(g)
        assert workloads.decode_graph6(g6) == (n, g.rows)
        assert workloads.encode_graph6(n, g.rows) == g6
        perm = list(range(n))
        rng.shuffle(perm)
        rows = workloads.local_complement(workloads.relabel(g.rows, perm), 0)
        parse_graph6(workloads.encode_graph6(n, rows))  # still a valid simple graph


def test_disguised_inputs_keep_their_answers():
    ops, expected = workloads.make_ops("bounds_batch", 3)
    small = [(op, want) for op, want in zip(ops, expected) if op[1][1][0] <= "F"][:8]
    assert small
    for op, want in small:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op[1])
        assert workloads.check(op, want, [rc, buf.getvalue()])
        wrong = dict(want, upper=want["upper"] + 1)
        assert not workloads.check(op, wrong, [rc, buf.getvalue()])


def _table(text):
    rows = [line.split(",") for line in text.splitlines()[1:]]
    gaps = [int(r[0]) for r in rows if r[4] != r[5]]
    return len(rows), sum(int(r[1]) for r in rows), gaps


def test_frozen_tables_are_the_papers():
    assert _table(workloads.load_reference("classify7.csv")) == (
        45, 995, [8, 19, 39, 40, 41, 42, 44, 45])
    assert _table(workloads.classify_reference()) == (19, 142, [8, 19])


def test_pools_hold_what_the_workloads_need():
    bounds = workloads.load_reference("bounds_pool.json")
    assert {e["family"].split()[0] for e in bounds} == {"gnp", "tree", "grid", "ring"}
    lc = workloads.load_reference("lc_pool.json")
    assert any(e["family"] == "petersen spoke swap" for e in lc["inequivalent"])
    assert all(8 <= len(parse_graph6(e["graph6"]).rows) <= 12 for e in lc["equivalent"])
    json.dumps(lc)
