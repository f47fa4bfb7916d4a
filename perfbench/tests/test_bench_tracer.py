"""The tracer wraps and restores the program's functions and counts exactly."""

import json
import time
import types

import run
import workloads
from tracer import MODULES, Tracer


def _snapshot(tracer):
    out = {}
    for name, mod in tracer.modules.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType):
                out[(name, attr)] = obj
    graph = tracer.modules["graphs"].Graph
    parser = tracer.modules["cli"]._Parser
    out[("Graph", "__post_init__")] = vars(graph)["__post_init__"]
    out[("_Parser", "parse_args")] = vars(parser).get("parse_args")
    return out


def test_install_wraps_imported_names_and_uninstall_restores_them():
    tracer = Tracer()
    before = _snapshot(tracer)
    with tracer:
        ent = tracer.modules["entanglement"]
        meas = tracer.modules["measurement"]
        assert ent.measure_via_lc is not before[("entanglement", "measure_via_lc")]
        assert ent.measure_via_lc is not meas.measure_via_lc  # one site each
        assert ent.gf2_rank_of_rows.__wrapped__ is before[("gf2", "gf2_rank_of_rows")]
        assert tracer.modules["orbits"].canonical_form.__wrapped__ is before[
            ("graphs", "canonical_form")]
    assert _snapshot(tracer) == before


def test_untraced_pass_sees_only_the_originals():
    tracer = Tracer()
    for mod in tracer.modules.values():
        for obj in vars(mod).values():
            if isinstance(obj, types.FunctionType):
                assert not hasattr(obj, "__wrapped__")
    with tracer:
        tracer.modules["graphs"].path_graph(4)
    spans = tracer.summary()["spans"]
    tracer.modules["graphs"].path_graph(4)
    assert tracer.summary()["spans"] == spans > 0


def _traced_counts(ops):
    report = run.spawn({"ops": ops, "trace": True}, time.monotonic() + 170, 1.0)
    assert all(not (isinstance(a, dict) and "error" in a) for a in report["answers"])
    return report


def test_exact_counts_repeat_across_traced_runs():
    bounds, _ = workloads.make_ops("bounds_batch", 11)
    ops = workloads.make_ops("classify6", 0)[0] + bounds[:20]
    first, second = _traced_counts(ops), _traced_counts(ops)
    for metric in ("gf2.rank_calls", "graphs.canonical_calls",
                   "entanglement.search_nodes", "graphs.graph_constructions"):
        assert first["layers"][metric] == second["layers"][metric]
        assert first["layers"][metric][0] > 0
    listed = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert listed == set(first["layers"]) | {"traced_wall_s", "trace_overhead_ratio"}
    # every module is a layer, and their self times account for the pass
    layers = sum(first["layers"][f"{m}.layer_self_s"][0] for m in MODULES)
    assert 0.8 * first["wall_s"] < layers <= first["wall_s"]
