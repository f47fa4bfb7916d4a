"""Command-line interface: formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphstates
from graphstates import cli, entanglement, measurement, oracle
from graphstates.cli import CSV_HEADER, main
from graphstates.graphs import cycle_graph, empty_graph, star_graph, to_graph6
from graphstates.stabilizer import CL_I


def test_bounds_single_edge(capsys):
    assert main(["bounds", "A_"]) == 0
    out = capsys.readouterr().out
    assert "lower=1" in out and "upper=1" in out and "tight=yes" in out


def test_bounds_odd_ring(capsys):
    assert main(["bounds", to_graph6(cycle_graph(5))]) == 0
    out = capsys.readouterr().out
    assert "lower=2" in out and "upper=3" in out and "tight=no" in out
    assert "two_colorable=no" in out


def test_bounds_csv_and_json(capsys):
    g6 = to_graph6(cycle_graph(6))
    assert main(["bounds", g6, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("graph6,lower,upper,cover_size")
    assert main(["bounds", g6, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["lower"] == 3 and data[0]["tight"]


def test_bounds_rank_indices_for_six_ring(capsys):
    g6 = to_graph6(cycle_graph(6))
    assert main(["bounds", g6, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        f'{g6},3,3,3,yes,"(15,0)","(6,4,0)",yes')
    assert main(["bounds", g6, "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        f"{g6} lower=3 upper=3 cover=3 tight=yes RI_2=(15,0) RI_3=(6,4,0)"
        " two_colorable=yes\n")


def test_parse_failure_exits_one(capsys):
    assert main(["bounds", "~~~not-graph6~~~"]) == 1


def test_usage_error_exits_one(capsys):
    assert main(["bounds"]) == 1


def test_one_parser_serves_every_call_of_a_process(capsys):
    # main builds its parser once; a usage error leaves it fit for the next call
    argvs = [["bounds", "A_", "--depth-limit", "x"], ["bounds", to_graph6(cycle_graph(5))],
             ["classify", "3"]]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cli._build_parser.cache_clear()
    shared = [run(argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0]
    assert shared[0][2] == "usage error: argument --depth-limit: invalid int value: 'x'\n"
    assert "lower=2 upper=3" in shared[1][1]
    assert shared[2][1].startswith(CSV_HEADER)


@pytest.mark.parametrize("argv, message", [
    (["verify", "--trials", "-1"], "argument --trials: must be at least 1, got -1"),
    (["verify", "--trials", "0"], "argument --trials: must be at least 1, got 0"),
    (["verify", "--max-vertices", "1"], "argument --max-vertices: must be at least 2, got 1"),
    (["bounds", "A_", "--depth-limit", "-3"], "argument --depth-limit: must be at least 0, got -3"),
    (["bounds", "A_", "--depth-limit", "x"], "argument --depth-limit: invalid int value: 'x'"),
    (["orbit", "A_", "--orbit-limit", "0"], "argument --orbit-limit: must be at least 1, got 0"),
    (["orbit", "A_", "--orbit-limit", "-1"], "argument --orbit-limit: must be at least 1, got -1"),
    (["bounds", "A_", "--max-vertices", "0"], "argument --max-vertices: must be at least 1, got 0"),
    (["bounds", "A_", "--max-vertices", "-5"], "argument --max-vertices: must be at least 1, got -5"),
    (["orbit", "A_", "--max-vertices", "0"], "argument --max-vertices: must be at least 1, got 0"),
    (["orbit", "A_", "--max-vertices", "-5"], "argument --max-vertices: must be at least 1, got -5"),
])
def test_out_of_range_integers_are_usage_errors(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_smallest_accepted_integers(capsys):
    assert main(["bounds", to_graph6(cycle_graph(5)), "--depth-limit", "0"]) == 0
    assert "upper=3" in capsys.readouterr().out  # the cover stands in
    assert main(["verify", "--trials", "1", "--max-vertices", "2"]) == 0
    assert "all checks passed over 1 trials" in capsys.readouterr().out
    assert main(["orbit", "A_", "--orbit-limit", "1"]) == 0
    assert capsys.readouterr().out == "A_\n"  # K2 complements nothing


def test_cap_exceeded_exits_two(capsys):
    g6 = to_graph6(cycle_graph(6))
    assert main(["bounds", g6, "--max-vertices", "4"]) == 2


def test_bounds_checks_every_graph_size_before_any_bounds(tmp_path, capsys, monkeypatch):
    calls = 0
    original = entanglement.bounds

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(entanglement, "bounds", counting)
    path = tmp_path / "graphs.g6"
    path.write_text("".join(to_graph6(cycle_graph(n)) + "\n" for n in (9, 9, 9, 13)))
    assert main(["bounds", str(path)]) == 2
    assert calls == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, code, err", [
    (["measure", "A_", "q0"], 1,
     "error: bad step 'q0': expected <basis><vertex>[+-], e.g. x0 or z2-\n"),
    (["measure", "TWO", "x0"], 1, "error: measure expects exactly one input graph\n"),
    (["orbit", "TWO"], 1, "error: orbit expects exactly one input graph\n"),
    (["orbit", "Dhc", "--max-vertices", "4"], 2,
     "cap exceeded: graph has 5 vertices, cap is 4\n"),
], ids=["step-token", "measure-two", "orbit-two", "orbit-cap"])
def test_entry_checks(tmp_path, capsys, argv, code, err):
    two = tmp_path / "two.g6"
    two.write_text("A_\nBw\n")
    assert main([str(two) if a == "TWO" else a for a in argv]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize("how", ["stdin", "output"])
def test_bounds_reads_stdin_and_writes_an_output_file(tmp_path, capsys, monkeypatch, how):
    text = "A_\n\nDhc\n"
    path = tmp_path / "graphs.g6"
    path.write_text(text)
    assert main(["bounds", str(path), "--format", "csv"]) == 0
    expected = capsys.readouterr().out
    assert len(expected.splitlines()) == 3
    if how == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["bounds", "-", "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, "")
    else:
        out = tmp_path / "bounds.csv"
        assert main(["bounds", str(path), "--format", "csv", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")
        assert out.read_text(encoding="utf-8") == expected


def test_classify_two(capsys):
    assert main(["classify", "2", "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header plus single class
    assert lines[0] == "no,class_size,n_vertices,n_edges,lower,upper,RI_3,RI_2,two_colorable"
    assert lines[1].startswith("1,1,2,1,1,1")


def test_classify_json(capsys):
    assert main(["classify", "4", "--format", "json", "--jobs", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 4
    assert data[3]["RI_2"] == [2, 1]


def test_classify_json_for_five_vertices_is_pinned(capsys):
    # the representatives are canonical forms, so this pins canonical_form's labelling
    assert main(["classify", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [tuple(d.values()) for d in data] == [
        (1, 1, 2, 1, 1, 1, None, None, True, "A_"),
        (2, 2, 3, 2, 1, 1, None, None, True, "BW"),
        (3, 2, 4, 3, 1, 1, None, [0, 3], True, "CF"),
        (4, 4, 4, 3, 2, 2, None, [2, 1], True, "CL"),
        (5, 2, 5, 4, 1, 1, None, [0, 10], True, "D?{"),
        (6, 6, 5, 4, 2, 2, None, [6, 4], True, "D@s"),
        (7, 10, 5, 4, 2, 2, None, [8, 2], True, "DBg"),
        (8, 3, 5, 5, 2, 3, None, [10, 0], False, "DLo"),
    ]
    assert list(data[0]) == ["no", "class_size", "n_vertices", "n_edges", "lower", "upper",
                             "RI_3", "RI_2", "two_colorable", "representative"]


def test_measure_star_center(capsys):
    g6 = to_graph6(star_graph(4))
    assert main(["measure", g6, "z0-", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["steps"][0]["byproduct"] == "Z@0 Z@1 Z@2"
    assert data["final_graph6"] == to_graph6(empty_graph(3))
    assert data["probability"] == "1/2"


def test_measure_sampled_signs_are_deterministic(capsys):
    g6 = to_graph6(cycle_graph(5))
    assert main(["measure", g6, "x0", "y2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["measure", g6, "x0", "y2", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_measure_takes_the_certain_outcome_when_the_drawn_one_cannot_occur(capsys):
    # after z0- the byproduct Z on the isolated vertex 1 makes x1- certain;
    # seed 1 draws +1
    assert main(["measure", "A_", "z0-", "x1", "--seed", "1"]) == 0
    assert "x1-" in capsys.readouterr().out


def test_measure_resolves_unsigned_steps_in_one_pass(monkeypatch):
    calls = []
    real = measurement.measure_pauli

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measurement, "measure_pauli", counting)
    g6 = to_graph6(cycle_graph(12))
    for k in (3, 6, 9):
        calls.clear()
        assert main(["measure", g6, *(f"z{v}" for v in range(k)), "--seed", "0"]) == 0
        assert len(calls) == k


def test_orbit_star(capsys):
    assert main(["orbit", to_graph6(star_graph(5))]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6


def test_orbit_prints_the_graph6_lines_of_a_plain_walk(capsys, reference_walk):
    g = cycle_graph(5)
    for flags, relabel_too in (([], False), (["--with-isomorphisms"], True)):
        assert main(["orbit", to_graph6(g), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [to_graph6(h) for h in reference_walk(g, relabel_too)]
        assert len(lines) == 132


def test_orbit_limit_exits_two(capsys):
    assert main(["orbit", to_graph6(cycle_graph(7)), "--orbit-limit", "5"]) == 2


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "42", "--max-vertices", "6",
                 "--trials", "12"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_module_entry_point_runs():
    # pytest's pythonpath setting does not reach a child process
    src = Path(graphstates.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "graphstates", "bounds", "A_"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert "lower=1" in proc.stdout


_NUMPY_GUARD = """
import contextlib, io, sys
import graphstates
package_json = "json" in sys.modules
from graphstates import cli
def loaded():
    return [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["bounds", "Gr`HOk"]),
             cli.main(["classify", "5", "--format", "dot"]),
             cli.main(["orbit", "D~{", "--with-isomorphisms"]),
             cli.main(["measure", "D~{", "x0", "y1+", "z2-"])]
    before_verify = loaded()
    codes.append(cli.main(["verify", "--trials", "2"]))
print(codes, package_json, after_import, before_verify, "numpy" in sys.modules)
"""


def test_only_verify_loads_numpy():
    # every command but verify runs on integer tables; numpy comes in with
    # the dense oracle, which verify alone imports.  The value classes are
    # written out by hand, so neither the package nor those commands load
    # dataclasses or inspect, which take longer to import than most
    # commands take to run.  json belongs to the CLI's renderers alone, so
    # the package loads it only with cli.
    src = Path(graphstates.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_GUARD],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0] False [] [] True\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_above_dense_cap_exits_two_whatever_the_seed(capsys, seed):
    assert main(["verify", "--seed", str(seed), "--max-vertices", "13",
                 "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-vertices 13" in captured.err


def test_verify_at_dense_cap_is_accepted(capsys):
    assert main(["verify", "--seed", "0", "--max-vertices", "12",
                 "--trials", "2"]) == 0
    assert "all checks passed over 2 trials" in capsys.readouterr().out


def test_verify_measures_each_basis_once_per_trial(capsys, monkeypatch):
    calls = []
    original = measurement.measure_pauli

    def recording(g, a, basis):
        calls.append(basis)
        return original(g, a, basis)

    monkeypatch.setattr(measurement, "measure_pauli", recording)
    assert main(["verify", "--seed", "5", "--max-vertices", "7",
                 "--trials", "4"]) == 0
    assert calls == ["x", "y", "z"] * 4


def test_verify_builds_and_diagonalizes_each_trial_state_once(capsys, monkeypatch):
    counts = {"graph_state": 0, "_small_side_spectrum": 0}
    for name in counts:
        original = getattr(oracle, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counting)
    assert main(["verify", "--seed", "5", "--max-vertices", "7",
                 "--trials", "4"]) == 0
    # per trial: the state, one rewritten state per basis, the complemented
    # state and the reduced graph's state behind the partial-trace mixture
    assert counts == {"graph_state": 6 * 4, "_small_side_spectrum": 4}


def test_verify_applies_a_2x2_product_only_at_non_monomial_sites(capsys, monkeypatch):
    # Cliffords with no zero entry need a 2x2 product on their axis; the
    # others are a bit flip times a phase, applied by index arithmetic.
    # A measurement is a contraction, which makes no 2x2 product.
    dense = {i for i, m in enumerate(oracle.CLIFFORD_MATRICES) if np.abs(m).min() > 1e-9}
    counts = {"apply_single_site": 0, "dense": 0, "monomial": 0}
    single, local = oracle.apply_single_site, oracle.apply_local_clifford

    def counting_single(*args):
        counts["apply_single_site"] += 1
        return single(*args)

    def counting_local(state, u):
        counts["dense"] += sum(c in dense for c in u.indices)
        counts["monomial"] += sum(c not in dense and c != CL_I for c in u.indices)
        return local(state, u)

    monkeypatch.setattr(oracle, "apply_single_site", counting_single)
    monkeypatch.setattr(oracle, "apply_local_clifford", counting_local)
    assert main(["verify", "--seed", "5", "--max-vertices", "7", "--trials", "4"]) == 0
    assert counts["dense"] > 0 and counts["monomial"] > 0
    assert counts["apply_single_site"] == counts["dense"]


def test_verify_contracts_each_basis_and_sign_once_per_trial(capsys, monkeypatch):
    calls = []
    original = oracle.contract_qubit

    def recording(state, site, basis, sign):
        calls.append((basis, sign))
        return original(state, site, basis, sign)

    monkeypatch.setattr(oracle, "contract_qubit", recording)
    assert main(["verify", "--seed", "5", "--max-vertices", "7",
                 "--trials", "4"]) == 0
    # 3 bases x 2 signs a trial
    assert calls == [(b, s) for b in "xyz" for s in (1, -1)] * 4


def _verify_with_mutated_byproducts(monkeypatch, mutate):
    original = measurement.measure_pauli
    monkeypatch.setattr(measurement, "measure_pauli",
                        lambda g, a, basis: mutate(original(g, a, basis)))
    return main(["verify", "--seed", "3", "--max-vertices", "6", "--trials", "3"])


def test_verify_catches_swapped_byproducts(capsys, monkeypatch):
    def swap(out):
        return out._replace(byproduct_plus=out.byproduct_minus,
                            byproduct_minus=out.byproduct_plus)

    assert _verify_with_mutated_byproducts(monkeypatch, swap) == 3
    assert "projection rule" in capsys.readouterr().out


def test_verify_checks_the_minus_byproduct(capsys, monkeypatch):
    # The plus outcome stays right, so any failure comes from the minus check.
    def corrupt_minus(out):
        return out._replace(byproduct_minus=out.byproduct_plus)

    assert _verify_with_mutated_byproducts(monkeypatch, corrupt_minus) == 3
    out = capsys.readouterr().out
    assert "projection rule" in out and "probability" not in out
