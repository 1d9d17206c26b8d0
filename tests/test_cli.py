"""Driver behaviour: outputs, determinism, exit codes."""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trijunction
from trijunction import cli
from trijunction.cli import main
from trijunction.hamiltonians import TrijunctionParams, trijunction_h
from trijunction.majorana import PROTOCOL_CONFIGS, build_sub_operators, conjugate_hamiltonian
from trijunction.majorana import protocol_steps


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_single_site_passes(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", "--sites", "1", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["config"]["sites"] == 1
    results = doc["results"]
    assert results["dphi_single"] == pytest.approx(math.pi / 2, abs=1e-9)
    assert results["dphi_double"] == pytest.approx(math.pi, abs=1e-9)
    assert all(row["ok"] for row in results["conjugation_chain"])
    assert results["checks_passed"] is True
    assert "wall_time_s" in doc["meta"]


def test_verify_zero_steps_reports_zero_phase(capsys):
    code, out, _ = run(capsys, "verify", "--sites", "1", "--steps", "0")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dphi_steps0"] == pytest.approx(0.0, abs=1e-12)


def test_braid_swaps_superpositions(capsys):
    code, out, _ = run(capsys, "braid", "--sites", "1")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["fidelity_plus_to_opposite"] == pytest.approx(1.0, abs=1e-9)
    assert results["fidelity_minus_to_opposite"] == pytest.approx(1.0, abs=1e-9)
    assert results["swap_ok"] is True
    assert len(results["final_state_plus"]) == 16


def test_adiabatic_reports_fidelity_and_resources(capsys):
    code, out, _ = run(
        capsys, "adiabatic", "--sites", "1", "--tau", "8",
        "--trotter-steps", "10",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert 0.0 <= results["braid_fidelity"] <= 1.0
    assert results["braid_fidelity"] > 0.5
    assert results["two_qubit_count"] > 0
    assert results["depth"] > 0
    assert results["minimal_setting"] is True
    assert len(results["per_transition_two_qubit"]) == 6


def test_resources_default_sweep_row_count(capsys):
    code, out, _ = run(capsys, "resources", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 16  # 2 methods x 2 mappings x n = 1..4
    assert list(rows[0]) == ["n", "method", "mapping", "two_qubit_count", "depth"]


@pytest.mark.parametrize(
    "argv, header, json_only",
    [
        (
            ["verify", "--sites", "1"],
            "dphi_single,unitarity_defect_single,dphi_single_ok,dphi_double,"
            "unitarity_defect_double,dphi_double_ok,checks_passed",
            {"ground_energies", "ugs_single", "ugs_double", "conjugation_chain"},
        ),
        (
            ["braid", "--sites", "2", "--mapping", "continuous"],
            "steps,fidelity_plus_to_opposite,fidelity_minus_to_opposite,"
            "swap_ok,checks_passed",
            {"final_state_plus"},
        ),
        (
            ["adiabatic", "--sites", "1"],
            "braid_fidelity,two_qubit_count,depth,minimal_setting",
            {"per_transition_two_qubit"},
        ),
    ],
    ids=["verify", "braid", "adiabatic"],
)
def test_state_command_csv_has_the_scalar_results_only(capsys, argv, header, json_only):
    # CSV is one row of the scalar results in payload order; lists, states
    # and matrices appear in JSON only.
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    assert len(lines) == 2
    code, out, _ = run(capsys, *argv)
    assert code == 0
    results = json.loads(out)["results"]
    assert set(results) == set(header.split(",")) | json_only
    if argv[0] == "braid":
        assert len(results["final_state_plus"]) == 2**6  # 3n qubits at n = 2


def test_resources_json_rows_match_the_csv_rows(capsys):
    # The payload rows keep the CSV header order; the JSON text sorts keys.
    header = ["n", "method", "mapping", "two_qubit_count", "depth"]
    config = argparse.Namespace(**{**cli._DEFAULTS["resources"], "sites": 2})
    payload, ok = cli.cmd_resources(config)
    assert ok and all(list(row) == header for row in payload)
    code, out, _ = run(capsys, "resources", "--sites", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows == payload
    code, out, _ = run(capsys, "resources", "--sites", "2", "--format", "csv")
    assert code == 0
    csv_rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == len(csv_rows) == 8
    for row, csv_row in zip(rows, csv_rows):
        assert {k: str(v) for k, v in row.items()} == csv_row


def test_resources_orderings_visible_in_output(capsys):
    code, out, _ = run(capsys, "resources", "--sites", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    table = {
        (int(r["n"]), r["method"], r["mapping"]): (
            int(r["two_qubit_count"]),
            int(r["depth"]),
        )
        for r in rows
    }
    assert table[(3, "braiding", "coupler")][0] < table[(3, "adiabatic", "coupler")][0]
    assert table[(3, "braiding", "coupler")][1] < table[(3, "braiding", "continuous")][1]


def test_resources_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "resources", "--sites", "2", "--format", "csv", "--out", str(a))[0] == 0
    assert run(capsys, "resources", "--sites", "2", "--format", "csv", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_payload_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--sites", "1")
    _, out2, _ = run(capsys, "verify", "--sites", "1")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["config"] == doc2["config"]
    assert doc1["results"] == doc2["results"]


def test_bad_config_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--sites", "0")
    assert code == 2
    assert "sites" in err


# A value just outside each ruled flag's rule, and the edge values it accepts.
OUTSIDE_THE_RULE = {
    "sites": ["0"],
    "steps": ["-1", "7"],
    "tau": ["0", "nan", "-1e-5"],
    "trotter_steps": ["0"],
    "reps": ["0"],
    **{gap: ["0", "inf", "-inf"] for gap in ("delta", "alpha", "tcoupling")},
}
ON_THE_EDGE = {
    "sites": ["1"],
    "steps": ["0", "6"],
    "tau": ["1e-300"],
    "trotter_steps": ["1"],
    "reps": ["1"],
    **{gap: ["1e-300", "-1e-300"] for gap in ("delta", "alpha", "tcoupling")},
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_flag_rejects_what_its_rule_forbids(capsys, command):
    # Parse only: argparse applies each flag's rule, exits 2 and names the
    # flag; the edge values parse to themselves.  Both the --flag=value and
    # the space-separated form reach the rule, negative exponent forms too.
    ruled = {dest for dest, kwargs in cli._ARGUMENTS.items() if "type" in kwargs}
    assert ruled == set(OUTSIDE_THE_RULE) | {"out"}
    parser = cli._build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        a.dest: a.option_strings[0]
        for a in subparsers.choices[command]._actions
        if a.dest in OUTSIDE_THE_RULE
    }
    assert flags
    for dest, flag in flags.items():
        for value in OUTSIDE_THE_RULE[dest]:
            for args in ([f"{flag}={value}"], [flag, value]):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, *args])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert f"argument {flag}: must be " in err, args
        for value in ON_THE_EDGE[dest]:
            for args in ([f"{flag}={value}"], [flag, value]):
                parsed = getattr(parser.parse_args([command, *args]), dest)
                assert parsed == type(parsed)(value)
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--sites", "1.5"])
    assert "argument --sites: invalid int value: '1.5'" in capsys.readouterr().err


def test_unknown_flag_exits_two(capsys):
    assert run(capsys, "verify", "--bogus")[0] == 2


def test_removed_mu_flag_exits_two(capsys):
    # The trijunction Hamiltonian has no chemical-potential term, so the
    # flag is rejected rather than silently ignored.
    code, _, err = run(capsys, "verify", "--sites", "1", "--mu", "99")
    assert code == 2
    assert "--mu" in err


def test_bad_steps_exits_two(capsys):
    assert run(capsys, "verify", "--sites", "1", "--steps", "7")[0] == 2


def test_bad_tau_exits_two(capsys):
    assert run(capsys, "adiabatic", "--sites", "1", "--tau", "0")[0] == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("adiabatic", "--tau", "nan"),
        ("adiabatic", "--tau", "inf"),
        ("verify", "--delta", "nan"),
        ("verify", "--alpha", "inf"),
        ("verify", "--tcoupling", "-inf"),
    ],
)
def test_non_finite_flag_exits_two(capsys, command, flag, value):
    code, out, err = run(capsys, command, "--sites", "1", f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be finite" in err


@pytest.mark.parametrize("flag", ["--delta", "--alpha", "--tcoupling"])
def test_zero_coupling_exits_two(capsys, flag):
    code, out, err = run(capsys, "verify", "--sites", "1", flag, "0")
    assert code == 2
    assert out == ""
    assert f"argument {flag}: must be finite and nonzero" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("verify", "--tau", "5"),
        ("verify", "--trotter-steps", "3"),
        ("verify", "--reps", "2"),
        ("verify", "--method", "braiding"),
        ("braid", "--tau", "5"),
        ("braid", "--trotter-steps", "3"),
        ("braid", "--reps", "2"),
        ("braid", "--method", "braiding"),
        ("adiabatic", "--method", "adiabatic"),
        ("adiabatic", "--steps", "3"),
        ("resources", "--steps", "3"),
        ("resources", "--delta", "2"),
        ("resources", "--alpha", "0.5"),
        ("resources", "--tcoupling", "1.75"),
        ("resources", "--tau", "5"),
    ],
)
def test_unread_flag_exits_two(capsys, command, flag, value):
    # A flag the command does not read is rejected rather than echoed into
    # ``config`` without effect.
    code, out, err = run(capsys, command, "--sites", "1", flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--sites", "2"),
        ("braid", "--sites", "1", "--steps", "3"),
        ("adiabatic", "--sites", "1", "--tau", "8"),
        ("resources", "--sites", "2", "--method", "braiding"),
    ],
    ids=["verify", "braid", "adiabatic", "resources"],
)
def test_config_echoes_the_command_flags_and_round_trips(capsys, argv):
    # ``config`` holds the command, the format and the value of each flag the
    # command reads; passing every echoed value back changes nothing.
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    command = argv[0]
    flags = set(cli._DEFAULTS[command])
    if doc["config"].get("method") == "braiding":
        flags -= {"trotter_steps", "reps"}  # the braiding sweep reads neither
    assert set(doc["config"]) == {"command", "format"} | flags
    again = [command]
    for key, value in doc["config"].items():
        if key != "command" and value is not None:
            again += ["--" + key.replace("_", "-"), str(value)]
    code, out, err = run(capsys, *again)
    assert code == 0, err
    redo = json.loads(out)
    assert redo["config"] == doc["config"]
    assert redo["results"] == doc["results"]


def test_readme_flag_table_matches_the_parser():
    # Each command's row of the README's CLI table lists exactly the flags
    # its subparser registers.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ((?:`\w+`(?:, )?)+) \| (.*) \|$", readme, re.MULTILINE)
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    listed = {}
    for commands, flags in rows:
        for command in re.findall(r"`(\w+)`", commands):
            listed[command] = set(re.findall(r"--[a-z-]+", flags))
    assert set(listed) == set(subparsers.choices) == set(cli._COMMANDS)
    for command, sub in subparsers.choices.items():
        registered = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert listed[command] == registered, command


def test_mapping_both_rejected_outside_resources(capsys):
    assert run(capsys, "braid", "--sites", "1", "--mapping", "both")[0] == 2


def test_continuous_mapping_verify(capsys):
    code, out, _ = run(capsys, "verify", "--sites", "1", "--mapping", "continuous")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dphi_single"] == pytest.approx(math.pi / 2, abs=1e-9)


@pytest.mark.parametrize("where", ["missing_directory", "directory_itself", "empty"])
def test_unwritable_out_exits_two(capsys, tmp_path, where):
    # A missing directory or an empty path is caught before any computing; a
    # path the write itself refuses is caught at the write.  All are usage
    # errors, not a failed physics check.
    target = {
        "missing_directory": str(tmp_path / "missing" / "x.json"),
        "directory_itself": str(tmp_path),
        "empty": "",
    }[where]
    code, out, err = run(capsys, "verify", "--sites", "1", "--out", target)
    assert code == 2
    assert out == ""
    assert repr(target) in err


@pytest.mark.parametrize(
    "method, flag, value, expected",
    [
        ("braiding", "--tau", "5", 2),
        ("braiding", "--trotter-steps", "3", 2),
        ("braiding", "--reps", "2", 2),
        ("both", "--trotter-steps", "3", 0),
        ("both", "--reps", "2", 0),
    ],
)
def test_trotter_flags_need_an_adiabatic_sweep(capsys, method, flag, value, expected):
    # The braiding sweep compiles no Trotter circuit, so it reads none of them.
    code, out, err = run(
        capsys, "resources", "--sites", "1", "--method", method, flag, value,
        "--format", "csv",
    )
    assert code == expected
    if expected == 2:
        assert out == ""
        assert flag in err
    else:
        assert out.startswith("n,method,mapping")


def test_resources_table_matches_benchmark_reference(capsys):
    # The ASAP depth depends on the order of the compiled rotations, which
    # follows the Pauli term order; pin the whole table to the benchmark's
    # recorded copy.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    expected = json.loads(reference.read_text())["resources_csv"]
    code, out, _ = run(capsys, "resources", "--sites", "8", "--format", "csv")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "argv, code", [(["verify", "--sites", "1"], 0), (["braid", "--sites", "0"], 2)]
)
def test_module_entry_point(argv, code):
    # Run as ``python -m trijunction``, from the directory the package was
    # imported from, so it works with or without an installed copy.
    env = dict(os.environ, PYTHONPATH=str(Path(trijunction.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "trijunction", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert json.loads(done.stdout)["results"]["checks_passed"] is True
    else:
        assert done.stdout == ""
        assert "--sites" in done.stderr


# Runs argv and prints its exit code and peak resident set (kB on Linux).
# A child's ru_maxrss counts the resident set of the process that spawned
# it, which for pytest itself is above 60 MB, so a bare interpreter spawns.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("command", ["verify", "braid"])
def test_sites_4_peaks_under_200_mb(command):
    # The certificate builds only the rows of H on the ground column's
    # support, not the 537 MB dense matrix of 13 qubits: the run peaks near
    # 40 MB, most of it the interpreter and numpy, and at 553 MB with the
    # dense fill. The bound sits between the two, clear of build variation.
    env = dict(os.environ, PYTHONPATH=str(Path(trijunction.__file__).parents[1]))
    argv = [sys.executable, "-m", "trijunction", command, "--sites", "4"]
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert peak_kb < 200 * 1024


def test_package_import_loads_no_submodule():
    # The package namespace holds only ``__version__``; every other name is
    # imported from its own module.
    env = dict(os.environ, PYTHONPATH=str(Path(trijunction.__file__).parents[1]))
    code = (
        "import sys, trijunction; "
        "print(sorted(m for m in sys.modules if m.startswith('trijunction.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    assert trijunction.__version__ == "0.1.0"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--sites", "2", "--alpha", "1e-9"),
        ("verify", "--sites", "2", "--delta", "1e-9"),
        ("verify", "--sites", "1", "--tcoupling", "1e-9"),
        ("braid", "--sites", "3", "--alpha", "1e-9"),
        ("verify", "--sites", "3", "--mapping", "continuous", "--tcoupling", "1e-9"),
        ("verify", "--sites", "2", "--alpha", "1e-13"),
        ("verify", "--sites", "2", "--delta", "1e3", "--alpha", "1e-13"),
        *(
            ("verify", "--sites", "2", "--delta", g, "--alpha", g, "--tcoupling", g)
            for g in ("1e200", "1e300", "1e307")
        ),
    ],
)
def test_tiny_gaps_keep_the_exact_phases(capsys, argv):
    # The ground pair is fixed by the signs of the terms, not by an energy
    # window, so a gap far below 1 leaves the braid exact; the certificate
    # works in units of the largest gap, so one far above 1 does too.
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    results = json.loads(out)["results"]
    if argv[0] == "verify":
        assert results["dphi_single"] == float(format(math.pi / 2, ".12g"))
        assert results["dphi_double"] == float(format(math.pi, ".12g"))
    else:
        assert results["fidelity_plus_to_opposite"] == 1.0
        assert results["fidelity_minus_to_opposite"] == 1.0
    assert results["checks_passed"] is True


def test_an_overflowing_energy_fails_the_certificate(capsys):
    # At 1e308 the energy -5e308 overflows: the check fails with exit 1 and
    # prints no payload, before the dense matrix would overflow too.
    gap = "1e308"
    argv = ["verify", "--sites", "2", "--delta", gap, "--alpha", gap, "--tcoupling", gap]
    with np.errstate(all="raise"):
        code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: ground pair energy -inf is not finite\n"


@pytest.mark.parametrize("mapping", ["coupler", "continuous"])
def test_an_overflowing_trotter_angle_exits_two(capsys, mapping):
    # 1e300 passes the certificate, but 1e300 * tau / trotter-steps = 1e309
    # overflows: the angle is rejected once per transition, before sin(inf) runs.
    argv = ["adiabatic", "--sites", "2", "--mapping", mapping, "--delta", "1e300",
            "--tau", "1e10"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        "error: the Trotter angle, gap x --tau / --trotter-steps, overflows to inf\n"
    )


LAYOUTS = [(n, mapping) for n in (1, 2, 3) for mapping in ("coupler", "continuous")]


def scaled_results(command, n, mapping, s):
    """In-process ``main`` on gaps (1, 1.5, 0.75)*s, and tau 3/s with ten
    slices for ``adiabatic``: (exit code, stderr, ``results`` or None)."""
    argv = [command, "--sites", str(n), "--mapping", mapping, "--delta", repr(s),
            "--alpha", repr(1.5 * s), "--tcoupling", repr(0.75 * s)]
    if command == "adiabatic":
        argv += ["--tau", repr(3 / s), "--trotter-steps", "10"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), json.loads(out.getvalue())["results"] if code == 0 else None


@functools.cache
def unit_scale_results(command, n, mapping):
    code, err, results = scaled_results(command, n, mapping, 1.0)
    assert code == 0, err
    return results


@settings(max_examples=20, deadline=None)
@given(s=st.floats(-300, 300).map(lambda e: 10.0**e))
@example(s=1e-11)
@example(s=1e-13)
@example(s=1e-300)
@example(s=1e300)
def test_scaling_the_gaps_and_time_changes_only_the_energies(s):
    # Every rotation angle c*dt and every term sign is scale-free, so the
    # results at gap scale s are those at s = 1, with energies times s.
    for n, mapping in LAYOUTS:
        got = {}
        for command in ("adiabatic", "verify", "braid"):
            code, err, got[command] = scaled_results(command, n, mapping, s)
            assert code == 0, (command, n, mapping, err)
        want = unit_scale_results("adiabatic", n, mapping)
        assert abs(got["adiabatic"]["braid_fidelity"] - want["braid_fidelity"]) <= 1e-12
        for key in ("two_qubit_count", "depth", "per_transition_two_qubit"):
            assert got["adiabatic"][key] == want[key], (key, n, mapping)
        assert got["verify"]["checks_passed"] is True
        assert got["braid"]["checks_passed"] is True
        energies = got["verify"]["ground_energies"]
        unit = unit_scale_results("verify", n, mapping)["ground_energies"]
        assert energies == pytest.approx([s * e for e in unit], rel=1e-11, abs=0)


def test_state_commands_run_no_eigensolver():
    # The ground pair comes from commuting projectors, and numpy.random is
    # never imported (it would add about 6 MB to the resident set).
    env = dict(os.environ, PYTHONPATH=str(Path(trijunction.__file__).parents[1]))
    code = """
import contextlib, io, sys
import numpy as np
calls = []
for name in ("eigh", "eigvalsh"):
    setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
from trijunction import cli
from trijunction.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main([cmd, "--sites", "2"]) for cmd in ("verify", "braid", "adiabatic")]
print(codes, calls, "numpy.random" in sys.modules)
"""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 0] [] False\n"


def without_wall_time(out):
    """stdout with the JSON ``meta`` block (which holds the wall time) removed."""
    if not out.startswith("{"):
        return out
    doc = json.loads(out)
    doc.pop("meta")
    return doc


def test_one_parser_serves_calls_in_a_row(capsys):
    """The parser is built once per process; a run of ``main`` calls through
    it gives what each call gives through a parser of its own."""
    sequence = [
        ["resources", "--sites", "2", "--format", "csv"],
        ["verify", "--sites", "1"],
        ["verify", "--sites", "1", "--bogus"],
        ["adiabatic", "--sites", "1", "--steps", "2"],
        ["braid", "--sites", "1", "--mapping", "continuous"],
        ["verify", "--sites", "0"],
        ["resources", "--sites", "2", "--format", "csv"],
    ]
    cli._build_parser.cache_clear()
    in_a_row = [run(capsys, *argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser() is cli._build_parser()
    for argv, (code, out, err) in zip(sequence, in_a_row):
        cli._build_parser.cache_clear()
        alone_code, alone_out, alone_err = run(capsys, *argv)
        assert (code, err) == (alone_code, alone_err), argv
        assert without_wall_time(out) == without_wall_time(alone_out), argv
    assert [code for code, _, _ in in_a_row] == [0, 0, 2, 2, 0, 2, 0]
    assert "unrecognized arguments: --bogus" in in_a_row[2][2]
    assert "unrecognized arguments: --steps 2" in in_a_row[3][2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 30, 100])
def test_conjugation_cycle_closes_at_every_size(n):
    rows = cli._conjugation_cycle(n)
    assert [row["step"] for row in rows] == [1, 2, 3, 4, 5, 6]
    assert all(row["ok"] for row in rows)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "delta, alpha, t",
    [(1, 1, 1), (2, 2, 1), (-1, -1, 3), (2, 2, 0.3), (2, 1, 1), (0.5, 1, 1), (1, -1, 1)],
)
def test_own_gaps_close_the_cycle_exactly_when_delta_is_alpha(n, delta, alpha, t):
    # ``verify`` conjugates the default-gap Hamiltonians.  The run's own H_ab
    # closes on every step exactly when delta == alpha or n == 1: the
    # exchanges carry a donor arm's delta bonds onto the trivial arm's alpha
    # terms, and a single site has no bonds.
    params = TrijunctionParams(n, delta, alpha, t)
    h = {c: trijunction_h(c, params) for c in PROTOCOL_CONFIGS}
    closes = [
        conjugate_hamiltonian(h[a], build_sub_operators((a, b), n)) == h[b]
        for a, b in protocol_steps()
    ]
    assert closes == [delta == alpha or n == 1] * 6


BRAID_LINES = [
    ["--sites", str(n), "--mapping", kind, *steps]
    for n in (1, 2, 3, 4)
    for kind in ("coupler", "continuous")
    for steps in ([], ["--steps", "0"], ["--steps", "3"], ["--steps", "6"])
] + [
    ["--sites", "2", "--mapping", kind, "--delta", "-1.25", "--alpha", "0.75",
     "--tcoupling", "-1.5", *steps]
    for kind in ("coupler", "continuous")
    for steps in ([], ["--steps", "3"])
]


@pytest.mark.parametrize("argv", BRAID_LINES, ids=" ".join)
def test_braid_output_is_the_indented_dump_of_its_document(capsys, monkeypatch, argv):
    # The rendered state must reproduce json.dumps(indent=2) of its rounded
    # pairs byte for byte.
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda c, p, t: (payloads.append(p), emit(c, p, t)))
    code, out, _ = run(capsys, "braid", *argv)
    assert code == 0
    doc = json.loads(out)
    state = payloads[0]["final_state_plus"]
    doc["results"] = {**payloads[0], "final_state_plus": cli._complex_pairs(state)}
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    # Length and first differing offset first: a bare == on up to 460 kB
    # makes pytest diff the two texts with difflib for minutes.
    same = len(os.path.commonprefix([out, want]))
    assert (len(out), same) == (len(want), len(want)), out[max(same - 60, 0) : same + 60]
    assert out == want


# Each part whose 12-digit text is not json's own: integral after rounding
# (zeros, +-0.99999999999996, 123456789012.4), in [1e12, 1e16) after rounding
# (9.999999999995e11 rounds up into it), subnormal, or not finite; and parts
# on either side of those rules (negative exponents, the smallest normals).
SPECIAL_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072e-308, 2.2250738585072014e-308,
     2.5e-308, -1e-307, 1e300, -1e-300, 1e-300, 1.5e-7, -1e-5, 2.0, -7.0,
     0.99999999999996, -0.99999999999996, 123456789012.4, 9.999999999995e11,
     -1.5e13, 999999999999999.9, 1e16, math.inf, -math.inf, math.nan]
)
PAIRS = st.lists(st.lists(st.floats() | SPECIAL_FLOATS, min_size=2, max_size=2), max_size=6)


def state_of(pairs):
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


@settings(max_examples=300, deadline=None)
@given(pairs=PAIRS)
def test_spliced_pairs_match_the_indented_dump(pairs):
    config = argparse.Namespace(command="braid", sites=1, format="json", out=None)
    payload = {"checks_passed": True, "final_state_plus": state_of(pairs), "steps": 6}
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._emit(config, payload, 0.25)
    doc = {
        "config": {"command": "braid", "format": "json", "sites": 1},
        "results": {**payload, "final_state_plus": cli._complex_pairs(state_of(pairs))},
        "meta": {"wall_time_s": 0.25},
    }
    assert buffer.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(pairs=PAIRS)
def test_rendered_state_is_the_dump_of_its_rounded_pairs(pairs):
    v = state_of(pairs)
    assert cli._indented_state(v, "") == json.dumps(cli._complex_pairs(v), indent=2)


@settings(max_examples=200, deadline=None)
@given(pairs=PAIRS)
def test_complex_pairs_round_each_part_like_f(pairs):
    v = state_of(pairs)
    expected = [[cli._f(z.real), cli._f(z.imag)] for z in v]
    assert repr(cli._complex_pairs(v)) == repr(expected)
