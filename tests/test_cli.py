import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gateselftest.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_SCAN_POINTS,
    _parse_grid,
    main,
)


@pytest.fixture()
def gate_file(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# equations


def test_equations_hadamard(capsys):
    code, out, _ = run_cli(capsys, "equations", "--family", "hadamard")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["family"] == "hadamard"
    assert payload["d"] == 3
    assert payload["k_max"] == 2
    assert payload["seed"] is None
    assert payload["tool_version"]
    assert len(payload["equations"]) == 3


def test_equations_out_file(tmp_path, capsys):
    target = tmp_path / "eqs.json"
    code, out, _ = run_cli(
        capsys, "equations", "--family", "h-cnot", "--out", str(target)
    )
    assert code == EXIT_PASS
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["d"] == 12


def test_equations_rational_alpha(capsys):
    code, out, _ = run_cli(
        capsys, "equations", "--family", "h-phase", "--alpha", "1/4pi"
    )
    assert code == EXIT_PASS
    assert json.loads(out)["d"] == 7


def test_equations_rotation_family(capsys):
    code, out, _ = run_cli(
        capsys,
        "equations",
        "--family",
        "rotation",
        "--alpha",
        "2/3pi",
        "--theta",
        "0.9",
    )
    assert code == EXIT_PASS
    assert json.loads(out)["d"] == 4


GOLDEN = Path(__file__).resolve().parent / "golden"


GOLDEN_FAMILIES = {
    "hadamard": ["hadamard"],
    "rotation": ["rotation", "--alpha", "2/3pi", "--theta", "0.9"],
    "h-not": ["h-not"],
    "h-phase": ["h-phase", "--alpha", "1/4pi"],
    "h-cnot": ["h-cnot"],
    "h-phase-cnot": ["h-phase-cnot"],
    "h-phase-cnot-half": ["h-phase-cnot", "--alpha", "1/2pi"],
}


@pytest.mark.parametrize("name", GOLDEN_FAMILIES)
def test_equations_match_golden_bytes(capsys, name):
    # pins equation order, constants and labels, not just their count
    code, out, _ = run_cli(capsys, "equations", "--family", *GOLDEN_FAMILIES[name])
    assert code == EXIT_PASS
    assert out.encode() == (GOLDEN / f"equations-{name}.json").read_bytes()


def test_triple_family_defaults_alpha(capsys):
    code, out, _ = run_cli(capsys, "equations", "--family", "h-phase-cnot")
    assert code == EXIT_PASS
    assert json.loads(out)["d"] == 16


# ---------------------------------------------------------------------------
# check


def test_check_exact_member(capsys, gate_file):
    path = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 1.0}})
    code, out, _ = run_cli(capsys, "check", "--family", "hadamard", "--gate", path)
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["max_violation"] <= 1e-9
    assert payload["distance"] <= 1e-5
    assert abs(payload["phi"] - 1.0) <= 1e-4
    assert payload["converged"] is True


def test_check_noisy_member(capsys, gate_file):
    path = gate_file(
        "noisy.json",
        {
            "kind": "hadamard",
            "params": {"phi": 0.0},
            "noise": [{"kind": "depolarize", "strength": 0.05}],
        },
    )
    code, out, _ = run_cli(capsys, "check", "--family", "hadamard", "--gate", path)
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["max_violation"] == pytest.approx(0.05 - 0.5 * 0.05**2, abs=1e-9)
    assert payload["distance"] == pytest.approx(0.05, abs=1e-4)


# ---------------------------------------------------------------------------
# selftest


def test_selftest_pass(capsys, gate_file):
    path = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 0.4}})
    code, out, _ = run_cli(
        capsys,
        "selftest",
        "--family",
        "hadamard",
        "--gate",
        path,
        "--eps",
        "0.3",
        "--seed",
        "5",
    )
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["seed"] == 5
    assert payload["guarantee"]["fail_beyond_distance"] == pytest.approx(
        4579.0 * math.sqrt(0.3)
    )


def test_selftest_fail(capsys, gate_file):
    path = gate_file("m.json", {"kind": "measurement", "params": {"n": 1}})
    code, out, _ = run_cli(
        capsys,
        "selftest",
        "--family",
        "hadamard",
        "--gate",
        path,
        "--eps",
        "0.3",
        "--seed",
        "5",
    )
    assert code == EXIT_FAIL
    assert json.loads(out)["verdict"] == "FAIL"


def test_selftest_deterministic_output(capsys, gate_file):
    path = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 0.0}})
    argv = (
        "selftest",
        "--family",
        "hadamard",
        "--gate",
        path,
        "--eps",
        "0.25",
        "--seed",
        "77",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "-1"])
def test_selftest_rejects_a_delta_that_is_not_a_finite_radius(capsys, gate_file, delta):
    # NaN and Infinity are not JSON, and a negative radius means nothing
    path = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 0.0}})
    code, out, err = run_cli(
        capsys, "selftest", "--family", "hadamard", "--gate", path,
        "--eps", "0.3", "--seed", "5", f"--delta={delta}",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: delta must be") and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1e-300", "1e-155", "1e-4"])
def test_selftest_refuses_an_eps_above_the_query_budget(capsys, gate_file, eps):
    # eps * eps underflows to 0 at 1e-300, and the plan's float count
    # overflows at 1e-155: both are the same budget refusal as 1e-4
    path = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 0.0}})
    code, out, err = run_cli(
        capsys, "selftest", "--family", "hadamard", "--gate", path,
        "--eps", eps, "--seed", "5",
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: plan needs ") and err.count("\n") == 1
    assert "above the 1000000000 budget; use eps >= " in err


@pytest.mark.parametrize(
    "command, option",
    [
        ("selftest", "--seed"),
        ("check", "--opt-seed"),
        ("scan", "--opt-seed"),
        ("distance", "--opt-seed"),
    ],
)
def test_negative_seed_is_usage_error(capsys, gate_file, command, option):
    # a seed is used as given, so a negative one names no seed
    path = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 0.0}})
    argv = {
        "selftest": ["--family", "hadamard", "--gate", path, "--eps", "0.3"],
        "check": ["--family", "hadamard", "--gate", path],
        "scan": ["--family", "hadamard", "--noise", "depolarize", "--grid", "0"],
        "distance": ["--gate", path, "--gate", path],
    }[command]
    code, out, err = run_cli(capsys, command, *argv, option, "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument {option}: expected an integer >= 0" in err


def test_selftest_pair_family(capsys, gate_file):
    h = gate_file("h.json", {"kind": "hadamard", "params": {"phi": 0.2}})
    x = gate_file("x.json", {"kind": "not", "params": {"phi": 0.2}})
    code, out, _ = run_cli(
        capsys,
        "selftest",
        "--family",
        "h-not",
        "--gate",
        h,
        "--gate",
        x,
        "--eps",
        "0.4",
        "--seed",
        "1",
    )
    assert code == EXIT_PASS
    assert json.loads(out)["verdict"] == "PASS"


# ---------------------------------------------------------------------------
# scan


def test_scan_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--family",
        "hadamard",
        "--noise",
        "depolarize",
        "--grid",
        "0.0,0.05",
    )
    assert code == EXIT_PASS
    lines = out.splitlines()
    assert lines[0] == "noise_kind,strength,epsilon,distance,bound,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("depolarize,0,")
    assert lines[2].startswith("depolarize,0.05,")


def test_scan_geometric_grid_to_file(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys,
        "scan",
        "--family",
        "hadamard",
        "--noise",
        "phase_drift",
        "--grid",
        "geom:0.01:0.1:3",
        "--out",
        str(target),
    )
    assert code == EXIT_PASS
    assert out == ""
    data = target.read_bytes()
    assert b"\r" not in data
    assert len(data.decode().splitlines()) == 4


@pytest.mark.parametrize("kind", ["depolarize", "overrotate", "phase_drift", "amplitude_damp"])
def test_scan_matches_golden_bytes(capsys, gate_file, kind):
    # pins every digit of the 1-qubit distance path, not just its shape
    base = gate_file("base.json", {"kind": "hadamard", "params": {"phi": 0.9}})
    code, out, _ = run_cli(
        capsys, "scan", "--family", "hadamard", "--noise", kind,
        "--grid", "geom:0.02:0.08:2", "--gate", base,
    )
    assert code == EXIT_PASS
    assert out.encode() == (GOLDEN / f"scan-hadamard-{kind}.csv").read_bytes()


def test_parse_grid_forms():
    assert _parse_grid("0.1,0.2,0.5") == [0.1, 0.2, 0.5]
    lin = _parse_grid("0:1:5")
    assert lin == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    geom = _parse_grid("geom:0.001:0.1:3")
    assert geom == pytest.approx([0.001, 0.01, 0.1])
    assert len(_parse_grid(f"geom:0.001:0.1:{MAX_SCAN_POINTS}")) == MAX_SCAN_POINTS


@pytest.mark.parametrize(
    "grid",
    [
        ",",
        "0.1:0.2:0",
        "geom:0.01:0.1:0",
        f"0.1:0.2:{MAX_SCAN_POINTS + 1}",
        # Rejected before any array is built, so this allocates nothing.
        "geom:0.01:0.1:100000000",
        ",".join(["0.1"] * (MAX_SCAN_POINTS + 1)),
    ],
    ids=[
        "empty-list", "linear-zero", "geom-zero", "linear-over-cap", "geom-huge", "list-over-cap"
    ],
)
def test_scan_grid_out_of_range_is_usage_error(capsys, grid):
    code, out, err = run_cli(
        capsys, "scan", "--family", "hadamard", "--noise", "depolarize", "--grid", grid
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: a scan grid takes 1 to ")


def assert_grid_error(grid, err):
    assert err.startswith("error: --grid takes a comma list, 'lo:hi:n' ")
    assert err.endswith(f"; got {grid!r}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grid",
    ["geom:0:0.1:3", "1:2:3:4", "geom:1:2", "0.1:0.2", "0.1:0.2:x", "0.1,abc"],
    ids=[
        "geom-zero-end", "four-fields", "geom-two-fields", "two-fields", "count-not-integer",
        "list-token-not-number",
    ],
)
def test_malformed_scan_grid_names_what_grid_takes(capsys, grid):
    code, out, err = run_cli(
        capsys, "scan", "--family", "hadamard", "--noise", "depolarize", "--grid", grid
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert_grid_error(grid, err)


@pytest.mark.parametrize(
    "grid",
    ["geom:-0.1:0.1:3", "geom:0.01:-0.1:2", "geom:inf:1:2", "0:inf:3"],
    ids=["geom-negative-lo", "geom-negative-hi", "geom-infinite-end", "linear-infinite-end"],
)
def test_scan_grid_with_bad_ends_prints_only_the_error(grid):
    # A fresh interpreter, so that numpy's warnings would reach stderr.
    result = subprocess.run(
        [sys.executable, "-m", "gateselftest.cli", "scan", "--family", "hadamard",
         "--noise", "depolarize", "--grid", grid],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert result.returncode == EXIT_USAGE
    assert result.stdout == ""
    assert_grid_error(grid, result.stderr)


# ---------------------------------------------------------------------------
# distance


def test_distance_between_specs(capsys, gate_file):
    a = gate_file("a.json", {"kind": "hadamard", "params": {"phi": 0.0}})
    b = gate_file("b.json", {"kind": "not", "params": {"phi": 0.0}})
    code, out, _ = run_cli(capsys, "distance", "--gate", a, "--gate", b)
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert 0.5 <= payload["distance"] <= 2.0 + 1e-9
    assert payload["converged"] is True


def test_distance_identical_specs(capsys, gate_file):
    a = gate_file("a.json", {"kind": "phase", "params": {"alpha": "pi/4"}})
    b = gate_file("b.json", {"kind": "phase", "params": {"alpha": "pi/4"}})
    code, out, _ = run_cli(capsys, "distance", "--gate", a, "--gate", b)
    assert code == EXIT_PASS
    assert json.loads(out)["distance"] == 0.0


# ---------------------------------------------------------------------------
# error handling and exit codes


def test_unknown_family_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "equations", "--family", "swap")
    assert code == EXIT_USAGE


def test_missing_alpha_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "equations", "--family", "h-phase")
    assert code == EXIT_USAGE
    assert "alpha" in err


def test_decimal_alpha_rejected(capsys):
    code, _, err = run_cli(
        capsys, "equations", "--family", "h-phase", "--alpha", "0.785"
    )
    assert code == EXIT_USAGE
    assert "rational" in err


def test_rotation_needs_theta(capsys):
    code, _, err = run_cli(
        capsys, "equations", "--family", "rotation", "--alpha", "1/2pi"
    )
    assert code == EXIT_USAGE
    assert "theta" in err


def test_invalid_gate_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(
        capsys, "check", "--family", "hadamard", "--gate", str(bad)
    )
    assert code == EXIT_USAGE
    assert "JSON" in err


def test_missing_gate_file(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "check",
        "--family",
        "hadamard",
        "--gate",
        str(tmp_path / "absent.json"),
    )
    assert code == EXIT_USAGE


def test_distance_needs_two_gates(capsys, gate_file):
    a = gate_file("a.json", {"kind": "hadamard", "params": {}})
    code, _, err = run_cli(capsys, "distance", "--gate", a)
    assert code == EXIT_USAGE
    assert "two" in err


def test_selftest_arity_mismatch(capsys, gate_file):
    a = gate_file("a.json", {"kind": "hadamard", "params": {}})
    code, _, _ = run_cli(
        capsys,
        "selftest",
        "--family",
        "h-not",
        "--gate",
        a,
        "--eps",
        "0.3",
        "--seed",
        "0",
    )
    assert code == EXIT_USAGE


MALFORMED_INPUTS = {
    "noise-list-of-int": ({"kind": "hadamard", "noise": [5]}, None),
    "noise-int": ({"kind": "hadamard", "noise": 5}, None),
    "noise-entry-str": ({"kind": "hadamard", "noise": ["depolarize"]}, None),
    "params-int": ({"kind": "hadamard", "params": 5}, None),
    "strength-null": (
        {"kind": "hadamard", "noise": [{"kind": "depolarize", "strength": None}]},
        None,
    ),
    "operators-int": ({"kind": "kraus", "params": {"operators": 5}}, None),
    "matrix-object": ({"kind": "unitary", "params": {"matrix": {"a": 1}}}, None),
    "matrix-null-entry": (
        {"kind": "unitary", "params": {"matrix": [[[1, 0], [None, 0]], [[0, 0], [1, 0]]]}},
        None,
    ),
    "matrix-entry-overflow": (
        {"kind": "unitary", "params": {"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}},
        None,
    ),
    "kind-list": ({"kind": [1]}, None),
    "qubits-null": ({"kind": "measurement", "params": {"n": None}}, None),
    "qubits-negative": ({"kind": "measurement", "params": {"n": -1}}, None),
    "qubits-fraction": ({"kind": "measurement", "params": {"n": 1.9}}, None),
    "qubits-bool": ({"kind": "measurement", "params": {"n": True}}, None),
    "angle-bool": ({"kind": "hadamard", "params": {"phi": True}}, None),
    "strength-bool": (
        {"kind": "hadamard", "noise": [{"kind": "depolarize", "strength": True}]},
        None,
    ),
    "matrix-entry-bool": (
        {"kind": "unitary", "params": {"matrix": [[[True, 0], [0, 0]], [[0, 0], [True, 0]]]}},
        None,
    ),
    "params-zero": ({"kind": "hadamard", "params": 0}, None),
    "noise-empty-object": ({"kind": "hadamard", "noise": {}}, None),
    "spec-angle-zero-den": ({"kind": "hadamard", "params": {"phi": "1/0pi"}}, None),
    "spec-angle-pi-over-zero": ({"kind": "hadamard", "params": {"phi": "pi/0"}}, None),
    "spec-angle-inf": ({"kind": "hadamard", "params": {"phi": "inf"}}, None),
    "spec-param-typo": ({"kind": "hadamard", "params": {"ph": 0.3}}, None),
    "spec-param-extra": ({"kind": "phase", "params": {"alpha": "pi", "phi": 0.1}}, None),
    "spec-param-missing": ({"kind": "unitary"}, None),
    "spec-key-typo": (
        {
            "kind": "hadamard",
            "params": {"phi": 0.3},
            "nosie": [{"kind": "depolarize", "strength": 0.2}],
        },
        None,
    ),
    "noise-entry-extra-key": (
        {"kind": "hadamard", "noise": [{"kind": "depolarize", "strength": 0.2, "qubit": 1}]},
        None,
    ),
    "noise-entry-no-strength": ({"kind": "hadamard", "noise": [{"kind": "depolarize"}]}, None),
    "alpha-zero-den": (None, ["h-phase", "--alpha", "1/0pi"]),
    "alpha-pi-over-zero": (None, ["h-phase", "--alpha", "pi/0"]),
    "alpha-not-taken": (None, ["hadamard", "--alpha", "pi"]),
    "theta-not-taken": (None, ["h-cnot", "--theta", "0.3"]),
    "theta-for-h-phase": (None, ["h-phase", "--alpha", "1/4pi", "--theta", "0.3"]),
    "alpha-missing": (None, ["h-phase"]),
    "theta-missing": (None, ["rotation", "--alpha", "1/3pi"]),
}


@pytest.mark.parametrize(
    "spec, family", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys()
)
def test_malformed_input_is_usage_error(capsys, gate_file, spec, family):
    if spec is None:
        argv = ["equations", "--family", *family]
    else:
        argv = ["check", "--family", "hadamard", "--gate", gate_file("bad.json", spec)]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def fresh_env():
    """Environment for a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [src]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


HUGE_MATRIX = [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "unitary", "params": {"matrix": HUGE_MATRIX}},
        {"kind": "kraus", "params": {"operators": [HUGE_MATRIX]}},
    ],
    ids=["unitary", "kraus"],
)
def test_overflowing_matrix_prints_only_the_error(gate_file, spec):
    # A fresh interpreter, so that numpy's warnings reach stderr.
    path = gate_file("big.json", spec)
    result = subprocess.run(
        [sys.executable, "-m", "gateselftest.cli", "check", "--family", "hadamard",
         "--gate", path],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert result.returncode == EXIT_USAGE
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


def test_check_runs_without_scipy(tmp_path):
    # A fresh interpreter in which importing scipy fails: the package needs
    # numpy alone at run time.
    gates = []
    for name, spec in (
        ("h", {"kind": "hadamard", "params": {"phi": 0.4}}),
        ("p", {"kind": "phase", "params": {"alpha": "1/4pi"}}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        gates += ["--gate", str(path)]
    argv = ["check", "--family", "h-phase", "--alpha", "1/4pi", *gates]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from gateselftest.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = [m for m, mod in sys.modules.items() if m.startswith('scipy') and mod]\n"
        "assert code == 0, code\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env()
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["family"] == "h-phase(1/4pi)"


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip()


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == EXIT_USAGE


def test_output_is_sorted_and_indented(capsys):
    _, out, _ = run_cli(capsys, "equations", "--family", "hadamard")
    payload = json.loads(out)
    assert list(payload) == sorted(payload)
    assert out.startswith("{\n  ")
    assert out.endswith("}\n")
