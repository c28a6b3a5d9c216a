"""Tests of the benchmark's reference code (reference.py).

    python3 -m pytest -q bench/test_reference.py

The benchmark trusts these closed forms and this evaluator to judge the
CLI's output, so they are checked here: family members must satisfy every
built-in equation set exactly, and each closed-form distance must agree with
a dense random rank-one sampling bound.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import reference as ref

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gateselftest.cli import main as cli_main  # noqa: E402

PHIS = (0.0, 0.7, 2.9, 5.5)


def _equations(*args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["equations", "--family", *args]) == 0
    return json.loads(out.getvalue())


def _members(kind: str, phi: float, sign: int, alpha: float, theta: float):
    if kind == "hadamard":
        us = [ref.hadamard(phi)]
    elif kind == "rotation":
        us = [ref.axis_rotation(sign * alpha, theta, phi)]
    elif kind == "h-not":
        us = [ref.hadamard(phi), ref.not_gate(phi)]
    elif kind == "h-phase":
        us = [ref.hadamard(phi), ref.phase(sign * alpha)]
    elif kind == "h-cnot":
        us = [ref.hadamard(phi), ref.cnot(phi)]
    else:
        us = [ref.hadamard(phi), ref.phase(sign * alpha), ref.cnot(phi)]
    return [[u] for u in us]


@pytest.mark.parametrize(
    "args, alpha, theta",
    [
        (["hadamard"], 0.0, 0.0),
        (["rotation", "--alpha", "2/3pi", "--theta", "0.9"], 2 * math.pi / 3, 0.9),
        (["rotation", "--alpha", "1/5pi", "--theta", "1/2pi"], math.pi / 5, math.pi / 2),
        (["h-not"], 0.0, 0.0),
        (["h-phase", "--alpha", "1/3pi"], math.pi / 3, 0.0),
        (["h-cnot"], 0.0, 0.0),
        (["h-phase-cnot"], math.pi / 4, 0.0),
        (["h-phase-cnot", "--alpha", "2/5pi"], 2 * math.pi / 5, 0.0),
    ],
)
def test_members_satisfy_every_builtin_equation_set(args, alpha, theta):
    eqset = _equations(*args)
    for phi in PHIS:
        for sign in (1, -1):
            gates = _members(args[0], phi, sign, alpha, theta)
            for eq in eqset["equations"]:
                assert ref.probability(eq, gates) == pytest.approx(eq["r"], abs=1e-12)


def test_noisy_tuples_violate_their_equations():
    eqset = _equations("h-cnot")
    gates = [ref.depolarized(ref.hadamard(0.3), 0.05), ref.depolarized(ref.cnot(0.3), 0.05)]
    assert ref.max_violation(eqset, gates) > 0.01


CASES = [
    ("depolarize 1 qubit", ref.depolarized(ref.hadamard(0.4), 0.05), [ref.hadamard(0.4)],
     ref.depolarize_distance(0.05, 1)),
    ("depolarize 2 qubits", ref.depolarized(ref.cnot(1.3), 0.03), [ref.cnot(1.3)],
     ref.depolarize_distance(0.03, 2)),
    ("amplitude_damp", ref.amplitude_damped(ref.hadamard(2.0), 0.07), [ref.hadamard(2.0)],
     ref.amplitude_damp_distance(0.07)),
    ("overrotate", [ref.axis_rotation(0.2, math.pi / 4, 0.6) @ ref.hadamard(0.6)],
     [ref.hadamard(0.6)], ref.overrotate_distance_max(0.2)),
]


@pytest.mark.parametrize("name, noisy, member, closed", CASES, ids=[c[0] for c in CASES])
def test_closed_form_distance_matches_sampling(name, noisy, member, closed):
    sampled = ref.sampled_sup_norm(noisy, member, samples=60_000, seed=5)
    assert sampled <= closed + 1e-12
    assert sampled >= closed * (1.0 - 1e-3)


@pytest.mark.parametrize("build, qubits", [(ref.hadamard, 1), (ref.cnot, 2)])
def test_depolarized_member_is_no_closer_to_other_members(build, qubits):
    lam, phi0 = 0.04, 1.1
    noisy = ref.depolarized(build(phi0), lam)
    closed = ref.depolarize_distance(lam, qubits)
    for phi in (phi0 + 1e-3, phi0 + 0.2, phi0 - 1.0, phi0 + math.pi):
        assert ref.sampled_sup_norm(noisy, [build(phi)], samples=9_000, seed=7) >= closed - 1e-12

