"""End-to-end acceptance gate.

Twelve numbered criteria, one test and one printed PASS/FAIL line each.
Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines of passing criteria).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from gateselftest import (
    Family,
    Oracle,
    affine_of_channel,
    check_six_state_identity_bound,
    check_two_axis_identity_bound,
    epr_decomposition_residual,
    family_equations,
    from_bloch,
    from_unitary,
    hadamard,
    max_violation,
    measurement,
    member_gates,
    noise_scan,
    plan_samples,
    power,
    probability_term,
    rho_of,
    rotation_gate,
    run_tester,
    to_bloch,
    trace_norm,
    violation_bound_from_distance,
    z_k,
)
from gateselftest.equations import Embedding, ExperimentalEquation, Step
from gateselftest.qstate import DensityMatrix

from helpers import random_cptp, random_near_identity, random_noncp_map


def report(num: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def random_state_params(rng):
    p = rng.uniform(0.0, 1.0)
    radius = math.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return p, radius * complex(math.cos(phase), math.sin(phase))


BUILTIN_FAMILIES = (
    Family("hadamard"),
    Family("rotation", alpha="2/3", theta=1.0),
    Family("h-not"),
    Family("h-phase", alpha="1/4"),
    Family("h-cnot"),
    Family("h-phase-cnot"),
)


def test_criterion_01_trace_norm_identities():
    rng = np.random.default_rng(101)
    worst_formula = 0.0
    diffs = []
    for _ in range(1000):
        p, a = random_state_params(rng)
        q, b = random_state_params(rng)
        diff = rho_of(p, a).matrix - rho_of(q, b).matrix
        expected = 2.0 * math.sqrt((p - q) ** 2 + abs(a - b) ** 2)
        worst_formula = max(worst_formula, abs(trace_norm(diff) - expected))
        diffs.append(diff)
    worst_kron = 0.0
    for k in range(200):
        d1, d2 = diffs[2 * k], diffs[2 * k + 1]
        gap = abs(
            trace_norm(np.kron(d1, d2)) - trace_norm(d1) * trace_norm(d2)
        )
        worst_kron = max(worst_kron, gap)
    ok = worst_formula <= 1e-10 and worst_kron <= 1e-10
    report(
        1,
        ok,
        f"closed form dev {worst_formula:.2e}, kron dev {worst_kron:.2e} (tol 1e-10)",
    )


def test_criterion_02_bloch_isomorphism():
    rng = np.random.default_rng(102)
    worst_round = 0.0
    for _ in range(100):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)
        worst_round = max(worst_round, np.abs(to_bloch(from_bloch(v)) - v).max())

    rotations_ok = True
    worst_offset = 0.0
    for _ in range(100):
        alpha, theta, phi = rng.uniform(0.0, 2.0 * math.pi, size=3)
        affine = affine_of_channel(rotation_gate(alpha, theta, phi))
        rotations_ok = rotations_ok and affine.is_rotation(1e-10)
        worst_offset = max(worst_offset, np.abs(affine.offset).max())

    worst_height = 0.0
    zero = DensityMatrix.basis("0")
    for _ in range(3):
        alpha = rng.uniform(0.1, 2.0 * math.pi)
        theta = rng.uniform(0.05, math.pi / 2.0)
        gate = rotation_gate(alpha, theta, rng.uniform(0.0, 2.0 * math.pi))
        for k in range(13):
            z = to_bloch(power(gate, k).apply(zero))[2]
            worst_height = max(worst_height, abs(z - z_k(alpha, theta, k)))

    ok = (
        worst_round <= 1e-12
        and rotations_ok
        and worst_offset <= 1e-10
        and worst_height <= 1e-10
    )
    report(
        2,
        ok,
        f"roundtrip {worst_round:.2e} (tol 1e-12), offsets {worst_offset:.2e}, "
        f"heights {worst_height:.2e} (tol 1e-10)",
    )


def test_criterion_03_family_characterisations():
    rng = np.random.default_rng(103)
    worst_member = 0.0
    for family in BUILTIN_FAMILIES:
        eqset = family_equations(family)
        for phi in rng.uniform(0.0, 2.0 * math.pi, size=16):
            for sign in family.signs:
                violation = max_violation(eqset, member_gates(family, float(phi), sign))
                worst_member = max(worst_member, violation)

    meas_violation = max_violation(family_equations(Family("hadamard")), measurement(1))
    swap = from_unitary(
        np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    )
    swap_violation = max_violation(
        family_equations(Family("h-cnot")), (hadamard(0.0), swap)
    )
    ok = worst_member <= 1e-9 and meas_violation >= 0.25 and swap_violation >= 0.25
    report(
        3,
        ok,
        f"worst member violation {worst_member:.2e} (tol 1e-9); impostors "
        f"{meas_violation:.3f}, {swap_violation:.3f} (floor 0.25)",
    )


def test_criterion_04_epr_decomposition():
    residual = epr_decomposition_residual()
    report(4, residual <= 1e-12, f"residual {residual:.2e} (tol 1e-12)")


def test_criterion_05_tester_completeness():
    eqset = family_equations(Family("hadamard"))
    rng = np.random.default_rng(105)
    start = time.monotonic()
    passes = 0
    for seed in range(100):
        gate = hadamard(float(rng.uniform(0.0, 2.0 * math.pi)))
        verdict = run_tester(Oracle(gate, seed), eqset, eps=0.05)
        passes += verdict.passed
    elapsed = time.monotonic() - start
    ok = passes >= 95 and elapsed <= 30.0
    report(5, ok, f"{passes}/100 PASS (floor 95), {elapsed:.1f}s (cap 30s)")


def test_criterion_06_tester_soundness():
    eqset = family_equations(Family("hadamard"))
    fails = sum(
        not run_tester(Oracle(measurement(1), seed), eqset, eps=0.05).passed
        for seed in range(100)
    )
    report(6, fails >= 99, f"{fails}/100 FAIL (floor 99)")


def test_criterion_07_query_complexity():
    exact = True
    for d in (1, 2, 3, 7, 12, 16, 40):
        for eps in (1.0, 0.5, 0.1, 0.05, 0.01):
            per = plan_samples(d, eps).per_eq_samples
            exact = exact and per == math.ceil(18.0 * math.log(6.0 * d) / eps**2)
    quadruples = True
    for d in (1, 3, 16):
        for eps in (0.8, 0.2, 0.06):
            base = plan_samples(d, eps).per_eq_samples
            fine = plan_samples(d, eps / 2.0).per_eq_samples
            quadruples = quadruples and (4 * base - 3 <= fine <= 4 * base)
    report(7, exact and quadruples, "ceiling formula exact, eps/2 quadruples totals")


@pytest.fixture(scope="module")
def hadamard_noise_scans():
    fam = Family("hadamard")
    records = []
    records += noise_scan(fam, "depolarize", np.geomspace(1.0e-4, 0.106, 12))
    records += noise_scan(fam, "overrotate", np.geomspace(0.01415, 0.465, 12))
    records += noise_scan(fam, "phase_drift", np.linspace(0.0, 0.5, 8))
    return records


def test_criterion_08_sqrt_law_bound(hadamard_noise_scans):
    records = hadamard_noise_scans
    positive = [r.epsilon for r in records if r.epsilon > 0.0]
    coverage_ok = (
        len(records) >= 30 and min(positive) <= 1.0e-4 and max(positive) >= 0.1
    )
    worst_ratio = 0.0
    bound_ok = True
    for r in records:
        bound = 4579.0 * math.sqrt(r.epsilon)
        bound_ok = bound_ok and r.distance <= bound + 2e-3
        if bound > 0.0:
            worst_ratio = max(worst_ratio, r.distance / bound)
    report(
        8,
        coverage_ok and bound_ok,
        f"{len(records)} records, eps in [{min(positive):.1e}, {max(positive):.2f}], "
        f"worst dist/bound ratio {worst_ratio:.3e}",
    )


def test_criterion_09_violation_from_distance(hadamard_noise_scans):
    eqset = family_equations(Family("hadamard"))
    assert eqset.k_max == 2
    worst_excess = 0.0
    for r in hadamard_noise_scans:
        excess = r.epsilon - violation_bound_from_distance(eqset, r.distance)
        worst_excess = max(worst_excess, excess)
    report(
        9,
        worst_excess <= 1e-6,
        f"worst eps - 2*dist = {worst_excess:.2e} (tol 1e-6)",
    )


def test_criterion_10_identity_bound_constants():
    rng = np.random.default_rng(110)
    six_violations = 0
    six_margin = math.inf
    probes = (
        [random_near_identity(rng) for _ in range(80)]
        + [random_cptp(rng, n=1) for _ in range(60)]
        + [random_noncp_map(rng) for _ in range(60)]
    )
    for g in probes:
        result = check_six_state_identity_bound(g)
        six_violations += not result.holds
        six_margin = min(six_margin, result.margin)

    axis_violations = 0
    axis_margin = math.inf
    probes = [random_near_identity(rng) for _ in range(120)] + [
        random_cptp(rng, n=1) for _ in range(80)
    ]
    for g in probes:
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v -= (v @ u) * u
        v /= np.linalg.norm(v)
        result = check_two_axis_identity_bound(g, u, v, eps=0.0)
        axis_violations += not result.holds
        axis_margin = min(axis_margin, result.margin)

    ok = six_violations == 0 and axis_violations == 0
    report(
        10,
        ok,
        f"200+200 probes, 0 violations required; worst margins "
        f"{six_margin:.3f} / {axis_margin:.3f} (slack 2e-3)",
    )


def random_one_variable_equation(rng):
    steps = tuple(
        Step(0, Embedding.WHOLE, int(rng.integers(0, 5)))
        for _ in range(int(rng.integers(1, 4)))
    )
    return ExperimentalEquation(
        n=1,
        arity=1,
        program=steps,
        w=str(rng.integers(0, 2)),
        v=str(rng.integers(0, 2)),
        r=0.5,
    )


def test_criterion_11_unobservable_parameters():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(50):
        eq = random_one_variable_equation(rng)
        phi1, phi2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        gap = abs(
            probability_term(eq, (hadamard(phi1),))
            - probability_term(eq, (hadamard(phi2),))
        )
        worst = max(worst, gap)
        alpha = rng.uniform(0.1, math.pi)
        theta = rng.uniform(0.05, math.pi / 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        gap = abs(
            probability_term(eq, (rotation_gate(alpha, theta, phi),))
            - probability_term(eq, (rotation_gate(-alpha, theta, phi),))
        )
        worst = max(worst, gap)
    report(11, worst <= 1e-10, f"worst probability gap {worst:.2e} (tol 1e-10)")


def test_criterion_12_cli_determinism(tmp_path):
    gate = tmp_path / "gate.json"
    gate.write_text(json.dumps({"kind": "hadamard", "params": {"phi": 0.8}}))
    cmd = [
        sys.executable,
        "-m",
        "gateselftest.cli",
        "selftest",
        "--family",
        "hadamard",
        "--gate",
        str(gate),
        "--eps",
        "0.2",
        "--seed",
        "42",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    report(12, ok, f"{len(first.stdout)} stdout bytes, byte-identical across runs")
