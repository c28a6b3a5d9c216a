import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gateselftest import (
    Family,
    dist_to_family,
    h_cnot_family,
    h_not_family,
    h_phase_family,
    hadamard,
    hadamard_family,
    measurement,
    member_gates,
    not_gate,
    phase_gate,
    rotation_family,
    rotation_gate,
    triple_family,
)
from gateselftest.channel import NoiseModel, apply_noise, cnot
from gateselftest.families import PHI_TOL, minimize_scalar


def test_family_kind_validation():
    with pytest.raises(ValueError):
        Family("swap")
    with pytest.raises(ValueError):
        Family("rotation", alpha=Fraction(1, 2))  # missing theta
    with pytest.raises(ValueError):
        Family("h-phase")  # missing alpha
    with pytest.raises(ValueError):
        Family("hadamard", alpha=Fraction(1, 2))
    with pytest.raises(ValueError):
        Family("h-not", theta=0.3)


def test_alpha_range():
    with pytest.raises(ValueError):
        h_phase_family(3, 2)  # alpha > pi
    with pytest.raises(ValueError):
        rotation_family(0, 1, 0.5)
    assert h_phase_family(1, 1).alpha == 1


def test_rotation_excludes_the_not_point():
    # alpha = pi at the equator is the NOT gate, handled by its own pair family
    with pytest.raises(ValueError):
        rotation_family(1, 1, math.pi / 2.0)
    # nearby parameters are fine
    assert rotation_family(1, 1, 1.0).theta == 1.0
    assert rotation_family(1, 2, math.pi / 2.0).alpha == Fraction(1, 2)


def test_theta_range():
    with pytest.raises(ValueError):
        rotation_family(1, 3, 0.0)
    with pytest.raises(ValueError):
        rotation_family(1, 3, 2.0)  # beyond the equator


def test_arity_and_signs():
    assert hadamard_family().arity == 1
    assert h_not_family().arity == 2
    assert h_cnot_family().arity == 2
    assert triple_family().arity == 3
    assert hadamard_family().signs == (1,)
    assert h_phase_family(1, 4).signs == (1, -1)
    assert triple_family().signs == (1, -1)


def test_labels():
    assert hadamard_family().label == "hadamard"
    assert h_phase_family(1, 4).label == "h-phase(1/4pi)"
    assert "rotation(2/3pi," in rotation_family(2, 3, 1.0).label


def test_triple_defaults_to_quarter_turn():
    fam = triple_family()
    assert fam.alpha == Fraction(1, 4)


def test_member_gates_structure():
    gates = member_gates(h_cnot_family(), 0.7)
    assert len(gates) == 2
    assert gates[0].is_close(hadamard(0.7))
    assert gates[1].is_close(cnot(0.7))
    gates = member_gates(h_phase_family(1, 4), 0.2, sign=-1)
    assert gates[1].is_close(phase_gate(-math.pi / 4.0))
    with pytest.raises(ValueError):
        member_gates(hadamard_family(), 0.0, sign=0)


def test_member_gates_triple():
    gates = member_gates(triple_family(), 1.1)
    assert len(gates) == 3
    assert gates[0].is_close(hadamard(1.1))
    assert gates[1].is_close(phase_gate(math.pi / 4.0))
    assert gates[2].is_close(cnot(1.1))


def test_dist_recovers_member_parameters():
    fit = dist_to_family(hadamard(2.0), hadamard_family())
    assert fit.distance <= 1e-6
    assert fit.converged
    assert abs(fit.phi - 2.0) <= 1e-4


def test_dist_recovers_sign():
    fam = rotation_family(1, 3, 0.9)
    gate = rotation_gate(-math.pi / 3.0, 0.9, 1.4)
    fit = dist_to_family(gate, fam)
    assert fit.distance <= 1e-6
    assert fit.sign == -1
    assert abs(fit.phi - 1.4) <= 1e-4


def test_dist_pair_member():
    fam = h_not_family()
    gates = (hadamard(0.8), not_gate(0.8))
    fit = dist_to_family(gates, fam)
    assert fit.distance <= 1e-6
    assert abs(fit.phi - 0.8) <= 1e-4


def test_dist_measurement_impostor():
    # the basis measurement is far from every equator involution; the exact
    # value works out to the golden ratio
    fit = dist_to_family(measurement(1), hadamard_family())
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert fit.distance >= 1.6
    assert fit.distance == pytest.approx(golden, abs=1e-6)
    assert fit.converged


def test_dist_phase_component_ignores_phi():
    # the phase member does not depend on phi, so a lone phase error gives a
    # phi-independent floor
    fam = h_phase_family(1, 2)
    gates = (hadamard(0.0), phase_gate(math.pi / 2.0 + 0.2))
    fit = dist_to_family(gates, fam)
    expected = 2.0 * math.sin(0.1)  # distance between the two phase gates
    assert fit.distance == pytest.approx(expected, abs=1e-4)


def _depolarized(gates, lam):
    return tuple(apply_noise(g, NoiseModel("depolarize", lam)) for g in gates)


def test_dist_depolarized_h_cnot_member():
    # The pruned search finds the noisy member's own phi; depolarising noise of
    # strength lam puts the CNOT (the worse gate) at 1.5 lam.
    lam, phi = 0.05, 1.3
    fit = dist_to_family(_depolarized((hadamard(phi), cnot(phi)), lam), h_cnot_family())
    assert fit.distance == pytest.approx(1.5 * lam, abs=1e-9)
    assert abs(fit.phi - phi) <= PHI_TOL
    assert fit.sign == 1
    assert fit.converged


def test_dist_depolarized_triple_member_with_negative_sign():
    lam, phi = 0.04, 4.0
    gates = _depolarized((hadamard(phi), phase_gate(-math.pi / 4.0), cnot(phi)), lam)
    fit = dist_to_family(gates, triple_family())
    assert fit.distance == pytest.approx(1.5 * lam, abs=1e-9)
    assert abs(fit.phi - phi) <= PHI_TOL
    assert fit.sign == -1
    assert fit.converged


def test_grid_block_does_not_change_the_fit(monkeypatch):
    # h-not has two 1-qubit phi-dependent members, so each block stacks two
    # pairs per phi; the fit must not depend on how the grid is cut.
    from gateselftest import families

    gates = _depolarized((hadamard(2.2), not_gate(2.2)), 0.03)
    expected = dist_to_family(gates, h_not_family())
    for block in (1, 7, families.PHI_GRID_POINTS):
        monkeypatch.setattr(families, "GRID_BLOCK", block)
        assert dist_to_family(gates, h_not_family()) == expected, block


def _full_scan(lower, value):
    values = [value(j) for j in range(len(lower))]
    j = min(range(len(values)), key=lambda j: (values[j], j))
    return j, values[j]


@pytest.mark.parametrize(
    "family, gates",
    [
        (
            h_phase_family(1, 4),
            _depolarized((hadamard(0.7), phase_gate(math.pi / 4.0)), 0.03),
        ),
        (
            h_phase_family(1, 4),
            _depolarized((hadamard(2.5), phase_gate(-math.pi / 4.0)), 0.02),
        ),
        # alpha = pi: phase(pi) and phase(-pi) are one gate, so the two signs
        # have equal floors.
        (h_phase_family(1, 1), _depolarized((hadamard(0.2), phase_gate(math.pi)), 0.01)),
        (
            h_not_family(),
            (
                apply_noise(hadamard(1.1), NoiseModel("depolarize", 0.04)),
                apply_noise(not_gate(1.1), NoiseModel("amplitude_damp", 0.03)),
            ),
        ),
        # No static member: both floors are 0, and only the second sign fits.
        (
            rotation_family(1, 3, 0.9),
            _depolarized((rotation_gate(-math.pi / 3.0, 0.9, 1.4),), 0.02),
        ),
    ],
    ids=["h-phase-plus", "h-phase-minus", "h-phase-pi-tie", "h-not", "rotation-minus"],
)
def test_pruned_search_equals_the_full_search(monkeypatch, family, gates):
    # Both levels of the branch-and-bound (signs, then grid points) against
    # a scan that evaluates every sign and every grid point.
    from gateselftest import families

    pruned = dist_to_family(gates, family)
    monkeypatch.setattr(families, "pruned_argmin", _full_scan)
    assert dist_to_family(gates, family) == pruned


def test_dist_arity_checks():
    with pytest.raises(ValueError):
        dist_to_family((hadamard(0.0),), h_not_family())
    with pytest.raises(ValueError):
        dist_to_family(measurement(2), hadamard_family())


def test_minimize_scalar_matches_scipy_bounded():
    # Seeded bounded problems: smooth, kinked, flat-floored, monotone, steps.
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(5)
    for i in range(400):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + rng.choice([1e-7, 1e-4, 0.05, 1.0, 20.0]) * rng.random()
        c = rng.uniform(lo - 1.0, hi + 1.0)
        s = rng.uniform(0.1, 5.0)
        floor = rng.uniform(-1.0, 1.0)
        shapes = (
            lambda x: s * (x - c) ** 2,
            lambda x: s * abs(x - c),
            lambda x: max(floor, s * (x - c) ** 2),
            lambda x: s * x,
            lambda x: -s * x,
            lambda x: 0.0 if x < c else 1.0,
            lambda x: math.sin(s * x) + 0.1 * (x - c) ** 2,
            lambda x: 1.0,
        )
        func = shapes[i % len(shapes)]
        ours = minimize_scalar(func, (lo, hi))
        ref = optimize.minimize_scalar(
            func, bounds=(lo, hi), method="bounded", options={"xatol": PHI_TOL}
        )
        assert (ours.x, ours.nfev) == (float(ref.x), ref.nfev), (i, lo, hi)
