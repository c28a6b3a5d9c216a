import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gateselftest import (
    Family,
    dist_to_family,
    hadamard,
    measurement,
    member_gates,
    not_gate,
    phase_gate,
    rotation_gate,
)
from gateselftest.channel import NoiseModel, apply_noise, cnot, sup_norm_report
from gateselftest.families import PHI_TOL, minimize_scalar
from helpers import depolarize_distance


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
        Family("h-phase", alpha="3/2")  # alpha > pi
    with pytest.raises(ValueError):
        Family("rotation", alpha="0", theta=0.5)
    assert Family("h-phase", alpha="1").alpha == 1
    # A float would become its binary fraction, and True would read as pi.
    with pytest.raises(ValueError, match="alpha"):
        Family("h-phase", alpha=0.1)
    with pytest.raises(ValueError, match="alpha"):
        Family("h-phase", alpha=True)
    # numpy's bool is no Python bool; Fraction used to raise TypeError on it.
    with pytest.raises(ValueError, match="alpha"):
        Family("h-phase", alpha=np.True_)


def test_rotation_excludes_the_not_point():
    # alpha = pi at the equator is the NOT gate, handled by its own pair family
    with pytest.raises(ValueError):
        Family("rotation", alpha="1", theta=math.pi / 2.0)
    # nearby parameters are fine
    assert Family("rotation", alpha="1", theta=1.0).theta == 1.0
    assert Family("rotation", alpha="1/2", theta=math.pi / 2.0).alpha == Fraction(1, 2)


def test_theta_range():
    with pytest.raises(ValueError):
        Family("rotation", alpha="1/3", theta=0.0)
    with pytest.raises(ValueError):
        Family("rotation", alpha="1/3", theta=2.0)  # beyond the equator
    with pytest.raises(ValueError, match="theta"):
        Family("rotation", alpha="1/3", theta=True)  # would read as 1 rad
    with pytest.raises(ValueError, match="theta"):
        Family("rotation", alpha="1/3", theta=np.True_)


def test_arity_and_signs():
    assert Family("hadamard").arity == 1
    assert Family("h-not").arity == 2
    assert Family("h-cnot").arity == 2
    assert Family("h-phase-cnot").arity == 3
    assert Family("hadamard").signs == (1,)
    assert Family("h-phase", alpha="1/4").signs == (1, -1)
    assert Family("h-phase-cnot").signs == (1, -1)
    # phase(pi) and phase(-pi) are one channel, and so are R(pi) and R(-pi).
    assert Family("h-phase", alpha="1").signs == (1,)
    assert Family("rotation", alpha="1", theta=1.0).signs == (1,)


def test_labels():
    assert Family("hadamard").label == "hadamard"
    assert Family("h-phase", alpha="1/4").label == "h-phase(1/4pi)"
    assert "rotation(2/3pi," in Family("rotation", alpha="2/3", theta=1.0).label


def test_triple_defaults_to_quarter_turn():
    fam = Family("h-phase-cnot")
    assert fam.alpha == Fraction(1, 4)
    assert fam == Family("h-phase-cnot", alpha=Fraction(1, 4))


def test_alpha_strings_parse_as_fractions():
    assert Family("h-phase", alpha="1/4") == Family("h-phase", alpha=Fraction(1, 4))
    assert Family("rotation", alpha="1/3", theta=0.5).alpha == Fraction(1, 3)


def test_member_gates_structure():
    gates = member_gates(Family("h-cnot"), 0.7)
    assert len(gates) == 2
    assert gates[0].is_close(hadamard(0.7))
    assert gates[1].is_close(cnot(0.7))
    gates = member_gates(Family("h-phase", alpha="1/4"), 0.2, sign=-1)
    assert gates[1].is_close(phase_gate(-math.pi / 4.0))
    with pytest.raises(ValueError):
        member_gates(Family("hadamard"), 0.0, sign=0)


def test_member_gates_keep_the_axis():
    # overrotate turns about a gate's recorded axis and falls back to a z-axis
    # phase without one, so a member must record the axis of its gate.
    over = NoiseModel("overrotate", 0.3)
    member = member_gates(Family("hadamard"), 0.7)[0]
    assert apply_noise(member, over).is_close(apply_noise(hadamard(0.7), over))
    fam = Family("rotation", alpha="1/3", theta=0.9)
    member = member_gates(fam, 1.4, sign=-1)[0]
    expected = rotation_gate(-math.pi / 3.0, 0.9, 1.4)
    assert apply_noise(member, over).is_close(apply_noise(expected, over))


def test_member_gates_triple():
    gates = member_gates(Family("h-phase-cnot"), 1.1)
    assert len(gates) == 3
    assert gates[0].is_close(hadamard(1.1))
    assert gates[1].is_close(phase_gate(math.pi / 4.0))
    assert gates[2].is_close(cnot(1.1))


def test_dist_recovers_member_parameters():
    fit = dist_to_family(hadamard(2.0), Family("hadamard"))
    assert fit.distance <= 1e-6
    assert fit.converged
    assert abs(fit.phi - 2.0) <= 1e-4


def test_dist_recovers_sign():
    fam = Family("rotation", alpha="1/3", theta=0.9)
    gate = rotation_gate(-math.pi / 3.0, 0.9, 1.4)
    fit = dist_to_family(gate, fam)
    assert fit.distance <= 1e-6
    assert fit.sign == -1
    assert abs(fit.phi - 1.4) <= 1e-4


def test_dist_pair_member():
    fam = Family("h-not")
    gates = (hadamard(0.8), not_gate(0.8))
    fit = dist_to_family(gates, fam)
    assert fit.distance <= 1e-6
    assert abs(fit.phi - 0.8) <= 1e-4


def test_dist_measurement_impostor():
    # the basis measurement is far from every equator involution; the exact
    # value works out to the golden ratio
    fit = dist_to_family(measurement(1), Family("hadamard"))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert fit.distance >= 1.6
    assert fit.distance == pytest.approx(golden, abs=1e-6)
    assert fit.converged


def test_dist_phase_component_ignores_phi():
    # the phase member does not depend on phi, so a lone phase error gives a
    # phi-independent floor
    fam = Family("h-phase", alpha="1/2")
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
    fit = dist_to_family(_depolarized((hadamard(phi), cnot(phi)), lam), Family("h-cnot"))
    assert fit.distance == pytest.approx(1.5 * lam, abs=1e-9)
    assert abs(fit.phi - phi) <= PHI_TOL
    assert fit.sign == 1
    assert fit.converged


# (phi, lam): two seeded phis, then the inputs of the benchmark's check-hcnot
# round at seed 8, which an ascent that stops after one still iteration
# misses (distance off by 2.7e-6, phi by 7.0e-4).
H_CNOT_FITS = [(phi, 0.05) for phi in np.random.default_rng(14).uniform(0.0, 2.0 * math.pi, 2)]
H_CNOT_FITS.append((3.4411776229148274, 0.049583404767743366))


@pytest.mark.parametrize(("phi", "lam"), H_CNOT_FITS, ids=[str(phi) for phi, _ in H_CNOT_FITS])
def test_depolarized_h_cnot_fit_certifies_the_closed_form(phi, lam):
    # The phi search runs at the grid's starts and the final evaluation at
    # full starts; that certificate must be the closed form of the worse
    # gate, the 2-qubit CNOT, at the member's own (pinned) phi.
    fit = dist_to_family(_depolarized((hadamard(phi), cnot(phi)), lam), Family("h-cnot"))
    assert abs(fit.distance - depolarize_distance(lam, 2)) <= 1e-12
    assert abs(math.remainder(fit.phi - phi, 2.0 * math.pi)) <= 1e-6
    assert fit.converged


def test_unpinned_phi_stays_in_its_flat_minimum():
    # The damped NOT is the worse gate, at 2 * 0.03 for every phi in about
    # [1.09, 1.12], so the distance does not pin phi down there.  The search
    # may return any phi on that stretch, but no phi outside it.
    gates = (
        apply_noise(hadamard(1.1), NoiseModel("depolarize", 0.04)),
        apply_noise(not_gate(1.1), NoiseModel("amplitude_damp", 0.03)),
    )
    fit = dist_to_family(gates, Family("h-not"))
    assert abs(fit.distance - 0.06) <= 1e-12
    assert 1.09 <= fit.phi <= 1.12


def test_dist_depolarized_triple_member_with_negative_sign():
    lam, phi = 0.04, 4.0
    gates = _depolarized((hadamard(phi), phase_gate(-math.pi / 4.0), cnot(phi)), lam)
    fit = dist_to_family(gates, Family("h-phase-cnot"))
    assert fit.distance == pytest.approx(1.5 * lam, abs=1e-9)
    assert abs(fit.phi - phi) <= PHI_TOL
    assert fit.sign == -1
    assert fit.converged


def test_grid_block_does_not_change_the_fit(monkeypatch):
    # h-not has two 1-qubit phi-dependent members, each with a grid of
    # differences that runs GRID_BLOCK rows per ascent; the fit must not
    # depend on how the grid is cut.
    from gateselftest import channel, families

    gates = _depolarized((hadamard(2.2), not_gate(2.2)), 0.03)
    expected = dist_to_family(gates, Family("h-not"))
    for block in (1, 7, families.PHI_GRID_POINTS):
        monkeypatch.setattr(channel, "GRID_BLOCK", block)
        assert dist_to_family(gates, Family("h-not")) == expected, block


def _full_scan(lower, value):
    values = [value(j) for j in range(len(lower))]
    j = min(range(len(values)), key=lambda j: (values[j], j))
    return j, values[j]


@pytest.mark.parametrize(
    "family, gates",
    [
        (
            Family("h-phase", alpha="1/4"),
            _depolarized((hadamard(0.7), phase_gate(math.pi / 4.0)), 0.03),
        ),
        (
            Family("h-phase", alpha="1/4"),
            _depolarized((hadamard(2.5), phase_gate(-math.pi / 4.0)), 0.02),
        ),
        # alpha = pi: phase(pi) and phase(-pi) are one gate, so the family
        # has one sign and only the grid is pruned.
        (Family("h-phase", alpha="1"), _depolarized((hadamard(0.2), phase_gate(math.pi)), 0.01)),
        (
            Family("h-not"),
            (
                apply_noise(hadamard(1.1), NoiseModel("depolarize", 0.04)),
                apply_noise(not_gate(1.1), NoiseModel("amplitude_damp", 0.03)),
            ),
        ),
        # No static member: both floors are 0, and only the second sign fits.
        (
            Family("rotation", alpha="1/3", theta=0.9),
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


@pytest.fixture
def unpruned(monkeypatch):
    """Call the returned function to make every later ``channel._ascent``
    ignore its floor and ceiling: the reference that runs every ascent to
    its end."""
    from gateselftest import channel

    def patch():
        ascent = channel._ascent

        def full(delta, starts, seed, floor=None, ceiling=math.inf):
            return ascent(delta, starts, seed)

        monkeypatch.setattr(channel, "_ascent", full)

    return patch


def _noisy(gates, *noise):
    return tuple(apply_noise(g, NoiseModel(kind, s)) for g, (kind, s) in zip(gates, noise))


_PHIS = np.random.default_rng(15).uniform(0.0, 2.0 * math.pi, 12)
_DAMP, _DEP, _TURN = ("amplitude_damp", 0.05), ("depolarize", 0.03), ("overrotate", 0.1)


@pytest.mark.parametrize(
    "family, gates",
    [
        (Family("hadamard"), _noisy((hadamard(_PHIS[0]),), _DAMP)),
        (Family("hadamard"), (hadamard(_PHIS[1]),)),
        (Family("hadamard"), (measurement(1),)),
        (
            Family("rotation", alpha="1/3", theta=0.9),
            _noisy((rotation_gate(-math.pi / 3.0, 0.9, _PHIS[2]),), _DEP),
        ),
        (
            Family("rotation", alpha="1/3", theta=0.9),
            _noisy((rotation_gate(math.pi / 3.0, 0.9, _PHIS[3]),), _TURN),
        ),
        (Family("h-not"), _noisy((hadamard(_PHIS[4]), not_gate(_PHIS[4])), _DEP, _DAMP)),
        (Family("h-not"), _noisy((hadamard(_PHIS[5]), not_gate(_PHIS[5])), _DAMP, _TURN)),
        (Family("h-not"), (measurement(1), not_gate(_PHIS[6]))),
        (
            Family("h-phase", alpha="1/4"),
            _noisy((hadamard(_PHIS[7]), phase_gate(-math.pi / 4.0)), _DAMP, _DEP),
        ),
        (Family("h-phase", alpha="1/4"), (hadamard(_PHIS[8]), phase_gate(math.pi / 4.0))),
        (Family("h-cnot"), _noisy((hadamard(_PHIS[9]), cnot(_PHIS[9])), _DAMP, _DEP)),
        (
            Family("h-phase-cnot"),
            _noisy(
                (hadamard(_PHIS[10]), phase_gate(-math.pi / 4.0), cnot(_PHIS[10])),
                _DEP,
                _TURN,
                _DAMP,
            ),
        ),
    ],
    ids=[
        "hadamard-damped",
        "hadamard-exact",
        "hadamard-flat",
        "rotation-minus",
        "rotation-plus",
        "h-not-damped-not",
        "h-not-damped-h",
        "h-not-flat",
        "h-phase-minus",
        "h-phase-exact",
        "h-cnot",
        "h-phase-cnot-minus",
    ],
)
def test_stopped_ascents_leave_the_fit_unchanged(unpruned, family, gates):
    # Grid ascents that stop once they cannot be the argmin give the fit of
    # the search that runs every ascent to its end.
    stopped = dist_to_family(gates, family)
    unpruned()
    assert dist_to_family(gates, family) == stopped


@pytest.mark.parametrize(
    "family, gates",
    [
        (Family("h-phase", alpha="1"), (hadamard(0.2), phase_gate(math.pi))),
        (Family("h-phase", alpha="1"), (hadamard(1.9), phase_gate(-math.pi))),
        (Family("rotation", alpha="1", theta=1.0), (rotation_gate(math.pi, 1.0, 2.0),)),
        (Family("rotation", alpha="1", theta=0.7), (rotation_gate(-math.pi, 0.7, 0.3),)),
    ],
)
def test_alpha_pi_fit_reports_sign_plus(family, gates):
    # The -pi member is the +pi one, so the fit finds the noisy gates' own
    # member whichever sign built them, and reports it as sign +1.  Both
    # rotation cases reported sign -1 when both signs were searched.
    noisy = _depolarized(gates, 0.05)
    fit = dist_to_family(noisy, family)
    assert fit.sign == 1
    own = max(sup_norm_report(n, g).value for n, g in zip(noisy, gates))
    assert fit.distance == pytest.approx(own, abs=1e-9)


def test_dist_arity_checks():
    with pytest.raises(ValueError):
        dist_to_family((hadamard(0.0),), Family("h-not"))
    with pytest.raises(ValueError):
        dist_to_family(measurement(2), Family("hadamard"))


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
