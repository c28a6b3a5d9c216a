import math

import numpy as np
import pytest

from gateselftest import (
    Family,
    NoiseModel,
    ScanRecord,
    apply_noise,
    check_six_state_identity_bound,
    check_two_axis_identity_bound,
    fit_exponent,
    hadamard,
    hadamard_robustness_probe,
    identity,
    measurement,
    noise_scan,
    scan_csv_text,
    transpose_map,
)
from gateselftest import roblab
from gateselftest.roblab import SCAN_CSV_HEADER

from helpers import random_cptp


# ---------------------------------------------------------------------------
# noise scans


def test_depolarize_scan_closed_forms():
    strengths = (0.01, 0.02, 0.05)
    records = noise_scan(Family("hadamard"), "depolarize", strengths)
    assert [r.strength for r in records] == list(strengths)
    for r in records:
        lam = r.strength
        # exact violation of the double-application equation
        assert r.epsilon == pytest.approx(lam - lam * lam / 2.0, abs=1e-9)
        # the nearest member is the noiseless gate itself
        assert r.distance == pytest.approx(lam, abs=1e-5)
        assert r.bound == pytest.approx(4579.0 * math.sqrt(r.epsilon))
        assert r.ratio == pytest.approx(r.distance / r.bound)


def test_phase_drift_stays_in_family():
    records = noise_scan(Family("hadamard"), "phase_drift", (0.0, 0.3))
    for r in records:
        assert r.epsilon <= 1e-12
        assert r.distance <= 1e-5


def test_overrotate_scan_monotone():
    records = noise_scan(Family("hadamard"), "overrotate", (0.05, 0.1, 0.2, 0.4))
    eps = [r.epsilon for r in records]
    dist = [r.distance for r in records]
    assert all(a < b for a, b in zip(eps, eps[1:]))
    assert all(a < b for a, b in zip(dist, dist[1:]))
    for r in records:
        # exact violation of the double-application equation at twist delta
        assert r.epsilon == pytest.approx(
            (1.0 - math.cos(2.0 * r.strength)) / 4.0, abs=1e-9
        )


def test_non_hadamard_scan_has_no_bound_column():
    fam = Family("rotation", alpha="1/2", theta=1.0)
    records = noise_scan(fam, "depolarize", (0.05,))
    assert records[0].bound is None
    assert records[0].ratio is None
    assert records[0].epsilon > 0.0


def test_scan_accepts_custom_base_gates():
    base = (hadamard(1.9),)
    records = noise_scan(Family("hadamard"), "depolarize", (0.0,), base)
    assert records[0].epsilon <= 1e-12
    assert records[0].distance <= 1e-5
    # one gate needs no tuple, as everywhere else
    assert noise_scan(Family("hadamard"), "depolarize", (0.0,), hadamard(1.9)) == records


def test_scan_validates_every_strength_before_any_fit(monkeypatch):
    # an out-of-range strength at the end of the grid must fail at once,
    # not after a distance search for every point before it
    def no_fit(*args, **kwargs):
        raise AssertionError("dist_to_family ran before the grid was validated")

    monkeypatch.setattr(roblab, "dist_to_family", no_fit)
    with pytest.raises(ValueError, match="amplitude_damp"):
        noise_scan(Family("hadamard"), "amplitude_damp", [0.01, 1.5])


# ---------------------------------------------------------------------------
# CSV format


def test_csv_golden_format():
    records = [
        ScanRecord("depolarize", 0.05, 0.04875, 0.05, 2.5, 0.02),
        ScanRecord("phase_drift", 0.25, 0.0, 1e-07, None, None),
    ]
    expected = (
        "noise_kind,strength,epsilon,distance,bound,ratio\n"
        "depolarize,0.05,0.04875,0.05,2.5,0.02\n"
        "phase_drift,0.25,0,1e-07,,\n"
    )
    assert scan_csv_text(records) == expected


def test_csv_header_constant():
    assert SCAN_CSV_HEADER == "noise_kind,strength,epsilon,distance,bound,ratio"
    assert scan_csv_text([]) == SCAN_CSV_HEADER + "\n"


def test_csv_twelve_significant_digits():
    records = [ScanRecord("overrotate", 1.0 / 3.0, 0.123456789012345, 1.0, None, None)]
    text = scan_csv_text(records)
    assert "0.333333333333" in text
    assert "0.123456789012" in text


# ---------------------------------------------------------------------------
# exponent fitting


def test_fit_exponent_recovers_synthetic_power_law():
    eps = np.geomspace(1e-5, 1e-1, 12)
    records = [
        ScanRecord("synthetic", float(e), float(e), 2.0 * math.sqrt(e), None, None)
        for e in eps
    ]
    fit = fit_exponent(records)
    assert fit.c == pytest.approx(2.0, rel=1e-10)
    assert fit.k_inv == pytest.approx(0.5, abs=1e-12)
    assert fit.residual <= 1e-12
    assert fit.points == 12


def test_fit_exponent_drops_degenerate_records():
    eps = np.geomspace(1e-4, 1e-1, 9)
    records = [
        ScanRecord("synthetic", float(e), float(e), 3.0 * e, None, None) for e in eps
    ]
    records.append(ScanRecord("synthetic", 0.0, 0.0, 0.0, None, None))
    fit = fit_exponent(records)
    assert fit.points == 9
    assert fit.k_inv == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_needs_points_and_span():
    few = [
        ScanRecord("synthetic", e, e, e, None, None) for e in (1e-3, 1e-2, 1e-1)
    ]
    with pytest.raises(ValueError):
        fit_exponent(few)
    narrow = [
        ScanRecord("synthetic", e, e, e, None, None)
        for e in np.linspace(0.05, 0.1, 10)
    ]
    with pytest.raises(ValueError):
        fit_exponent(narrow)


# ---------------------------------------------------------------------------
# identity bounds


def test_six_state_bound_identity_map():
    report = check_six_state_identity_bound(identity(1))
    assert report.eps <= 1e-12
    assert report.distance <= 1e-12
    assert report.holds


def test_six_state_bound_transpose():
    # the transpose flips the y axis: both y states move by exactly 2, and the
    # full distance is 2, comfortably inside 8 * eps
    report = check_six_state_identity_bound(transpose_map())
    assert report.eps == pytest.approx(2.0, abs=1e-9)
    assert report.distance == pytest.approx(2.0, abs=1e-6)
    assert report.bound == pytest.approx(16.0, abs=1e-8)
    assert report.holds
    assert report.margin == pytest.approx(14.0, abs=1e-6)


def test_six_state_bound_measurement():
    # the measurement moves the four equator states by 1 and sits at
    # distance <= 8 from the identity
    report = check_six_state_identity_bound(measurement(1))
    assert report.eps == pytest.approx(1.0, abs=1e-12)
    assert report.holds


def test_six_state_bound_random_channels():
    rng = np.random.default_rng(60)
    for _ in range(25):
        report = check_six_state_identity_bound(random_cptp(rng, n=1))
        assert report.holds


def test_six_state_bound_rejects_two_qubits():
    with pytest.raises(ValueError):
        check_six_state_identity_bound(identity(2))


def test_two_axis_bound_depolarizing():
    lam = 0.1
    g = apply_noise(identity(1), NoiseModel("depolarize", lam))
    report = check_two_axis_identity_bound(g, (0, 0, 1), (1, 0, 0), eps=lam)
    assert report.hypothesis_met
    assert report.effective_eps == pytest.approx(lam, abs=1e-12)
    assert report.distance == pytest.approx(lam, abs=1e-6)
    assert report.bound == pytest.approx(241.0 * lam)
    assert report.holds


def test_two_axis_bound_flags_missed_hypothesis():
    g = apply_noise(identity(1), NoiseModel("depolarize", 0.2))
    report = check_two_axis_identity_bound(g, (0, 0, 1), (0, 1, 0), eps=0.05)
    assert not report.hypothesis_met
    assert report.effective_eps == pytest.approx(0.2, abs=1e-12)
    # the check falls back to the measured deviation
    assert report.bound == pytest.approx(241.0 * 0.2)
    assert report.holds


def test_two_axis_bound_input_validation():
    g = identity(1)
    with pytest.raises(ValueError):
        check_two_axis_identity_bound(g, (0, 0, 2), (1, 0, 0), eps=0.1)
    with pytest.raises(ValueError):
        check_two_axis_identity_bound(g, (0, 0, 1), (0, 0, 1), eps=0.1)
    with pytest.raises(ValueError):
        check_two_axis_identity_bound(transpose_map(), (0, 0, 1), (1, 0, 0), eps=0.1)
    with pytest.raises(ValueError):
        check_two_axis_identity_bound(identity(2), (0, 0, 1), (1, 0, 0), eps=0.1)


# ---------------------------------------------------------------------------
# the sqrt-law chain


def angle_gap(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def test_chain_probe_exact_member():
    for phi in (0.0, 2.2):
        report = hadamard_robustness_probe(hadamard(phi))
        assert report.eps <= 1e-12
        assert angle_gap(report.phi, phi) <= 1e-7
        assert report.all_hold
        names = [link.name for link in report.links]
        assert names == ["equator_image", "four_state_undo", "member_distance"]
        for link in report.links:
            assert link.value <= 2e-3


def test_chain_probe_depolarized_member():
    g = apply_noise(hadamard(0.9), NoiseModel("depolarize", 0.01))
    report = hadamard_robustness_probe(g)
    assert report.eps == pytest.approx(0.01 - 0.5 * 0.01**2, abs=1e-9)
    assert report.all_hold
    # the reported member longitude tracks the noiseless gate
    assert abs(report.phi - 0.9) <= 1e-6
    by_name = {link.name: link for link in report.links}
    assert by_name["member_distance"].value == pytest.approx(0.01, abs=1e-5)
    assert by_name["member_distance"].bound == pytest.approx(
        4579.0 * math.sqrt(report.eps)
    )


def test_chain_probe_overrotated_member():
    g = apply_noise(hadamard(0.3), NoiseModel("overrotate", 0.15))
    report = hadamard_robustness_probe(g)
    assert report.eps > 1e-4
    assert report.all_hold


def test_chain_probe_rejects_two_qubits():
    with pytest.raises(ValueError):
        hadamard_robustness_probe(identity(2))
