import math

import numpy as np
import pytest

from gateselftest import (
    Channel,
    DensityMatrix,
    NoiseModel,
    apply_noise,
    cnot,
    compose,
    from_kraus,
    from_unitary,
    gate_from_spec,
    hadamard,
    identity,
    measurement,
    not_gate,
    phase_gate,
    power,
    rank_one_sample_max,
    rotation_gate,
    rotation_unitary,
    standard_gate,
    sup_norm_report,
    tensor,
    tensor_channels,
    to_bloch,
    trace_norm,
    transpose_map,
    zeta,
    zeta_states,
)
from gateselftest.bloch import affine_of_channel
from gateselftest.channel import (
    MAX_SPEC_QUBITS,
    NOISE_KINDS,
    SPREAD_FLAG_TOL,
    phase_orbit,
    phased,
)

from helpers import (
    choi_of_kraus,
    random_cptp,
    random_density_matrix_pair,
    random_kraus_set,
    random_noncp_map,
    random_unitary,
    reference_apply,
)


# ---------------------------------------------------------------------------
# construction and conventions


def test_identity_channel():
    g = identity(1)
    assert g.is_cp and g.is_tp
    assert np.real(np.trace(g.choi)) == pytest.approx(2.0)
    rho = zeta("x", +1)
    assert np.allclose(g.apply(rho).matrix, rho.matrix)


def test_choi_layout_input_factor_first():
    # choi = sum_ij |i><j| (x) G(|i><j|), built here by explicit loops
    rng = np.random.default_rng(20)
    u = random_unitary(rng, 2)
    g = from_unitary(u)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            expected += np.kron(unit, u @ unit @ u.conj().T)
    assert np.abs(g.choi - expected).max() <= 1e-12


def test_from_kraus_matches_reference_choi():
    rng = np.random.default_rng(21)
    kraus = random_kraus_set(rng, 2, 3)
    g = from_kraus(kraus)
    assert g.is_cp and g.is_tp
    assert np.abs(g.choi - choi_of_kraus(kraus)).max() <= 1e-12


def test_apply_matches_choi_contraction():
    rng = np.random.default_rng(22)
    for n in (1, 2):
        g = random_cptp(rng, n=n)
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        assert np.abs(g.apply_matrix(m) - reference_apply(g, m)).max() <= 1e-12


def test_transfer_roundtrip():
    rng = np.random.default_rng(23)
    g = random_cptp(rng, n=1)
    h = Channel(compose(g, identity(1)).choi)
    assert g.is_close(h)


def test_from_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        from_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        from_unitary(np.ones((2, 3)))


def test_non_finite_matrices_are_value_errors():
    nan = np.full((2, 2), np.nan)
    with pytest.raises(ValueError, match="finite"):
        from_unitary(nan)
    with pytest.raises(ValueError, match="finite"):
        from_unitary(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        from_kraus([np.eye(2), nan])


def test_from_unitary_ignores_global_phase():
    u = rotation_unitary(1.2, 0.5, 0.7)
    assert from_unitary(u).is_close(from_unitary(np.exp(0.9j) * u))


def test_from_kraus_requires_completeness():
    with pytest.raises(ValueError):
        from_kraus([np.eye(2) * 0.5])
    with pytest.raises(ValueError):
        from_kraus([])


def test_channel_shape_errors():
    with pytest.raises(ValueError):
        Channel(np.eye(3))
    with pytest.raises(ValueError):
        Channel(np.ones((4, 2)))


# ---------------------------------------------------------------------------
# flags


def test_cp_tp_flags():
    t = transpose_map()
    assert not t.is_cp
    assert t.is_tp
    assert t.choi_min_eig == pytest.approx(-1.0, abs=1e-12)
    m = measurement(1)
    assert m.is_cp and m.is_tp
    halved = Channel(0.5 * identity(1).choi)
    assert halved.is_cp and not halved.is_tp


def test_random_noncp_maps_are_flagged():
    rng = np.random.default_rng(24)
    flags = [random_noncp_map(rng).is_cp for _ in range(20)]
    assert not any(flags)


def test_cp_tp_closed_under_algebra():
    rng = np.random.default_rng(25)
    for _ in range(20):
        g, h = random_cptp(rng, n=1), random_cptp(rng, n=1)
        for built in (compose(g, h), tensor_channels(g, h), power(g, 3)):
            assert built.is_cp and built.is_tp


def test_contractivity_in_trace_norm():
    rng = np.random.default_rng(26)
    for _ in range(200):
        g = random_cptp(rng, n=1)
        a, b = random_density_matrix_pair(rng, 1)
        before = trace_norm(a.matrix - b.matrix)
        after = trace_norm(g.apply(a).matrix - g.apply(b).matrix)
        assert after <= before + 1e-10


# ---------------------------------------------------------------------------
# composition semantics


def test_compose_applies_right_factor_first():
    g = compose(measurement(1), hadamard(0.0))  # measure after H
    out = g.apply(DensityMatrix.basis("0"))
    assert np.allclose(out.matrix, np.eye(2) / 2.0)
    other = compose(hadamard(0.0), measurement(1))  # H after measure
    out2 = other.apply(DensityMatrix.basis("0"))
    assert np.abs(out2.matrix - hadamard(0.0).apply(DensityMatrix.basis("0")).matrix).max() <= 1e-12


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(27)
    g, h = random_cptp(rng, n=1), random_cptp(rng, n=1)
    rho = zeta("y", +1)
    assert np.abs(
        compose(g, h).apply(rho).matrix - g.apply(h.apply(rho)).matrix
    ).max() <= 1e-12


def test_power_semantics():
    g = phase_gate(0.3)
    assert power(g, 0).is_close(identity(1))
    assert power(g, 4).is_close(phase_gate(1.2))
    with pytest.raises(ValueError):
        power(g, -1)


def test_tensor_channels_factorises():
    rng = np.random.default_rng(28)
    g, h = random_cptp(rng, n=1), random_cptp(rng, n=1)
    a, b = zeta("x", +1), zeta("z", -1)
    joint = tensor_channels(g, h).apply(tensor(a, b))
    expected = tensor(g.apply(a), h.apply(b))
    assert np.abs(joint.matrix - expected.matrix).max() <= 1e-12


def test_compose_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(identity(1), identity(2))


# ---------------------------------------------------------------------------
# standard gates


def test_hadamard_involution_and_action():
    for phi in (0.0, 1.3):
        h = hadamard(phi)
        assert compose(h, h).is_close(identity(1))
        ball = to_bloch(h.apply(DensityMatrix.basis("0")))
        assert np.abs(ball - [math.cos(phi), math.sin(phi), 0.0]).max() <= 1e-12


def test_not_gate_swaps_poles():
    g = not_gate(0.7)
    assert np.allclose(g.apply(DensityMatrix.basis("0")).matrix, DensityMatrix.basis("1").matrix)
    assert compose(g, g).is_close(identity(1))


def test_phase_gate_matrix():
    g = phase_gate(0.9)
    u = np.diag([1.0, np.exp(0.9j)])
    assert g.is_close(from_unitary(u))
    assert g.axis == (0.0, 0.0)


def test_cnot_truth_table():
    g = cnot(0.0)
    for w, v in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        out = g.apply(DensityMatrix.basis(w))
        assert out.matrix[int(v, 2), int(v, 2)] == pytest.approx(1.0)


def test_cnot_phase_twist_is_unobservable_on_basis():
    # twisted target: same truth table, different coherences
    g = cnot(1.1)
    for w, v in (("10", "11"), ("11", "10")):
        out = g.apply(DensityMatrix.basis(w))
        assert out.matrix[int(v, 2), int(v, 2)] == pytest.approx(1.0)
    assert not g.is_close(cnot(0.0))


def test_measurement_kills_coherence():
    m = measurement(1)
    out = m.apply(zeta("x", +1))
    assert np.allclose(out.matrix, np.eye(2) / 2.0)
    m2 = measurement(2)
    rho = DensityMatrix.from_statevector(np.full(4, 0.5))
    assert np.allclose(m2.apply(rho).matrix, np.eye(4) / 4.0)


def test_gate_axis_metadata():
    assert hadamard(0.4).axis == (math.pi / 4.0, 0.4)
    assert not_gate(0.2).axis == (math.pi / 2.0, 0.2)
    assert rotation_gate(1.0, 0.8, 0.3).axis == (0.8, 0.3)
    assert cnot(0.0).axis is None


def test_standard_gate_dispatch():
    assert standard_gate("hadamard", phi=0.5).is_close(hadamard(0.5))
    assert standard_gate("measurement", n=2).n == 2
    with pytest.raises(ValueError):
        standard_gate("toffoli")


# ---------------------------------------------------------------------------
# noise models


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("cosmic", 0.1)
    with pytest.raises(ValueError):
        NoiseModel("depolarize", -0.2)
    with pytest.raises(ValueError):
        NoiseModel("depolarize", 1.5)
    with pytest.raises(ValueError):
        NoiseModel("overrotate", 7.0)
    with pytest.raises(ValueError):
        NoiseModel("phase_drift", math.nan)


def test_zero_strength_noise_is_identity():
    g = hadamard(0.2)
    for kind in ("depolarize", "overrotate", "phase_drift", "amplitude_damp"):
        assert apply_noise(g, NoiseModel(kind, 0.0)).is_close(g)


def test_depolarize_mixes_towards_maximally_mixed():
    lam = 0.25
    g = apply_noise(identity(1), NoiseModel("depolarize", lam))
    out = g.apply(DensityMatrix.basis("0"))
    expected = (1 - lam) * DensityMatrix.basis("0").matrix + lam * np.eye(2) / 2.0
    assert np.abs(out.matrix - expected).max() <= 1e-12


def test_pauli_twirl_bloch_scale():
    # uniform Pauli errors with probability lam shrink the ball by 1 - 4 lam / 3
    lam = 0.3
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    g = from_kraus(
        [math.sqrt(1 - lam) * np.eye(2)]
        + [math.sqrt(lam / 3.0) * p for p in (x, y, z)]
    )
    affine = affine_of_channel(g)
    assert np.abs(affine.linear - (1 - 4 * lam / 3.0) * np.eye(3)).max() <= 1e-12


def test_overrotate_extends_rotation_angle():
    delta = 0.3
    g = apply_noise(hadamard(0.6), NoiseModel("overrotate", delta))
    assert g.is_close(rotation_gate(math.pi + delta, math.pi / 4.0, 0.6))
    assert g.axis == (math.pi / 4.0, 0.6)


def test_overrotate_without_axis_falls_back_to_phase():
    g = apply_noise(cnot(0.0), NoiseModel("overrotate", 0.2))
    assert g.is_cp and g.is_tp
    expected = compose(
        tensor_channels(phase_gate(0.2), phase_gate(0.2)), cnot(0.0)
    )
    assert g.is_close(expected)


def test_phase_drift_shifts_hadamard_longitude():
    s = 0.45
    g = apply_noise(hadamard(0.3), NoiseModel("phase_drift", s))
    assert g.is_close(hadamard(0.3 + s))
    assert g.axis == (math.pi / 4.0, 0.3 + s)


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_every_noise_kind_keeps_the_axis(kind):
    s = 0.2
    g = apply_noise(hadamard(0.3), NoiseModel(kind, s))
    shift = s if kind == "phase_drift" else 0.0
    assert g.axis == (math.pi / 4.0, 0.3 + shift)


def test_depolarize_and_overrotate_commute():
    # Depolarising commutes with every unitary, so the order of the two noise
    # entries must not matter: both overrotate about H's own axis.
    gate = hadamard(0.3)
    dep, over = NoiseModel("depolarize", 0.05), NoiseModel("overrotate", 0.2)
    first = apply_noise(apply_noise(gate, dep), over)
    second = apply_noise(apply_noise(gate, over), dep)
    assert first.is_close(second)
    assert first.is_close(apply_noise(rotation_gate(math.pi + 0.2, math.pi / 4.0, 0.3), dep))


def test_phase_drift_fixes_diagonal_gates():
    g = apply_noise(phase_gate(0.8), NoiseModel("phase_drift", 1.0))
    assert g.is_close(phase_gate(0.8))


@pytest.mark.parametrize("phi", [0.0, 0.4, 2.5, -1.3, 6.0])
def test_phase_orbit_reproduces_the_builders(phi):
    # Conjugating a gate built at phi = 0 by diag(e^{i phi w}), w the Hamming
    # weight on the listed qubits, gives the builder's gate at phi.
    cases = [
        (hadamard(0.0), (0,), hadamard(phi)),
        (not_gate(0.0), (0,), not_gate(phi)),
        (rotation_gate(math.pi / 3.0, 0.7, 0.0), (0,), rotation_gate(math.pi / 3.0, 0.7, phi)),
        (cnot(0.0), (1,), cnot(phi)),
    ]
    for gate, qubits, expected in cases:
        member = phased(gate, qubits, phi)
        assert member.is_close(expected, tol=1e-14)
        assert member.axis == expected.axis
        orbit = phase_orbit(gate, qubits, [0.3, phi])
        assert np.array_equal(orbit[1], member.transfer)


def _drift_sandwich(gate, s):
    fwd, back = phase_gate(s), phase_gate(-s)
    for _ in range(gate.n - 1):
        fwd, back = tensor_channels(fwd, phase_gate(s)), tensor_channels(back, phase_gate(-s))
    return compose(fwd, compose(gate, back))


@pytest.mark.parametrize(
    "gate",
    [
        hadamard(0.3),
        rotation_gate(1.1, 0.6, 2.0),
        random_cptp(np.random.default_rng(41), n=1),
        cnot(0.4),
        random_cptp(np.random.default_rng(42), n=2),
    ],
    ids=["hadamard", "rotation", "cptp-1", "cnot", "cptp-2"],
)
def test_phase_drift_is_the_per_qubit_phase_sandwich(gate):
    # phase_drift conjugates every qubit by phase(s): the same channel as
    # composing phase(s)^{(x) n} after the gate and phase(-s)^{(x) n} before it.
    s = 0.45
    noisy = apply_noise(gate, NoiseModel("phase_drift", s))
    assert np.abs(noisy.choi - _drift_sandwich(gate, s).choi).max() <= 1e-14
    assert noisy.axis == (None if gate.axis is None else (gate.axis[0], gate.axis[1] + s))


def test_amplitude_damp_fixed_point_and_decay():
    s = 0.4
    g = apply_noise(identity(1), NoiseModel("amplitude_damp", s))
    zero, one = DensityMatrix.basis("0"), DensityMatrix.basis("1")
    assert np.abs(g.apply(zero).matrix - zero.matrix).max() <= 1e-12
    out = g.apply(one)
    assert out.matrix[1, 1] == pytest.approx(1 - s)
    assert out.matrix[0, 0] == pytest.approx(s)


def test_noise_on_two_qubit_gates_acts_per_qubit():
    g = apply_noise(cnot(0.0), NoiseModel("amplitude_damp", 0.2))
    assert g.n == 2 and g.is_cp and g.is_tp


# ---------------------------------------------------------------------------
# superoperator norm


def test_sup_norm_of_difference_transpose_identity():
    report = sup_norm_report(transpose_map(), identity(1))
    assert report.value == pytest.approx(2.0, abs=1e-9)
    assert report.converged
    assert report.spread <= 1e-6


def test_sup_norm_depolarize_distance_is_strength():
    for lam in (0.05, 0.1, 0.5):
        g = apply_noise(hadamard(0.0), NoiseModel("depolarize", lam))
        assert sup_norm_report(g, hadamard(0.0)).value == pytest.approx(lam, abs=1e-9)


def test_sup_norm_of_cptp_channel_is_one():
    rng = np.random.default_rng(30)
    for _ in range(5):
        g = random_cptp(rng, n=1)
        assert sup_norm_report(g).value == pytest.approx(1.0, abs=1e-9)


def test_phase_gate_distance_to_identity():
    # closed form: || diag(1, e^{i d}) conjugation - id || = 2 sin(d/2)
    for d in (0.3, 1.0, 2.0):
        assert sup_norm_report(phase_gate(d), identity(1)).value == pytest.approx(
            2.0 * math.sin(d / 2.0), abs=1e-9
        )


def test_sup_norm_symmetry():
    rng = np.random.default_rng(31)
    g, h = random_cptp(rng, n=1), random_cptp(rng, n=1)
    assert sup_norm_report(g, h).value == pytest.approx(sup_norm_report(h, g).value, abs=1e-9)


def test_sup_norm_triangle_inequality():
    rng = np.random.default_rng(32)
    g, h, k = (random_cptp(rng, n=1) for _ in range(3))
    gk = sup_norm_report(g, k).value
    assert gk <= sup_norm_report(g, h).value + sup_norm_report(h, k).value + 2e-3


def test_sup_norm_invariant_under_unitary_postcomposition():
    rng = np.random.default_rng(33)
    g, h = random_cptp(rng, n=1), random_cptp(rng, n=1)
    u = from_unitary(random_unitary(rng, 2))
    before = sup_norm_report(g, h).value
    after = sup_norm_report(compose(u, g), compose(u, h)).value
    assert after == pytest.approx(before, abs=2e-3)


def test_sup_norm_beats_independent_sampling():
    rng = np.random.default_rng(34)
    for _ in range(3):
        g, h = random_cptp(rng, n=1), random_cptp(rng, n=1)
        optimised = sup_norm_report(g, h).value
        sampled = rank_one_sample_max(g, h, samples=20000, seed=rng.integers(1 << 31))
        assert optimised >= sampled - 1e-6


def test_sup_norm_zero_for_equal_channels():
    g = hadamard(0.9)
    report = sup_norm_report(g, g)
    assert report.value == 0.0
    assert report.converged
    assert report.u is None and report.v is None


def test_sup_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        sup_norm_report(identity(1), identity(2))


def test_two_antipodal_fixed_states_leave_norm_large():
    # a strong phase gate fixes both poles yet sits far from the identity,
    # so fixing one axis alone cannot certify a channel
    g = phase_gate(1.0)
    for pole in (DensityMatrix.basis("0"), DensityMatrix.basis("1")):
        assert np.abs(g.apply(pole).matrix - pole.matrix).max() <= 1e-12
    assert sup_norm_report(g, identity(1)).value >= 0.9


def test_two_qubit_sup_norm():
    assert sup_norm_report(cnot(0.0), identity(2)).value >= 1.0
    assert sup_norm_report(cnot(0.0), cnot(0.0)).value == 0.0


def test_two_qubit_maximiser_reproduces_value():
    # pins the 4x4 kernel layout: the reported (u, v) must attain the value
    # when evaluated through the channels' own action
    rng = np.random.default_rng(36)
    for _ in range(3):
        g, h = random_cptp(rng, n=2), random_cptp(rng, n=2)
        report = sup_norm_report(g, h)
        x = np.outer(report.u, report.v.conj())
        image = g.apply_matrix(x) - h.apply_matrix(x)
        value = np.linalg.svd(image, compute_uv=False).sum()
        assert abs(value - report.value) <= 1e-12


def test_two_qubit_sup_norm_beats_independent_sampling():
    rng = np.random.default_rng(37)
    for _ in range(3):
        g, h = random_cptp(rng, n=2), random_cptp(rng, n=2)
        optimised = sup_norm_report(g, h).value
        sampled = rank_one_sample_max(g, h, samples=20000, seed=rng.integers(1 << 31))
        assert optimised >= sampled - 1e-6


# ---------------------------------------------------------------------------
# six-state rigidity (exact version)


def test_six_axis_states_control_distance_to_identity():
    # the six axis states pin a channel down: its distance to the identity is
    # at most eight times the largest distance any of them moves
    rng = np.random.default_rng(35)
    for _ in range(100):
        g = random_cptp(rng, n=1)
        eps = max(
            trace_norm(g.apply_matrix(s.matrix) - s.matrix) for s in zeta_states()
        )
        assert sup_norm_report(g, identity(1)).value <= 8.0 * eps + 2e-3


# ---------------------------------------------------------------------------
# JSON gate specs


def test_gate_from_spec_standard():
    g = gate_from_spec({"kind": "hadamard", "params": {"phi": "pi/2"}})
    assert g.is_close(hadamard(math.pi / 2.0))


def test_gate_from_spec_param_named_label():
    # a parameter named like standard_gate's own argument is an unknown
    # parameter (ValueError), not a clash of arguments (TypeError)
    with pytest.raises(ValueError, match="'label'"):
        gate_from_spec({"kind": "hadamard", "params": {"phi": 0.3, "label": "x"}})


def test_gate_from_spec_unitary_matrix():
    u = rotation_unitary(0.8, 0.6, 0.4)
    entries = [[[float(u[i, j].real), float(u[i, j].imag)] for j in range(2)] for i in range(2)]
    g = gate_from_spec({"kind": "unitary", "params": {"matrix": entries}})
    assert g.is_close(from_unitary(u))


def test_gate_from_spec_kraus_and_noise():
    spec = {
        "kind": "kraus",
        "params": {
            "operators": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            ]
        },
        "noise": [{"kind": "depolarize", "strength": 0.1}],
    }
    g = gate_from_spec(spec)
    assert g.is_cp and g.is_tp
    expected = apply_noise(measurement(1), NoiseModel("depolarize", 0.1))
    assert g.is_close(expected)


def test_gate_from_spec_errors():
    with pytest.raises(ValueError):
        gate_from_spec({"params": {}})
    with pytest.raises(ValueError):
        gate_from_spec({"kind": "unitary", "params": {"matrix": [[1.0, 0.0]]}})
    with pytest.raises(ValueError):
        gate_from_spec("hadamard")


def test_gate_from_spec_caps_qubit_count():
    # each spec is one qubit over the cap; the check runs before any
    # Choi matrix is built
    over = MAX_SPEC_QUBITS + 1
    side = 2**over
    eye = [[[1.0 if i == j else 0.0, 0.0] for j in range(side)] for i in range(side)]
    specs = [
        {"kind": "measurement", "params": {"n": over}},
        {"kind": "unitary", "params": {"matrix": eye}},
        {"kind": "kraus", "params": {"operators": [eye]}},
    ]
    for spec in specs:
        with pytest.raises(ValueError):
            gate_from_spec(spec)
    assert gate_from_spec({"kind": "measurement", "params": {"n": 2}}).n == 2


# ---------------------------------------------------------------------------
# 2 x 2 closed-form polar factor and the grouped ascent


def _two_by_two_cases():
    rng = np.random.default_rng(41)

    def ginibre():
        return rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    def vec():
        return rng.normal(size=2) + 1j * rng.normal(size=2)

    cases = [("random", ginibre()) for _ in range(20)]
    cases += [("rank-one", np.outer(vec(), vec().conj())) for _ in range(20)]
    cases += [
        ("near-singular", np.outer(vec(), vec().conj()) + scale * ginibre())
        for scale in (1e-6, 1e-9, 1e-12, 1e-15)
    ]
    cases += [("diagonal rank-one", np.diag([0.7, 0.0]).astype(complex))]
    return cases


@pytest.mark.parametrize("label, m", _two_by_two_cases())
def test_closed_form_polar_factor_matches_svd(label, m):
    from gateselftest.channel import _polar

    t, w = _polar(m[None])
    t, w = float(t[0]), w[0]
    sing = np.linalg.svd(m, compute_uv=False)
    assert abs(t - sing.sum()) <= 1e-14 * sing.sum()
    assert np.abs(w.conj().T @ w - np.eye(2)).max() <= 1e-14
    p = w.conj().T @ m
    assert np.abs(p - p.conj().T).max() <= 1e-14 * sing.sum()
    assert np.linalg.eigvalsh((p + p.conj().T) / 2.0).min() >= -1e-14 * sing.sum()


def test_closed_form_polar_factor_of_zero_is_finite():
    from gateselftest.channel import _polar

    t, w = _polar(np.zeros((3, 2, 2), dtype=complex))
    assert (t == 0.0).all()
    assert np.isfinite(w).all()
    assert np.abs(w.conj().transpose(0, 2, 1) @ w - np.eye(2)).max() <= 1e-14


def test_closed_form_trace_norm_matches_svd_within_four_ulps():
    # The ascent's exit values on 2 x 2 images: the closed form that its polar
    # steps use, not an SVD.
    from gateselftest.channel import _polar, _trace_norm_batch, _two_by_two

    stack = np.stack([m for _, m in _two_by_two_cases()] + [np.zeros((2, 2), complex)])
    norms = _trace_norm_batch(stack)
    assert norms.tolist() == _two_by_two(stack)[0].tolist() == _polar(stack)[0].tolist()
    reference = np.linalg.svd(stack, compute_uv=False).sum(axis=-1)
    assert (np.abs(norms - reference) <= 4 * np.spacing(reference)).all()
    assert norms[-1] == 0.0


def test_ascent_starts_are_built_once_per_key_and_read_only():
    from gateselftest.channel import _ascent_starts

    assert _ascent_starts.cache_info().maxsize is not None
    for key in [(2, 16, 0), (4, 64, 7)]:
        u, v = _ascent_starts(*key)
        again = _ascent_starts(*key)
        assert again[0] is u and again[1] is v
        assert not u.flags.writeable and not v.flags.writeable
        built = _ascent_starts.__wrapped__(*key)
        assert np.array_equal(built[0], u) and np.array_equal(built[1], v)
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


def _polar_calls(monkeypatch, fn, *args, **kwargs):
    """fn's result and the number of polar steps (ascent iterations) it made."""
    from gateselftest import channel

    count = [0]
    polar = channel._polar

    def counted(m):
        count[0] += 1
        return polar(m)

    monkeypatch.setattr(channel, "_polar", counted)
    result = fn(*args, **kwargs)
    monkeypatch.setattr(channel, "_polar", polar)
    return result, count[0]


def _iterations(monkeypatch, g, h, starts, **search):
    """Ascent iterations of one per-call evaluation (one polar step each)."""
    return _polar_calls(monkeypatch, sup_norm_report, g, h, starts=starts, **search)[1]


def test_grouped_values_equal_per_call_values_bit_for_bit(monkeypatch):
    from gateselftest import channel
    from gateselftest.channel import ASCENT_MAX_ITER, sup_norm_values

    phi0, starts, seed = 0.7, 16, 5
    quick = apply_noise(hadamard(phi0), NoiseModel("depolarize", 0.03))
    capped = apply_noise(hadamard(phi0), NoiseModel("amplitude_damp", 0.05))
    # The stack mixes groups that stop early, groups at the iteration cap and
    # a zero difference (the exact member at phi0).
    phis = [phi0] + [j * 2.0 * math.pi / 12 for j in range(12)]
    assert _iterations(monkeypatch, quick, hadamard(phis[4]), starts) < ASCENT_MAX_ITER
    assert _iterations(monkeypatch, capped, hadamard(phis[4]), starts) == ASCENT_MAX_ITER
    pairs = [(g, hadamard(phi)) for phi in phis for g in (quick, capped, hadamard(phi0))]
    per_call = [sup_norm_report(g, h, starts=starts, seed=seed).value for g, h in pairs]
    assert per_call[2] == 0.0
    deltas = np.stack([g.transfer - h.transfer for g, h in pairs])
    for block in (1, 7, 16, len(pairs)):
        monkeypatch.setattr(channel, "GRID_BLOCK", block)
        assert sup_norm_values(deltas, starts=starts, seed=seed).tolist() == per_call, block


def test_a_two_qubit_ascent_stops_once_its_best_value_is_still(monkeypatch):
    # A depolarised CNOT against a member near its phi (a bench check's
    # search step): starts far below the best are still climbing at the cap,
    # while the best value settled long before.
    from gateselftest import channel
    from gateselftest.channel import ASCENT_MAX_ITER

    phi, lam = 0.2948151930016114, 0.04951068206585504
    g = apply_noise(cnot(phi), NoiseModel("depolarize", lam))
    h = cnot(phi + 0.01)
    stopped = _iterations(monkeypatch, g, h, 16)
    value = sup_norm_report(g, h, starts=16).value
    monkeypatch.setattr(channel, "ASCENT_STILL_ITER", ASCENT_MAX_ITER + 1)
    assert _iterations(monkeypatch, g, h, 16) == ASCENT_MAX_ITER
    assert stopped < ASCENT_MAX_ITER
    assert abs(value - sup_norm_report(g, h, starts=16).value) <= 1e-12


def test_a_still_stop_waits_for_the_best_starts_to_agree(monkeypatch):
    # CNOT against the 2-qubit measurement: the best value is still long
    # before the top decile of starts comes within SPREAD_FLAG_TOL of it.  The
    # group waits for them, so the report is converged, as the full ascent's is.
    from gateselftest.channel import ASCENT_MAX_ITER

    g, h = cnot(0.2), measurement(2)
    assert _iterations(monkeypatch, g, h, 64) < ASCENT_MAX_ITER
    report = sup_norm_report(g, h)
    assert report.converged and report.spread <= SPREAD_FLAG_TOL
    assert abs(report.value - 2.0) <= 1e-12


@pytest.mark.parametrize("block", [16, 5, 1])
def test_grid_block_bounds_every_ascent_stack(monkeypatch, block):
    # The stack's peak memory is bounded by GRID_BLOCK rows per ascent, and
    # zero differences skip the ascent.
    from gateselftest import channel

    sizes = []
    ascent = channel._ascent

    def recorded(delta, starts, seed):
        sizes.append(len(delta))
        return ascent(delta, starts, seed)

    monkeypatch.setattr(channel, "_ascent", recorded)
    monkeypatch.setattr(channel, "GRID_BLOCK", block)
    phis = np.arange(256) * 2.0 * math.pi / 256
    noisy = apply_noise(hadamard(phis[3]), NoiseModel("depolarize", 0.05))
    deltas = noisy.transfer - phase_orbit(hadamard(0.0), (0,), phis)
    zero = np.zeros(256, dtype=bool)
    zero[::17] = True
    deltas[zero] = 0.0
    values = channel.sup_norm_values(deltas, starts=2)
    assert max(sizes) <= block
    assert sum(sizes) == 256 - zero.sum()
    assert (values[zero] == 0.0).all()
    assert (values[~zero] > 0.0).all()


def test_grouped_values_of_an_empty_stack():
    from gateselftest.channel import sup_norm_values

    assert sup_norm_values(np.zeros((0, 4, 4), dtype=complex)).shape == (0,)


# ---------------------------------------------------------------------------
# ascents stopped at a ceiling


def _grid_stack():
    # Grid differences of a gate whose groups stop early (depolarize) and of
    # one whose groups run to the iteration cap (amplitude_damp), with zero
    # rows among them.
    phis = np.arange(48) * 2.0 * math.pi / 48
    orbit = phase_orbit(hadamard(0.0), (0,), phis)
    quick = apply_noise(hadamard(0.7), NoiseModel("depolarize", 0.03))
    capped = apply_noise(hadamard(0.7), NoiseModel("amplitude_damp", 0.05))
    deltas = np.concatenate([capped.transfer - orbit, quick.transfer - orbit])
    deltas[::13] = 0.0
    return deltas


@pytest.mark.parametrize("floor_kind", ["zero", "random", "grid"])
def test_floored_values_keep_the_argmin(monkeypatch, floor_kind):
    from gateselftest.channel import sup_norm_values

    deltas = _grid_stack()
    plain, plain_steps = _polar_calls(monkeypatch, sup_norm_values, deltas, starts=16)
    rng = np.random.default_rng(15)
    floor = {
        "zero": np.zeros(len(deltas)),
        "random": rng.uniform(0.0, 0.8 * plain.max(), len(deltas)),
        "grid": np.roll(plain, 7),
    }[floor_kind]
    values, steps = _polar_calls(
        monkeypatch, sup_norm_values, deltas, starts=16, floor=floor
    )
    objective = np.maximum(floor, plain)
    least = objective.min()
    same = values == plain
    # Every entry is the plain value bit for bit, or it lies above the least
    # objective value, as the plain value does.
    assert (np.maximum(floor, values)[~same] > least).all()
    assert (objective[~same] > least).all()
    assert np.argmin(np.maximum(floor, values)) == np.argmin(objective)
    assert np.maximum(floor, values).min() == least
    assert not same.all() and steps < plain_steps


def test_a_flat_stack_never_stops():
    # Hadamard members against a measurement: the norm is the same at every
    # phi, so every group ties the ceiling and none may stop.
    from gateselftest.channel import sup_norm_values

    phis = np.arange(32) * 2.0 * math.pi / 32
    deltas = measurement(1).transfer - phase_orbit(hadamard(0.0), (0,), phis)
    plain = sup_norm_values(deltas, starts=16)
    floored = sup_norm_values(deltas, starts=16, floor=np.zeros(len(phis)))
    assert floored.tolist() == plain.tolist()


def test_report_stops_above_its_ceiling(monkeypatch):
    g = apply_noise(hadamard(0.7), NoiseModel("amplitude_damp", 0.05))
    h = hadamard(2.0)
    full = sup_norm_report(g, h, starts=16)
    for ceiling in (math.inf, full.value):
        # No ceiling, or one the ascent only ties: the full report, bit for bit.
        same = sup_norm_report(g, h, starts=16, ceiling=ceiling)
        assert (same.value, same.spread, same.converged) == (
            full.value,
            full.spread,
            full.converged,
        )
        assert (same.u == full.u).all() and (same.v == full.v).all()
    # Stopped far below the value, and so close to it that the starts agree:
    # either way the report is not a certificate.
    for ceiling in (0.5 * full.value, (1.0 - 1e-6) * full.value):
        cut = sup_norm_report(g, h, starts=16, ceiling=ceiling)
        assert cut.value > ceiling
        assert not cut.converged
        stopped = _iterations(monkeypatch, g, h, 16, ceiling=ceiling)
        assert stopped < _iterations(monkeypatch, g, h, 16)
    assert cut.spread <= SPREAD_FLAG_TOL
