import math

import numpy as np
import pytest

from gateselftest import (
    DensityMatrix,
    NumericsError,
    epr_decomposition_residual,
    epr_state,
    measure_prob,
    random_density_matrix,
    rho_of,
    tensor,
    trace_norm,
    zeta,
    zeta_states,
)

from helpers import reference_trace_norm


def random_state_params(rng):
    """Draw (p, alpha) with |alpha|^2 <= p(1-p)."""
    p = rng.uniform(0.0, 1.0)
    radius = math.sqrt(p * (1.0 - p)) * rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return p, radius * complex(math.cos(phase), math.sin(phase))


def test_rho_of_layout():
    rho = rho_of(0.7, 0.1 + 0.2j)
    assert rho.matrix[0, 0] == pytest.approx(0.7)
    assert rho.matrix[1, 1] == pytest.approx(0.3)
    # the coherence parameter is the lower-left entry
    assert rho.matrix[1, 0] == 0.1 + 0.2j
    assert rho.matrix[0, 1] == 0.1 - 0.2j


def test_rho_of_pure_boundary():
    # |alpha|^2 = p(1-p) is allowed and gives a pure state
    p = 0.3
    alpha = math.sqrt(p * (1.0 - p))
    assert rho_of(p, alpha).is_pure()
    assert not rho_of(p, 0.0).is_pure()


def test_rho_of_rejects_invalid():
    with pytest.raises(ValueError):
        rho_of(1.2, 0.0)
    with pytest.raises(ValueError):
        rho_of(0.5, 0.6)  # |alpha|^2 = 0.36 > 0.25


def test_trace_norm_matches_closed_form():
    # ||rho(p,a) - rho(q,b)||_1 = 2 sqrt((p-q)^2 + |a-b|^2)
    rng = np.random.default_rng(1)
    for _ in range(200):
        p, a = random_state_params(rng)
        q, b = random_state_params(rng)
        diff = rho_of(p, a).matrix - rho_of(q, b).matrix
        expected = 2.0 * math.sqrt((p - q) ** 2 + abs(a - b) ** 2)
        assert trace_norm(diff) == pytest.approx(expected, abs=1e-10)


def test_trace_norm_agrees_with_reference_svd():
    rng = np.random.default_rng(2)
    for dim in (2, 4):
        for _ in range(20):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            assert trace_norm(m) == pytest.approx(reference_trace_norm(m), abs=1e-10)


def test_trace_norm_multiplicative_under_kron():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert trace_norm(np.kron(a, b)) == pytest.approx(
            trace_norm(a) * trace_norm(b), abs=1e-10
        )


def test_trace_dominates_trace_norm():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(np.trace(m)) <= trace_norm(m) + 1e-12


def test_basis_states():
    rho = DensityMatrix.basis("10")
    assert rho.n == 2
    assert rho.matrix[2, 2] == 1.0
    assert np.count_nonzero(rho.matrix) == 1
    with pytest.raises(ValueError):
        DensityMatrix.basis("102")
    with pytest.raises(ValueError):
        DensityMatrix.basis("")


def test_measure_prob():
    rho = DensityMatrix.basis("01")
    assert measure_prob(rho, "01") == 1.0
    assert measure_prob(rho, "00") == 0.0
    with pytest.raises(ValueError):
        measure_prob(rho, "0")
    with pytest.raises(ValueError):
        measure_prob(rho, "0x")


def test_from_statevector_checks_norm():
    with pytest.raises(ValueError):
        DensityMatrix.from_statevector([1.0, 1.0])
    rho = DensityMatrix.from_statevector([1.0 / math.sqrt(2)] * 2)
    assert rho.is_pure()


def test_tensor_of_states():
    a = DensityMatrix.basis("0")
    b = zeta("x", +1)
    joint = tensor(a, b)
    assert isinstance(joint, DensityMatrix)
    assert joint.n == 2
    assert np.allclose(joint.matrix, np.kron(a.matrix, b.matrix))


def test_zeta_states_order_and_purity():
    states = zeta_states()
    assert len(states) == 6
    for s in states:
        assert s.is_pure()
    # fixed order: x+, x-, y+, y-, z+, z-
    assert np.allclose(states[0].matrix, np.full((2, 2), 0.5))
    assert np.allclose(states[4].matrix, DensityMatrix.basis("0").matrix)
    assert np.allclose(states[5].matrix, DensityMatrix.basis("1").matrix)
    assert states[2].matrix[1, 0] == pytest.approx(0.5j)
    with pytest.raises(ValueError):
        zeta("w", +1)


def test_epr_state_probabilities():
    rho = epr_state()
    assert rho.n == 2
    assert rho.is_pure()
    assert measure_prob(rho, "00") == pytest.approx(0.5)
    assert measure_prob(rho, "11") == pytest.approx(0.5)
    assert measure_prob(rho, "01") == pytest.approx(0.0)


def test_epr_axis_state_decomposition():
    assert epr_decomposition_residual() <= 1e-12


def test_validation_toggle():
    bad = np.diag([2.0, -1.0]).astype(complex)  # trace 1 but not PSD
    with pytest.raises(ValueError):
        DensityMatrix(bad)
    rho = DensityMatrix(bad, validate=False)  # accepted for this call only
    assert rho.n == 1
    with pytest.raises(ValueError):
        DensityMatrix(bad)


def test_density_matrix_shape_errors():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3.0)  # not a power-of-two dimension
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)))


def test_matrix_is_frozen():
    rho = DensityMatrix.basis("0")
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_random_density_matrix_is_state():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        rho = random_density_matrix(n, rng)
        assert rho.n == n
        assert np.trace(rho.matrix) == pytest.approx(1.0)
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs.min() > 0.0  # Ginibre states are full rank


def test_numerics_error_is_runtime_error():
    assert issubclass(NumericsError, RuntimeError)
