"""Dense complex-matrix kernel for quantum states.

Conventions used throughout the package:

* ``n`` qubits act on dimension ``N = 2**n``.
* Bitstrings index the computational basis with the leftmost character as
  qubit 1, which is the left Kronecker factor: ``|i1 ... in> = |i1> (x) ... (x) |in>``.
* One-qubit density matrices are parametrised as ``rho(p, alpha)`` with
  diagonal ``(p, 1 - p)`` and coherence ``alpha = <1|rho|0>``.  Such a matrix
  is positive semidefinite exactly when ``|alpha|**2 <= p * (1 - p)``, with
  equality characterising pure states.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


class NumericsError(RuntimeError):
    """A numerical routine failed to converge; the result would be unreliable."""


def _as_matrix(value) -> np.ndarray:
    if isinstance(value, DensityMatrix):
        return value.matrix
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_state(arr: np.ndarray) -> None:
    defect = np.abs(arr - arr.conj().T).max()
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    tr = arr.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"matrix trace is {tr:.15g}, expected 1")
    eigs = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    if eigs.min() < -PSD_TOL:
        raise ValueError(f"matrix has negative eigenvalue {eigs.min():.3e}")


class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one matrix with its qubit count.

    The stored array is frozen; treat instances as immutable values.  Validation
    runs at construction unless disabled through ``validate=False``.
    """

    __slots__ = ("n", "matrix")

    def __init__(self, matrix, *, validate: bool = True):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {arr.shape}")
        dim = arr.shape[0]
        n = dim.bit_length() - 1
        if n < 1 or 2**n != dim:
            raise ValueError(f"dimension {dim} is not a power of two >= 2")
        if validate:
            _check_state(arr)
        arr.setflags(write=False)
        self.n = n
        self.matrix = arr

    @classmethod
    def basis(cls, bits: str) -> "DensityMatrix":
        """Computational basis state |bits><bits|, leftmost character first."""
        if not bits or any(c not in "01" for c in bits):
            raise ValueError(f"invalid basis bitstring {bits!r}")
        dim = 2 ** len(bits)
        arr = np.zeros((dim, dim), dtype=complex)
        idx = int(bits, 2)
        arr[idx, idx] = 1.0
        return cls(arr, validate=False)

    @classmethod
    def from_statevector(cls, psi) -> "DensityMatrix":
        vec = np.asarray(psi, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector norm is {norm:.15g}, expected 1")
        return cls(np.outer(vec, vec.conj()), validate=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = 1e-10) -> bool:
        return abs(self.purity() - 1.0) <= tol

    def __repr__(self) -> str:
        return f"DensityMatrix(n={self.n})"


def rho_of(p: float, alpha: complex) -> DensityMatrix:
    """One-qubit state with diagonal (p, 1-p) and coherence alpha = <1|rho|0>."""
    p = float(p)
    alpha = complex(alpha)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if abs(alpha) ** 2 > p * (1.0 - p) + 1e-12:
        raise ValueError(
            f"|alpha|^2 = {abs(alpha)**2:.3e} exceeds p(1-p) = {p * (1 - p):.3e}"
        )
    arr = np.array([[p, np.conj(alpha)], [alpha, 1.0 - p]], dtype=complex)
    return DensityMatrix(arr, validate=False)


def svd(m: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd`` of a matrix or a stack, raising NumericsError if it fails."""
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("SVD did not converge") from exc


def trace_norm(v) -> float:
    """Trace norm: the sum of singular values of a square matrix."""
    return float(svd(_as_matrix(v), compute_uv=False).sum())


def tensor(a, b):
    """Kronecker product; DensityMatrix inputs give a DensityMatrix output."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix), validate=False)
    return np.kron(_as_matrix(a), _as_matrix(b))


def measure_prob(rho: DensityMatrix, v: str) -> float:
    """Probability of outcome bitstring ``v`` under the basis measurement."""
    if len(v) != rho.n or any(c not in "01" for c in v):
        raise ValueError(f"outcome {v!r} does not match an {rho.n}-qubit state")
    p = float(np.real(rho.matrix[int(v, 2), int(v, 2)]))
    return min(1.0, max(0.0, p))


_ZETA_VECTORS = {
    ("x", +1): np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    ("x", -1): np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    ("y", +1): np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
    ("y", -1): np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
    ("z", +1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
}


def zeta(axis: str, sign: int) -> DensityMatrix:
    """Pure state at the positive/negative end of a Bloch coordinate axis."""
    key = (axis, +1 if sign > 0 else -1)
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return DensityMatrix.from_statevector(_ZETA_VECTORS[key])


def zeta_states() -> tuple[DensityMatrix, ...]:
    """The six axis states, in the fixed order x+, x-, y+, y-, z+, z-."""
    return tuple(zeta(ax, s) for ax in "xyz" for s in (+1, -1))


def epr_state() -> DensityMatrix:
    """Two-qubit maximally entangled state (|00> + |11>)/sqrt(2)."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix.from_statevector(vec)


def _zeta_combination() -> np.ndarray:
    """Signed tensor combination of axis-state pairs equal to the EPR state."""
    combo = np.zeros((4, 4), dtype=complex)
    for ax, weight in (("x", 0.5), ("y", -0.5), ("z", 0.5)):
        for s in (+1, -1):
            m = zeta(ax, s).matrix
            combo += weight * np.kron(m, m)
    return combo


def epr_decomposition_residual() -> float:
    """Trace-norm gap between the EPR state and its axis-state combination.

    The combination sums zeta (x) zeta over both signs of each axis, with
    weight +1/2 for the x and z axes and -1/2 for the y axis.  The identity
    says the gap is exactly zero; the returned float is the numerical residual.
    """
    return trace_norm(_zeta_combination() - epr_state().matrix)


def random_density_matrix(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-distributed random full-rank state on n qubits."""
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.real(np.trace(m)), validate=False)
