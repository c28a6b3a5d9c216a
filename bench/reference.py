"""Reference computations written apart from the gateselftest package.

Gates are 2x2 / 4x4 unitaries written from their textbook form, noisy gates
are Kraus lists, and an equation's probability is found by evolving the
density matrix |w><w| through the gate word and reading <v|rho|v>.  Nothing
here imports the package or shares its Choi / transfer-matrix machinery, so
agreement with the CLI's numbers is evidence that both are right.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)


def axis_sigma(theta: float, phi: float) -> np.ndarray:
    """n.sigma for the Bloch axis n = (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return st * math.cos(phi) * X + st * math.sin(phi) * Y + math.cos(theta) * Z


def axis_rotation(angle: float, theta: float, phi: float) -> np.ndarray:
    """exp(-i angle/2 n.sigma): rotation of the Bloch ball about n."""
    return math.cos(angle / 2) * I2 - 1j * math.sin(angle / 2) * axis_sigma(theta, phi)


def hadamard(phi: float) -> np.ndarray:
    """H_phi: swaps |0> and (|0> + e^{i phi}|1>)/sqrt 2."""
    return axis_sigma(math.pi / 4, phi)


def not_gate(phi: float) -> np.ndarray:
    """NOT_phi = [[0, e^{-i phi}], [e^{i phi}, 0]]."""
    return axis_sigma(math.pi / 2, phi)


def phase(alpha: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * alpha)])


def cnot(phi: float) -> np.ndarray:
    """Controlled NOT_phi, control on the left qubit."""
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = not_gate(phi)
    return u


def pauli_basis(n: int):
    return [_kron_all(ps) for ps in itertools.product(PAULIS, repeat=n)]


def _kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def depolarized(u: np.ndarray, lam: float) -> list[np.ndarray]:
    """Kraus list of rho -> (1 - lam) U rho U^+ + lam tr(rho) I/d."""
    d = u.shape[0]
    n = d.bit_length() - 1
    paulis = pauli_basis(n)
    weights = [1.0 - lam + lam / d**2] + [lam / d**2] * (len(paulis) - 1)
    return [math.sqrt(w) * p @ u for w, p in zip(weights, paulis)]


def amplitude_damped(u: np.ndarray, gamma: float) -> list[np.ndarray]:
    """One-qubit amplitude damping of strength gamma after U."""
    a0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [a0 @ u, a1 @ u]


def apply_kraus(kraus, m: np.ndarray) -> np.ndarray:
    """Linear action sum_K K m K^+ (on a batch when m is 3-d)."""
    return sum(k @ m @ k.conj().T for k in kraus)


def _embedded(kraus, embed: str):
    if embed == "whole":
        return list(kraus)
    if embed == "left":
        return [np.kron(k, I2) for k in kraus]
    if embed == "right":
        return [np.kron(I2, k) for k in kraus]
    return [np.kron(a, b) for a in kraus for b in kraus]


def probability(eq: dict, gates) -> float:
    """<v| C_1(...C_k(|w><w|)) |v> for one equation of the JSON equation set.

    ``gates`` holds one Kraus list per gate variable.  The program lists
    factors outermost first, so the last step acts first.
    """
    d = 2 ** eq["n"]
    rho = np.zeros((d, d), dtype=complex)
    w = int(eq["w"], 2)
    rho[w, w] = 1.0
    for step in reversed(eq["program"]):
        kraus = _embedded(gates[step["var"]], step["embed"])
        for _ in range(step["exp"]):
            rho = apply_kraus(kraus, rho)
    v = int(eq["v"], 2)
    return float(rho[v, v].real)


def max_violation(eqset: dict, gates) -> float:
    return max(abs(probability(eq, gates) - eq["r"]) for eq in eqset["equations"])


def depolarize_distance(lam: float, qubits: int) -> float:
    """Distance of a depolarized member to its family: lam max(1, 2(1 - 1/d)).

    A depolarized pure state has top eigenvalue 1 - lam(1 - 1/d), so it is
    at trace distance >= 2 lam (1 - 1/d) from every pure state; rank-one
    inputs u v^+ with u orthogonal to v lose lam; the member attains both.
    """
    d = 2**qubits
    return lam * max(1.0, 2.0 * (1.0 - 1.0 / d))


def amplitude_damp_distance(gamma: float) -> float:
    """||A_gamma - id||, attained on |1><1| -> gamma (|0><0| - |1><1|)."""
    return 2.0 * gamma


def overrotate_distance_max(s: float) -> float:
    """Distance of R_s H to H: a rotation by s moves a pure state by 2 sin(s/2)."""
    return 2.0 * math.sin(s / 2.0)


def per_eq_samples(d: int, eps: float) -> int:
    """Hoeffding plan of the paper's tester: ceil(18 ln(6 d) / eps^2)."""
    return math.ceil(18.0 * math.log(6.0 * d) / (eps * eps))


def sampled_sup_norm(kraus_a, kraus_b, *, samples: int, seed: int) -> float:
    """Dense random lower bound on sup ||(A - B)(u v^+)||_1 over unit u, v.

    A third of the pairs are independent Haar pairs, a third have v = u and a
    third have v a small perturbation of u, so maxima on or near the diagonal
    (where depolarizing noise peaks) are sampled densely.
    """
    d = kraus_a[0].shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    for kind in range(3):
        u = rng.normal(size=(samples // 3, d)) + 1j * rng.normal(size=(samples // 3, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        if kind == 0:
            v = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
        elif kind == 1:
            v = u.copy()
        else:
            noise = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
            v = u + rng.uniform(0.0, 0.3, size=(u.shape[0], 1)) * noise
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        m = u[:, :, None] * v.conj()[:, None, :]
        diff = apply_kraus(kraus_a, m) - apply_kraus(kraus_b, m)
        best = max(best, float(np.linalg.svd(diff, compute_uv=False).sum(axis=1).max()))
    return best
