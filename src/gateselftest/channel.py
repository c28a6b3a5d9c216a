"""Superoperators on n qubits stored as Choi matrices.

Conventions:

* ``choi = sum_ij |i><j| (x) G(|i><j|)`` — the input index is the first
  Kronecker factor, matching column-stacking vectorisation of Kraus operators
  (``choi = sum_K vec(K) vec(K)^dagger`` with ``vec`` stacking columns).
* G is completely positive iff ``choi`` is Hermitian PSD; trace preserving iff
  the partial trace over the output factor is the identity.  Both flags are
  computed at construction and exposed; nothing is silently clamped.
* ``transfer`` is the matrix acting on row-major vectorised operators:
  ``vec_r(G(m)) = transfer @ vec_r(m)``.  Channel composition is transfer
  multiplication.

The superoperator norm used everywhere is the unstabilised induced trace norm
``sup { ||G(V)||_1 : ||V||_1 = 1 }`` (no ancilla).  Its supremum is attained on
rank-one ``V = u v^dagger`` with unit vectors, which is what the optimiser
searches over.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .angles import parse_angle
from .bloch import rotation_unitary
from .qstate import DensityMatrix, NumericsError

CP_TOL = 1e-10
TP_TOL = 1e-10
CHOI_CLOSE_TOL = 1e-10
SPREAD_FLAG_TOL = 1e-4
# The norm ascent stops after ASCENT_MAX_ITER iterations, or once no start's
# value moved by more than ASCENT_TOL * max(1, best value) in one iteration.
ASCENT_MAX_ITER = 200
ASCENT_TOL = 1e-13
# rank_one_sample_max draws its rank-one operators in chunks of this many.
SAMPLE_CHUNK = 4096
# Largest gate a spec may describe: a 4-qubit Choi matrix is 256 x 256.
MAX_SPEC_QUBITS = 4


class Channel:
    """Linear superoperator on ``n`` qubits, stored as a Choi matrix.

    ``axis`` optionally records ``(theta, phi)`` for gates built as Bloch
    rotations, so noise models can overrotate about the same axis.
    """

    __slots__ = ("n", "choi", "is_cp", "is_tp", "choi_min_eig", "axis", "_transfer")

    def __init__(self, choi, *, axis: tuple[float, float] | None = None):
        arr = np.array(choi, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"Choi matrix must be square, got shape {arr.shape}")
        dim2 = arr.shape[0]
        dim = math.isqrt(dim2)
        n = dim.bit_length() - 1
        if dim * dim != dim2 or n < 1 or 2**n != dim:
            raise ValueError(f"Choi dimension {dim2} is not (2**n)**2 for n >= 1")
        arr.setflags(write=False)
        self.n = n
        self.choi = arr
        self.axis = axis
        self._transfer = None

        hermitian_defect = np.abs(arr - arr.conj().T).max()
        eigs = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
        self.choi_min_eig = float(eigs.min())
        self.is_cp = bool(hermitian_defect <= CP_TOL and self.choi_min_eig >= -CP_TOL)
        choi4 = arr.reshape(dim, dim, dim, dim)
        tp_defect = np.abs(np.einsum("ikjk->ij", choi4) - np.eye(dim)).max()
        self.is_tp = bool(tp_defect <= TP_TOL)

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def transfer(self) -> np.ndarray:
        if self._transfer is None:
            d = self.dim
            t = self.choi.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)
            t.setflags(write=False)
            self._transfer = t
        return self._transfer

    def apply_matrix(self, m) -> np.ndarray:
        """Linear action on an arbitrary operator (no state validation)."""
        arr = np.asarray(m, dtype=complex)
        d = self.dim
        if arr.shape != (d, d):
            raise ValueError(f"operator shape {arr.shape} does not match dim {d}")
        return (self.transfer @ arr.reshape(-1)).reshape(d, d)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Image of a state; validated when the channel is CP and TP."""
        if rho.n != self.n:
            raise ValueError(f"state has {rho.n} qubits, channel has {self.n}")
        out = self.apply_matrix(rho.matrix)
        return DensityMatrix(out, validate=self.is_cp and self.is_tp)

    def is_close(self, other: "Channel", tol: float = CHOI_CLOSE_TOL) -> bool:
        """Channel equality: maximum Choi-entry deviation within tolerance."""
        if self.n != other.n:
            return False
        return bool(np.abs(self.choi - other.choi).max() <= tol)

    def __repr__(self) -> str:
        return f"Channel(n={self.n}, cp={self.is_cp}, tp={self.is_tp})"


def _channel_from_transfer(transfer: np.ndarray) -> Channel:
    d2 = transfer.shape[0]
    d = math.isqrt(d2)
    choi = transfer.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d2, d2)
    return Channel(choi)


def identity(n: int = 1) -> Channel:
    d = 2**n
    vec = np.eye(d, dtype=complex).T.reshape(-1)
    return Channel(np.outer(vec, vec.conj()))


def from_unitary(u, *, axis=None) -> Channel:
    """Conjugation channel rho -> U rho U^dagger; global phases drop out."""
    arr = np.asarray(u, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("unitary entries must be finite")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"unitary must be square, got shape {arr.shape}")
    # Huge finite entries overflow here; the defect check reports them.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max()
    if defect > 1e-10:
        raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    vec = arr.T.reshape(-1)
    return Channel(np.outer(vec, vec.conj()), axis=axis)


def from_kraus(ops) -> Channel:
    """Channel sum_K K rho K^dagger from a trace-preserving Kraus family."""
    mats = [np.asarray(k, dtype=complex) for k in ops]
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError("Kraus operator entries must be finite")
    if not mats:
        raise ValueError("need at least one Kraus operator")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("Kraus operators must share one square shape")
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(sum(m.conj().T @ m for m in mats) - np.eye(d)).max()
    if defect > 1e-10:
        raise ValueError("Kraus operators do not sum to the identity (not TP)")
    choi = np.zeros((d * d, d * d), dtype=complex)
    for m in mats:
        vec = m.T.reshape(-1)
        choi += np.outer(vec, vec.conj())
    return Channel(choi)


def compose(g: Channel, h: Channel) -> Channel:
    """Composite G after H (apply H first)."""
    if g.n != h.n:
        raise ValueError(f"cannot compose channels on {g.n} and {h.n} qubits")
    return _channel_from_transfer(g.transfer @ h.transfer)


def power(g: Channel, k: int) -> Channel:
    if k < 0:
        raise ValueError(f"channel exponent must be >= 0, got {k}")
    if k == 0:
        return identity(g.n)
    return _channel_from_transfer(np.linalg.matrix_power(g.transfer, k))


def tensor_channels(g: Channel, h: Channel) -> Channel:
    """Parallel composition acting on the concatenated qubit registers."""
    dg, dh = g.dim, h.dim
    tg = g.transfer.reshape(dg, dg, dg, dg)
    th = h.transfer.reshape(dh, dh, dh, dh)
    d = dg * dh
    joint = np.einsum("KLIJ,klij->KkLlIiJj", tg, th).reshape(d * d, d * d)
    return _channel_from_transfer(joint)


# ----------------------------------------------------------------------------
# standard gates


def hadamard(phi: float = 0.0) -> Channel:
    """Involutive rotation exchanging |0> and the phi-equator superposition."""
    return from_unitary(
        rotation_unitary(math.pi, math.pi / 4.0, phi), axis=(math.pi / 4.0, phi)
    )


def not_gate(phi: float = 0.0) -> Channel:
    """Phase-twisted NOT: |0> -> e^{i phi}|1>, e^{i phi}|1> -> |0>."""
    return from_unitary(
        rotation_unitary(math.pi, math.pi / 2.0, phi), axis=(math.pi / 2.0, phi)
    )


def rotation_gate(alpha: float, theta: float, phi: float) -> Channel:
    return from_unitary(rotation_unitary(alpha, theta, phi), axis=(theta, phi))


def phase_gate(alpha: float) -> Channel:
    """diag(1, e^{i alpha}) conjugation; the theta = 0 rotation."""
    return from_unitary(rotation_unitary(alpha, 0.0, 0.0), axis=(0.0, 0.0))


def cnot(phi: float = 0.0) -> Channel:
    """Controlled phase-twisted NOT, control on the left qubit."""
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = rotation_unitary(math.pi, math.pi / 2.0, phi)
    return from_unitary(u)


def measurement(n: int = 1) -> Channel:
    """Complete von Neumann measurement: kills all off-diagonal entries."""
    d = 2**n
    ops = []
    for i in range(d):
        k = np.zeros((d, d), dtype=complex)
        k[i, i] = 1.0
        ops.append(k)
    return from_kraus(ops)


def transpose_map() -> Channel:
    """One-qubit transpose: positive but not completely positive."""
    eye = np.eye(2)
    transfer = np.einsum("kj,li->klij", eye, eye).reshape(4, 4)
    return _channel_from_transfer(transfer.astype(complex))


# Spec kind -> builder; its keyword parameters are the params the kind takes.
_GATE_BUILDERS = {
    "hadamard": lambda phi=0.0: hadamard(_angle(phi)),
    "not": lambda phi=0.0: not_gate(_angle(phi)),
    "rotation": lambda alpha, theta, phi=0.0: rotation_gate(
        _angle(alpha), _angle(theta), _angle(phi)
    ),
    "phase": lambda alpha: phase_gate(_angle(alpha)),
    "cnot": lambda phi=0.0: cnot(_angle(phi)),
    "measurement": lambda n=1: measurement(_spec_qubits(n)),
    "unitary": lambda matrix: from_unitary(_complex_matrix(matrix)),
    "kraus": lambda operators: from_kraus(_kraus_operators(operators)),
}


def _angle(token) -> float:
    return parse_angle(token).radians


def _spec_qubits(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"qubit count must be an integer, got {value!r}")
    if not 1 <= value <= MAX_SPEC_QUBITS:
        raise ValueError(f"qubit count must lie in [1, {MAX_SPEC_QUBITS}], got {value}")
    return value


def standard_gate(label: str, /, **params) -> Channel:
    """The gate a spec kind names; unknown or missing params raise ValueError."""
    builder = _GATE_BUILDERS.get(label)
    if builder is None:
        raise ValueError(f"unknown gate label {label!r}")
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise ValueError(f"gate {label!r}: {exc}") from None
    return builder(**params)


# ----------------------------------------------------------------------------
# noise models

NOISE_KINDS = ("depolarize", "overrotate", "phase_drift", "amplitude_damp")


@dataclass(frozen=True)
class NoiseModel:
    """A named perturbation with one strength parameter.

    depolarize, amplitude_damp: probability-like strength in [0, 1].
    overrotate, phase_drift: an angle in radians, restricted to [0, 2 pi].
    """

    kind: str
    strength: float

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if isinstance(self.strength, bool):
            raise ValueError(f"noise strength must be a number, got {self.strength!r}")
        try:
            s = float(self.strength)
        except (TypeError, OverflowError):
            raise ValueError(
                f"noise strength must be a finite real number, got {self.strength!r:.40}"
            ) from None
        if not math.isfinite(s) or s < 0.0:
            raise ValueError(f"noise strength must be finite and >= 0, got {s}")
        if self.kind in ("depolarize", "amplitude_damp") and s > 1.0:
            raise ValueError(f"{self.kind} strength must lie in [0, 1], got {s}")
        if self.kind in ("overrotate", "phase_drift") and s > 2.0 * math.pi:
            raise ValueError(f"{self.kind} strength must lie in [0, 2 pi], got {s}")
        object.__setattr__(self, "strength", s)


def _depolarizing(n: int, lam: float) -> Channel:
    d = 2**n
    choi = (1.0 - lam) * identity(n).choi + (lam / d) * np.eye(d * d, dtype=complex)
    return Channel(choi)


def _per_qubit(gate: Channel, n: int) -> Channel:
    out = gate
    for _ in range(n - 1):
        out = tensor_channels(out, gate)
    return out


def apply_noise(g: Channel, model: NoiseModel) -> Channel:
    """Compose the noise with the gate (noise acts after the gate).

    overrotate shares the gate's rotation axis when that axis is known and
    falls back to a per-qubit z-axis phase otherwise; phase_drift conjugates
    the gate by a per-qubit z-axis phase.
    """
    s = model.strength
    if model.kind == "depolarize":
        return compose(_depolarizing(g.n, s), g)
    if model.kind == "overrotate":
        if g.axis is not None:
            theta, phi = g.axis
            rot = rotation_gate(s, theta, phi)
            noisy = compose(rot, g)
            return Channel(noisy.choi, axis=g.axis)
        return compose(_per_qubit(phase_gate(s), g.n), g)
    if model.kind == "phase_drift":
        fwd = _per_qubit(phase_gate(s), g.n)
        back = _per_qubit(phase_gate(-s), g.n)
        drifted = compose(fwd, compose(g, back))
        if g.axis is not None:
            theta, phi = g.axis
            return Channel(drifted.choi, axis=(theta, phi + s))
        return drifted
    damp = from_kraus(
        [
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - s)]], dtype=complex),
            np.array([[0.0, math.sqrt(s)], [0.0, 0.0]], dtype=complex),
        ]
    )
    return compose(_per_qubit(damp, g.n), g)


# ----------------------------------------------------------------------------
# superoperator norm

@dataclass
class SupNormResult:
    """Outcome of the rank-one maximisation of ||Delta(V)||_1.

    value is a certified lower bound (it is an exact evaluation at the reported
    maximiser); converged is cleared when the best starts disagree by more than
    SPREAD_FLAG_TOL, signalling possible under-maximisation.
    """

    value: float
    spread: float
    converged: bool
    u: np.ndarray | None = None
    v: np.ndarray | None = None


def _ascent_starts(dim: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng((0x5EED, seed, dim, count))
    us = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    vs = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    basis = np.eye(dim, dtype=complex)
    fixed_u = np.repeat(basis, dim, axis=0)
    fixed_v = np.tile(basis, (dim, 1))
    u = np.concatenate([fixed_u, us])
    v = np.concatenate([fixed_v, vs])
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return u, v


def _svd(m: np.ndarray, compute_uv: bool = True):
    try:
        return np.linalg.svd(m, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("SVD did not converge inside the norm optimiser") from exc


def _trace_norm_batch(m: np.ndarray) -> np.ndarray:
    return _svd(m, compute_uv=False).sum(axis=-1)


def _images(delta: np.ndarray, u, v) -> np.ndarray:
    """Delta_g(u_gb v_gb*) for every group g and row pair b, via the transfer matrices."""
    _, b, d = u.shape
    outer = (u[..., :, None] * v.conj()[..., None, :]).reshape(-1, b, d * d)
    return (outer @ delta.transpose(0, 2, 1)).reshape(-1, b, d, d)


# adj(M)^dagger = [[conj d, -conj c], [-conj b, conj a]] for M = [[a, b], [c, d]],
# in row-major entry order: the reversed, conjugated entries times these signs.
_ADJ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_EYE2 = np.eye(2).reshape(4)


def _polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norms and unitary polar factors W (W^dagger m >= 0) of a stack of matrices.

    A 2 x 2 matrix M has ``||M||_1 = t = sqrt(||M||_F^2 + 2 |det M|)`` and polar
    factor ``(M + e^{i arg det M} adj(M)^dagger) / t``; any phase works when
    det M = 0, and M = 0 gets the identity.  Larger matrices use the SVD.
    """
    if m.shape[-1] != 2:
        uu, sing, vh = _svd(m)
        return sing.sum(axis=-1), uu @ vh
    f = np.ascontiguousarray(m).reshape(*m.shape[:-2], 4)
    det = f[..., 0] * f[..., 3] - f[..., 1] * f[..., 2]
    mag = np.abs(det)
    parts = f.view(float)
    t = np.sqrt(np.einsum("...k,...k->...", parts, parts) + 2.0 * mag)
    singular = mag == 0.0
    phase = (det + singular) / (mag + singular)
    w = f + phase[..., None] * (f[..., ::-1].conj() * _ADJ_SIGNS)
    zero = t == 0.0
    if zero.any():
        w[zero] = _EYE2
    return t, (w / np.where(zero, 1.0, t)[..., None]).reshape(m.shape)


def _unit_rows(x: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """x with each last-axis row scaled to unit norm; rows of norm <= 1e-30 keep fallback's."""
    parts = x.view(float)
    norm = np.sqrt(np.einsum("...k,...k->...", parts, parts))
    ok = norm > 1e-30
    if ok.all():
        return x / norm[..., None]
    return np.where(ok[..., None], x / np.where(ok, norm, 1.0)[..., None], fallback)


def _ascent(delta: np.ndarray, starts: int, seed: int):
    """Monotone alternating maximisation of ||Delta_g(u v*)||_1 for a stack of groups.

    ``delta`` holds G transfer matrices, and every group begins from the same
    B starts: the basis pairs plus ``starts`` seeded random pairs.  Alternates
    the exact solutions of the three partial problems: the dual unitary W
    (polar factor of the image), then the left and right vectors (each a
    normalised linear functional).  Every step is closed-form, so the
    objective value never decreases between iterations.  A group stops once
    none of its own starts moved by more than ASCENT_TOL in one iteration,
    and leaves the stack; the others run on unchanged, so a group's result
    does not depend on what it is stacked with.
    Returns the final values (G, B) and vectors (G, B, d).
    """
    d = math.isqrt(delta.shape[-1])
    u0, v0 = _ascent_starts(d, starts, seed)
    g, b = len(delta), len(u0)
    u, v = np.broadcast_to(u0, (g, b, d)), np.broadcast_to(v0, (g, b, d))
    u_out, v_out = np.empty(u.shape, complex), np.empty(v.shape, complex)
    run, live = np.arange(g), delta
    vals = np.zeros((g, b))
    for _ in range(ASCENT_MAX_ITER):
        new_vals, w = _polar(_images(live, u, v))
        dd = (w.conj().reshape(-1, b, d * d) @ live).reshape(-1, b, d, d)
        u = _unit_rows((dd @ v.conj()[..., None])[..., 0].conj(), u)
        v = _unit_rows((u[..., None, :] @ dd)[..., 0, :], v)
        done = np.abs(new_vals - vals).max(axis=1) < ASCENT_TOL * np.maximum(
            1.0, new_vals.max(axis=1)
        )
        vals = new_vals
        if done.any():
            u_out[run[done]], v_out[run[done]] = u[done], v[done]
            keep = ~done
            run, live, u, v, vals = run[keep], live[keep], u[keep], v[keep], vals[keep]
            if not run.size:
                break
    else:
        u_out[run], v_out[run] = u, v
    return _trace_norm_batch(_images(delta, u_out, v_out)), u_out, v_out


def sup_norm_report(
    g: Channel, h: Channel | None = None, *, starts: int = 64, seed: int = 0
) -> SupNormResult:
    """Maximise ||(G - H)(V)||_1 over the trace-norm unit ball.

    Multistart over random unit-vector pairs plus all basis pairs; the
    supremum is attained on rank-one V, so this is exhaustive in kind.  The
    spread between the best and the 90th-percentile start value is reported as
    a convergence diagnostic.  It is a stack of one group in ``_ascent``.
    """
    if h is not None and g.n != h.n:
        raise ValueError(f"cannot compare channels on {g.n} and {h.n} qubits")
    delta = g.transfer if h is None else g.transfer - h.transfer
    if np.abs(delta).max() < 1e-14:
        return SupNormResult(0.0, 0.0, True)
    vals, u, v = _ascent(delta[None], starts, seed)
    vals, u, v = vals[0], u[0], v[0]
    best = int(np.argmax(vals))
    value = float(vals[best])
    spread = float(value - np.quantile(vals, 0.9))
    return SupNormResult(value, spread, spread <= SPREAD_FLAG_TOL, u[best], v[best])


def sup_norm_values(pairs, *, starts: int = 64, seed: int = 0) -> list[float]:
    """``sup_norm_report(g, h, starts=starts, seed=seed).value`` for every pair (g, h).

    All pairs must act on one qubit count.  The nonzero differences run as
    the groups of one ``_ascent`` stack, so each value equals the per-pair
    call bit for bit, at a fraction of its per-call overhead.
    """
    pairs = list(pairs)
    if len({x.n for pair in pairs for x in pair}) > 1:
        raise ValueError("sup_norm_values needs pairs on one qubit count")
    values = [0.0] * len(pairs)
    deltas = [g.transfer - h.transfer for g, h in pairs]
    live = [i for i, delta in enumerate(deltas) if not np.abs(delta).max() < 1e-14]
    if live:
        vals, _, _ = _ascent(np.stack([deltas[i] for i in live]), starts, seed)
        for i, value in zip(live, vals.max(axis=1)):
            values[i] = float(value)
    return values


def rank_one_sample_max(
    g: Channel,
    h: Channel | None = None,
    *,
    samples: int = 100_000,
    seed: int = 987,
) -> float:
    """Independent dense-sampling lower bound on the superoperator norm.

    Used to cross-check the optimiser: draws Haar-random rank-one operators
    and returns the best value seen.  Deliberately has no shared machinery
    with the ascent in :func:`sup_norm_report` beyond the transfer matrix.
    """
    d = g.dim
    delta = g.transfer if h is None else g.transfer - h.transfer
    delta4 = delta.reshape(d, d, d, d)
    rng = np.random.default_rng(seed)
    best = 0.0
    remaining = samples
    while remaining > 0:
        b = min(SAMPLE_CHUNK, remaining)
        remaining -= b
        u = rng.normal(size=(b, d)) + 1j * rng.normal(size=(b, d))
        v = rng.normal(size=(b, d)) + 1j * rng.normal(size=(b, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        m = np.einsum("klij,bi,bj->bkl", delta4, u, v.conj(), optimize=True)
        best = max(best, float(_trace_norm_batch(m).max()))
    return best


# ----------------------------------------------------------------------------
# JSON gate specs

def _complex_matrix(entries) -> np.ndarray:
    side = 2**MAX_SPEC_QUBITS
    if not isinstance(entries, (list, tuple, np.ndarray)) or len(entries) > side:
        raise ValueError(f"a matrix must be a list of at most {side} rows")
    try:
        arr = np.asarray(entries, dtype=float)
    except TypeError:
        raise ValueError("matrix entries must be [re, im] pairs of numbers") from None
    except OverflowError:
        raise ValueError("matrix entries must be finite numbers") from None
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix entries must be a square grid of [re, im] pairs")
    if any(isinstance(x, bool) for x in np.asarray(entries, dtype=object).flat):
        raise ValueError("matrix entries must be numbers, not booleans")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


def _kraus_operators(ops) -> list[np.ndarray]:
    if not isinstance(ops, list):
        raise ValueError("kraus 'operators' must be a list of matrices")
    return [_complex_matrix(m) for m in ops]


def gate_from_spec(spec: dict) -> Channel:
    """Build a channel from a JSON-style gate description.

    Shape: {"kind": ..., "params": {...}, "noise": [{"kind": ..., "strength": ...}]}.
    Angle parameters accept numbers (radians) or tokens like "pi" and "2/3pi".
    Gates act on at most MAX_SPEC_QUBITS qubits, checked before any array is
    built.  Every malformed spec, an unknown key included, raises ValueError.
    """
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise ValueError("gate spec must be an object with a string 'kind' field")
    unknown = set(spec) - {"kind", "params", "noise"}
    if unknown:
        raise ValueError(f"gate spec has unknown keys {sorted(unknown, key=str)}")
    kind = spec["kind"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("gate spec 'params' must be an object")
    noise = spec.get("noise", [])
    if not isinstance(noise, list) or not all(isinstance(e, dict) for e in noise):
        raise ValueError("gate spec 'noise' must be a list of objects")
    for entry in noise:
        if set(entry) != {"kind", "strength"}:
            raise ValueError(
                f"a noise entry takes exactly 'kind' and 'strength', got {sorted(entry, key=str)}"
            )
    gate = standard_gate(kind, **params)
    for entry in noise:
        gate = apply_noise(gate, NoiseModel(entry["kind"], entry["strength"]))
    return gate
