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

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .angles import parse_angle
from .bloch import rotation_unitary
from .qstate import DensityMatrix, svd

CP_TOL = 1e-10
TP_TOL = 1e-10
CHOI_CLOSE_TOL = 1e-10
SPREAD_FLAG_TOL = 1e-4
# The norm ascent stops after ASCENT_MAX_ITER iterations, or once no start's
# value moved by more than ASCENT_TOL * max(1, best value) in one iteration;
# ASCENT_TOL is also its margin above a ceiling (see _ascent).  On 4 x 4
# images it also stops once its best value has risen by less than that in
# each of ASCENT_STILL_ITER iterations in a row (see _ascent).
ASCENT_MAX_ITER = 200
ASCENT_STILL_ITER = 20
ASCENT_TOL = 1e-13
# rank_one_sample_max draws its rank-one operators in chunks of this many.
SAMPLE_CHUNK = 4096
# sup_norm_values runs at most GRID_BLOCK differences per grouped ascent, which
# bounds the stack's peak memory.
GRID_BLOCK = 16
# Largest gate a spec may describe: a 4-qubit Choi matrix is 256 x 256.
MAX_SPEC_QUBITS = 4


class Channel:
    """Linear superoperator on ``n`` qubits, stored as a Choi matrix.

    ``choi`` and ``transfer`` are computed once, at construction, and are
    read-only.  ``axis`` optionally records ``(theta, phi)`` for gates built
    as Bloch rotations, so noise models can overrotate about the same axis.
    """

    __slots__ = ("n", "choi", "transfer", "is_cp", "is_tp", "choi_min_eig", "axis")

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

        hermitian_defect = np.abs(arr - arr.conj().T).max()
        eigs = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
        self.choi_min_eig = float(eigs.min())
        self.is_cp = bool(hermitian_defect <= CP_TOL and self.choi_min_eig >= -CP_TOL)
        choi4 = arr.reshape(dim, dim, dim, dim)
        tp_defect = np.abs(np.einsum("ikjk->ij", choi4) - np.eye(dim)).max()
        self.is_tp = bool(tp_defect <= TP_TOL)
        transfer = choi4.transpose(1, 3, 0, 2).reshape(dim2, dim2)
        transfer.setflags(write=False)
        self.transfer = transfer

    @property
    def dim(self) -> int:
        return 2**self.n

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


def gate_tuple(gates) -> tuple[Channel, ...]:
    """A gate tuple from one ``Channel`` or any iterable of them."""
    return (gates,) if isinstance(gates, Channel) else tuple(gates)


def _channel_from_transfer(transfer: np.ndarray, axis=None) -> Channel:
    d2 = transfer.shape[0]
    d = math.isqrt(d2)
    choi = transfer.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d2, d2)
    return Channel(choi, axis=axis)


def identity(n: int = 1) -> Channel:
    return from_unitary(np.eye(2**n))


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


def tensor_transfers(tg: np.ndarray, th: np.ndarray) -> np.ndarray:
    """Transfer matrix of the parallel composition of two transfer matrices."""
    dg, dh = math.isqrt(tg.shape[0]), math.isqrt(th.shape[0])
    d = dg * dh
    return np.einsum(
        "KLIJ,klij->KkLlIiJj", tg.reshape(dg, dg, dg, dg), th.reshape(dh, dh, dh, dh)
    ).reshape(d * d, d * d)


def tensor_channels(g: Channel, h: Channel) -> Channel:
    """Parallel composition acting on the concatenated qubit registers."""
    return _channel_from_transfer(tensor_transfers(g.transfer, h.transfer))


def phase_orbit(g: Channel, qubits, phis) -> np.ndarray:
    """Transfers of G conjugated by diag(e^{i phi w}), one per phi: shape (len(phis), D^2, D^2).

    ``w`` is the Hamming weight of a basis state on ``qubits`` (qubit 0 is the
    leftmost Kronecker factor).  The transfer at phi is ``p * T * conj(p)``
    with ``p = vec(z z^*)`` and ``z = e^{i phi w}``.
    """
    shifts = g.n - 1 - np.array(qubits, dtype=int)
    weight = ((np.arange(g.dim)[:, None] >> shifts) & 1).sum(axis=1)
    z = np.exp(1j * np.multiply.outer(phis, weight))
    p = (z[:, :, None] * z.conj()[:, None, :]).reshape(len(z), -1)
    return p[:, :, None] * g.transfer * p.conj()[:, None, :]


def phased(g: Channel, qubits, phi: float) -> Channel:
    """G conjugated by diag(e^{i phi w}) (see ``phase_orbit``), its axis turned by phi."""
    axis = None if g.axis is None else (g.axis[0], g.axis[1] + phi)
    return _channel_from_transfer(phase_orbit(g, qubits, [phi])[0], axis)


# ----------------------------------------------------------------------------
# standard gates


def rotation_gate(alpha: float, theta: float, phi: float) -> Channel:
    """Rotation by alpha about the (theta, phi) Bloch axis, with that axis recorded."""
    return from_unitary(rotation_unitary(alpha, theta, phi), axis=(theta, phi))


def hadamard(phi: float = 0.0) -> Channel:
    """Involutive rotation exchanging |0> and the phi-equator superposition."""
    return rotation_gate(math.pi, math.pi / 4.0, phi)


def not_gate(phi: float = 0.0) -> Channel:
    """Phase-twisted NOT: |0> -> e^{i phi}|1>, e^{i phi}|1> -> |0>."""
    return rotation_gate(math.pi, math.pi / 2.0, phi)


def phase_gate(alpha: float) -> Channel:
    """diag(1, e^{i alpha}) conjugation; the theta = 0 rotation."""
    return rotation_gate(alpha, 0.0, 0.0)


def cnot(phi: float = 0.0) -> Channel:
    """Controlled phase-twisted NOT, control on the left qubit."""
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = rotation_unitary(math.pi, math.pi / 2.0, phi)
    return from_unitary(u)


def measurement(n: int = 1) -> Channel:
    """Complete von Neumann measurement: kills all off-diagonal entries."""
    return from_kraus(np.diag(row) for row in np.eye(2**n, dtype=complex))


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


def _per_qubit(gate: Channel, n: int) -> Channel:
    out = gate
    for _ in range(n - 1):
        out = tensor_channels(out, gate)
    return out


def apply_noise(g: Channel, model: NoiseModel) -> Channel:
    """Compose the noise with the gate (noise acts after the gate).

    overrotate shares the gate's rotation axis when that axis is known and
    falls back to a per-qubit z-axis phase otherwise; phase_drift conjugates
    the gate by a per-qubit z-axis phase, which moves its axis by the drift.
    Every kind keeps the axis, so a later overrotate still turns about it.
    """
    s = model.strength
    if model.kind == "phase_drift":
        return phased(g, range(g.n), s)
    if model.kind == "depolarize":
        noise = Channel((1.0 - s) * identity(g.n).choi + (s / g.dim) * np.eye(g.dim**2))
    elif model.kind == "overrotate":
        noise = rotation_gate(s, *g.axis) if g.axis is not None else _per_qubit(phase_gate(s), g.n)
    else:
        decay = np.array([[0.0, math.sqrt(s)], [0.0, 0.0]])
        noise = _per_qubit(from_kraus([np.diag([1.0, math.sqrt(1.0 - s)]), decay]), g.n)
    return _channel_from_transfer(noise.transfer @ g.transfer, g.axis)


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


@functools.lru_cache(maxsize=32)
def _ascent_starts(dim: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis pairs and ``count`` seeded random unit pairs, built once per key, read-only."""
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
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


def _trace_norm_batch(m: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of matrices: by ``_two_by_two`` on 2 x 2, else by the SVD."""
    if m.shape[-1] == 2:
        return _two_by_two(m)[0]
    return svd(m, compute_uv=False).sum(axis=-1)


def _images(delta: np.ndarray, u, v) -> np.ndarray:
    """Delta_g(u_gb v_gb*) for every group g and row pair b, via the transfer matrices."""
    _, b, d = u.shape
    outer = (u[..., :, None] * v.conj()[..., None, :]).reshape(-1, b, d * d)
    return (outer @ delta.transpose(0, 2, 1)).reshape(-1, b, d, d)


# adj(M)^dagger = [[conj d, -conj c], [-conj b, conj a]] for M = [[a, b], [c, d]],
# in row-major entry order: the reversed, conjugated entries times these signs.
_ADJ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
_EYE2 = np.eye(2).reshape(4)


def _two_by_two(m: np.ndarray):
    """Trace norms, row-major entries, determinants and |det| of a stack of 2 x 2 matrices.

    A 2 x 2 matrix M has ``||M||_1 = sqrt(||M||_F^2 + 2 |det M|)``: its singular
    values s1, s2 have ``s1^2 + s2^2 = ||M||_F^2`` and ``s1 s2 = |det M|``.
    """
    f = np.ascontiguousarray(m).reshape(*m.shape[:-2], 4)
    det = f[..., 0] * f[..., 3] - f[..., 1] * f[..., 2]
    mag = np.abs(det)
    parts = f.view(float)
    return np.sqrt(np.einsum("...k,...k->...", parts, parts) + 2.0 * mag), f, det, mag


def _polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace norms and unitary polar factors W (W^dagger m >= 0) of a stack of matrices.

    A 2 x 2 matrix M with trace norm t (``_two_by_two``) has polar factor
    ``(M + e^{i arg det M} adj(M)^dagger) / t``; any phase works when
    det M = 0, and M = 0 gets the identity.  Larger matrices use the SVD.
    """
    if m.shape[-1] != 2:
        uu, sing, vh = svd(m)
        return sing.sum(axis=-1), uu @ vh
    t, f, det, mag = _two_by_two(m)
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


def _ascent(delta: np.ndarray, starts: int, seed: int, floor=None, ceiling: float = math.inf):
    """Monotone alternating maximisation of ||Delta_g(u v*)||_1 for a stack of groups.

    ``delta`` holds G transfer matrices, and every group begins from the same
    B starts: the basis pairs plus ``starts`` seeded random pairs.  Alternates
    the exact solutions of the three partial problems: the dual unitary W
    (polar factor of the image), then the left and right vectors (each a
    normalised linear functional).  Every step is closed-form, so the
    objective value never decreases between iterations.  A group finishes
    once none of its own starts moved by more than ASCENT_TOL in one
    iteration, and leaves the stack; the others run on unchanged, so a
    group's result does not depend on what it is stacked with.

    On 4 x 4 images (2-qubit differences) a group also finishes once its
    best value has risen by less than ``ASCENT_TOL * max(1, best)`` in each
    of ASCENT_STILL_ITER iterations in a row, provided its best and
    90th-percentile start values then agree within SPREAD_FLAG_TOL: starts
    still climbing far below the best no longer hold it on the stack until
    the cap, and a report that the full ascent would call converged still
    is.  It leaves like any other group, so its values are exact
    evaluations.  Fewer still iterations would be unsafe: a best value can
    sit still for an iteration at a saddle and then rise.  2 x 2 images keep
    the all-starts test alone; a 1-qubit group is cheap, and an exact upper
    bound could stop it without a heuristic.

    A group also stops once its running best, maxed with its ``floor`` entry
    (0 without a floor), exceeds ``ceiling`` by more than
    ``ASCENT_TOL * max(1, ceiling)``; it reports its values where it stopped.
    With a ``floor``, each group that finishes lowers the ceiling to
    ``max(floor, value)``.  The running best is an exact evaluation that the
    ascent never falls below, so a stopped group would also have finished
    above the ceiling, and ties never stop.
    Returns the values (G, B) and vectors (G, B, d) where each group left.
    """
    d = math.isqrt(delta.shape[-1])
    u0, v0 = _ascent_starts(d, starts, seed)
    g, b = len(delta), len(u0)
    u, v = np.broadcast_to(u0, (g, b, d)), np.broadcast_to(v0, (g, b, d))
    vals_out = np.empty((g, b))
    u_out, v_out = np.empty(u.shape, complex), np.empty(v.shape, complex)
    run, live = np.arange(g), delta
    lows = np.zeros(g) if floor is None else np.asarray(floor, dtype=float)
    vals = np.zeros((g, b))
    still = np.zeros(g, dtype=int) if d > 2 else None

    def leave(rows):
        vals_out[run[rows]] = _trace_norm_batch(_images(live[rows], u[rows], v[rows]))
        u_out[run[rows]], v_out[run[rows]] = u[rows], v[rows]

    for _ in range(ASCENT_MAX_ITER):
        new_vals, w = _polar(_images(live, u, v))
        dd = (w.conj().reshape(-1, b, d * d) @ live).reshape(-1, b, d, d)
        u = _unit_rows((dd @ v.conj()[..., None])[..., 0].conj(), u)
        v = _unit_rows((u[..., None, :] @ dd)[..., 0, :], v)
        best = new_vals.max(axis=1)
        tol = ASCENT_TOL * np.maximum(1.0, best)
        done = np.abs(new_vals - vals).max(axis=1) < tol
        if still is not None:
            still = np.where(best - vals.max(axis=1) < tol, still + 1, 0)
            settled = still >= ASCENT_STILL_ITER
            if settled.any():
                spread = best[settled] - np.quantile(new_vals[settled], 0.9, axis=1)
                settled[settled] = spread <= SPREAD_FLAG_TOL
                done |= settled
        vals = new_vals
        if done.any():
            leave(done)
            if floor is not None:
                finished = run[done]
                least = np.maximum(lows[finished], vals_out[finished].max(axis=1)).min()
                ceiling = min(ceiling, float(least))
        stop = ~done & (np.maximum(lows[run], best) > ceiling + ASCENT_TOL * max(1.0, ceiling))
        if stop.any():
            leave(stop)
            done |= stop
        if done.any():
            keep = ~done
            run, live, u, v, vals = run[keep], live[keep], u[keep], v[keep], vals[keep]
            if still is not None:
                still = still[keep]
            if not run.size:
                break
    else:
        leave(slice(None))
    return vals_out, u_out, v_out


def sup_norm_report(
    g: Channel,
    h: Channel | None = None,
    *,
    starts: int = 64,
    seed: int = 0,
    ceiling: float = math.inf,
) -> SupNormResult:
    """Maximise ||(G - H)(V)||_1 over the trace-norm unit ball.

    Multistart over random unit-vector pairs plus all basis pairs; the
    supremum is attained on rank-one V, so this is exhaustive in kind.  The
    spread between the best and the 90th-percentile start value is reported as
    a convergence diagnostic.  It is a stack of one group in ``_ascent``.

    A caller that only needs to know whether the norm exceeds ``ceiling``
    passes it: the ascent then stops once its running value exceeds the
    ceiling by more than ``ASCENT_TOL * max(1, ceiling)``.  The value is still
    an exact evaluation, and it lies above the ceiling only when the full
    ascent's does too; such a report is not a certificate, so ``converged``
    is cleared whenever the value exceeds the ceiling.  With the default
    ``ceiling=math.inf`` the report is the full ascent's, bit for bit.
    """
    if h is not None and g.n != h.n:
        raise ValueError(f"cannot compare channels on {g.n} and {h.n} qubits")
    delta = g.transfer if h is None else g.transfer - h.transfer
    if np.abs(delta).max() < 1e-14:
        return SupNormResult(0.0, 0.0, True)
    vals, u, v = _ascent(delta[None], starts, seed, ceiling=ceiling)
    vals, u, v = vals[0], u[0], v[0]
    best = int(np.argmax(vals))
    value = float(vals[best])
    spread = float(value - np.quantile(vals, 0.9))
    converged = spread <= SPREAD_FLAG_TOL and value <= ceiling
    return SupNormResult(value, spread, converged, u[best], v[best])


def sup_norm_values(
    deltas: np.ndarray, *, starts: int = 64, seed: int = 0, floor=None
) -> np.ndarray:
    """The norm value of every transfer difference in a (G, D^2, D^2) stack.

    Without a ``floor``, each value equals ``sup_norm_report`` on that
    difference with the same ``starts`` and ``seed``, bit for bit.  Zero
    differences read 0.0 without an ascent; the others run as the groups of
    ``_ascent`` stacks of at most GRID_BLOCK, at a fraction of the per-call
    overhead.  The stacks are taken coarse to fine: with n stacks, stack k
    holds rows k, k + n, k + 2n, ... of the non-zero differences, so the
    first one already spans the whole stack.

    A ``floor`` (one entry per difference) asks only for the lowest-index
    argmin of ``max(floor, values)``, and for the values where that argmin
    decides nothing.  The ceiling of ``_ascent`` is then the least
    ``max(floor, value)`` of the groups finished so far (zero differences
    count as finished at 0), carried from stack to stack.  Every entry equals
    the floorless value bit for bit, or it lies, like the floorless value,
    above that least ``max(floor, value)``; so the argmin and its value are
    the floorless ones.
    """
    values = np.zeros(len(deltas))
    zero = np.abs(deltas).max(axis=(1, 2)) < 1e-14
    live = np.flatnonzero(~zero)
    blocks = -(-len(live) // GRID_BLOCK)
    if floor is not None:
        floor = np.asarray(floor, dtype=float)
        ceiling = float(np.maximum(floor[zero], 0.0).min(initial=math.inf))
    for first in range(blocks):
        rows = live[first::blocks]
        if floor is None:
            values[rows] = _ascent(deltas[rows], starts, seed)[0].max(axis=1)
        else:
            values[rows] = _ascent(deltas[rows], starts, seed, floor[rows], ceiling)[0].max(axis=1)
            ceiling = min(ceiling, float(np.maximum(floor[rows], values[rows]).min()))
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
        best = max(best, float(svd(m, compute_uv=False).sum(axis=-1).max()))
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
