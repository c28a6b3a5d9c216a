"""Robustness laboratory.

Empirical side of the theory: sweep noise strengths, compare the exact
equation violation eps against the optimised family distance, and check the
proven closeness bounds (the sqrt-law for the hadamard family, the six-state
and two-axis identity bounds, and the intermediate links of the sqrt-law
argument).  All comparisons allow OPTIMIZER_SLACK for the numerical distance
optimiser on top of the stated constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import affine_of_channel, from_bloch, to_bloch
from .channel import Channel, NoiseModel, apply_noise, compose, hadamard, identity, sup_norm_report
from .equations import EquationSet, max_violation
from .families import (
    Family,
    HADAMARD_ROBUSTNESS_COEFF,
    dist_to_family,
    family_equations,
    hadamard_family,
    member_gates,
    sqrt_law_radius,
)
from .qstate import DensityMatrix, trace_norm, zeta_states

OPTIMIZER_SLACK = 2e-3

# fit_exponent needs this many usable records spanning this many decades of eps.
FIT_MIN_POINTS = 8
FIT_MIN_DECADES = 2.0

SIX_STATE_IDENTITY_COEFF = 8.0
TWO_AXIS_IDENTITY_COEFF = 241.0

SCAN_CSV_HEADER = "noise_kind,strength,epsilon,distance,bound,ratio"


@dataclass(frozen=True)
class ScanRecord:
    noise_kind: str
    strength: float
    epsilon: float
    distance: float
    bound: float | None
    ratio: float | None


def noise_scan(
    family: Family, noise_kind: str, strengths, base_gates=None, *, seed: int = 0
) -> list[ScanRecord]:
    """Sweep one noise model over a family member and record eps vs distance.

    The bound column is the family's proven sqrt-law distance radius at the
    measured eps (see ``sqrt_law_radius``); ratio is
    distance/bound and is left empty when no bound applies or the bound is 0.
    """
    eqset = family_equations(family)
    if base_gates is None:
        base_gates = member_gates(family, 0.0, 1)
    base_gates = tuple(base_gates)
    records = []
    for s in strengths:
        model = NoiseModel(noise_kind, float(s))
        noisy = tuple(apply_noise(g, model) for g in base_gates)
        eps = max_violation(eqset, noisy)
        fit = dist_to_family(noisy, family, seed=seed)
        bound = sqrt_law_radius(family.label, eps)
        ratio = fit.distance / bound if bound else None
        records.append(
            ScanRecord(noise_kind, float(s), eps, fit.distance, bound, ratio)
        )
    return records


def _csv_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def scan_csv_text(records) -> str:
    """Scan records as CSV text: fixed header, 12 significant digits, LF."""
    rows = [SCAN_CSV_HEADER] + [
        ",".join(
            [r.noise_kind]
            + [_csv_cell(x) for x in (r.strength, r.epsilon, r.distance, r.bound, r.ratio)]
        )
        for r in records
    ]
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class ExponentFit:
    """Power-law fit distance ~ C * eps**k_inv from a log-log least-squares."""

    c: float
    k_inv: float
    residual: float
    points: int


def fit_exponent(records) -> ExponentFit:
    """Fit log(distance) = log(C) + k_inv * log(eps) over usable records.

    Records with zero (or negative) eps or distance carry no log-log
    information and are dropped; the remainder must number at least
    FIT_MIN_POINTS and span at least FIT_MIN_DECADES decades of eps.
    """
    eps = np.array([r.epsilon for r in records], dtype=float)
    dist = np.array([r.distance for r in records], dtype=float)
    usable = (eps > 0.0) & (dist > 0.0)
    eps, dist = eps[usable], dist[usable]
    if len(eps) < FIT_MIN_POINTS:
        raise ValueError(
            f"need {FIT_MIN_POINTS} records with positive eps and distance, "
            f"got {len(eps)}"
        )
    span = math.log10(eps.max() / eps.min())
    if span < FIT_MIN_DECADES:
        raise ValueError(
            f"eps values span {span:.2f} decades, need at least {FIT_MIN_DECADES}"
        )
    slope, intercept = np.polyfit(np.log(eps), np.log(dist), 1)
    resid = np.log(dist) - (intercept + slope * np.log(eps))
    rms = float(np.sqrt(np.mean(resid**2)))
    return ExponentFit(c=float(np.exp(intercept)), k_inv=float(slope), residual=rms, points=len(eps))


class _BoundCheck:
    """``margin`` and ``holds`` of a measured value against its proven bound.

    ``_MEASURED`` names the attribute that holds the measured value; ``holds``
    allows OPTIMIZER_SLACK for the numerical optimiser on top of the bound.
    """

    _MEASURED = "distance"

    @property
    def margin(self) -> float:
        return self.bound - getattr(self, self._MEASURED)

    @property
    def holds(self) -> bool:
        return getattr(self, self._MEASURED) <= self.bound + OPTIMIZER_SLACK


@dataclass(frozen=True)
class SixStateReport(_BoundCheck):
    """Bound check: all six axis states moved by <= eps forces ||G - I|| <= 8 eps."""

    eps: float
    distance: float
    bound: float


def check_six_state_identity_bound(g: Channel) -> SixStateReport:
    """Check the six-state identity bound on an arbitrary one-qubit superoperator."""
    if g.n != 1:
        raise ValueError(f"six-state bound applies to one-qubit maps, got n={g.n}")
    eps = max(
        trace_norm(g.apply_matrix(state.matrix) - state.matrix)
        for state in zeta_states()
    )
    distance = sup_norm_report(g, identity(1)).value
    return SixStateReport(eps, distance, SIX_STATE_IDENTITY_COEFF * eps)


@dataclass(frozen=True)
class TwoAxisReport(_BoundCheck):
    """Bound check: +-u, +-v nearly fixed forces ||G - I|| <= 241 eps."""

    requested_eps: float
    effective_eps: float
    hypothesis_met: bool
    distance: float
    bound: float


def check_two_axis_identity_bound(g: Channel, u, v, eps: float) -> TwoAxisReport:
    """Check the two-axis identity bound for a CP map nearly fixing two axes.

    u and v must be orthogonal unit Bloch vectors.  The hypothesis deviation
    is measured on the affine images of +-u and +-v; if it exceeds the
    requested eps the check proceeds with the measured value (flagged).
    """
    if g.n != 1:
        raise ValueError(f"two-axis bound applies to one-qubit maps, got n={g.n}")
    if not g.is_cp:
        raise ValueError("two-axis bound assumes a completely positive map")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, vec in (("u", u), ("v", v)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a unit Bloch vector")
    if abs(float(u @ v)) > 1e-9:
        raise ValueError("u and v must be orthogonal")
    affine = affine_of_channel(g)
    effective = max(
        float(np.linalg.norm(affine(point) - point))
        for point in (u, -u, v, -v)
    )
    hypothesis_met = effective <= eps + 1e-12
    used = eps if hypothesis_met else effective
    return TwoAxisReport(
        requested_eps=eps,
        effective_eps=effective,
        hypothesis_met=hypothesis_met,
        distance=sup_norm_report(g, identity(1)).value,
        bound=TWO_AXIS_IDENTITY_COEFF * used,
    )


@dataclass(frozen=True)
class ChainLink(_BoundCheck):
    _MEASURED = "value"

    name: str
    value: float
    bound: float


@dataclass(frozen=True)
class ChainProbeReport:
    eps: float
    phi: float
    links: tuple[ChainLink, ...]

    @property
    def all_hold(self) -> bool:
        return all(link.holds for link in self.links)


def hadamard_robustness_probe(g: Channel) -> ChainProbeReport:
    """Walk the sqrt-law argument for one candidate hadamard-like gate.

    From the measured equation violation eps, check the three quantitative
    links: the image of |0> is within 10 sqrt(eps) of a pure equator state,
    undoing the matched family member moves four probe states by at most
    19 sqrt(eps) each, and the gate sits within 4579 sqrt(eps) of that member.
    """
    if g.n != 1:
        raise ValueError(f"the hadamard family lives on one qubit, got n={g.n}")
    eqset: EquationSet = family_equations(hadamard_family())
    eps = max_violation(eqset, (g,))
    root = math.sqrt(eps)

    image = g.apply(DensityMatrix.basis("0"))
    ball = to_bloch(image)
    equator = np.array([ball[0], ball[1], 0.0])
    norm = float(np.linalg.norm(equator))
    direction = equator / norm if norm > 1e-15 else np.array([1.0, 0.0, 0.0])
    target = from_bloch(direction)
    equator_distance = trace_norm(image.matrix - target.matrix)

    phi = math.atan2(direction[1], direction[0]) % (2.0 * math.pi)
    member = hadamard(phi)
    undone = compose(member, g)  # the member is an involution
    probes = [
        DensityMatrix.basis("0"),
        DensityMatrix.basis("1"),
        member.apply(DensityMatrix.basis("0")),
        member.apply(DensityMatrix.basis("1")),
    ]
    four_state = max(
        trace_norm(undone.apply_matrix(p.matrix) - p.matrix) for p in probes
    )
    distance = sup_norm_report(g, member).value

    links = (
        ChainLink("equator_image", equator_distance, 10.0 * root),
        ChainLink("four_state_undo", four_state, 19.0 * root),
        ChainLink("member_distance", distance, HADAMARD_ROBUSTNESS_COEFF * root),
    )
    return ChainProbeReport(eps=eps, phi=phi, links=links)
