"""Robustness laboratory.

Empirical side of the theory: sweep noise strengths, compare the exact
equation violation eps against the optimised family distance, and check the
proven closeness bounds (the sqrt-law for the hadamard family, the six-state
and two-axis identity bounds, and the intermediate links of the sqrt-law
argument).  All comparisons allow OPTIMIZER_SLACK for the numerical distance
optimiser on top of the stated constants.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .bloch import affine_of_channel, from_bloch, to_bloch
from .channel import Channel, NoiseModel, apply_noise, compose, hadamard, identity, sup_norm_distance
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
    family: Family,
    noise_kind: str,
    strengths,
    base_gates=None,
    *,
    grid_points: int = 256,
    starts: int = 64,
    grid_starts: int = 16,
    seed: int = 0,
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
        fit = dist_to_family(
            noisy,
            family,
            grid_points=grid_points,
            starts=starts,
            grid_starts=grid_starts,
            seed=seed,
        )
        bound = sqrt_law_radius(family.label, eps)
        ratio = fit.distance / bound if bound else None
        records.append(
            ScanRecord(noise_kind, float(s), eps, fit.distance, bound, ratio)
        )
    return records


def _csv_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def write_scan_csv(records, destination) -> None:
    """Write scan records as CSV: fixed header, 12 significant digits, LF."""
    def _write(handle) -> None:
        handle.write(SCAN_CSV_HEADER + "\n")
        for r in records:
            handle.write(
                ",".join(
                    [
                        r.noise_kind,
                        f"{r.strength:.12g}",
                        f"{r.epsilon:.12g}",
                        f"{r.distance:.12g}",
                        _csv_cell(r.bound),
                        _csv_cell(r.ratio),
                    ]
                )
                + "\n"
            )

    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        with open(destination, "w", newline="\n") as handle:
            _write(handle)
    else:
        _write(destination)


def scan_csv_text(records) -> str:
    buf = io.StringIO()
    write_scan_csv(records, buf)
    return buf.getvalue()


@dataclass(frozen=True)
class ExponentFit:
    """Power-law fit distance ~ C * eps**k_inv from a log-log least-squares."""

    c: float
    k_inv: float
    residual: float
    points: int


def fit_exponent(records, *, min_points: int = 8, min_decades: float = 2.0) -> ExponentFit:
    """Fit log(distance) = log(C) + k_inv * log(eps) over usable records.

    Records with zero (or negative) eps or distance carry no log-log
    information and are dropped; the remainder must number at least
    ``min_points`` and span at least ``min_decades`` decades of eps.
    """
    eps = np.array([r.epsilon for r in records], dtype=float)
    dist = np.array([r.distance for r in records], dtype=float)
    usable = (eps > 0.0) & (dist > 0.0)
    eps, dist = eps[usable], dist[usable]
    if len(eps) < min_points:
        raise ValueError(
            f"need {min_points} records with positive eps and distance, "
            f"got {len(eps)}"
        )
    span = math.log10(eps.max() / eps.min())
    if span < min_decades:
        raise ValueError(
            f"eps values span {span:.2f} decades, need at least {min_decades}"
        )
    slope, intercept = np.polyfit(np.log(eps), np.log(dist), 1)
    resid = np.log(dist) - (intercept + slope * np.log(eps))
    rms = float(np.sqrt(np.mean(resid**2)))
    return ExponentFit(c=float(np.exp(intercept)), k_inv=float(slope), residual=rms, points=len(eps))


@dataclass(frozen=True)
class SixStateReport:
    """Bound check: all six axis states moved by <= eps forces ||G - I|| <= 8 eps."""

    eps: float
    distance: float
    bound: float
    margin: float
    holds: bool


def check_six_state_identity_bound(g: Channel, *, slack: float = OPTIMIZER_SLACK) -> SixStateReport:
    """Check the six-state identity bound on an arbitrary one-qubit superoperator."""
    if g.n != 1:
        raise ValueError(f"six-state bound applies to one-qubit maps, got n={g.n}")
    eps = max(
        trace_norm(g.apply_matrix(state.matrix) - state.matrix)
        for state in zeta_states()
    )
    distance = sup_norm_distance(g, identity(1))
    bound = SIX_STATE_IDENTITY_COEFF * eps
    return SixStateReport(
        eps=eps,
        distance=distance,
        bound=bound,
        margin=bound - distance,
        holds=distance <= bound + slack,
    )


@dataclass(frozen=True)
class TwoAxisReport:
    """Bound check: +-u, +-v nearly fixed forces ||G - I|| <= 241 eps."""

    requested_eps: float
    effective_eps: float
    hypothesis_met: bool
    distance: float
    bound: float
    margin: float
    holds: bool


def check_two_axis_identity_bound(
    g: Channel, u, v, eps: float, *, slack: float = OPTIMIZER_SLACK
) -> TwoAxisReport:
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
    distance = sup_norm_distance(g, identity(1))
    bound = TWO_AXIS_IDENTITY_COEFF * used
    return TwoAxisReport(
        requested_eps=eps,
        effective_eps=effective,
        hypothesis_met=hypothesis_met,
        distance=distance,
        bound=bound,
        margin=bound - distance,
        holds=distance <= bound + slack,
    )


@dataclass(frozen=True)
class ChainLink:
    name: str
    value: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class ChainProbeReport:
    eps: float
    phi: float
    links: tuple[ChainLink, ...]

    @property
    def all_hold(self) -> bool:
        return all(link.holds for link in self.links)


def hadamard_robustness_probe(g: Channel, *, slack: float = OPTIMIZER_SLACK) -> ChainProbeReport:
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
    distance = sup_norm_distance(g, member)

    links = (
        ChainLink(
            "equator_image",
            equator_distance,
            10.0 * root,
            equator_distance <= 10.0 * root + slack,
        ),
        ChainLink(
            "four_state_undo",
            four_state,
            19.0 * root,
            four_state <= 19.0 * root + slack,
        ),
        ChainLink(
            "member_distance",
            distance,
            HADAMARD_ROBUSTNESS_COEFF * root,
            distance <= HADAMARD_ROBUSTNESS_COEFF * root + slack,
        ),
    )
    return ChainProbeReport(eps=eps, phi=phi, links=links)
