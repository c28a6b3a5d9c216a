"""Gate families closed under the unobservable symmetries.

A family collects the gate tuples that no interference experiment on
computational-basis preparations and measurements can tell apart: the free
parameters are the equator longitude ``phi`` (conjugate-basis freedom, shared
by every member gate built from the same basis) and, where a phase rotation is
involved, the sign of its angle.  ``dist_to_family`` minimises the worst
per-gate superoperator distance over those parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from scipy.optimize import minimize_scalar

from .channel import (
    Channel,
    cnot,
    hadamard,
    not_gate,
    phase_gate,
    rotation_gate,
    sup_norm_report,
)
from .equations import (
    EquationSet,
    cnot_equations,
    hadamard_equations,
    not_equations,
    phase_equations,
    rotation_equations,
)

# Coefficient of sqrt(eps) in the proven distance bound for the hadamard
# family: any gate eps-satisfying its three equations is within
# HADAMARD_ROBUSTNESS_COEFF * sqrt(eps) of some member.
HADAMARD_ROBUSTNESS_COEFF = 4579.0

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FamilySpec:
    """Everything the package knows about one gate family.

    ``members`` holds ``(build, phi_dependent)`` per gate, in tuple order, where
    ``build(family, alpha, phi)`` gets the signed angle in radians;
    ``equations(family)`` lists the defining equations.  Families that take an
    alpha have both angle signs as members.
    """

    members: tuple[tuple[Callable[[Family, float, float], Channel], bool], ...]
    equations: Callable[[Family], list]
    takes_alpha: bool = False
    takes_theta: bool = False
    default_alpha: Fraction | None = None
    sqrt_law_coeff: float | None = None


# The builders look the gate constructors up when they run, so rebinding a
# module attribute (as a tracer does) reaches every family.
_H = (lambda fam, alpha, phi: hadamard(phi), True)
_PHASE = (lambda fam, alpha, phi: phase_gate(alpha), False)
_CNOT = (lambda fam, alpha, phi: cnot(phi), True)

FAMILIES = {
    "hadamard": FamilySpec(
        members=(_H,),
        equations=lambda fam: hadamard_equations(0, 1),
        sqrt_law_coeff=HADAMARD_ROBUSTNESS_COEFF,
    ),
    "rotation": FamilySpec(
        members=((lambda fam, alpha, phi: rotation_gate(alpha, fam.theta, phi), True),),
        equations=lambda fam: rotation_equations(fam.alpha, fam.theta, var=0, arity=1),
        takes_alpha=True,
        takes_theta=True,
    ),
    "h-not": FamilySpec(
        members=(_H, (lambda fam, alpha, phi: not_gate(phi), True)),
        equations=lambda fam: hadamard_equations(0, 2) + not_equations(0, 1, 2),
    ),
    "h-phase": FamilySpec(
        members=(_H, _PHASE),
        equations=lambda fam: hadamard_equations(0, 2)
        + phase_equations(fam.alpha, 0, 1, 2),
        takes_alpha=True,
    ),
    "h-cnot": FamilySpec(
        members=(_H, _CNOT),
        equations=lambda fam: hadamard_equations(0, 2) + cnot_equations(0, 1, 2),
    ),
    "h-phase-cnot": FamilySpec(
        members=(_H, _PHASE, _CNOT),
        equations=lambda fam: hadamard_equations(0, 3)
        + phase_equations(fam.alpha, 0, 1, 3)
        + cnot_equations(0, 2, 3),
        takes_alpha=True,
        default_alpha=Fraction(1, 4),
    ),
}
FAMILY_KINDS = tuple(FAMILIES)


@dataclass(frozen=True)
class Family:
    """A named gate family, with the rotation parameters where they apply.

    * ``hadamard`` — single equator-axis involution H_phi.
    * ``rotation`` — single rotation by +-alpha about a theta-latitude axis;
      needs ``alpha`` (a reduced rational multiple of pi in (0, 1]) and
      ``theta`` in (0, pi/2], excluding the NOT point (pi, pi/2).
    * ``h-not`` — pair (H_phi, NOT_phi), shared phi.
    * ``h-phase`` — pair (H_phi, phase(+-alpha)); needs ``alpha``.
    * ``h-cnot`` — pair (H_phi, CNOT_phi), shared phi.
    * ``h-phase-cnot`` — triple (H_phi, phase(+-alpha), CNOT_phi), shared phi;
      ``alpha`` defaults to pi/4.
    """

    kind: str
    alpha: Fraction | None = None
    theta: float | None = None

    def __post_init__(self):
        spec = FAMILIES.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if spec.takes_alpha:
            if self.alpha is None:
                raise ValueError(f"family {self.kind!r} needs an alpha fraction of pi")
            frac = Fraction(self.alpha)
            if not 0 < frac <= 1:
                raise ValueError(f"alpha must satisfy 0 < alpha <= pi, got {frac}*pi")
            object.__setattr__(self, "alpha", frac)
        elif self.alpha is not None:
            raise ValueError(f"family {self.kind!r} takes no alpha parameter")
        if spec.takes_theta:
            if self.theta is None:
                raise ValueError(f"{self.kind} family needs a latitude theta")
            th = float(self.theta)
            if not 0.0 < th <= math.pi / 2.0 + 1e-12:
                raise ValueError(f"theta must lie in (0, pi/2], got {th}")
            if self.alpha == 1 and abs(th - math.pi / 2.0) < 1e-12:
                raise ValueError(
                    "alpha = pi with theta = pi/2 is the NOT gate, which this "
                    "family cannot pin down; use the h-not family instead"
                )
            object.__setattr__(self, "theta", th)
        elif self.theta is not None:
            raise ValueError(f"family {self.kind!r} takes no theta parameter")

    @property
    def spec(self) -> FamilySpec:
        return FAMILIES[self.kind]

    @property
    def arity(self) -> int:
        return len(self.spec.members)

    @property
    def alpha_radians(self) -> float:
        return float(self.alpha) * math.pi if self.alpha is not None else 0.0

    @property
    def label(self) -> str:
        if self.spec.takes_theta:
            return f"{self.kind}({self.alpha}pi,{self.theta:.12g})"
        if self.spec.takes_alpha:
            return f"{self.kind}({self.alpha}pi)"
        return self.kind

    @property
    def signs(self) -> tuple[int, ...]:
        return (1, -1) if self.spec.takes_alpha else (1,)


def hadamard_family() -> Family:
    return Family("hadamard")


def rotation_family(a: int, b: int, theta: float) -> Family:
    return Family("rotation", alpha=Fraction(a, b), theta=theta)


def h_not_family() -> Family:
    return Family("h-not")


def h_phase_family(a: int, b: int) -> Family:
    return Family("h-phase", alpha=Fraction(a, b))


def h_cnot_family() -> Family:
    return Family("h-cnot")


def triple_family(a: int = 1, b: int = 4) -> Family:
    return Family("h-phase-cnot", alpha=Fraction(a, b))


def family_equations(family: Family) -> EquationSet:
    """The built-in defining equation set of a gate family.

    Every set is exactly satisfied by every member of its family (any phi,
    either sign), which is what makes the non-identifiable parameters truly
    unobservable.
    """
    return EquationSet(tuple(family.spec.equations(family)), family=family.label)


def sqrt_law_radius(label, eps: float) -> float | None:
    """Proven distance radius coeff * sqrt(eps) of the family named label, or None."""
    spec = FAMILIES.get(label) if isinstance(label, str) else None
    if spec is None or spec.sqrt_law_coeff is None:
        return None
    return spec.sqrt_law_coeff * math.sqrt(eps)


def _components(family: Family, sign: int):
    """(builder(phi) -> Channel, phi_dependent) per member gate, in order."""
    alpha = sign * family.alpha_radians
    return [(partial(build, family, alpha), dep) for build, dep in family.spec.members]


def member_gates(family: Family, phi: float, sign: int = 1) -> tuple[Channel, ...]:
    """The family member at equator longitude phi and angle sign."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return tuple(builder(phi) for builder, _ in _components(family, sign))


@dataclass
class FamilyFit:
    """Best family member found: worst-gate distance and the argmin parameters."""

    distance: float
    phi: float
    sign: int
    converged: bool


def dist_to_family(
    gates,
    family: Family,
    *,
    grid_points: int = 256,
    starts: int = 64,
    grid_starts: int = 16,
    phi_tol: float = 1e-6,
    seed: int = 0,
) -> FamilyFit:
    """Minimise the worst per-gate superoperator distance over the family.

    Coarse phi grid (with cheaper multistarts) followed by bounded scalar
    refinement of the best bracket down to phi_tol; sign choices are
    enumerated.  The returned distance is re-evaluated with the full number of
    starts, so it is a certified lower bound at the reported member.
    """
    if isinstance(gates, Channel):
        gates = (gates,)
    gates = tuple(gates)
    if len(gates) != family.arity:
        raise ValueError(
            f"family {family.label} has arity {family.arity}, got {len(gates)} gates"
        )

    best: FamilyFit | None = None
    for sign in family.signs:
        comps = _components(family, sign)
        for gate, (builder, _) in zip(gates, comps):
            probe = builder(0.0)
            if gate.n != probe.n:
                raise ValueError(
                    f"gate acts on {gate.n} qubits where the family member "
                    f"acts on {probe.n}"
                )

        static = [
            sup_norm_report(g, builder(0.0), starts=starts, seed=seed).value
            for g, (builder, dep) in zip(gates, comps)
            if not dep
        ]
        floor = max(static) if static else 0.0

        def objective(phi: float, n_starts: int) -> float:
            worst = floor
            for g, (builder, dep) in zip(gates, comps):
                if not dep:
                    continue
                val = sup_norm_report(g, builder(phi), starts=n_starts, seed=seed).value
                worst = max(worst, val)
            return worst

        step = TWO_PI / grid_points
        grid_vals = [objective(j * step, grid_starts) for j in range(grid_points)]
        j_best = int(min(range(grid_points), key=grid_vals.__getitem__))
        lo = (j_best - 1) * step
        hi = (j_best + 1) * step
        res = minimize_scalar(
            lambda phi: objective(phi, starts),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": phi_tol},
        )
        phi_star = float(res.x) % TWO_PI

        converged = True
        worst = floor
        for g, (builder, dep) in zip(gates, comps):
            report = sup_norm_report(g, builder(phi_star), starts=starts, seed=seed)
            if report.value >= worst:
                worst = report.value
            converged = converged and report.converged
        if best is None or worst < best.distance:
            best = FamilyFit(worst, phi_star, sign, converged)
    return best
