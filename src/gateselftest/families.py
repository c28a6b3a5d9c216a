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
# The phi search in dist_to_family: grid size and refinement tolerance.
PHI_GRID_POINTS = 256
PHI_TOL = 1e-6


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


def member_gates(family: Family, phi: float, sign: int = 1) -> tuple[Channel, ...]:
    """The family member at equator longitude phi and angle sign."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    alpha = sign * family.alpha_radians
    return tuple(build(family, alpha, phi) for build, _ in family.spec.members)


@dataclass
class FamilyFit:
    """Best family member found: worst-gate distance and the argmin parameters."""

    distance: float
    phi: float
    sign: int
    converged: bool


def dist_to_family(gates, family: Family, *, grid_starts: int = 16, seed: int = 0) -> FamilyFit:
    """Minimise the worst per-gate superoperator distance over the family.

    A coarse grid of PHI_GRID_POINTS longitudes, each evaluated with
    ``grid_starts`` multistarts, is followed by a bounded scalar refinement of
    the best bracket down to PHI_TOL with ``sup_norm_report``'s full number
    of starts; sign choices are enumerated.  Members that do not depend on phi
    are evaluated once per sign.  The reported distance and ``converged`` come
    from full-start evaluations at the returned member, so the distance is a
    certified lower bound there.  ``grid_starts`` stays a parameter, and grid
    evaluations pass it as ``starts=`` by keyword, because ``bench/spans.py``
    reads its default and that keyword to tell grid evaluations from
    refinement ones.
    """
    if isinstance(gates, Channel):
        gates = (gates,)
    gates = tuple(gates)
    if len(gates) != family.arity:
        raise ValueError(
            f"family {family.label} has arity {family.arity}, got {len(gates)} gates"
        )
    pairs = tuple(zip(gates, family.spec.members))

    best: FamilyFit | None = None
    for sign in family.signs:
        alpha = sign * family.alpha_radians

        def report(gate, build, phi, **starts):
            member = build(family, alpha, phi)
            if gate.n != member.n:
                raise ValueError(
                    f"gate acts on {gate.n} qubits where the family member "
                    f"acts on {member.n}"
                )
            return sup_norm_report(gate, member, seed=seed, **starts)

        static = [report(g, build, 0.0) for g, (build, dep) in pairs if not dep]
        floor = max((r.value for r in static), default=0.0)

        def objective(phi: float, **starts) -> float:
            values = [report(g, build, phi, **starts).value for g, (build, dep) in pairs if dep]
            return max([floor, *values])

        step = TWO_PI / PHI_GRID_POINTS
        grid_vals = [objective(j * step, starts=grid_starts) for j in range(PHI_GRID_POINTS)]
        j_best = min(range(PHI_GRID_POINTS), key=grid_vals.__getitem__)
        res = minimize_scalar(
            objective,
            bounds=((j_best - 1) * step, (j_best + 1) * step),
            method="bounded",
            options={"xatol": PHI_TOL},
        )
        phi_star = float(res.x) % TWO_PI

        final = static + [report(g, build, phi_star) for g, (build, dep) in pairs if dep]
        worst = max(r.value for r in final)
        if best is None or worst < best.distance:
            best = FamilyFit(worst, phi_star, sign, all(r.converged for r in final))
    return best
