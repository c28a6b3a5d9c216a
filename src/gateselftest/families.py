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

from .channel import (
    Channel,
    cnot,
    hadamard,
    not_gate,
    phase_gate,
    rotation_gate,
    sup_norm_report,
    sup_norm_values,
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
# The 1-qubit grid evaluations run GRID_BLOCK phis per grouped ascent, which
# bounds the stack's peak memory.
GRID_BLOCK = 16
# Brent's bounded search: golden-section ratio, relative x tolerance and
# evaluation cap, as in scipy's minimize_scalar(method="bounded").
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_FEV = 500


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


@dataclass(frozen=True)
class ScalarMin:
    """Where ``minimize_scalar`` stopped, and how many evaluations it made."""

    x: float
    nfev: int


def minimize_scalar(func: Callable[[float], float], bounds) -> ScalarMin:
    """Minimise func on the interval bounds to PHI_TOL in x.

    Brent's bounded method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): parabolic steps through the three best points where
    they are acceptable, golden-section steps otherwise.  It makes the same
    steps as scipy's ``minimize_scalar(method="bounded")`` with ``xatol`` set to
    PHI_TOL, so it returns the same ``x`` after the same number of evaluations.
    """
    a, b = bounds
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = fnfc = ffulc = func(xf)
    nfev = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + PHI_TOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and nfev < _MAX_FEV:
        parabolic = False
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                parabolic = True
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        # A zero step of either sign goes up, as in scipy.
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = func(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + PHI_TOL / 3.0
        tol2 = 2.0 * tol1
    return ScalarMin(xf, nfev)


def pruned_argmin(lower: list[float], value: Callable[[int], float]) -> tuple[int, float]:
    """The lowest-index minimiser of value(j) over range(len(lower)), and its value.

    Needs ``lower[j] <= value(j)`` at every j.  Points are visited in ascending
    ``(lower[j], j)`` order, and the visit stops at the first point that can
    neither beat the best value found so far nor tie it at a lower index; every
    later point is then ruled out too.  So ``value`` runs only where it can
    still matter, and the result is that of the full scan.
    """
    j_best, best = len(lower), math.inf
    for j in sorted(range(len(lower)), key=lower.__getitem__):
        if lower[j] > best or (lower[j] == best and j > j_best):
            break
        v = value(j)
        if v < best or (v == best and j < j_best):
            j_best, best = j, v
    return j_best, best


def dist_to_family(gates, family: Family, *, grid_starts: int = 16, seed: int = 0) -> FamilyFit:
    """Minimise the worst per-gate superoperator distance over the family.

    Per sign, a grid of PHI_GRID_POINTS longitudes picks the bracket that a
    bounded scalar search refines to PHI_TOL.  The distance and ``converged``
    come from full-start evaluations at the returned member, so the distance
    is a certified lower bound there.

    Every member's distance is a lower bound on the worst one, so the signs
    (bounded by their phi-independent members) and the grid points (bounded
    by their 1-qubit members) are both searched by ``pruned_argmin``, and the
    result is the full search's, bit for bit.  The 1-qubit grid runs
    GRID_BLOCK phis per ``sup_norm_values`` stack, which bounds its memory.
    ``grid_starts`` stays a parameter, and grid evaluations pass it as
    ``starts=`` by keyword, because ``bench/spans.py`` reads its default and
    that keyword to tell grid evaluations from refinement ones.
    """
    if isinstance(gates, Channel):
        gates = (gates,)
    gates = tuple(gates)
    if len(gates) != family.arity:
        raise ValueError(
            f"family {family.label} has arity {family.arity}, got {len(gates)} gates"
        )
    static = [(g, build) for g, (build, dep) in zip(gates, family.spec.members) if not dep]
    moving = [(g, build) for g, (build, dep) in zip(gates, family.spec.members) if dep]
    for gate, build in static + moving:
        member = build(family, family.alpha_radians, 0.0)
        if gate.n != member.n:
            raise ValueError(
                f"gate acts on {gate.n} qubits where the family member "
                f"acts on {member.n}"
            )
    # Gate and member qubit counts agree from here on.
    cheap = [(g, build) for g, build in moving if g.n == 1]
    dear = [(g, build) for g, build in moving if g.n > 1]

    def reports(alpha, phi, members, **starts) -> list:
        return [
            sup_norm_report(g, build(family, alpha, phi), seed=seed, **starts)
            for g, build in members
        ]

    def worst(floor, found) -> float:
        return max([floor, *(r.value for r in found)])

    statics = [reports(sign * family.alpha_radians, 0.0, static) for sign in family.signs]
    floors = [worst(0.0, found) for found in statics]
    step = TWO_PI / PHI_GRID_POINTS
    phis = [j * step for j in range(PHI_GRID_POINTS)]
    fits: dict[int, FamilyFit] = {}

    def fit(index) -> float:
        sign, floor = family.signs[index], floors[index]
        alpha = sign * family.alpha_radians
        k, lower = len(cheap), []
        for first in range(0, PHI_GRID_POINTS, GRID_BLOCK):
            block = phis[first:first + GRID_BLOCK]
            values = sup_norm_values(
                [(g, build(family, alpha, phi)) for phi in block for g, build in cheap],
                starts=grid_starts,
                seed=seed,
            )
            lower += [max([floor, *values[i * k:(i + 1) * k]]) for i in range(len(block))]
        j_best, _ = pruned_argmin(
            lower, lambda j: worst(lower[j], reports(alpha, phis[j], dear, starts=grid_starts))
        )
        res = minimize_scalar(
            lambda phi: worst(floor, reports(alpha, phi, moving)),
            ((j_best - 1) * step, (j_best + 1) * step),
        )
        phi_star = res.x % TWO_PI
        final = statics[index] + reports(alpha, phi_star, moving)
        distance = max(r.value for r in final)
        fits[index] = FamilyFit(distance, phi_star, sign, all(r.converged for r in final))
        return distance

    index, _ = pruned_argmin(floors, fit)
    return fits[index]
