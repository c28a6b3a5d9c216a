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

import numpy as np

from .channel import (
    Channel,
    cnot,
    gate_tuple,
    hadamard,
    not_gate,
    phase_gate,
    phase_orbit,
    phased,
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
# Brent's bounded search: golden-section ratio, relative x tolerance and
# evaluation cap, as in scipy's minimize_scalar(method="bounded").
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MAX_FEV = 500


@dataclass(frozen=True)
class FamilySpec:
    """Everything the package knows about one gate family.

    ``members`` holds ``(build, qubits)`` per gate, in tuple order, where
    ``build(family, alpha)`` gets the signed angle in radians and returns the
    member at phi = 0.  The member at phi is its orbit point
    ``phased(build(family, alpha), qubits, phi)``: phi conjugates it by
    ``diag(e^{i phi w})``, with ``w`` the Hamming weight on ``qubits``, so a
    member with no qubits does not depend on phi.  ``equations(family)`` lists
    the defining equations.  Families that take an alpha have both angle
    signs as members (one at alpha = pi), and ``Family`` applies
    ``default_alpha`` when it is given none.
    """

    members: tuple[tuple[Callable[[Family, float], Channel], tuple[int, ...]], ...]
    equations: Callable[[Family], list]
    takes_alpha: bool = False
    takes_theta: bool = False
    default_alpha: Fraction | None = None
    sqrt_law_coeff: float | None = None


# The builders look the gate constructors up when they run, so rebinding a
# module attribute (as a tracer does) reaches every family.
_H = (lambda fam, alpha: hadamard(), (0,))
_PHASE = (lambda fam, alpha: phase_gate(alpha), ())
_CNOT = (lambda fam, alpha: cnot(), (1,))

FAMILIES = {
    "hadamard": FamilySpec(
        members=(_H,),
        equations=lambda fam: hadamard_equations(0, fam.arity),
        sqrt_law_coeff=HADAMARD_ROBUSTNESS_COEFF,
    ),
    "rotation": FamilySpec(
        members=((lambda fam, alpha: rotation_gate(alpha, fam.theta, 0.0), (0,)),),
        equations=lambda fam: rotation_equations(fam.alpha, fam.theta, var=0, arity=fam.arity),
        takes_alpha=True,
        takes_theta=True,
    ),
    "h-not": FamilySpec(
        members=(_H, (lambda fam, alpha: not_gate(), (0,))),
        equations=lambda fam: hadamard_equations(0, fam.arity)
        + not_equations(0, 1, fam.arity),
    ),
    "h-phase": FamilySpec(
        members=(_H, _PHASE),
        equations=lambda fam: hadamard_equations(0, fam.arity)
        + phase_equations(fam.alpha, 0, 1, fam.arity),
        takes_alpha=True,
    ),
    "h-cnot": FamilySpec(
        members=(_H, _CNOT),
        equations=lambda fam: hadamard_equations(0, fam.arity)
        + cnot_equations(0, 1, fam.arity),
    ),
    "h-phase-cnot": FamilySpec(
        members=(_H, _PHASE, _CNOT),
        equations=lambda fam: hadamard_equations(0, fam.arity)
        + phase_equations(fam.alpha, 0, 1, fam.arity)
        + cnot_equations(0, 2, fam.arity),
        takes_alpha=True,
        default_alpha=Fraction(1, 4),
    ),
}


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

    ``alpha`` is in units of pi: a ``Fraction``, an ``int`` or a string such
    as ``"1/4"``.  A float or a bool (Python's or numpy's) is rejected, since
    a float would stand for its binary fraction and ``True`` would read as pi.
    ``theta`` is in radians; a bool of either kind is rejected, since ``True``
    would read as 1 rad.
    """

    kind: str
    alpha: Fraction | None = None
    theta: float | None = None

    def __post_init__(self):
        spec = FAMILIES.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if spec.takes_alpha:
            alpha = spec.default_alpha if self.alpha is None else self.alpha
            if alpha is None or isinstance(alpha, (float, bool, np.bool_)):
                raise ValueError(f"{self.kind} needs alpha as a fraction of pi, got {alpha!r}")
            frac = Fraction(alpha)
            if not 0 < frac <= 1:
                raise ValueError(f"alpha must satisfy 0 < alpha <= pi, got {frac}*pi")
            object.__setattr__(self, "alpha", frac)
        elif self.alpha is not None:
            raise ValueError(f"family {self.kind!r} takes no alpha parameter")
        if spec.takes_theta:
            if self.theta is None or isinstance(self.theta, (bool, np.bool_)):
                raise ValueError(f"{self.kind} needs a latitude theta, got {self.theta!r}")
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
        # phase(pi) and phase(-pi) are one channel, as are R(pi) and R(-pi),
        # so alpha = pi has one sign.
        return (1, -1) if self.spec.takes_alpha and self.alpha != 1 else (1,)


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
    return tuple(phased(build(family, alpha), q, phi) for build, q in family.spec.members)


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

    Each member is built once per sign, at phi = 0; every member at phi is
    its phase-orbit point (see ``FamilySpec``).  Per sign, a grid of
    PHI_GRID_POINTS longitudes picks the bracket that a bounded scalar search
    refines to PHI_TOL.  The grid and every search step evaluate the
    phi-dependent members at ``grid_starts`` ascent starts.  The
    phi-independent members and the final evaluation at the returned phi use
    ``sup_norm_report``'s full 64 starts, so the distance and ``converged``
    are full-start evaluations at the returned member, and the distance is a
    certified lower bound there: the search only decides where to certify.
    The returned ``phi`` is the minimiser the search found.  It is determined
    only where the distance is not flat in phi; on a flat stretch any phi in
    it is as good.

    Every member's distance is a lower bound on the worst one, so the signs
    (bounded by their phi-independent members) and the grid points (bounded
    by their 1-qubit members) are both searched by ``pruned_argmin``, and the
    result is the full search's, bit for bit.  A 1-qubit member's grid is one
    ``phase_orbit`` stack of differences for ``sup_norm_values``.

    Only the grid's argmin is read, so a grid ascent may stop once it can no
    longer be the argmin (see ``channel._ascent``).  The pass that completes
    the grid objective gets the members before it as a floor: the last
    1-qubit member, when the family has no 2-qubit member (H for hadamard
    and h-phase, the rotation gate for rotation, NOT for h-not over the
    statics and H).  A 1-qubit
    pass that later members still raise gets no floor, since its own argmin
    need not be the objective's.  Each 2-qubit grid visit gets the least
    value returned so far as its ``ceiling``.  A stopped value lies above a
    value that a finished evaluation attains, and ties never stop, so the
    argmin, the bracket and every later step are those of the full search.
    ``grid_starts`` stays a parameter, and search evaluations pass it as
    ``starts=`` by keyword, because ``bench/spans.py`` reads its default and
    that keyword to tell search evaluations (its "grid" label) from the
    full-start ones (its "refine" label).
    """
    gates = gate_tuple(gates)
    if len(gates) != family.arity:
        raise ValueError(
            f"family {family.label} has arity {family.arity}, got {len(gates)} gates"
        )
    built = [
        [build(family, sign * family.alpha_radians) for build, _ in family.spec.members]
        for sign in family.signs
    ]
    for gate, member in zip(gates, built[0]):
        if gate.n != member.n:
            raise ValueError(
                f"gate acts on {gate.n} qubits where the family member "
                f"acts on {member.n}"
            )
    # Gate and member qubit counts agree from here on.
    qubits = [q for _, q in family.spec.members]
    static = [i for i, q in enumerate(qubits) if not q]
    moving = [i for i, q in enumerate(qubits) if q]
    cheap = [i for i in moving if gates[i].n == 1]
    dear = [i for i in moving if gates[i].n > 1]

    def reports(index, phi, which, **search) -> list:
        return [
            sup_norm_report(gates[i], phased(built[index][i], qubits[i], phi), seed=seed, **search)
            for i in which
        ]

    def worst(floor, found) -> float:
        return max([floor, *(r.value for r in found)])

    statics = [reports(index, 0.0, static) for index in range(len(family.signs))]
    floors = [worst(0.0, found) for found in statics]
    step = TWO_PI / PHI_GRID_POINTS
    phis = np.arange(PHI_GRID_POINTS) * step
    fits: dict[int, FamilyFit] = {}

    def fit(index) -> float:
        sign, floor = family.signs[index], floors[index]
        lower = np.full(PHI_GRID_POINTS, floor)
        for i in cheap:
            deltas = gates[i].transfer - phase_orbit(built[index][i], qubits[i], phis)
            # Only the pass that completes the grid objective may stop above its argmin.
            completes = i == cheap[-1] and not dear
            values = sup_norm_values(
                deltas, starts=grid_starts, seed=seed, floor=lower if completes else None
            )
            lower = np.maximum(lower, values)
        least = math.inf

        def visit(j) -> float:
            nonlocal least
            found = reports(index, phis[j], dear, starts=grid_starts, ceiling=least)
            value = worst(lower[j], found)
            least = min(least, value)
            return value

        j_best, _ = pruned_argmin(lower, visit)
        res = minimize_scalar(
            lambda phi: worst(floor, reports(index, phi, moving, starts=grid_starts)),
            ((j_best - 1) * step, (j_best + 1) * step),
        )
        phi_star = res.x % TWO_PI
        final = statics[index] + reports(index, phi_star, moving)
        distance = max(r.value for r in final)
        fits[index] = FamilyFit(distance, phi_star, sign, all(r.converged for r in final))
        return distance

    index, _ = pruned_argmin(floors, fit)
    return fits[index]
