"""Sampling self-tester for gate families.

Given oracle access to an unknown gate tuple and a defining equation set, the
tester estimates every equation's outcome probability and passes iff every
estimate is within 2 eps / 3 of the (rationalised) target constant.  With the
sample plan below this gives, with success probability at least 2/3:

* completeness — any tuple within eps / (3 k_max) of the family passes;
* soundness — any tuple that passes eps-satisfies the equations, so for an
  (eps, delta)-robust set it lies within delta of the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .equations import EquationSet
from .families import sqrt_law_radius
from .oracle import Oracle

MAX_TOTAL_QUERIES = 10**9


@dataclass(frozen=True)
class TesterPlan:
    eps: float
    d: int
    per_eq_samples: int
    total_queries: int


def plan_samples(d: int, eps: float) -> TesterPlan:
    """Per-equation sample count ceil(18 ln(6 d) / eps^2).

    Two-sided Hoeffding: 2 exp(-2 n (eps/6)^2) <= 1/(3 d) needs
    n >= 18 ln(6 d) / eps^2, so each estimate is within eps/6 of its mean
    except with probability 1/(3 d); a union bound leaves 2/3 overall.

    A plan above ``MAX_TOTAL_QUERIES`` raises ``ValueError`` naming the least
    eps within it, also when eps is so small that the count overflows a float.
    """
    if d < 1:
        raise ValueError(f"need at least one equation, got d={d}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    square = eps * eps
    per = 18.0 * math.log(6.0 * d) / square if square else math.inf
    # d * ceil(per) > MAX exactly when per > MAX // d.
    if per > MAX_TOTAL_QUERIES // d:
        needs = d * math.ceil(per) if per < math.inf else "more than 1e308"
        required = math.sqrt(18.0 * math.log(6.0 * d) * d / MAX_TOTAL_QUERIES)
        raise ValueError(
            f"plan needs {needs} queries, above the "
            f"{MAX_TOTAL_QUERIES} budget; use eps >= {required:.6g}"
        )
    per = math.ceil(per)
    return TesterPlan(eps=eps, d=d, per_eq_samples=per, total_queries=d * per)


def round_constant(r: float, eps: float) -> Fraction:
    """Nearest rational to r on the grid of multiples of 1/(2 ceil(6/eps)).

    The grid step is at most eps/12, so the result is within eps/24 of r —
    comfortably inside the eps/6 budget — and 0, 1/2 and 1 are exactly
    representable for every eps.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"constant must lie in [0, 1], got {r}")
    q = 2 * math.ceil(6.0 / eps)
    return Fraction(round(r * q), q)


def violation_bound_from_distance(eqset: EquationSet, dist: float) -> float:
    """Worst equation violation a tuple at this family distance can exhibit.

    Each gate application moves the state by at most dist in trace norm and
    channels are contractive, so a word of length k drifts by at most k dist.
    """
    return eqset.k_max * float(dist)


@dataclass(frozen=True)
class EquationCheck:
    estimate: float
    rounded_constant: Fraction
    deviation: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.threshold

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "rounded_constant": f"{self.rounded_constant.numerator}/"
            f"{self.rounded_constant.denominator}",
            "rounded_constant_value": float(self.rounded_constant),
            "deviation": self.deviation,
            "threshold": self.threshold,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class TesterVerdict:
    verdict: str
    eps: float
    per_eq: tuple[EquationCheck, ...]
    queries_used: int
    plan: TesterPlan
    delta1: float
    delta2: float | None
    delta2_note: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "eps": self.eps,
            "per_eq": [c.to_dict() for c in self.per_eq],
            "queries_used": self.queries_used,
            "per_eq_samples": self.plan.per_eq_samples,
            "guarantee": {
                "pass_within_distance": self.delta1,
                "fail_beyond_distance": self.delta2,
                "note": self.delta2_note,
            },
        }


def run_tester(
    oracle: Oracle, eqset: EquationSet, eps: float, delta: float | None = None
) -> TesterVerdict:
    """One tester run: estimate every equation, compare against 2 eps / 3.

    ``delta`` optionally supplies the robustness radius of the equation set,
    a finite number >= 0; a family with a proven sqrt-law bound uses that
    bound by default.  The verdict is a deterministic function of the oracle
    seed, the equation set and eps (fresh oracle assumed).
    """
    if delta is not None and not 0.0 <= float(delta) < math.inf:
        raise ValueError(f"delta must be a finite radius >= 0, got {delta}")
    plan = plan_samples(eqset.d, eps)
    if len(oracle.gates) != eqset.arity:
        raise ValueError(
            f"oracle holds {len(oracle.gates)} gates, equations need {eqset.arity}"
        )
    threshold = 2.0 * eps / 3.0
    checks = []
    for eq in eqset.equations:
        estimate = oracle.estimate(eq, plan.per_eq_samples)
        target = round_constant(eq.r, eps)
        deviation = abs(estimate - float(target))
        checks.append(EquationCheck(estimate, target, deviation, threshold))
    verdict = "PASS" if all(c.ok for c in checks) else "FAIL"
    delta1 = eps / (3.0 * eqset.k_max)
    if delta is not None:
        delta2 = float(delta)
        note = "caller-supplied robustness radius"
    elif (delta2 := sqrt_law_radius(eqset.family, eps)) is not None:
        note = f"sqrt-law robustness bound for the {eqset.family} family"
    else:
        note = (
            "a finite robustness radius exists for every built-in set, but no "
            "explicit constant is computed here; pass delta to quantify"
        )
    return TesterVerdict(
        verdict=verdict,
        eps=eps,
        per_eq=tuple(checks),
        queries_used=plan.total_queries,
        plan=plan,
        delta1=delta1,
        delta2=delta2,
        delta2_note=note,
    )
