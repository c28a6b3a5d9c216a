import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gateselftest import (
    Family,
    Oracle,
    family_equations,
    hadamard,
    measurement,
    member_gates,
    plan_samples,
    round_constant,
    run_tester,
    violation_bound_from_distance,
)
from gateselftest.tester import MAX_TOTAL_QUERIES

HSET = family_equations(Family("hadamard"))


# ---------------------------------------------------------------------------
# sample planning


def test_plan_reference_values():
    plan = plan_samples(3, 0.1)
    assert plan.per_eq_samples == 5203
    assert plan.total_queries == 15609
    assert plan_samples(1, 1.0).per_eq_samples == 33
    assert plan_samples(3, 0.05).per_eq_samples == 20811


def test_plan_matches_ceiling_formula():
    for d in (1, 2, 5, 12, 40):
        for eps in (1.0, 0.31, 0.1, 0.05):
            per = plan_samples(d, eps).per_eq_samples
            assert per == math.ceil(18.0 * math.log(6.0 * d) / eps**2)


def test_plan_quadruples_when_eps_halves():
    for d in (1, 3, 16):
        for eps in (0.8, 0.2, 0.06):
            base = plan_samples(d, eps).per_eq_samples
            fine = plan_samples(d, eps / 2.0).per_eq_samples
            assert 4 * base - 3 <= fine <= 4 * base


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_samples(0, 0.1)
    with pytest.raises(ValueError):
        plan_samples(3, 0.0)
    with pytest.raises(ValueError):
        plan_samples(3, 1.5)


# ---------------------------------------------------------------------------
# constant rounding


def test_round_constant_half_is_exact():
    for eps in (1.0, 0.3, 0.1, 0.05, 0.017):
        assert round_constant(0.5, eps) == Fraction(1, 2)
        assert round_constant(0.0, eps) == 0
        assert round_constant(1.0, eps) == 1


def test_round_constant_error_budget():
    rng = np.random.default_rng(50)
    for eps in (0.7, 0.1, 0.03):
        for r in rng.uniform(0.0, 1.0, size=50):
            rounded = round_constant(float(r), eps)
            assert abs(float(rounded) - r) <= eps / 24.0 + 1e-15


def test_round_constant_specific_grid():
    # eps = 0.1 uses the grid of multiples of 1/120
    assert round_constant(0.85355339, 0.1) == Fraction(17, 20)
    assert round_constant(0.33, 0.1) == Fraction(1, 3)  # 40/120 is closest


def test_round_constant_validation():
    with pytest.raises(ValueError):
        round_constant(0.5, 0.0)
    with pytest.raises(ValueError):
        round_constant(1.2, 0.1)


# ---------------------------------------------------------------------------
# violation bound


def test_violation_bound_scales_with_word_length():
    assert violation_bound_from_distance(HSET, 0.25) == pytest.approx(0.5)
    eqset = family_equations(Family("h-not"))
    assert violation_bound_from_distance(eqset, 0.1) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# tester runs


def test_exact_member_passes():
    oracle = Oracle(hadamard(1.0), seed=7)
    verdict = run_tester(oracle, HSET, eps=0.1)
    assert verdict.passed
    assert verdict.verdict == "PASS"
    assert verdict.queries_used == 15609
    assert oracle.query_count == 15609
    assert len(verdict.per_eq) == 3
    for check in verdict.per_eq:
        assert check.ok
        assert check.threshold == pytest.approx(2.0 * 0.1 / 3.0)
        assert check.deviation <= check.threshold
    assert verdict.delta1 == pytest.approx(0.1 / 6.0)
    assert verdict.delta2 == pytest.approx(4579.0 * math.sqrt(0.1))


def test_measurement_impostor_fails():
    oracle = Oracle(measurement(1), seed=3)
    verdict = run_tester(oracle, HSET, eps=0.1)
    assert not verdict.passed
    # the single-application equation is the one that trips
    assert not verdict.per_eq[0].ok
    assert verdict.per_eq[0].deviation >= 0.4


def test_caller_supplied_delta():
    oracle = Oracle(hadamard(0.0), seed=1)
    verdict = run_tester(oracle, HSET, eps=0.2, delta=0.25)
    assert verdict.delta2 == 0.25
    assert "caller" in verdict.delta2_note


def test_delta_must_be_a_finite_nonnegative_radius():
    # a NaN or infinite radius would reach the report as NaN or Infinity,
    # which is not JSON; a zero radius is a valid claim
    for delta in (math.nan, math.inf, -math.inf, -1.0):
        oracle = Oracle(hadamard(0.0), seed=1)
        with pytest.raises(ValueError, match="delta"):
            run_tester(oracle, HSET, eps=0.2, delta=delta)
        assert oracle.query_count == 0
    verdict = run_tester(Oracle(hadamard(0.0), seed=1), HSET, eps=0.2, delta=0)
    assert verdict.delta2 == 0.0


def test_non_hadamard_family_has_no_default_radius():
    eqset = family_equations(Family("h-not"))
    oracle = Oracle(member_gates(Family("h-not"), 0.5), seed=2)
    verdict = run_tester(oracle, eqset, eps=0.3)
    assert verdict.passed
    assert verdict.delta2 is None
    assert "delta" in verdict.delta2_note


def test_query_budget_refusal():
    eqset = family_equations(Family("h-not"))  # d = 7
    oracle = Oracle(member_gates(Family("h-not"), 0.0), seed=0)
    with pytest.raises(ValueError) as err:
        run_tester(oracle, eqset, eps=0.0005)
    assert str(MAX_TOTAL_QUERIES) in str(err.value)
    assert "eps" in str(err.value)


@pytest.mark.parametrize("eps", [1e-300, 1e-155])
def test_plan_refuses_an_eps_whose_count_overflows(eps):
    # eps * eps underflows to 0 (1e-300) or the float count to inf (1e-155);
    # the plan is over the budget all the same
    with pytest.raises(ValueError, match=f"above the {MAX_TOTAL_QUERIES} budget"):
        plan_samples(16, eps)


def test_plan_refuses_exactly_the_plans_above_the_budget():
    d = 16
    required = math.sqrt(18.0 * math.log(6.0 * d) * d / MAX_TOTAL_QUERIES)
    for eps in np.linspace(0.999 * required, 1.001 * required, 201):
        per = math.ceil(18.0 * math.log(6.0 * d) / (eps * eps))
        if d * per > MAX_TOTAL_QUERIES:
            with pytest.raises(ValueError, match=f"plan needs {d * per} queries"):
                plan_samples(d, eps)
        else:
            assert plan_samples(d, eps).total_queries == d * per


def test_budget_refusal_threshold_is_tight():
    # the suggested eps from the refusal message must itself be feasible
    d = HSET.d
    required = math.sqrt(18.0 * math.log(6.0 * d) * d / MAX_TOTAL_QUERIES)
    assert plan_samples(d, required * 1.0001).total_queries <= MAX_TOTAL_QUERIES


def test_arity_mismatch():
    oracle = Oracle(hadamard(0.0), seed=0)
    with pytest.raises(ValueError):
        run_tester(oracle, family_equations(Family("h-not")), eps=0.3)


def test_verdict_serialisation():
    oracle = Oracle(hadamard(0.0), seed=5)
    verdict = run_tester(oracle, HSET, eps=0.25)
    payload = verdict.to_dict()
    assert payload["verdict"] == "PASS"
    assert payload["per_eq"][0]["rounded_constant"] == "1/2"
    assert payload["per_eq"][0]["rounded_constant_value"] == 0.5
    assert set(payload["guarantee"]) == {
        "pass_within_distance",
        "fail_beyond_distance",
        "note",
    }
    json.dumps(payload)  # JSON compatible


def test_runs_are_bit_for_bit_deterministic():
    first = run_tester(Oracle(hadamard(0.3), seed=21), HSET, eps=0.15)
    second = run_tester(Oracle(hadamard(0.3), seed=21), HSET, eps=0.15)
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_pass_rate_over_seeds():
    passes = sum(
        run_tester(Oracle(hadamard(0.7), seed=s), HSET, eps=0.2).passed
        for s in range(30)
    )
    assert passes == 30  # exact members clear the threshold with huge margin
