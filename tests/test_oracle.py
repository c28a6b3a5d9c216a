import numpy as np
import pytest

from gateselftest import (
    Channel,
    Oracle,
    family_equations,
    h_not_family,
    hadamard,
    hadamard_family,
    identity,
    measurement,
    not_gate,
    transpose_map,
)
from gateselftest import oracle as oracle_module

HSET = family_equations(hadamard_family())
EQ_HALF = HSET.equations[0]  # single application, probability 1/2
EQ_ONE = HSET.equations[1]  # double application back to |0>, probability 1
EQ_ZERO = HSET.equations[2]  # double application from |1>, probability 0


def test_oracle_rejects_invalid_gates():
    with pytest.raises(ValueError):
        Oracle((transpose_map(),), seed=0)  # not completely positive
    with pytest.raises(ValueError):
        Oracle((Channel(0.5 * identity(1).choi),), seed=0)  # not trace preserving
    with pytest.raises(ValueError):
        Oracle((), seed=0)


def test_single_gate_needs_no_tuple():
    oracle = Oracle(hadamard(0.0), seed=1)
    assert len(oracle.gates) == 1


def test_query_counting():
    oracle = Oracle(hadamard(0.0), seed=2)
    for _ in range(5):
        oracle.query(EQ_HALF)
    oracle.estimate(EQ_HALF, 1000)
    assert oracle.query_count == 1005


def test_estimate_needs_positive_samples():
    oracle = Oracle(hadamard(0.0), seed=3)
    with pytest.raises(ValueError):
        oracle.estimate(EQ_HALF, 0)


def test_deterministic_outcomes_for_certain_equations():
    oracle = Oracle(hadamard(0.4), seed=4)
    assert all(oracle.query(EQ_ONE) == 1 for _ in range(50))
    assert all(oracle.query(EQ_ZERO) == 0 for _ in range(50))
    assert oracle.estimate(EQ_ONE, 200) == 1.0
    assert oracle.estimate(EQ_ZERO, 200) == 0.0


def test_same_seed_reproduces_bits():
    a = Oracle(hadamard(0.0), seed=99)
    b = Oracle(hadamard(0.0), seed=99)
    assert [a.query(EQ_HALF) for _ in range(64)] == [
        b.query(EQ_HALF) for _ in range(64)
    ]
    assert a.estimate(EQ_HALF, 500) == b.estimate(EQ_HALF, 500)


def test_different_seeds_give_different_bits():
    a = [Oracle(hadamard(0.0), seed=5).query(EQ_HALF) for _ in range(64)]
    b = [Oracle(hadamard(0.0), seed=6).query(EQ_HALF) for _ in range(64)]
    assert a != b


def test_equation_streams_are_order_independent():
    # per-equation substreams: interleaving or reordering other equations
    # must not change any equation's own draws
    a = Oracle(hadamard(0.0), seed=7)
    first = a.estimate(EQ_HALF, 500)
    a.estimate(EQ_ONE, 500)
    second = a.estimate(EQ_HALF, 500)

    b = Oracle(hadamard(0.0), seed=7)
    b.estimate(EQ_ONE, 123)
    b_first = b.estimate(EQ_HALF, 500)
    b_second = b.estimate(EQ_HALF, 500)

    assert first == b_first
    assert second == b_second


def test_estimate_equals_averaged_queries():
    a = Oracle(hadamard(0.0), seed=8)
    bits = [a.query(EQ_HALF) for _ in range(200)]
    b = Oracle(hadamard(0.0), seed=8)
    assert b.estimate(EQ_HALF, 200) == pytest.approx(sum(bits) / 200.0, abs=1e-15)


def test_chunked_estimate_matches_one_shot_draw(monkeypatch):
    samples = 2 * oracle_module.ESTIMATE_CHUNK + 123
    chunked = Oracle(hadamard(0.0), seed=12)
    p_chunked = chunked.estimate(EQ_HALF, samples)
    monkeypatch.setattr(oracle_module, "ESTIMATE_CHUNK", samples)
    one_shot = Oracle(hadamard(0.0), seed=12)
    assert one_shot.estimate(EQ_HALF, samples) == p_chunked
    # both streams continue from the same position
    bits = [chunked.query(EQ_HALF) for _ in range(64)]
    assert bits == [one_shot.query(EQ_HALF) for _ in range(64)]


def test_estimate_concentrates_on_true_probability():
    oracle = Oracle(hadamard(0.0), seed=9)
    p_hat = oracle.estimate(EQ_HALF, 100_000)
    assert 0.494 <= p_hat <= 0.506


def test_multi_gate_oracle():
    eqset = family_equations(h_not_family())
    oracle = Oracle((hadamard(0.0), not_gate(0.0)), seed=10)
    # the NOT truth-table equation is certain for an exact member
    eq = next(e for e in eqset.equations if e.r == 1.0 and e.size == 1)
    assert oracle.estimate(eq, 100) == 1.0


def test_measurement_oracle_matches_exact_probability():
    oracle = Oracle(measurement(1), seed=11)
    p_hat = oracle.estimate(EQ_HALF, 2000)
    assert p_hat == 1.0  # measurement leaves |0> untouched
