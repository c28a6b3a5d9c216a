import numpy as np
import pytest

from gateselftest import (
    Channel,
    Family,
    Oracle,
    family_equations,
    hadamard,
    identity,
    measurement,
    member_gates,
    not_gate,
    probability_term,
    transpose_map,
)
from gateselftest import oracle as oracle_module

HSET = family_equations(Family("hadamard"))
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


def test_gates_may_come_from_any_iterable():
    # the oracle reads a gate tuple by the same rule as every other entry point
    h = hadamard(0.3)
    from_generator = Oracle((g for g in [h]), seed=1).estimate(EQ_HALF, 500)
    assert from_generator == Oracle((h,), seed=1).estimate(EQ_HALF, 500)


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


@pytest.mark.parametrize("samples", [2.5, 3.0, True, "3", None])
@pytest.mark.parametrize("eq", [EQ_HALF, EQ_ONE], ids=["uncertain", "certain"])
def test_estimate_needs_an_integer_sample_count(eq, samples):
    oracle = Oracle(hadamard(0.0), seed=3)
    with pytest.raises(ValueError, match="samples"):
        oracle.estimate(eq, samples)
    assert oracle.query_count == 0


def test_estimate_accepts_numpy_integers():
    a = Oracle(hadamard(0.0), seed=3)
    b = Oracle(hadamard(0.0), seed=3)
    assert a.estimate(EQ_HALF, np.int64(500)) == b.estimate(EQ_HALF, 500)
    assert a.estimate(EQ_ONE, np.uint32(7)) == 1.0
    assert a.query_count == 507


@pytest.mark.parametrize("eq", [EQ_ONE, EQ_ZERO], ids=["one", "zero"])
def test_certain_outcomes_draw_nothing(eq):
    seed = 4
    oracle = Oracle(hadamard(0.0), seed=seed)
    estimates = [oracle.estimate(eq, n) for n in (1, 500, oracle_module.ESTIMATE_CHUNK + 3)]
    assert estimates == [eq.r] * 3
    assert oracle.query_count == 1 + 500 + oracle_module.ESTIMATE_CHUNK + 3
    key = oracle_module._equation_key(eq)
    _, stream = oracle._experiments[key]
    assert stream.bit_generator.state == np.random.PCG64((seed, key)).state


def _reference_estimate(stream, p, samples, chunk=2**16):
    # Every run draws a uniform, certain outcomes too: the estimate as drawn
    # before certain outcomes stopped drawing.
    hits = 0
    for start in range(0, samples, chunk):
        hits += int(np.count_nonzero(stream.random(min(chunk, samples - start)) < p))
    return hits / samples


def test_estimates_equal_drawing_every_run():
    # An exact h-phase-cnot member has certain and uncertain equations; each
    # estimate must be the one a stream that draws for every run gives.
    seed = 900
    gates = member_gates(Family("h-phase-cnot"), 2.1, sign=-1)
    eqset = family_equations(Family("h-phase-cnot"))
    oracle = Oracle(gates, seed=seed)
    certain = 0
    for eq in eqset.equations:
        p = probability_term(eq, gates)
        certain += p in (0.0, 1.0)
        key = oracle_module._equation_key(eq)
        reference = np.random.Generator(np.random.PCG64((seed, key)))
        for samples in (1, 2**16 + 5, 3):
            expected = _reference_estimate(reference, p, samples)
            assert oracle.estimate(eq, samples) == expected
    assert 0 < certain < eqset.d


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


def test_seed_is_used_as_given():
    # no bits are dropped: 2**64 + 1 is not seed 1
    low = Oracle(hadamard(0.0), seed=1).estimate(EQ_HALF, 500)
    assert Oracle(hadamard(0.0), seed=2**64 + 1).estimate(EQ_HALF, 500) != low
    assert Oracle(hadamard(0.0), seed=np.uint64(1)).estimate(EQ_HALF, 500) == low


@pytest.mark.parametrize("seed", [-1, True, 1.5, "1"])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        Oracle(hadamard(0.0), seed=seed)


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
    eqset = family_equations(Family("h-not"))
    oracle = Oracle((hadamard(0.0), not_gate(0.0)), seed=10)
    # the NOT truth-table equation is certain for an exact member
    eq = next(e for e in eqset.equations if e.r == 1.0 and e.size == 1)
    assert oracle.estimate(eq, 100) == 1.0


def test_measurement_oracle_matches_exact_probability():
    oracle = Oracle(measurement(1), seed=11)
    p_hat = oracle.estimate(EQ_HALF, 2000)
    assert p_hat == 1.0  # measurement leaves |0> untouched
