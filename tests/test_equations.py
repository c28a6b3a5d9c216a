import json
import math
from pathlib import Path

import numpy as np
import pytest

from gateselftest import (
    Embedding,
    EquationSet,
    ExperimentalEquation,
    Family,
    Step,
    family_equations,
    from_unitary,
    hadamard,
    max_violation,
    measurement,
    member_gates,
    n_alpha,
    not_gate,
    phase_gate,
    probability_term,
    rotation_unitary,
    z_k,
)


def single_step_eq(exp, w="0", v="0", r=0.5, n=1, arity=1, var=0):
    return ExperimentalEquation(
        n=n, arity=arity, program=(Step(var, Embedding.WHOLE, exp),), w=w, v=v, r=r
    )


# ---------------------------------------------------------------------------
# equation objects


def test_equation_validation():
    with pytest.raises(ValueError):
        single_step_eq(1, w="00")  # wrong length
    with pytest.raises(ValueError):
        single_step_eq(1, v="2")
    with pytest.raises(ValueError):
        single_step_eq(1, r=1.5)
    with pytest.raises(ValueError):
        single_step_eq(-1)
    with pytest.raises(ValueError):
        single_step_eq(1, var=1)  # outside arity
    with pytest.raises(ValueError):
        ExperimentalEquation(
            n=1, arity=1, program=(Step(0, Embedding.LEFT, 1),), w="0", v="0", r=0.5
        )  # embeddings need two qubits
    with pytest.raises(ValueError):
        single_step_eq(10**6 + 1)  # total exponent cap


def test_equation_size():
    eq = ExperimentalEquation(
        n=1,
        arity=2,
        program=(Step(0, Embedding.WHOLE, 2), Step(1, Embedding.WHOLE, 3)),
        w="0",
        v="1",
        r=0.0,
    )
    assert eq.size == 5


def test_equation_set_invariants():
    with pytest.raises(ValueError):
        EquationSet(())
    with pytest.raises(ValueError):
        EquationSet((single_step_eq(1), single_step_eq(1, arity=2)))
    eqset = EquationSet((single_step_eq(1), single_step_eq(3)))
    assert eqset.d == 2
    assert eqset.k_max == 3
    assert eqset.arity == 1


def test_json_roundtrip():
    eqset = family_equations(Family("h-phase", alpha="1/4"))
    again = EquationSet.from_json(eqset.to_json())
    assert again == eqset
    payload = json.loads(eqset.to_json())
    assert payload["d"] == eqset.d
    assert payload["k_max"] == eqset.k_max
    assert payload["family"] == "h-phase(1/4pi)"


def test_dict_roundtrip_single_equation():
    eq = ExperimentalEquation(
        n=2,
        arity=2,
        program=(Step(0, Embedding.LEFT, 1), Step(1, Embedding.WHOLE, 2)),
        w="01",
        v="10",
        r=0.25,
    )
    assert ExperimentalEquation.from_dict(eq.to_dict()) == eq


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("equations-*.json")), ids=lambda path: path.name
)
def test_golden_equation_sets_roundtrip_unchanged(path):
    payload = json.loads(path.read_text())
    again = EquationSet.from_dict(payload).to_dict()
    expected = {key: payload[key] for key in again}
    assert json.dumps(again, sort_keys=True) == json.dumps(expected, sort_keys=True)


def equation_payload(field=None, value=None) -> dict:
    """A valid one-step equation dict, with one field set to value."""
    step = {"var": 0, "embed": "whole", "exp": 2}
    payload = {"n": 1, "arity": 1, "program": [step], "w": "0", "v": "0", "r": 1.0}
    if field in step:
        step[field] = value
    elif field is not None:
        payload[field] = value
    return payload


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 1.9),
        ("n", True),
        ("n", "1"),
        ("arity", 1.0),
        ("arity", False),
        ("var", 0.0),
        ("var", False),
        ("exp", 2.7),
        ("exp", True),
        ("r", True),
        ("r", "1"),
        ("r", None),
        ("w", 0),
        ("v", 0),
    ],
)
def test_from_dict_rejects_a_mistyped_field(field, value):
    # A float count used to be truncated, a bool read as 0 or 1 and an
    # integer bit string read as its digits, so the payload silently became
    # another equation.
    with pytest.raises(ValueError, match=repr(field)):
        ExperimentalEquation.from_dict(equation_payload(field, value))


def without(field) -> dict:
    payload = equation_payload()
    del payload[field]
    return payload


@pytest.mark.parametrize(
    "payload, field",
    [
        (equation_payload("program", "ab"), "program"),
        (equation_payload("program", [5]), "program"),
        (equation_payload("program", [{"var": 0, "exp": 1}]), "embed"),
        (equation_payload("embed", "up"), "embed"),
        (equation_payload("embed", ["whole"]), "embed"),
        (without("r"), "r"),
        (without("program"), "program"),
    ],
)
def test_from_dict_names_a_malformed_or_missing_field(payload, field):
    # A string program or a number step used to raise TypeError, and a
    # missing field a bare KeyError.
    with pytest.raises(ValueError, match=repr(field)):
        ExperimentalEquation.from_dict(payload)


@pytest.mark.parametrize("payload", [5, "eq", [equation_payload()], None])
def test_from_dict_rejects_a_payload_that_is_not_an_object(payload):
    with pytest.raises(ValueError, match="object"):
        ExperimentalEquation.from_dict(payload)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"equations": "abc"}, "'equations'"),
        ({"equations": {"0": equation_payload()}}, "'equations'"),
        ({"family": "hadamard"}, "'equations'"),
        ({"equations": [equation_payload()], "family": 5}, "'family'"),
        ({"equations": [equation_payload()], "family": ["hadamard"]}, "'family'"),
        ({"equations": [5]}, "object"),
        ([equation_payload()], "object"),
    ],
)
def test_equation_set_from_dict_names_a_malformed_field(payload, message):
    # A string list of equations used to raise TypeError, and a number
    # family was accepted and written back.
    with pytest.raises(ValueError, match=message):
        EquationSet.from_dict(payload)


def test_equation_set_family_may_be_absent_or_null():
    equations = [equation_payload()]
    for payload in ({"equations": equations}, {"equations": equations, "family": None}):
        assert EquationSet.from_dict(payload).family is None


def test_from_dict_reads_an_integer_constant_as_a_float():
    eq = ExperimentalEquation.from_dict(equation_payload("r", 1))
    assert eq.r == 1.0 and isinstance(eq.r, float)
    assert eq == ExperimentalEquation.from_dict(equation_payload())


# ---------------------------------------------------------------------------
# evaluation semantics


def test_program_is_applied_outermost_first():
    # reference computed with plain unitary matrix products: the probability
    # of outcome v after applying B then A to |w>
    ua = rotation_unitary(1.0, 0.7, 0.3)
    ub = rotation_unitary(2.0, 1.1, 1.9)
    p_ab = abs((ua @ ub)[0, 0]) ** 2  # A applied last
    p_ba = abs((ub @ ua)[0, 0]) ** 2
    assert abs(p_ab - p_ba) > 0.4  # genuinely order-sensitive pair
    gates = (from_unitary(ua), from_unitary(ub))
    eq = ExperimentalEquation(
        n=1, arity=2, program=(Step(0), Step(1)), w="0", v="0", r=0.0
    )
    assert probability_term(eq, gates) == pytest.approx(p_ab, abs=1e-12)
    eq_rev = ExperimentalEquation(
        n=1, arity=2, program=(Step(1), Step(0)), w="0", v="0", r=0.0
    )
    assert probability_term(eq_rev, gates) == pytest.approx(p_ba, abs=1e-12)


def test_exponent_equals_repetition():
    g = rotation_unitary(0.9, 0.5, 1.2)
    gates = (from_unitary(g),)
    eq_pow = single_step_eq(3)
    eq_rep = ExperimentalEquation(
        n=1, arity=1, program=(Step(0), Step(0), Step(0)), w="0", v="0", r=0.5
    )
    assert probability_term(eq_pow, gates) == pytest.approx(
        probability_term(eq_rep, gates), abs=1e-12
    )


def test_zero_exponent_is_identity():
    eq = single_step_eq(0, w="1", v="1")
    assert probability_term(eq, (hadamard(0.0),)) == pytest.approx(1.0)


def test_embeddings_match_kron_reference():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = rotation_unitary(math.pi, math.pi / 4.0, 0.0)
    eye = np.eye(2)

    def prob(u, w, v):
        vec = np.zeros(4)
        vec[int(w, 2)] = 1.0
        return abs((u @ vec)[int(v, 2)]) ** 2

    gates = (from_unitary(x), from_unitary(h))
    eq_left = ExperimentalEquation(
        n=2, arity=2, program=(Step(0, Embedding.LEFT, 1),), w="01", v="11", r=0.0
    )
    assert probability_term(eq_left, gates) == pytest.approx(
        prob(np.kron(x, eye), "01", "11"), abs=1e-12
    )
    eq_right = ExperimentalEquation(
        n=2, arity=2, program=(Step(0, Embedding.RIGHT, 1),), w="00", v="01", r=0.0
    )
    assert probability_term(eq_right, gates) == pytest.approx(
        prob(np.kron(eye, x), "00", "01"), abs=1e-12
    )
    eq_pair = ExperimentalEquation(
        n=2, arity=2, program=(Step(1, Embedding.PAIR, 1),), w="00", v="00", r=0.0
    )
    assert probability_term(eq_pair, gates) == pytest.approx(
        prob(np.kron(h, h), "00", "00"), abs=1e-12
    )


def test_probability_term_dimension_checks():
    eq = single_step_eq(1)
    with pytest.raises(ValueError):
        probability_term(eq, (measurement(2),))  # one-qubit register
    with pytest.raises(ValueError):
        probability_term(eq, (hadamard(0.0), hadamard(0.0)))  # arity mismatch
    eq2 = ExperimentalEquation(
        n=2, arity=1, program=(Step(0, Embedding.LEFT, 1),), w="00", v="00", r=1.0
    )
    with pytest.raises(ValueError):
        probability_term(eq2, (measurement(2),))  # embedding needs 1-qubit gate


def test_max_violation_measurement_vs_hadamard_equations():
    # the basis measurement satisfies both squared equations but misses the
    # half-way point of the single application by exactly one half
    eqset = family_equations(Family("hadamard"))
    assert max_violation(eqset, measurement(1)) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# angle arithmetic


def test_n_alpha_brute_force_minimality():
    # least n >= 1 such that n * (a/b) is an even integer
    for a, b in ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (5, 6), (4, 7)):
        expected = next(
            n for n in range(1, 5 * b + 1) if (n * a) % (2 * b) == 0
        )
        assert n_alpha(a, b) == expected


def test_n_alpha_closed_form():
    assert n_alpha(1, 1) == 2
    assert n_alpha(1, 4) == 8
    assert n_alpha(2, 3) == 3
    assert n_alpha(2, 5) == 5


def test_n_alpha_validation():
    with pytest.raises(ValueError):
        n_alpha(2, 4)  # not reduced
    with pytest.raises(ValueError):
        n_alpha(3, 2)  # above pi
    with pytest.raises(ValueError):
        n_alpha(0, 1)


def test_z_k_matches_matrix_powers():
    rng = np.random.default_rng(40)
    for _ in range(5):
        alpha = rng.uniform(0.1, 2 * math.pi)
        theta = rng.uniform(0.05, math.pi / 2)
        u = rotation_unitary(alpha, theta, rng.uniform(0, 2 * math.pi))
        for k in range(13):
            uk = np.linalg.matrix_power(u, k)
            height = 2.0 * abs(uk[0, 0]) ** 2 - 1.0
            assert z_k(alpha, theta, k) == pytest.approx(height, abs=1e-12)
    with pytest.raises(ValueError):
        z_k(1.0, 0.5, -1)


# ---------------------------------------------------------------------------
# built-in family equation sets


def test_equation_set_shapes():
    cases = [
        (Family("hadamard"), 3, 2),
        (Family("rotation", alpha="2/3", theta=1.0), 4, 3),
        (Family("h-not"), 7, 4),
        (Family("h-phase", alpha="1/4"), 7, 10),
        (Family("h-cnot"), 12, 4),
        (Family("h-phase-cnot"), 16, 10),
    ]
    for family, d, k_max in cases:
        eqset = family_equations(family)
        assert (eqset.d, eqset.k_max) == (d, k_max), family.label
        assert eqset.arity == family.arity
        assert eqset.family == family.label


def test_hadamard_equation_constants():
    eqs = family_equations(Family("hadamard")).equations
    assert [(e.w, e.v, e.r, e.size) for e in eqs] == [
        ("0", "0", 0.5, 1),
        ("0", "0", 1.0, 2),
        ("1", "0", 0.0, 2),
    ]


def test_rotation_equation_constants():
    fam = Family("rotation", alpha="1/2", theta=0.7)
    eqs = family_equations(fam).equations
    # order equation first: R^4 applied to |1> never returns to |0>
    assert eqs[0].size == 4 and eqs[0].w == "1" and eqs[0].r == 0.0
    alpha = math.pi / 2.0
    for k in range(1, 5):
        assert eqs[k].r == pytest.approx(0.5 + 0.5 * z_k(alpha, 0.7, k))


def test_members_satisfy_their_equations():
    cases = [
        Family("hadamard"),
        Family("rotation", alpha="1/3", theta=0.8),
        Family("h-not"),
        Family("h-phase", alpha="1/4"),
        Family("h-cnot"),
        Family("h-phase-cnot"),
    ]
    for family in cases:
        eqset = family_equations(family)
        for phi in (0.0, 2.4):
            for sign in family.signs:
                gates = member_gates(family, phi, sign)
                assert max_violation(eqset, gates) <= 1e-12, family.label


def test_impostor_violations_are_large():
    swap = from_unitary(
        np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
    )
    assert max_violation(
        family_equations(Family("h-cnot")), (hadamard(0.0), swap)
    ) == pytest.approx(1.0, abs=1e-12)
    # a measured-then-flipped gate keeps the NOT truth table but fails the
    # interference equations
    from gateselftest import compose

    fake_not = compose(not_gate(0.0), measurement(1))
    assert max_violation(
        family_equations(Family("h-not")), (measurement(1), fake_not)
    ) >= 0.25
    assert max_violation(
        family_equations(Family("h-phase", alpha="1/4")),
        (measurement(1), phase_gate(math.pi / 4.0)),
    ) == pytest.approx(0.5, abs=1e-12)
