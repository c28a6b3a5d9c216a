"""Property tests of the input boundary.

``gate_from_spec`` and ``parse_angle`` read user input (spec files and angle
tokens on the command line).  On any JSON-like value they return a result or
raise ``ValueError``, which the CLI reports as exit 2; any other exception
would escape as a traceback.  A gate that is returned has finite Choi entries.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gateselftest import Angle, Channel, gate_from_spec, parse_angle  # noqa: E402
from gateselftest.channel import NOISE_KINDS, _GATE_BUILDERS  # noqa: E402

# 150 examples per test keep the file to a few seconds; no example database is
# written, so every run draws afresh.
FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ANGLE_TOKENS = st.sampled_from(
    ["pi", "-pi", "2/3pi", "pi/4", "3pi", "1/0pi", "pi/0", "0.7854", "inf", "nan", "1e400"]
) | st.from_regex(r"[+-]? ?\d{0,400} ?/? ?\d{0,3} ?pi ?/? ?\d{0,3}", fullmatch=True)
# json.load turns 1e999 into inf, and keeps integers of any size.
EDGE_NUMBERS = st.sampled_from([0, 1, -1, 10**400, -(10**400), 1e308, float("inf"), float("nan")])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | EDGE_NUMBERS
    | st.text(max_size=8)
    | ANGLE_TOKENS
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# [re, im] grids of up to 2 x 2 entries, so that unitary and kraus specs reach
# the matrix checks rather than stopping at the first type test.
MATRICES = st.integers(1, 2).flatmap(
    lambda side: st.lists(
        st.lists(st.lists(st.floats(-1, 1) | EDGE_NUMBERS | SCALARS, min_size=2, max_size=2),
                 min_size=side, max_size=side),
        min_size=side,
        max_size=side,
    )
)
PARAMS = st.dictionaries(
    st.sampled_from(["phi", "alpha", "theta", "n", "matrix", "operators", "ph"]),
    JSON | MATRICES | st.lists(MATRICES, max_size=2),
    max_size=3,
)
NOISE_ENTRY = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(NOISE_KINDS) | JSON,
        "strength": st.floats(0, 1) | JSON,
        "qubit": JSON,
    },
)
# Spec-shaped objects with a known kind, so that most examples get past the
# first checks; test_gate_from_spec_on_any_json_value covers the rest.
SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(sorted(_GATE_BUILDERS))},
    optional={
        "params": PARAMS | JSON,
        "noise": st.lists(NOISE_ENTRY | JSON, max_size=2),
        "nosie": JSON,
    },
)


def _check_gate_from_spec(spec):
    try:
        gate = gate_from_spec(spec)
    except ValueError:
        return
    assert isinstance(gate, Channel)
    assert np.isfinite(gate.choi).all()


@FUZZ
@given(SPECS)
def test_gate_from_spec_returns_a_channel_or_raises_value_error(spec):
    _check_gate_from_spec(spec)


@FUZZ
@given(JSON)
def test_gate_from_spec_on_any_json_value(spec):
    _check_gate_from_spec(spec)


@FUZZ
@given(st.sampled_from(["unitary", "kraus"]), MATRICES)
def test_matrix_specs_return_a_channel_or_raise_value_error(kind, matrix):
    params = {"matrix": matrix} if kind == "unitary" else {"operators": [matrix]}
    _check_gate_from_spec({"kind": kind, "params": params})


@FUZZ
@given(JSON)
def test_parse_angle_returns_an_angle_or_raises_value_error(token):
    try:
        angle = parse_angle(token)
    except ValueError:
        return
    assert isinstance(angle, Angle)
