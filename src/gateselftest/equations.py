"""Experimental equations: basis state in, gate word, basis outcome probability.

An equation asserts ``Pr_v[ C_1(C_2(...(|w><w|))) ] = r`` where each ``C_t`` is
a gate variable raised to a power and embedded into the equation's register
(alone, on the left or right half beside the identity, or on both halves).
The program lists factors outermost first: the LAST entry is applied FIRST to
the prepared state.  ``size`` is the total number of gate applications, the
quantity that controls how equation violations degrade with gate distance: a
gate tuple within ``dist`` of one that satisfies a set exactly can violate it
by at most ``k_max * dist``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .channel import Channel, gate_tuple, tensor_transfers

MAX_TOTAL_EXPONENT = 10**6


class Embedding(str, Enum):
    """How a gate variable sits inside a two-qubit equation register."""

    WHOLE = "whole"
    LEFT = "left"    # X (x) I
    RIGHT = "right"  # I (x) X
    PAIR = "pair"    # X (x) X


@dataclass(frozen=True)
class Step:
    var: int
    embed: Embedding = Embedding.WHOLE
    exp: int = 1


@dataclass(frozen=True)
class ExperimentalEquation:
    """One probability constraint on a tuple of gate variables."""

    n: int
    arity: int
    program: tuple[Step, ...]
    w: str
    v: str
    r: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"equation register needs n >= 1 qubits, got {self.n}")
        if self.arity < 1:
            raise ValueError(f"equation needs arity >= 1, got {self.arity}")
        object.__setattr__(self, "program", tuple(self.program))
        for s in self.program:
            if not 0 <= s.var < self.arity:
                raise ValueError(f"step variable {s.var} outside arity {self.arity}")
            if s.exp < 0:
                raise ValueError(f"step exponent must be >= 0, got {s.exp}")
            if s.embed != Embedding.WHOLE and self.n != 2:
                raise ValueError(
                    f"embedding {s.embed.value!r} only applies to two-qubit equations"
                )
        for bits, name in ((self.w, "w"), (self.v, "v")):
            if len(bits) != self.n or any(c not in "01" for c in bits):
                raise ValueError(f"{name}={bits!r} is not an {self.n}-bit string")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"constant r must lie in [0, 1], got {self.r}")
        if self.size > MAX_TOTAL_EXPONENT:
            raise ValueError(f"equation size {self.size} exceeds {MAX_TOTAL_EXPONENT}")

    @property
    def size(self) -> int:
        return sum(s.exp for s in self.program)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentalEquation":
        """The equation of a ``to_dict`` payload.  The counts ``n``, ``arity``,
        ``var`` and ``exp`` must be integers and ``r`` a number, none of them
        a bool, ``w``, ``v`` and ``embed`` strings, and ``program`` a list of
        step objects; a missing field or a value of another type raises
        ``ValueError`` naming the field, and nothing is truncated or
        converted."""
        steps = _typed(d, "program", (list, tuple))
        return cls(
            n=_typed(d, "n", int),
            arity=_typed(d, "arity", int),
            program=tuple(_step(s) for s in steps),
            w=_typed(d, "w", str),
            v=_typed(d, "v", str),
            r=float(_typed(d, "r", (int, float))),
        )


def _typed(d: dict, field: str, types, owner: str = "equation"):
    """``d[field]`` if it is one of ``types`` and not a bool, else ``ValueError``."""
    if not isinstance(d, dict):
        raise ValueError(f"{owner} must be an object, got {d!r:.40}")
    if field not in d:
        raise ValueError(f"{owner} field {field!r} is missing")
    value = d[field]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{owner} field {field!r} has the wrong type: {value!r:.40}")
    return value


def _step(s: dict) -> Step:
    if not isinstance(s, dict):
        raise ValueError(f"equation field 'program' holds a step that is not an object: {s!r:.40}")
    embed = _typed(s, "embed", str)
    try:
        embedding = Embedding(embed)
    except ValueError:
        raise ValueError(f"equation field 'embed' names no embedding: {embed!r:.40}") from None
    return Step(_typed(s, "var", int), embedding, _typed(s, "exp", int))


@dataclass(frozen=True)
class EquationSet:
    equations: tuple[ExperimentalEquation, ...]
    family: str | None = None

    def __post_init__(self):
        eqs = tuple(self.equations)
        if not eqs:
            raise ValueError("equation set cannot be empty")
        arity = eqs[0].arity
        if any(eq.arity != arity for eq in eqs):
            raise ValueError("all equations in a set must share one arity")
        object.__setattr__(self, "equations", eqs)

    @property
    def d(self) -> int:
        return len(self.equations)

    @property
    def arity(self) -> int:
        return self.equations[0].arity

    @property
    def k_max(self) -> int:
        return max(eq.size for eq in self.equations)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "d": self.d,
            "k_max": self.k_max,
            "equations": [eq.to_dict() for eq in self.equations],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EquationSet":
        """The set of a ``to_dict`` payload: ``equations`` a list of equation
        objects, ``family`` a string, null or absent; ``d`` and ``k_max`` are
        derived, not read.  A malformed field raises ``ValueError`` naming it."""
        equations = _typed(d, "equations", (list, tuple), "equation set")
        family = d.get("family")
        if family is not None and not isinstance(family, str):
            raise ValueError(f"equation set field 'family' has the wrong type: {family!r:.40}")
        return cls(tuple(ExperimentalEquation.from_dict(e) for e in equations), family)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EquationSet":
        return cls.from_dict(json.loads(text))


def _embedded_transfer(step: Step, gates, n: int) -> np.ndarray:
    gate: Channel = gates[step.var]
    if step.embed == Embedding.WHOLE:
        if gate.n != n:
            raise ValueError(
                f"variable {step.var} acts on {gate.n} qubits, equation needs {n}"
            )
        return gate.transfer
    if gate.n != 1:
        raise ValueError(
            f"embedding {step.embed.value!r} needs a one-qubit gate for "
            f"variable {step.var}, got n={gate.n}"
        )
    eye = np.eye(4, dtype=complex)
    left = eye if step.embed == Embedding.RIGHT else gate.transfer
    right = eye if step.embed == Embedding.LEFT else gate.transfer
    return tensor_transfers(left, right)


def probability_term(eq: ExperimentalEquation, gates) -> float:
    """Exact outcome probability of the equation's experiment on these gates."""
    gates = gate_tuple(gates)
    if len(gates) != eq.arity:
        raise ValueError(f"equation has arity {eq.arity}, got {len(gates)} gates")
    dim = 2**eq.n
    total = np.eye(dim * dim, dtype=complex)
    for step in eq.program:
        t = _embedded_transfer(step, gates, eq.n)
        if step.exp == 0:
            continue
        if step.exp > 1:
            t = np.linalg.matrix_power(t, step.exp)
        total = total @ t
    w, v = int(eq.w, 2), int(eq.v, 2)
    return min(1.0, max(0.0, float(total[v * dim + v, w * dim + w].real)))


def max_violation(eqset: EquationSet, gates) -> float:
    """Worst |probability - constant| over the set, evaluated exactly."""
    gates = gate_tuple(gates)
    return max(abs(probability_term(eq, gates) - eq.r) for eq in eqset.equations)


def n_alpha(a: int, b: int) -> int:
    """Order of the rotation angle (a/b) pi: least n with n a/b an even integer."""
    if b < 1 or a < 1 or a > b:
        raise ValueError(f"need 0 < a/b <= 1 with positive integers, got {a}/{b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"fraction {a}/{b} is not in lowest terms")
    return b if a % 2 == 0 else 2 * b


def z_k(alpha: float, theta: float, k: int) -> float:
    """Height after k rotations of |0> about the theta-latitude axis:
    cos(theta)^2 + sin(theta)^2 cos(k alpha)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    c, s = math.cos(theta), math.sin(theta)
    return c * c + s * s * math.cos(k * alpha)


def _word(arity: int, steps, w: str, v: str, r: float):
    """The equation running ``steps`` on |w> over the len(w)-qubit register."""
    return ExperimentalEquation(len(w), arity, steps, w, v, r)


def _single(var: int, arity: int, exp: int, w: str, v: str, r: float):
    return _word(arity, (Step(var, exp=exp),), w, v, r)


def rotation_equations(frac: Fraction, theta: float, *, var: int, arity: int):
    """The order-many height constraints that pin a rotation down to sign and phi."""
    alpha = float(frac) * math.pi
    order = n_alpha(frac.numerator, frac.denominator)
    eqs = [_single(var, arity, order, "1", "0", 0.0)]
    for k in range(1, order + 1):
        eqs.append(_single(var, arity, k, "0", "0", 0.5 + 0.5 * z_k(alpha, theta, k)))
    return eqs


def hadamard_equations(var: int, arity: int):
    return [
        _single(var, arity, 1, "0", "0", 0.5),
        _single(var, arity, 2, "0", "0", 1.0),
        _single(var, arity, 2, "1", "0", 0.0),
    ]


def _conjugated(f_var: int, g_var: int, arity: int, g_exp: int, r: float):
    # F o G^k o F applied to |0>, compared against r.
    return _word(arity, (Step(f_var), Step(g_var, exp=g_exp), Step(f_var)), "0", "0", r)


def not_equations(f_var: int, g_var: int, arity: int):
    """NOT_phi: a bit flip that squares to the identity and fixes F|0>."""
    return [
        _single(g_var, arity, 1, "0", "0", 0.0),
        _single(g_var, arity, 1, "1", "0", 1.0),
        _conjugated(f_var, g_var, arity, 2, 1.0),
        _conjugated(f_var, g_var, arity, 1, 1.0),
    ]


def phase_equations(frac: Fraction, f_var: int, g_var: int, arity: int):
    """The diagonal phase by frac * pi, whose order shows through F."""
    alpha = float(frac) * math.pi
    order = n_alpha(frac.numerator, frac.denominator)
    return [
        _single(g_var, arity, 1, "0", "0", 1.0),
        _single(g_var, arity, 1, "1", "0", 0.0),
        _conjugated(f_var, g_var, arity, order, 1.0),
        _conjugated(f_var, g_var, arity, 1, 0.5 + 0.5 * math.cos(alpha)),
    ]


def cnot_equations(f_var: int, c_var: int, arity: int):
    rows = [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")]
    eqs = [_word(arity, (Step(c_var),), w, v, 1.0) for w, v in rows]
    right = Step(f_var, Embedding.RIGHT)
    left = Step(f_var, Embedding.LEFT)
    pair = Step(f_var, Embedding.PAIR)
    eqs.append(_word(arity, (right, Step(c_var), right), "00", "00", 1.0))
    eqs.append(_word(arity, (right, Step(c_var), right), "10", "10", 1.0))
    eqs.append(_word(arity, (left, Step(c_var, exp=2), left), "00", "00", 1.0))
    eqs.append(_word(arity, (left, Step(c_var, exp=2), left), "01", "01", 1.0))
    eqs.append(_word(arity, (pair, Step(c_var), pair), "00", "00", 1.0))
    return eqs
