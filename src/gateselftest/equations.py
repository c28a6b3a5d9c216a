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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .channel import Channel, identity, tensor_channels

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
        return {
            "n": self.n,
            "arity": self.arity,
            "program": [
                {"var": s.var, "embed": s.embed.value, "exp": s.exp}
                for s in self.program
            ],
            "w": self.w,
            "v": self.v,
            "r": self.r,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentalEquation":
        return cls(
            n=int(d["n"]),
            arity=int(d["arity"]),
            program=tuple(
                Step(int(s["var"]), Embedding(s["embed"]), int(s["exp"]))
                for s in d["program"]
            ),
            w=str(d["w"]),
            v=str(d["v"]),
            r=float(d["r"]),
        )


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
        return cls(
            equations=tuple(
                ExperimentalEquation.from_dict(e) for e in d["equations"]
            ),
            family=d.get("family"),
        )

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
    if step.embed == Embedding.LEFT:
        return tensor_channels(gate, identity(1)).transfer
    if step.embed == Embedding.RIGHT:
        return tensor_channels(identity(1), gate).transfer
    return tensor_channels(gate, gate).transfer


def probability_term(eq: ExperimentalEquation, gates) -> float:
    """Exact outcome probability of the equation's experiment on these gates."""
    if isinstance(gates, Channel):
        gates = (gates,)
    gates = tuple(gates)
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
    rho_vec = np.zeros(dim * dim, dtype=complex)
    w_idx = int(eq.w, 2)
    rho_vec[w_idx * dim + w_idx] = 1.0
    out = total @ rho_vec
    v_idx = int(eq.v, 2)
    p = float(np.real(out[v_idx * dim + v_idx]))
    return min(1.0, max(0.0, p))


def max_violation(eqset: EquationSet, gates) -> float:
    """Worst |probability - constant| over the set, evaluated exactly."""
    if isinstance(gates, Channel):
        gates = (gates,)
    gates = tuple(gates)
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


def _single(var: int, arity: int, exp: int, w: str, v: str, r: float, n: int = 1):
    return ExperimentalEquation(
        n=n, arity=arity, program=(Step(var, Embedding.WHOLE, exp),), w=w, v=v, r=r
    )


def _word(arity: int, steps, w: str, v: str, r: float, n: int = 1):
    return ExperimentalEquation(n=n, arity=arity, program=tuple(steps), w=w, v=v, r=r)


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
    return _word(
        arity,
        (Step(f_var), Step(g_var, Embedding.WHOLE, g_exp), Step(f_var)),
        "0",
        "0",
        r,
    )


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
    eqs = [
        ExperimentalEquation(
            n=2, arity=arity, program=(Step(c_var),), w=w, v=v, r=1.0
        )
        for w, v in rows
    ]
    right = Step(f_var, Embedding.RIGHT, 1)
    left = Step(f_var, Embedding.LEFT, 1)
    pair = Step(f_var, Embedding.PAIR, 1)
    eqs.append(_word(arity, (right, Step(c_var), right), "00", "00", 1.0, n=2))
    eqs.append(_word(arity, (right, Step(c_var), right), "10", "10", 1.0, n=2))
    eqs.append(_word(arity, (left, Step(c_var, Embedding.WHOLE, 2), left), "00", "00", 1.0, n=2))
    eqs.append(_word(arity, (left, Step(c_var, Embedding.WHOLE, 2), left), "01", "01", 1.0, n=2))
    eqs.append(_word(arity, (pair, Step(c_var), pair), "00", "00", 1.0, n=2))
    return eqs
