"""Simulated experimental oracle.

One query = prepare the equation's basis state, run its gate word through the
hidden gates, measure once, and report whether the designated outcome fired.
The exact outcome probability and the random stream are made once per
equation and kept as one record; the tester side of the interface only ever
sees single bits and empirical means.

Randomness: numpy PCG64 generators keyed by (oracle seed, equation content
hash), so the streams of different equations are disjoint and independent of
the order in which equations are queried.  A run fires iff its uniform draw
is below p, and a draw is k 2^-53 with 0 <= k < 2^53: an outcome that is
certain (p exactly 0 or 1) fixes every bit, so it draws nothing, and the
streams serve only equations with 0 < p < 1.  Since p is fixed per equation,
every estimate is the same as if the certain runs had drawn.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .channel import gate_tuple
from .equations import ExperimentalEquation, probability_term

# Uniforms drawn per block in estimate(): bounds its memory at about 0.6 MB
# whatever the sample count.  Blocks of PCG64 draws continue one stream, so
# the estimate is the same as from a single draw of all samples.
ESTIMATE_CHUNK = 2**16


def _equation_key(eq: ExperimentalEquation) -> int:
    payload = json.dumps(eq.to_dict(), sort_keys=True).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Oracle:
    """Black-box sampling access to a hidden tuple of CP, TP gates."""

    def __init__(self, gates, seed: int):
        gates = gate_tuple(gates)
        if not gates:
            raise ValueError("oracle needs at least one gate")
        for i, g in enumerate(gates):
            if not (g.is_cp and g.is_tp):
                raise ValueError(
                    f"gate {i} is not a valid quantum operation "
                    f"(cp={g.is_cp}, tp={g.is_tp})"
                )
        if not _is_integer(seed) or seed < 0:
            raise ValueError(f"oracle seed must be an integer >= 0, got {seed!r}")
        self.gates = gates
        self.seed = int(seed)
        self.query_count = 0
        # Equation key -> (outcome probability, its random stream).
        self._experiments: dict[int, tuple[float, np.random.Generator]] = {}

    def query(self, eq: ExperimentalEquation) -> int:
        """One run of the experiment: 1 iff the designated outcome occurred."""
        return int(self.estimate(eq, 1))

    def estimate(self, eq: ExperimentalEquation, samples: int) -> float:
        """Empirical outcome frequency over the given number of fresh runs."""
        if not _is_integer(samples) or samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
        key = _equation_key(eq)
        if key not in self._experiments:
            self._experiments[key] = (
                probability_term(eq, self.gates),
                np.random.Generator(np.random.PCG64((self.seed, key))),
            )
        p, stream = self._experiments[key]
        # The runs of a certain outcome (p is 0.0 or 1.0) need no draw.
        drawn = samples if 0.0 < p < 1.0 else 0
        hits = (samples - drawn) * p
        for start in range(0, drawn, ESTIMATE_CHUNK):
            draws = stream.random(min(ESTIMATE_CHUNK, drawn - start))
            hits += int(np.count_nonzero(draws < p))
        self.query_count += samples
        return float(hits) / samples
