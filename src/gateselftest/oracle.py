"""Simulated experimental oracle.

One query = prepare the equation's basis state, run its gate word through the
hidden gates, measure once, and report whether the designated outcome fired.
The exact outcome probability is computed once per equation and cached; the
tester side of the interface only ever sees single bits and empirical means.

Randomness: numpy PCG64 generators keyed by (oracle seed, equation content
hash), so the streams of different equations are disjoint and independent of
the order in which equations are queried.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .equations import ExperimentalEquation, probability_term

# Uniforms drawn per block in estimate(): bounds its memory at about 0.6 MB
# whatever the sample count.  Blocks of PCG64 draws continue one stream, so
# the estimate is the same as from a single draw of all samples.
ESTIMATE_CHUNK = 2**16


def _equation_key(eq: ExperimentalEquation) -> int:
    payload = json.dumps(eq.to_dict(), sort_keys=True).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class Oracle:
    """Black-box sampling access to a hidden tuple of CP, TP gates."""

    def __init__(self, gates, seed: int):
        if not hasattr(gates, "__len__"):
            gates = (gates,)
        gates = tuple(gates)
        if not gates:
            raise ValueError("oracle needs at least one gate")
        for i, g in enumerate(gates):
            if not (g.is_cp and g.is_tp):
                raise ValueError(
                    f"gate {i} is not a valid quantum operation "
                    f"(cp={g.is_cp}, tp={g.is_tp})"
                )
        self.gates = gates
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.query_count = 0
        self._streams: dict[int, np.random.Generator] = {}
        self._probs: dict[int, float] = {}

    def _prob(self, eq: ExperimentalEquation, key: int) -> float:
        p = self._probs.get(key)
        if p is None:
            p = probability_term(eq, self.gates)
            self._probs[key] = p
        return p

    def _stream(self, key: int) -> np.random.Generator:
        gen = self._streams.get(key)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64((self.seed, key)))
            self._streams[key] = gen
        return gen

    def query(self, eq: ExperimentalEquation) -> int:
        """One run of the experiment: 1 iff the designated outcome occurred."""
        key = _equation_key(eq)
        p = self._prob(eq, key)
        self.query_count += 1
        return int(self._stream(key).random() < p)

    def estimate(self, eq: ExperimentalEquation, samples: int) -> float:
        """Empirical outcome frequency over the given number of fresh runs."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        key = _equation_key(eq)
        p = self._prob(eq, key)
        stream = self._stream(key)
        hits = 0
        for start in range(0, samples, ESTIMATE_CHUNK):
            draws = stream.random(min(ESTIMATE_CHUNK, samples - start))
            hits += int(np.count_nonzero(draws < p))
        self.query_count += samples
        return float(hits) / samples
