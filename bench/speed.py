"""The host's momentary speed, sampled while a workload runs.

The benchmark shares its host with other tenants, and the speed of one core
drifts by ±20 % and more over tens of seconds, alike for every kind of work
(see README.md).  ``Sampler`` runs a fixed calibration kernel, written apart
from the package, every ``PERIOD_S`` seconds of wall time from a SIGALRM
handler, so the kernel runs on the workload's own thread and core, between
two bytecodes of whatever the workload is doing.  The median kernel time
over a run, divided by ``KERNEL_REF_S``, is the run's slowness: the factor by
which the host ran slower than the reference speed.  Rates scaled by it
compare between runs made at different moments.

Standard library at import; the kernel imports numpy when it first runs.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.25
KERNEL_REF_S = 0.0065  # about the median kernel time on the reference host (README.md)

_state = {}


def kernel() -> float:
    """Eighteen steps of a rank-one ascent on 16 starts of 4x4 matrices.

    Written apart from ``channel._ascent``: einsum contractions, a batched
    SVD and a normalisation, small numpy calls with much interpreter
    overhead.  Returns a checksum.
    """
    if not _state:
        import numpy as np

        rng = np.random.default_rng(12345)
        u = rng.normal(size=(16, 4)) + 1j * rng.normal(size=(16, 4))
        _state.update(np=np, u=u / np.linalg.norm(u, axis=1, keepdims=True),
                      delta4=rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4)))
    np = _state["np"]
    delta4 = _state["delta4"]
    u = v = _state["u"]
    for _ in range(18):
        m = np.einsum("klij,bi,bj->bkl", delta4, u, v.conj(), optimize=True)
        left, _sing, right = np.linalg.svd(m)
        d = np.einsum("bkl,klij->bij", (left @ right).conj(), delta4, optimize=True)
        c = np.einsum("bij,bj->bi", d, v.conj())
        u = c / np.linalg.norm(c, axis=1, keepdims=True)
    return float(np.abs(u).sum())


class Sampler:
    """Times the kernel every ``PERIOD_S`` s while the ``with`` block runs.

    ``spent`` is the total time the handler took, so callers can take it out
    of the intervals they time.  While ``tracer`` is set, each sample is
    recorded as a ``speed.kernel`` span (spans.py).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.tracer = None
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if self.tracer is None:
            kernel()
        else:
            self.tracer.call("speed.kernel", kernel)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        kernel()  # first-run set-up stays out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowness(self) -> float:
        """Median kernel time over the reference time (1.0 at reference speed)."""
        if not self.samples:
            raise RuntimeError("no speed sample was taken")
        return statistics.median(self.samples) / KERNEL_REF_S
