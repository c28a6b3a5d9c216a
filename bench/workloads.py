"""Seeded inputs of the benchmark workloads.

Standard library only: the set-up probe imports this module before it starts
its clock, so importing it must not pull in numpy ahead of the package.

A workload is a fixed list of CLI calls (one round) plus the gate-spec files
they read.  The same seed gives the same specs and the same argv, byte for
byte; every round repeats the same calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

FAMILIES = {"check-hcnot": "h-cnot", "scan-hadamard": "hadamard",
            "selftest-universal": "h-phase-cnot"}
NAMES = tuple(FAMILIES)
NOISE_KINDS = ("depolarize", "overrotate", "phase_drift", "amplitude_damp")
CHECK_LAM = 0.05
SCAN_LO = 0.02
SCAN_POINTS = 2
SELFTEST_EPS = 0.005
SELFTEST_TUPLES = 4


@dataclass
class Op:
    """One CLI call of a round.

    ``points`` is the number of benchmark operations the call stands for (a
    scan counts once per grid point); ``expect`` holds the seeded parameters
    the output checks need.
    """

    argv: list[str]
    points: int = 1
    expect: dict = field(default_factory=dict)


def _spec(kind: str, params: dict, lam: float | None = None) -> dict:
    spec = {"kind": kind, "params": params}
    if lam is not None:
        spec["noise"] = [{"kind": "depolarize", "strength": lam}]
    return spec


def _check_hcnot(rng: random.Random):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    # The ascent's iteration count, and so the cost of a check, moves with lam;
    # a narrow band keeps it steady across seeds.
    lam = CHECK_LAM * rng.uniform(0.99, 1.01)
    specs = {
        "h.json": _spec("hadamard", {"phi": phi}, lam),
        "cnot.json": _spec("cnot", {"phi": phi}, lam),
    }
    argv = ["check", "--family", "h-cnot", "--gate", "h.json", "--gate", "cnot.json"]
    return specs, [Op(argv, 1, {"phi": phi, "lam": lam})]


def _scan_hadamard(rng: random.Random):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    # The cost of the amplitude_damp points moves with the strength; a narrow
    # band keeps it steady across seeds.
    lo = SCAN_LO * rng.uniform(0.99, 1.01)
    hi = 4.0 * lo
    specs = {"base.json": _spec("hadamard", {"phi": phi})}
    ops = [
        Op(
            ["scan", "--family", "hadamard", "--noise", kind,
             "--grid", f"geom:{lo!r}:{hi!r}:{SCAN_POINTS}", "--gate", "base.json"],
            SCAN_POINTS,
            {"kind": kind, "strengths": [lo, hi], "phi": phi},
        )
        for kind in NOISE_KINDS
    ]
    return specs, ops


def _selftest_universal(rng: random.Random):
    # A narrow eps band keeps the sample count (time and memory) steady across seeds.
    eps = SELFTEST_EPS * rng.uniform(0.995, 1.005)
    specs, ops = {}, []
    for t in range(SELFTEST_TUPLES):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        sign = rng.choice((1, -1))
        lam = rng.uniform(0.03, 0.06) if t % 2 else None
        oracle_seed = rng.randrange(2**31)
        names = [f"t{t}-h.json", f"t{t}-phase.json", f"t{t}-cnot.json"]
        specs[names[0]] = _spec("hadamard", {"phi": phi}, lam)
        specs[names[1]] = _spec("phase", {"alpha": "1/4pi" if sign > 0 else "-1/4pi"}, lam)
        specs[names[2]] = _spec("cnot", {"phi": phi}, lam)
        argv = ["selftest", "--family", "h-phase-cnot"]
        for name in names:
            argv += ["--gate", name]
        argv += ["--eps", repr(eps), "--seed", str(oracle_seed)]
        ops.append(Op(argv, 1, {"phi": phi, "sign": sign, "lam": lam, "eps": eps}))
    return specs, ops


_BUILDERS = {
    "check-hcnot": _check_hcnot,
    "scan-hadamard": _scan_hadamard,
    "selftest-universal": _selftest_universal,
}


def build(name: str, seed: int, directory: Path) -> list[Op]:
    """Write the workload's gate specs into ``directory``; return one round.

    Spec file names in the returned argv are replaced by their paths.
    """
    specs, ops = _BUILDERS[name](random.Random(f"{name}:{seed}"))
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for filename, spec in specs.items():
        path = directory / filename
        path.write_text(json.dumps(spec, sort_keys=True) + "\n")
        paths[filename] = str(path)
    for op in ops:
        op.argv = [paths.get(arg, arg) for arg in op.argv]
    return ops
