"""Output checks of every benchmark operation against reference.py.

``Checker(workload, eqset)`` precomputes, once per run and outside the timed
region, what each call of a round must print; ``verify`` then compares one
call's exit code and stdout with it and returns the problems found (an empty
list when the output is right).  Nothing is compared with a stored copy of
earlier output: every expected value comes from the closed forms and the
density-matrix evaluator in reference.py, or from properties the paper
proves (the sqrt law, eps <= k_max * distance, the Hoeffding plan).
"""

from __future__ import annotations

import csv
import io
import json
import math

import reference as ref

DIST_TOL = 1e-5       # distance optimiser: phi is refined to 1e-6
PHI_TOL = 1e-4
PROB_TOL = 1e-9       # exact probabilities, two independent float evaluations
SIGMAS = 7.0          # estimate vs exact probability, in binomial sigmas
CSV_HEADER = ["noise_kind", "strength", "epsilon", "distance", "bound", "ratio"]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _angle_gap(a: float, b: float) -> float:
    gap = (a - b) % (2.0 * math.pi)
    return min(gap, 2.0 * math.pi - gap)


def _noisy_hadamard(kind: str, s: float, phi: float):
    h = ref.hadamard(phi)
    if kind == "depolarize":
        return ref.depolarized(h, s)
    if kind == "amplitude_damp":
        return ref.amplitude_damped(h, s)
    if kind == "overrotate":
        return [ref.axis_rotation(s, math.pi / 4, phi) @ h]
    return [ref.phase(s) @ h @ ref.phase(-s)]


class Checker:
    def __init__(self, workload: str, eqset: dict):
        self.workload = workload
        self.eqset = eqset
        self.k_max = eqset["k_max"]

    def prepare(self, op) -> None:
        """Attach the reference values of one call to ``op.expect``."""
        e = op.expect
        if self.workload == "check-hcnot":
            gates = [ref.depolarized(ref.hadamard(e["phi"]), e["lam"]),
                     ref.depolarized(ref.cnot(e["phi"]), e["lam"])]
            e["violation"] = ref.max_violation(self.eqset, gates)
            e["distance"] = ref.depolarize_distance(e["lam"], 2)
        elif self.workload == "scan-hadamard":
            e["violations"] = [
                ref.max_violation(self.eqset, [_noisy_hadamard(e["kind"], s, e["phi"])])
                for s in e["strengths"]
            ]
        else:
            us = [ref.hadamard(e["phi"]), ref.phase(e["sign"] * math.pi / 4),
                  ref.cnot(e["phi"])]
            gates = [[u] if e["lam"] is None else ref.depolarized(u, e["lam"]) for u in us]
            e["probs"] = [ref.probability(eq, gates) for eq in self.eqset["equations"]]
            e["samples"] = ref.per_eq_samples(len(self.eqset["equations"]), e["eps"])
            if e["lam"] is not None:
                # The noisy tuples must fail for a reason, not by chance.
                worst = max(abs(p - eq["r"]) for p, eq in
                            zip(e["probs"], self.eqset["equations"]))
                if worst < 4.0 * (2.0 * e["eps"] / 3.0):
                    raise ValueError(f"noisy tuple violation {worst} too close to threshold")

    def verify(self, op, code: int, out: str) -> list[str]:
        try:
            if self.workload == "check-hcnot":
                return self._check(op.expect, code, json.loads(out))
            if self.workload == "scan-hadamard":
                return self._scan(op.expect, code, out)
            return self._selftest(op.expect, code, json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output ({exc!r})"]

    def _check(self, e: dict, code: int, out: dict) -> list[str]:
        bad = []
        if code != 0:
            bad.append(f"exit code {code}, expected 0")
        if out["converged"] is not True:
            bad.append("converged is not true")
        if not _close(out["distance"], e["distance"], DIST_TOL):
            bad.append(f"distance {out['distance']!r}, expected 1.5*lam = {e['distance']!r}")
        if _angle_gap(out["phi"], e["phi"]) > PHI_TOL:
            bad.append(f"phi {out['phi']!r}, expected {e['phi']!r} mod 2pi")
        if not _close(out["max_violation"], e["violation"], PROB_TOL):
            bad.append(f"max_violation {out['max_violation']!r}, expected {e['violation']!r}")
        return bad

    def _scan(self, e: dict, code: int, out: str) -> list[str]:
        bad = [] if code == 0 else [f"exit code {code}, expected 0"]
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != CSV_HEADER or len(rows) != 1 + len(e["strengths"]):
            return bad + [f"unexpected CSV layout: {out!r}"]
        kind = e["kind"]
        for row, s, violation in zip(rows[1:], e["strengths"], e["violations"]):
            eps, dist = float(row[2]), float(row[3])
            if row[0] != kind or not _close(float(row[1]), s, 1e-11 * s):
                bad.append(f"row {row} does not match strength {s!r} of {kind}")
            if not _close(eps, violation, PROB_TOL):
                bad.append(f"{kind} {s}: epsilon {eps!r}, expected {violation!r}")
            if kind == "depolarize":
                want = ref.depolarize_distance(s, 1)
                ok = _close(dist, want, DIST_TOL)
            elif kind == "amplitude_damp":
                want = ref.amplitude_damp_distance(s)
                ok = _close(dist, want, DIST_TOL)
            elif kind == "overrotate":
                want = ref.overrotate_distance_max(s)
                ok = dist <= want + DIST_TOL
            else:  # a drifted H is another member
                want = 0.0
                ok = dist <= DIST_TOL and eps <= PROB_TOL
            if not ok:
                bad.append(f"{kind} {s}: distance {dist!r} against closed form {want!r}")
            if eps > self.k_max * dist + PROB_TOL:
                bad.append(f"{kind} {s}: epsilon {eps!r} > k_max * distance {dist!r}")
            if row[4] and dist > float(row[4]):
                bad.append(f"{kind} {s}: distance {dist!r} above the sqrt-law bound {row[4]}")
        return bad

    def _selftest(self, e: dict, code: int, out: dict) -> list[str]:
        bad = []
        member = e["lam"] is None
        verdict, want_code = ("PASS", 0) if member else ("FAIL", 1)
        if out["verdict"] != verdict or code != want_code:
            bad.append(f"verdict {out['verdict']} (exit {code}), expected {verdict}")
        n = e["samples"]
        if out["per_eq_samples"] != n or out["queries_used"] != 16 * n:
            bad.append(f"queries_used {out['queries_used']}, expected 16*{n}")
        if len(out["per_eq"]) != len(e["probs"]):
            return bad + [f"{len(out['per_eq'])} estimates, expected {len(e['probs'])}"]
        for i, (check, p) in enumerate(zip(out["per_eq"], e["probs"])):
            est = check["estimate"]
            if p < PROB_TOL or p > 1.0 - PROB_TOL:
                ok = est == round(p)
            else:
                ok = abs(est - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
            if not ok:
                bad.append(f"equation {i}: estimate {est!r} against exact probability {p!r}")
        return bad
