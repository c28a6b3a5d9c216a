"""Command-line frontend.

Subcommands: equations | check | selftest | scan | distance.
Exit codes: 0 pass, 1 fail, 2 usage/domain error, 3 numeric failure.
All reports carry the tool version and the seed (null where none applies);
output for a fixed argv and seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .angles import parse_angle
from .channel import NOISE_KINDS, gate_from_spec, sup_norm_report
from .equations import max_violation
from .families import FAMILIES, Family, dist_to_family, family_equations
from .oracle import Oracle
from .qstate import NumericsError
from .roblab import noise_scan, scan_csv_text
from .tester import run_tester

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
# Most noise strengths one scan takes: every point is a full family-distance
# search, and a count beyond this would only allocate a grid that never finishes.
MAX_SCAN_POINTS = 10_000
# What --grid takes: its help, and the error a malformed grid gives.
_GRID_FORMS = (
    "a comma list, 'lo:hi:n' (linear) or 'geom:lo:hi:n' (geometric), "
    "with finite ends, both > 0 for geom"
)


def _family_from_args(args) -> Family:
    """The family the flags name; ``Family`` applies the default alpha and rejects
    a parameter it does not take.
    """
    alpha = theta = None
    if args.alpha is not None:
        angle = parse_angle(args.alpha)
        if not angle.is_rational_pi:
            raise ValueError(
                f"--alpha must be a rational multiple of pi (like '2/3pi'), "
                f"got {args.alpha!r}"
            )
        alpha = angle.pi_fraction
    if args.theta is not None:
        theta = parse_angle(args.theta).radians
    return Family(args.family, alpha=alpha, theta=theta)


def _load_gates(paths):
    gates = []
    for path in paths:
        with open(path) as handle:
            try:
                spec = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        gates.append(gate_from_spec(spec))
    return tuple(gates)


def _write(text: str, out_path: str | None) -> None:
    """Write text to out_path with LF line endings, or to stdout."""
    if out_path:
        with open(out_path, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, seed: int | None = None) -> None:
    """Write a JSON report: the payload under the tool version and the seed."""
    report = {"tool_version": __version__, "seed": seed, **payload}
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)


def _seed(text: str) -> int:
    """Type of the seed options: an integer >= 0, used as given."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _check_scan_points(count: int) -> None:
    if not 1 <= count <= MAX_SCAN_POINTS:
        raise ValueError(f"a scan grid takes 1 to {MAX_SCAN_POINTS} points, got {count}")


def _parse_grid(text: str):
    """Noise strengths from a comma list, 'lo:hi:n' or 'geom:lo:hi:n'.

    The shape, the ends and the point count are checked before any array is
    built, so a malformed grid gives one error, which says what --grid takes.
    """
    malformed = f"--grid takes {_GRID_FORMS}; got {text!r}"
    if ":" not in text:
        try:
            grid = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(malformed) from None
        _check_scan_points(len(grid))
        return grid
    geom = text.startswith("geom:")
    try:
        lo, hi, count = text.removeprefix("geom:").split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(malformed) from None
    if not (math.isfinite(lo) and math.isfinite(hi)) or (geom and min(lo, hi) <= 0.0):
        raise ValueError(malformed)
    _check_scan_points(count)
    return (np.geomspace if geom else np.linspace)(lo, hi, count).tolist()


def _cmd_equations(args) -> int:
    family = _family_from_args(args)
    eqset = family_equations(family)
    _emit(args, eqset.to_dict())
    return EXIT_PASS


def _cmd_check(args) -> int:
    family = _family_from_args(args)
    gates = _load_gates(args.gate)
    eqset = family_equations(family)
    violation = max_violation(eqset, gates)
    fit = dist_to_family(gates, family, seed=args.opt_seed)
    _emit(args, {
        "family": family.label,
        "max_violation": violation,
        "distance": fit.distance,
        "phi": fit.phi,
        "sign": fit.sign,
        "converged": fit.converged,
    })
    if not fit.converged:
        return EXIT_NUMERIC
    return EXIT_PASS


def _cmd_selftest(args) -> int:
    family = _family_from_args(args)
    gates = _load_gates(args.gate)
    eqset = family_equations(family)
    oracle = Oracle(gates, args.seed)
    verdict = run_tester(oracle, eqset, args.eps, args.delta)
    _emit(args, {"family": family.label, **verdict.to_dict()}, seed=args.seed)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _cmd_scan(args) -> int:
    family = _family_from_args(args)
    base = _load_gates(args.gate) if args.gate else None
    grid = _parse_grid(args.grid)
    records = noise_scan(family, args.noise, grid, base, seed=args.opt_seed)
    _write(scan_csv_text(records), args.out)
    return EXIT_PASS


def _cmd_distance(args) -> int:
    gates = _load_gates(args.gate)
    if len(gates) != 2:
        raise ValueError("distance needs exactly two --gate files")
    report = sup_norm_report(gates[0], gates[1], seed=args.opt_seed)
    _emit(args, {
        "distance": report.value,
        "spread": report.spread,
        "converged": report.converged,
    })
    return EXIT_PASS if report.converged else EXIT_NUMERIC


def _add_family_options(sub) -> None:
    sub.add_argument("--family", required=True, choices=tuple(FAMILIES))
    sub.add_argument("--alpha", help="angle token, e.g. 'pi', '2/3pi', '0.7854'")
    sub.add_argument("--theta", help="latitude token for the rotation family")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateselftest",
        description="Classical self-testing of quantum gate families.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    eq = subparsers.add_parser("equations", help="print a family's equation set")
    _add_family_options(eq)
    eq.add_argument("--out", help="write JSON here instead of stdout")
    eq.set_defaults(func=_cmd_equations)

    check = subparsers.add_parser(
        "check", help="exact violation and family distance of given gates"
    )
    _add_family_options(check)
    check.add_argument("--gate", action="append", required=True, help="gate spec JSON file")
    check.add_argument("--opt-seed", type=_seed, default=0)
    check.add_argument("--out")
    check.set_defaults(func=_cmd_check)

    selftest = subparsers.add_parser(
        "selftest", help="run the sampling tester against simulated gates"
    )
    _add_family_options(selftest)
    selftest.add_argument("--gate", action="append", required=True)
    selftest.add_argument("--eps", type=float, required=True)
    selftest.add_argument("--seed", type=_seed, required=True)
    selftest.add_argument("--delta", type=float, default=None)
    selftest.add_argument("--out")
    selftest.set_defaults(func=_cmd_selftest)

    scan = subparsers.add_parser("scan", help="noise sweep, CSV output")
    _add_family_options(scan)
    scan.add_argument("--noise", required=True, choices=NOISE_KINDS)
    scan.add_argument(
        "--grid",
        required=True,
        help=_GRID_FORMS,
    )
    scan.add_argument("--gate", action="append", help="optional base gate spec files")
    scan.add_argument("--opt-seed", type=_seed, default=0)
    scan.add_argument("--out")
    scan.set_defaults(func=_cmd_scan)

    dist = subparsers.add_parser(
        "distance", help="superoperator distance between two gate specs"
    )
    dist.add_argument("--gate", action="append", required=True)
    dist.add_argument("--opt-seed", type=_seed, default=0)
    dist.add_argument("--out")
    dist.set_defaults(func=_cmd_distance)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
