"""Benchmark of the gateselftest CLI: check, scan and selftest end to end.

    python3 bench/run.py --workload check-hcnot --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One operation is one in-process call of
``gateselftest.cli.main(argv)`` with stdout captured (a scan counts once per
grid point), so the CLI layer and the exact bytes users read are measured
and interpreter start-up is paid once, in ``setup_s``.  The run repeats
whole rounds of the workload's calls until ``--seconds`` have passed, checks
every output against reference.py, and prints one JSON line last:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics, from twice ``--seconds`` of rounds that alternate untraced and
traced.  ``ops_per_s`` is scaled to the reference host speed (speed.py).
Per-run inputs and spans go to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: no matrix in the package is larger than 16x16.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def measure_setup(workload: str, seed: int, run_dir: Path) -> dict[str, float]:
    """Median set-up times over fresh interpreters.

    One discarded warm-up probe first, so byte-compiling the sources and
    filling the file cache do not land in the median.
    """
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        cmd = [sys.executable, str(BENCH / "probe.py"), str(SRC), workload, str(seed),
               str(run_dir / "setup" / str(k))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        if k:
            samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return {"import_s": statistics.median(s["import_s"] for s in samples),
            "inputs_s": statistics.median(s["inputs_s"] for s in samples),
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in samples)}


def call_cli(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class Runner:
    """Runs rounds of one workload's calls and checks every output."""

    def __init__(self, main, ops, checker, sampler: speed.Sampler):
        self.main = main
        self.ops = ops
        self.checker = checker
        self.sampler = sampler
        self.points_per_round = sum(op.points for op in ops)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def round(self, tracer=None) -> tuple[float, float]:
        """One round of calls; returns (time inside the CLI, slowness).

        Only the CLI calls are timed, less the speed samples taken during
        them, so the output checks and the kernel stay out of it.  The
        slowness is the median of the speed samples taken during the round.
        """
        busy = 0.0
        first_sample = len(self.sampler.samples)
        for op in self.ops:
            spent = self.sampler.spent
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code, out = call_cli(self.main, op.argv)
                else:
                    code, out = tracer.call("cli", call_cli, (self.main, op.argv))
                    tracer.op += 1
            except Exception as exc:  # a crash of the CLI is a failed operation
                busy += time.perf_counter() - t0 - (self.sampler.spent - spent)
                self.attempted += op.points
                self.failed += op.points
                self.errors.append(f"{op.argv[0]} raised {exc!r}")
                continue
            busy += time.perf_counter() - t0 - (self.sampler.spent - spent)
            self.attempted += op.points
            self.problems += [f"{' '.join(op.argv[:5])}: {p}"
                              for p in self.checker.verify(op, code, out)]
        taken = self.sampler.samples[first_sample:]
        if not taken:
            raise BenchError("no speed sample was taken during a round")
        return busy, statistics.median(taken) / speed.KERNEL_REF_S


def timed_run(runner: Runner, seconds: float) -> dict:
    """End-to-end rate: whole rounds for ``seconds``, scaled to reference speed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round())
    busy = sum(b for b, _ in rounds)
    points = runner.points_per_round * len(rounds)
    slowness = runner.sampler.slowness()
    print(f"bench: {len(rounds)} rounds, {points} operations in {busy:.3f} s, "
          f"{points / busy:.5g} ops/s as measured, host slowness {slowness:.4f} "
          f"({len(runner.sampler.samples)} speed samples)", file=sys.stderr)
    return {"ops_per_s": (points / busy * slowness, "1/s")}


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics from rounds that alternate untraced and traced.

    Alternating keeps a drift of the machine's speed out of the overhead
    figure; the run lasts twice ``seconds``.  Layer times are as measured,
    not scaled.
    """
    import spans

    tracer = spans.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < 2 * seconds:
        busy, slowness = runner.round()
        plain.append(busy / slowness)
        tracer.install()
        runner.sampler.tracer = tracer
        try:
            busy, slowness = runner.round(tracer)
        finally:
            runner.sampler.tracer = None
            tracer.uninstall()
        traced.append(busy / slowness)
    tracer.write(spans_path)
    metrics = spans.layer_metrics(tracer.spans, runner.points_per_round * len(traced))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "gateselftest" / "cli.py").is_file():
        raise BenchError(f"no gateselftest sources under {SRC}")
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup = measure_setup(args.workload, args.seed, run_dir)

    sys.path.insert(0, str(SRC))
    import gateselftest.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "gateselftest":
        raise BenchError(f"imported gateselftest from {cli.__file__}, not from {SRC}")
    import checks

    ops = workloads.build(args.workload, args.seed, run_dir / "inputs")
    family = workloads.FAMILIES[args.workload]
    code, text = call_cli(cli.main, ["equations", "--family", family])
    if code != 0:
        raise BenchError(f"equations --family {family} exited {code}")
    checker = checks.Checker(args.workload, json.loads(text))
    for op in ops:
        checker.prepare(op)

    with speed.Sampler() as sampler:
        runner = Runner(cli.main, ops, checker, sampler)
        if args.trace:
            metrics = traced_run(runner, args.seconds, run_dir / "spans.jsonl")
            metrics["setup.import_s"] = (setup["import_s"], "s")
            metrics["setup.inputs_s"] = (setup["inputs_s"], "s")
        else:
            metrics = timed_run(runner, args.seconds)
            metrics["setup_s"] = (setup["setup_s"], "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    for error in runner.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
