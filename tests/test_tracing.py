"""The benchmark's tracer must see every layer it rebinds.

``bench/spans.py`` records spans by rebinding module attributes such as
``gateselftest.families.hadamard``.  Code that captures those functions by
value (in a table built at import time, say) runs untraced, and the per-layer
metrics silently read zero.  This runs small ``check``s under the tracer and
also pins how many norm evaluations ``dist_to_family`` makes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402

from gateselftest.cli import main  # noqa: E402


def traced_check(tmp_path, capsys, family, specs):
    """Run ``check`` under the tracer; return its spans and per-layer metrics."""
    gates = []
    for index, spec in enumerate(specs):
        path = tmp_path / f"gate{index}.json"
        path.write_text(json.dumps(spec))
        gates += ["--gate", str(path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = main(["check", "--family", *family, *gates])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = {k: v for k, (v, _unit) in spans.layer_metrics(tracer.spans, 1).items()}
    return tracer.spans, metrics


def test_tracer_records_every_family_layer(tmp_path, capsys):
    traced, metrics = traced_check(
        tmp_path,
        capsys,
        ["h-phase", "--alpha", "1/4pi"],
        [
            {"kind": "hadamard", "params": {"phi": 0.4}},
            {"kind": "phase", "params": {"alpha": "1/4pi"}},
        ],
    )
    names = {span[0] for span in traced}
    for layer in (
        "channel.member",
        "channel.sup_norm_report",
        "families.minimize_scalar",
        "equations.family_equations",
    ):
        assert layer in names

    # h-phase has one phi-dependent member (H) and one phi-independent member
    # (the phase gate).  Both signs evaluate the phase gate once, at full
    # starts.  The sign +1 member matches it exactly, so the sign -1 phase
    # distance already exceeds the best fit and that sign is skipped.  The
    # sign +1 search evaluates H on the grid in grouped ascents
    # (``sup_norm_values``, no per-call span), then once per Brent step at
    # the grid's starts (the tracer's "grid" label) and once at the best phi
    # at full starts ("refine"): two statics and one final H.
    assert metrics["channel.sup_norm_report.grid.calls"] == (
        metrics["families.minimize_scalar.nfev"]
    )
    assert metrics["channel.sup_norm_report.refine.calls"] == 3
    # Members built: both gates once per sign, up front.  Every phi, on the
    # grid and in the refinement, is a phase-orbit point of those builds.
    assert metrics["channel.member.calls"] == 2 + 2


def test_tracer_counts_both_signs_when_neither_is_ruled_out(tmp_path, capsys):
    # The sign -1 phase distance, 2 sin(pi/32) = 0.196, is below the 0.3 of
    # the heavily depolarised H, so it cannot rule that sign out and both
    # signs are searched in full.
    _, metrics = traced_check(
        tmp_path,
        capsys,
        ["h-phase", "--alpha", "1/32pi"],
        [
            {
                "kind": "hadamard",
                "params": {"phi": 0.4},
                "noise": [{"kind": "depolarize", "strength": 0.3}],
            },
            {"kind": "phase", "params": {"alpha": "1/32pi"}},
        ],
    )
    # Each sign makes one full-start phase evaluation and one full-start
    # final H; every Brent step of both searches runs at the grid's starts.
    assert metrics["families.minimize_scalar.calls"] == 2
    assert metrics["channel.sup_norm_report.grid.calls"] == (
        metrics["families.minimize_scalar.nfev"]
    )
    assert metrics["channel.sup_norm_report.refine.calls"] == 4


def test_tracer_counts_one_sign_at_alpha_pi(tmp_path, capsys):
    # phase(pi) and phase(-pi) are the same gate, so an alpha = pi family has
    # one sign: one phase distance, one search (at the grid's starts) and one
    # final evaluation.
    _, metrics = traced_check(
        tmp_path,
        capsys,
        ["h-phase", "--alpha", "1pi"],
        [
            {"kind": "hadamard", "params": {"phi": 0.4}},
            {"kind": "phase", "params": {"alpha": "pi"}},
        ],
    )
    assert metrics["families.minimize_scalar.calls"] == 1
    assert metrics["channel.sup_norm_report.grid.calls"] == (
        metrics["families.minimize_scalar.nfev"]
    )
    assert metrics["channel.sup_norm_report.refine.calls"] == 2


def test_two_qubit_grid_evaluations_are_pruned(tmp_path, capsys):
    # H is evaluated on the whole grid, in grouped ascents that make no
    # per-call span; CNOT one call at a time, only where H's distance leaves
    # room for a better fit.  Every Brent step then evaluates H and CNOT once
    # each at the grid's starts, and the final fit evaluates both at full
    # starts.
    noise = [{"kind": "depolarize", "strength": 0.05}]
    traced, metrics = traced_check(
        tmp_path,
        capsys,
        ["h-cnot"],
        [
            {"kind": "hadamard", "params": {"phi": 2.5}, "noise": noise},
            {"kind": "cnot", "params": {"phi": 2.5}, "noise": noise},
        ],
    )
    norms = [s[5] for s in traced if s[0] == "channel.sup_norm_report"]
    grid_n1 = sum(1 for a in norms if a["n"] == 1 and a["starts"] is not None)
    grid_n2 = sum(1 for a in norms if a["n"] == 2 and a["starts"] is not None)
    nfev = metrics["families.minimize_scalar.nfev"]
    assert grid_n1 == nfev
    assert 1 <= grid_n2 - nfev <= 16
    assert metrics["channel.sup_norm_report.grid.calls"] == grid_n1 + grid_n2
    assert metrics["channel.sup_norm_report.refine.calls"] == 2
    # One sign, so H and CNOT are built once each; no build per phi.
    assert metrics["channel.member.calls"] == 2
