"""The benchmark's tracer must see every layer it rebinds.

``bench/spans.py`` records spans by rebinding module attributes such as
``gateselftest.families.hadamard``.  Code that captures those functions by
value (in a table built at import time, say) runs untraced, and the per-layer
metrics silently read zero.  This runs one small ``check`` under the tracer and
also pins how many norm evaluations ``dist_to_family`` makes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import spans  # noqa: E402

from gateselftest.cli import main  # noqa: E402
from gateselftest.families import PHI_GRID_POINTS  # noqa: E402


def test_tracer_records_every_family_layer(tmp_path, capsys):
    gates = []
    for name, spec in (
        ("h", {"kind": "hadamard", "params": {"phi": 0.4}}),
        ("p", {"kind": "phase", "params": {"alpha": "1/4pi"}}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        gates += ["--gate", str(path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = main(["check", "--family", "h-phase", "--alpha", "1/4pi", *gates])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    for layer in (
        "channel.member",
        "channel.sup_norm_report",
        "families.minimize_scalar",
        "equations.family_equations",
    ):
        assert layer in names

    # h-phase has one phi-dependent member (H) and one phi-independent member
    # (the phase gate).  Per sign: one grid evaluation of H per grid point; one
    # evaluation of the phase gate, reused for the final report; one of H per
    # refinement step; and one final evaluation of H at the best phi.
    metrics = {k: v for k, (v, _unit) in spans.layer_metrics(tracer.spans, 1).items()}
    assert metrics["channel.sup_norm_report.grid.calls"] == 2 * PHI_GRID_POINTS
    assert metrics["channel.sup_norm_report.refine.calls"] == (
        metrics["families.minimize_scalar.nfev"] + 4
    )
