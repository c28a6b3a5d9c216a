"""Tests of the benchmark's span arithmetic (spans.py).

    python3 -m pytest -q bench/test_spans.py
"""

import sys
from pathlib import Path

import pytest

import spans

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_self_times_and_speed_samples_are_taken_out():
    grid = spans._grid_starts()
    recorded = [  # name, start, end, parent, op, attrs
        ["cli", 0.0, 10.0, -1, 0, {}],
        ["families.dist_to_family", 1.0, 9.0, 0, 0, {}],
        ["channel.sup_norm_report", 2.0, 5.0, 1, 0, {"n": 2, "starts": grid}],
        [spans.KERNEL, 3.0, 4.0, 2, 0, {}],
        ["channel.sup_norm_report", 6.0, 7.0, 1, 0, {"n": 1, "starts": 64}],
        [spans.KERNEL, 9.5, 9.75, 0, 0, {}],
    ]
    metrics = {k: v for k, (v, _unit) in spans.layer_metrics(recorded, ops=2).items()}
    assert metrics["channel.sup_norm_report.n2.s"] == pytest.approx(2.0 / 2)
    assert metrics["channel.sup_norm_report.grid.calls"] == pytest.approx(1 / 2)
    assert metrics["channel.sup_norm_report.refine.s"] == pytest.approx(1.0 / 2)
    assert metrics["channel.sup_norm_report.n2.ms_per_call"] == pytest.approx(2000.0)
    assert metrics["families.dist_to_family.s"] == pytest.approx(7.0 / 2)
    assert metrics["families.dist_to_family.self_s"] == pytest.approx(4.0 / 2)
    assert metrics["cli.self_s"] == pytest.approx((10.0 - 1.25 - 7.0) / 2)
