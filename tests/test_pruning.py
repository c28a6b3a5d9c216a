"""The pruned grid search returns what a full scan returns.

``pruned_argmin`` finds the lowest-index minimiser of ``value`` from lower
bounds, evaluating ``value`` only where the bound leaves room.  Small integer
values force ties in both the bounds and the values, and bounds equal to the
values, where the stopping rule and the lowest-index tie-break matter most.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gateselftest.families import PHI_GRID_POINTS, pruned_argmin  # noqa: E402

POINTS = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from([0, 0, 0, 1, 2, 5])),
    min_size=1,
    max_size=PHI_GRID_POINTS,
)


@settings(max_examples=300, deadline=None, database=None)
@given(POINTS)
def test_pruned_argmin_matches_full_scan(points):
    lower = [bound / 4.0 for bound, _ in points]
    full = [(bound + gap) / 4.0 for bound, gap in points]
    visited = []

    def value(j):
        visited.append(j)
        return full[j]

    j_full = min(range(len(full)), key=full.__getitem__)
    assert pruned_argmin(lower, value) == (j_full, full[j_full])
    assert len(visited) == len(set(visited)) <= len(full)


def test_pruned_argmin_stops_at_the_first_bound_above_the_best():
    lower = [0.0, 3.0, 1.0, 2.0, 1.0]
    visited = []

    def value(j):
        visited.append(j)
        return lower[j] + 0.5

    assert pruned_argmin(lower, value) == (0, 0.5)
    assert visited == [0]


def test_pruned_argmin_keeps_the_lowest_index_on_ties():
    # Point 3 is visited first and attains 1.0; point 1 ties it later.
    lower = [2.0, 0.5, 2.0, 0.0]
    full = [2.0, 1.0, 2.0, 1.0]
    visited = []

    def value(j):
        visited.append(j)
        return full[j]

    assert pruned_argmin(lower, value) == (1, 1.0)
    assert visited == [3, 1]
