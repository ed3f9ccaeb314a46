"""Micro-benchmarks of the model's inner loops.

These pin the throughput of the two hot paths — significance tracking and
stability trajectories — so regressions in the core show up even when the
end-to-end benches are dominated by data generation.
"""

from __future__ import annotations

import numpy as np

from repro.core.significance import ExponentialSignificance, SignificanceTracker
from repro.core.stability import stability_trajectory
from repro.core.windowing import Window


def _synthetic_windows(n_windows: int, n_items: int, seed: int = 0) -> list[Window]:
    rng = np.random.default_rng(seed)
    windows = []
    for k in range(n_windows):
        items = frozenset(
            int(i) for i in rng.choice(n_items, size=n_items // 2, replace=False)
        )
        windows.append(Window(index=k, begin_day=k, end_day=k + 1, items=items))
    return windows


def test_significance_tracker_throughput(benchmark):
    windows = _synthetic_windows(n_windows=50, n_items=200)

    def run():
        tracker = SignificanceTracker(ExponentialSignificance(2.0))
        for window in windows:
            tracker.significance_snapshot()
            tracker.observe_window(window.items)
        return tracker

    tracker = benchmark(run)
    assert tracker.n_windows_observed == 50


def test_stability_trajectory_throughput(benchmark):
    windows = _synthetic_windows(n_windows=50, n_items=200)
    trajectory = benchmark(stability_trajectory, 1, windows)
    assert len(trajectory) == 50
    assert trajectory.at(10).defined
