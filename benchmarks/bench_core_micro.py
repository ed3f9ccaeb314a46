"""Micro-benchmarks of the model's inner loops.

These pin the throughput of the two hot paths of the columnar kernel —
significance over the prior-count matrices and one customer's records
built from the columns — so regressions in the core show up even when
the end-to-end benches are dominated by data generation.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import Scoring, pair_significance, stability_matrix
from repro.core.engines import customer_trajectory
from repro.core.windowing import WindowGrid
from repro.data.basket import Basket
from repro.data.population import PopulationFrame
from repro.data.transactions import TransactionLog


def _synthetic_frame(n_windows: int, n_items: int, seed: int = 0) -> PopulationFrame:
    """One customer buying a random half of ``n_items`` in each of
    ``n_windows`` one-day windows."""
    rng = np.random.default_rng(seed)
    log = TransactionLog()
    for day in range(n_windows):
        items = rng.choice(n_items, size=n_items // 2, replace=False)
        log.add(Basket.of(customer_id=1, day=day, items=items.tolist()))
    return PopulationFrame.from_log(log, WindowGrid.daily(n_windows, 1))


def test_pair_significance_throughput(benchmark):
    frame = _synthetic_frame(n_windows=50, n_items=200)
    presence, prior, significance = benchmark(pair_significance, frame, Scoring())
    assert significance.shape == (frame.n_pairs, 50)
    assert (prior[:, -1] + presence[:, -1] == presence.sum(axis=1)).all()


def test_customer_trajectory_throughput(benchmark):
    frame = _synthetic_frame(n_windows=50, n_items=200)
    fit = stability_matrix(frame)
    trajectory = benchmark(customer_trajectory, fit, 0, Scoring())
    assert len(trajectory) == 50
    assert trajectory.at(10).defined
