"""Cross-layer property tests (hypothesis).

These fuzz whole pipelines with randomly generated logs, pinning the
invariants that hold regardless of data:

* CSV serialisation round-trips exactly;
* the streaming monitor agrees with the batch model;
* the batch model agrees with the paper-equation oracle end to end;
* stability stays in [0, 1] through the full model facade;
* abstraction (product -> segment) never increases the item universe.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.streaming import StabilityMonitor
from repro.data.basket import Basket
from repro.data.calendar import StudyCalendar
from repro.data.io import read_log_csv, write_log_csv
from repro.data.transactions import TransactionLog
from tests.core import oracle

# A 6-month mini-study keeps the fuzzing fast while covering several windows.
_CALENDAR = StudyCalendar(n_months=6)

basket_strategy = st.builds(
    Basket.of,
    customer_id=st.integers(min_value=0, max_value=4),
    day=st.integers(min_value=0, max_value=_CALENDAR.n_days - 1),
    items=st.frozensets(st.integers(min_value=0, max_value=9), min_size=0, max_size=5),
    monetary=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)

log_strategy = st.lists(basket_strategy, min_size=1, max_size=40).map(TransactionLog)


class TestSerialisationProperties:
    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy)
    def test_csv_round_trip_exact(self, log: TransactionLog, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "log.csv"
        write_log_csv(log, path)
        restored = read_log_csv(path)
        assert restored.n_baskets == log.n_baskets
        for customer in log.customers():
            # Monetary values round-trip bit-exactly: the writer emits
            # full repr precision, not a rounded fixed-point format.
            original = [
                (b.day, b.items, b.monetary) for b in log.history(customer)
            ]
            back = [
                (b.day, b.items, b.monetary) for b in restored.history(customer)
            ]
            assert back == original


class TestEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy)
    def test_streaming_matches_batch(self, log: TransactionLog):
        model = StabilityModel(_CALENDAR, config=ExperimentConfig(window_months=1)).fit(log)
        monitor = StabilityMonitor(model.grid)
        for customer in log.customers():
            monitor.register(customer)
        reports = monitor.ingest_many(sorted(log, key=lambda b: b.day))
        reports += monitor.finish()
        by_window = {r.window_index: r for r in reports}
        for customer in log.customers():
            trajectory = model.trajectory(customer)
            for k in range(model.n_windows):
                batch = trajectory.at(k).stability
                streamed = by_window[k].stabilities[customer]
                if math.isnan(batch):
                    assert math.isnan(streamed)
                else:
                    assert streamed == pytest.approx(batch, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy, alpha=st.sampled_from([1.5, 2.0, 4.0]))
    def test_batch_matches_incremental(self, log: TransactionLog, alpha):
        # The per-customer reference is the paper-equation oracle.
        config = ExperimentConfig(window_months=1, alpha=alpha)
        model = StabilityModel(_CALENDAR, config=config).fit(log)
        assert model.customers() == log.customers()
        boundaries = list(model.grid.boundaries)
        for customer in model.customers():
            baskets = [(b.day, set(b.items)) for b in log.history(customer)]
            unions = oracle.windowed_unions(baskets, boundaries, 0)
            for k, value in enumerate(model.trajectory(customer).values()):
                want = oracle.stability(unions, k, alpha)
                if math.isnan(want):
                    assert math.isnan(value)
                else:
                    assert value == pytest.approx(want, rel=1e-12)


class TestModelInvariants:
    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy, alpha=st.sampled_from([1.5, 2.0, 4.0]))
    def test_stability_bounded_through_facade(self, log: TransactionLog, alpha):
        config = ExperimentConfig(window_months=1, alpha=alpha)
        model = StabilityModel(_CALENDAR, config=config).fit(log)
        for customer in model.customers():
            for value in model.trajectory(customer).values():
                assert math.isnan(value) or 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy)
    def test_churn_scores_bounded(self, log: TransactionLog):
        model = StabilityModel(_CALENDAR, config=ExperimentConfig(window_months=1)).fit(log)
        for k in range(model.n_windows):
            for score in model.churn_scores(k).values():
                assert 0.0 <= score <= 1.0 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(log=log_strategy, modulus=st.integers(min_value=1, max_value=5))
    def test_abstraction_shrinks_universe(self, log: TransactionLog, modulus):
        lifted = log.abstracted(lambda i: i % modulus)
        assert len(lifted.item_universe()) <= len(log.item_universe())
        assert lifted.n_baskets == log.n_baskets
