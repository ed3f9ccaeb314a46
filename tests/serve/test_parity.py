"""The headline invariant: served == offline batch sweep, bit for bit;
and served == the paper's equations (``tests/core/oracle.py``)."""

from __future__ import annotations

import math

import pytest

import repro.serve.pool
from repro.config import ExperimentConfig
from repro.runtime.executor import run_sharded
from repro.serve import (
    ServeCheckpoint,
    offline_sweep,
    offline_sweep_stream,
    score_fingerprint,
    serve_stream,
)
from repro.synth.stream import record_stream
from tests.core import oracle
from tests.core.histories import seeded_log

BATCH = 200


def _assert_tables_identical(result, reference):
    assert result.scores.keys() == reference.scores.keys()
    for cid, stability in result.scores.items():
        expected = reference.scores[cid]
        assert stability == expected or (
            math.isnan(stability) and math.isnan(expected)
        )
    assert result.flags == reference.flags
    assert result.alarm_windows == reference.alarm_windows


class TestParity:
    # perfbench/workloads.py still passes ``parallel=True``, which
    # serve_stream accepts and ignores.
    @pytest.mark.parametrize(
        ("n_shards", "parallel"),
        [(1, False), (3, False), pytest.param(3, True, id="3-ignored-parallel")],
    )
    def test_serve_matches_offline(
        self,
        stream_path,
        serve_config,
        offline_reference,
        tmp_path,
        n_shards,
        parallel,
    ):
        result = serve_stream(
            stream_path,
            tmp_path / "ckpt",
            config=serve_config,
            batch_size=BATCH,
            n_shards=n_shards,
            parallel=parallel,
        )
        assert result.finished
        _assert_tables_identical(result, offline_reference)
        assert result.fingerprint() == offline_reference.fingerprint()

    def test_pool_binds_the_executor_the_benchmark_wraps(self):
        # perfbench/tracing.py wraps repro.serve.pool.run_sharded by name.
        assert repro.serve.pool.run_sharded is run_sharded

    def test_batch_size_never_changes_scores(
        self, stream_path, serve_config, offline_reference, tmp_path
    ):
        for batch_size in (50, 1000):
            result = serve_stream(
                stream_path,
                tmp_path / f"ckpt-{batch_size}",
                config=serve_config,
                batch_size=batch_size,
            )
            assert result.fingerprint() == offline_reference.fingerprint()

    def test_offline_sweep_stream_matches_in_memory(
        self,
        serve_dataset,
        day_ordered_baskets,
        stream_path,
        serve_config,
        offline_reference,
    ):
        in_memory = offline_sweep(
            day_ordered_baskets, serve_dataset.calendar, config=serve_config
        )
        assert in_memory.fingerprint() == offline_reference.fingerprint()

    def test_beta_changes_the_fingerprint(
        self, stream_path, serve_config, offline_reference
    ):
        stricter = offline_sweep_stream(
            stream_path, config=serve_config, beta=0.9
        )
        # Stabilities are beta-independent; alarms are not.
        assert sum(stricter.flags.values()) != sum(
            offline_reference.flags.values()
        )
        assert stricter.fingerprint() != offline_reference.fingerprint()


class TestAgainstTheOracle:
    """Served output against the paper-equation oracle, which shares no
    code with the monitor: every customer's last stability, each
    window's alarm decision and stability, the flags and the counters.

    Tolerance as in ``tests/core/test_oracle.py``: stabilities agree to
    a relative 1e-12 (the monitor computes ``alpha ** (c - l)`` in log
    space), and an alarm decision is only compared where the oracle's
    stability lies more than 1e-9 from the threshold.
    """

    CONFIG = ExperimentConfig(window_months=1)
    BETA = 0.5
    BATCH = 7

    @pytest.fixture(scope="class")
    def history(self, tmp_path_factory):
        calendar, baskets = seeded_log(11, n_customers=16, n_months=10)
        path = tmp_path_factory.mktemp("oracle") / "stream.jsonl"
        return calendar, baskets, record_stream(baskets, path, calendar=calendar)

    def _check(self, result, calendar, baskets) -> None:
        boundaries = list(self.CONFIG.grid(calendar).boundaries)
        first: dict[int, int] = {}
        own: dict[int, list] = {}
        for basket in baskets:
            first.setdefault(basket.customer_id, oracle.window_index(boundaries, basket.day))
            own.setdefault(basket.customer_id, []).append((basket.day, set(basket.items)))
        assert result.finished
        assert list(result.scores) == sorted(first)
        scored = 0
        for customer, first_window in first.items():
            unions = oracle.windowed_unions(own[customer], boundaries, first_window)
            want = [
                oracle.stability(unions, k, self.CONFIG.alpha) for k in range(len(unions))
            ]
            scored += len(want)
            assert _close(result.scores[customer], want[-1]), customer
            served = dict(result.alarm_windows[customer])
            assert list(served) == sorted(served), customer
            for index, value in enumerate(want):
                window = first_window + index
                if window in served:
                    assert _close(served[window], value), (customer, window)
                if not math.isnan(value) and abs(value - self.BETA) > 1e-9:
                    assert (window in served) == (value <= self.BETA), (customer, window)
            assert set(served) <= set(range(first_window, first_window + len(want)))
            assert result.flags[customer] == bool(served), customer
        assert result.counters.ingested == len(baskets)
        assert result.counters.scored == scored
        assert result.counters.flagged == sum(map(len, result.alarm_windows.values()))

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_served_output_matches_the_paper_equations(self, history, tmp_path, n_shards):
        calendar, baskets, path = history
        result = serve_stream(
            path, tmp_path / "ckpt", config=self.CONFIG, batch_size=self.BATCH,
            n_shards=n_shards,
        )
        self._check(result, calendar, baskets)
        assert any(result.flags.values())

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_resumed_output_matches_the_paper_equations(self, history, tmp_path, n_shards):
        """Stop after each of the first commits, so most resumes fold a
        base and its journals, then serve to the end."""
        calendar, baskets, path = history
        journals = 0
        for stop in range(1, 16):
            directory = tmp_path / f"ckpt-{stop}"
            shape = {"config": self.CONFIG, "batch_size": 3, "n_shards": n_shards}
            assert not serve_stream(path, directory, max_batches=stop, **shape).finished
            cursor = ServeCheckpoint(directory).read_cursor()
            journals += cursor.commit_index > cursor.base_index
            result = serve_stream(path, directory, **shape)
            assert result.resumed
            self._check(result, calendar, baskets)
        assert journals >= 5


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


class TestFingerprint:
    def test_nan_aware_and_order_insensitive(self):
        a = score_fingerprint(
            {1: math.nan, 2: 0.5}, {1: False, 2: True}, {2: ((3, 0.5),)}
        )
        b = score_fingerprint(
            {2: 0.5, 1: math.nan}, {2: True, 1: False}, {2: ((3, 0.5),)}
        )
        assert a == b

    def test_sensitive_to_each_component(self):
        base = score_fingerprint({1: 0.5}, {1: False}, {})
        assert score_fingerprint({1: 0.6}, {1: False}, {}) != base
        assert score_fingerprint({1: 0.5}, {1: True}, {}) != base
        assert (
            score_fingerprint({1: 0.5}, {1: False}, {1: ((2, 0.5),)}) != base
        )

    def test_repr_precision_floats(self):
        x = 0.1 + 0.2  # 0.30000000000000004: must not collapse to 0.3
        assert score_fingerprint({1: x}, {1: False}, {}) != score_fingerprint(
            {1: 0.3}, {1: False}, {}
        )
