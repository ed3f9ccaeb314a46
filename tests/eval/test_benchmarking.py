"""Tests for repro.eval.benchmarking (the fit-time telemetry)."""

from __future__ import annotations

from repro.core.model import StabilityModel
from repro.data.population import PopulationFrame
from repro.eval.benchmarking import time_fit


def test_time_fit_times_the_kernel_on_one_prebuilt_frame(tiny_dataset, monkeypatch):
    # The log's encoding happens once, outside the best-of loop, so every
    # timed fit reads the same frame instead of re-encoding the log.
    encodings: list[PopulationFrame] = []
    fitted: list[object] = []
    from_log = PopulationFrame.from_log
    fit = StabilityModel.fit

    def counted_from_log(*args, **kwargs):
        frame = from_log(*args, **kwargs)
        encodings.append(frame)
        return frame

    def recorded_fit(self, log, customers=None):
        fitted.append(log)
        return fit(self, log, customers)

    monkeypatch.setattr(PopulationFrame, "from_log", counted_from_log)
    monkeypatch.setattr(StabilityModel, "fit", recorded_fit)
    assert time_fit(tiny_dataset, repeat=3) > 0
    assert len(encodings) == 1
    assert len(fitted) == 3
    assert all(source is encodings[0] for source in fitted)
