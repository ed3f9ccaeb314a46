"""The two stability engines behind ``get_engine``."""

from __future__ import annotations

import pytest

from repro.core.engines import (
    FitSpec,
    StabilityEngine,
    available_engines,
    get_engine,
)
from repro.core.significance import ExponentialSignificance, LinearSignificance
from repro.errors import ConfigError


def spec(**overrides) -> FitSpec:
    defaults = dict(significance=ExponentialSignificance(2.0))
    defaults.update(overrides)
    return FitSpec(**defaults)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert available_engines() == ("incremental", "batch")

    def test_get_engine_round_trips_names(self):
        for name in available_engines():
            engine = get_engine(name)
            assert engine.name == name
            assert isinstance(engine, StabilityEngine)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown backend 'gpu'"):
            get_engine("gpu")


class TestValidation:
    def test_incremental_accepts_any_rule(self):
        get_engine("incremental").validate(
            spec(significance=LinearSignificance(), counting="since-first-seen")
        )

    @pytest.mark.parametrize("name", ["batch"])
    def test_numpy_engines_require_exponential(self, name):
        with pytest.raises(ConfigError, match="ExponentialSignificance"):
            get_engine(name).validate(spec(significance=LinearSignificance()))

    @pytest.mark.parametrize("name", ["batch"])
    def test_numpy_engines_require_paper_counting(self, name):
        with pytest.raises(ConfigError, match="counting"):
            get_engine(name).validate(spec(counting="since-first-seen"))

    @pytest.mark.parametrize("name", ["batch"])
    def test_numpy_engines_reject_item_weights(self, name):
        with pytest.raises(ConfigError, match="item_weights"):
            get_engine(name).validate(spec(item_weights={1: 2.0}))

    @pytest.mark.parametrize("name", ["incremental"])
    def test_serial_engines_reject_parallel_fit(self, name):
        with pytest.raises(ConfigError, match="n_jobs"):
            get_engine(name).validate(spec(n_jobs=4))

    def test_batch_accepts_parallel_fit(self):
        get_engine("batch").validate(spec(n_jobs=4))
