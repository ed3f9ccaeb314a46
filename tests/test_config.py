"""ExperimentConfig: the validated, frozen spine of every experiment."""

from __future__ import annotations

import inspect
import re

import pytest

from repro.baselines.rfm import RFMModel
from repro.config import ExperimentConfig
from repro.core.model import StabilityModel
from repro.core.significance import ExponentialSignificance
from repro.core.windowing import WindowGrid
from repro.errors import ConfigError
from repro.eval.figure1 import run_figure1
from repro.eval.figure2 import run_figure2
from repro.eval.protocol import EvaluationProtocol


class TestValidation:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.window_months == 2
        assert config.alpha == 2.0
        assert config.backend == "batch"

    def test_window_months_must_be_positive(self):
        with pytest.raises(ConfigError, match="window_months must be positive"):
            ExperimentConfig(window_months=0)

    def test_alpha_validated(self):
        with pytest.raises(ConfigError, match="alpha must be positive"):
            ExperimentConfig(alpha=-1.0)

    def test_sub_one_alpha_warns(self):
        with pytest.warns(Warning, match="alpha=0.5"):
            ExperimentConfig(alpha=0.5)

    def test_month_range_ordering(self):
        with pytest.raises(ConfigError, match="first_month 20 > last_month 12"):
            ExperimentConfig(first_month=20, last_month=12)

    def test_unknown_counting_scheme(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(counting="nope")

    def test_unknown_backend_names_the_registry(self):
        for backend in ("gpu", "vectorized", "incremental"):
            with pytest.raises(
                ConfigError,
                match=re.escape(
                    f"unknown backend {backend!r}; expected one of ('batch',)"
                ),
            ):
                ExperimentConfig(backend=backend)

    def test_n_jobs_zero_rejected(self):
        with pytest.raises(ConfigError, match="n_jobs"):
            ExperimentConfig(n_jobs=0)

    def test_n_jobs_all_cores_sentinel_allowed(self):
        assert ExperimentConfig(backend="batch", n_jobs=-1).n_jobs == -1

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigError, match="retries must be >= 0"):
            ExperimentConfig(retries=-1)

    def test_retries_default_and_zero_allowed(self):
        assert ExperimentConfig().retries == 2
        assert ExperimentConfig(retries=0).retries == 0


class TestBehaviour:
    def test_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(Exception):
            config.alpha = 3.0

    def test_hashable_and_usable_as_cache_key(self):
        a = ExperimentConfig(alpha=2.0)
        b = ExperimentConfig(alpha=2.0)
        c = ExperimentConfig(alpha=3.0)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != c

    def test_evolve_returns_validated_copy(self):
        config = ExperimentConfig().evolve(alpha=4.0, backend="batch")
        assert config.alpha == 4.0
        assert config.backend == "batch"
        assert ExperimentConfig().alpha == 2.0  # original untouched
        with pytest.raises(ConfigError):
            ExperimentConfig().evolve(window_months=-1)

    def test_grid_matches_monthly_construction(self, calendar):
        config = ExperimentConfig(window_months=3)
        assert config.grid(calendar) == WindowGrid.monthly(calendar, 3)

    def test_significance_carries_alpha(self):
        rule = ExperimentConfig(alpha=3.0).significance()
        assert isinstance(rule, ExponentialSignificance)
        assert rule.alpha == 3.0


class TestOneCarrier:
    """The config is the only way to set its fields on an entry point."""

    @pytest.mark.parametrize(
        "entry",
        [StabilityModel, RFMModel, EvaluationProtocol, run_figure1, run_figure2],
        ids=lambda entry: entry.__name__,
    )
    def test_entry_point_takes_no_loose_config_field(self, entry):
        parameters = inspect.signature(entry).parameters
        assert parameters["config"].default is None
        fields = {"window_months", "alpha", "first_month", "last_month"}
        assert not fields & parameters.keys()
