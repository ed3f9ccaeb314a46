"""Tests for repro.core.detector — the paper's beta-threshold rule."""

from __future__ import annotations

import pytest

from repro.core.detector import ThresholdDetector
from repro.errors import ConfigError
from tests.core.histories import trajectory_of


@pytest.fixture()
def defecting():
    # Stability: nan, 1.0, 1.0, then a drop to 0.5 at window 3.
    return trajectory_of([{1, 2}, {1, 2}, {1, 2}, {1}])


class TestThresholdRule:
    def test_paper_rule_strictly_above_is_loyal(self, defecting):
        detector = ThresholdDetector(beta=0.5)
        # stability == beta means defecting ("otherwise" branch).
        assert detector.is_defecting(defecting, 3)
        assert not detector.is_defecting(defecting, 1)

    def test_beta_one_flags_every_defined_window(self, defecting):
        detector = ThresholdDetector(beta=1.0)
        assert detector.is_defecting(defecting, 1)

    def test_beta_zero_never_fires_on_positive_stability(self, defecting):
        detector = ThresholdDetector(beta=0.0)
        assert not detector.is_defecting(defecting, 3)

    def test_undefined_stability_is_loyal(self, defecting):
        detector = ThresholdDetector(beta=0.9)
        assert not detector.is_defecting(defecting, 0)

    def test_invalid_beta_rejected(self):
        with pytest.raises(ConfigError):
            ThresholdDetector(beta=1.5)
        with pytest.raises(ConfigError):
            ThresholdDetector(beta=-0.1)


class TestAlarms:
    def test_alarms_list(self, defecting):
        alarms = ThresholdDetector(beta=0.6).alarms(defecting)
        assert [a.window_index for a in alarms] == [3]
        assert alarms[0].customer_id == 1
        # At window 3, items 1 and 2 each carry S=8; dropping item 2
        # halves the kept mass.
        assert alarms[0].stability == pytest.approx(0.5)

    def test_first_alarm(self, defecting):
        alarm = ThresholdDetector(beta=0.9).first_alarm(defecting)
        assert alarm is not None
        assert alarm.window_index == 3

    def test_no_alarm_for_loyal(self):
        loyal = trajectory_of([{1}, {1}, {1}])
        assert ThresholdDetector(beta=0.5).first_alarm(loyal) is None

    def test_default_beta(self):
        assert ThresholdDetector().beta == 0.5

    def test_burn_in_suppresses_early_alarms(self, defecting):
        detector = ThresholdDetector(beta=0.6)
        assert detector.alarms(defecting, first_window=4) == []
        assert detector.first_alarm(defecting, first_window=4) is None

    def test_burn_in_keeps_later_alarms(self, defecting):
        detector = ThresholdDetector(beta=0.6)
        alarms = detector.alarms(defecting, first_window=3)
        assert [a.window_index for a in alarms] == [3]

    def test_negative_burn_in_rejected(self, defecting):
        with pytest.raises(ConfigError, match="first_window"):
            ThresholdDetector().alarms(defecting, first_window=-1)
