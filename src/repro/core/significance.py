"""Item significance scores ``S(p, k)``.

Section 2 of the paper: for an item ``p`` and window ``k``, with

* ``c(k)`` = number of windows **prior to** ``k`` that contain ``p``,
* ``l(k)`` = number of windows prior to ``k`` that do **not** contain ``p``,

the significance is ``S(p, k) = alpha ** (c(k) - l(k))`` if ``c(k) > 0``
and ``0`` otherwise, with ``alpha > 1`` so that habitual items dominate.
Note that by this definition ``c(k) + l(k) = k`` for every item: windows
before an item's first purchase count as misses.

The exponential form is the paper's choice; the ablation study (DESIGN.md
A1) compares it against alternatives, so the scoring rule is a small
strategy interface: callables from ``(c, l)`` to a non-negative score.
The columnar kernel (:mod:`repro.core.batch`) counts ``c`` and ``l`` for
every customer and window at once and scores them through a ``(c, l)``
table of the rule (:meth:`~repro.core.batch.Scoring.of`).

Two counting schemes are supported:

* ``"paper"`` (default) — the strict definition above, ``l = k - c``;
* ``"since-first-seen"`` — absences only accumulate after the item's
  first purchase, an ablation variant that does not penalise late
  adopters of a product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from repro.errors import ConfigError, ConfigWarning

__all__ = [
    "SignificanceFunction",
    "ExponentialSignificance",
    "FrequencyRatioSignificance",
    "LinearSignificance",
    "COUNTING_SCHEMES",
    "validate_alpha",
]

#: Supported counting schemes for prior-window absences.
COUNTING_SCHEMES = ("paper", "since-first-seen")


def validate_alpha(alpha: float) -> float:
    """Validate the exponential-significance base ``alpha``.

    The paper requires ``alpha > 1`` so habitual items dominate.
    ``alpha <= 0`` is rejected outright (the score is undefined);
    ``0 < alpha <= 1`` is legal arithmetic but flattens (``alpha == 1``)
    or inverts (``alpha < 1``) the significance ordering, so it emits a
    :class:`~repro.errors.ConfigWarning` instead of silently proceeding.

    Every entry point that accepts ``alpha`` — this module, the columnar
    kernel, :class:`~repro.config.ExperimentConfig` and
    :class:`StabilityModel` — funnels through this single check so the
    behaviour stays consistent.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    if alpha <= 1:
        warnings.warn(
            f"alpha={alpha:g} is outside the paper's alpha > 1 regime: "
            "significance no longer favours habitual items "
            "(alpha = 1 is flat, alpha < 1 inverts the ordering)",
            ConfigWarning,
            stacklevel=3,
        )
    return float(alpha)


class SignificanceFunction:
    """Base strategy: maps prior-window counts ``(c, l)`` to a score.

    Subclasses implement :meth:`score`; the convention ``S = 0`` whenever
    ``c == 0`` (an item never seen before carries no expectation) is
    enforced here so every strategy shares it.
    """

    name: str = "base"

    def score(self, c: int, l: int) -> float:
        """Score for an item seen in ``c`` prior windows, missed in ``l``."""
        raise NotImplementedError

    def __call__(self, c: int, l: int) -> float:
        if c < 0 or l < 0:
            raise ConfigError(f"counts must be non-negative, got c={c}, l={l}")
        if c == 0:
            return 0.0
        return self.score(c, l)


@dataclass(frozen=True)
class ExponentialSignificance(SignificanceFunction):
    """The paper's scoring rule: ``S = alpha ** (c - l)``.

    ``alpha`` is "a parameter of the method"; the paper generally fixes
    ``alpha > 1`` (and uses ``alpha = 2`` in the experiments) so that the
    significance grows when an item keeps recurring and shrinks
    geometrically when it is missed.

    The score is computed in log space with the exponent clamped to the
    finite double range: on long histories ``alpha ** (c - l)`` would
    overflow (``2 ** 1100`` already exceeds the largest double), and a
    saturated-but-finite score keeps the stability ratio well defined —
    only the *relative* significance of items matters to stability and to
    the argmax explanation.

    >>> ExponentialSignificance(alpha=2)(c=3, l=1)  # 2 ** (3 - 1)
    4.0
    >>> ExponentialSignificance(alpha=2)(c=0, l=2)  # never bought before
    0.0
    """

    alpha: float = 2.0
    name: str = field(default="exponential", init=False)

    #: |log-score| cap; exp(700) is close to the largest finite double.
    _MAX_LOG: float = field(default=700.0, init=False, repr=False)

    def __post_init__(self) -> None:
        validate_alpha(self.alpha)

    def score(self, c: int, l: int) -> float:
        log_score = (c - l) * math.log(self.alpha)
        # Underflow is harmless (math.exp returns 0.0); only cap the top.
        return math.exp(min(log_score, self._MAX_LOG))


@dataclass(frozen=True)
class FrequencyRatioSignificance(SignificanceFunction):
    """Ablation alternative: ``S = c / (c + l)`` (prior-window frequency)."""

    name: str = field(default="frequency-ratio", init=False)

    def score(self, c: int, l: int) -> float:
        return c / (c + l) if (c + l) else 0.0


@dataclass(frozen=True)
class LinearSignificance(SignificanceFunction):
    """Ablation alternative: ``S = max(c - l, 0)`` (clipped count margin)."""

    name: str = field(default="linear", init=False)

    def score(self, c: int, l: int) -> float:
        return float(max(c - l, 0))
