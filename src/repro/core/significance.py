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
An incremental :class:`SignificanceTracker` maintains the counts while
windows stream by, giving O(items-per-window) amortised updates instead of
recomputing counts from scratch.

Two counting schemes are supported:

* ``"paper"`` (default) — the strict definition above, ``l = k - c``;
* ``"since-first-seen"`` — absences only accumulate after the item's
  first purchase, an ablation variant that does not penalise late
  adopters of a product.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigError, ConfigWarning

__all__ = [
    "SignificanceFunction",
    "ExponentialSignificance",
    "FrequencyRatioSignificance",
    "LinearSignificance",
    "ItemCounts",
    "SignificanceTracker",
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

    Every entry point that accepts ``alpha`` — this module, the
    vectorised kernels, the batch engine and :class:`StabilityModel` —
    funnels through this single check so the behaviour stays consistent.
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


@dataclass(frozen=True, slots=True)
class ItemCounts:
    """Prior-window counts for one item: ``c`` (present) and ``l`` (absent)."""

    c: int = 0
    l: int = 0


class SignificanceTracker:
    """Incrementally tracks ``c(k)``/``l(k)`` and significance per item.

    Usage: call :meth:`significance_snapshot` (or :meth:`significance_of`)
    *before* :meth:`observe_window` for each window in order — counts are
    defined over windows *strictly prior* to ``k``, so the snapshot for
    window ``k`` reflects windows ``0..k-1`` only.

    Internally only the presence count ``c`` and the first-seen window are
    stored per item; ``l`` is derived from the number of observed windows
    according to the counting scheme, so an update touches only the items
    present in the window.

    Examples
    --------
    >>> tracker = SignificanceTracker(ExponentialSignificance(alpha=2))
    >>> tracker.observe_window({1, 2})
    >>> tracker.significance_of(1)
    2.0
    >>> tracker.observe_window({1})
    >>> tracker.significance_of(2)  # c=1, l=1: 2 ** 0
    1.0
    """

    def __init__(
        self,
        function: SignificanceFunction | None = None,
        counting: str = "paper",
    ) -> None:
        if counting not in COUNTING_SCHEMES:
            raise ConfigError(
                f"unknown counting scheme {counting!r}; expected one of {COUNTING_SCHEMES}"
            )
        self.function = function if function is not None else ExponentialSignificance()
        self.counting = counting
        self._presence: dict[int, int] = {}  # item -> c
        self._first_seen: dict[int, int] = {}  # item -> window index of first purchase
        self._n_windows = 0

    @property
    def n_windows_observed(self) -> int:
        """Number of windows fed to :meth:`observe_window` so far."""
        return self._n_windows

    def known_items(self) -> frozenset[int]:
        """Items seen in at least one observed window (``c > 0``).

        This is the effective support of the denominator
        ``sum_{p in I} S(p, k)``: items with ``c = 0`` score 0 by
        definition, so the universe ``I`` reduces to the items the
        customer has ever bought.
        """
        return frozenset(self._presence)

    def counts_of(self, item: int) -> ItemCounts:
        """Current ``(c, l)`` counts for an item (zeros if never seen)."""
        c = self._presence.get(item, 0)
        if c == 0:
            return ItemCounts(c=0, l=self._n_windows if self.counting == "paper" else 0)
        if self.counting == "paper":
            l = self._n_windows - c
        else:
            l = self._n_windows - self._first_seen[item] - c
        return ItemCounts(c=c, l=l)

    def significance_of(self, item: int) -> float:
        """``S(item, k)`` where ``k`` is the next window to be observed."""
        counts = self.counts_of(item)
        return self.function(counts.c, counts.l)

    def significance_snapshot(self) -> dict[int, float]:
        """``S(p, k)`` for every known item, at the next window ``k``."""
        return {item: self.significance_of(item) for item in self._presence}

    def observe_window(self, items: Iterable[int]) -> None:
        """Fold window contents ``u_k`` into the counts.

        Items are folded in sorted order so the snapshot dict's
        iteration order — and with it every downstream float
        accumulation — is a function of the window *contents*, never of
        the hash-table layout of the set that delivered them.  That is
        what lets a log-built and a column-rebuilt history produce
        bit-identical trajectories.
        """
        window_index = self._n_windows
        for item in sorted(set(items)):
            if item not in self._presence:
                self._presence[item] = 1
                self._first_seen[item] = window_index
            else:
                self._presence[item] += 1
        self._n_windows += 1
