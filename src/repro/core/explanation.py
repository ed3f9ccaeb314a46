"""Attrition explanation: which products caused a stability decrease.

Section 2 of the paper: "When the stability of some customer decreases, we
can identify which product mainly caused this decrease.  This product is
defined as ``argmax_{p not in u_k} S(p, k)``, which is the most significant
product that was not bought in window k.  This attrition explanation can be
easily extended to a set of products."

This module implements both the single-product argmax and the top-K
extension, plus drop attribution across consecutive windows (the
"coffee loss" / "milk, sponge and cheese loss" annotations of Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stability import StabilityTrajectory, WindowStability
from repro.errors import ConfigError

__all__ = ["MissingItem", "DropExplanation", "explain_window", "explain_drop", "explain_trajectory"]


@dataclass(frozen=True, slots=True)
class MissingItem:
    """One item implicated in a stability decrease.

    Attributes
    ----------
    item:
        The item id (a segment id at the paper's abstraction level).
    significance:
        ``S(item, k)`` at the explained window.
    share:
        Fraction of the window's total significance mass this item
        accounts for (how much stability was lost by missing it).
    """

    item: int
    significance: float
    share: float


@dataclass(frozen=True)
class DropExplanation:
    """Explanation of the stability level at one window.

    ``missing`` is ranked by decreasing significance; the first entry is
    the paper's ``argmax`` product.  ``newly_missing`` restricts the
    ranking to items that *were* bought in the previous window, isolating
    what changed at this window (the Figure 2 annotations).
    """

    customer_id: int
    window_index: int
    stability: float
    missing: tuple[MissingItem, ...]
    newly_missing: tuple[MissingItem, ...]

    @property
    def top_item(self) -> MissingItem | None:
        """The single most significant missing item, if any."""
        return self.missing[0] if self.missing else None

    def top_items(self, k: int) -> tuple[MissingItem, ...]:
        """The ``k`` most significant missing items."""
        if k < 0:
            raise ConfigError(f"k must be >= 0, got {k}")
        return self.missing[:k]


def _ranked_missing(record: WindowStability, items: dict[int, float]) -> tuple[MissingItem, ...]:
    total = record.total_mass
    ranked = sorted(items.items(), key=lambda pair: (-pair[1], pair[0]))
    return tuple(
        MissingItem(
            item=item,
            significance=sig,
            share=(sig / total) if total > 0 else 0.0,
        )
        for item, sig in ranked
    )


def explain_window(
    trajectory: StabilityTrajectory,
    window_index: int,
    previous_items: frozenset[int] | None = None,
) -> DropExplanation:
    """Explain the stability of one window of a trajectory.

    Parameters
    ----------
    trajectory:
        A stability trajectory with significance snapshots, as
        :meth:`~repro.core.model.StabilityModel.trajectory` returns.
    window_index:
        The window ``k`` to explain.
    previous_items:
        Items of window ``k - 1``; inferred from the trajectory when
        omitted.  Used to compute the ``newly_missing`` ranking.
    """
    record = trajectory.at(window_index)
    missing = record.missing_items()
    if previous_items is None:
        if window_index > 0:
            previous_items = trajectory.at(window_index - 1).window.items
        else:
            previous_items = frozenset()
    newly_missing = {
        item: sig for item, sig in missing.items() if item in previous_items
    }
    return DropExplanation(
        customer_id=trajectory.customer_id,
        window_index=window_index,
        stability=record.stability,
        missing=_ranked_missing(record, missing),
        newly_missing=_ranked_missing(record, newly_missing),
    )


def explain_drop(
    trajectory: StabilityTrajectory, window_index: int
) -> DropExplanation:
    """Alias of :func:`explain_window` focused on a detected drop.

    Kept as a separate entry point so call sites read naturally:
    ``explain_drop(traj, k)`` after ``traj.drops()`` flagged ``k``.
    """
    return explain_window(trajectory, window_index)


def explain_trajectory(
    trajectory: StabilityTrajectory, drop_threshold: float = 0.1
) -> list[DropExplanation]:
    """Explanations for every window flagged as a stability drop."""
    return [explain_drop(trajectory, k) for k in trajectory.drops(drop_threshold)]
