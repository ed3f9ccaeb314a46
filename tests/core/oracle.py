"""A reference for the stability model, written straight from the paper.

PAPER.md §1, one customer at a time, in the plainest Python: no numpy
and no helper from ``repro.core``, so a test that compares it with an
implementation checks the equations, not one implementation against
another.

* The windowed database: ``u_k`` is the union of the items a customer
  bought in window ``k``, for every window from the one the customer was
  registered in (their first basket's, or window 0 when registered up
  front).
* ``c(k)`` / ``l(k)``: the number of prior windows that do / do not
  contain ``p``, found by scanning those windows.  Under the
  ``"since-first-seen"`` counting scheme ``l`` only counts the prior
  windows from ``p``'s first purchase on.
* ``S(p, k) = alpha ** (c(k) - l(k))`` when ``c(k) > 0``, else 0; or any
  other rule of ``(c, l)`` (:func:`frequency_ratio`, :func:`linear`),
  times the item's weight when weights are given (1 when unlisted).
* Stability: the significance mass of the items in ``u_k`` over the
  mass of every item, ``nan`` when that mass is 0.  Items with
  ``c(k) = 0`` score 0, so "every item" reduces to the items bought in
  a prior window.

A ``rule`` argument is either ``alpha`` (the paper's exponential rule)
or a function of ``(c, l)``.
* The explanation: the top-K ``argmax`` of ``S(p, k)`` over the items
  missing from ``u_k`` (with ``S > 0``), ties broken by item id.
"""

from __future__ import annotations

import math
from collections.abc import Callable

Rule = float | Callable[[int, int], float]


def frequency_ratio(c: int, l: int) -> float:
    """``S = c / (c + l)``."""
    return c / (c + l)


def linear(c: int, l: int) -> float:
    """``S = max(c - l, 0)``."""
    return float(max(c - l, 0))


def window_index(boundaries: list[int], day: int) -> int:
    """The window ``k`` with ``boundaries[k] <= day < boundaries[k + 1]``."""
    for k in range(len(boundaries) - 1):
        if boundaries[k] <= day < boundaries[k + 1]:
            return k
    raise ValueError(f"day {day} is outside the windows")


def windowed_unions(
    baskets: list[tuple[int, set[int]]], boundaries: list[int], first_window: int
) -> list[set[int]]:
    """``u_k`` for windows ``first_window`` to the last, from a customer's
    ``(day, items)`` baskets (an empty window has an empty union)."""
    unions: list[set[int]] = [
        set() for _ in range(first_window, len(boundaries) - 1)
    ]
    for day, items in baskets:
        unions[window_index(boundaries, day) - first_window] |= set(items)
    return unions


def prior_counts(
    prior: list[set[int]], item: int, counting: str = "paper"
) -> tuple[int, int]:
    """``(c, l)``: how many of the ``prior`` windows do and do not hold
    ``item`` (under ``"since-first-seen"``, only from its first on)."""
    c = 0
    first = None
    for index, union in enumerate(prior):
        if item in union:
            c += 1
            if first is None:
                first = index
    counted = len(prior)
    if counting == "since-first-seen" and first is not None:
        counted = len(prior) - first
    return c, counted - c


def significance(rule: Rule, c: int, l: int) -> float:
    """``S`` of counts ``(c, l)``: 0 when ``c == 0``."""
    if c == 0:
        return 0.0
    if callable(rule):
        return rule(c, l)
    return rule ** (c - l)


def significances(
    unions: list[set[int]],
    k: int,
    rule: Rule,
    counting: str = "paper",
    weights: dict[int, float] | None = None,
) -> dict[int, float]:
    """``S(p, k)`` of every item bought in a window before ``k``."""
    prior = unions[:k]
    seen: set[int] = set()
    for union in prior:
        seen |= union
    scores = {}
    for item in seen:
        c, l = prior_counts(prior, item, counting)
        weight = 1.0 if weights is None else weights.get(item, 1.0)
        scores[item] = significance(rule, c, l) * weight
    return scores


def stability(
    unions: list[set[int]],
    k: int,
    rule: Rule,
    counting: str = "paper",
    weights: dict[int, float] | None = None,
) -> float:
    """``Stability^k``: kept significance mass over total mass."""
    scores = significances(unions, k, rule, counting, weights)
    total = sum(scores.values())
    if total <= 0:
        return math.nan
    kept = sum(score for item, score in scores.items() if item in unions[k])
    return kept / total


def explanation(
    unions: list[set[int]],
    k: int,
    rule: Rule,
    top_k: int,
    counting: str = "paper",
    weights: dict[int, float] | None = None,
) -> list[tuple[int, float]]:
    """The ``top_k`` most significant items missing from ``u_k``."""
    scores = significances(unions, k, rule, counting, weights)
    missing = [
        (item, score)
        for item, score in scores.items()
        if item not in unions[k] and score > 0
    ]
    missing.sort(key=lambda pair: (-pair[1], pair[0]))
    return missing[:top_k]
