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
  contain ``p``, found by scanning those windows.
* ``S(p, k) = alpha ** (c(k) - l(k))`` when ``c(k) > 0``, else 0.
* Stability: the significance mass of the items in ``u_k`` over the
  mass of every item, ``nan`` when that mass is 0.  Items with
  ``c(k) = 0`` score 0, so "every item" reduces to the items bought in
  a prior window.
* The explanation: the top-K ``argmax`` of ``S(p, k)`` over the items
  missing from ``u_k`` (with ``S > 0``), ties broken by item id.
"""

from __future__ import annotations

import math


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


def prior_counts(prior: list[set[int]], item: int) -> tuple[int, int]:
    """``(c, l)``: how many of the ``prior`` windows do and do not hold ``item``."""
    c = 0
    for union in prior:
        if item in union:
            c += 1
    return c, len(prior) - c


def significances(unions: list[set[int]], k: int, alpha: float) -> dict[int, float]:
    """``S(p, k)`` of every item bought in a window before ``k``."""
    prior = unions[:k]
    seen: set[int] = set()
    for union in prior:
        seen |= union
    scores = {}
    for item in seen:
        c, l = prior_counts(prior, item)
        scores[item] = alpha ** (c - l) if c > 0 else 0.0
    return scores


def stability(unions: list[set[int]], k: int, alpha: float) -> float:
    """``Stability^k``: kept significance mass over total mass."""
    scores = significances(unions, k, alpha)
    total = sum(scores.values())
    if total <= 0:
        return math.nan
    kept = sum(score for item, score in scores.items() if item in unions[k])
    return kept / total


def explanation(
    unions: list[set[int]], k: int, alpha: float, top_k: int
) -> list[tuple[int, float]]:
    """The ``top_k`` most significant items missing from ``u_k``."""
    scores = significances(unions, k, alpha)
    missing = [
        (item, score)
        for item, score in scores.items()
        if item not in unions[k] and score > 0
    ]
    missing.sort(key=lambda pair: (-pair[1], pair[0]))
    return missing[:top_k]
