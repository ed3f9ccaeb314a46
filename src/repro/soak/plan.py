"""Frozen value objects describing a chaos/soak run.

Two plans, both immutable and validated at construction:

* :class:`SoakPlan` — *how much* load: loops vs wall-clock duration
  (the ``StabilityPlan`` idiom from SNIPPETS.md Snippet 3), an optional
  basket-rate cap, the serving shape (batch size, shards) and the
  latency/throughput SLOs the run is held to.
* :class:`ChaosSchedule` — *what goes wrong, and when*: the
  ``(shard, attempt)`` cells of :class:`~repro.runtime.faults.FaultPlan`
  generalised to ``(batch, site)`` cells, where *batch* is the 1-based
  commit index of a data batch in the served stream and *site* is the
  infrastructure layer the fault strikes:

  ========================  ==================================================
  site                      what is injected
  ========================  ==================================================
  ``kill_resume``           the serving process dies *between* the batch's
                            state write and its cursor commit — the
                            worst-case crash point
  ``tear_cursor``           the newest cursor (``cursor-<batch>.json``) is
                            truncated mid-byte after the batch commits
                            (external corruption)
  ``tear_state``            the newest committed state file (the batch's
                            journal, or its base's first shard file) is
                            truncated after the batch commits
  ``ckpt_io``               the batch's checkpoint state write raises a
                            transient ``OSError`` (ENOSPC/EACCES) cleared by
                            one retry
  ========================  ==================================================

Like :class:`~repro.runtime.faults.FaultPlan`, a schedule rejects
duplicate cells and conflicting cells (two sites on one batch) at
construction — a chaos run must be a deterministic script, not a race.
"""

from __future__ import annotations

import errno as _errno
from dataclasses import dataclass, field, fields

from repro.errors import ConfigError

__all__ = [
    "SITE_KILL_RESUME",
    "SITE_TEAR_CURSOR",
    "SITE_TEAR_STATE",
    "SITE_CKPT_IO",
    "CHAOS_SITES",
    "ChaosCell",
    "ChaosSchedule",
    "SoakPlan",
]

SITE_KILL_RESUME = "kill_resume"
SITE_TEAR_CURSOR = "tear_cursor"
SITE_TEAR_STATE = "tear_state"
SITE_CKPT_IO = "ckpt_io"

#: Every fault site a schedule can target, in the order the default
#: smoke schedule exercises them.
CHAOS_SITES = (
    SITE_TEAR_CURSOR,
    SITE_KILL_RESUME,
    SITE_CKPT_IO,
    SITE_TEAR_STATE,
)


@dataclass(frozen=True)
class ChaosCell:
    """One scheduled fault: ``(batch, site)`` plus site parameters."""

    #: 1-based commit index of the data batch the fault strikes.
    batch: int
    #: One of :data:`CHAOS_SITES`.
    site: str
    #: ``ckpt_io`` only: the simulated ``OSError`` errno.
    errno_code: int = 0

    def label(self) -> str:
        return f"(batch {self.batch}, site {self.site})"


@dataclass(frozen=True)
class ChaosSchedule:
    """Deterministic ``(batch, site)`` fault schedule for one soak.

    Attributes
    ----------
    kills:
        Batches killed between state write and cursor commit; the
        harness verifies the resume reworks exactly one batch.
    torn_cursors:
        Batches after whose commit the newest cursor is torn; the
        harness verifies the next leg falls back to the stream head.
    torn_state:
        Batches after whose commit one shard state file is torn; same
        fallback contract as a torn cursor.
    io_errors:
        ``(batch, errno)`` pairs: the batch's checkpoint state write
        raises that transient ``OSError`` once, exercising the bounded
        retry-with-backoff in :class:`~repro.serve.checkpoint.ServeCheckpoint`.
    """

    kills: tuple[int, ...] = ()
    torn_cursors: tuple[int, ...] = ()
    torn_state: tuple[int, ...] = ()
    io_errors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kills", tuple(int(b) for b in self.kills))
        object.__setattr__(
            self, "torn_cursors", tuple(int(b) for b in self.torn_cursors)
        )
        object.__setattr__(
            self, "torn_state", tuple(int(b) for b in self.torn_state)
        )
        object.__setattr__(
            self,
            "io_errors",
            tuple((int(b), int(e)) for b, e in self.io_errors),
        )
        if any(code <= 0 for _, code in self.io_errors):
            raise ConfigError("io_errors cells need a positive errno")
        self._validate_cells()

    def _validate_cells(self) -> None:
        """One fault per batch, no duplicates — ConfigError names the cell."""
        seen: dict[int, str] = {}
        for cell in self._raw_cells():
            if cell.batch < 1:
                raise ConfigError(
                    f"chaos batch indices are 1-based commit indexes; got "
                    f"batch {cell.batch} for site {cell.site}"
                )
            previous = seen.get(cell.batch)
            if previous == cell.site:
                raise ConfigError(
                    f"duplicate chaos cell {cell.label()}"
                )
            if previous is not None:
                raise ConfigError(
                    f"conflicting chaos cells at batch {cell.batch}: "
                    f"{previous} and {cell.site} (one fault per batch — "
                    "rework accounting needs isolated faults)"
                )
            seen[cell.batch] = cell.site

    def _raw_cells(self) -> list[ChaosCell]:
        cells = [ChaosCell(batch=b, site=SITE_KILL_RESUME) for b in self.kills]
        cells += [
            ChaosCell(batch=b, site=SITE_TEAR_CURSOR)
            for b in self.torn_cursors
        ]
        cells += [
            ChaosCell(batch=b, site=SITE_TEAR_STATE) for b in self.torn_state
        ]
        cells += [
            ChaosCell(batch=b, site=SITE_CKPT_IO, errno_code=e)
            for b, e in self.io_errors
        ]
        return cells

    def cells(self) -> tuple[ChaosCell, ...]:
        """Every scheduled fault, ordered by batch."""
        return tuple(sorted(self._raw_cells(), key=lambda c: c.batch))

    @property
    def n_faults(self) -> int:
        return len(self._raw_cells())

    @property
    def max_batch(self) -> int:
        """Highest batch index any cell targets (0 when empty)."""
        cells = self._raw_cells()
        return max((c.batch for c in cells), default=0)

    def sites(self) -> tuple[str, ...]:
        """Distinct sites this schedule exercises, in CHAOS_SITES order."""
        present = {cell.site for cell in self._raw_cells()}
        return tuple(site for site in CHAOS_SITES if site in present)

    @classmethod
    def smoke(
        cls,
        n_batches: int,
        *,
        io_errno: int = _errno.ENOSPC,
    ) -> ChaosSchedule:
        """The default all-sites schedule for smoke/CI soaks.

        Assigns one fault per batch in :data:`CHAOS_SITES` order
        starting at batch 1.  The torn-cursor fault lands on batch 1 on
        purpose: its restart-from-head fallback then reworks exactly one
        committed batch.  The torn-state fault, last, falls back to the
        stream head too and reworks the whole committed prefix, so only
        ``kill_resume`` and ``ckpt_io`` are held to one batch of rework.
        With fewer batches than sites, the later sites are dropped
        (``n_batches`` must be >= 1).
        """
        if n_batches < 1:
            raise ConfigError(
                f"a smoke schedule needs >= 1 batch, got {n_batches}"
            )
        plan: dict[str, object] = {}
        for batch, site in enumerate(CHAOS_SITES[:n_batches], start=1):
            if site == SITE_TEAR_CURSOR:
                plan["torn_cursors"] = (batch,)
            elif site == SITE_KILL_RESUME:
                plan["kills"] = (batch,)
            elif site == SITE_CKPT_IO:
                plan["io_errors"] = ((batch, io_errno),)
            elif site == SITE_TEAR_STATE:
                plan["torn_state"] = (batch,)
        return cls(**plan)  # type: ignore[arg-type]


#: The two load modes (SNIPPETS.md Snippet 3's ``StabilityPlan`` idiom).
_MODES = ("loops", "duration")


@dataclass(frozen=True)
class SoakPlan:
    """Frozen description of one soak's load shape and SLOs.

    ``mode="loops"`` replays the recorded stream ``loops`` times;
    ``mode="duration"`` keeps replaying until ``duration_s`` wall
    seconds have elapsed (always completing at least one full replay,
    so parity is always checkable).  ``rate`` caps ingest at roughly
    that many baskets per second (pacing is per checkpoint batch);
    ``None`` replays as fast as the hardware allows.

    The ``slo_*`` fields are enforced budgets over the per-batch score
    latency histogram (``serve.batch_s``): any measured quantile above
    its budget fails the run.  ``min_throughput`` is a floor on overall
    baskets/second.
    """

    mode: str = "loops"
    loops: int = 1
    duration_s: float = 0.0
    rate: float | None = None
    batch_size: int = 256
    n_shards: int = 1
    slo_p50_ms: float | None = None
    slo_p95_ms: float | None = None
    slo_p99_ms: float | None = None
    min_throughput: float | None = None
    checkpoint_io_retries: int = field(default=2)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(
                f"soak mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.loops < 1:
            raise ConfigError(f"loops must be >= 1, got {self.loops}")
        if self.mode == "duration" and self.duration_s <= 0:
            raise ConfigError(
                f"duration mode needs duration_s > 0, got {self.duration_s}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ConfigError(f"rate must be > 0 baskets/s, got {self.rate}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.checkpoint_io_retries < 0:
            raise ConfigError(
                f"checkpoint_io_retries must be >= 0, got "
                f"{self.checkpoint_io_retries}"
            )
        budgets = []
        for name in ("slo_p50_ms", "slo_p95_ms", "slo_p99_ms"):
            value = getattr(self, name)
            if value is None:
                continue
            if value <= 0:
                raise ConfigError(f"{name} must be > 0 ms, got {value}")
            budgets.append((name, value))
        for (lo_name, lo), (hi_name, hi) in zip(budgets, budgets[1:]):
            if lo > hi:
                raise ConfigError(
                    f"SLO budgets must be non-decreasing: {lo_name}={lo} > "
                    f"{hi_name}={hi}"
                )
        if self.min_throughput is not None and self.min_throughput <= 0:
            raise ConfigError(
                f"min_throughput must be > 0 baskets/s, got "
                f"{self.min_throughput}"
            )

    def slo_budgets_ms(self) -> dict[str, float]:
        """The set quantile budgets, keyed ``"p50"/"p95"/"p99"``."""
        budgets: dict[str, float] = {}
        for quantile, value in (
            ("p50", self.slo_p50_ms),
            ("p95", self.slo_p95_ms),
            ("p99", self.slo_p99_ms),
        ):
            if value is not None:
                budgets[quantile] = float(value)
        return budgets

    @classmethod
    def from_mapping(cls, raw: object) -> SoakPlan:
        """Normalise a loosely-typed mapping (CLI/JSON) into a plan.

        Unknown keys raise :class:`~repro.errors.ConfigError` naming the
        key; values are coerced to the field types, with the usual
        construction-time validation applying after.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"soak plan must be a mapping, got {raw!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(
                f"unknown soak plan key(s): {', '.join(sorted(unknown))}"
            )
        coerced: dict[str, object] = {}
        for key, value in raw.items():
            if value is None:
                coerced[key] = None
            elif key == "mode":
                coerced[key] = str(value).strip().lower()
            elif key in ("loops", "batch_size", "n_shards", "checkpoint_io_retries"):
                coerced[key] = int(value)
            else:
                coerced[key] = float(value)
        return cls(**coerced)  # type: ignore[arg-type]
