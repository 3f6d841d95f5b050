"""Per-solve budgets and their cooperative enforcement.

A :class:`SolveBudget` is declarative data — a wall-clock deadline, an
evaluation cap and an RNG seed — attached to a solve request (a campaign
solver entry, a CLI flag, a direct :func:`repro.service.solve_one` call).
A :class:`BudgetMeter` is its running counterpart: solvers that support
budgets call :meth:`BudgetMeter.tick` once per candidate evaluation (or
search node), or claim a whole batch of candidates at once with
:meth:`BudgetMeter.reserve`, and stop cooperatively when the meter says
no, keeping the best solution found so far.

The meter is *duck-typed* on purpose: the algorithm layer
(:mod:`repro.algorithms`) accepts any object with ``tick()`` and
``reserve()`` so it never has to import this (higher) layer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["BudgetMeter", "SolveBudget"]


@dataclass(frozen=True)
class SolveBudget:
    """Declarative per-solve budget.

    Parameters
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` = unlimited).  Enforced
        cooperatively: solvers check between candidate evaluations or
        between batches of them (a hill-climb step, a round of the
        split-the-bottleneck greedy), so the overshoot is bounded by one
        batch.
    max_evaluations:
        Cap on candidate evaluations / search nodes (``None`` =
        unlimited).
    seed:
        RNG seed threaded into the stochastic heuristics
        (``numpy.random.default_rng``); ``None`` lets each strategy use
        its deterministic default.  Identical budgets on identical
        problems reproduce identical results.
    """

    time_limit: Optional[float] = None
    max_evaluations: Optional[int] = None
    seed: Optional[int] = None

    _KEYS = ("time_limit", "max_evaluations", "seed")

    def __post_init__(self) -> None:
        if self.time_limit is not None:
            if isinstance(self.time_limit, bool) or not isinstance(
                self.time_limit, (int, float)
            ):
                raise ValueError(
                    f"time_limit must be a number, got {self.time_limit!r}"
                )
            if not math.isfinite(self.time_limit) or self.time_limit <= 0:
                raise ValueError(
                    f"time_limit must be positive and finite, got {self.time_limit}"
                )
        if self.max_evaluations is not None:
            if isinstance(self.max_evaluations, bool) or not isinstance(
                self.max_evaluations, int
            ):
                raise ValueError(
                    f"max_evaluations must be an int, got {self.max_evaluations!r}"
                )
            if self.max_evaluations < 1:
                raise ValueError(
                    f"max_evaluations must be >= 1, got {self.max_evaluations}"
                )
        if self.seed is not None and (
            isinstance(self.seed, bool) or not isinstance(self.seed, int)
        ):
            raise ValueError(f"seed must be an int, got {self.seed!r}")

    @property
    def is_unlimited(self) -> bool:
        """True when neither a deadline nor an evaluation cap is set."""
        return self.time_limit is None and self.max_evaluations is None

    def meter(self) -> "BudgetMeter":
        """Start the clock: a fresh :class:`BudgetMeter` for one solve."""
        return BudgetMeter(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (unset fields omitted)."""
        return {
            k: getattr(self, k)
            for k in self._KEYS
            if getattr(self, k) is not None
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveBudget":
        """Parse a budget mapping, rejecting unknown keys.

        Raises
        ------
        ValueError
            On unknown keys or ill-typed/non-positive values.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"budget must be a mapping, got {payload!r}")
        unknown = sorted(set(payload) - set(cls._KEYS))
        if unknown:
            raise ValueError(
                f"unknown budget key(s) {unknown}; allowed: {list(cls._KEYS)}"
            )
        return cls(**dict(payload))


class BudgetMeter:
    """Running enforcement state of one :class:`SolveBudget`.

    Solvers call :meth:`tick` once per candidate evaluation; the first
    call past the deadline or the evaluation cap returns ``False`` and
    the meter stays exhausted from then on.  ``n_evaluations`` is the
    telemetry counter persisted into
    :class:`~repro.strategies.telemetry.SolveTelemetry`.
    """

    __slots__ = ("budget", "n_evaluations", "_deadline", "_exhausted")

    def __init__(self, budget: Optional[SolveBudget] = None) -> None:
        self.budget = budget if budget is not None else SolveBudget()
        self.n_evaluations = 0
        self._deadline = (
            None
            if self.budget.time_limit is None
            else time.perf_counter() + self.budget.time_limit
        )
        self._exhausted = False

    @property
    def seed(self) -> Optional[int]:
        """The budget's RNG seed (convenience passthrough)."""
        return self.budget.seed

    @property
    def exhausted(self) -> bool:
        """True once the deadline or the evaluation cap has been hit."""
        return self._exhausted

    def tick(self, n: int = 1) -> bool:
        """Account for ``n`` candidate evaluations.

        Returns
        -------
        bool
            ``True`` while the budget allows more work, ``False`` once
            exhausted (sticky).  Callers stop *before* the evaluation
            that would exceed the cap.
        """
        if self._exhausted:
            return False
        cap = self.budget.max_evaluations
        if cap is not None and self.n_evaluations + n > cap:
            self._exhausted = True
            return False
        self.n_evaluations += n
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            self._exhausted = True
            return False
        return True

    def reserve(self, n: int) -> int:
        """Claim up to ``n`` candidate evaluations for a batched scan.

        The batch counterpart of ``n`` consecutive :meth:`tick` calls:
        a batch of ``N`` candidates counts as ``N`` evaluations against
        :attr:`SolveBudget.max_evaluations`, truncated to whatever the
        cap still allows.  Returns the granted count (0 when the budget
        is already exhausted); granting *fewer* than requested marks the
        meter exhausted, exactly as the first tick past the cap would.
        Evaluation-cap accounting is therefore *exact* against the
        tick-by-tick path.  The deadline is checked before granting and
        once per batch rather than once per candidate, so under a
        ``time_limit`` the overshoot -- and any divergence from the
        scalar path -- is bounded by one batch.
        """
        if n <= 0 or self._exhausted:
            return 0
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            self._exhausted = True
            return 0
        cap = self.budget.max_evaluations
        granted = n
        if cap is not None:
            granted = min(n, cap - self.n_evaluations)
            if granted < n:
                self._exhausted = True
            if granted <= 0:
                return 0
        self.n_evaluations += granted
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            self._exhausted = True
        return granted

    def charge(self, n: int) -> None:
        """Account for ``n`` evaluations already performed elsewhere (a
        member strategy's own meter); unlike :meth:`tick` the count is
        always credited, and exhaustion is re-derived afterwards."""
        self.n_evaluations += n
        cap = self.budget.max_evaluations
        if cap is not None and self.n_evaluations >= cap:
            self._exhausted = True
        if self._deadline is not None and time.perf_counter() >= self._deadline:
            self._exhausted = True

    def remaining_time(self) -> Optional[float]:
        """Seconds left before the deadline (``None`` = unlimited)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.perf_counter())

    def remaining_evaluations(self) -> Optional[int]:
        """Evaluations left under the cap (``None`` = unlimited)."""
        if self.budget.max_evaluations is None:
            return None
        return max(0, self.budget.max_evaluations - self.n_evaluations)
