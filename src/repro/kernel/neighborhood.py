"""Array-native neighborhood generation: candidate mappings as columns.

Materializing one :class:`~repro.core.mapping.Mapping` (a tuple of frozen
dataclass rows, re-sorted on construction) per local-search candidate
costs thousands of Python objects per hill-climbing step, each paying a
full ``delta_evaluate`` call.  This module generates the neighborhood as
a :class:`CandidateBatch` instead: compact NumPy column arrays
(per-assignment application id, interval bounds, processor id and speed)
with per-candidate row offsets, scored wholesale by
:meth:`repro.kernel.context.EvaluationContext.evaluate_many`.  Only the
one accepted candidate is ever materialized back into a ``Mapping``.

The six move kinds, in enumeration order:

* ``mode``: one enrolled processor steps to an adjacent speed mode;
* ``swap``: two assignments exchange processors (speeds re-clamped);
* ``move``: one assignment relocates to a free processor;
* ``shift``: one stage crosses the boundary of two adjacent intervals;
* ``merge``: two adjacent intervals fuse onto the first's processor;
* ``split``: one interval is cut in two, enrolling a free processor.

``shift``/``split``/``merge`` are disabled under the one-to-one rule.
Candidate order is fixed (``shift`` and ``merge`` interleave per
adjacent interval pair), so budget-truncated scans and tie-breaking are
reproducible; the tests check it against a one-``Mapping``-per-candidate
generator.

:func:`split_candidates` emits the ``split`` block on its own: the
candidate set of one round of the split-the-bottleneck greedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.mapping import Assignment, Mapping
from ..obs.spans import track as _track
from .context import mapping_columns

__all__ = [
    "CandidateBatch",
    "KIND_NAMES",
    "clamp_speed",
    "generate_neighborhood",
    "split_candidates",
]

#: Candidate kind labels, indexed by the ``kinds`` codes of a batch.
KIND_NAMES: Tuple[str, ...] = (
    "mode",
    "swap",
    "move",
    "shift",
    "merge",
    "split",
)
_MODE, _SWAP, _MOVE, _SHIFT, _MERGE, _SPLIT = range(6)


@dataclass(frozen=True)
class CandidateBatch:
    """A stack of candidate mappings as column arrays.

    Candidate ``i`` owns rows ``starts[i] : starts[i + 1]`` of the five
    parallel row arrays; rows are in the canonical ``(app, lo)`` order,
    so each candidate is directly consumable by
    :meth:`~repro.kernel.context.EvaluationContext.evaluate_many`.
    """

    #: Per-row application index, shape ``(R,)``.
    app: np.ndarray
    #: Per-row inclusive interval bounds, shape ``(R,)`` each.
    lo: np.ndarray
    hi: np.ndarray
    #: Per-row processor index, shape ``(R,)``.
    proc: np.ndarray
    #: Per-row chosen speed, shape ``(R,)``.
    speed: np.ndarray
    #: Row offsets, shape ``(N + 1,)``: candidate ``i`` spans
    #: ``starts[i] : starts[i + 1]``.
    starts: np.ndarray
    #: Move-kind code of each candidate (index into :data:`KIND_NAMES`),
    #: shape ``(N,)``.
    kinds: np.ndarray

    def __len__(self) -> int:
        return len(self.starts) - 1

    def truncate(self, count: int) -> "CandidateBatch":
        """The batch of the first ``count`` candidates (enumeration
        order), as used by budget-limited scans."""
        if count >= len(self):
            return self
        end = int(self.starts[count])
        return CandidateBatch(
            app=self.app[:end],
            lo=self.lo[:end],
            hi=self.hi[:end],
            proc=self.proc[:end],
            speed=self.speed[:end],
            starts=self.starts[: count + 1],
            kinds=self.kinds[:count],
        )

    def single(self, i: int) -> "CandidateBatch":
        """A one-candidate view of candidate ``i`` (array slices, no
        copies) -- the sampling path of simulated annealing."""
        row_lo = int(self.starts[i])
        row_hi = int(self.starts[i + 1])
        rows = slice(row_lo, row_hi)
        return CandidateBatch(
            app=self.app[rows],
            lo=self.lo[rows],
            hi=self.hi[rows],
            proc=self.proc[rows],
            speed=self.speed[rows],
            starts=np.array([0, row_hi - row_lo], dtype=np.intp),
            kinds=self.kinds[i : i + 1],
        )

    def materialize(self, i: int) -> Mapping:
        """Build the one accepted candidate back into a ``Mapping``."""
        rows = slice(int(self.starts[i]), int(self.starts[i + 1]))
        return Mapping.from_assignments(
            Assignment(
                app=int(a), interval=(int(l), int(h)), proc=int(u), speed=s
            )
            for a, l, h, u, s in zip(
                self.app[rows].tolist(),
                self.lo[rows].tolist(),
                self.hi[rows].tolist(),
                self.proc[rows].tolist(),
                self.speed[rows].tolist(),
            )
        )


def clamp_speed(platform, proc: int, speed: float) -> float:
    """The processor's own mode closest to ``speed`` from above (or its
    fastest mode) -- the swap/move re-clamping rule.
    """
    processor = platform.processor(proc)
    if processor.has_speed(speed):
        return speed
    at_least = processor.slowest_speed_at_least(speed)
    return at_least if at_least is not None else processor.max_speed


class _Blocks:
    """Accumulator for the per-kind candidate blocks, in enumeration
    order."""

    def __init__(self) -> None:
        self.app: List[np.ndarray] = []
        self.lo: List[np.ndarray] = []
        self.hi: List[np.ndarray] = []
        self.proc: List[np.ndarray] = []
        self.speed: List[np.ndarray] = []
        self.counts: List[np.ndarray] = []
        self.kinds: List[np.ndarray] = []

    def add(self, kind, app, lo, hi, proc, speed, n_cands, rows_per) -> None:
        self.app.append(np.asarray(app, dtype=np.intp).ravel())
        self.lo.append(np.asarray(lo, dtype=np.intp).ravel())
        self.hi.append(np.asarray(hi, dtype=np.intp).ravel())
        self.proc.append(np.asarray(proc, dtype=np.intp).ravel())
        self.speed.append(np.asarray(speed, dtype=np.float64).ravel())
        self.counts.append(np.full(n_cands, rows_per, dtype=np.intp))
        self.kinds.append(np.full(n_cands, kind, dtype=np.uint8))

    def add_ragged(self, kinds, app, lo, hi, proc, speed, counts) -> None:
        self.app.append(np.array(app, dtype=np.intp))
        self.lo.append(np.array(lo, dtype=np.intp))
        self.hi.append(np.array(hi, dtype=np.intp))
        self.proc.append(np.array(proc, dtype=np.intp))
        self.speed.append(np.array(speed, dtype=np.float64))
        self.counts.append(np.array(counts, dtype=np.intp))
        self.kinds.append(np.array(kinds, dtype=np.uint8))

    def assemble(self) -> CandidateBatch:
        counts = (
            np.concatenate(self.counts)
            if self.counts
            else np.empty(0, dtype=np.intp)
        )
        starts = np.zeros(len(counts) + 1, dtype=np.intp)
        np.cumsum(counts, out=starts[1:])
        empty_i = np.empty(0, dtype=np.intp)
        return CandidateBatch(
            app=np.concatenate(self.app) if self.app else empty_i,
            lo=np.concatenate(self.lo) if self.lo else empty_i,
            hi=np.concatenate(self.hi) if self.hi else empty_i,
            proc=np.concatenate(self.proc) if self.proc else empty_i,
            speed=(
                np.concatenate(self.speed) if self.speed else np.empty(0)
            ),
            starts=starts,
            kinds=(
                np.concatenate(self.kinds)
                if self.kinds
                else np.empty(0, dtype=np.uint8)
            ),
        )


def _free_processors(platform, proc: np.ndarray) -> List[int]:
    """Ascending ids of the processors no row of ``proc`` enrolls."""
    used = set(proc.tolist())
    return [u for u in range(platform.n_processors) if u not in used]


def _add_splits(blocks: _Blocks, platform, columns, free: List[int]) -> None:
    """Append the split block: every interval of ``columns`` cut in two,
    the right half on a free processor at its fastest mode.

    Enumeration order is row major (canonical ``(app, lo)`` order), cut
    ascending, then free processor ascending.
    """
    n_free = len(free)
    if not n_free:
        return
    base_lo = columns.lo
    base_hi = columns.hi
    per_row = (base_hi - base_lo) * n_free
    k = int(per_row.sum())
    if not k:
        return
    m = len(base_lo)
    idx_arr = np.repeat(np.arange(m), per_row)
    # Position of each candidate inside its victim row's block.
    offset = np.arange(k) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    pick = offset % n_free
    split_cut = base_lo[idx_arr] + offset // n_free
    split_proc = np.asarray(free, dtype=np.intp)[pick]
    split_speed = np.array(
        [platform.processor(u).max_speed for u in free], dtype=np.float64
    )[pick]
    # Gather map: slot t copies base row t before the insertion point and
    # base row t - 1 after it; the inserted slot (idx + 1) starts as a
    # copy of the split row and is then overwritten field by field.
    slots = np.arange(m + 1)[None, :]
    take = np.where(slots <= idx_arr[:, None], slots, slots - 1)
    app_rows = columns.rows[:, 0].astype(np.intp)[take]
    lo_rows = base_lo[take]
    hi_rows = base_hi[take]
    proc_rows = columns.proc[take]
    speed_rows = columns.speed[take]
    flat_rows = np.arange(k)
    hi_rows[flat_rows, idx_arr] = split_cut
    lo_rows[flat_rows, idx_arr + 1] = split_cut + 1
    proc_rows[flat_rows, idx_arr + 1] = split_proc
    speed_rows[flat_rows, idx_arr + 1] = split_speed
    blocks.add(
        _SPLIT, app_rows, lo_rows, hi_rows, proc_rows, speed_rows, k, m + 1
    )


def split_candidates(problem, mapping: Mapping) -> CandidateBatch:
    """Every split of a valid mapping, as one :class:`CandidateBatch`.

    A split cuts one interval ``[lo, hi]`` at ``cut`` into ``[lo, cut]``,
    kept on its processor and speed, and ``[cut + 1, hi]``, enrolled on
    a free processor at that processor's fastest mode.  Candidates come
    victim row first (canonical order), then cut ascending, then free
    processor ascending: the split block of
    :func:`generate_neighborhood`, and the candidate order of the
    split-the-bottleneck greedy
    (:func:`repro.algorithms.heuristics.greedy_interval_period`).  The
    batch is empty when no processor is free or every interval is a
    single stage.  The mapping rule is not consulted: splits are only
    meaningful under the interval rule, which is the caller's to check.
    """
    columns = mapping_columns(mapping)
    platform = problem.platform
    blocks = _Blocks()
    _add_splits(
        blocks, platform, columns, _free_processors(platform, columns.proc)
    )
    return blocks.assemble()


def generate_neighborhood(problem, mapping: Mapping) -> CandidateBatch:
    """All neighbors of a valid mapping, as one :class:`CandidateBatch`.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.ProblemInstance` supplying the
        platform (speed ladders, free processors) and the mapping rule.
    mapping:
        The current valid mapping.

    Returns
    -------
    CandidateBatch
        Every neighbor, in the enumeration order of the module
        docstring, each one a valid mapping.
    """
    with _track("solve.neighborhood"):
        return _generate_neighborhood(problem, mapping)


def _generate_neighborhood(problem, mapping: Mapping) -> CandidateBatch:
    from ..core.types import MappingRule

    columns = mapping_columns(mapping)
    m = len(mapping.assignments)
    base_app = columns.rows[:, 0].astype(np.intp)
    base_lo = columns.lo
    base_hi = columns.hi
    base_proc = columns.proc
    base_speed = columns.speed
    platform = problem.platform
    free = _free_processors(platform, base_proc)
    interval_rule = problem.rule is MappingRule.INTERVAL
    blocks = _Blocks()

    def tiled(base: np.ndarray, count: int) -> np.ndarray:
        return np.tile(base, (count, 1))

    speed_list = base_speed.tolist()
    proc_list = base_proc.tolist()

    # mode moves -------------------------------------------------------
    mode_idx: List[int] = []
    mode_speed: List[float] = []
    for idx in range(m):
        speeds = platform.processor(proc_list[idx]).speeds
        s = speed_list[idx]
        pos = min(range(len(speeds)), key=lambda i: abs(speeds[i] - s))
        for new_pos in (pos - 1, pos + 1):
            if 0 <= new_pos < len(speeds):
                mode_idx.append(idx)
                mode_speed.append(speeds[new_pos])
    if mode_idx:
        k = len(mode_idx)
        speed_rows = tiled(base_speed, k)
        speed_rows[np.arange(k), mode_idx] = mode_speed
        blocks.add(
            _MODE,
            tiled(base_app, k),
            tiled(base_lo, k),
            tiled(base_hi, k),
            tiled(base_proc, k),
            speed_rows,
            k,
            m,
        )

    # swap moves -------------------------------------------------------
    swap_i: List[int] = []
    swap_j: List[int] = []
    swap_speed_i: List[float] = []
    swap_speed_j: List[float] = []
    for i in range(m):
        for j in range(i + 1, m):
            swap_i.append(i)
            swap_j.append(j)
            swap_speed_i.append(
                clamp_speed(platform, proc_list[j], speed_list[i])
            )
            swap_speed_j.append(
                clamp_speed(platform, proc_list[i], speed_list[j])
            )
    if swap_i:
        k = len(swap_i)
        rows_k = np.arange(k)
        proc_rows = tiled(base_proc, k)
        speed_rows = tiled(base_speed, k)
        proc_rows[rows_k, swap_i] = base_proc[swap_j]
        proc_rows[rows_k, swap_j] = base_proc[swap_i]
        speed_rows[rows_k, swap_i] = swap_speed_i
        speed_rows[rows_k, swap_j] = swap_speed_j
        blocks.add(
            _SWAP,
            tiled(base_app, k),
            tiled(base_lo, k),
            tiled(base_hi, k),
            proc_rows,
            speed_rows,
            k,
            m,
        )

    # move-to-free moves -----------------------------------------------
    if free:
        move_idx: List[int] = []
        move_proc: List[int] = []
        move_speed: List[float] = []
        for idx in range(m):
            for u in free:
                move_idx.append(idx)
                move_proc.append(u)
                move_speed.append(
                    clamp_speed(platform, u, speed_list[idx])
                )
        k = len(move_idx)
        rows_k = np.arange(k)
        proc_rows = tiled(base_proc, k)
        speed_rows = tiled(base_speed, k)
        proc_rows[rows_k, move_idx] = move_proc
        speed_rows[rows_k, move_idx] = move_speed
        blocks.add(
            _MOVE,
            tiled(base_app, k),
            tiled(base_lo, k),
            tiled(base_hi, k),
            proc_rows,
            speed_rows,
            k,
            m,
        )

    if not interval_rule:
        return blocks.assemble()

    # shift / merge moves over adjacent interval pairs -----------------
    # These two kinds interleave per pair in the enumeration and
    # have different row counts (m vs m - 1), so the block is assembled
    # candidate by candidate; the count is at most 3 * (m - A).
    app_l = base_app.tolist()
    lo_l = base_lo.tolist()
    hi_l = base_hi.tolist()
    sm_kinds: List[int] = []
    sm_app: List[int] = []
    sm_lo: List[int] = []
    sm_hi: List[int] = []
    sm_proc: List[int] = []
    sm_speed: List[float] = []
    sm_counts: List[int] = []

    def emit(kind: int, rows) -> None:
        sm_kinds.append(kind)
        sm_counts.append(len(rows))
        for a, l, h, u, s in rows:
            sm_app.append(a)
            sm_lo.append(l)
            sm_hi.append(h)
            sm_proc.append(u)
            sm_speed.append(s)

    base_rows = list(
        zip(app_l, lo_l, hi_l, proc_list, speed_list)
    )
    for ri in range(m - 1):
        if app_l[ri] != app_l[ri + 1]:
            continue
        l_lo, l_hi = lo_l[ri], hi_l[ri]
        r_lo, r_hi = lo_l[ri + 1], hi_l[ri + 1]
        left = base_rows[ri]
        right = base_rows[ri + 1]
        prefix = base_rows[:ri]
        suffix = base_rows[ri + 2 :]
        if l_lo < l_hi:  # give left's last stage to right
            emit(
                _SHIFT,
                prefix
                + [
                    (left[0], l_lo, l_hi - 1, left[3], left[4]),
                    (right[0], l_hi, r_hi, right[3], right[4]),
                ]
                + suffix,
            )
        if r_lo < r_hi:  # give right's first stage to left
            emit(
                _SHIFT,
                prefix
                + [
                    (left[0], l_lo, r_lo, left[3], left[4]),
                    (right[0], r_lo + 1, r_hi, right[3], right[4]),
                ]
                + suffix,
            )
        emit(  # merge onto the left processor
            _MERGE,
            prefix + [(left[0], l_lo, r_hi, left[3], left[4])] + suffix,
        )
    if sm_kinds:
        blocks.add_ragged(
            sm_kinds, sm_app, sm_lo, sm_hi, sm_proc, sm_speed, sm_counts
        )

    # split moves ------------------------------------------------------
    _add_splits(blocks, platform, columns, free)

    return blocks.assemble()
