"""The shared evaluation context: precomputed arrays for one problem.

An :class:`EvaluationContext` binds one ``(apps, platform)`` pair and
precomputes everything the criteria formulas (Equations (3)-(6)) need:

* per-application prefix sums of stage works (O(1) ``work_sum``);
* per-application data-size vectors ``delta_0 .. delta_n`` (O(1) interval
  input/output sizes);
* per-application bandwidth tables resolved once against the platform's
  link dictionaries (virtual in/out links and the full processor-pair
  matrix), so mapping evaluation never touches a Python dict.

On top of those it offers :meth:`evaluate` (whole-mapping criteria in a
handful of NumPy operations) and :meth:`delta_evaluate` (criteria after a
local move, recomputing only the applications whose assignments changed --
the hot path of hill climbing and simulated annealing).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.application import Application
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.evaluation import CriteriaValues
from ..core.exceptions import InvalidApplicationError, InvalidMappingError
from ..core.mapping import Mapping
from ..core.platform import Platform
from ..core.types import CommunicationModel, Interval
from ..obs.spans import track as _track

__all__ = [
    "BatchCriteria",
    "EvaluationContext",
    "SearchTables",
    "app_arrays",
    "mapping_columns",
    "segment_sums",
]


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right sequential sum, starting from ``0.0``.

    The kernel's summation primitive: NumPy's ``ndarray.sum`` uses
    pairwise summation, whose rounding depends on the segment length, so
    a batched engine summing many chains at once could never reproduce
    it bit-for-bit.  Sequential accumulation is reproducible from both
    the scalar and the batched side (see :func:`segment_sums`) and
    matches the pure-Python reference ``evaluate_scalar``, which also
    accumulates left to right.
    """
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def segment_sums(
    values: np.ndarray, seg_ids: np.ndarray, seg_pos: np.ndarray, n_segs: int
) -> np.ndarray:
    """Per-segment strict-sequential sums, vectorized across segments.

    Parameters
    ----------
    values:
        Flat array of the summands.
    seg_ids:
        Segment index of each summand.
    seg_pos:
        0-based position of each summand inside its segment.
    n_segs:
        Number of segments.

    Returns
    -------
    numpy.ndarray
        Shape ``(n_segs,)`` array where entry ``k`` is the left-to-right
        sequential sum (``0.0 + v_0 + v_1 + ...``) of segment ``k`` --
        bit-identical to :func:`_seq_sum` over each segment.  Segments
        shorter than the longest one are padded with ``+0.0``, which is
        exact for the non-negative activity times and energies summed
        here.
    """
    if len(values) == 0:
        return np.zeros(n_segs)
    width = int(seg_pos.max()) + 1
    padded = np.zeros((n_segs, width))
    padded[seg_ids, seg_pos] = values
    totals = np.zeros(n_segs)
    for j in range(width):
        totals += padded[:, j]
    return totals


#: ``for_problem`` fallback memo for problems that refuse attribute
#: writes: ``id(problem) -> (weakref, context)``, evicted by a
#: ``weakref.finalize`` when the problem dies (the weakref also guards
#: against id reuse).
_CONTEXT_CACHE: Dict[int, Tuple["weakref.ref", "EvaluationContext"]] = {}


@dataclass(frozen=True)
class BatchCriteria:
    """Criteria of ``N`` candidate mappings, as column vectors.

    The batched counterpart of
    :class:`~repro.core.evaluation.CriteriaValues`, produced by
    :meth:`EvaluationContext.evaluate_many`: per-candidate arrays instead
    of scalars, with the per-application values as ``(N, A)`` matrices
    (column ``a`` = application ``a``).  Entry ``i`` is bit-identical to
    ``EvaluationContext.evaluate`` of the ``i``-th candidate.
    """

    #: Unweighted per-application periods, shape ``(N, A)``.
    periods: np.ndarray
    #: Unweighted per-application latencies, shape ``(N, A)``.
    latencies: np.ndarray
    #: Weighted global periods ``max_a W_a * T_a``, shape ``(N,)``.
    period: np.ndarray
    #: Weighted global latencies, shape ``(N,)``.
    latency: np.ndarray
    #: Total platform energies, shape ``(N,)``.
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.period)

    def select(self, i: int) -> CriteriaValues:
        """The scalar :class:`~repro.core.evaluation.CriteriaValues` of
        candidate ``i`` (bit-identical to a fresh ``evaluate`` call)."""
        return CriteriaValues(
            periods={
                a: float(t) for a, t in enumerate(self.periods[i])
            },
            latencies={
                a: float(v) for a, v in enumerate(self.latencies[i])
            },
            period=float(self.period[i]),
            latency=float(self.latency[i]),
            energy=float(self.energy[i]),
        )


def app_arrays(app: Application) -> Tuple[np.ndarray, np.ndarray]:
    """The NumPy form of one application: ``(prefix, delta)``.

    The arrays are memoized on the application instance, so every
    context, solver and table builder shares one copy.

    Parameters
    ----------
    app:
        The application to convert.

    Returns
    -------
    (prefix, delta) : tuple of numpy.ndarray
        ``prefix`` has shape ``(n + 1,)`` with ``prefix[i]`` the total
        work of stages ``0 .. i-1``; ``delta`` has shape ``(n + 1,)``
        with ``delta[i]`` the size of the data consumed by stage ``i``
        (``delta[n]`` is the final output size).  Both are read-only.
    """
    cached = getattr(app, "_kernel_arrays", None)
    if cached is not None:
        return cached
    prefix = np.asarray(app._work_prefix, dtype=np.float64)
    delta = np.empty(app.n_stages + 1, dtype=np.float64)
    delta[0] = app.input_data_size
    for i, stage in enumerate(app.stages):
        delta[i + 1] = stage.output_size
    prefix.setflags(write=False)
    delta.setflags(write=False)
    arrays = (prefix, delta)
    object.__setattr__(app, "_kernel_arrays", arrays)
    return arrays


class _MappingColumns:
    """Column-oriented view of a mapping's assignments.

    Built once per (immutable) :class:`~repro.core.mapping.Mapping` and
    cached on the instance: ``rows`` is the ``(m, 5)`` matrix of
    ``(app, lo, hi, proc, speed)`` rows in canonical order, the remaining
    attributes are typed column views, and ``slices`` maps each
    application index to its contiguous row range.
    """

    __slots__ = ("rows", "lo", "hi", "proc", "speed", "slices")

    def __init__(self, mapping: Mapping) -> None:
        assignments = mapping.assignments
        m = len(assignments)
        rows = np.array(
            [
                [x.app, x.interval[0], x.interval[1], x.proc, x.speed]
                for x in assignments
            ],
            dtype=np.float64,
        ).reshape(m, 5)
        if m == 0:
            self.rows = rows
            self.lo = self.hi = self.proc = rows[:, 0].astype(np.intp)
            self.speed = rows[:, 0]
            self.slices = {}
            return
        app_col = rows[:, 0].astype(np.intp)
        self.rows = rows
        self.lo = rows[:, 1].astype(np.intp)
        self.hi = rows[:, 2].astype(np.intp)
        self.proc = rows[:, 3].astype(np.intp)
        self.speed = rows[:, 4]
        # Assignments are canonically sorted by (app, lo): each app is a
        # contiguous block of rows.
        breaks = np.flatnonzero(app_col[1:] != app_col[:-1]) + 1
        starts = [0, *breaks.tolist()]
        ends = [*breaks.tolist(), m]
        self.slices: Dict[int, slice] = {
            int(app_col[s]): slice(s, e) for s, e in zip(starts, ends)
        }


def mapping_columns(mapping: Mapping) -> _MappingColumns:
    """The cached column view of a mapping (built on first access)."""
    columns = mapping.__dict__.get("_kernel_columns")
    if columns is None:
        columns = _MappingColumns(mapping)
        object.__setattr__(mapping, "_kernel_columns", columns)
    return columns


class SearchTables(NamedTuple):
    """Plain-Python lookup tables of one problem for the exact
    branch-and-bound search (:func:`repro.algorithms.exact.exact_minimize`).

    Every entry is a list or tuple indexed like the NumPy tables of
    :class:`EvaluationContext` and holding the same numbers, so a search
    node reads ``bw_link[a][u][v]`` instead of resolving a link through
    the platform's dictionaries.
    """

    #: Per application: ``prefix[i]`` is the total work of stages ``0 .. i-1``.
    prefix: List[List[float]]
    #: Per application: ``delta[i]`` is the data consumed by stage ``i``;
    #: ``delta[n]`` is the final output.
    delta: List[List[float]]
    #: Per application and first stage ``lo``: the last stages an interval
    #: starting at ``lo`` may end at, ``(lo, .., n - 1)``.
    interval_ends: List[List[Tuple[int, ...]]]
    #: Per application: ``bw_in[a][u]`` of the link ``Pin_a -> P_u``.
    bw_in: List[List[float]]
    #: Per application: ``bw_out[a][u]`` of the link ``P_u -> Pout_a``.
    bw_out: List[List[float]]
    #: Per application: ``bw_link[a][u][v]`` of the link ``P_u -- P_v``.
    bw_link: List[List[List[float]]]
    #: Per processor: ``(speed, energy)`` of every mode, slowest first.
    modes: List[Tuple[Tuple[float, float], ...]]


class EvaluationContext:
    """Vectorized criteria evaluation for one ``(apps, platform)`` pair.

    Parameters
    ----------
    apps:
        The concurrent applications (same indexing as everywhere else).
    platform:
        The target platform.
    model:
        Communication model used by :meth:`evaluate` (Equations (3)/(4)).
    energy_model:
        Energy exponent used by :meth:`evaluate` (Section 3.5).
    """

    __slots__ = (
        "apps",
        "platform",
        "model",
        "energy_model",
        "_prefix",
        "_delta",
        "_static",
        "_alpha",
        "_bw_in",
        "_bw_out",
        "_bw_link",
        "_batch",
        "_search",
    )

    def __init__(
        self,
        apps: Sequence[Application],
        platform: Platform,
        *,
        model: CommunicationModel = CommunicationModel.OVERLAP,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ) -> None:
        self.apps: Tuple[Application, ...] = tuple(apps)
        self.platform = platform
        self.model = model
        self.energy_model = energy_model
        arrays = [app_arrays(app) for app in self.apps]
        self._prefix = [a[0] for a in arrays]
        self._delta = [a[1] for a in arrays]
        self._static = np.array(
            [proc.static_energy for proc in platform.processors]
        )
        self._alpha = energy_model.alpha
        # Bandwidth tables are built lazily per application: the full
        # processor-pair matrix is O(p^2) and many workloads only ever
        # touch a few applications.
        self._bw_in: Dict[int, np.ndarray] = {}
        self._bw_out: Dict[int, np.ndarray] = {}
        self._bw_link: Dict[int, np.ndarray] = {}
        # Flattened per-application tables for evaluate_many, built on
        # first batched call (they materialize every bandwidth table).
        self._batch: Dict[str, np.ndarray] = {}
        self._search: Optional[SearchTables] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_problem(cls, problem) -> "EvaluationContext":
        """The context matching a problem instance, memoized per instance.

        Repeated calls with the same ``problem`` object return the same
        context instead of rebuilding the prefix-sum and bandwidth
        tables: the context is stored on the instance itself (the
        primary, O(1) path) and in a weakref-evicted module cache for
        objects that refuse attribute writes.  Lifetime is tied to the
        problem either way -- dropping the problem drops its tables.

        Parameters
        ----------
        problem:
            A :class:`~repro.core.problem.ProblemInstance`; its
            applications, platform, communication model and energy model
            are adopted unchanged.

        Returns
        -------
        EvaluationContext
        """
        attrs = getattr(problem, "__dict__", None)
        if attrs is not None:
            cached = attrs.get("_eval_context")
            if cached is not None:
                return cached
        key = id(problem)
        entry = _CONTEXT_CACHE.get(key)
        if entry is not None and entry[0]() is problem:
            return entry[1]
        context = cls(
            problem.apps,
            problem.platform,
            model=problem.model,
            energy_model=problem.energy_model,
        )
        try:
            object.__setattr__(problem, "_eval_context", context)
        except (AttributeError, TypeError):
            pass
        try:
            ref = weakref.ref(problem)
        except TypeError:
            return context
        _CONTEXT_CACHE[key] = (ref, context)
        weakref.finalize(problem, _CONTEXT_CACHE.pop, key, None)
        return context

    # ------------------------------------------------------------------
    # O(1) scalar lookups
    # ------------------------------------------------------------------
    def work_sum(self, app_index: int, lo: int, hi: int) -> float:
        """Total work of stages ``lo .. hi`` (inclusive) of one application.

        Parameters
        ----------
        app_index:
            Index of the application.
        lo, hi:
            Inclusive 0-based stage interval bounds.

        Returns
        -------
        float
            ``sum_{k=lo..hi} w_k``, in O(1) via the prefix sums.

        Raises
        ------
        InvalidApplicationError
            When the interval is out of range.
        """
        prefix = self._prefix[app_index]
        if not 0 <= lo <= hi < len(prefix) - 1:
            raise InvalidApplicationError(
                f"invalid stage interval {(lo, hi)!r} for "
                f"{len(prefix) - 1} stages"
            )
        return float(prefix[hi + 1] - prefix[lo])

    def interval_input_size(self, app_index: int, interval: Interval) -> float:
        """Size of the data entering interval ``[lo, hi]`` (``delta_{lo}``)."""
        lo, hi = interval
        self._check_interval(app_index, lo, hi)
        return float(self._delta[app_index][lo])

    def interval_output_size(self, app_index: int, interval: Interval) -> float:
        """Size of the data leaving interval ``[lo, hi]`` (``delta_{hi+1}``)."""
        lo, hi = interval
        self._check_interval(app_index, lo, hi)
        return float(self._delta[app_index][hi + 1])

    def _check_interval(self, app_index: int, lo: int, hi: int) -> None:
        n = len(self._prefix[app_index]) - 1
        if not 0 <= lo <= hi < n:
            raise InvalidApplicationError(
                f"invalid stage interval {(lo, hi)!r} for {n} stages"
            )

    # ------------------------------------------------------------------
    # Bandwidth tables
    # ------------------------------------------------------------------
    def input_bandwidths(self, app_index: int) -> np.ndarray:
        """``bw[u]`` = bandwidth of the virtual link ``Pin_a -> P_u``."""
        table = self._bw_in.get(app_index)
        if table is None:
            platform = self.platform
            base = platform.app_bandwidths.get(
                app_index, platform.default_bandwidth
            )
            table = np.full(platform.n_processors, float(base))
            for (a, u), bw in platform.in_links.items():
                if a == app_index:
                    table[u] = bw
            table.setflags(write=False)
            self._bw_in[app_index] = table
        return table

    def output_bandwidths(self, app_index: int) -> np.ndarray:
        """``bw[u]`` = bandwidth of the virtual link ``P_u -> Pout_a``."""
        table = self._bw_out.get(app_index)
        if table is None:
            platform = self.platform
            base = platform.app_bandwidths.get(
                app_index, platform.default_bandwidth
            )
            table = np.full(platform.n_processors, float(base))
            for (a, u), bw in platform.out_links.items():
                if a == app_index:
                    table[u] = bw
            table.setflags(write=False)
            self._bw_out[app_index] = table
        return table

    def link_bandwidths(self, app_index: int) -> np.ndarray:
        """``bw[u, v]`` = bandwidth of the link ``P_u -- P_v`` carrying the
        application's data (symmetric; the diagonal is the default).

        Applications without an ``app_bandwidths`` override all share one
        default-based table (cached under key ``None``) instead of each
        materializing an identical O(p^2) matrix.
        """
        platform = self.platform
        key = (
            app_index if app_index in platform.app_bandwidths else None
        )
        table = self._bw_link.get(key)
        if table is None:
            p = platform.n_processors
            base = platform.app_bandwidths.get(
                app_index, platform.default_bandwidth
            )
            table = np.full((p, p), float(base))
            for (u, v), bw in platform.links.items():
                table[u, v] = bw
                table[v, u] = bw
            table.setflags(write=False)
            self._bw_link[key] = table
        return table

    def search_tables(self) -> SearchTables:
        """The branch-and-bound lookup tables, built on first call and
        shared by every later search on this problem (all the cells of
        one front, say)."""
        if self._search is None:
            energy = self.energy_model.processor_energy
            apps = range(len(self.apps))
            # Apps without a bandwidth override share one link table.
            links: Dict[int, List[List[float]]] = {}
            bw_link = []
            for a in apps:
                table = self.link_bandwidths(a)
                if id(table) not in links:
                    links[id(table)] = table.tolist()
                bw_link.append(links[id(table)])
            self._search = SearchTables(
                prefix=[prefix.tolist() for prefix in self._prefix],
                delta=[delta.tolist() for delta in self._delta],
                interval_ends=[
                    [tuple(range(lo, app.n_stages)) for lo in range(app.n_stages)]
                    for app in self.apps
                ],
                bw_in=[self.input_bandwidths(a).tolist() for a in apps],
                bw_out=[self.output_bandwidths(a).tolist() for a in apps],
                bw_link=bw_link,
                modes=[
                    tuple((s, energy(proc, s)) for s in proc.speeds)
                    for proc in self.platform.processors
                ],
            )
        return self._search

    # ------------------------------------------------------------------
    # Whole-mapping evaluation
    # ------------------------------------------------------------------
    def _app_criteria(
        self,
        app_index: int,
        lo: np.ndarray,
        hi: np.ndarray,
        proc: np.ndarray,
        speed: np.ndarray,
    ) -> Tuple[float, float]:
        """Unweighted ``(period, latency)`` of one application's ordered
        assignment chain (Equations (3)/(4) and (5)), given the column
        views of its assignments."""
        m = len(lo)
        if m == 0:
            raise InvalidMappingError(
                f"application {app_index} has no assignment"
            )
        prefix = self._prefix[app_index]
        delta = self._delta[app_index]
        n = len(prefix) - 1
        if int(hi.max()) >= n:
            raise InvalidApplicationError(
                f"interval exceeds the {n} stages of application {app_index}"
            )

        t_comp = (prefix[hi + 1] - prefix[lo]) / speed
        bw_chain = (
            self.link_bandwidths(app_index)[proc[:-1], proc[1:]]
            if m > 1
            else None
        )
        bw_in = np.empty(m)
        bw_in[0] = self.input_bandwidths(app_index)[proc[0]]
        bw_out = np.empty(m)
        bw_out[-1] = self.output_bandwidths(app_index)[proc[-1]]
        if m > 1:
            bw_in[1:] = bw_chain
            bw_out[:-1] = bw_chain
        t_in = delta[lo] / bw_in
        t_out = delta[hi + 1] / bw_out
        if self.model is CommunicationModel.OVERLAP:
            cycles = np.maximum(np.maximum(t_in, t_comp), t_out)
        else:
            cycles = t_in + t_comp + t_out
        period = float(cycles.max())
        # ``bw_in[0]`` is a NumPy scalar: convert, so every evaluation
        # path (this one and ``BatchCriteria.select``) yields plain floats.
        latency = float(
            self.apps[app_index].input_data_size / bw_in[0]
            + _seq_sum(t_comp)
            + _seq_sum(t_out)
        )
        return period, latency

    def _columns_energy(self, columns: _MappingColumns) -> float:
        """Energy of a mapping from its column view."""
        # Valid mappings never share processors; for robustness on invalid
        # candidates, count each processor once at its first (canonical
        # order) assignment -- matching the scalar `platform_energy`.
        uniq, first = np.unique(columns.proc, return_index=True)
        return _seq_sum(
            self._static[uniq] + columns.speed[first] ** self._alpha
        )

    def mapping_energy(self, mapping: Mapping) -> float:
        """Total per-time-unit energy of the enrolled processors.

        Parameters
        ----------
        mapping:
            The mapping whose processors are enrolled.

        Returns
        -------
        float
            ``sum_u E_stat(u) + s_u^alpha`` over the distinct enrolled
            processors (Section 3.5).
        """
        return self._columns_energy(mapping_columns(mapping))

    def evaluate(self, mapping: Mapping) -> CriteriaValues:
        """All criteria of a mapping in one vectorized pass.

        Parameters
        ----------
        mapping:
            The mapping to evaluate (all applications must be assigned).

        Returns
        -------
        CriteriaValues
            Per-application periods/latencies plus the weighted global
            period, latency and total energy; numerically equivalent to
            the scalar :func:`repro.core.evaluation.evaluate_scalar`.
        """
        columns = mapping_columns(mapping)
        periods: Dict[int, float] = {}
        latencies: Dict[int, float] = {}
        for a, rows in columns.slices.items():
            periods[a], latencies[a] = self._app_criteria(
                a,
                columns.lo[rows],
                columns.hi[rows],
                columns.proc[rows],
                columns.speed[rows],
            )
        period = max(self.apps[a].weight * t for a, t in periods.items())
        latency = max(self.apps[a].weight * l for a, l in latencies.items())
        return CriteriaValues(
            periods=periods,
            latencies=latencies,
            period=period,
            latency=latency,
            energy=self._columns_energy(columns),
        )

    # ------------------------------------------------------------------
    # Incremental evaluation
    # ------------------------------------------------------------------
    def delta_evaluate(
        self,
        mapping: Mapping,
        base_mapping: Mapping,
        base_values: CriteriaValues,
    ) -> CriteriaValues:
        """Criteria of ``mapping`` given a previously evaluated neighbor.

        Only the applications whose assignment rows differ from
        ``base_mapping`` are re-evaluated (period and latency); the energy
        is recomputed vectorized over the whole mapping (it is O(m) and has
        no per-application structure worth diffing).

        Parameters
        ----------
        mapping:
            The new mapping (after a local move).
        base_mapping:
            The previously evaluated neighbor.
        base_values:
            The criteria of ``base_mapping``.

        Returns
        -------
        CriteriaValues
            Bit-identical to a fresh :meth:`evaluate` call on
            ``mapping``.
        """
        columns = mapping_columns(mapping)
        base_columns = mapping_columns(base_mapping)
        periods: Dict[int, float] = {}
        latencies: Dict[int, float] = {}
        for a, rows in columns.slices.items():
            base_rows = base_columns.slices.get(a)
            if (
                base_rows is not None
                and a in base_values.periods
                and np.array_equal(
                    columns.rows[rows], base_columns.rows[base_rows]
                )
            ):
                periods[a] = base_values.periods[a]
                latencies[a] = base_values.latencies[a]
            else:
                periods[a], latencies[a] = self._app_criteria(
                    a,
                    columns.lo[rows],
                    columns.hi[rows],
                    columns.proc[rows],
                    columns.speed[rows],
                )
        period = max(self.apps[a].weight * t for a, t in periods.items())
        latency = max(self.apps[a].weight * l for a, l in latencies.items())
        return CriteriaValues(
            periods=periods,
            latencies=latencies,
            period=period,
            latency=latency,
            energy=self._columns_energy(columns),
        )

    # ------------------------------------------------------------------
    # Batched evaluation
    # ------------------------------------------------------------------
    def _batch_tables(self) -> Dict[str, np.ndarray]:
        """Concatenated per-application tables backing evaluate_many."""
        tables = self._batch
        if tables:
            return tables
        n_apps = len(self.apps)
        prefix_lens = [len(p) for p in self._prefix]
        delta_lens = [len(d) for d in self._delta]
        tables["prefix"] = np.concatenate(self._prefix)
        tables["delta"] = np.concatenate(self._delta)
        tables["prefix_off"] = np.concatenate(
            ([0], np.cumsum(prefix_lens)[:-1])
        )
        tables["delta_off"] = np.concatenate(
            ([0], np.cumsum(delta_lens)[:-1])
        )
        tables["n_stages"] = np.array(
            [app.n_stages for app in self.apps], dtype=np.intp
        )
        tables["weights"] = np.array([app.weight for app in self.apps])
        tables["input_sizes"] = np.array(
            [app.input_data_size for app in self.apps]
        )
        tables["bw_in"] = np.stack(
            [self.input_bandwidths(a) for a in range(n_apps)]
        )
        tables["bw_out"] = np.stack(
            [self.output_bandwidths(a) for a in range(n_apps)]
        )
        # Link tables are shared between apps without per-app overrides;
        # dedupe by identity so the stack stays small.
        links: List[np.ndarray] = []
        table_of: Dict[int, int] = {}
        tid = np.empty(n_apps, dtype=np.intp)
        for a in range(n_apps):
            table = self.link_bandwidths(a)
            index = table_of.setdefault(id(table), len(links))
            if index == len(links):
                links.append(table)
            tid[a] = index
        tables["bw_link"] = np.stack(links)
        tables["bw_link_tid"] = tid
        return tables

    def evaluate_many(self, batch) -> BatchCriteria:
        """All criteria of ``N`` candidate mappings in one kernel pass.

        The batched counterpart of :meth:`evaluate`, scoring a whole
        neighborhood (or any candidate set) without materializing a
        single :class:`~repro.core.mapping.Mapping`.

        Parameters
        ----------
        batch:
            Any object exposing the stacked column arrays of a candidate
            batch (duck-typed; canonically a
            :class:`repro.kernel.neighborhood.CandidateBatch`):
            ``app`` / ``lo`` / ``hi`` / ``proc`` (integer row arrays),
            ``speed`` (float row array) and ``starts`` (the ``N + 1``
            row offsets delimiting the candidates).  Rows must be in the
            canonical ``(app, lo)`` order within each candidate, every
            candidate must cover every application, and -- as for any
            valid mapping -- use each processor at most once.

        Returns
        -------
        BatchCriteria
            Per-candidate criteria vectors; entry ``i`` is bit-identical
            to :meth:`evaluate` on the materialized ``i``-th candidate.

        Raises
        ------
        InvalidMappingError
            When a candidate does not cover every application as one
            contiguous chain block.
        InvalidApplicationError
            When an interval exceeds its application's stage count.
        """
        with _track("solve.evaluate"):
            return self._evaluate_many(batch)

    def _evaluate_many(self, batch) -> BatchCriteria:
        app = np.asarray(batch.app, dtype=np.intp)
        lo = np.asarray(batch.lo, dtype=np.intp)
        hi = np.asarray(batch.hi, dtype=np.intp)
        proc = np.asarray(batch.proc, dtype=np.intp)
        speed = np.asarray(batch.speed, dtype=np.float64)
        starts = np.asarray(batch.starts, dtype=np.intp)
        n_cands = len(starts) - 1
        n_apps = len(self.apps)
        n_rows = len(app)
        if n_cands == 0:
            empty = np.empty(0)
            return BatchCriteria(
                periods=np.empty((0, n_apps)),
                latencies=np.empty((0, n_apps)),
                period=empty,
                latency=empty,
                energy=empty,
            )
        tables = self._batch_tables()
        if np.any(hi >= tables["n_stages"][app]):
            raise InvalidApplicationError(
                "evaluate_many: interval exceeds its application's stages"
            )

        cand = np.repeat(np.arange(n_cands), np.diff(starts))
        is_first = np.empty(n_rows, dtype=bool)
        is_first[0] = True
        is_first[1:] = (cand[1:] != cand[:-1]) | (app[1:] != app[:-1])
        chain_starts = np.flatnonzero(is_first)
        if len(chain_starts) != n_cands * n_apps or not np.array_equal(
            app[chain_starts],
            np.tile(np.arange(n_apps, dtype=np.intp), n_cands),
        ):
            raise InvalidMappingError(
                "evaluate_many: every candidate must cover every "
                "application as one contiguous, app-ordered chain block"
            )

        poff = tables["prefix_off"][app]
        doff = tables["delta_off"][app]
        t_comp = (
            tables["prefix"][poff + hi + 1] - tables["prefix"][poff + lo]
        ) / speed

        # Incoming bandwidth of each row: the virtual input link for the
        # first interval of each chain, the inter-processor link from
        # the previous interval otherwise.
        bw_in = np.empty(n_rows)
        if n_rows > 1:
            bw_in[1:] = tables["bw_link"][
                tables["bw_link_tid"][app[1:]], proc[:-1], proc[1:]
            ]
        bw_in[chain_starts] = tables["bw_in"][
            app[chain_starts], proc[chain_starts]
        ]
        t_in = tables["delta"][doff + lo] / bw_in

        # Outgoing bandwidth: the next row's incoming link, except for
        # the last interval of each chain (virtual output link).
        is_last = np.empty(n_rows, dtype=bool)
        is_last[:-1] = is_first[1:]
        is_last[-1] = True
        bw_out = np.empty(n_rows)
        bw_out[:-1] = bw_in[1:]
        last_rows = np.flatnonzero(is_last)
        bw_out[last_rows] = tables["bw_out"][app[last_rows], proc[last_rows]]
        t_out = tables["delta"][doff + hi + 1] / bw_out

        if self.model is CommunicationModel.OVERLAP:
            cycles = np.maximum(np.maximum(t_in, t_comp), t_out)
        else:
            cycles = t_in + t_comp + t_out

        n_chains = n_cands * n_apps
        chain_lens = np.diff(np.append(chain_starts, n_rows))
        chain_ids = np.repeat(np.arange(n_chains), chain_lens)
        chain_pos = np.arange(n_rows) - chain_starts[chain_ids]
        periods = np.maximum.reduceat(cycles, chain_starts).reshape(
            n_cands, n_apps
        )
        latencies = (
            tables["input_sizes"][app[chain_starts]] / bw_in[chain_starts]
            + segment_sums(t_comp, chain_ids, chain_pos, n_chains)
            + segment_sums(t_out, chain_ids, chain_pos, n_chains)
        ).reshape(n_cands, n_apps)

        # Energy: rows re-ordered by ascending processor inside each
        # candidate so the sequential sum matches the scalar path, which
        # iterates `np.unique(proc)` (ascending) -- exact because valid
        # candidates use each processor once.
        order = np.lexsort((proc, cand))
        e_rows = self._static[proc[order]] + speed[order] ** self._alpha
        cand_pos = np.arange(n_rows) - starts[cand[order]]
        energy = segment_sums(e_rows, cand[order], cand_pos, n_cands)

        weights = tables["weights"]
        return BatchCriteria(
            periods=periods,
            latencies=latencies,
            period=np.max(periods * weights, axis=1),
            latency=np.max(latencies * weights, axis=1),
            energy=energy,
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"EvaluationContext({len(self.apps)} apps, "
            f"{self.platform.n_processors} processors, "
            f"{self.model.value})"
        )
