"""The compiled neighborhood engine: one nopython call per descent step.

The batched engine (:mod:`repro.kernel.neighborhood` +
:meth:`~repro.kernel.context.EvaluationContext.evaluate_many`) removed
the per-candidate Python objects, but every hill-climbing step still
re-enters Python half a dozen times: materialize the
:class:`~repro.kernel.neighborhood.CandidateBatch` columns, run the
batched criteria kernel, score, then replay the accept rule over a
Python loop.  This module fuses all of it -- candidate enumeration (all
six move kinds, in the scalar generator's order), criteria evaluation
(strict-sequential chain sums matching :func:`~repro.kernel.context.segment_sums`
bit-for-bit), penalized scoring and the sequential best-improvement
tie-break -- into Numba ``@njit`` kernels, so a full descent step (and an
annealing proposal) runs without re-entering Python.  Only the accepted
candidate is ever materialized back into a ``Mapping``.

Degradation is graceful and layered:

* Numba is detected at import (:data:`HAVE_NUMBA` / :data:`NUMBA_VERSION`);
  when absent the ``@njit`` decorator degrades to the identity, leaving the
  kernels as plain Python over NumPy arrays -- slow, but exactly the code
  the JIT would compile, so the fallback is testable line by line.  The
  standard ``NUMBA_DISABLE_JIT=1`` environment variable gives the same
  interpreted path with Numba installed.
* :func:`acquire` gates per problem: unsupported shapes (e.g. a custom
  :class:`~repro.core.energy.EnergyModel` subclass whose ``dynamic`` is not
  ``s**alpha``) return a reason instead of a plan, and the caller falls
  back to the batched engine after a once-per-process warning.
* :func:`compile_for` pre-compiles every kernel (on a tiny synthetic
  instance -- Numba specializes on dtypes, not shapes) so pool workers pay
  the JIT warmup in their initializer, not on the first solve.

Bit-identity contract: given the same problem and start, the compiled
engine visits the same candidates in the same order, computes the same
IEEE-754 doubles for every criterion and score (same operation order as
``evaluate_many`` + ``score_many``), and applies the same
``< best - 1e-15`` accept rule -- asserted three-ways against the scalar
and batched oracles by ``tests/kernel/test_neighborhood_property.py``.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.energy import EnergyModel
from ..core.mapping import Assignment, Mapping
from ..core.types import CommunicationModel, Criterion, MappingRule
from ..obs.spans import track as _track
from .context import mapping_columns

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_VERSION",
    "CompiledPlan",
    "CompiledState",
    "acquire",
    "available",
    "compile_for",
    "plan_for",
    "support_reason",
    "warmup",
]

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    HAVE_NUMBA = True
    NUMBA_VERSION: Optional[str] = numba.__version__
    _jit = numba.njit(cache=True)
except ImportError:
    HAVE_NUMBA = False
    NUMBA_VERSION = None

    def _jit(fn):
        return fn


#: Test hook: force the engine to report itself available even without
#: Numba, running the kernels as plain Python.  Lets the three-way
#: equivalence suite exercise the genuine compiled code path (enumeration,
#: evaluation, accept replay) on machines where the JIT is absent.
_FORCE_PYTHON_ENGINE = False

#: Reasons already warned about (once-per-process fallback warnings).
_WARNED: set = set()

#: ``plan_for`` fallback memo for problems that refuse attribute writes,
#: mirroring :data:`repro.kernel.context._CONTEXT_CACHE`.
_PLAN_CACHE: Dict[int, Tuple["weakref.ref", "CompiledPlan"]] = {}

_PENALTY = 1e9
_NEG_INF = float("-inf")
_SPEED_MATCH_RTOL = 1e-9

_CRIT_CODES = {Criterion.PERIOD: 0, Criterion.LATENCY: 1, Criterion.ENERGY: 2}


def available() -> bool:
    """True when the compiled engine can run: Numba is importable (JIT)
    or the pure-Python test hook is enabled (interpreted kernels)."""
    return HAVE_NUMBA or _FORCE_PYTHON_ENGINE


def support_reason(problem) -> Optional[str]:
    """Why the compiled engine cannot handle ``problem`` -- or ``None``.

    The compiled kernels hard-code the paper's shapes: ``s**alpha``
    dynamic energy and the two communication models / mapping rules.
    Anything pluggable beyond that (a custom ``EnergyModel`` subclass, a
    future mapping rule) downgrades to the batched engine, which goes
    through the fully general Python tables.
    """
    if type(problem.energy_model) is not EnergyModel:
        return (
            "custom energy model "
            f"{type(problem.energy_model).__name__!r} (compiled kernels "
            "hard-code dynamic energy s**alpha)"
        )
    if problem.model not in (
        CommunicationModel.OVERLAP,
        CommunicationModel.NO_OVERLAP,
    ):
        return f"unsupported communication model {problem.model!r}"
    if problem.rule not in (MappingRule.INTERVAL, MappingRule.ONE_TO_ONE):
        return f"unsupported mapping rule {problem.rule!r}"
    return None


def _warn_fallback(reason: str) -> None:
    """Emit the once-per-process downgrade warning for ``reason``."""
    if reason in _WARNED:
        return
    _WARNED.add(reason)
    warnings.warn(
        f"compiled neighborhood engine unavailable ({reason}); "
        "falling back to the batched engine",
        RuntimeWarning,
        stacklevel=3,
    )


def acquire(problem, context=None):
    """The compiled plan for ``problem``, or the fallback reason.

    Returns
    -------
    (plan, reason)
        ``(CompiledPlan, None)`` when the compiled engine can run this
        problem; ``(None, str)`` otherwise, after a once-per-process
        :class:`RuntimeWarning` naming the reason.  Callers fall back to
        the batched engine on ``None``.
    """
    if not available():
        reason = "numba is not installed (pip install repro-pipelines[compiled])"
    else:
        reason = support_reason(problem)
    if reason is not None:
        _warn_fallback(reason)
        return None, reason
    return plan_for(problem, context), None


# ---------------------------------------------------------------------------
# nopython kernels
#
# All kernels operate on plain int64/float64 arrays; with Numba absent they
# run unchanged as Python (the graceful-degradation contract above).  The
# operation order inside each kernel deliberately mirrors evaluate_many /
# score_many / the batched accept replay so results are bit-identical.
# ---------------------------------------------------------------------------


@_jit
def _mode_pos(speeds, s0, s1, s):
    """First index (0-based within the ladder) minimizing ``|mode - s|`` --
    the scalar generator's ``min(range(...), key=...)`` rule."""
    best = 0
    best_d = abs(speeds[s0] - s)
    for q in range(s0 + 1, s1):
        d = abs(speeds[q] - s)
        if d < best_d:
            best_d = d
            best = q - s0
    return best


@_jit
def _clamp(speeds, speeds_off, u, s):
    """``clamp_speed`` over the flattened speed ladders: ``s`` itself when
    processor ``u`` has a matching mode (within the 1e-9 relative
    tolerance), else its slowest mode ``>= s``, else its fastest mode."""
    s0 = speeds_off[u]
    s1 = speeds_off[u + 1]
    for q in range(s0, s1):
        v = speeds[q]
        av = abs(v)
        if av < 1.0:
            av = 1.0
        if abs(s - v) <= _SPEED_MATCH_RTOL * av:
            return s
    for q in range(s0, s1):
        if speeds[q] >= s:
            return speeds[q]
    return speeds[s1 - 1]


@_jit
def _count_neighbors(
    app, lo, hi, proc, speed, n_free, speeds, speeds_off, interval_rule
):
    """Size of the move neighborhood, without generating it -- the cheap
    pre-pass backing ``BudgetMeter.reserve(n)``."""
    m = len(app)
    total = 0
    for r in range(m):
        s0 = speeds_off[proc[r]]
        s1 = speeds_off[proc[r] + 1]
        pos = _mode_pos(speeds, s0, s1, speed[r])
        if pos >= 1:
            total += 1
        if pos + 1 < s1 - s0:
            total += 1
    total += m * (m - 1) // 2
    total += m * n_free
    if interval_rule:
        for r in range(m - 1):
            if app[r] == app[r + 1]:
                if lo[r] < hi[r]:
                    total += 1
                if lo[r + 1] < hi[r + 1]:
                    total += 1
                total += 1
        if n_free > 0:
            for r in range(m):
                total += (hi[r] - lo[r]) * n_free
    return total


@_jit
def _copy_rows(m, app, lo, hi, proc, speed, oa, ol, oh, op, os_):
    for r in range(m):
        oa[r] = app[r]
        ol[r] = lo[r]
        oh[r] = hi[r]
        op[r] = proc[r]
        os_[r] = speed[r]


@_jit
def _gen_candidate(
    index,
    app,
    lo,
    hi,
    proc,
    speed,
    free,
    speeds,
    speeds_off,
    interval_rule,
    oa,
    ol,
    oh,
    op,
    os_,
):
    """Write candidate ``index`` (enumeration order of the scalar
    generator: mode, swap, move, then shift/merge interleaved per adjacent
    pair, then split) into the ``o*`` row buffers; returns its row count.

    The decode walks the per-kind blocks arithmetically (O(m) per call,
    never O(neighborhood)), keeping the single source of enumeration
    truth in one place for counting, stepping and materialization.
    """
    m = len(app)
    n_free = len(free)
    k = index

    # mode moves: per row, pos - 1 then pos + 1
    for r in range(m):
        s0 = speeds_off[proc[r]]
        s1 = speeds_off[proc[r] + 1]
        pos = _mode_pos(speeds, s0, s1, speed[r])
        c = 0
        if pos >= 1:
            c += 1
        if pos + 1 < s1 - s0:
            c += 1
        if k < c:
            if pos >= 1 and k == 0:
                new_pos = pos - 1
            else:
                new_pos = pos + 1
            _copy_rows(m, app, lo, hi, proc, speed, oa, ol, oh, op, os_)
            os_[r] = speeds[s0 + new_pos]
            return m
        k -= c

    # swap moves: (i, j) lexicographic, i < j
    swaps = m * (m - 1) // 2
    if k < swaps:
        i = 0
        while True:
            c = m - 1 - i
            if k < c:
                j = i + 1 + k
                break
            k -= c
            i += 1
        _copy_rows(m, app, lo, hi, proc, speed, oa, ol, oh, op, os_)
        op[i] = proc[j]
        op[j] = proc[i]
        os_[i] = _clamp(speeds, speeds_off, proc[j], speed[i])
        os_[j] = _clamp(speeds, speeds_off, proc[i], speed[j])
        return m
    k -= swaps

    # move-to-free moves: row major, free processors ascending
    moves = m * n_free
    if k < moves:
        r = k // n_free
        u = free[k % n_free]
        _copy_rows(m, app, lo, hi, proc, speed, oa, ol, oh, op, os_)
        op[r] = u
        os_[r] = _clamp(speeds, speeds_off, u, speed[r])
        return m
    k -= moves

    if interval_rule:
        # shift / merge over adjacent same-application interval pairs
        for r in range(m - 1):
            if app[r] != app[r + 1]:
                continue
            if lo[r] < hi[r]:  # give left's last stage to right
                if k == 0:
                    _copy_rows(
                        m, app, lo, hi, proc, speed, oa, ol, oh, op, os_
                    )
                    oh[r] = hi[r] - 1
                    ol[r + 1] = hi[r]
                    return m
                k -= 1
            if lo[r + 1] < hi[r + 1]:  # give right's first stage to left
                if k == 0:
                    _copy_rows(
                        m, app, lo, hi, proc, speed, oa, ol, oh, op, os_
                    )
                    oh[r] = lo[r + 1]
                    ol[r + 1] = lo[r + 1] + 1
                    return m
                k -= 1
            if k == 0:  # merge onto the left processor
                w = 0
                for q in range(m):
                    if q == r + 1:
                        continue
                    oa[w] = app[q]
                    ol[w] = lo[q]
                    oh[w] = hi[r + 1] if q == r else hi[q]
                    op[w] = proc[q]
                    os_[w] = speed[q]
                    w += 1
                return m - 1
            k -= 1

        # split moves: row major, cut ascending, free processors ascending
        if n_free > 0:
            for r in range(m):
                c = (hi[r] - lo[r]) * n_free
                if k < c:
                    cut = lo[r] + k // n_free
                    u = free[k % n_free]
                    for q in range(r + 1):
                        oa[q] = app[q]
                        ol[q] = lo[q]
                        oh[q] = hi[q]
                        op[q] = proc[q]
                        os_[q] = speed[q]
                    oh[r] = cut
                    oa[r + 1] = app[r]
                    ol[r + 1] = cut + 1
                    oh[r + 1] = hi[r]
                    op[r + 1] = u
                    os_[r + 1] = speeds[speeds_off[u + 1] - 1]
                    for q in range(r + 1, m):
                        oa[q + 1] = app[q]
                        ol[q + 1] = lo[q]
                        oh[q + 1] = hi[q]
                        op[q + 1] = proc[q]
                        os_[q + 1] = speed[q]
                    return m + 1
                k -= c

    return 0


@_jit
def _dyn_energy(speeds, speeds_off, dyn, u, s, alpha):
    """Dynamic energy ``s**alpha`` of processor ``u`` at speed ``s``.

    Read from ``dyn``, the plan's per-mode table built by NumPy's array
    power -- the operation ``evaluate_many`` uses.  Recomputing it here as
    a scalar power can differ by one ulp (NumPy's array power squares
    with ``x * x`` for ``alpha == 2`` and may use SIMD routines for other
    exponents).  A speed within the mode tolerance but not equal to any
    mode falls back to the scalar power.
    """
    for q in range(speeds_off[u], speeds_off[u + 1]):
        if speeds[q] == s:
            return dyn[q]
    return s**alpha


@_jit
def _eval_candidate(
    capp,
    clo,
    chi,
    cproc,
    cspeed,
    mc,
    prefix,
    prefix_off,
    delta,
    delta_off,
    weights,
    input_sizes,
    bw_in,
    bw_out,
    bw_link,
    bw_tid,
    static,
    speeds,
    speeds_off,
    dyn,
    alpha,
    model,
    periods_out,
    latencies_out,
):
    """Criteria of one candidate's first ``mc`` rows: per-application
    periods/latencies into the ``*_out`` arrays, weighted global period
    and latency plus total energy returned.

    Operation order replicates ``evaluate_many`` exactly: per-row
    ``(prefix[hi+1] - prefix[lo]) / speed`` computation times, chain-linked
    bandwidths, max (overlap) or left-associated sum (no-overlap) cycles,
    ``input/bw + seq(t_comp) + seq(t_out)`` latencies with two separate
    left-to-right accumulators, and the energy as a stable
    processor-ascending sequential sum of ``static + speed**alpha``, the
    dynamic term read from the plan's NumPy-built table (see
    :func:`_dyn_energy`).
    """
    wperiod = _NEG_INF
    wlatency = _NEG_INF
    r = 0
    while r < mc:
        a = capp[r]
        e = r + 1
        while e < mc and capp[e] == a:
            e += 1
        po = prefix_off[a]
        do = delta_off[a]
        tid = bw_tid[a]
        period = _NEG_INF
        sum_comp = 0.0
        sum_out = 0.0
        first_in = 1.0
        for q in range(r, e):
            t_comp = (prefix[po + chi[q] + 1] - prefix[po + clo[q]]) / cspeed[q]
            if q == r:
                bwi = bw_in[a, cproc[q]]
                first_in = bwi
            else:
                bwi = bw_link[tid, cproc[q - 1], cproc[q]]
            t_in = delta[do + clo[q]] / bwi
            if q == e - 1:
                bwo = bw_out[a, cproc[q]]
            else:
                bwo = bw_link[tid, cproc[q], cproc[q + 1]]
            t_out = delta[do + chi[q] + 1] / bwo
            if model == 0:
                cyc = t_in
                if t_comp > cyc:
                    cyc = t_comp
                if t_out > cyc:
                    cyc = t_out
            else:
                cyc = t_in + t_comp + t_out
            if cyc > period:
                period = cyc
            sum_comp = sum_comp + t_comp
            sum_out = sum_out + t_out
        lat = input_sizes[a] / first_in + sum_comp + sum_out
        periods_out[a] = period
        latencies_out[a] = lat
        wp = weights[a] * period
        if wp > wperiod:
            wperiod = wp
        wl = weights[a] * lat
        if wl > wlatency:
            wlatency = wl
        r = e

    # Energy: stable insertion sort by processor replicates the batched
    # path's `np.lexsort((proc, cand))` ordering before the sequential sum.
    energy = 0.0
    order = np.empty(mc, np.int64)
    for q in range(mc):
        order[q] = q
    for q in range(1, mc):
        key = order[q]
        kp = cproc[key]
        w = q - 1
        while w >= 0 and cproc[order[w]] > kp:
            order[w + 1] = order[w]
            w -= 1
        order[w + 1] = key
    for q in range(mc):
        row = order[q]
        u = cproc[row]
        energy = energy + (
            static[u] + _dyn_energy(speeds, speeds_off, dyn, u, cspeed[row], alpha)
        )
    return wperiod, wlatency, energy


@_jit
def _score(
    crit,
    wperiod,
    wlatency,
    energy,
    th_global,
    pap,
    has_pap,
    pal,
    has_pal,
    periods,
    latencies,
    n_apps,
):
    """Penalized score: objective plus ``_PENALTY`` terms accumulated in
    ``score_values`` order (global period, latency, energy, then per-app
    periods and latencies, application index ascending).  ``-1.0`` in a
    threshold slot means no bound (real bounds are validated >= 0)."""
    if crit == 0:
        obj = wperiod
    elif crit == 1:
        obj = wlatency
    else:
        obj = energy
    pen = 0.0
    if th_global[0] >= 0.0 and wperiod > th_global[0]:
        pen = pen + (_PENALTY * (wperiod / th_global[0] - 1.0) + _PENALTY)
    if th_global[1] >= 0.0 and wlatency > th_global[1]:
        pen = pen + (_PENALTY * (wlatency / th_global[1] - 1.0) + _PENALTY)
    if th_global[2] >= 0.0 and energy > th_global[2]:
        pen = pen + (_PENALTY * (energy / th_global[2] - 1.0) + _PENALTY)
    if has_pap:
        for a in range(n_apps):
            if periods[a] > pap[a]:
                pen = pen + (_PENALTY * (periods[a] / pap[a] - 1.0) + _PENALTY)
    if has_pal:
        for a in range(n_apps):
            if latencies[a] > pal[a]:
                pen = pen + (
                    _PENALTY * (latencies[a] / pal[a] - 1.0) + _PENALTY
                )
    return obj + pen


@_jit
def _best_step(
    limit,
    current_score,
    app,
    lo,
    hi,
    proc,
    speed,
    free,
    speeds,
    speeds_off,
    interval_rule,
    prefix,
    prefix_off,
    delta,
    delta_off,
    weights,
    input_sizes,
    bw_in,
    bw_out,
    bw_link,
    bw_tid,
    static,
    dyn,
    alpha,
    model,
    crit,
    th_global,
    pap,
    has_pap,
    pal,
    has_pal,
    oa,
    ol,
    oh,
    op,
    os_,
    periods_tmp,
    latencies_tmp,
):
    """One full best-improvement scan: enumerate candidates ``0..limit-1``,
    evaluate and score each, and replay the sequential
    ``score < best - 1e-15`` accept rule.  Returns ``(best_index,
    best_score)`` with ``best_index == -1`` when no candidate improves."""
    n_apps = len(weights)
    best_index = -1
    best_score = current_score
    for i in range(limit):
        mc = _gen_candidate(
            i,
            app,
            lo,
            hi,
            proc,
            speed,
            free,
            speeds,
            speeds_off,
            interval_rule,
            oa,
            ol,
            oh,
            op,
            os_,
        )
        wp, wl, en = _eval_candidate(
            oa,
            ol,
            oh,
            op,
            os_,
            mc,
            prefix,
            prefix_off,
            delta,
            delta_off,
            weights,
            input_sizes,
            bw_in,
            bw_out,
            bw_link,
            bw_tid,
            static,
            speeds,
            speeds_off,
            dyn,
            alpha,
            model,
            periods_tmp,
            latencies_tmp,
        )
        s = _score(
            crit,
            wp,
            wl,
            en,
            th_global,
            pap,
            has_pap,
            pal,
            has_pal,
            periods_tmp,
            latencies_tmp,
            n_apps,
        )
        if s < best_score - 1e-15:
            best_score = s
            best_index = i
    return best_index, best_score


# ---------------------------------------------------------------------------
# Python-side plan and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledState:
    """One mapping as the five int64/float64 row columns the kernels eat,
    in canonical ``(app, lo)`` order."""

    app: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    proc: np.ndarray
    speed: np.ndarray

    def __len__(self) -> int:
        return len(self.app)


class CompiledPlan:
    """Flattened problem tables plus scratch buffers for the kernels.

    Built once per problem (memoized by :func:`plan_for`) from the same
    ``EvaluationContext._batch_tables()`` arrays that back
    ``evaluate_many``, so the two engines literally read the same
    numbers.  The scratch buffers make a plan single-threaded per
    process, matching how every solve path uses it (pool workers are
    processes).
    """

    __slots__ = (
        "n_apps",
        "n_procs",
        "interval_rule",
        "model",
        "alpha",
        "prefix",
        "prefix_off",
        "delta",
        "delta_off",
        "weights",
        "input_sizes",
        "bw_in",
        "bw_out",
        "bw_link",
        "bw_tid",
        "static",
        "speeds",
        "speeds_off",
        "dyn",
        "_oa",
        "_ol",
        "_oh",
        "_op",
        "_os",
        "_periods",
        "_latencies",
        "_all_procs",
        "_last_score",
    )

    def __init__(self, problem, context=None) -> None:
        ctx = problem.evaluation_context(context)
        tables = ctx._batch_tables()
        platform = problem.platform
        self.n_apps = len(ctx.apps)
        self.n_procs = platform.n_processors
        self.interval_rule = (
            1 if problem.rule is MappingRule.INTERVAL else 0
        )
        self.model = 0 if ctx.model is CommunicationModel.OVERLAP else 1
        self.alpha = float(ctx._alpha)
        self.prefix = np.ascontiguousarray(tables["prefix"], dtype=np.float64)
        self.prefix_off = np.ascontiguousarray(
            tables["prefix_off"], dtype=np.int64
        )
        self.delta = np.ascontiguousarray(tables["delta"], dtype=np.float64)
        self.delta_off = np.ascontiguousarray(
            tables["delta_off"], dtype=np.int64
        )
        self.weights = np.ascontiguousarray(
            tables["weights"], dtype=np.float64
        )
        self.input_sizes = np.ascontiguousarray(
            tables["input_sizes"], dtype=np.float64
        )
        self.bw_in = np.ascontiguousarray(tables["bw_in"], dtype=np.float64)
        self.bw_out = np.ascontiguousarray(tables["bw_out"], dtype=np.float64)
        self.bw_link = np.ascontiguousarray(
            tables["bw_link"], dtype=np.float64
        )
        self.bw_tid = np.ascontiguousarray(
            tables["bw_link_tid"], dtype=np.int64
        )
        self.static = np.ascontiguousarray(ctx._static, dtype=np.float64)
        ladders = [platform.processor(u).speeds for u in range(self.n_procs)]
        self.speeds = np.array(
            [s for ladder in ladders for s in ladder], dtype=np.float64
        )
        self.speeds_off = np.zeros(self.n_procs + 1, dtype=np.int64)
        np.cumsum([len(ladder) for ladder in ladders], out=self.speeds_off[1:])
        # Per-mode dynamic energy, by the same array power as evaluate_many.
        self.dyn = np.ascontiguousarray(self.speeds ** ctx._alpha)
        # Scratch: a candidate never has more rows than processors + 1.
        size = self.n_procs + 1
        self._oa = np.empty(size, dtype=np.int64)
        self._ol = np.empty(size, dtype=np.int64)
        self._oh = np.empty(size, dtype=np.int64)
        self._op = np.empty(size, dtype=np.int64)
        self._os = np.empty(size, dtype=np.float64)
        self._periods = np.empty(self.n_apps, dtype=np.float64)
        self._latencies = np.empty(self.n_apps, dtype=np.float64)
        self._all_procs = np.arange(self.n_procs, dtype=np.int64)

    # -- state construction -------------------------------------------------
    def state_from(self, mapping: Mapping) -> CompiledState:
        """The kernel-side column state of a mapping."""
        columns = mapping_columns(mapping)
        return CompiledState(
            app=np.ascontiguousarray(
                columns.rows[:, 0].astype(np.int64)
            ),
            lo=np.ascontiguousarray(columns.lo.astype(np.int64)),
            hi=np.ascontiguousarray(columns.hi.astype(np.int64)),
            proc=np.ascontiguousarray(columns.proc.astype(np.int64)),
            speed=np.ascontiguousarray(columns.speed, dtype=np.float64),
        )

    def free_procs(self, state: CompiledState) -> np.ndarray:
        """Ascending array of processors not enrolled by ``state``."""
        return np.setdiff1d(
            self._all_procs, state.proc, assume_unique=False
        ).astype(np.int64)

    def materialize(self, state: CompiledState) -> Mapping:
        """The ``Mapping`` of a state -- only ever called for accepted
        candidates, mirroring ``CandidateBatch.materialize``."""
        return Mapping.from_assignments(
            Assignment(
                app=int(a), interval=(int(l), int(h)), proc=int(u), speed=s
            )
            for a, l, h, u, s in zip(
                state.app.tolist(),
                state.lo.tolist(),
                state.hi.tolist(),
                state.proc.tolist(),
                state.speed.tolist(),
            )
        )

    # -- thresholds ---------------------------------------------------------
    def criteria_arrays(self, criterion: Criterion, thresholds) -> tuple:
        """Kernel-shaped ``(crit, th_global, pap, has_pap, pal, has_pal)``
        for a criterion + thresholds pair (``-1.0`` = no bound)."""
        th_global = np.array(
            [
                -1.0 if thresholds.period is None else thresholds.period,
                -1.0 if thresholds.latency is None else thresholds.latency,
                -1.0 if thresholds.energy is None else thresholds.energy,
            ],
            dtype=np.float64,
        )
        if thresholds.per_app_period is not None:
            pap = np.asarray(thresholds.per_app_period, dtype=np.float64)
            has_pap = 1
        else:
            pap = np.zeros(self.n_apps, dtype=np.float64)
            has_pap = 0
        if thresholds.per_app_latency is not None:
            pal = np.asarray(thresholds.per_app_latency, dtype=np.float64)
            has_pal = 1
        else:
            pal = np.zeros(self.n_apps, dtype=np.float64)
            has_pal = 0
        return (_CRIT_CODES[criterion], th_global, pap, has_pap, pal, has_pal)

    # -- kernel drivers -----------------------------------------------------
    def count(self, state: CompiledState, free: np.ndarray) -> int:
        """Neighborhood size of ``state`` (no generation)."""
        return int(
            _count_neighbors(
                state.app,
                state.lo,
                state.hi,
                state.proc,
                state.speed,
                len(free),
                self.speeds,
                self.speeds_off,
                self.interval_rule,
            )
        )

    def best_step(
        self,
        state: CompiledState,
        free: np.ndarray,
        crit: tuple,
        current_score: float,
        limit: int,
    ) -> Tuple[int, float]:
        """One fused descent step over the first ``limit`` candidates;
        ``(-1, current_score)`` when none improves."""
        crit_code, th_global, pap, has_pap, pal, has_pal = crit
        best_index, best_score = _best_step(
            limit,
            float(current_score),
            state.app,
            state.lo,
            state.hi,
            state.proc,
            state.speed,
            free,
            self.speeds,
            self.speeds_off,
            self.interval_rule,
            self.prefix,
            self.prefix_off,
            self.delta,
            self.delta_off,
            self.weights,
            self.input_sizes,
            self.bw_in,
            self.bw_out,
            self.bw_link,
            self.bw_tid,
            self.static,
            self.dyn,
            self.alpha,
            self.model,
            crit_code,
            th_global,
            pap,
            has_pap,
            pal,
            has_pal,
            self._oa,
            self._ol,
            self._oh,
            self._op,
            self._os,
            self._periods,
            self._latencies,
        )
        return int(best_index), float(best_score)

    def _generate(self, state: CompiledState, free: np.ndarray, index: int):
        mc = int(
            _gen_candidate(
                index,
                state.app,
                state.lo,
                state.hi,
                state.proc,
                state.speed,
                free,
                self.speeds,
                self.speeds_off,
                self.interval_rule,
                self._oa,
                self._ol,
                self._oh,
                self._op,
                self._os,
            )
        )
        if mc == 0:
            raise IndexError(
                f"candidate index {index} out of range for this neighborhood"
            )
        return mc

    def take(
        self, state: CompiledState, free: np.ndarray, index: int
    ) -> CompiledState:
        """The accepted candidate ``index`` as a fresh state."""
        mc = self._generate(state, free, index)
        return CompiledState(
            app=self._oa[:mc].copy(),
            lo=self._ol[:mc].copy(),
            hi=self._oh[:mc].copy(),
            proc=self._op[:mc].copy(),
            speed=self._os[:mc].copy(),
        )

    def propose(
        self,
        state: CompiledState,
        free: np.ndarray,
        index: int,
        crit: tuple,
    ):
        """Score one sampled candidate (the annealing proposal path):
        ``(score, values)`` with ``values`` the scalar
        :class:`~repro.core.evaluation.CriteriaValues`, built exactly as
        ``BatchCriteria.select`` would."""
        from ..core.evaluation import CriteriaValues

        with _track("solve.neighborhood"):
            mc = self._generate(state, free, index)
        with _track("solve.kernel"):
            wp, wl, en = self._propose_eval(mc, crit)
        values = CriteriaValues(
            periods={a: float(t) for a, t in enumerate(self._periods)},
            latencies={a: float(v) for a, v in enumerate(self._latencies)},
            period=float(wp),
            latency=float(wl),
            energy=float(en),
        )
        return float(self._last_score), values

    def _propose_eval(self, mc: int, crit: tuple):
        """Evaluate + score the generated candidate (nopython calls)."""
        crit_code, th_global, pap, has_pap, pal, has_pal = crit
        wp, wl, en = _eval_candidate(
            self._oa,
            self._ol,
            self._oh,
            self._op,
            self._os,
            mc,
            self.prefix,
            self.prefix_off,
            self.delta,
            self.delta_off,
            self.weights,
            self.input_sizes,
            self.bw_in,
            self.bw_out,
            self.bw_link,
            self.bw_tid,
            self.static,
            self.speeds,
            self.speeds_off,
            self.dyn,
            self.alpha,
            self.model,
            self._periods,
            self._latencies,
        )
        self._last_score = _score(
            crit_code,
            wp,
            wl,
            en,
            th_global,
            pap,
            has_pap,
            pal,
            has_pal,
            self._periods,
            self._latencies,
            self.n_apps,
        )
        return wp, wl, en


def plan_for(problem, context=None) -> CompiledPlan:
    """The compiled plan of a problem, memoized per instance (same
    caching contract as ``EvaluationContext.for_problem``)."""
    attrs = getattr(problem, "__dict__", None)
    if attrs is not None:
        cached = attrs.get("_compiled_plan")
        if cached is not None:
            return cached
    key = id(problem)
    entry = _PLAN_CACHE.get(key)
    if entry is not None and entry[0]() is problem:
        return entry[1]
    plan = CompiledPlan(problem, context)
    try:
        object.__setattr__(problem, "_compiled_plan", plan)
    except (AttributeError, TypeError):
        pass
    try:
        ref = weakref.ref(problem)
    except TypeError:
        return plan
    _PLAN_CACHE[key] = (ref, plan)
    weakref.finalize(problem, _PLAN_CACHE.pop, key, None)
    return plan


_WARMED = False


def warmup() -> bool:
    """Trigger JIT compilation of every kernel on a tiny synthetic
    instance (Numba specializes on dtypes, which the synthetic arrays
    share with every real problem).  Idempotent; returns whether the
    compiled engine is available.  Called by pool-worker initializers so
    solves never pay the compile latency."""
    global _WARMED
    if not available():
        return False
    if _WARMED:
        return True
    app = np.array([0], dtype=np.int64)
    lo = np.array([0], dtype=np.int64)
    hi = np.array([1], dtype=np.int64)
    proc = np.array([0], dtype=np.int64)
    speed = np.array([1.0], dtype=np.float64)
    free = np.array([1], dtype=np.int64)
    speeds = np.array([1.0, 1.0], dtype=np.float64)
    speeds_off = np.array([0, 1, 2], dtype=np.int64)
    prefix = np.array([0.0, 1.0, 2.0], dtype=np.float64)
    off = np.array([0], dtype=np.int64)
    delta = np.array([1.0, 1.0, 1.0], dtype=np.float64)
    weights = np.array([1.0], dtype=np.float64)
    input_sizes = np.array([1.0], dtype=np.float64)
    bw_in = np.ones((1, 2), dtype=np.float64)
    bw_out = np.ones((1, 2), dtype=np.float64)
    bw_link = np.ones((1, 2, 2), dtype=np.float64)
    bw_tid = np.array([0], dtype=np.int64)
    static = np.zeros(2, dtype=np.float64)
    th_global = np.array([-1.0, -1.0, -1.0], dtype=np.float64)
    pap = np.zeros(1, dtype=np.float64)
    oa = np.empty(3, dtype=np.int64)
    ol = np.empty(3, dtype=np.int64)
    oh = np.empty(3, dtype=np.int64)
    op = np.empty(3, dtype=np.int64)
    os_ = np.empty(3, dtype=np.float64)
    periods = np.empty(1, dtype=np.float64)
    latencies = np.empty(1, dtype=np.float64)
    n = _count_neighbors(
        app, lo, hi, proc, speed, len(free), speeds, speeds_off, 1
    )
    _best_step(
        int(n),
        float("inf"),
        app,
        lo,
        hi,
        proc,
        speed,
        free,
        speeds,
        speeds_off,
        1,
        prefix,
        off,
        delta,
        off,
        weights,
        input_sizes,
        bw_in,
        bw_out,
        bw_link,
        bw_tid,
        static,
        speeds**2.0,
        2.0,
        0,
        0,
        th_global,
        pap,
        0,
        pap,
        0,
        oa,
        ol,
        oh,
        op,
        os_,
        periods,
        latencies,
    )
    _WARMED = True
    return True


def compile_for(problem, context=None) -> Optional[CompiledPlan]:
    """Build (and memoize) the plan for ``problem`` and pre-compile the
    kernels.  Returns the plan, or ``None`` -- after the once-per-process
    fallback warning -- when the compiled engine is unavailable or the
    problem shape is unsupported."""
    plan, _reason = acquire(problem, context)
    if plan is None:
        return None
    warmup()
    return plan
