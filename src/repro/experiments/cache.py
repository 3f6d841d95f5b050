"""Content-addressed on-disk results cache.

Each campaign cell — one (problem instance, solver configuration) pair —
is keyed by the SHA-256 digest of its canonical JSON serialization, so
the cache key depends only on *content*: the same instance solved with
the same configuration hits the same entry no matter which campaign,
process or machine produced it.  Entries are single JSON files under
``<root>/<key[:2]>/<key>.json``, written atomically (temp file +
``os.replace``) so a campaign killed mid-write never leaves a corrupt
entry behind — the interrupted cell is simply missing and is recomputed
on the next run.

Reads go through a small in-process LRU memo: a warm daemon serving the
same cells repeatedly (the dedup path hits ``get`` on every submission)
would otherwise re-read and re-parse the same JSON file every time.
Memoized records are shared by reference — callers treat cache records
as read-only by contract (the runner and the daemon only ever ``.get``
fields out of them).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from ..core.problem import ProblemInstance
from ..io import problem_to_dict

__all__ = [
    "ResultsCache",
    "cell_key",
    "cell_key_for_payload",
    "combine_digests",
    "instance_digest",
    "solver_digest",
]


def _canonical(payload: Dict[str, Any]) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def instance_digest(problem: ProblemInstance) -> str:
    """Content hash of a problem instance.

    Parameters
    ----------
    problem:
        The instance to fingerprint.

    Returns
    -------
    str
        SHA-256 hex digest of the instance's canonical JSON form
        (:func:`repro.io.problem_to_dict` with sorted keys), so equal
        instances hash equal regardless of how they were constructed.
    """
    return hashlib.sha256(_canonical(problem_to_dict(problem)).encode()).hexdigest()


def solver_digest(solver_payload: Dict[str, Any]) -> str:
    """Content hash of a solver configuration dict.

    Parameters
    ----------
    solver_payload:
        JSON-friendly solver configuration
        (:meth:`repro.experiments.SolverSpec.to_dict`).  The ``name``
        field is excluded: renaming a configuration must not invalidate
        its cached results.

    Returns
    -------
    str
        SHA-256 hex digest of the canonical payload.
    """
    payload = {k: v for k, v in solver_payload.items() if k != "name"}
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def combine_digests(instance: str, solver: str) -> str:
    """Combine an instance digest and a solver digest into one cell key.

    This is the single definition of the key-composition format; both
    :func:`cell_key` and the campaign runner (which precomputes the two
    digests to share them across cells) go through it.

    Parameters
    ----------
    instance:
        Hex digest from :func:`instance_digest`.
    solver:
        Hex digest from :func:`solver_digest`.

    Returns
    -------
    str
        SHA-256 hex digest of ``"<instance>:<solver>"``.
    """
    return hashlib.sha256(f"{instance}:{solver}".encode()).hexdigest()


def cell_key(problem: ProblemInstance, solver_payload: Dict[str, Any]) -> str:
    """Cache key of one campaign cell.

    Parameters
    ----------
    problem:
        The cell's problem instance.
    solver_payload:
        The cell's solver configuration dict.

    Returns
    -------
    str
        SHA-256 hex digest combining :func:`instance_digest` and
        :func:`solver_digest` via :func:`combine_digests`.
    """
    return combine_digests(
        instance_digest(problem), solver_digest(solver_payload)
    )


def cell_key_for_payload(
    problem_payload: Dict[str, Any],
    solver_payload: Optional[Dict[str, Any]] = None,
) -> str:
    """Cell key computed from *wire* payloads, without a daemon.

    The shard router (and any external routing/inspection tool) must
    agree byte-for-byte with the daemon's dedup key for the same
    submission, so this normalizes exactly the way a submission is
    normalized server-side: the problem payload round-trips through
    :func:`repro.io.problem_from_dict` (canonicalizing field order and
    defaults) and the solver payload through
    :class:`~repro.experiments.spec.SolverSpec` (applying the spec's
    defaults; a missing ``name`` gets the daemon's placeholder, which
    the digest excludes anyway).

    Parameters
    ----------
    problem_payload:
        ``problem_to_dict``-shaped instance payload.
    solver_payload:
        Campaign-``solvers``-entry-shaped configuration; ``None`` or
        ``{}`` mean the all-defaults solver, as in a bare submission.

    Returns
    -------
    str
        The same digest :func:`cell_key` yields for the parsed objects
        (asserted against the daemon's key in
        ``tests/server/test_router.py``).
    """
    from ..io import problem_from_dict
    from .spec import SolverSpec

    solver_raw = dict(solver_payload or {})
    solver_raw.setdefault("name", "request")
    solver = SolverSpec.from_dict(solver_raw)
    return combine_digests(
        instance_digest(problem_from_dict(problem_payload)),
        solver_digest(solver.to_dict()),
    )


class ResultsCache:
    """A directory of content-addressed solve results.

    Parameters
    ----------
    root:
        Cache directory; created on first write.  Safe to share between
        campaigns — keys are content hashes, so distinct cells never
        collide and identical cells deduplicate.
    memo_entries:
        Capacity of the in-process LRU memo over parsed records
        (default 128; ``0`` disables memoization).  Entries are content
        addressed and immutable on disk, so the only staleness the memo
        can introduce is against *external* writers of the same key —
        which by construction write the identical record.
    """

    def __init__(
        self, root: Union[str, Path], *, memo_entries: int = 128
    ) -> None:
        self.root = Path(root)
        self.memo_entries = memo_entries
        self._memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Monotonic counters: memo hits vs. disk reads, exposed so the
        #: daemon benchmark can show what the memo saves.
        self.memo_hits = 0
        self.memo_misses = 0
        #: Entry count: read from the directory on the first ``len()``,
        #: then kept by this instance's own writes and removals (another
        #: process writing the same directory is not seen).
        self._count: Optional[int] = None

    def path(self, key: str) -> Path:
        """Filesystem location of a key's entry (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return key in self._memo or self.path(key).exists()

    def _memoize(self, key: str, record: Dict[str, Any]) -> None:
        if self.memo_entries <= 0:
            return
        self._memo[key] = record
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a cached record.

        Parameters
        ----------
        key:
            Cell key from :func:`cell_key`.

        Returns
        -------
        dict or None
            The stored record, or ``None`` on a miss.  Repeat lookups
            are answered from the in-process LRU memo without touching
            the filesystem; the returned dict is shared and must be
            treated as read-only.  A corrupt entry (truncated by a
            crash predating atomic writes, or hand edited) is treated
            as a miss and removed so it gets recomputed rather than
            poisoning reports.
        """
        memoized = self._memo.get(key)
        if memoized is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return memoized
        self.memo_misses += 1
        path = self.path(key)
        try:
            record = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                return None
            if self._count is not None:
                self._count -= 1
            return None
        self._memoize(key, record)
        return record

    #: Per-process monotonic counter making concurrent tmp names unique
    #: even when one process writes the same key twice back-to-back.
    _put_counter = itertools.count()

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store a record atomically; safe under concurrent writers.

        Parameters
        ----------
        key:
            Cell key from :func:`cell_key`.
        record:
            JSON-serializable result record.  The full payload is
            rendered first, written to a writer-private temp file in the
            destination directory (name derived from the key, the
            writer's PID and a per-process counter, opened with
            ``O_CREAT | O_EXCL`` so two writers can never share a temp
            file), then moved into place with ``os.replace`` — readers
            and racing same-key writers never observe a partial entry;
            the last ``replace`` wins whole.
        """
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record, sort_keys=True)
        is_new = self._count is not None and not path.exists()
        # A stale tmp from a crashed writer with a recycled PID could
        # collide on O_EXCL; advancing the counter sidesteps it.
        for _attempt in range(8):
            tmp = path.parent / (
                f".{key[:16]}.{os.getpid()}.{next(self._put_counter)}.tmp"
            )
            try:
                fd = os.open(
                    tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                continue
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if is_new:
                self._count += 1
            self._memoize(key, record)
            return
        raise OSError(
            f"could not allocate an exclusive temp file for cache key {key}"
        )

    def keys(self) -> Iterator[str]:
        """Iterate over all stored cell keys."""
        if not self.root.exists():
            return
        for entry in sorted(self.root.glob("*/*.json")):
            yield entry.stem

    def __len__(self) -> int:
        if self._count is None:
            self._count = (
                sum(1 for _ in self.root.glob("*/*.json"))
                if self.root.exists()
                else 0
            )
        return self._count
