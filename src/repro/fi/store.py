"""The campaign results database behind the :class:`ResultStore` API.

Campaign persistence used to be an implicit contract scattered over
the executor (JSON checkpoint read/write/flush/fingerprint) and
:mod:`repro.fi.serialization` (result files).  This
module makes the contract explicit: a :class:`ResultStore` owns both
halves of campaign persistence —

* the **checkpoint side** (per-task records keyed by campaign +
  fingerprint, digest-verified on load, flushed incrementally while
  the campaign runs), consumed by
  :class:`~repro.fi.executor.CampaignExecutor`;
* the **result side** (whole campaign results — permeability
  estimates, detection results, memory campaigns — saved under a run
  name with metadata), consumed by the analytics layer
  (:mod:`repro.analysis.compare`) and the ``repro analyze`` CLI.

Two implementations:

:class:`JsonCheckpointStore`
    Bit-compatible with the pre-store checkpoint files (the
    ``{campaign, fingerprint, n_tasks, results, digests}`` document,
    schema revision 2) and with the earlier result-file envelopes.  The
    whole document lives in memory and is rewritten atomically
    (write-temp-then-rename) on flush — but only when new records
    actually arrived since the last flush.

:class:`SqliteResultStore`
    A real results database: campaigns, per-task records, quarantined
    task failures, run events (integrity violations among them) and
    saved results in normalized sqlite tables, written in WAL mode.
    Records stream in per-flush transactions (each record's bytes are
    written once, instead of rewriting the whole document), and resume
    only needs the completed index set — the full result set is never
    materialized in memory on load.  One database file holds many
    campaigns and many runs, which is what makes cross-campaign
    analytics (``repro analyze diff``) possible.

Digests are a store-level concern: stores stamp every checkpoint
record with its canonical content digest
(:func:`~repro.fi.integrity.canonical_digest`) on write and re-verify
on load, reporting mismatches through the caller's violation callback
per the integrity policy (``strict`` raises, ``repair`` drops the
record for re-execution, ``off`` loads unverified).
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import CampaignError, IntegrityError
from repro.fi.chaos import ChaosPlan
from repro.fi.integrity import IntegrityViolation, canonical_digest

__all__ = [
    "STORE_BACKENDS",
    "SQLITE_SUFFIXES",
    "StoreStats",
    "StoredResult",
    "StoredCampaign",
    "ResultStore",
    "JsonCheckpointStore",
    "SqliteResultStore",
    "backend_for_path",
    "open_store",
]

STORE_BACKENDS = ("json", "sqlite")

#: checkpoint paths with these suffixes auto-select the sqlite backend.
SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")

#: marker key of an encoded TaskFailure record (mirrors the executor's
#: ``_FAILURE_MARKER``; kept literal here so the store does not import
#: the executor, which imports the store).
_FAILURE_MARKER = "__task_failure__"

_VIOLATION_CALLBACK = Callable[[IntegrityViolation], None]

#: bounded retry of a flush transaction that hits ``SQLITE_BUSY``
#: (concurrent campaigns sharing one results database).
_BUSY_RETRIES = 5
_BUSY_BACKOFF_S = 0.05

def backend_for_path(path: str, backend: Optional[str] = None) -> str:
    """Resolve a store backend name for *path*.

    An explicit *backend* wins; otherwise the path's suffix selects
    sqlite (:data:`SQLITE_SUFFIXES`) or json (everything else).
    """
    if backend is not None:
        if backend not in STORE_BACKENDS:
            raise CampaignError(
                f"unknown store backend {backend!r}; "
                f"choose from {STORE_BACKENDS}"
            )
        return backend
    suffix = os.path.splitext(path)[1].lower()
    return "sqlite" if suffix in SQLITE_SUFFIXES else "json"


def open_store(path: str, backend: Optional[str] = None) -> "ResultStore":
    """Open the :class:`ResultStore` for *path* (see
    :func:`backend_for_path` for backend selection)."""
    resolved = backend_for_path(path, backend)
    if resolved == "sqlite":
        return SqliteResultStore(path)
    return JsonCheckpointStore(path)


@dataclass
class StoreStats:
    """Write-side statistics of one store instance.

    ``bytes_written`` counts the payload bytes each flush persisted —
    the whole document for the JSON backend, only the new records for
    sqlite — which is the quantity the store benchmark compares.
    """

    flushes: int = 0
    #: flushes skipped because no new records arrived.
    skipped_flushes: int = 0
    records_written: int = 0
    bytes_written: int = 0
    #: flush transactions retried after SQLITE_BUSY contention.
    busy_retries: int = 0


@dataclass(frozen=True)
class StoredResult:
    """Catalogue entry of one saved campaign result."""

    run: str
    kind: str
    created_ts: float
    digest: str
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StoredCampaign:
    """Catalogue entry of one checkpointed campaign."""

    campaign: str
    fingerprint: str
    n_tasks: int
    completed: int
    failures: int


# ======================================================================
# The abstract store interface.
# ======================================================================
class ResultStore(ABC):
    """Persistence of campaign checkpoints and campaign results.

    Checkpoint protocol (driven by the executor)::

        rejects = store.open_campaign(name, fingerprint, n_tasks,
                                      policy, on_violation)
        done = store.completed_indices()     # schedule only the rest
        store.put_record(index, record)      # per finished task
        store.flush()                        # per checkpoint_every,
                                             # and on every exit path
        record = store.get_record(index)     # resumed records, lazily

    Result protocol (driven by drivers and the analytics layer)::

        store.save_result(result, run="table4/detection", meta={...})
        result = store.load_result("table4/detection")
        store.list_results()

    Records must be JSON-encodable; the executor encodes
    :class:`~repro.fi.executor.TaskFailure` records before handing
    them over and decodes them after fetching.
    """

    backend: str = ""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.stats = StoreStats()
        #: the kill-flush chaos hook is a simulated ``kill -9`` at a
        #: flush's most vulnerable point: after the new bytes are staged
        #: (temp file written / rows inserted), before they are durable
        #: (rename / commit).  The previously persisted state must
        #: survive it intact and loadable.
        self._chaos = ChaosPlan.from_env(os.environ)

    # -- checkpoint side ------------------------------------------------
    @abstractmethod
    def open_campaign(
        self,
        campaign: str,
        fingerprint: str,
        n_tasks: int,
        policy: str = "repair",
        on_violation: Optional[_VIOLATION_CALLBACK] = None,
    ) -> int:
        """Bind the store to one campaign identity; returns the number
        of stored records rejected by digest verification.

        A stored campaign whose fingerprint or task count mismatches
        is treated as absent (the legacy checkpoint behaviour), never
        as an error.  Under the ``strict`` policy a digest mismatch
        raises :class:`~repro.errors.IntegrityError`; under ``repair``
        the record is dropped (and will be re-executed); ``off`` skips
        verification.
        """

    @abstractmethod
    def completed_indices(self) -> Set[int]:
        """Verified task indices of the bound campaign."""

    @abstractmethod
    def get_record(self, index: int) -> Any:
        """The stored record at *index* (raw, JSON-decoded)."""

    @abstractmethod
    def put_record(
        self, index: int, record: Any, digest: Optional[str] = None
    ) -> None:
        """Stage one record; persisted by the next :meth:`flush`.

        The store computes the record's canonical digest unless an
        explicit *digest* is given (checkpoint migration preserves the
        original digests verbatim).
        """

    @abstractmethod
    def flush(self) -> bool:
        """Persist staged records; returns False when there was
        nothing new to write (the flush was skipped)."""

    @abstractmethod
    def discard_campaign(self, campaign: str) -> None:
        """Drop every stored record of *campaign* (fresh-start runs)."""

    @abstractmethod
    def list_campaigns(self) -> List[StoredCampaign]:
        """Catalogue of the checkpointed campaigns in this store."""

    # -- event mirroring ------------------------------------------------
    def log_event(self, record: Dict[str, Any]) -> None:
        """Mirror one run event into the store (sqlite only)."""

    # -- result side ----------------------------------------------------
    @abstractmethod
    def save_result(
        self,
        result: Any,
        run: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Save a campaign result under *run*; returns the run key."""

    @abstractmethod
    def load_result(self, run: Optional[str] = None) -> Any:
        """Load a saved campaign result (digest-verified)."""

    @abstractmethod
    def list_results(self) -> List[StoredResult]:
        """Catalogue of the saved results in this store."""

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release any underlying resources (idempotent)."""

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _digest_or_none(record: Any) -> Optional[str]:
    try:
        return canonical_digest(record)
    except IntegrityError:
        return None  # non-JSON records cannot be verified later


def _verify_record(
    campaign: str,
    index: int,
    record: Any,
    stored_digest: Optional[str],
    policy: str,
    on_violation: Optional[_VIOLATION_CALLBACK],
    path: str,
) -> bool:
    """Digest-check one loaded record; returns whether to keep it.

    Records without a digest (pre-digest files) always load; a
    mismatch is reported through *on_violation* and then either raises
    (``strict``) or rejects the record (``repair``).
    """
    if stored_digest is None or policy == "off":
        return True
    computed = _digest_or_none(record)
    if computed is None:
        computed = "<undigestable>"
    if computed == stored_digest:
        return True
    violation = IntegrityViolation(
        kind="checkpoint_digest",
        campaign=campaign,
        index=index,
        detail="stored record does not match its digest",
        expected=str(stored_digest),
        observed=computed,
    )
    if on_violation is not None:
        on_violation(violation)
    if policy == "strict":
        raise IntegrityError(
            f"checkpoint {path} failed verification: "
            f"{violation.describe()}"
        )
    return False  # repair: drop it, the task re-executes


# ======================================================================
# JSON backend.
# ======================================================================
class JsonCheckpointStore(ResultStore):
    """The legacy single-file JSON checkpoint, behind the store API.

    Bit-compatible with pre-store files: the same
    ``{campaign, fingerprint, n_tasks, results, digests}`` document
    (checkpoint side) and the same digest-stamped result envelope
    (result side).  The document is rewritten atomically on
    flush — write to ``<path>.tmp``, then :func:`os.replace` — and the
    rewrite is skipped entirely when no new records arrived.
    """

    backend = "json"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._bound: Optional[Tuple[str, str, int]] = None
        self._records: Dict[int, Any] = {}
        self._digests: Dict[int, str] = {}
        self._dirty = False
        self._new = 0

    # -- checkpoint side ------------------------------------------------
    def open_campaign(
        self,
        campaign: str,
        fingerprint: str,
        n_tasks: int,
        policy: str = "repair",
        on_violation: Optional[_VIOLATION_CALLBACK] = None,
    ) -> int:
        key = (campaign, fingerprint, n_tasks)
        if self._bound == key:
            return 0  # already verified in this store instance
        self._bound = key
        self._records = {}
        self._digests = {}
        self._dirty = False
        self._new = 0
        if not os.path.exists(self.path):
            return 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(payload, dict)
            or payload.get("campaign") != campaign
            or payload.get("fingerprint") != fingerprint
            or payload.get("n_tasks") != n_tasks
        ):
            # a stale document for some other campaign identity: treat
            # as absent, and overwrite it on the next flush even if no
            # new records arrive, so it cannot shadow this campaign
            self._dirty = True
            return 0
        digests = payload.get("digests")
        if not isinstance(digests, dict):
            digests = {}
        rejects = 0
        # a structurally corrupt checkpoint (non-numeric indices,
        # results that are not a mapping, mangled records) is discarded
        # like a mismatched one — never crash the campaign
        try:
            records: Dict[int, Any] = {}
            kept_digests: Dict[int, str] = {}
            for index, record in payload.get("results", {}).items():
                i = int(index)
                if not 0 <= i < n_tasks:
                    continue
                stored = digests.get(index)
                if not _verify_record(
                    campaign, i, record, stored, policy,
                    on_violation, self.path,
                ):
                    rejects += 1
                    continue
                if (
                    isinstance(record, dict)
                    and record.get(_FAILURE_MARKER) == 1
                ):
                    # a mangled quarantine record is structural
                    # corruption: raising here routes into the
                    # whole-discard path, like the legacy loader
                    int(record["index"])
                    int(record["attempts"])
                    record["kind"] + ""
                    record["error"] + ""
                if isinstance(stored, str):
                    kept_digests[i] = stored
                records[i] = record
        except IntegrityError:
            self._bound = None  # strict abort: leave the store unbound
            raise
        except (AttributeError, KeyError, TypeError, ValueError):
            self._dirty = True
            return rejects
        self._records = records
        self._digests = kept_digests
        if rejects:
            self._dirty = True  # rewrite without the rejected records
        return rejects

    def completed_indices(self) -> Set[int]:
        return set(self._records)

    def get_record(self, index: int) -> Any:
        return self._records[index]

    def put_record(
        self, index: int, record: Any, digest: Optional[str] = None
    ) -> None:
        self._records[index] = record
        resolved = digest if digest is not None else _digest_or_none(record)
        if resolved is not None:
            self._digests[index] = resolved
        else:
            self._digests.pop(index, None)
        self._dirty = True
        self._new += 1

    def flush(self) -> bool:
        if self._bound is None or not self._dirty:
            self.stats.skipped_flushes += 1
            return False
        campaign, fingerprint, n_tasks = self._bound
        payload = {
            "campaign": campaign,
            "fingerprint": fingerprint,
            "n_tasks": n_tasks,
            "results": {
                str(index): record
                for index, record in self._records.items()
            },
            "digests": {
                str(index): digest
                for index, digest in self._digests.items()
                if index in self._records
            },
        }
        text = json.dumps(payload)
        tmp = f"{self.path}.tmp"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        if self._chaos.fires("kill_flush"):
            os._exit(137)  # die after the temp write, before the rename
        os.replace(tmp, self.path)
        self._dirty = False
        self.stats.flushes += 1
        self.stats.records_written += self._new
        self._new = 0
        self.stats.bytes_written += len(text)
        return True

    def discard_campaign(self, campaign: str) -> None:
        if self._bound is not None and self._bound[0] == campaign:
            self._bound = None
            self._records = {}
            self._digests = {}
            self._dirty = False
            self._new = 0
        if os.path.exists(self.path):
            os.remove(self.path)

    def list_campaigns(self) -> List[StoredCampaign]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return []
        if not isinstance(payload, dict) or "campaign" not in payload:
            return []
        results = payload.get("results", {})
        if not isinstance(results, dict):
            results = {}
        failures = sum(
            1
            for record in results.values()
            if isinstance(record, dict)
            and record.get(_FAILURE_MARKER) == 1
        )
        return [
            StoredCampaign(
                campaign=str(payload.get("campaign")),
                fingerprint=str(payload.get("fingerprint")),
                n_tasks=int(payload.get("n_tasks") or 0),
                completed=len(results),
                failures=failures,
            )
        ]

    # -- result side ----------------------------------------------------
    def save_result(
        self,
        result: Any,
        run: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        from repro.fi.serialization import result_to_document

        data = result_to_document(result)
        with open(self.path, "w", encoding="utf-8") as handle:
            text = json.dumps(data, indent=2)
            handle.write(text)
        self.stats.flushes += 1
        self.stats.bytes_written += len(text)
        return run if run is not None else self.path

    def load_result(self, run: Optional[str] = None) -> Any:
        from repro.fi.serialization import document_to_result

        with open(self.path, "r", encoding="utf-8") as handle:
            data = json.loads(handle.read())
        return document_to_result(data, source=self.path)

    def list_results(self) -> List[StoredResult]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.loads(handle.read())
        except (OSError, ValueError):
            return []
        if not isinstance(data, dict) or "kind" not in data:
            return []
        return [
            StoredResult(
                run=self.path,
                kind=str(data.get("kind")),
                created_ts=os.path.getmtime(self.path),
                digest=str(data.get("digest", "")),
            )
        ]


# ======================================================================
# Sqlite backend.
# ======================================================================
_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    n_tasks     INTEGER NOT NULL,
    created_ts  REAL NOT NULL,
    UNIQUE (name, fingerprint, n_tasks)
);
CREATE TABLE IF NOT EXISTS tasks (
    campaign_id INTEGER NOT NULL
        REFERENCES campaigns(id) ON DELETE CASCADE,
    idx         INTEGER NOT NULL,
    record      TEXT NOT NULL,
    digest      TEXT,
    PRIMARY KEY (campaign_id, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS task_failures (
    campaign_id INTEGER NOT NULL
        REFERENCES campaigns(id) ON DELETE CASCADE,
    idx         INTEGER NOT NULL,
    kind        TEXT NOT NULL,
    error       TEXT NOT NULL,
    attempts    INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS events (
    id          INTEGER PRIMARY KEY,
    campaign_id INTEGER
        REFERENCES campaigns(id) ON DELETE CASCADE,
    ts          REAL NOT NULL,
    event       TEXT NOT NULL,
    payload     TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    run         TEXT PRIMARY KEY,
    kind        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    digest      TEXT NOT NULL,
    created_ts  REAL NOT NULL,
    meta        TEXT
);
"""


class SqliteResultStore(ResultStore):
    """Normalized sqlite results database in WAL mode.

    One file holds any number of campaigns (checkpoint records keyed
    by campaign identity) and any number of saved results (keyed by
    run name).  Checkpoint records stream in per-flush transactions:
    every record's bytes hit the database exactly once, so large
    campaigns do not pay the quadratic rewrite cost of the JSON
    document, and resume only reads the completed index set into
    memory.
    """

    backend = "sqlite"

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._conn: Optional[sqlite3.Connection] = None
        self._campaign_id: Optional[int] = None
        self._campaign: Optional[Tuple[str, str, int]] = None
        self._completed: Set[int] = set()
        #: staged records: index -> (json text, digest, failure row)
        self._pending: Dict[
            int, Tuple[str, Optional[str], Optional[Tuple]]
        ] = {}
        self._pending_events: List[Tuple[float, str, str]] = []

    # -- connection -----------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=30.0)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA foreign_keys=ON")
                # the connect timeout above only guards the python
                # layer; an explicit busy_timeout makes sqlite itself
                # wait out writer contention instead of surfacing
                # SQLITE_BUSY immediately (concurrent campaigns share
                # one results database under the service daemon)
                conn.execute("PRAGMA busy_timeout=30000")
                conn.executescript(_SCHEMA)
                conn.commit()
            except sqlite3.Error as exc:
                # close the half-open handle before surfacing a clean
                # one-line error (a hot WAL journal must not linger)
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
                raise CampaignError(
                    f"{self.path}: not a usable sqlite results "
                    f"database ({exc})"
                ) from exc
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            try:
                self.flush()
            except (sqlite3.Error, CampaignError):
                pass
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- checkpoint side ------------------------------------------------
    def open_campaign(
        self,
        campaign: str,
        fingerprint: str,
        n_tasks: int,
        policy: str = "repair",
        on_violation: Optional[_VIOLATION_CALLBACK] = None,
    ) -> int:
        key = (campaign, fingerprint, n_tasks)
        if self._campaign == key:
            return 0  # already verified in this store instance
        conn = self.connection
        self._campaign = key
        self._pending = {}
        row = conn.execute(
            "SELECT id FROM campaigns "
            "WHERE name = ? AND fingerprint = ? AND n_tasks = ?",
            (campaign, fingerprint, n_tasks),
        ).fetchone()
        if row is None:
            cursor = conn.execute(
                "INSERT INTO campaigns "
                "(name, fingerprint, n_tasks, created_ts) "
                "VALUES (?, ?, ?, ?)",
                (campaign, fingerprint, n_tasks, time.time()),
            )
            conn.commit()
            self._campaign_id = cursor.lastrowid
            self._completed = set()
            return 0
        self._campaign_id = row[0]
        rejects = 0
        completed: Set[int] = set()
        rejected: List[int] = []
        for idx, record_text, digest in conn.execute(
            "SELECT idx, record, digest FROM tasks "
            "WHERE campaign_id = ? ORDER BY idx",
            (self._campaign_id,),
        ):
            if not 0 <= idx < n_tasks:
                rejected.append(idx)
                continue
            if policy != "off" and digest is not None:
                try:
                    record = json.loads(record_text)
                except ValueError:
                    record = None
                try:
                    kept = _verify_record(
                        campaign, idx, record, digest, policy,
                        on_violation, self.path,
                    )
                except IntegrityError:
                    # strict abort: leave the store unbound
                    self._campaign = None
                    self._campaign_id = None
                    self._completed = set()
                    raise
                if not kept:
                    rejects += 1
                    rejected.append(idx)
                    continue
            completed.add(idx)
        if rejected:
            conn.executemany(
                "DELETE FROM tasks WHERE campaign_id = ? AND idx = ?",
                [(self._campaign_id, idx) for idx in rejected],
            )
            conn.executemany(
                "DELETE FROM task_failures "
                "WHERE campaign_id = ? AND idx = ?",
                [(self._campaign_id, idx) for idx in rejected],
            )
            conn.commit()
        self._completed = completed
        return rejects

    def _require_campaign(self) -> int:
        if self._campaign_id is None:
            raise CampaignError(
                "no campaign bound; call open_campaign() first"
            )
        return self._campaign_id

    def completed_indices(self) -> Set[int]:
        self._require_campaign()
        return set(self._completed)

    def get_record(self, index: int) -> Any:
        campaign_id = self._require_campaign()
        staged = self._pending.get(index)
        if staged is not None:
            return json.loads(staged[0])
        row = self.connection.execute(
            "SELECT record FROM tasks WHERE campaign_id = ? AND idx = ?",
            (campaign_id, index),
        ).fetchone()
        if row is None:
            raise CampaignError(
                f"no stored record for task {index} in {self.path}"
            )
        return json.loads(row[0])

    def put_record(
        self, index: int, record: Any, digest: Optional[str] = None
    ) -> None:
        self._require_campaign()
        text = json.dumps(record, separators=(",", ":"))
        resolved = digest if digest is not None else _digest_or_none(record)
        failure: Optional[Tuple] = None
        if isinstance(record, dict) and record.get(_FAILURE_MARKER) == 1:
            failure = (
                str(record.get("kind", "")),
                str(record.get("error", "")),
                int(record.get("attempts", 0)),
            )
        self._pending[index] = (text, resolved, failure)
        self._completed.add(index)

    def flush(self) -> bool:
        if not self._pending and not self._pending_events:
            self.stats.skipped_flushes += 1
            return False
        conn = self.connection
        campaign_id = self._campaign_id
        pending = self._pending
        events = self._pending_events
        self._pending = {}
        self._pending_events = []
        try:
            written = self._flush_with_busy_retry(
                conn, campaign_id, pending, events
            )
        except BaseException:
            # whatever interrupted the flush (SQLITE_BUSY exhaustion,
            # KeyboardInterrupt during drain, an I/O error): the
            # staged records are not lost — they re-enter the next
            # flush, behind anything staged meanwhile
            self._restage(pending, events)
            raise
        self.stats.flushes += 1
        self.stats.records_written += len(pending)
        self.stats.bytes_written += written
        return True

    def _restage(
        self,
        pending: Dict[int, Tuple[str, Optional[str], Optional[Tuple]]],
        events: List[Tuple[float, str, str]],
    ) -> None:
        for idx, row in pending.items():
            self._pending.setdefault(idx, row)
        self._pending_events[:0] = events

    def _flush_with_busy_retry(
        self,
        conn: sqlite3.Connection,
        campaign_id: Optional[int],
        pending: Dict[int, Tuple[str, Optional[str], Optional[Tuple]]],
        events: List[Tuple[float, str, str]],
    ) -> int:
        """One flush transaction, retried through ``SQLITE_BUSY``.

        ``busy_timeout`` already makes sqlite wait out short writer
        contention; this bounded retry covers the residual cases that
        still surface as ``database is locked`` (a writer holding the
        lock past the timeout, lock escalation races), so concurrent
        campaigns sharing one database degrade to a delay, not a
        crash.
        """
        for attempt in range(1, _BUSY_RETRIES + 1):
            try:
                return self._flush_transaction(
                    conn, campaign_id, pending, events
                )
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                try:
                    conn.rollback()
                except sqlite3.Error:
                    pass
                if attempt == _BUSY_RETRIES:
                    raise CampaignError(
                        f"{self.path}: flush still SQLITE_BUSY after "
                        f"{_BUSY_RETRIES} attempts ({exc})"
                    ) from exc
                self.stats.busy_retries += 1
                time.sleep(_BUSY_BACKOFF_S * (2 ** (attempt - 1)))
        raise AssertionError("unreachable")  # pragma: no cover

    def _flush_transaction(
        self,
        conn: sqlite3.Connection,
        campaign_id: Optional[int],
        pending: Dict[int, Tuple[str, Optional[str], Optional[Tuple]]],
        events: List[Tuple[float, str, str]],
    ) -> int:
        written = 0
        if pending:
            if campaign_id is None:  # pragma: no cover - guarded by put
                raise CampaignError("no campaign bound for staged records")
            conn.executemany(
                "INSERT OR REPLACE INTO tasks "
                "(campaign_id, idx, record, digest) VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, idx, text, digest)
                    for idx, (text, digest, _) in pending.items()
                ],
            )
            # quarantined tasks are mirrored into the normalized
            # failures table; a later successful record (repair,
            # re-execution) clears the failure row again
            conn.executemany(
                "DELETE FROM task_failures "
                "WHERE campaign_id = ? AND idx = ?",
                [(campaign_id, idx) for idx in pending],
            )
            failure_rows = [
                (campaign_id, idx) + failure
                for idx, (_, _, failure) in pending.items()
                if failure is not None
            ]
            if failure_rows:
                conn.executemany(
                    "INSERT OR REPLACE INTO task_failures "
                    "(campaign_id, idx, kind, error, attempts) "
                    "VALUES (?, ?, ?, ?, ?)",
                    failure_rows,
                )
            written = sum(
                len(text) + len(digest or "")
                for text, digest, _ in pending.values()
            )
        if events:
            conn.executemany(
                "INSERT INTO events (campaign_id, ts, event, payload) "
                "VALUES (?, ?, ?, ?)",
                [
                    (campaign_id, ts, event, payload)
                    for ts, event, payload in events
                ],
            )
        if self._chaos.fires("kill_flush"):
            os._exit(137)  # die after the inserts, before the commit
        conn.commit()
        return written

    def discard_campaign(self, campaign: str) -> None:
        conn = self.connection
        conn.execute("DELETE FROM campaigns WHERE name = ?", (campaign,))
        conn.commit()
        if self._campaign is not None and self._campaign[0] == campaign:
            self._campaign = None
            self._campaign_id = None
            self._completed = set()
            self._pending = {}

    def list_campaigns(self) -> List[StoredCampaign]:
        conn = self.connection
        rows = conn.execute(
            "SELECT c.id, c.name, c.fingerprint, c.n_tasks, "
            "       (SELECT COUNT(*) FROM tasks t "
            "        WHERE t.campaign_id = c.id), "
            "       (SELECT COUNT(*) FROM task_failures f "
            "        WHERE f.campaign_id = c.id) "
            "FROM campaigns c ORDER BY c.created_ts",
        ).fetchall()
        return [
            StoredCampaign(
                campaign=name,
                fingerprint=fingerprint,
                n_tasks=n_tasks,
                completed=completed,
                failures=failures,
            )
            for _, name, fingerprint, n_tasks, completed, failures in rows
        ]

    # -- events -----------------------------------------------------------
    def log_event(self, record: Dict[str, Any]) -> None:
        fields = {
            k: v for k, v in record.items()
            if k not in ("ts", "campaign", "event")
        }
        self._pending_events.append(
            (
                float(record.get("ts", time.time())),
                str(record.get("event", "")),
                json.dumps(fields, separators=(",", ":"), default=str),
            )
        )

    def events(self, campaign: Optional[str] = None) -> Iterator[Dict]:
        """Stored run events, oldest first."""
        conn = self.connection
        query = (
            "SELECT c.name, e.ts, e.event, e.payload "
            "FROM events e LEFT JOIN campaigns c ON c.id = e.campaign_id"
        )
        args: Tuple = ()
        if campaign is not None:
            query += " WHERE c.name = ?"
            args = (campaign,)
        query += " ORDER BY e.id"
        for name, ts, event, payload in conn.execute(query, args):
            record = {"ts": ts, "campaign": name, "event": event}
            record.update(json.loads(payload))
            yield record

    # -- checkpoint migration -------------------------------------------
    def import_checkpoint(self, path: str) -> StoredCampaign:
        """Import a legacy JSON checkpoint file, losslessly.

        The document's records and their **original** digests are
        preserved verbatim, so exporting the campaign again
        (:meth:`checkpoint_document`) reproduces the source document.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("results"), dict)
            or "campaign" not in payload
        ):
            raise CampaignError(
                f"{path} is not a campaign checkpoint document"
            )
        campaign = str(payload["campaign"])
        fingerprint = str(payload.get("fingerprint", ""))
        n_tasks = int(payload.get("n_tasks", 0))
        digests = payload.get("digests")
        if not isinstance(digests, dict):
            digests = {}
        self.open_campaign(campaign, fingerprint, n_tasks, policy="off")
        count = 0
        for index, record in payload["results"].items():
            i = int(index)
            self.put_record(i, record, digest=digests.get(index))
            count += 1
        self.flush()
        return StoredCampaign(
            campaign=campaign,
            fingerprint=fingerprint,
            n_tasks=n_tasks,
            completed=count,
            failures=sum(
                1
                for record in payload["results"].values()
                if isinstance(record, dict)
                and record.get(_FAILURE_MARKER) == 1
            ),
        )

    def checkpoint_document(self, campaign: str) -> Dict[str, Any]:
        """Export one campaign back into the JSON checkpoint format."""
        conn = self.connection
        row = conn.execute(
            "SELECT id, fingerprint, n_tasks FROM campaigns "
            "WHERE name = ? ORDER BY created_ts DESC LIMIT 1",
            (campaign,),
        ).fetchone()
        if row is None:
            raise CampaignError(
                f"no campaign {campaign!r} in {self.path}"
            )
        campaign_id, fingerprint, n_tasks = row
        results: Dict[str, Any] = {}
        digests: Dict[str, str] = {}
        for idx, record_text, digest in conn.execute(
            "SELECT idx, record, digest FROM tasks "
            "WHERE campaign_id = ? ORDER BY idx",
            (campaign_id,),
        ):
            results[str(idx)] = json.loads(record_text)
            if digest is not None:
                digests[str(idx)] = digest
        return {
            "campaign": campaign,
            "fingerprint": fingerprint,
            "n_tasks": n_tasks,
            "results": results,
            "digests": digests,
        }

    # -- result side ----------------------------------------------------
    def save_result(
        self,
        result: Any,
        run: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        from repro.fi.serialization import result_to_document

        if run is None:
            raise CampaignError(
                "the sqlite store needs a run name to save a result"
            )
        data = result_to_document(result)
        payload = json.dumps(data, separators=(",", ":"))
        conn = self.connection
        conn.execute(
            "INSERT OR REPLACE INTO results "
            "(run, kind, payload, digest, created_ts, meta) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                run,
                data.get("kind", ""),
                payload,
                data.get("digest", ""),
                time.time(),
                json.dumps(meta or {}, separators=(",", ":"), default=str),
            ),
        )
        conn.commit()
        self.stats.flushes += 1
        self.stats.bytes_written += len(payload)
        return run

    def load_result(self, run: Optional[str] = None) -> Any:
        from repro.fi.serialization import document_to_result

        if run is None:
            raise CampaignError(
                "the sqlite store needs a run name to load a result"
            )
        row = self.connection.execute(
            "SELECT payload FROM results WHERE run = ?", (run,)
        ).fetchone()
        if row is None:
            known = ", ".join(
                sorted(entry.run for entry in self.list_results())
            )
            raise CampaignError(
                f"no result {run!r} in {self.path}"
                + (f" (known runs: {known})" if known else "")
            )
        return document_to_result(
            json.loads(row[0]), source=f"{self.path}:{run}"
        )

    def result_meta(self, run: str) -> Dict[str, Any]:
        """The metadata saved beside one result."""
        row = self.connection.execute(
            "SELECT meta FROM results WHERE run = ?", (run,)
        ).fetchone()
        if row is None or not row[0]:
            return {}
        return json.loads(row[0])

    def list_results(self) -> List[StoredResult]:
        rows = self.connection.execute(
            "SELECT run, kind, created_ts, digest, meta "
            "FROM results ORDER BY created_ts",
        ).fetchall()
        return [
            StoredResult(
                run=run,
                kind=kind,
                created_ts=created_ts,
                digest=digest,
                meta=json.loads(meta) if meta else {},
            )
            for run, kind, created_ts, digest, meta in rows
        ]
