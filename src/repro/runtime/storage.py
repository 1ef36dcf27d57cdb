"""Pluggable storage backends for the persistent witness cache.

:class:`~repro.runtime.persist.PersistentWitnessCache` used to *be* its
storage: an append-only JSONL file, growing without bound, with concurrent
writer processes explicitly outside the contract.  This module splits the
byte-shuffling out behind a small backend protocol so the cache becomes a
pure decode/memo/seed layer and deployments pick the store that fits:

* :class:`JsonlWitnessStore` — the original plain-text format, now with
  **compaction** (offline via :meth:`~WitnessStore.compact` or the
  ``tools/compact_cache.py`` CLI, online via record-count/size triggers)
  that rewrites the file to the last record per ``(query, schema, access)``
  key.  Single writer process; human-greppable artifact.
* :class:`SqliteWitnessStore` — one row per key (``INSERT OR REPLACE``) in
  WAL mode with busy-timeout + retry, safe for **N concurrent server
  processes** sharing one store file.  A ``meta`` generation counter bumps
  once per transaction that writes, so readers detect foreign writes
  cheaply.

Shared semantics every backend provides:

* ``append(payload)`` deduplicates against the **currently stored** record
  for the payload's key (by :func:`~repro.runtime.serialize.record_digest`),
  so re-recording the same witness on every warm run never grows the store —
  and an A→B→A witness churn correctly re-lands A as the live record.
  ``append_many(payloads)`` writes a batch with the same per-record
  semantics, in order, and returns the written count; SQLite commits the
  whole batch as one transaction.
* ``load_pair`` / ``load_all`` return raw payload dictionaries; decoding
  (and therefore *trust* — loaded paths are always revalidated) stays in the
  cache layer.  Records of a newer :data:`~repro.runtime.serialize.RECORD_VERSION`
  are preserved opaquely by compaction and skipped only at decode time.
* ``generation()`` returns a cheap token that changes whenever the store's
  content may have changed (including writes by *other* processes); the
  cache layer compares tokens to invalidate its per-pair memo.
* Corruption never raises out of a read: truncated JSONL tail lines, foreign
  garbage, or a corrupt SQLite file degrade to skipped/empty results counted
  under ``skipped_undecodable``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.runtime.serialize import record_digest

__all__ = [
    "CompactionResult",
    "JsonlWitnessStore",
    "SqliteWitnessStore",
    "WitnessStore",
    "open_witness_store",
]

#: File suffixes that ``backend="auto"`` maps to the SQLite backend.
_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")
#: Magic prefix of every SQLite database file.
_SQLITE_MAGIC = b"SQLite format 3"


@dataclass(frozen=True)
class CompactionResult:
    """What one :meth:`WitnessStore.compact` call accomplished."""

    backend: str
    records_before: int
    records_after: int
    bytes_before: int
    bytes_after: int


def _payload_key(payload: dict) -> Tuple[str, str, str]:
    """The (query token, schema token, access token) identity of a record."""
    return (str(payload["query"]), str(payload["schema"]), str(payload["access"]))


class WitnessStore:
    """Backend protocol for persisted witness records.

    Payloads are the JSON-ready dictionaries of
    :func:`~repro.runtime.serialize.encode_witness_record`; the store treats
    them as opaque rows keyed by ``(query, schema, access)`` tokens and never
    interprets the witness content itself.
    """

    #: Short backend name used in metrics/span tags (``jsonl`` / ``sqlite``).
    backend: str = "abstract"

    def load_pair(self, qtoken: str, stoken: str) -> Dict[str, dict]:
        """The live payloads for one (query, schema) pair, by access token."""
        raise NotImplementedError

    def load_all(self) -> Dict[Tuple[str, str], Dict[str, dict]]:
        """Every live payload, grouped by (query token, schema token)."""
        raise NotImplementedError

    def append(self, payload: dict) -> bool:
        """Store one record; False if it matched the currently stored one."""
        raise NotImplementedError

    def append_many(self, payloads: Iterable[dict]) -> int:
        """Store records in order, each as :meth:`append` would; the count written."""
        return sum(1 for payload in payloads if self.append(payload))

    def compact(self) -> CompactionResult:
        """Reclaim dead space; the live record set is unchanged."""
        raise NotImplementedError

    def generation(self) -> Hashable:
        """A token that differs whenever stored content may have changed."""
        raise NotImplementedError

    def stats(self) -> Dict[str, object]:
        """Operational counters (appends, dedup skips, compactions, ...)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "WitnessStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class JsonlWitnessStore(WitnessStore):
    """Append-only JSONL storage with last-record-per-key compaction.

    The on-disk format is unchanged from the pre-refactor cache — one JSON
    object per line, last record per key wins — so existing cache files load
    as-is.  New abilities:

    * **Tail refresh.**  The file is re-read incrementally from the last
      consumed byte offset, so records appended after construction (e.g. by
      an earlier oracle in the same process, or a compaction CLI between
      runs) are visible without a full reload.  A file that *shrank*
      (external compaction) triggers a full reload.
    * **Online compaction.**  When ``auto_compact`` is on and the file holds
      at least ``compact_min_records`` lines with more than
      ``compact_ratio`` lines per live record — or exceeds
      ``compact_max_bytes`` — an append triggers an in-place rewrite keeping
      only the last record per key (atomic: tmp file + fsync + rename).

    One writer process at a time; for concurrent writers use
    :class:`SqliteWitnessStore`.
    """

    backend = "jsonl"

    def __init__(
        self,
        path: str,
        *,
        auto_compact: bool = True,
        compact_min_records: int = 256,
        compact_ratio: float = 4.0,
        compact_max_bytes: Optional[int] = None,
    ) -> None:
        self._path = os.fspath(path)
        self._lock = threading.RLock()
        self._auto_compact = auto_compact
        self._compact_min_records = int(compact_min_records)
        self._compact_ratio = float(compact_ratio)
        self._compact_max_bytes = compact_max_bytes
        #: (query token, schema token) -> {access token: (digest, payload)}
        self._records: Dict[Tuple[str, str], Dict[str, Tuple[str, dict]]] = {}
        self._offset = 0  # bytes of the file already consumed
        self._line_count = 0  # total stored lines, live or superseded
        self._live_count = 0
        self._needs_newline = False  # file ends mid-line (truncated tail)
        self._loaded = False
        self._counters: Dict[str, int] = {
            "appends": 0,
            "dedup_skips": 0,
            "compactions": 0,
            "reloads": 0,
            "skipped_undecodable": 0,
        }

    @property
    def path(self) -> str:
        return self._path

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _refresh(self) -> None:
        """Consume any file bytes not yet reflected in memory (lock held)."""
        try:
            size = os.stat(self._path).st_size
        except OSError:
            size = 0
        if size < self._offset:
            # The file shrank under us: an external compaction or an
            # operator reset.  Drop everything and reload from scratch.
            self._records = {}
            self._offset = 0
            self._line_count = 0
            self._live_count = 0
            self._needs_newline = False
            self._counters["reloads"] += 1
        if size == self._offset and self._loaded:
            return
        if os.path.exists(self._path):
            with open(self._path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
            self._offset += len(data)
            self._needs_newline = bool(data) and not data.endswith(b"\n")
            for raw in data.split(b"\n"):
                if not raw.strip():
                    continue
                self._line_count += 1
                try:
                    payload = json.loads(raw.decode("utf-8"))
                    key3 = _payload_key(payload)
                except Exception:
                    # Truncated tail (interrupted append) or foreign bytes:
                    # skip the line, never fail the load.
                    self._counters["skipped_undecodable"] += 1
                    continue
                pair = self._records.setdefault((key3[0], key3[1]), {})
                if key3[2] not in pair:
                    self._live_count += 1
                pair[key3[2]] = (record_digest(payload), payload)
        self._loaded = True

    def load_pair(self, qtoken: str, stoken: str) -> Dict[str, dict]:
        with self._lock:
            self._refresh()
            scoped = self._records.get((qtoken, stoken), {})
            return {atoken: payload for atoken, (_d, payload) in scoped.items()}

    def load_all(self) -> Dict[Tuple[str, str], Dict[str, dict]]:
        with self._lock:
            self._refresh()
            return {
                key: {atoken: payload for atoken, (_d, payload) in pair.items()}
                for key, pair in self._records.items()
            }

    def generation(self) -> Hashable:
        try:
            stat = os.stat(self._path)
        except OSError:
            return ("jsonl", -1, -1)
        return ("jsonl", stat.st_size, stat.st_mtime_ns)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, payload: dict) -> bool:
        key3 = _payload_key(payload)
        digest = record_digest(payload)
        with self._lock:
            self._refresh()
            pair = self._records.setdefault((key3[0], key3[1]), {})
            stored = pair.get(key3[2])
            if stored is not None and stored[0] == digest:
                self._counters["dedup_skips"] += 1
                return False
            line = json.dumps(payload, sort_keys=True).encode("utf-8")
            prefix = b"\n" if self._needs_newline else b""
            with open(self._path, "ab") as handle:
                handle.write(prefix + line + b"\n")
            self._offset += len(prefix) + len(line) + 1
            self._needs_newline = False
            self._line_count += 1
            if stored is None:
                self._live_count += 1
            pair[key3[2]] = (digest, payload)
            self._counters["appends"] += 1
            if self._auto_compact and self._should_compact():
                self._compact_locked()
            return True

    def _should_compact(self) -> bool:
        if self._line_count >= max(self._compact_min_records, 1):
            live = max(self._live_count, 1)
            if self._line_count / live > self._compact_ratio:
                return True
        if self._compact_max_bytes is not None:
            try:
                if os.stat(self._path).st_size > self._compact_max_bytes:
                    return self._line_count > self._live_count
            except OSError:
                pass
        return False

    def compact(self) -> CompactionResult:
        """Rewrite the file to the last record per key (atomic replace)."""
        with self._lock:
            self._refresh()
            return self._compact_locked()

    def _compact_locked(self) -> CompactionResult:
        try:
            bytes_before = os.stat(self._path).st_size
        except OSError:
            bytes_before = 0
        records_before = self._line_count
        tmp_path = self._path + ".compact.tmp"
        size = 0
        with open(tmp_path, "wb") as handle:
            for pair in self._records.values():
                for _digest, payload in pair.values():
                    line = json.dumps(payload, sort_keys=True).encode("utf-8")
                    handle.write(line + b"\n")
                    size += len(line) + 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self._path)
        self._offset = size
        self._line_count = self._live_count
        self._needs_newline = False
        self._counters["compactions"] += 1
        return CompactionResult(
            backend=self.backend,
            records_before=records_before,
            records_after=self._live_count,
            bytes_before=bytes_before,
            bytes_after=size,
        )

    def stats(self) -> Dict[str, object]:
        with self._lock:
            self._refresh()
            try:
                size = os.stat(self._path).st_size
            except OSError:
                size = 0
            merged: Dict[str, object] = dict(self._counters)
            merged["backend"] = self.backend
            merged["records"] = self._live_count
            merged["stored_lines"] = self._line_count
            merged["bytes"] = size
            return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JsonlWitnessStore({self._path!r})"


class SqliteWitnessStore(WitnessStore):
    """SQLite storage: one row per key, safe for concurrent processes.

    * **WAL mode** (readers never block the writer, writers never block
      readers) with ``synchronous=NORMAL`` — a crash can lose the last
      transactions but never corrupts the store, and a lost witness record
      only costs a future fresh search.
    * **Upsert per key** (``INSERT OR REPLACE``), so the store is always
      compact: at most one row per ``(query, schema, access)``.
    * **Busy-timeout + retry.**  Every statement runs under SQLite's busy
      timeout, and lock/busy errors are retried with exponential backoff, so
      N server processes hammering one store degrade to queueing, not
      exceptions.
    * **One transaction per batch.**  :meth:`append_many` checks, upserts
      and counts a whole batch in one transaction; :meth:`append` is a
      one-record batch.  A crash loses at most the batch in flight.
    * **Generation counter.**  A ``meta`` row increments once per
      transaction that writes at least one row, *in that transaction*,
      giving readers in other processes a single-integer change detector.
    * **Corruption tolerance.**  A file that is not a database (or a
      hopelessly corrupt one) marks the store broken: reads return empty,
      writes no-op, ``skipped_undecodable`` counts the failures — callers
      never see an exception from a bad store file.
    """

    backend = "sqlite"

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS witnesses (
        query   TEXT NOT NULL,
        schema  TEXT NOT NULL,
        access  TEXT NOT NULL,
        digest  TEXT NOT NULL,
        payload TEXT NOT NULL,
        PRIMARY KEY (query, schema, access)
    );
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value INTEGER NOT NULL
    );
    INSERT OR IGNORE INTO meta (key, value) VALUES ('generation', 0);
    """

    def __init__(
        self,
        path: str,
        *,
        busy_timeout: float = 5.0,
        max_retries: int = 6,
    ) -> None:
        self._path = os.fspath(path)
        self._lock = threading.RLock()
        self._busy_timeout = float(busy_timeout)
        self._max_retries = int(max_retries)
        self._conn: Optional[sqlite3.Connection] = None
        self._broken = False
        self._counters: Dict[str, int] = {
            "appends": 0,
            "dedup_skips": 0,
            "compactions": 0,
            "reloads": 0,
            "skipped_undecodable": 0,
            "retries": 0,
        }

    @property
    def path(self) -> str:
        return self._path

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def _connect(self) -> Optional[sqlite3.Connection]:
        """Open (once) and configure the connection; None if broken."""
        if self._broken:
            return None
        if self._conn is not None:
            return self._conn
        try:
            conn = sqlite3.connect(
                self._path,
                timeout=self._busy_timeout,
                check_same_thread=False,
            )
            conn.execute(f"PRAGMA busy_timeout = {int(self._busy_timeout * 1000)}")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.executescript(self._SCHEMA)
            conn.commit()
        except sqlite3.DatabaseError:
            # Not a database / unrecoverably corrupt: degrade, never raise.
            self._broken = True
            self._counters["skipped_undecodable"] += 1
            return None
        self._conn = conn
        return conn

    def _run(self, action, default):
        """Run ``action(conn)`` with lock/busy retry; ``default`` on failure."""
        with self._lock:
            delay = 0.01
            for attempt in range(self._max_retries + 1):
                conn = self._connect()
                if conn is None:
                    return default
                try:
                    return action(conn)
                except sqlite3.OperationalError as exc:
                    message = str(exc).lower()
                    transient = "locked" in message or "busy" in message
                    if not transient or attempt == self._max_retries:
                        # Persistent contention: surface as a skipped
                        # operation, not an exception — callers treat the
                        # store as best-effort.
                        self._counters["skipped_undecodable"] += 1
                        return default
                    self._counters["retries"] += 1
                    try:
                        conn.rollback()
                    except sqlite3.Error:
                        pass
                    time.sleep(delay)
                    delay = min(delay * 2, 0.25)
                except sqlite3.DatabaseError:
                    self._broken = True
                    self._counters["skipped_undecodable"] += 1
                    self.close()
                    return default
            return default

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _decode_rows(self, rows, grouped: bool):
        if grouped:
            out: Dict[Tuple[str, str], Dict[str, dict]] = {}
            for qtoken, stoken, atoken, payload_text in rows:
                try:
                    payload = json.loads(payload_text)
                except Exception:
                    self._counters["skipped_undecodable"] += 1
                    continue
                out.setdefault((qtoken, stoken), {})[atoken] = payload
            return out
        flat: Dict[str, dict] = {}
        for atoken, payload_text in rows:
            try:
                flat[atoken] = json.loads(payload_text)
            except Exception:
                self._counters["skipped_undecodable"] += 1
        return flat

    def load_pair(self, qtoken: str, stoken: str) -> Dict[str, dict]:
        def action(conn):
            rows = conn.execute(
                "SELECT access, payload FROM witnesses"
                " WHERE query = ? AND schema = ?",
                (qtoken, stoken),
            ).fetchall()
            return self._decode_rows(rows, grouped=False)

        return self._run(action, {})

    def load_all(self) -> Dict[Tuple[str, str], Dict[str, dict]]:
        def action(conn):
            rows = conn.execute(
                "SELECT query, schema, access, payload FROM witnesses"
            ).fetchall()
            return self._decode_rows(rows, grouped=True)

        return self._run(action, {})

    def generation(self) -> Hashable:
        def action(conn):
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'generation'"
            ).fetchone()
            return ("sqlite", int(row[0]) if row else 0)

        return self._run(action, ("sqlite", -1))

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def append(self, payload: dict) -> bool:
        return self.append_many((payload,)) == 1

    def append_many(self, payloads: Iterable[dict]) -> int:
        rows = [
            _payload_key(payload)
            + (record_digest(payload), json.dumps(payload, sort_keys=True))
            for payload in payloads
        ]
        if not rows:
            return 0

        def action(conn):
            written = 0
            with conn:  # one transaction: per-row read-check and upsert, one bump
                for row in rows:
                    stored = conn.execute(
                        "SELECT digest FROM witnesses"
                        " WHERE query = ? AND schema = ? AND access = ?",
                        row[:3],
                    ).fetchone()
                    if stored is not None and stored[0] == row[3]:
                        continue
                    conn.execute(
                        "INSERT OR REPLACE INTO witnesses"
                        " (query, schema, access, digest, payload)"
                        " VALUES (?, ?, ?, ?, ?)",
                        row,
                    )
                    written += 1
                if written:
                    conn.execute(
                        "UPDATE meta SET value = value + 1 WHERE key = 'generation'"
                    )
            self._counters["appends"] += written
            self._counters["dedup_skips"] += len(rows) - written
            return written

        return self._run(action, 0)

    def compact(self) -> CompactionResult:
        """Checkpoint the WAL and vacuum; the row set is already compact."""

        def action(conn):
            try:
                bytes_before = os.stat(self._path).st_size
            except OSError:
                bytes_before = 0
            records = conn.execute("SELECT COUNT(*) FROM witnesses").fetchone()[0]
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            # VACUUM cannot run inside a transaction; sqlite3 autocommit is
            # off only while a transaction is open, and none is here.
            conn.execute("VACUUM")
            try:
                bytes_after = os.stat(self._path).st_size
            except OSError:
                bytes_after = 0
            self._counters["compactions"] += 1
            return CompactionResult(
                backend=self.backend,
                records_before=records,
                records_after=records,
                bytes_before=bytes_before,
                bytes_after=bytes_after,
            )

        default = CompactionResult(self.backend, 0, 0, 0, 0)
        return self._run(action, default)

    def stats(self) -> Dict[str, object]:
        def action(conn):
            return conn.execute("SELECT COUNT(*) FROM witnesses").fetchone()[0]

        records = self._run(action, 0)
        try:
            size = os.stat(self._path).st_size
        except OSError:
            size = 0
        with self._lock:
            merged: Dict[str, object] = dict(self._counters)
        merged["backend"] = self.backend
        merged["records"] = records
        merged["bytes"] = size
        merged["broken"] = self._broken
        return merged

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover - defensive
                    pass
                self._conn = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqliteWitnessStore({self._path!r})"


def open_witness_store(path: str, backend: str = "auto", **options) -> WitnessStore:
    """Open a witness store, inferring the backend when asked.

    ``backend="auto"`` resolves to SQLite when the path carries a database
    suffix (``.sqlite`` / ``.sqlite3`` / ``.db``) or the file already exists
    and starts with the SQLite magic bytes; everything else is JSONL — so
    pre-refactor cache paths keep working unchanged.
    """
    path = os.fspath(path)
    resolved = backend
    if resolved == "auto":
        if path.lower().endswith(_SQLITE_SUFFIXES):
            resolved = "sqlite"
        else:
            resolved = "jsonl"
            try:
                with open(path, "rb") as handle:
                    if handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC:
                        resolved = "sqlite"
            except OSError:
                pass
    if resolved == "jsonl":
        return JsonlWitnessStore(path, **options)
    if resolved == "sqlite":
        return SqliteWitnessStore(path, **options)
    raise ValueError(
        f"unknown witness store backend {backend!r}"
        " (expected 'auto', 'jsonl', or 'sqlite')"
    )
