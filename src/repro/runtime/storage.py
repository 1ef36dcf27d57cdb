"""The SQLite witness store under the persistent witness cache.

:class:`~repro.runtime.persist.PersistentWitnessCache` decodes, memoizes
and seeds witness records; :class:`SqliteWitnessStore` keeps their bytes.
Its contract:

* ``append(payload)`` deduplicates against the **currently stored** record
  for the payload's key (by :func:`~repro.runtime.serialize.record_digest`),
  so re-recording the same witness on every warm run never grows the store —
  and an A→B→A witness churn correctly re-lands A as the live record.
  ``append_many(payloads)`` writes a batch with the same per-record
  semantics, in order, as one transaction, and returns the written count.
* ``load_pair`` / ``load_all`` return raw payload dictionaries; decoding
  (and therefore *trust* — loaded paths are always revalidated) stays in the
  cache layer.  Records of a newer :data:`~repro.runtime.serialize.RECORD_VERSION`
  are kept opaquely and skipped only at decode time.
* ``generation()`` returns a cheap token that changes whenever the store's
  content may have changed (including writes by *other* processes); the
  cache layer compares tokens to invalidate its per-pair memo.
* Corruption never raises out of a read: a row whose payload is not JSON,
  or a file that is not a database, degrades to skipped/empty results
  counted under ``skipped_undecodable``.

Witness caches written as JSONL by earlier versions are imported with
``tools/compact_cache.py migrate``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.exceptions import ReproError
from repro.runtime.serialize import record_digest

__all__ = ["CompactionResult", "SqliteWitnessStore"]

#: Seconds a statement waits on another process's lock before it fails.
_BUSY_TIMEOUT_S = 5.0
#: Retries of a statement that failed on a lock, with exponential backoff.
_MAX_RETRIES = 6
#: The oldest SQLite library with the upsert clause every flush runs.
_MIN_SQLITE = (3, 24, 0)


@dataclass(frozen=True)
class CompactionResult:
    """What one :meth:`SqliteWitnessStore.compact` call accomplished."""

    records: int
    bytes_before: int
    bytes_after: int


def _payload_key(payload: dict) -> Tuple[str, str, str]:
    """The (query token, schema token, access token) identity of a record."""
    return (str(payload["query"]), str(payload["schema"]), str(payload["access"]))


class SqliteWitnessStore:
    """SQLite storage: one row per key, safe for concurrent processes.

    * **WAL mode** (readers never block the writer, writers never block
      readers) with ``synchronous=NORMAL`` — a crash can lose the last
      transactions but never corrupts the store, and a lost witness record
      only costs a future fresh search.
    * **Upsert per key** (``INSERT ... ON CONFLICT DO UPDATE``, which
      leaves a row whose digest is unchanged alone), so the store is always
      compact: at most one row per ``(query, schema, access)``.  It needs
      SQLite 3.24 or newer: construction raises on an older library rather
      than let every flush fail as a skipped write.
    * **Busy-timeout + retry.**  Every statement runs under SQLite's busy
      timeout, and lock/busy errors are retried with exponential backoff, so
      N server processes hammering one store degrade to queueing, not
      exceptions.
    * **One transaction per batch.**  :meth:`append_many` upserts a whole
      batch with one statement in one transaction, rows in order, and
      counts the rows it changed; :meth:`append` is a one-record batch.  A
      crash loses at most the batch in flight.
    * **Generation counter.**  A ``meta`` row increments once per
      transaction that writes at least one row, *in that transaction*,
      giving readers in other processes a single-integer change detector.
    * **Corruption tolerance.**  A file that is not a database (or a
      hopelessly corrupt one) marks the store broken: reads return empty,
      writes no-op, ``skipped_undecodable`` counts the failures — callers
      never see an exception from a bad store file.
    """

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

    def __init__(self, path: str) -> None:
        if sqlite3.sqlite_version_info < _MIN_SQLITE:
            raise ReproError(
                "the witness store needs SQLite 3.24 or newer;"
                f" this Python links SQLite {sqlite3.sqlite_version}"
            )
        self._path = os.fspath(path)
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self._broken = False
        self._counters: Dict[str, int] = {
            "appends": 0,
            "dedup_skips": 0,
            "compactions": 0,
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
                timeout=_BUSY_TIMEOUT_S,
                check_same_thread=False,
            )
            conn.execute(f"PRAGMA busy_timeout = {int(_BUSY_TIMEOUT_S * 1000)}")
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
            for attempt in range(_MAX_RETRIES + 1):
                conn = self._connect()
                if conn is None:
                    return default
                try:
                    return action(conn)
                except sqlite3.OperationalError as exc:
                    message = str(exc).lower()
                    transient = "locked" in message or "busy" in message
                    if not transient or attempt == _MAX_RETRIES:
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
    def _decode_rows(self, rows) -> Dict[tuple, dict]:
        """``(key..., payload text)`` rows by key; rows that are not JSON skipped."""
        out: Dict[tuple, dict] = {}
        for row in rows:
            try:
                out[row[:-1]] = json.loads(row[-1])
            except Exception:
                self._counters["skipped_undecodable"] += 1
        return out

    def load_pair(self, qtoken: str, stoken: str) -> Dict[str, dict]:
        """The live payloads for one (query, schema) pair, by access token."""

        def action(conn):
            rows = conn.execute(
                "SELECT access, payload FROM witnesses"
                " WHERE query = ? AND schema = ?",
                (qtoken, stoken),
            )
            return {key[0]: payload for key, payload in self._decode_rows(rows).items()}

        return self._run(action, {})

    def load_all(self) -> Dict[Tuple[str, str], Dict[str, dict]]:
        """Every live payload, grouped by (query token, schema token)."""

        def action(conn):
            rows = conn.execute("SELECT query, schema, access, payload FROM witnesses")
            grouped: Dict[Tuple[str, str], Dict[str, dict]] = {}
            for (qtoken, stoken, atoken), payload in self._decode_rows(rows).items():
                grouped.setdefault((qtoken, stoken), {})[atoken] = payload
            return grouped

        return self._run(action, {})

    def generation(self) -> Hashable:
        """A token that differs whenever stored content may have changed."""

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
        """Store one record; False if it matched the currently stored one."""
        return self.append_many((payload,)) == 1

    def append_many(self, payloads: Iterable[dict]) -> int:
        """Store records in order, each as :meth:`append` would; the count written."""
        rows = [
            _payload_key(payload)
            + (record_digest(payload), json.dumps(payload, sort_keys=True))
            for payload in payloads
        ]
        if not rows:
            return 0

        def action(conn):
            with conn:  # one transaction: one upsert statement, one bump
                before = conn.total_changes
                conn.executemany(
                    "INSERT INTO witnesses (query, schema, access, digest, payload)"
                    " VALUES (?, ?, ?, ?, ?)"
                    " ON CONFLICT (query, schema, access) DO UPDATE"
                    " SET digest = excluded.digest, payload = excluded.payload"
                    " WHERE digest != excluded.digest",
                    rows,
                )
                # A row whose digest equals the stored one's changes nothing.
                written = conn.total_changes - before
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
            return CompactionResult(records, bytes_before, bytes_after)

        return self._run(action, CompactionResult(0, 0, 0))

    def stats(self) -> Dict[str, object]:
        """Operational counters plus the record count, file size and health.

        On a closed store the count is read through a connection that is
        closed again before returning.
        """

        def action(conn):
            return conn.execute("SELECT COUNT(*) FROM witnesses").fetchone()[0]

        with self._lock:
            was_open = self._conn is not None
            records = self._run(action, 0)
            if not was_open:
                self.close()
        try:
            size = os.stat(self._path).st_size
        except OSError:
            size = 0
        with self._lock:
            merged: Dict[str, object] = dict(self._counters)
        merged["backend"] = "sqlite"
        merged["records"] = records
        merged["bytes"] = size
        merged["broken"] = self._broken
        return merged

    def close(self) -> None:
        """Close the connection (idempotent); a later call reconnects."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover - defensive
                    pass
                self._conn = None

    def __enter__(self) -> "SqliteWitnessStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqliteWitnessStore({self._path!r})"
