"""A persistent (process-surviving) witness cache.

The incremental engine's biggest win — serving a long-term relevance verdict
by revalidating a stored witness path in O(|path|) — previously died with
the process: every restart paid the full search cost again before the
in-memory caches warmed up.  :class:`PersistentWitnessCache` writes captured
witness paths to a :class:`~repro.runtime.storage.SqliteWitnessStore` and
seeds them back into a :class:`~repro.runtime.cache.RelevanceOracle` — when
it is built, and again each time the query server reuses it — so a *warm
restart* revalidates instead of searching.

The cache is a thin layer: **encoding, decoding, memoization, seeding**.
Bytes live in the store, one SQLite file in WAL mode that N concurrent
server processes may share.  Design notes:

* **Keying.**  Records are keyed by the process-stable digests of
  :mod:`repro.runtime.serialize`: ``(query token, schema token, access
  token)``.  Python's builtin ``hash`` is salted per process, so none of the
  in-memory cache keys survive a restart — the digests do.  Each record also
  stamps the :func:`~repro.runtime.serialize.configuration_digest` of the
  configuration the witness was captured at, for observability (the path is
  revalidated at the *probe* configuration regardless, so a stale stamp
  costs nothing but a failed revalidation).
* **Batched writes.**  :meth:`record` only encodes a witness and buffers
  it; :meth:`flush` hands the buffer to the store in one
  :meth:`~repro.runtime.storage.SqliteWitnessStore.append_many` call (one
  transaction, one generation bump).  The answering round is the batch:
  the server and the guided strategy flush at the end of every round,
  :meth:`witnesses_for` flushes first (a cache reads its own writes), and
  :meth:`close` flushes last.  A crash loses at most the round in flight,
  which only costs the fresh searches that would have found it again.
* **Cross-process invalidation.**  The per-(query, schema) decode memo is
  tagged with the store's generation token and re-pulled when the token
  moves — a record landed by worker process A seeds worker B's next
  :meth:`witnesses_for` miss without B restarting.  A load rebuilds each
  distinct step of the pair's paths once, and a :meth:`seed` at the
  generation the oracle last seeded at reads nothing.
* **Soundness.**  A loaded witness is never *trusted*: seeding only hands
  the path to :meth:`~repro.runtime.witness.LtrWitness.revalidate`, which
  replays it step by step at the current configuration.  A corrupt, stale,
  or adversarial record can therefore cost a wasted revalidation, never a
  wrong verdict.  Revalidation checks a path, not which access it
  certifies, so a record whose path is empty or does not start with the
  access it is keyed by is skipped, as are records that no longer decode
  against the schema (or carry a newer
  :data:`~repro.runtime.serialize.RECORD_VERSION`); all are counted under
  ``skipped_undecodable``.
* **Value coverage.**  Only JSON-representable values (strings, numbers,
  booleans, ``None``, nested tuples) are persisted; a witness containing
  anything else is skipped and counted under ``skipped_unencodable``.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.data import AccessResponse
from repro.runtime.cache import access_key
from repro.runtime.serialize import (
    UnencodableValueError,
    configuration_digest,
    decode_witness_record,
    decode_witness_steps,
    encode_witness_record,
    encode_witness_steps,
    query_token,
    schema_token,
)
from repro.runtime.storage import CompactionResult, SqliteWitnessStore
from repro.runtime.witness import LtrWitness
from repro.schema import Access, Schema
from repro.tracing import stage

__all__ = ["PersistentWitnessCache"]

#: Store counters mirrored into ``persist.sqlite.*`` metric counters.
_MIRRORED_COUNTERS = ("appends", "dedup_skips", "compactions")


class PersistentWitnessCache:
    """Witness paths for LTR verdicts, surviving process restarts.

    One store may hold records for any number of (query, schema) pairs;
    loads and seeds are scoped to one pair.  The cache is safe to share
    across the oracles of one process (all mutation is lock-protected), and
    N concurrent processes may share the store file.

    Parameters
    ----------
    path:
        The SQLite store file to open, whatever its suffix (mutually
        exclusive with ``store``).
    store:
        An open :class:`~repro.runtime.storage.SqliteWitnessStore` to use
        instead of opening one from ``path``.
    metrics:
        An optional :class:`~repro.runtime.metrics.RuntimeMetrics`; when
        attached, the cache counts ``persist.recorded`` at each flush,
        mirrors the store's counters as ``persist.sqlite.appends`` /
        ``dedup_skips`` / ``compactions`` and gauges
        ``persist.sqlite.records`` / ``bytes``.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        store: Optional[SqliteWitnessStore] = None,
        metrics=None,
    ) -> None:
        if (path is None) == (store is None):
            raise ValueError("pass exactly one of path or store")
        self._store = store if store is not None else SqliteWitnessStore(path)
        self._metrics = metrics
        self._lock = threading.Lock()
        #: (query token, schema token) -> (store generation at decode time,
        #: decoded {access key: LtrWitness}).  Memoized because oracles seed
        #: at construction and a server constructs oracles per answer call —
        #: re-decoding every stored record per request would make warm
        #: restarts O(records) per query.  Invalidated when the generation
        #: token moves (a write by this or *any other* process).
        self._decoded: Dict[
            Tuple[str, str], Tuple[Hashable, Dict[Hashable, LtrWitness]]
        ] = {}
        #: Encoded records waiting for the next :meth:`flush`.
        self._pending: List[dict] = []
        #: The last (configuration fingerprint, configuration digest) pair:
        #: a round records many witnesses at one configuration.
        self._last_digest: Optional[Tuple[Hashable, str]] = None
        #: Store counter values already mirrored into metrics, and the
        #: store generation a seed mirrored them at (``None`` once a flush
        #: or compaction mirrored them).
        self._mirrored: Dict[str, int] = {}
        self._mirrored_at: Optional[Hashable] = None
        self._stats: Dict[str, int] = {
            "loaded": 0,
            "recorded": 0,
            "seeded": 0,
            "skipped_unencodable": 0,
            "skipped_undecodable": 0,
        }

    @property
    def path(self) -> str:
        """The store file backing the cache."""
        return self._store.path

    @property
    def store(self) -> SqliteWitnessStore:
        """The witness store."""
        return self._store

    def attach_metrics(self, metrics) -> None:
        """Adopt a metrics sink if none is attached yet (idempotent)."""
        with self._lock:
            if self._metrics is None:
                self._metrics = metrics

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def witnesses_for(self, query, schema: Schema) -> Dict[Hashable, LtrWitness]:
        """Decode the stored witnesses for one (query, schema) pair.

        Returns a mapping from the in-memory access key (``(method name,
        binding)`` — the key of the oracle's per-access records) to the decoded
        :class:`LtrWitness`.  Records whose payload no longer decodes
        against ``schema``, or whose path is empty or does not start with
        the keyed access, are skipped and counted.  Buffered records are
        flushed first, so the result includes this cache's own writes.  The
        returned dict is a **copy** — callers may mutate it freely without
        corrupting the memo shared by every later oracle.
        """
        _generation, decoded = self._load((query_token(query), schema_token(schema)), schema)
        return dict(decoded)

    def _load(
        self, key: Tuple[str, str], schema: Schema, since: Optional[Hashable] = None
    ) -> Tuple[Hashable, Dict[Hashable, LtrWitness]]:
        """``(store generation, decoded witnesses)`` for one pair.

        The dict is the memo itself, which callers must not mutate.  It is
        empty when the store still stands at generation ``since``.
        """
        # Decode under the lock: the class promises safety when shared
        # across the oracles of one process, and an unlocked memo store
        # could both lose a concurrent flush()'s invalidation and race the
        # stats counters.  Decoding is modest (it only runs when the store
        # generation moved), so holding the lock for it is fine.
        with self._lock:
            self._flush_locked()
            # Read the generation *before* the load: a write landing between
            # the two makes the memo look stale next call (a harmless
            # re-decode), never current-but-incomplete (a lost update).
            generation = self._store.generation()
            if generation == since:
                return generation, {}
            cached = self._decoded.get(key)
            if cached is not None and cached[0] == generation:
                return cached
            payloads = self._store.load_pair(*key)
            decoded: Dict[Hashable, LtrWitness] = {}
            # Paths of one pair share most of their steps: each distinct
            # step spec is rebuilt and validated once per load.
            steps_memo: Dict[bytes, AccessResponse] = {}
            for _atoken, payload in payloads.items():
                try:
                    _key, _atok, spec, step_specs = decode_witness_record(payload)
                    steps = decode_witness_steps(step_specs, schema, steps_memo)
                except Exception:
                    self._stats["skipped_undecodable"] += 1
                    continue
                method_name, binding = spec
                akey = (method_name, tuple(binding))
                probed = steps[0].access if steps else None
                # Revalidation checks the path, not which access it
                # certifies: a record must key its own probed access.
                if probed is None or access_key(probed) != akey:
                    self._stats["skipped_undecodable"] += 1
                    continue
                decoded[akey] = LtrWitness(steps)
            self._stats["loaded"] += len(decoded)
            # The decoded accesses reference *a* schema's method objects;
            # any equal schema works with them (all comparisons are by
            # value), so the memo is keyed by the structural tokens, not
            # object identity.
            self._decoded[key] = (generation, decoded)
            return generation, decoded

    def seed(
        self,
        tokens: Tuple[str, str],
        schema: Schema,
        take: Callable[[Hashable, LtrWitness], bool],
        since: Optional[Hashable] = None,
    ) -> Tuple[int, Hashable]:
        """Offer an oracle every stored witness of its (query, schema) pair.

        ``tokens`` is the ``(query token, schema token)`` pair of the
        seeding oracle, and ``take(access key, witness)`` its hook, which
        returns whether it took the witness.  The oracle takes one only
        into a per-access record that holds no witness (a live witness
        captured this run is fresher than a persisted one), or into a new
        record while its record LRU has room (seeding evicts nothing).  It
        marks the witness *persisted* there for the trace's provenance, and
        skips the witness that record last discarded: it already saw it
        fail.  ``since`` is the store generation the oracle last seeded at:
        while the store still stands there, nothing is offered (the oracle
        saw every record already).  Returns the number taken and the
        generation seeded at.
        """
        with stage("persist.seed") as span:
            generation, witnesses = self._load(tokens, schema, since)
            seeded = 0
            for akey, witness in witnesses.items():
                seeded += take(akey, witness)
            span.annotate(seeded=seeded)
        with self._lock:
            self._stats["seeded"] += seeded
            if generation != self._mirrored_at:
                self._sync_metrics(generation)
        return seeded, generation

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(
        self,
        tokens: Tuple[str, str],
        access: Access,
        witness: LtrWitness,
        configuration=None,
    ) -> bool:
        """Buffer one captured witness path for the next :meth:`flush`.

        ``tokens`` is the ``(query token, schema token)`` pair of the
        recording oracle, computed once for its life.  Returns True when the
        record is buffered, False when a value has no wire encoding (counted
        under ``skipped_unencodable``).  Whether the record is *written* is
        decided at flush time, against the record stored then.
        """
        with stage("persist.record", method=access.method.name):
            return self._record(tokens, access, witness, configuration)

    def _record(self, tokens, access, witness, configuration) -> bool:
        stamp = None
        if configuration is not None:
            fingerprint = configuration.fingerprint()
            last = self._last_digest
            if last is None or last[0] != fingerprint:
                last = self._last_digest = (
                    fingerprint,
                    configuration_digest(configuration),
                )
            stamp = last[1]
        qtoken, stoken = tokens
        try:
            payload = encode_witness_record(
                qtoken, stoken, access, encode_witness_steps(witness.steps), stamp
            )
        except UnencodableValueError:
            with self._lock:
                self._stats["skipped_unencodable"] += 1
            return False
        with self._lock:
            self._pending.append(payload)
        return True

    def flush(self) -> int:
        """Write the buffered records in one transaction; the count written.

        Each record is deduplicated against the record stored when it is
        written, in capture order, so a batch writes exactly what one
        :meth:`~repro.runtime.storage.SqliteWitnessStore.append` per record
        would.
        """
        with self._lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        with stage("persist.flush") as span:
            written = self._store.append_many(pending)
            if written:
                self._stats["recorded"] += written
                for payload in pending:
                    self._decoded.pop((payload["query"], payload["schema"]), None)
                if self._metrics is not None:
                    self._metrics.incr("persist.recorded", written)
            self._sync_metrics()
            span.annotate(records=len(pending), written=written)
        return written

    # ------------------------------------------------------------------ #
    # Maintenance and observability
    # ------------------------------------------------------------------ #
    def compact(self) -> CompactionResult:
        """Flush, then compact the store (see :meth:`SqliteWitnessStore.compact`)."""
        with self._lock:
            self._flush_locked()
            result = self._store.compact()
            self._decoded.clear()
            self._sync_metrics()
        return result

    @property
    def stats(self) -> Dict[str, object]:
        """Cache counters merged with the store's, as a plain dict.

        ``skipped_undecodable`` sums the cache's decode failures with the
        store's (rows that are not JSON, a file that is not a database);
        the raw store counters are nested under ``"store"``.
        """
        store_stats = self._store.stats()
        with self._lock:
            merged: Dict[str, object] = dict(self._stats)
        merged["skipped_undecodable"] = int(merged["skipped_undecodable"]) + int(
            store_stats.get("skipped_undecodable", 0)
        )
        merged["backend"] = store_stats["backend"]
        merged["store"] = store_stats
        return merged

    def _sync_metrics(self, generation: Optional[Hashable] = None) -> None:
        """Mirror the store's counters/gauges into the attached metrics sink.

        Called with the lock held, at each flush and compaction, and at a
        seed when the store ``generation`` moved since the last mirror: the
        store's ``stats()`` costs a ``COUNT(*)`` and a ``stat`` call.
        Writes and dedup skips mirror at their own flush, and other
        writers' records move the generation, so a seed at the mirrored
        generation has nothing new to mirror.
        """
        metrics = self._metrics
        if metrics is None:
            return
        snapshot = self._store.stats()
        for name in _MIRRORED_COUNTERS:
            delta = snapshot[name] - self._mirrored.get(name, 0)
            if delta > 0:
                metrics.incr(f"persist.sqlite.{name}", delta)
                self._mirrored[name] = snapshot[name]
        metrics.set_gauge("persist.sqlite.records", snapshot["records"])
        metrics.set_gauge("persist.sqlite.bytes", snapshot["bytes"])
        self._mirrored_at = generation

    def close(self) -> None:
        """Flush the buffered records, then close the store (idempotent)."""
        with self._lock:
            self._flush_locked()
        self._store.close()

    def __enter__(self) -> "PersistentWitnessCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PersistentWitnessCache({self._store!r})"
