"""Persistence layer tests: the SQLite witness store, crash consistency,
cross-process sharing, the legacy JSONL import, and the decode/memo cache
over the store.

The load-bearing properties:

* **The store matches its model** — an in-test dict holding the last record
  per key, where an append lands exactly when its digest differs from the
  current record's: per-record ``append`` and chunked ``append_many``,
  with ``compact()`` interleaved, both agree with it (Hypothesis
  properties).  So an A→B→A witness churn re-lands A as the live record.
* **Crash consistency** — killed-writer journals, rows that are not JSON
  and outright garbage files load cleanly, skipped records counted, never
  an exception.
* **Stored values are checked, never trusted** — mutated records (values,
  list shapes, versions, raw payload text) never raise out of decoding or
  the oracle, and the verdicts still equal the fresh search's (a
  Hypothesis property over real bank records).
* **Batched writes** — the cache buffers a round's records and writes them
  in one ``append_many`` (one transaction, one generation bump) at
  ``flush``; a cache reads its own unflushed records, other readers see
  them after the flush.
* **Records certify their own key** — a record whose path is empty or
  does not start with the access it is keyed by is skipped at decode and
  counted, so a forged key cannot turn another access's path into a
  verdict.
* **Multi-process sharing** — N concurrent processes appending to one
  store lose nothing, and a record landed by one process invalidates
  another's decode memo via the generation counter.
* **Legacy import** — ``tools/compact_cache.py migrate`` reads a JSONL
  cache of earlier versions (last line per key wins, undecodable lines
  skipped and counted) into the store.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import shutil
import sqlite3
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Access
from repro.core import is_long_term_relevant
from repro.runtime import (
    PersistentWitnessCache,
    QueryServer,
    RelevanceOracle,
    RuntimeMetrics,
    SqliteWitnessStore,
    serve_in_background,
)
from repro.runtime.cache import access_key
from repro.runtime.executor import candidate_accesses
from repro.runtime.serialize import (
    access_token,
    encode_json_value,
    query_token,
    record_digest,
    schema_token,
)
from repro.workloads import bank_multi_query_scenario, multi_query_scenario

TOOLS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _payload(query="q", schema="s", access="a", variant=0):
    """A synthetic but structurally valid witness record payload."""
    value = ["i", variant]
    return {
        "v": 1,
        "query": query,
        "schema": schema,
        "access": access,
        "method": "m",
        "binding": [value],
        "steps": [["m", [value], [[value]]]],
    }


def _generation(path):
    """The raw generation counter of a SQLite store file."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT value FROM meta WHERE key = 'generation'").fetchone()[0]
    finally:
        conn.close()


def _buffer_witnesses(cache, scenario):
    """Capture every query's first-round witnesses into ``cache``'s buffer."""
    mediator = scenario.mediator()
    configuration = mediator.configuration_view
    candidates = candidate_accesses(scenario.schema, configuration, lambda _key: False)
    # Build every oracle first: seeding reads the store, which flushes.
    oracles = [
        RelevanceOracle(query, scenario.schema, persist=cache)
        for query in scenario.queries
    ]
    for oracle in oracles:
        for access in candidates:
            oracle.long_term_relevant(access, configuration)


def _digests(store):
    """Every live record's content digest, keyed by its token triple."""
    return {
        key + (atoken,): record_digest(payload)
        for key, pair in store.load_all().items()
        for atoken, payload in pair.items()
    }


def _model_append(model, payload):
    """The store's contract on a dict of digests: an append lands exactly
    when its digest differs from the current record's for its key."""
    key = (payload["query"], payload["schema"], payload["access"])
    digest = record_digest(payload)
    if model.get(key) == digest:
        return False
    model[key] = digest
    return True


def _write_legacy(path, payloads, tail=""):
    """A JSONL witness cache as earlier versions wrote it: one JSON object
    per line, the last line per key live; ``tail`` is appended raw."""
    with open(path, "w", encoding="utf-8") as handle:
        for payload in payloads:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.write(tail)


def _compact_cache_tool():
    """``tools/compact_cache.py`` as a module (its legacy JSONL reader)."""
    spec = importlib.util.spec_from_file_location(
        "compact_cache", os.path.join(TOOLS_DIR, "compact_cache.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _import_legacy(src, dst):
    """Import a legacy JSONL cache as ``migrate`` does; the count written."""
    records, _skipped = _compact_cache_tool().read_legacy_jsonl(src)
    with SqliteWitnessStore(dst) as store:
        return store.append_many(records.values())


@pytest.fixture
def scenario():
    return multi_query_scenario(6, 5, 2, atoms_per_query=3, seed=3)


# --------------------------------------------------------------------------- #
# Legacy JSONL caches
# --------------------------------------------------------------------------- #
class TestJsonlStore:
    """JSONL witness caches as earlier versions wrote them, read by
    ``tools/compact_cache.py migrate`` into the SQLite store."""

    def test_dedup_is_against_current_record(self, tmp_path):
        """An import deduplicates against the record stored now: re-running
        it writes nothing, and an A→B→A churn across imports re-lands A."""
        a, b = _payload(variant=0), _payload(variant=1)
        legacy = os.fspath(tmp_path / "w.jsonl")
        dst = os.fspath(tmp_path / "w.sqlite")
        # The last line per key wins, so [b, a] imports a.
        for lines, written in (([a], 1), ([a], 0), ([b], 1), ([b, a], 1)):
            _write_legacy(legacy, lines)
            assert _import_legacy(legacy, dst) == written
        with SqliteWitnessStore(dst) as store:
            (payload,) = store.load_pair("q", "s").values()
        assert record_digest(payload) == record_digest(a)

    def test_repeated_record_compact_cycles_bound_the_file(self, tmp_path):
        """Acceptance: ≤ one row per (query, schema, access) key survives an
        uncompacted legacy file and every later compaction."""
        legacy = os.fspath(tmp_path / "w.jsonl")
        keys = [(f"q{i}", "s", f"a{j}") for i in range(3) for j in range(4)]
        _write_legacy(
            legacy,
            [_payload(q, s, a, variant=cycle) for cycle in range(5) for q, s, a in keys],
        )
        assert _import_legacy(legacy, os.fspath(tmp_path / "w.sqlite")) == len(keys)
        with SqliteWitnessStore(os.fspath(tmp_path / "w.sqlite")) as store:
            for _cycle in range(2):
                assert store.compact().records == len(keys)
                assert store.stats()["records"] == len(keys)
            # The live set is the last variant per key.
            for pair in store.load_all().values():
                for payload in pair.values():
                    assert payload["binding"] == [["i", 4]]

    def test_truncated_tail_and_garbage_are_skipped(self, tmp_path):
        legacy = os.fspath(tmp_path / "w.jsonl")
        _write_legacy(
            legacy,
            [_payload()],
            # parseable but keyless, then an interrupted append
            tail='{"query": "x"}\n[1, 2]\n{"v": 1, "query": "trunc',
        )
        records, skipped = _compact_cache_tool().read_legacy_jsonl(legacy)
        assert list(records) == [("q", "s", "a")]
        assert skipped == 3

    def test_unknown_record_versions_survive_compaction_opaquely(self, tmp_path):
        legacy = os.fspath(tmp_path / "w.jsonl")
        future = _payload(access="future")
        future["v"] = 99
        _write_legacy(legacy, [_payload(access="old"), future])
        path = os.fspath(tmp_path / "w.sqlite")
        assert _import_legacy(legacy, path) == 2
        with SqliteWitnessStore(path) as store:
            store.compact()
            kept = store.load_pair("q", "s")
        assert set(kept) == {"old", "future"}
        assert kept["future"]["v"] == 99


# --------------------------------------------------------------------------- #
# The SQLite store
# --------------------------------------------------------------------------- #
class TestSqliteStore:
    def test_upsert_keeps_one_row_per_key(self, tmp_path):
        store = SqliteWitnessStore(os.fspath(tmp_path / "w.sqlite"))
        for variant in range(5):
            assert store.append(_payload(variant=variant))
        assert not store.append(_payload(variant=4))  # dedup vs current
        stats = store.stats()
        assert stats["records"] == 1
        assert stats["dedup_skips"] == 1
        (payload,) = store.load_pair("q", "s").values()
        assert payload["binding"] == [["i", 4]]

    def test_generation_bumps_only_on_effective_writes(self, tmp_path):
        store = SqliteWitnessStore(os.fspath(tmp_path / "w.sqlite"))
        g0 = store.generation()
        store.append(_payload(variant=0))
        g1 = store.generation()
        assert g1 != g0
        store.append(_payload(variant=0))  # dedup skip
        assert store.generation() == g1

    def test_append_many_bumps_the_generation_once(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        store = SqliteWitnessStore(path)
        a, b, c = (_payload(variant=v) for v in range(3))
        store.append(a)
        g0 = _generation(path)
        # A→B→A inside one batch writes three times, as three appends would.
        assert store.append_many([a, b, a, _payload(access="other")]) == 3
        assert _generation(path) == g0 + 1
        assert store.append_many([a, _payload(access="other")]) == 0
        assert _generation(path) == g0 + 1
        assert store.append_many([a, c]) == 1
        assert _generation(path) == g0 + 2
        stats = store.stats()
        assert (stats["appends"], stats["dedup_skips"]) == (5, 4)

    def test_garbage_file_degrades_without_raising(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is not a database, sorry\n" * 64)
        store = SqliteWitnessStore(path)
        assert store.load_pair("q", "s") == {}
        assert store.append(_payload()) is False
        stats = store.stats()
        assert stats["broken"] is True
        assert stats["skipped_undecodable"] >= 1
        # The cache layer surfaces the count the same way as JSONL corruption.
        cache = PersistentWitnessCache(store=store)
        assert cache.stats["skipped_undecodable"] >= 1

    def test_killed_writer_store_loads_cleanly(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_killed_writer, args=(path, 8))
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 7  # os._exit fired mid-stream, WAL left behind
        store = SqliteWitnessStore(path)
        loaded = store.load_pair("q", "s")
        # Committed rows are durable (WAL); the kill loses nothing committed
        # and the store opens without error.
        assert len(loaded) == 8
        assert store.stats()["broken"] is False

    def test_concurrent_processes_share_one_store(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        ctx = multiprocessing.get_context("spawn")
        workers = 4
        per_worker = 16
        procs = [
            ctx.Process(target=_concurrent_appender, args=(path, w, per_worker))
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = SqliteWitnessStore(path)
        loaded = store.load_pair("q", "s")
        # Every process's distinct keys landed, plus the shared contended key.
        assert len(loaded) == workers * per_worker + 1
        assert ("sqlite", 0) != store.generation()


# --------------------------------------------------------------------------- #
# The store against references: its model, and the legacy format
# --------------------------------------------------------------------------- #
_record_stream = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # query index
        st.integers(min_value=0, max_value=3),  # access index
        st.integers(min_value=0, max_value=2),  # content variant
    ),
    max_size=40,
)


class TestCrossBackendEquivalence:
    """The store agrees with two references: a dict model of its contract
    (last record per key; an append lands exactly when its digest differs
    from the current record's), and the legacy JSONL format it imports."""

    @settings(max_examples=25, deadline=None)
    @given(stream=_record_stream, compact_every=st.integers(min_value=0, max_value=7))
    def test_same_stream_same_decoded_records(self, tmp_path_factory, stream, compact_every):
        store = SqliteWitnessStore(os.fspath(tmp_path_factory.mktemp("model") / "w.sqlite"))
        model = {}
        for step, (qi, ai, variant) in enumerate(stream):
            payload = _payload(f"q{qi}", "s", f"a{ai}", variant)
            # Append outcomes agree with the model record by record.
            assert store.append(dict(payload)) == _model_append(model, payload)
            if compact_every and step % compact_every == compact_every - 1:
                store.compact()
        assert _digests(store) == model
        store.close()

    @settings(max_examples=25, deadline=None)
    @given(
        stream=_record_stream,
        cuts=st.lists(st.integers(min_value=0, max_value=40)),
        compact_after=st.lists(st.booleans()),
    )
    def test_append_many_in_chunks_matches_per_record_appends(
        self, tmp_path_factory, stream, cuts, compact_after
    ):
        store = SqliteWitnessStore(os.fspath(tmp_path_factory.mktemp("batched") / "w.sqlite"))
        payloads = [
            _payload(f"q{qi}", "s", f"a{ai}", variant) for qi, ai, variant in stream
        ]
        bounds = [0] + sorted(set(cut for cut in cuts if cut < len(payloads)))
        chunks = [
            payloads[start:end] for start, end in zip(bounds, bounds[1:] + [len(payloads)])
        ]
        model = {}
        for index, chunk in enumerate(chunks):
            # A chunk writes what per-record appends would, A→B→A included.
            expected = sum(_model_append(model, payload) for payload in chunk)
            assert store.append_many([dict(p) for p in chunk]) == expected
            if index < len(compact_after) and compact_after[index]:
                store.compact()
        assert _digests(store) == model
        store.close()

    def test_real_witness_stream_through_both_backends(self, tmp_path, scenario):
        sqlite_path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=sqlite_path) as server:
            server.answer(scenario.queries)
        # The same records as a legacy JSONL cache, each key first written
        # with a superseded payload, imported into a second store.
        with SqliteWitnessStore(sqlite_path) as store:
            payloads = [p for pair in store.load_all().values() for p in pair.values()]
        legacy_path = os.fspath(tmp_path / "w.jsonl")
        _write_legacy(legacy_path, [dict(p, steps=[]) for p in payloads] + payloads)
        imported_path = os.fspath(tmp_path / "imported.sqlite")
        assert _import_legacy(legacy_path, imported_path) == len(payloads)
        native_cache = PersistentWitnessCache(sqlite_path)
        imported_cache = PersistentWitnessCache(imported_path)
        total = 0
        for query in scenario.queries:
            native = native_cache.witnesses_for(query, scenario.schema)
            imported = imported_cache.witnesses_for(query, scenario.schema)
            assert set(native) == set(imported)
            for akey, witness in native.items():
                assert witness.steps == imported[akey].steps
            total += len(native)
        assert total > 0
        native_cache.close()
        imported_cache.close()


# --------------------------------------------------------------------------- #
# The cache layer over the store
# --------------------------------------------------------------------------- #
class TestPersistentCacheLayer:
    def test_witnesses_for_returns_a_copy(self, tmp_path, scenario):
        """Regression: mutating the returned dict must not corrupt the memo
        shared by every later oracle."""
        path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
        cache = PersistentWitnessCache(path)
        query = scenario.queries[0]
        first = cache.witnesses_for(query, scenario.schema)
        assert first, "scenario must record at least one witness"
        first.clear()
        first["poison"] = object()
        second = cache.witnesses_for(query, scenario.schema)
        assert "poison" not in second
        assert second, "memo was corrupted by caller mutation"

    def test_generation_invalidates_memo_across_writers(self, tmp_path, scenario):
        path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
        query = scenario.queries[0]
        reader = PersistentWitnessCache(path)
        before = reader.witnesses_for(query, scenario.schema)
        assert before
        # A foreign writer (another process in production; a raw connection
        # here) deletes one of this query's rows and bumps the generation.
        from repro.runtime.serialize import query_token

        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "DELETE FROM witnesses WHERE rowid IN"
                " (SELECT rowid FROM witnesses WHERE query = ? LIMIT 1)",
                (query_token(query),),
            )
            conn.execute("UPDATE meta SET value = value + 1 WHERE key = 'generation'")
        conn.close()
        # The live reader notices the foreign write without being rebuilt:
        # its memo is invalidated by the moved generation token.
        after = reader.witnesses_for(query, scenario.schema)
        assert len(after) == len(before) - 1

    def test_oracle_persist_knob(self, tmp_path, scenario):
        cache = PersistentWitnessCache(os.fspath(tmp_path / "w.sqlite"))
        oracle = RelevanceOracle(scenario.queries[0], scenario.schema, persist=cache)
        assert oracle.persist is cache
        assert oracle.persist.stats["backend"] == "sqlite"
        cache.close()

    def test_witnesses_for_reads_unflushed_records(self, tmp_path, scenario):
        cache = PersistentWitnessCache(os.fspath(tmp_path / "w.sqlite"))
        _buffer_witnesses(cache, scenario)
        assert cache.store.stats()["records"] == 0  # still buffered
        seen = sum(
            len(cache.witnesses_for(query, scenario.schema))
            for query in scenario.queries
        )
        assert seen > 0
        assert cache.store.stats()["records"] == seen
        cache.close()

    def test_second_cache_sees_records_only_after_flush(self, tmp_path, scenario):
        path = os.fspath(tmp_path / "w.sqlite")
        metrics = RuntimeMetrics()
        writer = PersistentWitnessCache(path, metrics=metrics)
        reader = PersistentWitnessCache(path)
        _buffer_witnesses(writer, scenario)

        def visible():
            return sum(
                len(reader.witnesses_for(query, scenario.schema))
                for query in scenario.queries
            )

        assert visible() == 0
        assert metrics.count("persist.recorded") == 0
        written = writer.flush()
        assert written > 0
        assert visible() == written
        assert metrics.count("persist.recorded") == written
        assert writer.flush() == 0  # nothing left buffered
        writer.close()
        reader.close()

    def test_cold_bank_batch_writes_once_per_round(self, tmp_path):
        scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
        path = os.fspath(tmp_path / "bank.sqlite")
        metrics = RuntimeMetrics()
        server = QueryServer(scenario.mediator(), cache_path=path, metrics=metrics)
        result = server.answer(scenario.queries)
        assert 1 <= _generation(path) <= result.rounds
        assert metrics.count("persist.recorded") == 96
        # Every record landed when answer() returned, before close().
        reader = PersistentWitnessCache(path)
        seen = sum(
            len(reader.witnesses_for(query, scenario.schema))
            for query in scenario.queries
        )
        assert seen == reader.store.stats()["records"] == 96
        reader.close()
        server.close()

    def test_server_accepts_store_instance(self, tmp_path, scenario):
        store = SqliteWitnessStore(os.fspath(tmp_path / "w.sqlite"))
        cache = PersistentWitnessCache(store=store)
        with QueryServer(scenario.mediator(), persist=cache) as server:
            server.answer(scenario.queries)
        assert cache.store is store
        assert store.stats()["records"] > 0

    def test_sqlite_warm_restart_revalidates(self, tmp_path, scenario):
        path = os.fspath(tmp_path / "w.sqlite")
        cold_metrics = RuntimeMetrics()
        with QueryServer(
            scenario.mediator(), cache_path=path, metrics=cold_metrics
        ) as cold_server:
            cold = cold_server.answer(scenario.queries)
        cold_counters = cold_metrics.snapshot()["counters"]
        assert cold_counters.get("persist.recorded", 0) > 0
        assert cold_counters.get("persist.sqlite.appends", 0) > 0
        assert cold_metrics.snapshot()["gauges"].get("persist.sqlite.records", 0) > 0

        warm_metrics = RuntimeMetrics()
        with QueryServer(
            scenario.mediator(), cache_path=path, metrics=warm_metrics
        ) as warm_server:
            warm = warm_server.answer(scenario.queries)
        warm_counters = warm_metrics.snapshot()["counters"]
        assert warm.answers == cold.answers
        assert warm_counters.get("witness.revalidated", 0) > 0
        assert warm_counters.get("oracle.fresh_searches", 0) < cold_counters.get(
            "oracle.fresh_searches", 0
        )
        # A fully warm run re-derives identical witnesses: every append is
        # deduplicated against the stored record.
        assert warm_counters.get("persist.sqlite.appends", 0) == 0

    def test_record_version_roundtrip_and_future_versions_skipped(
        self, tmp_path, scenario
    ):
        path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
        store = server.persist.store
        payloads = [p for pair in store.load_all().values() for p in pair.values()]
        assert payloads and all(payload["v"] == 1 for payload in payloads)
        # A record from a future writer is skipped at decode, not crashed on.
        query = scenario.queries[0]
        future = _payload(
            query=query_token(query),
            schema=schema_token(scenario.schema),
            access="future-access",
        )
        future["v"] = 99
        assert store.append(future)
        store.close()
        cache = PersistentWitnessCache(path)
        decoded = cache.witnesses_for(query, scenario.schema)
        assert ("m", (0,)) not in decoded  # the future record did not decode
        assert cache.stats["skipped_undecodable"] >= 1
        # The store still carries the record opaquely (a rollback would
        # re-read it); only the decode layer skips it.
        assert "future-access" in cache.store.load_pair(
            query_token(query), schema_token(scenario.schema)
        )
        cache.close()

    def _bank_store_record(self, path):
        """Seed ``path`` from one bank query's oracle on the initial
        configuration; return what a forged record needs."""
        scenario = bank_multi_query_scenario()
        configuration = scenario.mediator().configuration_view
        cache = PersistentWitnessCache(path)
        oracle = RelevanceOracle(scenario.queries[0], scenario.schema, persist=cache)
        relevant = [
            access
            for access in candidate_accesses(
                scenario.schema, configuration, lambda _key: False
            )
            if oracle.long_term_relevant(access, configuration)
        ]
        assert relevant
        cache.flush()
        tokens = (query_token(oracle.query), schema_token(scenario.schema))
        record = cache.store.load_pair(*tokens)[access_token(relevant[0])]
        return scenario, oracle.query, configuration, cache, relevant[0], record

    def test_record_keyed_by_another_access_is_skipped(self, tmp_path):
        """Revalidation checks a path, not which access it certifies: a
        record whose key is not its path's probed access must not decide
        the keyed access."""
        path = os.fspath(tmp_path / "w.sqlite")
        scenario, query, configuration, cache, _access, record = self._bank_store_record(
            path
        )
        forged_access = Access(scenario.schema.access_method("StateApprAcc"), ("State1",))
        cache.store.append(
            dict(
                record,
                method="StateApprAcc",
                binding=[encode_json_value("State1")],
                access=access_token(forged_access),
            )
        )
        cache.close()
        expected = is_long_term_relevant(
            query, forged_access, configuration, scenario.schema
        )
        assert not expected
        reader = PersistentWitnessCache(path)
        oracle = RelevanceOracle(query, scenario.schema, persist=reader)
        assert oracle.long_term_relevant(forged_access, configuration) == expected
        assert reader.stats["skipped_undecodable"] == 1
        reader.close()

    def test_record_with_empty_path_is_skipped(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        scenario, query, configuration, cache, access, record = self._bank_store_record(
            path
        )
        cache.store.append(dict(record, steps=[]))
        cache.close()
        reader = PersistentWitnessCache(path)
        assert access_key(access) not in reader.witnesses_for(query, scenario.schema)
        assert reader.stats["skipped_undecodable"] == 1
        oracle = RelevanceOracle(query, scenario.schema, persist=reader)
        assert oracle.long_term_relevant(access, configuration)
        reader.close()

    def test_corrupt_fact_value_is_skipped_not_raised(self, tmp_path):
        """Regression: a stored fact value ``["s", {}]`` decoded to a dict,
        and revalidation raised ``TypeError: unhashable type`` out of the
        warm ``answer`` call.  Such a record is now skipped and counted."""
        scenario = bank_multi_query_scenario()
        path = os.fspath(tmp_path / "bank.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            cold = server.answer(scenario.queries)
        corrupted = 0
        conn = sqlite3.connect(path)
        with conn:
            rows = conn.execute("SELECT rowid, payload FROM witnesses").fetchall()
            for rowid, text in rows:
                payload = json.loads(text)
                facts = payload["steps"][0][2]
                if facts:
                    facts[0][-1] = ["s", {}]
                    corrupted += 1
                conn.execute(
                    "UPDATE witnesses SET payload = ? WHERE rowid = ?",
                    (json.dumps(payload), rowid),
                )
        conn.close()
        assert corrupted > 0
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            warm = server.answer(scenario.queries)
            skipped = server.persist.stats["skipped_undecodable"]
        assert warm.answers == cold.answers
        assert skipped == corrupted

    def test_healthz_reports_persistence(self, tmp_path, scenario):
        import urllib.request

        path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
            handle = serve_in_background(server)
            try:
                with urllib.request.urlopen(f"{handle.base_url}/healthz") as response:
                    health = json.loads(response.read().decode("utf-8"))
            finally:
                handle.shutdown()
        assert health["persistence"]["backend"] == "sqlite"
        assert health["persistence"]["records"] > 0


# --------------------------------------------------------------------------- #
# Fuzzing the record decoder
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bank_records(tmp_path_factory):
    """A store of real bank records, and the fresh-search verdicts no stored
    record may change: the default bank's first query on its initial
    configuration."""
    scenario = bank_multi_query_scenario()
    configuration = scenario.mediator().configuration_view
    candidates = candidate_accesses(scenario.schema, configuration, lambda _key: False)
    path = os.fspath(tmp_path_factory.mktemp("bank-records") / "pristine.sqlite")
    with PersistentWitnessCache(path) as cache:
        oracle = RelevanceOracle(scenario.queries[0], scenario.schema, persist=cache)
        verdicts = [oracle.long_term_relevant(a, configuration) for a in candidates]
    query = oracle.query
    fresh = [
        is_long_term_relevant(query, access, configuration, scenario.schema)
        for access in candidates
    ]
    assert verdicts == fresh and any(fresh)
    return scenario.schema, query, configuration, candidates, fresh, path


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_tagged = st.builds(
    lambda tag, rest: [tag, *rest],
    st.sampled_from(["n", "b", "s", "i", "f", "t", "?"]),
    st.lists(_json, max_size=2),
)
_mutation = st.one_of(
    # replace the n-th tagged value (binding or fact value)
    st.tuples(st.just("value"), st.integers(0, 63), _tagged | _json),
    # reshape the n-th list of the record
    st.tuples(
        st.just("shape"),
        st.integers(0, 63),
        st.sampled_from(["drop", "dup", "clear", "scalar", "object"]),
    ),
    st.tuples(
        st.just("version"),
        st.integers(-2, 3)
        | st.none()
        | st.booleans()
        | st.text(max_size=2)
        | st.floats(allow_nan=False),
    ),
    # raw payload text: a prefix of the real text, then junk
    st.tuples(st.just("text"), st.integers(0, 1 << 16), st.text(max_size=8)),
)


def _tagged_slots(payload):
    """``(container, index)`` of every tagged value in a record."""
    slots = [(payload["binding"], i) for i in range(len(payload["binding"]))]
    for _method, binding, facts in payload["steps"]:
        slots += [(binding, i) for i in range(len(binding))]
        slots += [(row, i) for row in facts for i in range(len(row))]
    return slots


def _list_slots(parent, key, out):
    """``(parent, key)`` of every list in a record, outermost first."""
    node = parent[key]
    if isinstance(node, list):
        out.append((parent, key))
    if isinstance(node, (list, dict)):
        for child in (range(len(node)) if isinstance(node, list) else list(node)):
            _list_slots(node, child, out)
    return out


def _mutate(text, mutation):
    """Apply one drawn mutation to a stored record's payload text."""
    kind, *args = mutation
    if kind == "text":
        cut, junk = args
        return text[: cut % (len(text) + 1)] + junk
    payload = json.loads(text)
    if kind == "version":
        payload["v"] = args[0]
    elif kind == "value":
        slots = _tagged_slots(payload)
        container, index = slots[args[0] % len(slots)]
        container[index] = args[1]
    else:
        slots = _list_slots({"": payload}, "", [])
        parent, key = slots[args[0] % len(slots)]
        node, op = parent[key], args[1]
        if op == "drop" and node:
            node.pop()
        elif op == "dup" and node:
            node.append(node[0])
        elif op == "clear":
            node.clear()
        elif op in ("scalar", "object"):
            parent[key] = 0 if op == "scalar" else {}
    return json.dumps(payload)


class TestRecordDecoderFuzz:
    @settings(max_examples=40, deadline=None)
    @given(mutation=_mutation)
    @example(mutation=("value", 3, ["s", {}]))
    def test_mutated_records_never_raise_or_change_verdicts(
        self, tmp_path_factory, bank_records, mutation
    ):
        schema, query, configuration, candidates, fresh, pristine = bank_records
        path = os.fspath(tmp_path_factory.mktemp("fuzz") / "w.sqlite")
        shutil.copyfile(pristine, path)
        conn = sqlite3.connect(path)
        with conn:
            rows = conn.execute("SELECT rowid, payload FROM witnesses").fetchall()
            for rowid, text in rows:
                conn.execute(
                    "UPDATE witnesses SET payload = ? WHERE rowid = ?",
                    (_mutate(text, mutation), rowid),
                )
        conn.close()
        with PersistentWitnessCache(path) as cache:
            for akey, witness in cache.witnesses_for(query, schema).items():
                assert access_key(witness.steps[0].access) == akey
            oracle = RelevanceOracle(query, schema, persist=cache)
            verdicts = [oracle.long_term_relevant(a, configuration) for a in candidates]
        assert verdicts == fresh


# --------------------------------------------------------------------------- #
# The compact_cache CLI
# --------------------------------------------------------------------------- #
class TestCompactCacheCli:
    def _run(self, *argv):
        env = dict(os.environ)
        src_dir = os.path.join(os.path.dirname(TOOLS_DIR), "src")
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, os.path.join(TOOLS_DIR, "compact_cache.py"), *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_compact_in_place(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        with SqliteWitnessStore(path) as store:
            for variant in range(10):
                store.append(_payload(access=f"a{variant}", variant=variant))
            assert store.stats()["records"] == 10
        proc = self._run("compact", path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["records"] == 10
        assert 0 < report["bytes_after"] <= report["bytes_before"]
        with SqliteWitnessStore(path) as store:
            assert store.stats()["records"] == 10

    def test_migrate_with_verify(self, tmp_path):
        src = os.fspath(tmp_path / "w.jsonl")
        dst = os.fspath(tmp_path / "w.sqlite")
        # Six live records behind superseded lines, then a truncated tail.
        _write_legacy(
            src,
            [_payload(access=f"a{index}", variant=index + 1) for index in range(6)]
            + [_payload(access=f"a{index}", variant=index) for index in range(6)],
            tail='{"v": 1, "query": "trunc',
        )
        proc = self._run("migrate", src, dst, "--verify")
        assert proc.returncode == 0, proc.stderr
        assert "all 6 record(s) match" in proc.stdout
        assert '"skipped_undecodable": 1' in proc.stdout
        with SqliteWitnessStore(dst) as migrated:
            assert migrated.stats()["records"] == 6
            for index in range(6):
                payload = migrated.load_pair("q", "s")[f"a{index}"]
                assert payload["binding"] == [["i", index]]

    def test_verify_detects_lost_records(self, tmp_path):
        src = os.fspath(tmp_path / "w.jsonl")
        dst = os.fspath(tmp_path / "w.sqlite")
        _write_legacy(src, [_payload()])
        # A destination that silently drops writes (a corrupt non-database
        # file): migration appears to run, verify catches the loss.
        with open(dst, "wb") as handle:
            handle.write(b"not a database\n" * 64)
        proc = self._run("migrate", src, dst, "--verify")
        assert proc.returncode == 1
        assert "differ or are missing" in proc.stderr

    def test_migrate_rejects_a_source_without_records(self, tmp_path):
        src = os.fspath(tmp_path / "w.sqlite")
        with SqliteWitnessStore(src) as store:
            store.append(_payload())
        proc = self._run("migrate", src, os.fspath(tmp_path / "dst.sqlite"))
        assert proc.returncode == 1
        assert "is a witness record" in proc.stderr
        assert not os.path.exists(tmp_path / "dst.sqlite")

    def test_stats_outputs_json(self, tmp_path):
        path = os.fspath(tmp_path / "w.sqlite")
        SqliteWitnessStore(path).append(_payload())
        proc = self._run("stats", path)
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        assert stats["backend"] == "sqlite"
        assert stats["records"] == 1


# --------------------------------------------------------------------------- #
# Spawn-safe worker functions (module level for pickling)
# --------------------------------------------------------------------------- #
def _killed_writer(path, n_records):
    from repro.runtime.storage import SqliteWitnessStore

    store = SqliteWitnessStore(path)
    for index in range(n_records):
        store.append(_payload(access=f"a{index}", variant=index))
    # Die without closing: the WAL and SHM files are left on disk, exactly
    # what a crashed server leaves behind.
    os._exit(7)


def _concurrent_appender(path, worker, n_records):
    from repro.runtime.storage import SqliteWitnessStore

    store = SqliteWitnessStore(path)
    for index in range(n_records):
        # Distinct keys per worker, plus one contended key all workers churn.
        store.append(_payload(access=f"w{worker}-a{index}", variant=index))
        store.append(_payload(access="contended", variant=worker * 1000 + index))
    store.close()
