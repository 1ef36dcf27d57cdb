"""Persistence layer tests: storage backends, compaction, crash consistency,
cross-process sharing, and the decode/memo cache over them.

The load-bearing properties:

* **Compaction bounds the JSONL file** — repeated record/compact cycles
  leave at most one line per ``(query, schema, access)`` key, and online
  triggers fire without operator intervention.
* **Dedup is against the currently stored record** — an A→B→A witness churn
  re-lands A as the live record (an ever-appended digest set would leave a
  stale B winning after compaction).
* **Crash consistency** — truncated JSONL tails, killed-writer SQLite
  journals, and outright garbage files load cleanly, skipped records
  counted, never an exception.
* **Cross-backend equivalence** — the same record stream produces identical
  decoded record sets through JSONL and SQLite, and through per-record
  ``append`` and chunked ``append_many`` (Hypothesis properties).
* **Batched writes** — the cache buffers a round's records and writes them
  in one ``append_many`` (one SQLite transaction, one generation bump) at
  ``flush``; a cache reads its own unflushed records, other readers see
  them after the flush.
* **Records certify their own key** — a record whose path is empty or
  does not start with the access it is keyed by is skipped at decode and
  counted, so a forged key cannot turn another access's path into a
  verdict.
* **Multi-process sharing** — N concurrent processes appending to one
  SQLite store lose nothing, and a record landed by one process invalidates
  another's decode memo via the generation counter.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Access
from repro.core import is_long_term_relevant
from repro.runtime import (
    JsonlWitnessStore,
    PersistentWitnessCache,
    QueryServer,
    RelevanceOracle,
    RuntimeMetrics,
    SqliteWitnessStore,
    open_witness_store,
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


def _file_lines(path):
    with open(path, "rb") as handle:
        return [line for line in handle.read().split(b"\n") if line.strip()]


@pytest.fixture
def scenario():
    return multi_query_scenario(6, 5, 2, atoms_per_query=3, seed=3)


# --------------------------------------------------------------------------- #
# JSONL backend
# --------------------------------------------------------------------------- #
class TestJsonlStore:
    def test_dedup_is_against_current_record(self, tmp_path):
        store = JsonlWitnessStore(os.fspath(tmp_path / "w.jsonl"))
        a, b = _payload(variant=0), _payload(variant=1)
        assert store.append(a)
        assert not store.append(a)  # identical to the stored record
        assert store.append(b)  # supersedes it
        # A→B→A churn: A differs from the *current* record (B), so it must
        # land again — otherwise compaction would leave stale B winning.
        assert store.append(a)
        store.compact()
        (line,) = _file_lines(store.path)
        assert record_digest(json.loads(line)) == record_digest(a)

    def test_repeated_record_compact_cycles_bound_the_file(self, tmp_path):
        """Acceptance: ≤ one line per (query, schema, access) key survives."""
        path = os.fspath(tmp_path / "w.jsonl")
        store = JsonlWitnessStore(path, auto_compact=False)
        keys = [(f"q{i}", "s", f"a{j}") for i in range(3) for j in range(4)]
        for cycle in range(5):
            for q, s, a in keys:
                store.append(_payload(q, s, a, variant=cycle))
            result = store.compact()
            assert result.records_after == len(keys)
            assert len(_file_lines(path)) == len(keys)
        # The live set is the last variant per key.
        for pair in store.load_all().values():
            for payload in pair.values():
                assert payload["binding"] == [["i", 4]]

    def test_online_compaction_trigger(self, tmp_path):
        path = os.fspath(tmp_path / "w.jsonl")
        store = JsonlWitnessStore(path, compact_min_records=8, compact_ratio=2.0)
        for variant in range(32):
            store.append(_payload(variant=variant))
        stats = store.stats()
        assert stats["compactions"] >= 1
        # One live key: the compacted file holds far fewer lines than the
        # 32 appends would have left.
        assert len(_file_lines(path)) <= 8

    def test_truncated_tail_and_garbage_are_skipped(self, tmp_path):
        path = os.fspath(tmp_path / "w.jsonl")
        store = JsonlWitnessStore(path)
        store.append(_payload())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"query": "x"}\n')  # parseable, wrong shape
            handle.write('{"v": 1, "query": "trunc')  # interrupted append
        fresh = JsonlWitnessStore(path)
        assert set(fresh.load_pair("q", "s")) == {"a"}
        assert fresh.stats()["skipped_undecodable"] >= 2

    def test_append_after_truncated_tail_stays_parseable(self, tmp_path):
        path = os.fspath(tmp_path / "w.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"v": 1, "query": "trunc')  # no trailing newline
        store = JsonlWitnessStore(path)
        store.append(_payload())
        fresh = JsonlWitnessStore(path)
        assert set(fresh.load_pair("q", "s")) == {"a"}

    def test_tail_refresh_sees_external_appends(self, tmp_path):
        path = os.fspath(tmp_path / "w.jsonl")
        writer = JsonlWitnessStore(path)
        reader = JsonlWitnessStore(path)
        writer.append(_payload(access="a1"))
        assert set(reader.load_pair("q", "s")) == {"a1"}
        generation = reader.generation()
        writer.append(_payload(access="a2"))
        assert reader.generation() != generation
        assert set(reader.load_pair("q", "s")) == {"a1", "a2"}

    def test_external_compaction_triggers_full_reload(self, tmp_path):
        path = os.fspath(tmp_path / "w.jsonl")
        writer = JsonlWitnessStore(path, auto_compact=False)
        reader = JsonlWitnessStore(path)
        for variant in range(10):
            writer.append(_payload(variant=variant))
        assert len(reader.load_pair("q", "s")) == 1
        writer.compact()  # the file shrinks under the reader
        assert set(reader.load_pair("q", "s")) == {"a"}
        assert reader.stats()["reloads"] >= 1

    def test_unknown_record_versions_survive_compaction_opaquely(self, tmp_path):
        path = os.fspath(tmp_path / "w.jsonl")
        store = JsonlWitnessStore(path)
        store.append(_payload(access="old"))
        future = _payload(access="future")
        future["v"] = 99
        store.append(future)
        store.compact()
        kept = {json.loads(line)["access"] for line in _file_lines(path)}
        assert kept == {"old", "future"}


# --------------------------------------------------------------------------- #
# SQLite backend
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
# Cross-backend equivalence
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
    @settings(max_examples=25, deadline=None)
    @given(stream=_record_stream, compact_every=st.integers(min_value=0, max_value=7))
    def test_same_stream_same_decoded_records(self, tmp_path_factory, stream, compact_every):
        tmp = tmp_path_factory.mktemp("xbackend")
        jsonl = JsonlWitnessStore(os.fspath(tmp / "w.jsonl"))
        sqlite_store = SqliteWitnessStore(os.fspath(tmp / "w.sqlite"))
        results = []
        for step, (qi, ai, variant) in enumerate(stream):
            payload = _payload(f"q{qi}", "s", f"a{ai}", variant)
            results.append(
                (jsonl.append(dict(payload)), sqlite_store.append(dict(payload)))
            )
            if compact_every and step % compact_every == compact_every - 1:
                jsonl.compact()
        # Append outcomes agree record by record, and the final decoded sets
        # are identical.
        assert all(j == s for j, s in results)

        def digests(store):
            return {
                key + (atoken,): record_digest(payload)
                for key, pair in store.load_all().items()
                for atoken, payload in pair.items()
            }

        assert digests(jsonl) == digests(sqlite_store)
        sqlite_store.close()

    @settings(max_examples=25, deadline=None)
    @given(stream=_record_stream, cuts=st.lists(st.integers(min_value=0, max_value=40)))
    def test_append_many_in_chunks_matches_per_record_appends(
        self, tmp_path_factory, stream, cuts
    ):
        tmp = tmp_path_factory.mktemp("batched")
        payloads = [
            _payload(f"q{qi}", "s", f"a{ai}", variant) for qi, ai, variant in stream
        ]
        bounds = [0] + sorted(set(cut for cut in cuts if cut < len(payloads)))
        chunks = [
            payloads[start:end] for start, end in zip(bounds, bounds[1:] + [len(payloads)])
        ]

        def digests(store):
            return {
                key + (atoken,): record_digest(payload)
                for key, pair in store.load_all().items()
                for atoken, payload in pair.items()
            }

        outcomes = []
        for store_class in (JsonlWitnessStore, SqliteWitnessStore):
            single = store_class(os.fspath(tmp / f"single-{store_class.backend}"))
            batched = store_class(os.fspath(tmp / f"batched-{store_class.backend}"))
            written = sum(single.append(dict(p)) for p in payloads)
            assert written == sum(
                batched.append_many([dict(p) for p in chunk]) for chunk in chunks
            )
            assert digests(batched) == digests(single)
            outcomes.append((written, digests(single)))
            single.close()
            batched.close()
        assert outcomes[0] == outcomes[1]

    def test_real_witness_stream_through_both_backends(self, tmp_path, scenario):
        jsonl_path = os.fspath(tmp_path / "w.jsonl")
        with QueryServer(scenario.mediator(), cache_path=jsonl_path) as server:
            server.answer(scenario.queries)
        sqlite_path = os.fspath(tmp_path / "w.sqlite")
        src = JsonlWitnessStore(jsonl_path)
        dst = SqliteWitnessStore(sqlite_path)
        for pair in src.load_all().values():
            for payload in pair.values():
                dst.append(payload)
        jsonl_cache = PersistentWitnessCache(jsonl_path)
        sqlite_cache = PersistentWitnessCache(sqlite_path)
        assert sqlite_cache.backend == "sqlite"
        total = 0
        for query in scenario.queries:
            via_jsonl = jsonl_cache.witnesses_for(query, scenario.schema)
            via_sqlite = sqlite_cache.witnesses_for(query, scenario.schema)
            assert set(via_jsonl) == set(via_sqlite)
            for akey, witness in via_jsonl.items():
                assert witness.steps == via_sqlite[akey].steps
            total += len(via_jsonl)
        assert total > 0


# --------------------------------------------------------------------------- #
# The cache layer over the backends
# --------------------------------------------------------------------------- #
class TestPersistentCacheLayer:
    def test_witnesses_for_returns_a_copy(self, tmp_path, scenario):
        """Regression: mutating the returned dict must not corrupt the memo
        shared by every later oracle."""
        path = os.fspath(tmp_path / "w.jsonl")
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
        assert oracle.persist.backend == "sqlite"
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
        with QueryServer(scenario.mediator(), persist=store) as server:
            server.answer(scenario.queries)
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
        path = os.fspath(tmp_path / "w.jsonl")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
        for line in _file_lines(path):
            assert json.loads(line)["v"] == 1
        # A record from a future writer is skipped at decode, not crashed on.
        from repro.runtime.serialize import query_token

        query = scenario.queries[0]
        future = _payload(
            query=query_token(query),
            schema=schema_token(scenario.schema),
            access="future-access",
        )
        future["v"] = 99
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(future) + "\n")
        cache = PersistentWitnessCache(path)
        decoded = cache.witnesses_for(query, scenario.schema)
        assert ("m", (0,)) not in decoded  # the future record did not decode
        assert cache.stats["skipped_undecodable"] >= 1
        # The store still carries the record opaquely (a rollback would
        # re-read it); only the decode layer skips it.
        assert "future-access" in JsonlWitnessStore(path).load_pair(
            query_token(query), schema_token(scenario.schema)
        )

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
        path = os.fspath(tmp_path / "w.jsonl")
        store = JsonlWitnessStore(path, auto_compact=False)
        for variant in range(10):
            store.append(_payload(variant=variant))
        assert len(_file_lines(path)) == 10
        proc = self._run("compact", path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["records_before"] == 10
        assert report["records_after"] == 1
        assert len(_file_lines(path)) == 1

    def test_migrate_with_verify(self, tmp_path):
        src = os.fspath(tmp_path / "w.jsonl")
        dst = os.fspath(tmp_path / "w.sqlite")
        store = JsonlWitnessStore(src)
        for index in range(6):
            store.append(_payload(access=f"a{index}", variant=index))
        proc = self._run("migrate", src, dst, "--verify")
        assert proc.returncode == 0, proc.stderr
        assert "all 6 record(s) match" in proc.stdout
        migrated = SqliteWitnessStore(dst)
        assert migrated.stats()["records"] == 6

    def test_verify_detects_lost_records(self, tmp_path):
        src = os.fspath(tmp_path / "w.jsonl")
        dst = os.fspath(tmp_path / "w.sqlite")
        JsonlWitnessStore(src).append(_payload())
        # A destination that silently drops writes (a corrupt non-database
        # file): migration appears to run, verify catches the loss.
        with open(dst, "wb") as handle:
            handle.write(b"not a database\n" * 64)
        proc = self._run("migrate", src, dst, "--verify")
        assert proc.returncode == 1
        assert "differ or are missing" in proc.stderr

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
