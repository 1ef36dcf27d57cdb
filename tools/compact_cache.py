#!/usr/bin/env python3
"""Maintain persistent witness stores (SQLite files) from the command line.

Subcommands:

``compact PATH``
    Checkpoint a store's WAL and vacuum it.  The store keeps one row per
    ``(query, schema, access)`` key, so this only reclaims file space.

``migrate LEGACY.jsonl DST``
    Import a witness cache written as JSONL by earlier versions into the
    SQLite store ``DST``.  The last line per ``(query, schema, access)`` key
    wins; lines that do not decode (a truncated tail, foreign bytes) are
    skipped and counted, and a source with no decodable line at all (say, a
    SQLite file) is an error.  The import is one ``append_many`` call, a
    single transaction.  With ``--verify``, ``DST`` is re-opened afterwards and
    every imported record compared by content digest; any difference is a
    non-zero exit.

``stats PATH``
    Print a store's record count, size, and operational counters as JSON.

Examples::

    python tools/compact_cache.py compact /var/cache/witness.sqlite
    python tools/compact_cache.py migrate witness.jsonl witness.sqlite --verify
    python tools/compact_cache.py stats witness.sqlite
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, Tuple

_REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
try:  # pragma: no cover - import bootstrap
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - running from a source checkout
    sys.path.insert(0, _REPO_SRC)

from repro.runtime.serialize import record_digest  # noqa: E402
from repro.runtime.storage import SqliteWitnessStore  # noqa: E402

Key = Tuple[str, str, str]


def read_legacy_jsonl(path: str) -> Tuple[Dict[Key, dict], int]:
    """The live records of a legacy JSONL witness cache, and the lines skipped.

    Records are keyed by their ``(query, schema, access)`` tokens; the last
    line per key wins.
    """
    records: Dict[Key, dict] = {}
    skipped = 0
    with open(path, "rb") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
                key = (str(payload["query"]), str(payload["schema"]), str(payload["access"]))
            except (ValueError, KeyError, TypeError, RecursionError):
                skipped += 1
                continue
            records[key] = payload
    return records, skipped


def _cmd_compact(args: argparse.Namespace) -> int:
    with SqliteWitnessStore(args.path) as store:
        result = store.compact()
    print(json.dumps(dataclasses.asdict(result), indent=2))
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    if os.path.abspath(args.src) == os.path.abspath(args.dst):
        print("migrate: SRC and DST are the same file", file=sys.stderr)
        return 2
    records, skipped = read_legacy_jsonl(args.src)
    if skipped and not records:
        print(f"migrate: no line of {args.src} is a witness record", file=sys.stderr)
        return 1
    with SqliteWitnessStore(args.dst) as dst:
        copied = dst.append_many(records.values())
    print(
        json.dumps(
            {
                "copied": copied,
                "already_present": len(records) - copied,
                "skipped_undecodable": skipped,
            },
            indent=2,
        )
    )
    if args.verify:
        with SqliteWitnessStore(args.dst) as dst:
            stored = {
                (qtoken, stoken, atoken): record_digest(payload)
                for (qtoken, stoken), pair in dst.load_all().items()
                for atoken, payload in pair.items()
            }
        missing = sorted(
            key for key, payload in records.items()
            if stored.get(key) != record_digest(payload)
        )
        if missing:
            print(
                f"verify: {len(missing)} record(s) differ or are missing in DST",
                file=sys.stderr,
            )
            for qtoken, stoken, atoken in missing[:10]:
                print(f"  {qtoken}/{stoken}/{atoken}", file=sys.stderr)
            return 1
        print(f"verify: all {len(records)} record(s) match")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with SqliteWitnessStore(args.path) as store:
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compact_cache",
        description="Compact or inspect witness stores; import legacy JSONL caches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compact = sub.add_parser("compact", help="checkpoint and vacuum a store")
    compact.add_argument("path", help="store file to compact")
    compact.set_defaults(func=_cmd_compact)

    migrate = sub.add_parser("migrate", help="import a legacy JSONL cache")
    migrate.add_argument("src", help="legacy JSONL witness cache")
    migrate.add_argument("dst", help="destination store file (created if absent)")
    migrate.add_argument(
        "--verify",
        action="store_true",
        help="re-open DST and check every imported record landed unchanged",
    )
    migrate.set_defaults(func=_cmd_migrate)

    stats = sub.add_parser("stats", help="print a store's stats as JSON")
    stats.add_argument("path", help="store file to inspect")
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
