#!/usr/bin/env python3
"""Maintain persistent witness cache stores from the command line.

Subcommands:

``compact PATH``
    Rewrite a store to its live record set.  For JSONL this drops every
    superseded line (last record per ``(query, schema, access)`` key wins);
    for SQLite it checkpoints the WAL and vacuums.

``migrate SRC DST``
    Copy every live record from one store into another — typically JSONL →
    SQLite when a deployment moves to multi-process serving.  The copy is
    one ``append_many`` call: a single transaction on SQLite.  With
    ``--verify``, both stores are re-opened afterwards and their decoded
    record sets compared; any difference is a non-zero exit.

``stats PATH``
    Print a store's record count, size, and operational counters as JSON.

Backends are inferred from the path (``.sqlite`` / ``.sqlite3`` / ``.db``
or SQLite magic bytes → SQLite, else JSONL); override with ``--backend`` /
``--from-backend`` / ``--to-backend``.

Examples::

    python tools/compact_cache.py compact /var/cache/witness.jsonl
    python tools/compact_cache.py migrate witness.jsonl witness.sqlite --verify
    python tools/compact_cache.py stats witness.sqlite
"""

from __future__ import annotations

import argparse
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
from repro.runtime.storage import open_witness_store  # noqa: E402


def _digest_map(path: str, backend: str) -> Dict[Tuple[str, str, str], str]:
    """Every live record's content digest, keyed by its full token triple."""
    with open_witness_store(path, backend) as store:
        digests: Dict[Tuple[str, str, str], str] = {}
        for (qtoken, stoken), pair in store.load_all().items():
            for atoken, payload in pair.items():
                digests[(qtoken, stoken, atoken)] = record_digest(payload)
        return digests


def _cmd_compact(args: argparse.Namespace) -> int:
    with open_witness_store(args.path, args.backend) as store:
        result = store.compact()
    print(
        json.dumps(
            {
                "backend": result.backend,
                "records_before": result.records_before,
                "records_after": result.records_after,
                "bytes_before": result.bytes_before,
                "bytes_after": result.bytes_after,
            },
            indent=2,
        )
    )
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    if os.path.abspath(args.src) == os.path.abspath(args.dst):
        print("migrate: SRC and DST are the same file", file=sys.stderr)
        return 2
    with open_witness_store(args.src, args.from_backend) as src:
        payloads = [
            payload for pair in src.load_all().values() for payload in pair.values()
        ]
    with open_witness_store(args.dst, args.to_backend) as dst:
        copied = dst.append_many(payloads)
    print(
        json.dumps(
            {"copied": copied, "already_present": len(payloads) - copied}, indent=2
        )
    )
    if args.verify:
        src_digests = _digest_map(args.src, args.from_backend)
        dst_digests = _digest_map(args.dst, args.to_backend)
        missing = sorted(
            key for key in src_digests if dst_digests.get(key) != src_digests[key]
        )
        if missing:
            print(
                f"verify: {len(missing)} record(s) differ or are missing in DST",
                file=sys.stderr,
            )
            for qtoken, stoken, atoken in missing[:10]:
                print(f"  {qtoken}/{stoken}/{atoken}", file=sys.stderr)
            return 1
        print(f"verify: all {len(src_digests)} record(s) match")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with open_witness_store(args.path, args.backend) as store:
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compact_cache",
        description="Compact, migrate, or inspect persistent witness cache stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compact = sub.add_parser("compact", help="rewrite a store to its live records")
    compact.add_argument("path", help="store file to compact")
    compact.add_argument(
        "--backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="storage backend (default: inferred from the path)",
    )
    compact.set_defaults(func=_cmd_compact)

    migrate = sub.add_parser("migrate", help="copy live records between stores")
    migrate.add_argument("src", help="source store file")
    migrate.add_argument("dst", help="destination store file (created if absent)")
    migrate.add_argument(
        "--from-backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="source backend (default: inferred)",
    )
    migrate.add_argument(
        "--to-backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="destination backend (default: inferred)",
    )
    migrate.add_argument(
        "--verify",
        action="store_true",
        help="re-open both stores and assert identical decoded record sets",
    )
    migrate.set_defaults(func=_cmd_migrate)

    stats = sub.add_parser("stats", help="print a store's stats as JSON")
    stats.add_argument("path", help="store file to inspect")
    stats.add_argument(
        "--backend",
        choices=("auto", "jsonl", "sqlite"),
        default="auto",
        help="storage backend (default: inferred from the path)",
    )
    stats.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
