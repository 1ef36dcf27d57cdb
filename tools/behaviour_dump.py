#!/usr/bin/env python3
"""Print, as JSON, what the answering runtime does on three fixed scenarios.

A change that must not alter behaviour should leave this dump unchanged:
run it on both sides and ``diff`` the outputs.  The scenarios are the
6-employee bank (``bank_multi_query_scenario(8, employees=6, offices=3,
states=4)``), the default bank (``bank_multi_query_scenario()``) and
``multi_query_scenario(16, 8, 8)``.  Each runs *cold*, over a fresh SQLite
witness store, then *warm*, over the store the cold run wrote.  A run is one
``QueryServer`` at ``parallelism=1`` answering the batch twice inside
``activate_tracer(Tracer())``, with the Proposition 3.5 memo
(``containment_cq_memo``) cleared first.

Per run the dump holds each call's answers, the mediator's ordered access
log, the metrics counters, every histogram's sample count (not its timings)
and the multiset of spans keyed by (parent name, name, sorted tag keys).
Nothing in it depends on the clock or on the hash seed, so the CI runs it
under two ``PYTHONHASHSEED`` values and diffs the outputs.

Examples::

    python tools/behaviour_dump.py > change.json
    PYTHONPATH=../parent/src python tools/behaviour_dump.py > parent.json
    diff parent.json change.json

``import repro`` resolves through ``PYTHONPATH`` first, so the second line
dumps another checkout's source with this script.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import tempfile
from typing import Dict, List

_REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
try:  # pragma: no cover - import bootstrap
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - running from a source checkout
    sys.path.insert(0, _REPO_SRC)

from repro.core.longterm_dependent import containment_cq_memo  # noqa: E402
from repro.runtime import QueryServer, RuntimeMetrics, Tracer, activate_tracer  # noqa: E402
from repro.workloads import bank_multi_query_scenario, multi_query_scenario  # noqa: E402

#: (name, builder) of each scenario, in dump order.
SCENARIOS = (
    ("bank-6", lambda: bank_multi_query_scenario(8, employees=6, offices=3, states=4)),
    ("bank-default", bank_multi_query_scenario),
    ("fanout-16", lambda: multi_query_scenario(16, 8, 8)),
)


def _rows(rows) -> List[List[str]]:
    return sorted([repr(value) for value in row] for row in rows)


def _span_multiset(spans) -> List[list]:
    names = {span.span_id: span.name for span in spans}
    counts = collections.Counter(
        (
            names.get(span.parent_id, "") if span.parent_id is not None else "",
            span.name,
            tuple(sorted(span.tags)),
        )
        for span in spans
    )
    return [[parent, name, list(keys), n] for (parent, name, keys), n in sorted(counts.items())]


def run(scenario, cache_path: str) -> Dict[str, object]:
    """One run: a fresh server over ``cache_path`` answers the batch twice."""
    containment_cq_memo().clear()
    metrics = RuntimeMetrics()
    tracer = Tracer()
    calls = []
    with activate_tracer(tracer), QueryServer(
        scenario.mediator(), cache_path=cache_path, parallelism=1, metrics=metrics
    ) as server:
        for _ in range(2):
            result = server.answer(scenario.queries)
            calls.append([_rows(answers) for answers in result.answers])
        log = [
            [access.method.name, [repr(value) for value in access.binding], returned]
            for access, returned in server.mediator.access_log
        ]
    snapshot = metrics.snapshot()
    return {
        "answers": calls,
        "access_log": log,
        "counters": dict(sorted(snapshot["counters"].items())),
        "histogram_counts": {
            name: histogram["count"]
            for name, histogram in sorted(snapshot["histograms"].items())
        },
        "spans": _span_multiset(tracer.spans()),
    }


def dump() -> Dict[str, object]:
    """Every scenario, cold then warm, over its own fresh store."""
    document = {}
    for name, build in SCENARIOS:
        scenario = build()
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "witness.sqlite")
            document[name] = {"cold": run(scenario, path), "warm": run(scenario, path)}
    return document


def main() -> int:
    json.dump(dump(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
