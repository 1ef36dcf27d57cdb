"""Certain answers over configurations (Section 2, "Immediate relevance").

For a configuration ``Conf`` and a query ``Q``, a tuple ``t`` is a *certain
answer* if ``t`` belongs to ``Q(I)`` for every instance ``I`` consistent with
``Conf`` (i.e. every ``I`` containing ``Conf``).  Because the query languages
of the paper (conjunctive and positive queries) are *monotone*, and ``Conf``
itself is the smallest consistent instance, the certain answers at ``Conf``
are exactly ``Q(Conf)``.  This module packages that observation behind an
explicit API so that the decision procedures read like the paper.

:class:`CertaintyFixpoint` is the incremental form of :func:`is_certain` for
the dynamic answering loop, which re-decides certainty at every configuration
the accesses produce.  Instead of evaluating from scratch each round, the
fixpoint compiles the Boolean query into a Datalog program with a nullary
goal and keeps a resumable :class:`~repro.datalog.engine.SemiNaiveEvaluation`
mirroring the configuration's facts; each access batch's merged facts advance
the state, so per-round certainty work is proportional to the delta.  The
state is keyed by *fact fingerprint lineage* — the ``(size, content_hash)``
prefix of :meth:`repro.data.Configuration.fingerprint`, which ignores seed
constants because certainty depends only on the facts.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.data import Configuration, Fact
from repro.data.indexing import fact_hash
from repro.datalog.engine import SemiNaiveEvaluation
from repro.datalog.program import Literal, Program, Rule
from repro.exceptions import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import Query, evaluate, evaluate_boolean
from repro.queries.pq import PositiveQuery

__all__ = ["CertaintyFixpoint", "certain_answers", "is_certain"]

GOAL_PREDICATE = "__certain__"


def certain_answers(query: Query, configuration: Configuration) -> FrozenSet[Tuple[object, ...]]:
    """The certain answers of ``query`` at ``configuration``.

    For monotone queries this equals the evaluation of the query over the
    configuration seen as an instance.
    """
    return evaluate(query, configuration)


def is_certain(query: Query, configuration: Configuration) -> bool:
    """Whether a Boolean query is certain (true) at the configuration."""
    return evaluate_boolean(query, configuration)


def compile_certainty_program(query: Query) -> Program:
    """Compile a Boolean query into a Datalog program deriving a nullary goal.

    A conjunctive query becomes one rule ``__certain__() :- body``; a
    positive query becomes one such rule per disjunct of its union-of-CQs
    normal form.  Raises :class:`~repro.exceptions.QueryError` for
    non-Boolean queries, unsupported query types, or a DNF blowup — callers
    fall back to :func:`is_certain` in that case.
    """
    if not query.is_boolean:
        raise QueryError("certainty programs are compiled from Boolean queries")
    if isinstance(query, ConjunctiveQuery):
        disjuncts: Tuple[ConjunctiveQuery, ...] = (query,)
    elif isinstance(query, PositiveQuery):
        disjuncts = query.to_ucq()
    else:
        raise QueryError(f"unsupported query type: {type(query)!r}")
    goal = Literal(GOAL_PREDICATE, ())
    program = Program()
    for disjunct in disjuncts:
        body = tuple(Literal(atom.relation.name, atom.terms) for atom in disjunct.atoms)
        rule = Rule(goal, body)
        # The rule joins the disjunct's body and derives a nullary head, so
        # it shares the disjunct's compiled join (a cached property lives in
        # the instance dict) instead of compiling a second one.
        rule.__dict__["join_plan"] = disjunct.join_plan
        program.add(rule)
    return program


class CertaintyFixpoint:
    """Incrementally maintained certainty of one Boolean query.

    The fixpoint owns a materialized semi-naive evaluation state mirroring a
    configuration's facts, and two entry points:

    * :meth:`absorb` feeds the facts an access batch merged.  Incoming facts
      are deduplicated against the mirrored state, so feeding *every* fact of
      every merged response (rather than only the new ones) is exact — the
      lineage fingerprint tracks the configuration's own fact fingerprint.
    * :meth:`check` decides certainty at a configuration.  When the tracked
      lineage matches the configuration's fact fingerprint the verdict is
      read off the retained state (outcome ``"advanced"``); otherwise the
      state is rebuilt from the configuration's facts (``"restarted"``, the
      only path that pays for a full evaluation).  Queries that do not
      compile report ``"unsupported"`` and callers fall back to the direct
      evaluation.

    Because the goal is monotone, a derived goal is final: subsequent absorbs
    cost one hash insert per fact with no rule application at all.  The
    materialized state is bounded by ``max_facts``; exceeding it drops the
    state, and later checks soundly restart.  Instances expose
    :meth:`stats`/:meth:`reset_stats` so they can be registered as cache
    gauges with :meth:`repro.runtime.RuntimeMetrics.register_cache`.
    """

    def __init__(self, query: Query, *, max_facts: int = 1_000_000) -> None:
        self._query = query
        self._max_facts = max_facts
        self._lock = threading.Lock()
        try:
            self._program: Optional[Program] = compile_certainty_program(query)
        except QueryError:
            self._program = None
        self._evaluation: Optional[SemiNaiveEvaluation] = None
        self._size = 0
        self._content = 0
        self._advanced = 0
        self._restarted = 0
        self._absorbed = 0

    @property
    def supported(self) -> bool:
        """Whether the query compiled; unsupported fixpoints answer nothing."""
        return self._program is not None

    @property
    def max_facts(self) -> int:
        """The materialized-state bound (facts) before the state is dropped."""
        return self._max_facts

    def lineage(self) -> Tuple[int, int]:
        """The tracked ``(size, content_hash)`` fact fingerprint."""
        with self._lock:
            return (self._size, self._content)

    def absorb(self, facts: Iterable[Fact]) -> int:
        """Advance the materialized state by merged facts; return new count.

        A no-op (returning 0) when the query is unsupported or no state is
        materialized yet — the next :meth:`check` restarts from the
        configuration, which is always sound.
        """
        if self._program is None:
            return 0
        with self._lock:
            evaluation = self._evaluation
            if evaluation is None:
                return 0
            fresh = evaluation.advance(
                (fact.relation, tuple(fact.values)) for fact in facts
            )
            for predicate, row in fresh:
                self._content ^= fact_hash(predicate, row)
            self._size += len(fresh)
            self._absorbed += len(fresh)
            if evaluation.fact_count() > self._max_facts:
                self._drop_locked()
            return len(fresh)

    def check(self, configuration: Configuration) -> Tuple[Optional[bool], str]:
        """Decide certainty at ``configuration``.

        Returns ``(verdict, outcome)`` with outcome ``"advanced"`` (lineage
        matched the retained state), ``"restarted"`` (state rebuilt from the
        configuration's facts), or ``"unsupported"`` (``verdict`` is ``None``
        and the caller must evaluate directly).
        """
        if self._program is None:
            return None, "unsupported"
        size, content = configuration.fingerprint()[:2]
        with self._lock:
            evaluation = self._evaluation
            if evaluation is not None and (size, content) == (self._size, self._content):
                self._advanced += 1
                return evaluation.goal_derived, "advanced"
            self._restarted += 1
            evaluation = SemiNaiveEvaluation(
                self._program,
                {
                    relation.name: configuration.tuples(relation.name)
                    for relation in configuration.schema.relations
                },
                goal=GOAL_PREDICATE,
            )
            verdict = evaluation.goal_derived
            if evaluation.fact_count() > self._max_facts:
                self._drop_locked()
            else:
                self._evaluation = evaluation
                self._size, self._content = size, content
            return verdict, "restarted"

    def peek(self, configuration: Configuration) -> Optional[bool]:
        """The verdict at ``configuration`` iff the lineage matches.

        Never rebuilds: returns ``None`` on a lineage mismatch (or when the
        query is unsupported), so callers that must not pay for a full
        evaluation — the multi-query server deciding which queries need a
        certainty check — can probe safely.
        """
        if self._program is None:
            return None
        size, content = configuration.fingerprint()[:2]
        with self._lock:
            evaluation = self._evaluation
            if evaluation is not None and (size, content) == (self._size, self._content):
                self._advanced += 1
                return evaluation.goal_derived
        return None

    def reset(self) -> None:
        """Drop the materialized state; later checks restart soundly."""
        with self._lock:
            self._drop_locked()

    def fact_count(self) -> int:
        """Number of facts currently materialized (0 when dropped)."""
        with self._lock:
            evaluation = self._evaluation
            return evaluation.fact_count() if evaluation is not None else 0

    def stats(self) -> Dict[str, object]:
        """Cache-gauge snapshot: advances as hits, restarts as misses."""
        with self._lock:
            evaluation = self._evaluation
            entries = evaluation.fact_count() if evaluation is not None else 0
            total = self._advanced + self._restarted
            return {
                "hits": self._advanced,
                "misses": self._restarted,
                "entries": entries,
                "absorbed": self._absorbed,
                "hit_rate": (self._advanced / total) if total else 0.0,
            }

    def reset_stats(self) -> None:
        """Zero the advance/restart/absorb counters (state is kept)."""
        with self._lock:
            self._advanced = 0
            self._restarted = 0
            self._absorbed = 0

    def _drop_locked(self) -> None:
        self._evaluation = None
        self._size = 0
        self._content = 0
