"""Semi-naive bottom-up evaluation of Datalog programs.

The engine works on a *database*: a mapping from predicate names to sets of
ground tuples.  Extensional facts are supplied by the caller; evaluation
returns the least fixpoint extending them with every derivable intensional
fact.

Evaluation is *indexed semi-naive*:

* facts are stored in an :class:`IndexedDatabase` carrying a hash index from
  ``(place, constant)`` to tuples, so a body literal with bound terms only
  enumerates compatible rows instead of scanning the predicate;
* each iteration only joins rule bodies against at least one *delta* (newly
  derived) literal.  Every join runs from the rule's compiled
  :class:`~repro.queries.join.JoinPlan`, kept on the :class:`Rule`: the delta
  literal is matched first, and the remaining literals follow the one order
  rule of :mod:`repro.queries.join` (fewest unbound variable places, then the
  smallest predicate, then the earliest literal).

:func:`evaluate_program_naive` preserves the straightforward scan-based
evaluator; the property tests assert both produce identical fixpoints, and it
serves as the baseline in benchmark comparisons.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.data.indexing import candidates_from_index, index_add
from repro.datalog.program import Literal, Program, Rule
from repro.queries.terms import Variable, is_variable
from repro.tracing import stage

__all__ = [
    "Database",
    "IndexedDatabase",
    "SemiNaiveEvaluation",
    "evaluate_program",
    "evaluate_program_naive",
    "query_database",
]

Database = Dict[str, Set[Tuple[object, ...]]]

_UNBOUND = object()

_EMPTY: Tuple[Tuple[object, ...], ...] = ()


class IndexedDatabase:
    """A fact store for Datalog evaluation with (place, constant) indexes.

    It serves the join kernel through the same ``tuples_matching`` /
    ``relation_size`` interface as :class:`~repro.data.instance.Instance`.
    """

    __slots__ = ("_rows", "_indexes")

    def __init__(self, edb: Optional[Mapping[str, Iterable[Tuple[object, ...]]]] = None) -> None:
        self._rows: Database = {}
        self._indexes: Dict[str, Dict[Tuple[int, object], Set[Tuple[object, ...]]]] = {}
        if edb:
            for predicate, rows in edb.items():
                self._rows.setdefault(predicate, set())
                for row in rows:
                    self.add(predicate, tuple(row))

    def add(self, predicate: str, row: Tuple[object, ...]) -> bool:
        """Add a fact, returning ``True`` if it was new."""
        rows = self._rows.setdefault(predicate, set())
        if row in rows:
            return False
        rows.add(row)
        index_add(self._indexes.setdefault(predicate, {}), row)
        return True

    def relation_size(self, predicate: str) -> int:
        """Number of rows stored for a predicate."""
        return len(self._rows.get(predicate, ()))

    def tuples_matching(
        self, predicate: str, bound: Mapping[int, object]
    ) -> Iterable[Tuple[object, ...]]:
        """Rows agreeing with ``bound`` (``place -> value``), via the index.

        May return internal sets; the evaluation loop materialises every
        rule's derivations before adding them, so no mutation happens while
        a returned collection is being iterated.
        """
        rows = self._rows.get(predicate)
        if rows is None:
            return _EMPTY
        return candidates_from_index(rows, self._indexes.get(predicate, {}), bound)

    def as_database(self) -> Database:
        """The underlying predicate-to-rows mapping."""
        return self._rows


def _rule_derivations(
    rule: Rule,
    database: IndexedDatabase,
    delta: Optional[Mapping[str, Set[Tuple[object, ...]]]] = None,
) -> Iterator[Tuple[object, ...]]:
    """Yield head tuples derivable by ``rule``.

    When ``delta`` is given, only derivations using at least one delta fact
    are produced (semi-naive restriction); this is implemented by requiring,
    for some body position, that the literal matches within the delta while
    the other literals match the full database.  Every join runs from the
    rule's compiled :attr:`~repro.datalog.program.Rule.join_plan`, with the
    delta literal first.
    """
    if rule.is_fact:
        yield rule.head.ground_values({})
        return
    plan = rule.join_plan
    if delta is None:
        yield from plan.derive(database)
        return
    for position, predicate in enumerate(plan.names):
        delta_rows = delta.get(predicate)
        if delta_rows:
            yield from plan.derive(database, position, delta_rows)


class SemiNaiveEvaluation:
    """A resumable semi-naive evaluation handle.

    Evaluates ``program`` over ``edb`` once on construction, then retains the
    evaluated :class:`IndexedDatabase` together with the delta frontier so
    that :meth:`advance` can absorb later extensional facts and continue the
    semi-naive iteration from where it stopped, instead of re-evaluating from
    an empty database.  This is what makes per-round certainty maintenance
    proportional to the merged delta rather than to the whole configuration.

    ``goal``, when given, names a ground goal predicate that occurs in **no**
    rule body.  Evaluation then short-circuits: a goal-headed rule stops at
    its first derivation (every derivation produces the same ground head),
    and once a goal fact is derived no further rules are applied — later
    :meth:`advance` calls only maintain extensional membership.  With a goal
    the database is *not* guaranteed to be the complete fixpoint; it is only
    guaranteed to contain the goal iff the fixpoint does, which is exactly
    what a monotone certainty check needs.
    """

    __slots__ = ("_program", "_database", "_goal", "_goal_derived", "iterations")

    def __init__(
        self,
        program: Program,
        edb: Optional[Mapping[str, Iterable[Tuple[object, ...]]]] = None,
        *,
        goal: Optional[str] = None,
    ) -> None:
        self._program = program
        self._goal = goal
        self._goal_derived = False
        self._database = IndexedDatabase(edb)
        self.iterations = 0

        # Naive first round (facts and rules applied once over the EDB).
        delta: Dict[str, Set[Tuple[object, ...]]] = {}
        for rule in program:
            if self._apply(rule, None, delta):
                return
        self._saturate(delta)

    @property
    def goal_derived(self) -> bool:
        """Whether the goal predicate has been derived (monotone: final)."""
        return self._goal_derived

    def holds(self, predicate: str) -> bool:
        """Whether any fact is stored for ``predicate``."""
        return self._database.relation_size(predicate) > 0

    def fact_count(self) -> int:
        """Total number of stored facts (extensional plus derived)."""
        return sum(len(rows) for rows in self._database.as_database().values())

    def database(self) -> Database:
        """The underlying predicate-to-rows mapping (shared, do not mutate)."""
        return self._database.as_database()

    def advance(self, facts: Iterable[Tuple[str, Tuple[object, ...]]]) -> List[Tuple[str, Tuple[object, ...]]]:
        """Absorb extensional ``(predicate, row)`` facts; return the new ones.

        Already-present facts are deduplicated for free.  Genuinely new facts
        seed the delta frontier and the semi-naive iteration continues until
        saturation (or until the goal fires, when a goal was declared).  Once
        the goal has been derived only membership is maintained — absorbing
        further facts costs one hash insert each.
        """
        fresh: List[Tuple[str, Tuple[object, ...]]] = []
        delta: Dict[str, Set[Tuple[object, ...]]] = {}
        for predicate, row in facts:
            row = tuple(row)
            if self._database.add(predicate, row):
                fresh.append((predicate, row))
                delta.setdefault(predicate, set()).add(row)
        if delta and not self._goal_derived:
            self._saturate(delta)
        return fresh

    def _apply(
        self,
        rule: Rule,
        delta: Optional[Mapping[str, Set[Tuple[object, ...]]]],
        delta_out: Dict[str, Set[Tuple[object, ...]]],
    ) -> bool:
        """Apply one rule, collecting new facts; ``True`` iff the goal fired."""
        head = rule.head.predicate
        derivations = _rule_derivations(rule, self._database, delta)
        if head == self._goal:
            derived = next(derivations, None)
            if derived is None:
                return False
            if self._database.add(head, derived):
                delta_out.setdefault(head, set()).add(derived)
            self._goal_derived = True
            return True
        for derived in list(derivations):
            if self._database.add(head, derived):
                delta_out.setdefault(head, set()).add(derived)
        return False

    def _saturate(self, delta: Dict[str, Set[Tuple[object, ...]]]) -> None:
        """Run semi-naive iterations until the frontier (or the goal) is done."""
        while delta:
            self.iterations += 1
            new_delta: Dict[str, Set[Tuple[object, ...]]] = {}
            for rule in self._program:
                if rule.is_fact:
                    continue
                if delta.keys().isdisjoint(rule.join_plan.names):
                    continue
                if self._apply(rule, delta, new_delta):
                    return
            delta = new_delta


def evaluate_program(
    program: Program,
    edb: Mapping[str, Iterable[Tuple[object, ...]]],
) -> Database:
    """Compute the least fixpoint of ``program`` over the extensional facts.

    Returns a new database containing the extensional facts plus every
    derived intensional fact.  One-shot wrapper over
    :class:`SemiNaiveEvaluation`; callers that re-decide the same program as
    facts trickle in should hold a handle and :meth:`~SemiNaiveEvaluation.advance` it instead.

    Under an active tracer each evaluation records a ``datalog.evaluate``
    span (rule count, semi-naive iterations).
    """
    with stage("datalog.evaluate") as span:
        evaluation = SemiNaiveEvaluation(program, edb)
        span.annotate(rules=len(program), iterations=evaluation.iterations)
        return evaluation.database()


# --------------------------------------------------------------------------- #
# Naive reference evaluator (kept for equivalence tests and benchmarks)
# --------------------------------------------------------------------------- #
def _match_scan(
    literal: Literal,
    database: Mapping[str, Set[Tuple[object, ...]]],
    assignment: Dict[Variable, object],
) -> Iterator[Dict[Variable, object]]:
    """Scan-based literal matching over a plain predicate-to-rows mapping."""
    for row in tuple(database.get(literal.predicate, set())):
        if len(row) != literal.arity:
            continue
        extension = dict(assignment)
        matched = True
        for term, value in zip(literal.terms, row):
            if is_variable(term):
                bound = extension.get(term, _UNBOUND)
                if bound is _UNBOUND:
                    extension[term] = value
                elif bound != value:
                    matched = False
                    break
            elif term != value:
                matched = False
                break
        if matched:
            yield extension


def evaluate_program_naive(
    program: Program,
    edb: Mapping[str, Iterable[Tuple[object, ...]]],
) -> Database:
    """Reference naive evaluation: apply every rule over the full database
    until nothing new is derived.  Quadratic, but obviously correct."""
    database: Database = {
        predicate: {tuple(row) for row in rows} for predicate, rows in edb.items()
    }
    changed = True
    while changed:
        changed = False
        for rule in program:
            if rule.is_fact:
                derivations: Iterable[Tuple[object, ...]] = [rule.head.ground_values({})]
            else:
                def backtrack(index: int, assignment: Dict[Variable, object]) -> Iterator[Dict[Variable, object]]:
                    if index == len(rule.body):
                        yield assignment
                        return
                    for extension in _match_scan(rule.body[index], database, assignment):
                        yield from backtrack(index + 1, extension)

                derivations = [
                    rule.head.ground_values(assignment) for assignment in backtrack(0, {})
                ]
            existing = database.setdefault(rule.head.predicate, set())
            for derived in derivations:
                if derived not in existing:
                    existing.add(derived)
                    changed = True
    return database


def query_database(
    database: Mapping[str, Set[Tuple[object, ...]]],
    goal: Literal,
) -> FrozenSet[Tuple[object, ...]]:
    """Answers to a single-literal goal over an evaluated database.

    Returns the projections of matching facts on the goal's variables, in
    first-occurrence order of the variables.
    """
    answers: Set[Tuple[object, ...]] = set()
    goal_variables = goal.variables
    for assignment in _match_scan(goal, database, {}):
        answers.add(tuple(assignment[variable] for variable in goal_variables))
    return frozenset(answers)
