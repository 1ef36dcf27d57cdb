"""A minimal Datalog representation: literals, rules, programs.

The Datalog substrate is used in two places:

* the Chang–Li *accessible part* construction (see
  :mod:`repro.datalog.accessible`): a monadic Datalog program computing which
  constants and facts can ever be obtained through the access methods;
* the Duschka–Levy *inverse rules* query plans of :mod:`repro.planner`.

Predicates here are plain strings and are not tied to a schema relation, so
intensional predicates (``acc_D``, ``acc_R``) can coexist with extensional
ones (the relations of the schema).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.queries.join import JoinPlan, plan_free_state
from repro.queries.terms import Term, Variable, is_variable

__all__ = ["Literal", "Rule", "Program"]


@dataclass(frozen=True)
class Literal:
    """A positive literal ``predicate(t1, ..., tk)``."""

    predicate: str
    terms: Tuple[Term, ...]

    @property
    def arity(self) -> int:
        """Number of terms of the literal."""
        return len(self.terms)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        """Variables of the literal, deduplicated, in order."""
        seen: List[Variable] = []
        for term in self.terms:
            if is_variable(term) and term not in seen:
                seen.append(term)
        return tuple(seen)

    def substitute(self, assignment: Mapping[Variable, object]) -> "Literal":
        """Apply a (possibly partial) assignment."""
        return Literal(
            self.predicate,
            tuple(
                assignment.get(term, term) if is_variable(term) else term
                for term in self.terms
            ),
        )

    def ground_values(self, assignment: Mapping[Variable, object]) -> Tuple[object, ...]:
        """The ground tuple under a total assignment."""
        values = []
        for term in self.terms:
            if is_variable(term):
                if term not in assignment:
                    raise QueryError(f"assignment does not bind {term!r}")
                values.append(assignment[term])
            else:
                values.append(term)
        return tuple(values)

    def is_ground(self) -> bool:
        """Whether the literal has no variables."""
        return not any(is_variable(term) for term in self.terms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(
            term.name if is_variable(term) else repr(term) for term in self.terms
        )
        return f"{self.predicate}({rendered})"


@dataclass(frozen=True)
class Rule:
    """A Datalog rule ``head :- body``.  Facts are rules with an empty body."""

    head: Literal
    body: Tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        head_vars = set(self.head.variables)
        body_vars = {
            variable for literal in self.body for variable in literal.variables
        }
        unsafe = head_vars - body_vars
        if unsafe and self.body:
            raise QueryError(
                f"unsafe rule: head variables {sorted(v.name for v in unsafe)} "
                f"do not occur in the body"
            )
        if unsafe and not self.body:
            raise QueryError("a fact (empty-body rule) must have a ground head")

    @property
    def is_fact(self) -> bool:
        """Whether the rule has an empty body (i.e. it is a ground fact)."""
        return not self.body

    @cached_property
    def join_plan(self) -> JoinPlan:
        """The compiled join of the body, projecting on the head's terms.

        Cached outside ``==``, hashing and pickled state.
        """
        return JoinPlan(
            ((literal.predicate, literal.terms) for literal in self.body),
            head=self.head.terms,
        )

    def __getstate__(self) -> Dict[str, object]:
        return plan_free_state(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_fact:
            return f"{self.head!r}."
        body = ", ".join(repr(literal) for literal in self.body)
        return f"{self.head!r} :- {body}."


class Program:
    """A Datalog program: a list of rules plus derived metadata."""

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: List[Rule] = list(rules)

    def add(self, rule: Rule) -> None:
        """Append a rule to the program."""
        self._rules.append(rule)

    @property
    def rules(self) -> Tuple[Rule, ...]:
        """All rules of the program."""
        return tuple(self._rules)

    def idb_predicates(self) -> FrozenSet[str]:
        """Predicates that occur in some rule head (intensional predicates)."""
        return frozenset(rule.head.predicate for rule in self._rules)

    def is_monadic(self) -> bool:
        """Whether every intensional predicate has arity at most 1."""
        for rule in self._rules:
            if rule.head.arity > 1:
                return False
        return True

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Program({len(self._rules)} rules)"
