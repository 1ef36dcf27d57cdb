"""Compiled conjunctive joins: the one kernel under every homomorphism search.

A :class:`JoinPlan` compiles a conjunctive *body* once: a query's atoms, a
positive query's atom node, the atoms the delta check
:func:`~repro.core.assignments.holds_after_adding` joins once the matched
atom is removed, or a Datalog rule's body.  Every variable gets an integer
slot, and every atom becomes its slot per place (``-1`` for a constant, read
from the atom's own terms) with a bitmask of its slots.  Query evaluation,
the delta check and the semi-naive certainty fixpoint all run from plans.

Each search

* orders the atoms by one rule: fewest unbound variable *places* first (a
  variable repeated in an atom counts once per place), then the smallest
  relation, then the earliest atom.  The order ignores the caller's
  pre-bound variables, and a Datalog delta literal goes first.  It is
  computed from the bitmasks; when the place counts alone decide every pick
  (always for one atom) it is fixed by the body, otherwise it takes one size
  lookup per atom;
* runs one *step program* per atom of that order: the index constraints
  handed to the store, the slots the atom binds first, and the checks of
  repeated variables.  Programs are memoized in the plan, keyed by (order,
  pre-bound slots), in a bounded memo; a program is built fully and then
  stored with one assignment, so concurrent searches can at worst build it
  twice;
* keeps the slot values in a list local to the call, so a plan is reentrant
  (a suspended enumeration, the HTTP service's threads) and no dict is
  copied per row.

Stores exposing ``tuples_matching(name, bound)`` are joined through their
(place, constant) indexes; stores exposing only ``tuples(name)`` are scanned
and filtered.  Both paths skip rows of the wrong arity.  Sizes come from
``relation_size(name)``, or ``len(tuples(name))`` for stores without it.

Plans live on their owners (:class:`~repro.queries.cq.ConjunctiveQuery`,
:class:`~repro.queries.pq.AtomNode`, :class:`~repro.datalog.program.Rule`),
outside equality, hashing, canonical forms and pickled state
(:func:`plan_free_state`); there is no module-level plan memo.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.queries.terms import Term, Variable

__all__ = ["JoinPlan", "plan_free_state"]

#: Instance attributes under which owners cache their plans.
_PLAN_ATTRIBUTES = frozenset({"join_plan", "_rest_plans"})

_UNBOUND = object()

#: Step programs kept per plan; a plan rarely sees more than a few orders.
_PROGRAM_MEMO_SIZE = 32

#: One step: relation name, arity, the atom's slot per place (``-1`` for a
#: constant) and its terms, the bound places in place order (the index
#: constraints), the places whose slots it binds first, and the
#: repeated-variable checks ``(place, first place)``.
_Step = Tuple[
    str, int, Tuple[int, ...], Sequence[Term], Tuple[int, ...], Tuple[int, ...], tuple
]

#: A step program: the steps, and the slots they bind, in binding order.
_Program = Tuple[Tuple[_Step, ...], Tuple[int, ...]]


def plan_free_state(owner: object) -> Dict[str, object]:
    """``owner.__dict__`` without its cached plans (for ``__getstate__``).

    Plans are derived data: pickles and copies of an owner carry only its
    fields, so an evaluated query pickles to the same bytes as an equal one
    that was never evaluated.
    """
    return {
        key: value
        for key, value in owner.__dict__.items()
        if key not in _PLAN_ATTRIBUTES
    }


class JoinPlan:
    """A conjunctive body compiled to integer variable slots.

    ``body`` is a sequence of ``(relation name, terms)`` pairs; ``head``
    (Datalog rules) is the term tuple :meth:`derive` projects solutions on.
    ``len(plan)`` is the number of atoms.
    """

    __slots__ = (
        "names", "variables", "_slots", "_terms", "_masks", "_repeats", "_head",
        "_orders", "_programs",
    )

    def __init__(
        self, body: Iterable[Tuple[str, Sequence[Term]]], head: Sequence[Term] = ()
    ) -> None:
        # Slots are keyed by variable name: variables are equal exactly when
        # their names are, and a str hashes without a Python-level call.
        slot_of: Dict[str, int] = {}
        variables: List[Variable] = []
        names: List[str] = []
        slots: List[Tuple[int, ...]] = []
        terms_of: List[Sequence[Term]] = []
        masks: List[int] = []
        # repeats[i][k]: the slots occurring more than k + 1 times in atom i,
        # so the popcounts of its mask and repeats count its places.
        repeats: List[Tuple[int, ...]] = []
        for name, terms in body:
            terms = tuple(terms)
            atom_slots = []
            mask = 0
            levels: List[int] = []
            for term in terms:
                if isinstance(term, Variable):
                    slot = slot_of.get(term.name)
                    if slot is None:
                        slot = slot_of[term.name] = len(variables)
                        variables.append(term)
                    bit = 1 << slot
                    if mask & bit:
                        _add_repeat(levels, bit)
                    mask |= bit
                    atom_slots.append(slot)
                else:
                    atom_slots.append(-1)
            names.append(name)
            slots.append(tuple(atom_slots))
            terms_of.append(terms)
            masks.append(mask)
            repeats.append(tuple(levels))
        self.names: Tuple[str, ...] = tuple(names)
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self._slots = tuple(slots)
        self._terms = tuple(terms_of)
        self._masks = tuple(masks)
        self._repeats = tuple(repeats) if any(repeats) else None
        self._head = tuple(
            (slot_of[term.name], None) if isinstance(term, Variable) else (-1, term)
            for term in head
        )
        # The order fixed by the body for no first atom (index 0) and for
        # each first atom (index i + 1): unknown, None (sizes decide) or
        # the order.
        self._orders: List[object] = [_UNBOUND] * (len(names) + 1)
        self._programs: Dict[Tuple[Tuple[int, ...], int], _Program] = {}

    @classmethod
    def of_atoms(cls, atoms: Iterable[object]) -> "JoinPlan":
        """The plan of a sequence of :class:`~repro.queries.atoms.Atom`."""
        return cls((atom.relation.name, atom.terms) for atom in atoms)  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JoinPlan({', '.join(self.names)})"

    # ------------------------------------------------------------------ #
    # Searches
    # ------------------------------------------------------------------ #
    def solutions(
        self,
        data: object,
        partial: Optional[Mapping[Variable, object]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[Variable, object]]:
        """Homomorphisms of the body into ``data`` extending ``partial``.

        Each is a new dict holding ``partial``'s keys, then the body's other
        variables in binding order.  The empty body yields ``partial`` once.
        ``limit`` stops the enumeration after that many homomorphisms.
        """
        if not self.names:
            yield dict(partial or {})
            return
        values, (steps, bind_slots) = self._start(data, partial, None)
        base = dict(partial) if partial else {}
        variables = self.variables
        produced = 0
        for values in _search(steps, data, values, None):
            solution = base.copy()
            for slot in bind_slots:
                solution[variables[slot]] = values[slot]
            yield solution
            produced += 1
            if limit is not None and produced >= limit:
                return

    def exists(
        self, data: object, partial: Optional[Mapping[Variable, object]] = None
    ) -> bool:
        """Whether some homomorphism of the body extends ``partial``."""
        if not self.names:
            return True
        values, (steps, _binds) = self._start(data, partial, None)
        for _ in _search(steps, data, values, None):
            return True
        return False

    def derive(
        self,
        data: object,
        first: Optional[int] = None,
        first_rows: Optional[Iterable[Tuple[object, ...]]] = None,
    ) -> Iterator[Tuple[object, ...]]:
        """The head tuple of every solution (semi-naive rule application).

        With ``first``, atom ``first`` is joined first and matched against
        ``first_rows`` (the delta) instead of ``data``.
        """
        values, (steps, _binds) = self._start(data, None, first)
        head = self._head
        for values in _search(steps, data, values, first_rows):
            yield tuple(
                [values[slot] if slot >= 0 else constant for slot, constant in head]
            )

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def _start(
        self,
        data: object,
        partial: Optional[Mapping[Variable, object]],
        first: Optional[int],
    ) -> Tuple[List[object], _Program]:
        """Slot values pre-bound from ``partial``, and the step program."""
        values: List[object] = [None] * len(self.variables)
        prebound = 0
        if partial:
            get = partial.get
            for slot, variable in enumerate(self.variables):
                value = get(variable, _UNBOUND)
                if value is not _UNBOUND:
                    values[slot] = value
                    prebound |= 1 << slot
        order = self._order(data, first)
        key = (order, prebound)
        program = self._programs.get(key)
        if program is None:
            program = self._compile(order, prebound)
            if len(self._programs) >= _PROGRAM_MEMO_SIZE:
                self._programs = {}
            self._programs[key] = program
        return values, program

    def _order(self, data: object, first: Optional[int]) -> Tuple[int, ...]:
        """The join order (see the module docstring)."""
        index = 0 if first is None else first + 1
        fixed = self._orders[index]
        if fixed is _UNBOUND:
            fixed = self._orders[index] = self._greedy(first, None)
        if fixed is not None:
            return fixed  # type: ignore[return-value]
        sizer = getattr(data, "relation_size", None)
        sizes = [_relation_size(data, sizer, name) for name in self.names]
        return self._greedy(first, sizes)  # type: ignore[return-value]

    def _greedy(
        self, first: Optional[int], sizes: Optional[List[int]]
    ) -> Optional[Tuple[int, ...]]:
        """Pick atoms by (unbound places, size, position), ``first`` first.

        Without ``sizes``, ``None`` when two atoms tie on unbound places.
        """
        masks = self._masks
        repeats = self._repeats
        remaining = list(range(len(masks)))
        order: List[int] = []
        bound = 0
        if first is not None:
            remaining.remove(first)
            order.append(first)
            bound = masks[first]
        while len(remaining) > 1:
            best = -1
            best_unbound = 0
            tied = False
            for index in remaining:
                unbound = bin(masks[index] & ~bound).count("1")
                if repeats is not None:
                    for slots in repeats[index]:
                        unbound += bin(slots & ~bound).count("1")
                if best < 0 or unbound < best_unbound:
                    best, best_unbound, tied = index, unbound, False
                elif unbound == best_unbound:
                    if sizes is None:
                        tied = True
                    elif sizes[index] < sizes[best]:
                        best = index
            if tied:
                return None
            remaining.remove(best)
            order.append(best)
            bound |= masks[best]
        order.extend(remaining)
        return tuple(order)

    def _compile(self, order: Tuple[int, ...], prebound: int) -> _Program:
        """The step program of ``order`` when ``prebound`` slots are bound."""
        bound = prebound
        steps: List[_Step] = []
        bind_slots: List[int] = []
        for index in order:
            slots = self._slots[index]
            template: List[int] = []
            binds: List[int] = []
            checks: List[Tuple[int, int]] = []
            first_place: Dict[int, int] = {}
            for place, slot in enumerate(slots):
                if slot < 0 or bound >> slot & 1:
                    template.append(place)
                elif slot in first_place:
                    checks.append((place, first_place[slot]))
                else:
                    first_place[slot] = place
                    binds.append(place)
                    bind_slots.append(slot)
            bound |= self._masks[index]
            steps.append(
                (
                    self.names[index],
                    len(slots),
                    slots,
                    self._terms[index],
                    tuple(template),
                    tuple(binds),
                    tuple(checks),
                )
            )
        return tuple(steps), tuple(bind_slots)


def _add_repeat(levels: List[int], bit: int) -> None:
    """Count one more occurrence of ``bit``'s slot in an atom's repeat levels."""
    for level, slots in enumerate(levels):
        if not slots & bit:
            levels[level] |= bit
            return
    levels.append(bit)


def _relation_size(data: object, sizer, name: str) -> int:
    # Defensive: an unknown relation sorts as empty and fails when matched.
    try:
        if sizer is not None:
            return sizer(name)
        return len(data.tuples(name))  # type: ignore[attr-defined]
    except Exception:
        return 0


def _search(
    steps: Tuple[_Step, ...],
    data: object,
    values: List[object],
    first_rows: Optional[Iterable[Tuple[object, ...]]],
) -> Iterator[List[object]]:
    """Backtrack over ``steps``, yielding ``values`` at every solution.

    The yielded list is the search's own slot array: read it before
    resuming the generator.  With ``first_rows``, the first step scans those
    rows instead of ``data``.
    """
    matcher = getattr(data, "tuples_matching", None)

    def rows_for(step: _Step, scanned: Optional[Iterable[Tuple[object, ...]]]):
        name, arity, slots, terms, template, _binds, _checks = step
        bound: Dict[int, object] = {}
        for place in template:
            slot = slots[place]
            bound[place] = terms[place] if slot < 0 else values[slot]
        if scanned is None:
            if matcher is not None:
                return matcher(name, bound)
            scanned = data.tuples(name)  # type: ignore[attr-defined]
        constraints = tuple(bound.items())
        return [
            row
            for row in scanned
            if len(row) == arity
            and all(row[place] == value for place, value in constraints)
        ]

    last = len(steps) - 1
    pending: List[Iterator[Tuple[object, ...]]] = [iter(())] * len(steps)
    pending[0] = iter(rows_for(steps[0], first_rows))
    depth = 0
    while depth >= 0:
        _name, arity, slots, _terms, _template, binds, checks = steps[depth]
        for row in pending[depth]:
            if len(row) != arity:
                continue
            if checks and any(row[place] != row[other] for place, other in checks):
                continue
            for place in binds:
                values[slots[place]] = row[place]
            if depth == last:
                yield values
                continue
            depth += 1
            pending[depth] = iter(rows_for(steps[depth], None))
            break
        else:
            depth -= 1
