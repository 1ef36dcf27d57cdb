"""Ground-once enumeration of witness groundings for the decision procedures.

The procedures for immediate relevance, long-term relevance, and containment
(Propositions 4.1, 4.5, 5.7 and Section 5) guess mappings of the query
variables into the active domain of the configuration extended with a
bounded number of fresh constants, then classify every ground subgoal.
:func:`iter_witness_assignments` is the one enumerator behind all of them:

* a variable of an *infinite* domain ranges over the *useful* active-domain
  values of its domain plus a pool of fresh values (one shared pool per
  domain, as many values as requested);
* a variable of an *enumerated* domain ranges over the full enumeration (any
  value may appear in an instance consistent with the configuration);
* every subgoal is grounded once, at the depth where its last variable is
  bound, and the enumerator yields those ground tuples.

:func:`holds_after_adding` is the matching delta check: whether a query that
is false on the configuration holds once a grounding's new facts are added,
decided from those facts without copying the configuration.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.data import Configuration, Fact, PathView
from repro.chase.fresh import FreshConstants
from repro.queries.homomorphism import has_homomorphism
from repro.queries.terms import Variable, is_variable
from repro.schema import AbstractDomain

__all__ = [
    "Grounding",
    "holds_after_adding",
    "iter_witness_assignments",
    "split_grounding",
    "unify_terms",
    "witnessable_atom_checker",
]

#: The ground tuple of every subgoal, in subgoal order.
Grounding = Tuple[Tuple[object, ...], ...]


def witnessable_atom_checker(atoms, configuration, schema, access):
    """Per-atom feasibility for the witness enumeration of the LTR searches.

    A ground subgoal can participate in a witness when it is already in the
    configuration, can be part of the probed access's response, or lies in a
    relation that later accesses can produce.  Atoms over relations with an
    access method are always witnessable, so the check short-circuits to the
    interesting cases.
    """
    atoms = tuple(atoms)
    always = [schema.has_access(atom.relation.name) for atom in atoms]
    access_relation = access.relation.name if access is not None else None

    def feasible(atom_index: int, values) -> bool:
        if always[atom_index]:
            return True
        atom = atoms[atom_index]
        if configuration.contains(atom.relation.name, values):
            return True
        if access is not None and atom.relation.name == access_relation:
            return access.matches(values)
        return False

    return feasible


def split_grounding(
    atoms, grounding: Grounding, configuration: Configuration, access=None
) -> Tuple[List[Fact], List[Fact]]:
    """Split a grounding's missing subgoals into first-access and later facts.

    Subgoals already in the configuration need no access.  A missing subgoal
    that matches the binding of ``access`` goes to the first access's
    response; every other one must be produced by later accesses, which the
    per-atom checks of the enumeration (:func:`witnessable_atom_checker`, or
    containment's) guarantee is possible.  By monotonicity of positive
    queries this priority order loses no witness.
    """
    first: List[Fact] = []
    later: List[Fact] = []
    for atom, values in zip(atoms, grounding):
        name = atom.relation.name
        if configuration.contains(name, values):
            continue
        if access is not None and name == access.relation.name and access.matches(values):
            first.append(Fact(name, values))
        else:
            later.append(Fact(name, values))
    return first, later


def unify_terms(terms, values) -> Optional[Dict[Variable, object]]:
    """The substitution sending ``terms`` onto ``values``, or ``None``.

    ``None`` when a constant differs from its value or a repeated variable
    meets two different values.
    """
    substitution: Dict[Variable, object] = {}
    for term, value in zip(terms, values):
        if is_variable(term):
            if substitution.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return substitution


def holds_after_adding(
    disjuncts, configuration: Configuration, facts: Iterable[Fact]
) -> bool:
    """Whether some disjunct holds once ``facts`` are added to ``configuration``.

    Precondition: no disjunct holds on ``configuration``.  Then every match
    on the extended configuration sends some atom onto one of ``facts`` that
    the configuration lacks, so only those matches are searched: each atom is
    unified with each new fact of its relation, and the disjunct's remaining
    atoms are joined under that substitution with
    :func:`~repro.queries.homomorphism.has_homomorphism`, from the plan the
    disjunct keeps for them (:meth:`~repro.queries.cq.ConjunctiveQuery.rest_plan`,
    compiled on its first join).  A disjunct with no remaining atom holds
    without touching the configuration.  The joins run over a read-only
    :class:`~repro.data.paths.PathView` of ``configuration`` holding the new
    facts, so nothing is written to the configuration and no copy is taken.

    Every fact is first validated with its relation's ``check_values``, as
    :meth:`~repro.data.instance.Instance.add` does, so a malformed fact
    raises :class:`~repro.exceptions.SchemaError` even when no join needs it.
    Under the precondition the answer equals evaluating the disjunction on
    ``configuration.extended_with(facts)``.
    """
    schema = configuration.schema
    new: Dict[str, Dict[Tuple[object, ...], None]] = {}
    for fact in facts:
        row = tuple(fact.values)
        schema.relation(fact.relation).check_values(row)
        if not configuration.contains(fact.relation, row):
            new.setdefault(fact.relation, {})[row] = None
    joins = []
    for disjunct in disjuncts:
        atoms = disjunct.atoms
        for index, atom in enumerate(atoms):
            for row in new.get(atom.relation.name, ()):
                substitution = unify_terms(atom.terms, row)
                if substitution is None:
                    continue
                if len(atoms) == 1:
                    return True
                joins.append((disjunct, index, substitution))
    if not joins:
        return False
    view = PathView(configuration)
    for name, rows in new.items():
        for row in rows:
            view.add(name, row)
    return any(
        has_homomorphism(disjunct.rest_plan(index), view, substitution)
        for disjunct, index, substitution in joins
    )


def iter_witness_assignments(
    atoms,
    variable_domains: Mapping[Variable, AbstractDomain],
    configuration: Configuration,
    access=None,
    *,
    schema=None,
    fresh_per_domain: int = 1,
    max_assignments: Optional[int] = None,
    prefer_fresh: bool = False,
    preferred_values: Sequence[object] = (),
    atom_feasible: Optional[Callable[[int, Tuple[object, ...]], bool]] = None,
) -> Iterator[Grounding]:
    """Enumerate witness groundings of ``atoms`` over *useful* values.

    Each item is a :data:`Grounding`: the ground tuple of every atom, in the
    order of ``atoms``, under one assignment of the atoms' variables.

    A witness (for immediate relevance, long-term relevance, or
    non-containment) only benefits from mapping a variable ``x`` to an
    active-domain value ``v`` when ``v`` can actually participate in a
    witnessed subgoal through ``x``: either ``v`` occurs in a configuration
    fact at one of the places where ``x`` occurs, or ``v`` is a binding value
    of the probed access at an input place where ``x`` occurs.  Any other
    active-domain value is interchangeable with a fresh constant, so the
    enumeration skips it.  Variables of enumerated domains still range over
    the whole enumeration.

    When ``schema`` is supplied (long-term relevance and containment, where
    witnesses may produce new facts), a variable occurring at an *input place*
    of some dependent access method additionally ranges over every
    active-domain value of its abstract domain: binding a dependent input to
    an already-known constant is how a witness avoids support chains.

    Three further reductions keep the enumeration small without losing any
    witness the flat cartesian product would find:

    * **canonical fresh values** — distinct fresh constants of one abstract
      domain are interchangeable (none occurs in the configuration, the
      binding, or the query), so assignments are enumerated up to renaming of
      the fresh pool: a variable may reuse a fresh value already taken by an
      earlier variable of its domain, or take the *next* unused one, never an
      arbitrary member of the pool.  Every witness of the full product maps to
      exactly one canonical representative, so verdicts are unchanged while
      the fresh branching drops from ``k^n`` to the number of set partitions;
    * **per-atom pruning** — when ``atom_feasible`` is supplied, every atom is
      checked as soon as it is ground (``atom_feasible(atom_index,
      ground_values)``); infeasible branches are cut before the remaining
      variables are expanded, so every yielded grounding passes the check;
    * **first-fact liveness** — when ``access`` is given, only groundings in
      which some subgoal is a response fact of ``access`` missing from the
      configuration are yielded.  The enumeration tracks which subgoals can
      still be such a fact: a subgoal dies when a variable at one of its
      input places takes a value other than the binding, or when its ground
      image is already in the configuration, and a branch is cut as soon as
      none is left.  When no subgoal qualifies from the start, nothing is
      enumerated.

    Precondition of the first-fact pruning: the query does not already hold
    on ``configuration``.  Then every witness has a missing subgoal that only
    the probed access can supply: by shape for the long-term relevance
    searches, and for immediate relevance because a witnessed subgoal outside
    the configuration can only be a response fact.  Searches without a probed
    access (containment, the generic-response shape) pass ``access=None``.

    The pruning only drops groundings the callers discard, and the survivors
    keep their enumeration order.  ``max_assignments`` caps the number of
    *yielded* groundings; when it trips with an ``access`` the search has
    covered a superset of the useful prefix an unpruned enumeration would
    cover under the same cap, so a verdict can only gain a witness, and both
    are sound.

    This restriction keeps the guessing step polynomial in the configuration
    for a fixed query (the data-complexity claims of Propositions 4.1, 4.5,
    and 5.7) while preserving the witnesses the unrestricted enumeration
    would find.
    """
    atoms = tuple(atoms)
    variables: List[Variable] = []
    for atom in atoms:
        for variable in atom.variables:
            if variable not in variables:
                variables.append(variable)
    total = len(variables)

    # Compile each atom into slot descriptors so grounding a branch costs a
    # list walk instead of per-term hash lookups, and record at which depth
    # (index of its last variable in ``variables``) each atom becomes ground.
    variable_index = {variable: index for index, variable in enumerate(variables)}
    compiled: List[Tuple[Tuple[Tuple[int, object], ...], int]] = []
    for atom in atoms:
        slots = tuple(
            (variable_index[term], None) if is_variable(term) else (-1, term)
            for term in atom.terms
        )
        last_depth = max(
            (variable_index[term] for term in atom.terms if is_variable(term)),
            default=-1,
        )
        compiled.append((slots, last_depth))

    def ground(slots: Tuple[Tuple[int, object], ...], chosen: List[object]):
        return tuple(
            chosen[index] if index >= 0 else constant for index, constant in slots
        )

    grounded: List[Tuple[object, ...]] = [()] * len(atoms)
    atoms_at_depth: List[List[int]] = [[] for _ in range(total)]
    for atom_index, (slots, last_depth) in enumerate(compiled):
        if last_depth >= 0:
            atoms_at_depth[last_depth].append(atom_index)
            continue
        grounded[atom_index] = ground(slots, [])
        if atom_feasible is not None and not atom_feasible(
            atom_index, grounded[atom_index]
        ):
            return

    # First-fact liveness: a bit per subgoal that can still be a response
    # fact of ``access`` missing from the configuration.  ``binding_checks``
    # kills a subgoal when the variable at one of its input places leaves
    # the binding; ``membership_checks`` kills it when its ground image is
    # already a configuration fact.
    binding_by_place = access.binding_by_place if access is not None else {}
    live = 0
    binding_checks: List[List[Tuple[int, object]]] = [[] for _ in range(total)]
    membership_checks: List[List[int]] = [[] for _ in range(total)]
    prune = access is not None
    if prune:
        for atom_index, atom in enumerate(atoms):
            slots, last_depth = compiled[atom_index]
            if atom.relation.name != access.relation.name or any(
                slots[place][0] < 0 and slots[place][1] != value
                for place, value in binding_by_place.items()
            ):
                continue
            if last_depth < 0:
                if configuration.contains(atom.relation.name, grounded[atom_index]):
                    continue
            else:
                membership_checks[last_depth].append(atom_index)
            for place, value in binding_by_place.items():
                if slots[place][0] >= 0:
                    binding_checks[slots[place][0]].append((1 << atom_index, value))
            live |= 1 << atom_index
        if not live:
            return

    useful: Dict[Variable, set] = {variable: set() for variable in variables}
    seed_constants = getattr(configuration, "seed_constants", frozenset())
    for atom in atoms:
        rows = configuration.tuples(atom.relation.name)
        for place, term in enumerate(atom.terms):
            if term not in useful:
                continue
            for row in rows:
                useful[term].add(row[place])
            if (
                access is not None
                and atom.relation.name == access.relation.name
                and place in binding_by_place
            ):
                useful[term].add(binding_by_place[place])
    # Seed constants (query constants, known identifiers) occur in no fact but
    # can still be required as dependent-access inputs in a witness.
    for variable in variables:
        domain = variable_domains[variable]
        for value, constant_domain in seed_constants:
            if constant_domain == domain:
                useful[variable].add(value)

    if schema is not None:
        adom = configuration.active_domain()
        input_place_variables = set()
        for atom in atoms:
            if not schema.has_relation(atom.relation.name):
                continue
            input_places = set()
            for method in schema.methods_for(atom.relation.name):
                if method.dependent:
                    input_places.update(method.input_places)
            for place in input_places:
                term = atom.terms[place]
                if term in useful:
                    input_place_variables.add(term)
        for variable in input_place_variables:
            domain = variable_domains[variable]
            for value, value_domain in adom:
                if value_domain == domain:
                    useful[variable].add(value)

    fresh = FreshConstants({value for value, _ in configuration.active_domain()})
    fresh_pools: Dict[str, Tuple[object, ...]] = {}
    known_pools: List[Optional[Tuple[object, ...]]] = []
    for variable in variables:
        domain = variable_domains[variable]
        if domain.is_enumerated:
            pool: Tuple[object, ...] = tuple(sorted(domain.values or (), key=repr))
            if preferred_values:
                front = tuple(v for v in preferred_values if v in pool)
                if front:
                    pool = front + tuple(v for v in pool if v not in front)
            if not pool:
                return
            known_pools.append(((), pool))
        else:
            if domain.name not in fresh_pools:
                fresh_pools[domain.name] = fresh.several(domain, fresh_per_domain)
            known = tuple(sorted(useful[variable], key=repr))
            # ``preferred_values`` (e.g. the output values of the probed
            # access) are hoisted in front of *everything*, including the
            # fresh choices interleaved below; the split is kept explicit so
            # ``prefer_fresh`` can order the remainder.
            preferred_front: Tuple[object, ...] = ()
            if preferred_values:
                preferred_front = tuple(v for v in preferred_values if v in known)
                if preferred_front:
                    known = tuple(v for v in known if v not in preferred_front)
            known_pools.append((preferred_front, known))

    enumerated_flags = [variable_domains[v].is_enumerated for v in variables]
    domain_names = [variable_domains[v].name for v in variables]
    relation_names = [atom.relation.name for atom in atoms]
    chosen: List[object] = [None] * total
    used_fresh: Dict[str, int] = {name: 0 for name in fresh_pools}
    produced = 0

    def expand(depth: int, live: int) -> Iterator[Grounding]:
        nonlocal produced
        if depth == total:
            yield tuple(grounded)
            produced += 1
            return
        preferred_front, known = known_pools[depth]
        if enumerated_flags[depth]:
            choices: Sequence[Tuple[object, bool]] = [
                (value, False) for value in known
            ]
        else:
            name = domain_names[depth]
            pool = fresh_pools[name]
            used = used_fresh[name]
            # Canonical fresh choices: every fresh value an earlier variable
            # already uses, plus at most one yet-unused value.
            fresh_choices = [(value, False) for value in pool[:used]]
            if used < len(pool):
                fresh_choices.append((pool[used], True))
            front_choices = [(value, False) for value in preferred_front]
            known_choices = [(value, False) for value in known]
            # ``prefer_fresh`` flips the enumeration order so witnesses built
            # from facts *outside* the configuration are tried first; the
            # preferred values stay in front either way.  With
            # ``max_assignments=None`` the reordering cannot affect the
            # verdict (the same set is enumerated); under a finite budget it
            # changes which prefix is searched, trading one incompleteness
            # frontier for another — soundness is unaffected either way.
            if prefer_fresh:
                choices = front_choices + fresh_choices + known_choices
            else:
                choices = front_choices + known_choices + fresh_choices
        completed = atoms_at_depth[depth]
        kills = binding_checks[depth]
        members = membership_checks[depth]
        for value, is_new_fresh in choices:
            if max_assignments is not None and produced >= max_assignments:
                return
            chosen[depth] = value
            branch_live = live
            for bit, bound in kills:
                if value != bound:
                    branch_live &= ~bit
            if prune and not branch_live:
                continue
            feasible = True
            for atom_index in completed:
                values = ground(compiled[atom_index][0], chosen)
                grounded[atom_index] = values
                if atom_feasible is not None and not atom_feasible(atom_index, values):
                    feasible = False
                    break
            if not feasible:
                continue
            for atom_index in members:
                bit = 1 << atom_index
                if branch_live & bit and configuration.contains(
                    relation_names[atom_index], grounded[atom_index]
                ):
                    branch_live &= ~bit
            if prune and not branch_live:
                continue
            if is_new_fresh:
                used_fresh[domain_names[depth]] += 1
            yield from expand(depth + 1, branch_live)
            if is_new_fresh:
                used_fresh[domain_names[depth]] -= 1

    yield from expand(0, live)
