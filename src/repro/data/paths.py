"""Well-formed accesses, responses, access paths, and truncation (Section 2).

This module implements the operational semantics of accesses:

* a *well-formed access* at a configuration is an access whose binding values
  are allowed (always, for independent methods; present in the active domain
  with matching abstract domains, for dependent methods);
* performing an access yields a *response*: a set of tuples of the accessed
  relation compatible with the binding (accesses are *sound* but not
  necessarily exact — any sound subset may be returned);
* a *path* is a sequence of accesses with their responses, starting at a
  configuration; it determines a final configuration;
* the *truncation* of a path removes its initial access and keeps the longest
  prefix of the remaining accesses that stays well-formed without it.  The
  truncation is the key ingredient in the definition of long-term relevance.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import AccessError
from repro.data.configuration import Configuration
from repro.data.instance import Fact, Instance
from repro.schema import Access, AccessMethod, Schema

__all__ = [
    "AccessResponse",
    "AccessPath",
    "is_well_formed",
    "apply_access",
    "merge_well_formed_prefix",
    "response_from_instance",
    "enumerate_well_formed_accesses",
]


def is_well_formed(access: Access, configuration: Configuration) -> bool:
    """Whether ``access`` is well-formed at ``configuration``.

    Independent accesses are always well-formed.  Dependent accesses require
    every binding value, paired with the abstract domain of its input place,
    to be in the active domain of the configuration.
    """
    if not access.method.dependent:
        return True
    adom = configuration.active_domain()
    return all(pair in adom for pair in access.binding_with_domains())


@dataclass(frozen=True)
class AccessResponse:
    """The observed result of one access: the tuples returned by the source.

    Responses are validated to be *sound with respect to the binding*: every
    returned tuple belongs to the accessed relation and agrees with the
    binding on the input places.  Soundness with respect to a hidden instance
    is the responsibility of the caller (see :func:`response_from_instance`).
    """

    access: Access
    facts: Tuple[Tuple[object, ...], ...]

    def __post_init__(self) -> None:
        relation = self.access.relation
        for values in self.facts:
            relation.check_values(values)
            if not self.access.matches(values):
                raise AccessError(
                    f"response tuple {values!r} does not match the binding of "
                    f"{self.access!r}"
                )

    @staticmethod
    def trusted(access: Access, facts: Tuple[Tuple[object, ...], ...]) -> "AccessResponse":
        """Build a response *without* re-validating the tuples.

        For callers that obtained ``facts`` by an index lookup keyed on the
        binding (e.g. :class:`~repro.sources.service.DataSource`), validation
        is redundant; this constructor skips it.  The caller guarantees every
        tuple belongs to the accessed relation and agrees with the binding.
        """
        response = object.__new__(AccessResponse)
        object.__setattr__(response, "access", access)
        object.__setattr__(response, "facts", facts)
        return response

    def as_facts(self) -> Tuple[Fact, ...]:
        """The response tuples as :class:`~repro.data.instance.Fact` objects."""
        relation_name = self.access.relation.name
        return tuple(Fact(relation_name, values) for values in self.facts)

    def is_empty(self) -> bool:
        """Whether the access returned no tuple."""
        return not self.facts

    def __len__(self) -> int:
        return len(self.facts)


def response_from_instance(
    access: Access,
    instance: Instance,
    subset: Optional[Iterable[Tuple[object, ...]]] = None,
) -> AccessResponse:
    """Build a sound response to ``access`` drawn from ``instance``.

    By default the *exact* response (all matching tuples of the instance) is
    returned; passing ``subset`` restricts the response to the given tuples,
    which must all be matching tuples of the instance — this models sound but
    inexact sources.
    """
    matching = set(access.select(instance.tuples(access.relation)))
    if subset is None:
        chosen = tuple(sorted(matching, key=repr))
    else:
        chosen = tuple(subset)
        for values in chosen:
            if tuple(values) not in matching:
                raise AccessError(
                    f"tuple {values!r} is not a sound response to {access!r} "
                    f"for the given instance"
                )
    return AccessResponse(access, tuple(tuple(values) for values in chosen))


def apply_access(
    configuration: Configuration,
    response: AccessResponse,
    *,
    check_well_formed: bool = True,
) -> Configuration:
    """The successor configuration ``Conf + (AcM, Bind, Resp)``.

    The accessed relation gains the response tuples; every other relation is
    unchanged.  If ``check_well_formed`` is true (the default) the access must
    be well-formed at ``configuration``.
    """
    if check_well_formed and not is_well_formed(response.access, configuration):
        raise AccessError(
            f"access {response.access!r} is not well-formed at the configuration"
        )
    return configuration.extended_with(response.as_facts())


def merge_well_formed_prefix(
    configuration: Configuration,
    steps: Sequence[AccessResponse],
    added: List[Fact],
) -> int:
    """Merge the longest well-formed prefix of ``steps`` into ``configuration``.

    Each step is checked at the configuration grown by the steps before it;
    the first ill-formed step ends the prefix, and no later step is merged.
    Every fact actually added is appended to ``added`` as it lands, so the
    caller's undo log is complete even if a merge raises; removing those
    facts in reverse order restores ``configuration`` exactly.  Returns how
    many steps were merged.

    This is the one implementation of the truncation rule:
    :meth:`AccessPath.truncation_view` applies it to ``steps[1:]``, and
    :meth:`~repro.runtime.witness.LtrWitness.revalidate` replays a witness
    path through it once for both the truncation and the full path.
    """
    merged = 0
    for response in steps:
        if not is_well_formed(response.access, configuration):
            break
        for fact in response.as_facts():
            if configuration.add_fact(fact):
                added.append(fact)
        merged += 1
    return merged


@dataclass
class AccessPath:
    """A path: an initial configuration and a sequence of access responses.

    The path of the paper is the alternating sequence
    ``Conf_1, (AcM_1, Bind_1), Conf_2, ...``; here each step stores the access
    together with the tuples it returned, and successor configurations are
    recomputed on demand.
    """

    initial: Configuration
    steps: List[AccessResponse] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def extended(self, response: AccessResponse) -> "AccessPath":
        """A new path with one more step appended."""
        return AccessPath(self.initial, list(self.steps) + [response])

    def append(self, response: AccessResponse) -> None:
        """Append a step in place."""
        self.steps.append(response)

    def __len__(self) -> int:
        return len(self.steps)

    # ------------------------------------------------------------------ #
    # Semantics
    # ------------------------------------------------------------------ #
    def configurations(self) -> Iterator[Configuration]:
        """Yield the successive configurations, starting with the initial one."""
        current = self.initial
        yield current
        for response in self.steps:
            current = apply_access(current, response, check_well_formed=False)
            yield current

    def final_configuration(self) -> Configuration:
        """The configuration reached after every step of the path."""
        current = self.initial
        for response in self.steps:
            current = apply_access(current, response, check_well_formed=False)
        return current

    def is_well_formed(self) -> bool:
        """Whether every access of the path is well-formed when it is made."""
        current = self.initial
        for response in self.steps:
            if not is_well_formed(response.access, current):
                return False
            current = apply_access(current, response, check_well_formed=False)
        return True

    def is_sound_for(self, instance: Instance) -> bool:
        """Whether every response only returns tuples present in ``instance``."""
        for response in self.steps:
            for values in response.facts:
                if not instance.contains(response.access.relation, values):
                    return False
        return True

    # ------------------------------------------------------------------ #
    # Truncation (Section 2, "Long-term impact")
    # ------------------------------------------------------------------ #
    def truncation(self) -> "AccessPath":
        """The truncated path: drop the first access, keep the longest
        well-formed prefix of the remaining accesses.

        Following the paper, the truncated path of
        ``Conf_1, (AcM_1, Bind_1), ..., Conf_n`` starts again at ``Conf_1``,
        skips the initial access, and keeps accesses ``(AcM_j, Bind_j)`` for
        ``j >= 2`` as long as each is well-formed at the configuration built
        without the initial access's response.
        """
        truncated = AccessPath(self.initial, [])
        current = self.initial
        for response in self.steps[1:]:
            if not is_well_formed(response.access, current):
                break
            truncated.steps.append(response)
            current = apply_access(current, response, check_well_formed=False)
        return truncated

    @contextmanager
    def truncation_view(self) -> Iterator[Configuration]:
        """The truncated path's final configuration, as a zero-copy view.

        Replays the truncation semantics *in place* on ``self.initial`` with
        an undo log (the crayfish-chase pattern): facts actually added are
        recorded and removed again, in reverse order, when the ``with`` block
        exits — :meth:`~repro.data.instance.Instance.remove` exactly reverses
        :meth:`~repro.data.instance.Instance.add`, so the configuration's
        content, fingerprint, indexes, and cached views are restored even on
        an exception.  O(|path|) in steps *and* allocations: no configuration
        copy is taken.

        The yielded object IS ``self.initial`` (temporarily grown); callers
        must finish reading it inside the block and must not let it escape.
        Mutating a live configuration view is safe on the strategy's
        dispatching thread — merges and relevance checks are serialized there
        (see the mediator's concurrency notes) — which is where every witness
        search and revalidation runs.

        The replay is :func:`merge_well_formed_prefix` over ``steps[1:]``,
        the one loop behind the truncation rule: the fresh witness search
        (through this view) and the incremental
        :meth:`~repro.runtime.witness.LtrWitness.revalidate` and
        :meth:`~repro.runtime.witness.LtrWitness.recheck_truncation` all
        truncate through it, so the engines cannot drift on how an
        ill-formed step truncates the path (the longest well-formed prefix
        is kept; everything after the first ill-formed step is dropped, even
        steps that do not depend on the probed access).
        """
        current = self.initial
        added: List[Fact] = []
        try:
            merge_well_formed_prefix(current, self.steps[1:], added)
            yield current
        finally:
            for fact in reversed(added):
                current.remove(fact.relation, fact.values)

    def truncation_final_configuration(self) -> Configuration:
        """The configuration reached at the end of the truncated path.

        Semantically ``self.truncation().final_configuration()``, as a
        standalone copy.  Callers that only *evaluate* at the truncated
        configuration should use :meth:`truncation_view` instead and skip
        the copy.
        """
        with self.truncation_view() as truncated:
            return truncated.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessPath(len={len(self.steps)})"


def enumerate_well_formed_accesses(
    schema: Schema,
    configuration: Configuration,
    *,
    independent_values: Iterable[object] = (),
) -> Iterator[Access]:
    """Enumerate the well-formed accesses available at a configuration.

    For dependent methods, the bindings range over the active-domain values of
    the matching abstract domains.  For independent methods, bindings range
    over the same values plus the caller-provided ``independent_values`` pool
    (an infinite choice in the paper, necessarily finite here).
    """
    adom = configuration.active_domain()
    extra = tuple(independent_values)
    for method in schema.access_methods:
        pools: List[List[object]] = []
        feasible = True
        for place in method.input_places:
            domain = method.relation.domain_of(place)
            values = sorted(
                {value for value, dom in adom if dom == domain}, key=repr
            )
            if not method.dependent:
                values = sorted(set(values) | set(extra), key=repr)
            if not values:
                feasible = False
                break
            pools.append(list(values))
        if not feasible:
            continue
        for binding in _product(pools):
            yield Access(method, tuple(binding))


def _product(pools: Sequence[Sequence[object]]) -> Iterator[Tuple[object, ...]]:
    """Cartesian product that yields a single empty binding for no inputs."""
    if not pools:
        yield ()
        return
    head, *rest = pools
    for value in head:
        for tail in _product(rest):
            yield (value,) + tail
