"""Named scenarios used by the benchmarks and the integration tests.

Each scenario packages a schema, a configuration, a query, and an access, so
that every benchmark row of EXPERIMENTS.md is regenerated from a single named
entry point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.data import Configuration, Instance
from repro.queries import ConjunctiveQuery, PositiveQuery, parse_cq, parse_pq
from repro.schema import Access, Schema, SchemaBuilder
from repro.workloads.generators import chain_schema
from repro.workloads.query_generators import chain_query, random_cq, random_pq

__all__ = [
    "FlakyScenario",
    "MultiQueryScenario",
    "RelevanceScenario",
    "bank_multi_query_scenario",
    "independent_scenario",
    "independent_pq_scenario",
    "dependent_chain_scenario",
    "fanout_scenario",
    "flaky_scenario",
    "wide_fanout_scenario",
    "diamond_scenario",
    "multi_query_scenario",
    "small_arity_scenario",
    "star_join_scenario",
    "containment_example_scenario",
]


def _distinct_subsets(rng, universe, size, count):
    """``count`` sorted ``size``-subsets of ``universe``, distinct while possible.

    Rejection-samples distinct subsets from ``rng``; once every distinct
    subset has been drawn, the remainder recycles deterministically instead
    of silently returning fewer (the multi-query scenario generators promise
    exactly ``count`` queries).
    """
    subsets = []
    seen = set()
    all_subsets = list(itertools.combinations(universe, size))
    while len(subsets) < count:
        if len(seen) == len(all_subsets):
            subsets.append(all_subsets[len(subsets) % len(all_subsets)])
            continue
        subset = tuple(sorted(rng.sample(universe, size)))
        if subset in seen:
            continue
        seen.add(subset)
        subsets.append(subset)
    return subsets


def _build_mediator(
    schema: Schema,
    hidden_instance: Optional[Instance],
    configuration: Configuration,
    name: str,
    *,
    latency_s: float = 0.0,
    latency_jitter_s: float = 0.0,
    completeness: float = 1.0,
    seed: int = 0,
    metrics=None,
):
    """Shared mediator construction for the scenario classes."""
    if hidden_instance is None:
        raise ValueError(f"scenario {name!r} has no hidden instance")
    from repro.sources.service import DataSource, Mediator

    sources = [
        DataSource(
            method,
            hidden_instance,
            completeness=completeness,
            seed=seed + index,
            latency_s=latency_s,
            latency_jitter_s=latency_jitter_s,
        )
        for index, method in enumerate(schema.access_methods)
    ]
    return Mediator(schema, sources, configuration.copy(), metrics=metrics)


@dataclass(frozen=True)
class RelevanceScenario:
    """A packaged relevance problem instance.

    Scenarios meant for end-to-end answering runs additionally carry a
    ``hidden_instance`` — the simulated source content — from which
    :meth:`mediator` builds a federated engine.
    """

    name: str
    schema: Schema
    configuration: Configuration
    query: object
    access: Access
    expected_immediate: Optional[bool] = None
    expected_long_term: Optional[bool] = None
    hidden_instance: Optional[Instance] = None

    def mediator(
        self,
        *,
        latency_s: float = 0.0,
        latency_jitter_s: float = 0.0,
        completeness: float = 1.0,
        seed: int = 0,
        metrics=None,
    ):
        """A mediator over simulated sources (requires a hidden instance).

        ``latency_s``/``latency_jitter_s`` give every source a simulated
        access delay — the regime where the parallel answering runtime pays;
        ``completeness``/``seed`` build sound-but-partial sources.
        """
        return _build_mediator(
            self.schema,
            self.hidden_instance,
            self.configuration,
            self.name,
            latency_s=latency_s,
            latency_jitter_s=latency_jitter_s,
            completeness=completeness,
            seed=seed,
            metrics=metrics,
        )


def independent_scenario(query_size: int = 3, seed: int = 1) -> RelevanceScenario:
    """Independent accesses, random CQ of the requested size (Table 1 rows 1–2)."""
    builder = SchemaBuilder()
    builder.domain("D")
    for index in range(3):
        relation = builder.relation(
            f"R{index}", [("a", "D"), ("b", "D")][: 2 if index else 2]
        )
        builder.access(f"m{index}", relation, inputs=[0], dependent=False)
    schema = builder.build()
    query = random_cq(schema, atoms=query_size, variables=query_size + 1, seed=seed)
    configuration = Configuration(schema, {"R0": [("d0", "d1")]})
    access = Access(schema.access_method("m0"), ("d0",))
    return RelevanceScenario("independent", schema, configuration, query, access)


def independent_pq_scenario(disjuncts: int = 2, seed: int = 3) -> RelevanceScenario:
    """Independent accesses, random positive query (Table 1 row 2)."""
    base = independent_scenario(seed=seed)
    query = random_pq(base.schema, disjuncts=disjuncts, seed=seed)
    return RelevanceScenario(
        "independent-pq", base.schema, base.configuration, query, base.access
    )


def dependent_chain_scenario(length: int = 3) -> RelevanceScenario:
    """Dependent chained accesses: the access feeds a chain of joins (row 3).

    The configuration knows a single start constant; the access on ``L1``
    with that constant is long-term relevant because its outputs feed the
    ``L2`` access, and so on down the chain (Example 2.1 generalised).
    """
    schema = chain_schema(length, dependent=True)
    query = chain_query(schema, length)
    configuration = Configuration.empty(schema)
    domain = schema.relation("L1").domain_of(0)
    configuration.add_constant("start", domain)
    access = Access(schema.access_method("accL1"), ("start",))
    return RelevanceScenario(
        f"dependent-chain-{length}",
        schema,
        configuration,
        query,
        access,
        expected_long_term=True,
    )


def fanout_scenario(
    branches: int = 3,
    *,
    audit: bool = True,
    mids: int = 1,
    satisfiable: bool = True,
) -> RelevanceScenario:
    """Wide fanout: one hub access feeds ``branches`` parallel joins.

    ``Hub(src, mid)`` is reached by a dependent access on ``src``; each
    branch relation ``B1 ... Bk`` joins the hub's output on a shared ``mid``
    variable and emits a leaf value of its own domain.  The query asks for a
    ``mid`` present in *every* branch, so the hub access is long-term
    relevant (its output feeds all branch accesses) although ``Hub`` itself
    does not occur in the query.

    With ``audit`` a side relation ``Audit(mid, note)`` is added whose
    output domain feeds nothing: its accesses fail the relevant-relation
    closure, and its facts are the canonical *query-irrelevant delta* the
    verdict-inheritance test accepts.

    ``mids`` widens the fanout further: the hub returns that many distinct
    ``mid`` values, every one of which seeds a probe of every branch — one
    answering round then holds ``branches × mids`` independent relevant
    accesses, the access-bound regime the parallel executor is built for.
    Only ``m0`` carries branch facts; with ``satisfiable=False`` even
    ``m0``'s last branch is left empty, so the query never becomes certain
    and every strategy (any parallelism level) performs exactly the same
    relevant access set before reaching its fixpoint.
    """
    if branches < 1:
        raise ValueError("fanout needs at least one branch")
    if mids < 1:
        raise ValueError("fanout needs at least one mid value")
    builder = SchemaBuilder()
    builder.domain("S")
    builder.domain("M")
    builder.relation("Hub", [("src", "S"), ("mid", "M")])
    builder.access("accHub", "Hub", inputs=["src"], dependent=True)
    for index in range(1, branches + 1):
        builder.domain(f"L{index}")
        builder.relation(f"B{index}", [("mid", "M"), ("leaf", f"L{index}")])
        builder.access(f"accB{index}", f"B{index}", inputs=["mid"], dependent=True)
    if audit:
        builder.domain("Note")
        builder.relation("Audit", [("mid", "M"), ("note", "Note")])
        builder.access("accAudit", "Audit", inputs=["mid"], dependent=True)
    schema = builder.build()

    body = ", ".join(f"B{index}(m, z{index})" for index in range(1, branches + 1))
    query = parse_cq(schema, body, name=f"fanout-{branches}")

    configuration = Configuration.empty(schema)
    configuration.add_constant("start", schema.relation("Hub").domain_of(0))

    hidden = Instance(schema)
    for mid_index in range(mids):
        hidden.add("Hub", ("start", f"m{mid_index}"))
    populated = branches if satisfiable else branches - 1
    for index in range(1, populated + 1):
        hidden.add(f"B{index}", ("m0", f"leaf{index}"))
    if audit:
        hidden.add("Audit", ("m0", "note0"))

    access = Access(schema.access_method("accHub"), ("start",))
    return RelevanceScenario(
        f"fanout-{branches}x{mids}" if mids > 1 else f"fanout-{branches}",
        schema,
        configuration,
        query,
        access,
        expected_long_term=True,
        hidden_instance=hidden,
    )


def wide_fanout_scenario(
    branches: int = 8, mids: int = 4, *, satisfiable: bool = False
) -> RelevanceScenario:
    """A fanout-heavy answering workload where parallelism actually pays.

    One hub access exposes ``mids`` mid values, after which a single round
    holds ``branches × mids`` independent relevant branch accesses — under
    simulated source latency the sequential strategy pays one round-trip per
    access while the parallel executor overlaps them.  By default the query
    is kept unsatisfiable (one branch empty), so runs at every parallelism
    level perform the identical relevant access set; see
    :func:`fanout_scenario` for the knobs.
    """
    return fanout_scenario(
        branches, audit=True, mids=mids, satisfiable=satisfiable
    )


def diamond_scenario(width: int = 2) -> RelevanceScenario:
    """Diamond dependencies: parallel middles reconverging in one bottom join.

    ``Top(src, a)`` fans out to ``width`` middle relations ``M1 ... Mw`` (all
    consuming the same ``a`` value), whose outputs reconverge as the
    attributes of a single ``Bottom(x1, ..., xw)`` fact reached through the
    first middle's output.  The top access is long-term relevant: every
    middle access and the bottom access transitively depend on its output.
    """
    if width < 2:
        raise ValueError("a diamond needs at least two middle relations")
    builder = SchemaBuilder()
    builder.domain("S")
    builder.domain("A")
    builder.relation("Top", [("src", "S"), ("a", "A")])
    builder.access("accTop", "Top", inputs=["src"], dependent=True)
    for index in range(1, width + 1):
        builder.domain(f"X{index}")
        builder.relation(f"M{index}", [("a", "A"), ("x", f"X{index}")])
        builder.access(f"accM{index}", f"M{index}", inputs=["a"], dependent=True)
    builder.relation(
        "Bottom", [(f"x{index}", f"X{index}") for index in range(1, width + 1)]
    )
    builder.access("accBottom", "Bottom", inputs=["x1"], dependent=True)
    schema = builder.build()

    middles = ", ".join(f"M{index}(a, x{index})" for index in range(1, width + 1))
    bottom = "Bottom(" + ", ".join(f"x{index}" for index in range(1, width + 1)) + ")"
    query = parse_cq(schema, f"{middles}, {bottom}", name=f"diamond-{width}")

    configuration = Configuration.empty(schema)
    configuration.add_constant("start", schema.relation("Top").domain_of(0))

    hidden = Instance(schema)
    hidden.add("Top", ("start", "a0"))
    for index in range(1, width + 1):
        hidden.add(f"M{index}", ("a0", f"x{index}_0"))
    hidden.add(
        "Bottom", tuple(f"x{index}_0" for index in range(1, width + 1))
    )

    access = Access(schema.access_method("accTop"), ("start",))
    return RelevanceScenario(
        f"diamond-{width}",
        schema,
        configuration,
        query,
        access,
        expected_long_term=True,
        hidden_instance=hidden,
    )


def small_arity_scenario(length: int = 3) -> RelevanceScenario:
    """Binary relations, dependent accesses, connected query (Theorem 6.1)."""
    scenario = dependent_chain_scenario(length)
    return RelevanceScenario(
        f"small-arity-{length}",
        scenario.schema,
        scenario.configuration,
        scenario.query,
        scenario.access,
        expected_long_term=True,
    )


@dataclass(frozen=True)
class MultiQueryScenario:
    """A packaged multi-query answering problem: N queries, one hidden instance.

    The scenario is what the :class:`~repro.runtime.server.QueryServer`
    benchmarks and tests run on — all queries are over one schema and one
    simulated source set, so their answering rounds share a configuration.
    """

    name: str
    schema: Schema
    configuration: Configuration
    queries: Tuple[object, ...]
    hidden_instance: Instance

    def mediator(
        self,
        *,
        latency_s: float = 0.0,
        latency_jitter_s: float = 0.0,
        completeness: float = 1.0,
        seed: int = 0,
        metrics=None,
    ):
        """A mediator over the scenario's simulated sources (fresh state)."""
        return _build_mediator(
            self.schema,
            self.hidden_instance,
            self.configuration,
            self.name,
            latency_s=latency_s,
            latency_jitter_s=latency_jitter_s,
            completeness=completeness,
            seed=seed,
            metrics=metrics,
        )


def multi_query_scenario(
    n_queries: int = 8,
    branches: int = 6,
    mids: int = 2,
    *,
    atoms_per_query: int = 3,
    seed: int = 0,
) -> MultiQueryScenario:
    """N fanout-style Boolean queries over one shared hidden instance.

    The schema is the fanout shape (one hub access exposing ``mids`` mid
    values, ``branches`` branch relations joining on the shared mid, plus the
    query-irrelevant ``Audit`` side relation).  Each query is a conjunction
    of ``atoms_per_query`` *distinct branch subsets* drawn deterministically
    from ``seed`` — so the queries overlap pairwise (shared branch accesses
    are performed once for the whole batch) without being equal (each gets
    its own verdict store).

    Only branches ``B1 .. B(branches-1)`` hold facts for ``m0``; a query
    whose subset includes the last branch is unsatisfiable, so every batch
    mixes early-certain queries with run-to-fixpoint ones — exactly the mix
    a multi-query scheduler has to handle.
    """
    if atoms_per_query < 1 or atoms_per_query > branches:
        raise ValueError("atoms_per_query must be between 1 and branches")
    base = fanout_scenario(branches, audit=True, mids=mids, satisfiable=False)
    rng = random.Random(seed)
    subsets = _distinct_subsets(
        rng, range(1, branches + 1), atoms_per_query, n_queries
    )
    queries = tuple(
        parse_cq(
            base.schema,
            ", ".join(f"B{index}(m, z{index})" for index in subset),
            name=f"mq{q_index}-" + "".join(str(index) for index in subset),
        )
        for q_index, subset in enumerate(subsets)
    )
    return MultiQueryScenario(
        name=f"multi-{n_queries}q-{branches}b-{mids}m",
        schema=base.schema,
        configuration=base.configuration,
        queries=queries,
        hidden_instance=base.hidden_instance,
    )


def star_join_scenario(
    n_queries: int = 6,
    spokes: int = 5,
    keys: int = 3,
    *,
    atoms_per_query: int = 3,
    seed: int = 0,
) -> MultiQueryScenario:
    """N star-join Boolean queries over shared spoke relations.

    ``spokes`` relations ``S1(key, val) .. Sk(key, val)`` each carry a
    dependent access bound on ``key``; the configuration seeds ``keys`` key
    constants, so the very first round already holds ``spokes × keys``
    candidate accesses.  Query ``j`` joins a subset of spokes on a shared
    key variable (``S_a(k, va) & S_b(k, vb) & ...``).  The hidden instance
    populates each spoke for a sliding window of keys, making some joins
    satisfiable and others empty.

    Compared to :func:`multi_query_scenario` the joins here have *no hub*:
    every spoke access is independent of the others, so the round's
    relevance searches — one per (query, spoke, key) orbit — dominate and
    the process pool has real CPU-bound work to spread.
    """
    if atoms_per_query < 2 or atoms_per_query > spokes:
        raise ValueError("atoms_per_query must be between 2 and spokes")
    builder = SchemaBuilder()
    builder.domain("K")
    for index in range(1, spokes + 1):
        builder.domain(f"V{index}")
        builder.relation(f"S{index}", [("key", "K"), ("val", f"V{index}")])
        builder.access(f"accS{index}", f"S{index}", inputs=["key"], dependent=True)
    schema = builder.build()

    configuration = Configuration.empty(schema)
    key_domain = schema.relation("S1").domain_of(0)
    for key_index in range(keys):
        configuration.add_constant(f"k{key_index}", key_domain)

    hidden = Instance(schema)
    for index in range(1, spokes + 1):
        # Spoke i covers keys [i-1, i-1 + keys//2] (mod keys): windows
        # overlap, so some spoke subsets share a key and join non-trivially
        # while others miss.
        for offset in range(max(1, keys // 2 + 1)):
            key_index = (index - 1 + offset) % keys
            hidden.add(f"S{index}", (f"k{key_index}", f"v{index}_{key_index}"))

    rng = random.Random(seed)
    subsets = _distinct_subsets(
        rng, range(1, spokes + 1), atoms_per_query, n_queries
    )
    queries = []
    for q_index, subset in enumerate(subsets):
        body = ", ".join(f"S{index}(k, v{index})" for index in subset)
        queries.append(
            parse_cq(
                schema,
                body,
                name=f"star{q_index}-" + "".join(str(index) for index in subset),
            )
        )
    return MultiQueryScenario(
        name=f"star-{n_queries}q-{spokes}s-{keys}k",
        schema=schema,
        configuration=configuration,
        queries=tuple(queries),
        hidden_instance=hidden,
    )


def bank_multi_query_scenario(
    n_queries: int = 8,
    *,
    employees: int = 8,
    offices: int = 4,
    states: int = 4,
    known_employees: int = 2,
    seed: int = 7,
) -> MultiQueryScenario:
    """N variants of the bank's motivating query over one hidden bank.

    Each query asks for a ``(state, offering)`` combination — *is there a
    loan officer located in <state>, with <offering> approved in <state>?* —
    drawn deterministically from ``seed``.  The variants share every
    navigation step (employee → office, employee → manager), so the server
    performs the shared accesses once, while the per-query witness searches
    are the CPU-bound part.  A fresh LTR search costs about a millisecond
    here, once the probes that witness no subgoal (``EmpManAcc``) enumerate
    nothing in the first-fact shape; that is less than a round trip to a
    process-pool search worker, so the pool does not pay on this batch.

    Only the ``State`` and ``Offering`` constants vary.  The employee title
    is deliberately fixed: every extra ``Text``-domain constant in the shared
    configuration multiplies the witness-assignment space of *all* queries'
    searches (``Text`` occurs at three Employee places), degrading the batch
    from CPU-bound to intractable.
    """
    from repro.sources.bank import build_bank_scenario

    bank = build_bank_scenario(
        employees=employees,
        offices=offices,
        states=states,
        seed=seed,
        known_employees=known_employees,
    )
    schema = bank.schema
    rng = random.Random(seed)
    state_names = ["Illinois"] + [f"State{i}" for i in range(1, states)]
    offerings = ["30yr", "15yr", "auto", "heloc"]
    combos = [
        (state, offering) for state in state_names for offering in offerings
    ]
    rng.shuffle(combos)
    # Keep the guaranteed-satisfiable motivating combination in every batch.
    chosen = [("Illinois", "30yr")]
    chosen.extend(combo for combo in combos if combo != chosen[0])
    if n_queries > len(chosen):
        # More queries than distinct (state, offering) combinations:
        # recycle deterministically rather than silently shrinking the batch.
        chosen = [chosen[index % len(chosen)] for index in range(n_queries)]
    chosen = chosen[:n_queries]
    queries = tuple(
        parse_cq(
            schema,
            f"Employee(e, 'loan officer', ln, fn, o), Office(o, a, '{state}', p), "
            f"Approval('{state}', '{offering}')",
            name=f"bank{index}-{state}-{offering}",
        )
        for index, (state, offering) in enumerate(chosen)
    )

    configuration = Configuration.empty(schema)
    emp_domain = schema.relation("Employee").domain_of(0)
    for emp_id in bank.known_employee_ids:
        configuration.add_constant(emp_id, emp_domain)
    for query in queries:
        for value, domain in query.constants_with_domains():
            configuration.add_constant(value, domain)

    return MultiQueryScenario(
        name=f"bank-multi-{n_queries}q-{employees}e",
        schema=schema,
        configuration=configuration,
        queries=queries,
        hidden_instance=bank.hidden_instance,
    )


@dataclass(frozen=True)
class FlakyScenario:
    """A multi-query scenario whose sources misbehave on demand.

    Wraps a :class:`MultiQueryScenario` with one seeded
    :class:`~repro.sources.service.FailurePolicy` per access method, so the
    chaos tests, the ``--chaos`` demo, and the CI smoke all run the *same*
    reproducible fault schedule.  :meth:`mediator` builds the faulty
    federation; with ``chaos=False`` it builds the fault-free twin over the
    identical hidden instance — the reference run the soundness property
    compares degraded answers against.
    """

    base: MultiQueryScenario
    #: ``(method_name, FailurePolicy)`` pairs, one per access method.
    policies: Tuple[Tuple[str, object], ...]

    @property
    def name(self) -> str:
        return f"flaky-{self.base.name}"

    @property
    def schema(self) -> Schema:
        return self.base.schema

    @property
    def configuration(self) -> Configuration:
        return self.base.configuration

    @property
    def queries(self) -> Tuple[object, ...]:
        return self.base.queries

    @property
    def hidden_instance(self) -> Instance:
        return self.base.hidden_instance

    def mediator(
        self,
        *,
        chaos: bool = True,
        retry_policy=None,
        breakers=None,
        latency_s: float = 0.0,
        latency_jitter_s: float = 0.0,
        completeness: float = 1.0,
        seed: int = 0,
        metrics=None,
    ):
        """A mediator over the scenario's sources (fresh state).

        ``chaos`` arms the failure policies; ``retry_policy`` / ``breakers``
        are forwarded to the :class:`~repro.sources.service.Mediator` so the
        executor retries transient faults and fails fast on open circuits.
        """
        from repro.sources.service import DataSource, Mediator

        by_method = dict(self.policies) if chaos else {}
        sources = [
            DataSource(
                method,
                self.base.hidden_instance,
                completeness=completeness,
                seed=seed + index,
                latency_s=latency_s,
                latency_jitter_s=latency_jitter_s,
                failure_policy=by_method.get(method.name),
            )
            for index, method in enumerate(self.base.schema.access_methods)
        ]
        return Mediator(
            self.base.schema,
            sources,
            self.base.configuration.copy(),
            metrics=metrics,
            retry_policy=retry_policy,
            breakers=breakers,
        )


def flaky_scenario(
    kind: str = "fanout",
    *,
    seed: int = 0,
    transient_rate: float = 0.2,
    hard_fail_after: Optional[int] = None,
    hard_fail_methods: Tuple[str, ...] = (),
    hang_rate: float = 0.0,
    hang_s: float = 0.0,
    malformed_rate: float = 0.0,
    truncate_rate: float = 0.0,
    n_queries: int = 6,
) -> FlakyScenario:
    """A seeded chaos workload over the fanout or bank multi-query scenario.

    Every access method gets a :class:`~repro.sources.service.FailurePolicy`
    with the given rates and a per-method seed derived from ``seed`` — the
    fault schedule is a pure function of ``(seed, access, attempt)``, so two
    runs with the same seed fail identically.  ``hard_fail_after`` (calls
    before a source goes permanently down) applies only to the methods named
    in ``hard_fail_methods`` — or, when that is empty, to the *first* access
    method — so chaos runs exercise give-up paths without taking the whole
    federation down.
    """
    if kind == "bank":
        base = bank_multi_query_scenario(n_queries)
    elif kind == "fanout":
        base = multi_query_scenario(n_queries)
    else:
        raise ValueError(f"unknown flaky scenario kind {kind!r}")
    from repro.sources.service import FailurePolicy

    method_names = [method.name for method in base.schema.access_methods]
    hard_targets = (
        set(hard_fail_methods) if hard_fail_methods else {method_names[0]}
    )
    policies = tuple(
        (
            name,
            FailurePolicy(
                transient_rate=transient_rate,
                hard_fail_after=(
                    hard_fail_after if name in hard_targets else None
                ),
                hang_rate=hang_rate,
                hang_s=hang_s,
                malformed_rate=malformed_rate,
                truncate_rate=truncate_rate,
                seed=seed + index,
            ),
        )
        for index, name in enumerate(method_names)
    )
    return FlakyScenario(base=base, policies=policies)


def containment_example_scenario() -> Tuple[Schema, Configuration, ConjunctiveQuery, ConjunctiveQuery]:
    """Example 3.2: containment holds under access limitations but not classically."""
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("R", [("a", "D")])
    builder.relation("S", [("a", "D")])
    builder.access("accR", "R", inputs=["a"], dependent=True)
    builder.access("accS", "S", inputs=[], dependent=True)
    schema = builder.build()
    query_r = parse_cq(schema, "R(x)", name="Q1")
    query_s = parse_cq(schema, "S(x)", name="Q2")
    return schema, Configuration.empty(schema), query_r, query_s
