"""repro — Determining relevance of accesses at runtime.

A reproduction of Benedikt, Gottlob, and Senellart, *Determining Relevance of
Accesses at Runtime* (PODS 2011): querying data sources under limited access
patterns, with decision procedures for immediate relevance, long-term
relevance, and containment under access limitations, plus the substrates they
need (schemas with access methods, configurations, access paths, CQ/PQ query
engine, Datalog accessible-part computation, crayfish-chase witnesses) and an
application layer (simulated deep-Web sources and a relevance-guided
mediator).

The most common entry points are re-exported here:

>>> from repro import SchemaBuilder, Configuration, Access, parse_cq
>>> from repro import is_immediately_relevant, is_long_term_relevant
"""

from repro.core import (
    ContainmentOptions,
    ContainmentWitness,
    containment_to_ltr,
    decide_cm_containment,
    decide_containment,
    find_non_containment_witness,
    is_immediately_relevant,
    is_long_term_relevant,
    ltr_to_containment,
)
from repro.data import (
    AccessPath,
    AccessResponse,
    Configuration,
    Fact,
    Instance,
    apply_access,
    enumerate_well_formed_accesses,
    is_well_formed,
    response_from_instance,
)
from repro.exceptions import (
    AccessError,
    ConsistencyError,
    QueryError,
    ReproError,
    SchemaError,
    SearchBudgetExceeded,
)
from repro.queries import (
    Atom,
    ConjunctiveQuery,
    PositiveQuery,
    Variable,
    certain_answers,
    contained_in,
    cq_contained_in,
    evaluate,
    evaluate_boolean,
    is_certain,
    parse_atom,
    parse_cq,
    parse_pq,
    parse_query,
)
from repro.runtime import (
    AccessExecutor,
    PersistentWitnessCache,
    QueryOutcome,
    QueryServer,
    RelevanceOracle,
    RuntimeMetrics,
    ServerResult,
)
from repro.schema import (
    AbstractDomain,
    Access,
    AccessMethod,
    Attribute,
    Relation,
    Schema,
    SchemaBuilder,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # schema
    "AbstractDomain",
    "Attribute",
    "Relation",
    "AccessMethod",
    "Access",
    "Schema",
    "SchemaBuilder",
    # data
    "Fact",
    "Instance",
    "Configuration",
    "AccessResponse",
    "AccessPath",
    "is_well_formed",
    "apply_access",
    "response_from_instance",
    "enumerate_well_formed_accesses",
    # queries
    "Variable",
    "Atom",
    "ConjunctiveQuery",
    "PositiveQuery",
    "parse_atom",
    "parse_cq",
    "parse_pq",
    "parse_query",
    "evaluate",
    "evaluate_boolean",
    "certain_answers",
    "is_certain",
    "contained_in",
    "cq_contained_in",
    # core
    "is_immediately_relevant",
    "is_long_term_relevant",
    "decide_containment",
    "decide_cm_containment",
    "find_non_containment_witness",
    "ContainmentOptions",
    "ContainmentWitness",
    "containment_to_ltr",
    "ltr_to_containment",
    # runtime
    "AccessExecutor",
    "PersistentWitnessCache",
    "QueryOutcome",
    "QueryServer",
    "RelevanceOracle",
    "RuntimeMetrics",
    "ServerResult",
    # exceptions
    "ReproError",
    "SchemaError",
    "QueryError",
    "AccessError",
    "ConsistencyError",
    "SearchBudgetExceeded",
]
