"""Serialization layer tests: pickling round-trips and stable digests.

The query-server runtime keys a persistent cache on the digests of schemas,
queries, accesses, and configurations, and the data classes pickle to
compact forms, so two properties are load-bearing:

* ``loads(dumps(x))`` preserves equality — and, for configurations, the
  content *fingerprint* (rebuilt, not copied, on the receiving side);
* the stable tokens of :mod:`repro.runtime.serialize` are pure functions of
  structure (equal objects agree, different objects disagree).
"""

from __future__ import annotations

import pickle

import pytest

from repro import (
    AbstractDomain,
    Access,
    Configuration,
    ConjunctiveQuery,
    Instance,
    evaluate,
)
from repro.runtime.serialize import (
    UnencodableValueError,
    access_token,
    configuration_digest,
    decode_json_steps,
    decode_json_value,
    decode_witness_steps,
    encode_json_steps,
    encode_json_value,
    encode_witness_steps,
    query_token,
    schema_token,
)
from repro.workloads import (
    fanout_scenario,
    multi_query_scenario,
    random_configuration,
    random_instance,
    random_schema,
    star_join_scenario,
)
from repro.workloads.query_generators import random_cq, random_pq


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


# --------------------------------------------------------------------------- #
# Pickle round-trips
# --------------------------------------------------------------------------- #
class TestPickleRoundTrips:
    def test_domain_hash_is_recomputed_on_unpickle(self):
        domain = AbstractDomain("D")
        clone = roundtrip(domain)
        assert clone == domain
        # The cached hash must agree with a freshly constructed equal domain
        # in *this* process — mixing unpickled and fresh domains in one dict
        # must be safe.
        assert hash(clone) == hash(AbstractDomain("D"))
        lookup = {clone: 1, AbstractDomain("D"): 2}
        assert len(lookup) == 1

    def test_enumerated_domain_roundtrip(self):
        domain = AbstractDomain("B", frozenset({0, 1}))
        clone = roundtrip(domain)
        assert clone == domain and clone.values == domain.values
        assert clone.admits(1) and not clone.admits(2)

    def test_schema_roundtrip_preserves_structure(self):
        scenario = fanout_scenario(3)
        clone = roundtrip(scenario.schema)
        assert schema_token(clone) == schema_token(scenario.schema)
        assert [r.name for r in clone.relations] == [
            r.name for r in scenario.schema.relations
        ]
        assert [m.name for m in clone.access_methods] == [
            m.name for m in scenario.schema.access_methods
        ]
        # The clone is fully usable: build an access against it.
        Access(clone.access_method("accHub"), ("start",))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_query_roundtrip(self, seed):
        schema = random_schema(relations=3, max_arity=3, seed=seed)
        query = random_cq(schema, atoms=3, variables=4, seed=seed)
        clone = roundtrip(query)
        assert clone == query
        assert query_token(clone) == query_token(query)

        # A compiled join plan stays out of the query's identity: evaluating
        # (which compiles and caches plans, also the delta check's plans
        # without one atom) changes neither the pickled bytes nor ==, hash or
        # the token, for CQs and for positive queries.
        instance = random_instance(schema, tuples_per_relation=6, seed=seed)
        fresh_pq = random_pq(schema, disjuncts=2, atoms_per_disjunct=2, seed=seed)
        for evaluated, fresh in (
            (query, random_cq(schema, atoms=3, variables=4, seed=seed)),
            (random_pq(schema, disjuncts=2, atoms_per_disjunct=2, seed=seed), fresh_pq),
        ):
            before = (hash(evaluated), query_token(evaluated))
            evaluate(evaluated, instance)
            if isinstance(evaluated, ConjunctiveQuery):
                evaluated.rest_plan(0)
            assert pickle.dumps(evaluated) == pickle.dumps(fresh)
            assert evaluated == fresh
            assert (hash(evaluated), query_token(evaluated)) == before
            assert (hash(fresh), query_token(fresh)) == before
            assert roundtrip(evaluated) == fresh

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_configuration_roundtrip_keeps_fingerprint(self, seed):
        schema = random_schema(relations=3, max_arity=3, seed=seed)
        instance = random_instance(schema, tuples_per_relation=6, seed=seed)
        configuration = random_configuration(instance, fraction=0.6, seed=seed)
        clone = roundtrip(configuration)
        assert isinstance(clone, Configuration)
        assert clone.fingerprint() == configuration.fingerprint()
        assert configuration_digest(clone) == configuration_digest(configuration)
        assert clone == configuration
        assert clone.seed_constants == configuration.seed_constants

    def test_configuration_roundtrip_keeps_seed_constants(self):
        scenario = fanout_scenario(2)
        configuration = scenario.configuration
        clone = roundtrip(configuration)
        assert clone.seed_constants == configuration.seed_constants
        assert clone.fingerprint() == configuration.fingerprint()
        # The clone keeps working as a live store.
        assert clone.add("Hub", ("start", "m9"))
        assert clone.fingerprint() != configuration.fingerprint()

    def test_instance_roundtrip(self, binary_instance):
        clone = roundtrip(binary_instance)
        assert isinstance(clone, Instance)
        assert clone == binary_instance
        assert clone.fingerprint() == binary_instance.fingerprint()

    def test_access_roundtrip(self):
        scenario = fanout_scenario(2)
        clone = roundtrip(scenario.access)
        assert clone == scenario.access
        assert access_token(clone) == access_token(scenario.access)


# --------------------------------------------------------------------------- #
# Stable tokens
# --------------------------------------------------------------------------- #
class TestStableTokens:
    def test_query_token_ignores_name_but_not_structure(self):
        scenario = multi_query_scenario(4, 4, 2, atoms_per_query=2, seed=0)
        q0, q1 = scenario.queries[0], scenario.queries[1]
        renamed = type(q0)(q0.atoms, q0.free_variables, "other-name")
        assert query_token(renamed) == query_token(q0)
        assert query_token(q0) != query_token(q1)

    def test_schema_token_distinguishes_schemas(self):
        assert schema_token(fanout_scenario(2).schema) != schema_token(
            fanout_scenario(3).schema
        )
        assert schema_token(fanout_scenario(3).schema) == schema_token(
            fanout_scenario(3).schema
        )

    def test_access_token_distinguishes_bindings(self):
        scenario = star_join_scenario(2, 3, 2, atoms_per_query=2)
        method = scenario.schema.access_method("accS1")
        assert access_token(Access(method, ("k0",))) != access_token(
            Access(method, ("k1",))
        )

    def test_configuration_digest_tracks_content(self):
        scenario = fanout_scenario(2)
        configuration = scenario.configuration.copy()
        before = configuration_digest(configuration)
        assert before == configuration_digest(scenario.configuration)
        configuration.add("Hub", ("start", "m0"))
        assert configuration_digest(configuration) != before


# --------------------------------------------------------------------------- #
# Witness step specs and the JSON value codec
# --------------------------------------------------------------------------- #
class TestWitnessWire:
    def test_steps_roundtrip_through_specs_and_json(self):
        scenario = fanout_scenario(3)
        from repro.core import long_term_relevance_with_witness

        verdict, steps = long_term_relevance_with_witness(
            scenario.query, scenario.access, scenario.configuration, scenario.schema
        )
        assert verdict and steps
        specs = encode_witness_steps(steps)
        decoded = decode_witness_steps(specs, scenario.schema)
        assert [s.access.method.name for s in decoded] == [
            s.access.method.name for s in steps
        ]
        assert [s.facts for s in decoded] == [s.facts for s in steps]
        json_specs = decode_json_steps(encode_json_steps(specs))
        assert json_specs == specs

    def test_json_value_codec_roundtrips_scalars_and_tuples(self):
        values = ["text", 7, 1.5, True, False, None, ("nested", (1, 2)), []]
        for value in values:
            decoded = decode_json_value(encode_json_value(value))
            expected = tuple(value) if isinstance(value, list) else value
            assert decoded == expected
        # bool/int and str/int stay distinct through the tagging.
        assert decode_json_value(encode_json_value(True)) is True
        assert decode_json_value(encode_json_value(1)) == 1
        assert decode_json_value(encode_json_value("1")) == "1"

    def test_json_value_codec_rejects_exotic_values(self):
        with pytest.raises(UnencodableValueError):
            encode_json_value(object())
        with pytest.raises(UnencodableValueError):
            decode_json_value(["?", 1])
