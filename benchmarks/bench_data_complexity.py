"""Experiments P4.1-data and P5.7-data: data complexity of IR, LTR, and
containment for a fixed query.

The paper shows that with the query fixed, immediate relevance is AC0 and
long-term relevance / containment are polynomial in the configuration.  The
benchmark fixes a query and sweeps the configuration size; the timings should
grow polynomially (close to linearly on this workload), in contrast to the
combined-complexity benchmarks where the query grows.
"""

from __future__ import annotations

import pytest

from repro import Access, Configuration, is_immediately_relevant
from repro.core import decide_containment, is_ltr_independent
from repro.queries import parse_cq
from repro.workloads import chain_schema


def _configuration(schema, size: int) -> Configuration:
    configuration = Configuration.empty(schema)
    for index in range(size):
        configuration.add("L1", (f"a{index}", f"b{index}"))
        configuration.add("L2", (f"b{index}", f"c{index}"))
    return configuration


def _independent_two_link():
    from repro.schema import SchemaBuilder

    builder = SchemaBuilder()
    builder.domain("D")
    for index in (1, 2):
        relation = builder.relation(f"L{index}", [("src", "D"), ("dst", "D")])
        builder.access(f"accL{index}", relation, inputs=["src"], dependent=False)
    return builder.build()


@pytest.mark.experiment("P4.1-data")
@pytest.mark.parametrize("size", [10, 40, 160])
def test_immediate_relevance_data_complexity(benchmark, size):
    schema = _independent_two_link()
    configuration = _configuration(schema, size)
    query = parse_cq(schema, "L1(x, y), L2(y, 'target')")
    access = Access(schema.access_method("accL2"), ("b0",))
    result = benchmark(lambda: is_immediately_relevant(query, access, configuration))
    assert result is True


@pytest.mark.experiment("P5.7-data-ltr")
@pytest.mark.parametrize("size", [10, 40, 160])
def test_ltr_data_complexity(benchmark, size):
    schema = _independent_two_link()
    configuration = _configuration(schema, size)
    query = parse_cq(schema, "L1(x, y), L2(y, 'target')")
    access = Access(schema.access_method("accL2"), ("b0",))
    result = benchmark(
        lambda: is_ltr_independent(query, access, configuration, schema)
    )
    assert result is True


@pytest.mark.experiment("P5.7-data-containment")
@pytest.mark.parametrize("size", [10, 40])
def test_containment_data_complexity(benchmark, size):
    # ``L2(y, z)`` is false on ``size`` ``L1`` facts, so the monotone exit
    # cannot decide the instance and the witness search runs in full.
    schema = chain_schema(2)
    configuration = Configuration.empty(schema)
    for index in range(size):
        configuration.add("L1", (f"a{index}", f"b{index}"))
    query = parse_cq(schema, "L1(x, y), L2(y, z)")
    target = parse_cq(schema, "L2(y, z)")
    result = benchmark(
        lambda: decide_containment(query, target, schema, configuration)
    )
    assert result is True
