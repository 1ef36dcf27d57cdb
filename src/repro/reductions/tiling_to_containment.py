"""Tiling → containment under access limitations (Proposition 6.2).

The PSPACE-hardness proof of Proposition 6.2 encodes a corridor tiling
problem into binary relations ``C_{t,j}`` ("the tile at column ``j`` has type
``t``"); each relation has a single dependent access method bound on its
first attribute, so building a row forces walking a chain of accesses exactly
as a tiling is built row by row.  Two queries are constructed:

* ``final_row_query`` (a conjunctive query) asserts that the final row of the
  tiling has been laid out;
* ``violation_query`` (a positive query) asserts that "something is wrong":
  a non-unique tile, bad column/row progression, or a horizontal/vertical
  constraint violation.

The tiling problem has a solution **iff** ``final_row_query`` is *not*
contained in ``violation_query`` under the access limitations starting from
the configuration holding the initial row.  The benchmark
``benchmarks/bench_tiling_reduction.py`` runs the reduction on the sample
problems and compares the containment answer with the brute-force tiling
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.data import Configuration
from repro.queries import ConjunctiveQuery, PositiveQuery
from repro.queries.atoms import Atom
from repro.queries.pq import AndNode, AtomNode, OrNode, PQNode
from repro.queries.terms import Variable
from repro.reductions.tiling import TilingProblem
from repro.schema import SchemaBuilder, Schema

__all__ = ["TilingContainmentInstance", "tiling_to_containment"]


@dataclass(frozen=True)
class TilingContainmentInstance:
    """The output of the Proposition 6.2 reduction.

    A tiling of ``problem`` exists iff ``final_row_query`` ⋢
    ``violation_query`` under the access limitations, from ``configuration``.
    """

    schema: Schema
    configuration: Configuration
    final_row_query: ConjunctiveQuery
    violation_query: PositiveQuery
    problem: TilingProblem


def _relation_name(tile: str, column: int) -> str:
    return f"C_{tile}_{column}"


def tiling_to_containment(problem: TilingProblem) -> TilingContainmentInstance:
    """Build the Proposition 6.2 containment instance for ``problem``."""
    builder = SchemaBuilder()
    builder.domain("cell")
    relations: Dict[Tuple[str, int], object] = {}
    for tile in problem.tile_types:
        for column in range(1, problem.width + 1):
            name = _relation_name(tile, column)
            relation = builder.relation(name, [("prev", "cell"), ("cur", "cell")])
            builder.access(f"acc_{name}", name, inputs=["prev"], dependent=True)
            relations[(tile, column)] = relation
    schema = builder.build()

    # Initial configuration: the initial row, laid out along constants c0..cn.
    configuration = Configuration.empty(schema)
    for index, tile in enumerate(problem.initial_row):
        configuration.add(
            _relation_name(tile, index + 1), (f"c{index}", f"c{index + 1}")
        )

    # Final-row query: Cf1,1(y0, y1) ∧ ... ∧ Cfn,n(y_{n-1}, y_n).
    row_variables = [Variable(f"y{i}") for i in range(problem.width + 1)]
    final_atoms = [
        Atom(
            schema.relation(_relation_name(tile, column + 1)),
            (row_variables[column], row_variables[column + 1]),
        )
        for column, tile in enumerate(problem.final_row)
    ]
    final_row_query = ConjunctiveQuery(tuple(final_atoms), (), "FinalRow")

    # Violation query: the disjunction of everything that can be wrong.
    disjuncts: List[PQNode] = []
    x, y, w, z = Variable("x"), Variable("y"), Variable("w"), Variable("z")

    def atom(tile: str, column: int, first: Variable, second: Variable) -> AtomNode:
        return AtomNode(
            Atom(schema.relation(_relation_name(tile, column)), (first, second))
        )

    tiles = problem.tile_types
    columns = range(1, problem.width + 1)

    # Non-unique tile: the same predecessor (or the same cell) is described by
    # two distinct (type, column) pairs.
    for tile1 in tiles:
        for column1 in columns:
            for tile2 in tiles:
                for column2 in columns:
                    if (tile1, column1) == (tile2, column2):
                        continue
                    disjuncts.append(
                        AndNode((atom(tile1, column1, x, y), atom(tile2, column2, x, w)))
                    )
                    disjuncts.append(
                        AndNode((atom(tile1, column1, x, y), atom(tile2, column2, w, y)))
                    )

    # Bad column-to-column progression within a row.
    for tile1 in tiles:
        for tile2 in tiles:
            for column in columns:
                if column == problem.width:
                    continue
                for next_column in columns:
                    if next_column == column + 1:
                        continue
                    disjuncts.append(
                        AndNode(
                            (atom(tile1, column, x, y), atom(tile2, next_column, y, z))
                        )
                    )

    # Bad row-to-row progression (after the last column, the next cell must be
    # in column 1).
    for tile1 in tiles:
        for tile2 in tiles:
            for next_column in columns:
                if next_column == 1:
                    continue
                disjuncts.append(
                    AndNode(
                        (atom(tile1, problem.width, x, y), atom(tile2, next_column, y, z))
                    )
                )

    # Horizontal constraint violations.
    for tile1 in tiles:
        for tile2 in tiles:
            if (tile1, tile2) in problem.horizontal:
                continue
            for column in columns:
                if column == problem.width:
                    continue
                disjuncts.append(
                    AndNode((atom(tile1, column, x, y), atom(tile2, column + 1, y, z)))
                )

    # Vertical constraint violations: two cells of the same column, one row
    # apart (i.e. `width` steps apart in the row-major chain), with
    # incompatible types.  The intermediate cells may have any type.
    chain_variables = [Variable(f"v{i}") for i in range(problem.width + 1)]
    for tile1 in tiles:
        for tile2 in tiles:
            if (tile1, tile2) in problem.vertical:
                continue
            for column in columns:
                parts: List[PQNode] = [atom(tile1, column, x, chain_variables[0])]
                current_column = column
                for step in range(problem.width - 1):
                    current_column = current_column % problem.width + 1
                    parts.append(
                        OrNode(
                            tuple(
                                atom(
                                    any_tile,
                                    current_column,
                                    chain_variables[step],
                                    chain_variables[step + 1],
                                )
                                for any_tile in tiles
                            )
                        )
                    )
                parts.append(
                    atom(
                        tile2,
                        column,
                        chain_variables[problem.width - 1],
                        chain_variables[problem.width],
                    )
                )
                disjuncts.append(AndNode(tuple(parts)))

    violation_query = PositiveQuery(OrNode(tuple(disjuncts)), (), "Violation")
    return TilingContainmentInstance(
        schema, configuration, final_row_query, violation_query, problem
    )
