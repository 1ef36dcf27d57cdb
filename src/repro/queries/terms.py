"""Terms of queries: variables and constants.

A term is either a :class:`Variable` or a constant.  Constants are plain
Python values (strings, numbers, ...); their abstract domain is implied by
the place they occupy in an atom.  Variables are named objects; the paper
requires that a variable shared across subgoals always occupies attributes of
the same abstract domain — this is validated by the query classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

__all__ = [
    "Variable",
    "Term",
    "canonical_term",
    "is_variable",
    "variables_in",
    "constants_in",
]


@dataclass(frozen=True)
class Variable:
    """A query variable, identified by its name."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"?{self.name}"


Term = Union[Variable, object]


def is_variable(term: Term) -> bool:
    """Whether ``term`` is a :class:`Variable` (anything else is a constant)."""
    return isinstance(term, Variable)


def canonical_term(term: Term) -> Tuple[str, str]:
    """A process-stable structural encoding of one term.

    Variables and constants are tagged apart, and constants are rendered
    through ``repr`` so the encoding never depends on per-process hashing.
    Used by the stable query digests of :mod:`repro.runtime.serialize` (the
    keys of the persistent witness cache).
    """
    if isinstance(term, Variable):
        return ("var", term.name)
    return ("const", repr(term))


def variables_in(terms: Iterable[Term]) -> Tuple[Variable, ...]:
    """The variables among ``terms``, in first-occurrence order, deduplicated."""
    seen = []
    for term in terms:
        if is_variable(term) and term not in seen:
            seen.append(term)
    return tuple(seen)


def constants_in(terms: Iterable[Term]) -> Tuple[object, ...]:
    """The constants among ``terms``, in first-occurrence order, deduplicated."""
    seen = []
    for term in terms:
        if not is_variable(term) and term not in seen:
            seen.append(term)
    return tuple(seen)
