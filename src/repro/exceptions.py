"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single exception type at API boundaries.  More specific subclasses
exist for schema validation, query construction, access semantics, and search
budget exhaustion.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A schema, relation, attribute, or access method is ill-formed."""


class QueryError(ReproError):
    """A query is syntactically or semantically ill-formed.

    Examples: an atom whose arity does not match its relation, a shared
    variable used at attributes with different abstract domains, or a parse
    failure in :func:`repro.queries.parser.parse_query`.
    """


class AccessError(ReproError):
    """An access violates the access-method semantics of the paper.

    Raised, for instance, when a dependent access is attempted with a binding
    value that is not in the active domain of the current configuration, or
    when a response contains tuples that do not match the binding.

    When raised out of a batch (``AccessExecutor.execute_batch``), the error
    carries the failing :class:`~repro.sources.accesses.Access` in
    ``access``, the ``(access, duration)`` pairs merged before the failure in
    ``timings``, and the number of source-call attempts spent on the failing
    access in ``attempts``, so callers and spans can report *which* access
    failed and what the batch had already accomplished.
    """

    access = None
    timings = ()
    attempts = 1


class TransientAccessError(AccessError):
    """A source failed in a way that is expected to clear on retry.

    The simulated analogue of a dropped connection, a 5xx from a flaky
    replica, or a brief overload.  :class:`repro.runtime.retry.RetryPolicy`
    classifies this (and :class:`MalformedResponseError`) as retryable.
    """


class MalformedResponseError(AccessError):
    """A source returned bytes that do not parse as a well-formed response.

    Modeled as retryable: a garbled payload from a proxy or a truncated
    stream is usually transient, and a retry reaches a healthy replica.
    """


class CircuitOpenError(AccessError):
    """An access was rejected without calling the source: its breaker is open.

    Raised by the resilient access path when the per-source
    :class:`~repro.runtime.retry.CircuitBreaker` has seen too many
    consecutive failures and is failing fast instead of queueing doomed work.
    Not retryable within the batch; the breaker's reset timeout governs when
    the source is probed again.
    """


class DeadlineExceeded(ReproError):
    """A per-query or per-batch deadline expired before the work completed.

    In-flight accesses abandoned at the deadline are reported with this
    error; they are never merged into the configuration, so the degraded
    answer stays sound (computed only from facts actually retrieved).
    """


class ConsistencyError(ReproError):
    """A configuration is not consistent with the instance it should reflect."""


class SearchBudgetExceeded(ReproError):
    """A bounded decision procedure exhausted its search budget.

    The containment and long-term relevance problems have exponential witness
    bounds; the procedures in :mod:`repro.core` accept explicit budgets and
    raise this exception (rather than silently answering) when a definitive
    answer could not be established within the budget.
    """

    def __init__(self, message: str, *, explored: int = 0) -> None:
        super().__init__(message)
        self.explored = explored
