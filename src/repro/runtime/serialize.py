"""Record formats and process-stable digests for the query-server runtime.

The :class:`~repro.runtime.persist.PersistentWitnessCache` writes witness
paths to disk and must key them in a way that survives restarts, and the
:class:`~repro.runtime.server.QueryServer` keys its per-query verdict stores
by the same query tokens.

Pickling the objects themselves is handled by the classes (compact
``__reduce__`` wire formats on :class:`~repro.data.instance.Instance` and
:class:`~repro.data.configuration.Configuration`, hash-recomputing
``__setstate__`` on :class:`~repro.schema.domains.AbstractDomain`).  This
module adds what pickle cannot give:

* **stable tokens** — ``schema_token`` / ``query_token`` / ``access_token`` /
  ``configuration_digest`` are cryptographic digests of canonical structural
  encodings, identical in every process and across restarts (Python's builtin
  ``hash`` is salted per process and useless for persistent keys);
* **witness step specs** — a witness path reduced to
  ``(method name, binding, facts)`` triples, decodable against *any* equal
  schema (in particular a restarted process's own schema objects);
* **a JSON value codec** — witness facts restricted to JSON-representable
  values (strings, numbers, booleans, ``None``, nested tuples/lists) so a
  stored record is plain JSON text; values outside that set raise
  :class:`UnencodableValueError` and the caller skips persisting them.
"""

from __future__ import annotations

import hashlib
import marshal
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.data import AccessResponse, Configuration
from repro.exceptions import ReproError
from repro.schema import Access, Schema

__all__ = [
    "RECORD_VERSION",
    "UnencodableValueError",
    "access_token",
    "configuration_digest",
    "decode_json_steps",
    "decode_json_value",
    "decode_witness_record",
    "decode_witness_steps",
    "encode_json_steps",
    "encode_json_value",
    "encode_witness_record",
    "encode_witness_steps",
    "query_token",
    "record_digest",
    "schema_canonical",
    "schema_token",
]


class UnencodableValueError(ReproError):
    """A value cannot be represented in the persistent JSON wire format."""


def _digest(payload: object) -> str:
    """A short hex digest of ``repr(payload)`` (stable across processes)."""
    return hashlib.blake2b(repr(payload).encode("utf-8"), digest_size=16).hexdigest()


# --------------------------------------------------------------------------- #
# Stable tokens
# --------------------------------------------------------------------------- #
def schema_canonical(schema: Schema) -> Tuple[object, ...]:
    """A canonical structural encoding of a schema (strings and tuples only)."""
    relations = tuple(
        (
            relation.name,
            tuple(
                (
                    attribute.name,
                    attribute.domain.name,
                    tuple(sorted(attribute.domain.values, key=repr))
                    if attribute.domain.is_enumerated
                    else None,
                )
                for attribute in relation.attributes
            ),
        )
        for relation in schema.relations
    )
    methods = tuple(
        (method.name, method.relation.name, method.input_places, method.dependent)
        for method in schema.access_methods
    )
    return (relations, methods)


def schema_token(schema: Schema) -> str:
    """A process-stable digest identifying a schema by structure."""
    return _digest(schema_canonical(schema))


def query_token(query) -> str:
    """A process-stable digest of a query's :meth:`canonical_form`.

    The canonical form excludes the cosmetic query name (mirroring query
    equality), so renaming a query neither splits a shared verdict store nor
    misses the persistent cache.
    """
    return _digest(query.canonical_form())


def access_token(access: Access) -> str:
    """A process-stable digest of an access (method name + binding reprs)."""
    return _digest((access.method.name, tuple(repr(value) for value in access.binding)))


def configuration_digest(configuration: Configuration) -> str:
    """A process-stable content digest of a configuration.

    Unlike :meth:`~repro.data.instance.Instance.fingerprint` (built on the
    per-process string hash, by design — it only feeds in-memory caches),
    this digest is identical across processes and restarts: it hashes the
    deterministically ordered wire facts and seed constants through
    ``repr``.  The persistent witness cache stamps records with it.
    """
    facts = tuple(sorted(configuration.wire_facts().items()))
    constants = tuple(
        (repr(value), domain.name) for value, domain in configuration.wire_constants()
    )
    return _digest((facts, constants))


# --------------------------------------------------------------------------- #
# Witness step specs
# --------------------------------------------------------------------------- #
def encode_witness_steps(
    steps: Iterable[AccessResponse],
) -> Tuple[Tuple[str, Tuple[object, ...], Tuple[Tuple[object, ...], ...]], ...]:
    """Reduce a witness path to ``(method name, binding, facts)`` triples."""
    return tuple(
        (step.access.method.name, tuple(step.access.binding), tuple(step.facts))
        for step in steps
    )


def decode_witness_steps(
    specs: Sequence[Sequence[object]],
    schema: Schema,
    decoded: Optional[Dict[bytes, AccessResponse]] = None,
) -> Tuple[AccessResponse, ...]:
    """Rebuild a witness path against ``schema``.

    The accesses are re-validated through the :class:`~repro.schema.Access`
    constructor (binding arity and domain admission), so a spec recorded
    against a different schema fails loudly instead of producing a path the
    revalidator would misinterpret.  The facts are revalidated per tuple.
    ``decoded`` maps each spec already rebuilt against ``schema`` to its
    step: a caller rebuilding many paths passes one dict, so equal specs
    are validated once and share one response.  It is keyed by the spec's
    ``marshal`` bytes, which keep ``1``, ``True`` and ``1.0`` apart where
    tuple equality does not (``repr`` would too, at about four times the
    cost).
    """
    decoded = {} if decoded is None else decoded
    steps: List[AccessResponse] = []
    for spec in specs:
        # Format 0 writes no interning or back-reference flags: equal
        # specs of equal types give equal bytes.
        key = marshal.dumps(spec, 0)
        step = decoded.get(key)
        if step is None:
            method_name, binding, facts = spec
            access = Access(schema.access_method(method_name), tuple(binding))
            step = AccessResponse(access, tuple(tuple(values) for values in facts))
            decoded[key] = step
        steps.append(step)
    return tuple(steps)


# --------------------------------------------------------------------------- #
# JSON value codec (persistent cache)
# --------------------------------------------------------------------------- #
def encode_json_value(value: object) -> object:
    """Encode one fact/binding value for the JSON wire format.

    Scalars pass through tagged (``["s", ...]`` etc. keeps ``True`` and ``1``
    or ``"1"`` and ``1`` apart after a JSON round-trip); tuples and lists
    recurse.  Anything else raises :class:`UnencodableValueError` — the
    persistent cache then skips the witness rather than storing a lossy
    representation.
    """
    if value is None:
        return ["n"]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, (tuple, list)):
        return ["t", [encode_json_value(item) for item in value]]
    raise UnencodableValueError(
        f"value {value!r} of type {type(value).__name__} has no JSON wire encoding"
    )


#: The exact payload type of each scalar tag (so ``"i"`` rejects a bool).
_SCALAR_TAGS = {"b": bool, "s": str, "i": int, "f": float}


def decode_json_value(payload: object) -> object:
    """Invert :func:`encode_json_value` (tuples come back as tuples).

    Every tag's payload is checked: ``["n"]`` carries nothing, a scalar tag
    exactly one value of its type, ``"t"`` exactly one list.  Anything else
    raises :class:`UnencodableValueError`, so a corrupt stored value (say,
    an object under ``"s"``) never reaches a configuration as an unhashable
    fact value.
    """
    if isinstance(payload, list) and payload:
        tag = payload[0]
        if tag == "n" and len(payload) == 1:
            return None
        if len(payload) == 2:
            value = payload[1]
            if tag == "t" and isinstance(value, list):
                return tuple(decode_json_value(item) for item in value)
            if isinstance(tag, str) and type(value) is _SCALAR_TAGS.get(tag):
                return value
    raise UnencodableValueError(f"malformed value payload {payload!r}")


def encode_json_steps(specs: Sequence[Sequence[object]]) -> List[List[object]]:
    """Witness step specs → JSON payload (may raise on exotic values)."""
    encoded: List[List[object]] = []
    for method_name, binding, facts in specs:
        encoded.append(
            [
                method_name,
                [encode_json_value(value) for value in binding],
                [[encode_json_value(value) for value in row] for row in facts],
            ]
        )
    return encoded


def decode_json_steps(
    payload: Sequence[Sequence[object]],
) -> Tuple[Tuple[str, Tuple[object, ...], Tuple[Tuple[object, ...], ...]], ...]:
    """JSON payload → witness step specs."""
    specs = []
    for method_name, binding, facts in payload:
        specs.append(
            (
                method_name,
                tuple(decode_json_value(value) for value in binding),
                tuple(
                    tuple(decode_json_value(value) for value in row) for row in facts
                ),
            )
        )
    return tuple(specs)


# --------------------------------------------------------------------------- #
# Witness records (the persistent stores' row format)
# --------------------------------------------------------------------------- #
#: Version tag stamped on every persisted witness record.  Bump it when the
#: record shape changes incompatibly; stores keep unknown-version records as
#: opaque payloads (compaction preserves them) while the decode layer skips
#: them, counted under ``skipped_undecodable`` — a rolled-back reader never
#: misinterprets a newer writer's rows.
RECORD_VERSION = 1


def encode_witness_record(
    qtoken: str,
    stoken: str,
    access: Access,
    step_specs: Sequence[Sequence[object]],
    fingerprint: Optional[str] = None,
) -> dict:
    """One persisted witness record as a JSON-ready payload dictionary.

    ``step_specs`` is the :func:`encode_witness_steps` form of the witness
    path; ``fingerprint`` is the :func:`configuration_digest` of the
    configuration it was captured at, stamped for observability.  Raises
    :class:`UnencodableValueError` when the binding or any fact carries a
    value outside the JSON wire format.
    """
    payload = {
        "v": RECORD_VERSION,
        "query": qtoken,
        "schema": stoken,
        "access": access_token(access),
        "method": access.method.name,
        "binding": [encode_json_value(value) for value in access.binding],
        "steps": encode_json_steps(step_specs),
    }
    if fingerprint is not None:
        payload["fingerprint"] = fingerprint
    return payload


def decode_witness_record(
    payload: dict,
) -> Tuple[Tuple[str, str], str, Tuple[str, Tuple[object, ...]], Tuple]:
    """Invert :func:`encode_witness_record`.

    Returns ``((query token, schema token), access token, (method name,
    binding), step specs)``.  Raises :class:`UnencodableValueError` on a
    malformed payload or an unknown (newer) record version; records written
    before the version tag existed decode as version 1.
    """
    if not isinstance(payload, dict):
        raise UnencodableValueError(f"witness record is not an object: {payload!r}")
    version = payload.get("v", 1)
    if not isinstance(version, int) or version > RECORD_VERSION:
        raise UnencodableValueError(
            f"witness record version {version!r} is newer than supported "
            f"version {RECORD_VERSION}"
        )
    try:
        key = (payload["query"], payload["schema"])
        atoken = payload["access"]
        spec = (
            payload["method"],
            tuple(decode_json_value(value) for value in payload["binding"]),
        )
        steps = decode_json_steps(payload["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UnencodableValueError(f"malformed witness record: {exc}") from exc
    return key, atoken, spec, steps


def record_digest(payload: dict) -> str:
    """A stable digest of a record's content (method + binding + steps).

    This is what the stores deduplicate against: an append whose digest
    equals the *currently stored* record for its key is a no-op, so repeated
    warm runs re-recording the same witness never grow a store.  The key
    fields themselves are excluded — they are the row identity, not content.
    """
    return _digest(
        (
            payload.get("v", 1),
            payload.get("method"),
            repr(payload.get("binding")),
            repr(payload.get("steps")),
        )
    )
