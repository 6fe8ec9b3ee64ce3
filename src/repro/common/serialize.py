"""Stable JSON (de)serialization and hashing of configuration dataclasses.

The experiment orchestration layer (:mod:`repro.exp`) needs two guarantees
that ``pickle`` and ``hash()`` do not give:

* a **canonical, process-independent representation** of a configuration so
  that the on-disk result cache can be shared between runs, machines and
  Python versions (``hash()`` is salted per process; ``pickle`` is neither
  canonical nor stable across versions), and
* a **round trip** from configuration objects to plain JSON and back, so
  cached results and CLI artifacts can record exactly which machine and
  workload produced them.

:func:`to_jsonable` lowers any tree of frozen dataclasses, enums, tuples and
primitives to plain JSON types; :func:`from_jsonable` rebuilds the original
objects from the dataclass type hints; :func:`stable_hash` derives a SHA-256
content address from the canonical JSON form.

Both directions run from **one codec plan per dataclass**, built the first
time the type is seen and kept for the life of the process: the names of the
fields to encode and, for decoding, each init field's converter compiled
from its type hint (resolved once, not per call) plus whether the field is
required.  Plans hold no per-call state, so the event loop, worker threads
and pool processes share them; two threads racing to build the same plan
build equal plans.  The table grows only with the number of dataclass types.
Decoding raises the same :class:`ConfigurationError`, with the same message
naming the field path, that a per-call walk of the type hints would; an
annotation the codec cannot decode raises only when a value for it arrives.

Fields a payload carries but the dataclass does not declare are **ignored**,
not refused: an older client's payload (such as a job request with the
``engine`` field that requests no longer have) then decodes to the same
request, and so coalesces with, and hits the cache of, a current one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import typing
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Tuple, Type, TypeVar, Union

from repro.common.errors import ConfigurationError

_T = TypeVar("_T")

#: JSON scalars, which lower to themselves.  Only the exact types: a
#: subclass (an ``IntEnum``, a ``str`` enum) takes the general path.
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: Per dataclass: the names of the fields :func:`to_jsonable` lowers.  Kept
#: apart from the decode half because encoding needs no type hints: a class
#: whose annotations cannot be resolved still encodes.
_ENCODE_PLANS: Dict[type, Tuple[str, ...]] = {}

#: Per dataclass: ``(name, converter, required)`` for each decoded init field.
_DECODE_PLANS: Dict[type, Tuple[Tuple[str, Callable[[Any], Any], bool], ...]] = {}


def to_jsonable(obj: Any) -> Any:
    """Lower ``obj`` to plain JSON types (dict / list / str / int / float / bool / None).

    Dataclasses become ``{field: value}`` dictionaries (fields whose names
    start with an underscore are treated as derived state and skipped), enums
    become their ``value``, and tuples become lists.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    if kind is list or kind is tuple:
        return [to_jsonable(item) for item in obj]
    if kind is dict:
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    names = _ENCODE_PLANS.get(kind)
    if names is None:
        if not dataclasses.is_dataclass(kind):
            return _lower_other(obj)
        names = _ENCODE_PLANS[kind] = tuple(
            field.name for field in dataclasses.fields(kind) if not field.name.startswith("_")
        )
    return {name: to_jsonable(getattr(obj, name)) for name in names}


def _lower_other(obj: Any) -> Any:
    """Lower what is neither a dataclass nor an exact JSON type."""
    if isinstance(obj, enum.Enum):
        return to_jsonable(obj.value)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, Mapping):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (str, int, float, bool)):
        return obj
    raise ConfigurationError(f"cannot serialise {type(obj).__name__} to JSON")


def from_jsonable(cls: Type[_T], data: Any) -> _T:
    """Rebuild an instance of dataclass ``cls`` from :func:`to_jsonable` output.

    Reconstruction is driven by the dataclass type hints and supports the
    vocabulary the configuration classes use: nested dataclasses, enums,
    ``Optional``, homogeneous and fixed-arity tuples, lists, dicts and
    primitives.  Data is never coerced: a scalar of the wrong JSON type
    (a ``bool`` where an ``int`` belongs, a string where a number does), an
    unknown enum value or a container of the wrong kind raises
    :class:`ConfigurationError`.  An ``int`` is accepted where a ``float``
    belongs.  Fields the dataclass does not declare are ignored.  An
    instance of the exact dataclass a field wants is taken as it is, so a
    decoder can rebuild the sections of a document one by one and then the
    document around them.
    """
    return _converter(cls)(data)


def from_jsonable_section(cls: Type[_T], data: Any, where: str, **given: Any) -> _T:
    """Decode one section of an operator file (a tenant, a fault site) into ``cls``.

    Decoding is :func:`from_jsonable`'s, with two differences.  A key that
    ``cls`` does not declare is refused, not ignored: in a file an operator
    wrote, a typo must not silently leave a setting at its default.  Every
    error names ``where`` (``tenant 'alpha'``).  ``given`` supplies fields
    the section does not carry itself, such as a tenant's name, which is its
    key in the roster; the section may not set them.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{where} wants a settings mapping, got {type(data).__name__} {data!r}"
        )
    settable = {name for name, _convert, _required in _decode_plan(cls)} - set(given)
    unknown = set(data) - settable
    if unknown:
        raise ConfigurationError(f"{where}: unknown settings {sorted(unknown)}")
    try:
        return from_jsonable(cls, {**data, **given})
    except ConfigurationError as error:
        raise ConfigurationError(f"{where}: {error}") from None


def read_json_file(path: str, what: str) -> Any:
    """Parse the JSON document in file ``path``; ``what`` names it in errors."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ConfigurationError(f"cannot read {what} {path}: {error}") from None
    except ValueError as error:  # invalid JSON or invalid UTF-8
        raise ConfigurationError(f"{what} {path} is not valid JSON: {error}") from None


def _wrong_type(expected: str, data: Any) -> ConfigurationError:
    return ConfigurationError(f"expected {expected}, got {type(data).__name__} {data!r}")


def _decode_plan(cls: type) -> Tuple[Tuple[str, Callable[[Any], Any], bool], ...]:
    plan = _DECODE_PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = _DECODE_PLANS[cls] = tuple(
            (
                field.name,
                _converter(hints[field.name]),
                field.default is dataclasses.MISSING
                and field.default_factory is dataclasses.MISSING,
            )
            for field in dataclasses.fields(cls)
            if field.init and not field.name.startswith("_")
        )
    return plan


def _decode_dataclass(cls: Type[_T], data: Any) -> _T:
    if type(data) is cls:  # a section its owner decoded already
        return data
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"expected a mapping to rebuild {cls.__name__}, got {type(data).__name__}"
        )
    kwargs = {}
    for name, convert, required in _decode_plan(cls):
        if name in data:
            try:
                kwargs[name] = convert(data[name])
            except ConfigurationError as error:
                raise ConfigurationError(f"{name}: {error}") from None
        elif required:
            raise ConfigurationError(f"{cls.__name__} is missing its {name!r}")
    return cls(**kwargs)


def _converter(annotation: Any) -> Callable[[Any], Any]:
    """Compile the function that decodes one value of type ``annotation``.

    A nested dataclass compiles to a lookup of its own plan at decode time,
    so recursive types terminate and a type's hints resolve only once a
    value for it arrives.
    """
    if annotation is Any:
        return _identity
    origin = typing.get_origin(annotation)
    if origin is None:
        if dataclasses.is_dataclass(annotation):
            return partial(_decode_dataclass, annotation)
        if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
            return partial(_decode_enum, annotation)
        if annotation in (int, float):
            return partial(_decode_number, annotation)
        if annotation in (str, bool):
            return partial(_decode_exact, annotation)
        if annotation is type(None):
            return _none
        return partial(_undecodable, annotation)
    args = typing.get_args(annotation)
    if origin is list and args:
        return partial(_decode_sequence, list, _converter(args[0]))
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return partial(_decode_sequence, tuple, _converter(args[0]))
        return partial(_decode_fixed_tuple, annotation, tuple(_converter(arg) for arg in args))
    if origin is dict and len(args) == 2:
        return partial(_decode_dict, _converter(args[0]), _converter(args[1]))
    if origin is Union:
        members = [_converter(arg) for arg in args if arg is not type(None)]
        if len(members) == 1:  # Optional[X]: X's own error names the problem
            return partial(_decode_optional, members[0])
        return partial(_decode_union, annotation, members)
    return partial(_undecodable, annotation)


def _identity(data: Any) -> Any:
    return data


def _none(data: Any) -> None:
    return None


def _undecodable(annotation: Any, data: Any) -> Any:
    raise ConfigurationError(f"cannot deserialise into {annotation!r}")


def _decode_enum(annotation: Type[enum.Enum], data: Any) -> Any:
    try:
        return annotation(data)
    except (TypeError, ValueError):
        values = [member.value for member in annotation]
        raise _wrong_type(f"one of {values}", data) from None


def _decode_number(annotation: type, data: Any) -> Any:
    if type(data) is annotation:
        return data
    # bool subclasses int, and JSON keeps true apart from 1.
    if isinstance(data, bool) or not isinstance(data, (int, annotation)):
        raise _wrong_type(annotation.__name__, data)
    try:
        return annotation(data)
    except OverflowError:  # an int beyond the float range
        raise _wrong_type("a float-sized number", data) from None


def _decode_exact(annotation: type, data: Any) -> Any:
    if not isinstance(data, annotation):
        raise _wrong_type(annotation.__name__, data)
    return data


def _decode_sequence(make: type, item: Callable[[Any], Any], data: Any) -> Any:
    if not isinstance(data, (list, tuple)):
        raise _wrong_type("a list", data)
    return make([item(value) for value in data])


def _decode_fixed_tuple(annotation: Any, items: Tuple[Callable[[Any], Any], ...], data: Any) -> Any:
    if not isinstance(data, (list, tuple)):
        raise _wrong_type("a list", data)
    if len(items) != len(data):
        raise ConfigurationError(
            f"expected {len(items)} tuple items for {annotation!r}, got {len(data)}"
        )
    return tuple([item(value) for item, value in zip(items, data)])


def _decode_dict(key: Callable[[Any], Any], value: Callable[[Any], Any], data: Any) -> Any:
    if not isinstance(data, Mapping):
        raise _wrong_type("a mapping", data)
    return {key(name): value(item) for name, item in data.items()}


def _decode_optional(member: Callable[[Any], Any], data: Any) -> Any:
    return None if data is None else member(data)


def _decode_union(annotation: Any, members: list, data: Any) -> Any:
    if data is None:
        return None
    for member in members:
        try:
            return member(data)
        except (ConfigurationError, TypeError, ValueError, KeyError):
            continue
    raise ConfigurationError(f"no member of {annotation!r} accepts {data!r}")


#: Version of the service wire format.  Every HTTP body exchanged with
#: :mod:`repro.service` is wrapped in an envelope carrying this number, so a
#: client and server disagreeing about the schema fail loudly instead of
#: misinterpreting payloads.  Bump on any incompatible payload change.
#:
#: Version 2 added the optional tenancy fields at the envelope level
#: (``tenant``, ``priority``) plus ``schema_version`` naming the payload's
#: own schema.  It is the only version this build reads.
WIRE_SCHEMA_VERSION = 2


@dataclasses.dataclass(frozen=True)
class WireEnvelope:
    """A validated wire envelope, with its transport fields exposed.

    ``tenant`` / ``priority`` / ``schema_version`` / ``trace_id`` are
    ``None`` when the envelope omits them.
    """

    kind: str
    payload: Any
    tenant: Any = None
    priority: Any = None
    schema_version: Any = None
    #: Request correlation ID (``X-Repro-Trace-Id``); ``None`` when absent.
    trace_id: Any = None


def wire_envelope(
    kind: str,
    payload: Any,
    *,
    tenant: Any = None,
    priority: Any = None,
    schema_version: Any = None,
    trace_id: Any = None,
) -> Dict[str, Any]:
    """Wrap ``payload`` in a versioned wire envelope.

    The envelope is the unit every service endpoint sends and receives:
    ``{"wire_schema": 2, "kind": "<message type>", "payload": <JSON>}``,
    plus ``tenant`` / ``priority`` (admission metadata for submissions),
    ``schema_version`` (the payload's own schema number) and ``trace_id``
    (the request's correlation ID, also carried in the ``X-Repro-Trace-Id``
    header) when provided.  ``payload`` may be any
    :func:`to_jsonable`-serialisable object.
    """
    document: Dict[str, Any] = {
        "wire_schema": WIRE_SCHEMA_VERSION,
        "kind": kind,
        "payload": to_jsonable(payload),
    }
    if tenant is not None:
        document["tenant"] = tenant
    if priority is not None:
        document["priority"] = priority
    if schema_version is not None:
        document["schema_version"] = schema_version
    if trace_id is not None:
        document["trace_id"] = trace_id
    return document


def read_envelope(data: Any, kind: str) -> WireEnvelope:
    """Validate a wire envelope and return it whole.

    Raises :class:`ConfigurationError` when ``data`` is not an envelope, its
    schema version is not :data:`WIRE_SCHEMA_VERSION` or its kind is not the
    expected one.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"expected a wire envelope mapping, got {type(data).__name__}"
        )
    schema = data.get("wire_schema")
    if schema != WIRE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported wire schema {schema!r} (this build speaks {WIRE_SCHEMA_VERSION})"
        )
    if data.get("kind") != kind:
        raise ConfigurationError(f"expected envelope kind {kind!r}, got {data.get('kind')!r}")
    if "payload" not in data:
        raise ConfigurationError("wire envelope is missing its payload")
    return WireEnvelope(
        kind=kind,
        payload=data["payload"],
        tenant=data.get("tenant"),
        priority=data.get("priority"),
        schema_version=data.get("schema_version"),
        trace_id=data.get("trace_id"),
    )


def open_envelope(data: Any, kind: str) -> Any:
    """Validate a wire envelope and return its payload."""
    return read_envelope(data, kind).payload


def canonical_json(obj: Any) -> str:
    """Return the canonical (sorted-key, minimal-separator) JSON form of ``obj``."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """Return a SHA-256 content address of ``obj``'s canonical JSON form.

    The hash is stable across processes, interpreter restarts and
    ``PYTHONHASHSEED`` values, so it is safe to use as an on-disk cache key.
    """
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
