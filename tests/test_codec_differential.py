"""The compiled wire decoder against the per-call decoder it replaced.

:func:`repro.common.serialize.from_jsonable` decodes through codec plans
built once per dataclass.  The decoder below is the one it replaced, kept
verbatim as the oracle: it walks ``typing.get_type_hints`` on every call.
For every input both must build the same object, or raise the same
exception type with the same message.  Two sources of inputs:

* one-node mutations of two recorded submissions (a Figure 7 request and
  a one-case batch): a leaf or a container replaced by an awkward JSON
  value, a field deleted, or an unknown field added;
* random JSON trees, decoded as each type the service and the trace
  container decode: free-form trees whose keys are mostly those types'
  field names, and trees shaped like each type with a rare random node.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import json
import math
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping, Type, TypeVar, Union

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import serialize
from repro.common.errors import ConfigurationError
from repro.common.serialize import from_jsonable
from repro.exp.request import JobRequest
from repro.exp.runner import SimJob
from repro.isa.trace import RegionFootprint
from repro.sim.configs import MachineConfig, fmc_hash
from repro.trace.format import TraceHeader
from repro.workloads.base import WorkloadParameters
from repro.workloads.suite import quick_fp_suite

_T = TypeVar("_T")

# ----------------------------------------------------------------------
# The oracle: the decoder before codec plans, unchanged.
# ----------------------------------------------------------------------


def _wrong_type(expected: str, data: Any) -> ConfigurationError:
    return ConfigurationError(f"expected {expected}, got {type(data).__name__} {data!r}")


def _build(annotation: Any, data: Any) -> Any:
    if annotation is Any:
        return data
    origin = typing.get_origin(annotation)
    if origin is None:
        if dataclasses.is_dataclass(annotation):
            return _build_dataclass(annotation, data)
        if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
            try:
                return annotation(data)
            except (TypeError, ValueError):
                values = [member.value for member in annotation]
                raise _wrong_type(f"one of {values}", data) from None
        if annotation in (int, float):
            # bool subclasses int, and JSON keeps true apart from 1.
            if isinstance(data, bool) or not isinstance(data, (int, annotation)):
                raise _wrong_type(annotation.__name__, data)
            try:
                return annotation(data)
            except OverflowError:  # an int beyond the float range
                raise _wrong_type("a float-sized number", data) from None
        if annotation in (str, bool):
            if not isinstance(data, annotation):
                raise _wrong_type(annotation.__name__, data)
            return data
        if annotation is type(None):
            return None
        raise ConfigurationError(f"cannot deserialise into {annotation!r}")
    if origin in (tuple, list):
        if not isinstance(data, (list, tuple)):
            raise _wrong_type("a list", data)
        args = typing.get_args(annotation)
        if origin is list:
            return [_build(args[0], item) for item in data]
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_build(args[0], item) for item in data)
        if len(args) != len(data):
            raise ConfigurationError(
                f"expected {len(args)} tuple items for {annotation!r}, got {len(data)}"
            )
        return tuple(_build(arg, item) for arg, item in zip(args, data))
    if origin is dict:
        if not isinstance(data, Mapping):
            raise _wrong_type("a mapping", data)
        key_type, value_type = typing.get_args(annotation)
        return {_build(key_type, key): _build(value_type, value) for key, value in data.items()}
    if origin is Union:
        members = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        if data is None:
            return None
        if len(members) == 1:  # Optional[X]: X's own error names the problem
            return _build(members[0], data)
        for member in members:
            try:
                return _build(member, data)
            except (ConfigurationError, TypeError, ValueError, KeyError):
                continue
        raise ConfigurationError(f"no member of {annotation!r} accepts {data!r}")
    raise ConfigurationError(f"cannot deserialise into {annotation!r}")


def _build_dataclass(cls: Type[_T], data: Any) -> _T:
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"expected a mapping to rebuild {cls.__name__}, got {type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for field in dataclasses.fields(cls):
        if not field.init or field.name.startswith("_"):
            continue
        if field.name in data:
            try:
                kwargs[field.name] = _build(hints[field.name], data[field.name])
            except ConfigurationError as error:
                raise ConfigurationError(f"{field.name}: {error}") from None
        elif field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING:
            raise ConfigurationError(f"{cls.__name__} is missing its {field.name!r}")
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Comparing the two
# ----------------------------------------------------------------------


def _outcome(decode, cls: type, data: Any):
    """What decoding ``data`` as ``cls`` gives: the object, or the error."""
    try:
        value = decode(cls, data)
    except Exception as error:  # noqa: BLE001 -- both decoders must fail alike
        return ("raised", type(error), str(error))
    # repr, not ==: a NaN field would make equal objects compare unequal.
    return ("built", type(value), repr(value))


def _assert_same(cls: type, data: Any) -> None:
    expected = _outcome(_build, cls, copy.deepcopy(data))
    assert _outcome(from_jsonable, cls, data) == expected


# ----------------------------------------------------------------------
# (i) One-node mutations of recorded submissions
# ----------------------------------------------------------------------

#: Two submissions as they arrive on the wire.
RECORDED = {
    "fig7": json.loads(json.dumps(JobRequest(figure="fig7").to_dict())),
    "one-case": json.loads(
        json.dumps(
            JobRequest(
                cases=(SimJob(fmc_hash(), quick_fp_suite().members[0], 1500, 7),)
            ).to_dict()
        )
    ),
}

#: What a mutation puts in place of a node; ``10**400`` is beyond the float range.
LEAF_VALUES = (
    -1, 0, 2**70, -(2**70), 10**400, 1.5, math.nan, math.inf, "", "x", None, True,
    [], {}, [1], {"a": 1},
)


def _nodes(tree: Any, path=()):
    """Every ``(path, node)`` of a JSON tree, the root included."""
    yield path, tree
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _parent(tree: Any, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


#: Per payload: the path of every node but the root, which a mutation may
#: replace (a leaf, or a whole container such as an access-size pair) ...
NODES = {name: [path for path, _node in _nodes(tree) if path] for name, tree in RECORDED.items()}
#: ... of every field of an object, which a mutation may delete ...
FIELDS = {
    name: [path for path, _node in _nodes(tree) if path and isinstance(_parent(tree, path), dict)]
    for name, tree in RECORDED.items()
}
#: ... and of every object, which a mutation may give an unknown field.
OBJECTS = {
    name: [path for path, node in _nodes(tree) if isinstance(node, dict)]
    for name, tree in RECORDED.items()
}


@st.composite
def mutated_submissions(draw):
    name = draw(st.sampled_from(sorted(RECORDED)))
    payload = copy.deepcopy(RECORDED[name])
    value = copy.deepcopy(draw(st.sampled_from(LEAF_VALUES)))
    mutation = draw(st.sampled_from(("replace", "delete", "add")))
    if mutation == "replace":
        path = draw(st.sampled_from(NODES[name]))
        _parent(payload, path)[path[-1]] = value
    elif mutation == "delete":
        path = draw(st.sampled_from(FIELDS[name]))
        del _parent(payload, path)[path[-1]]
    else:
        path = draw(st.sampled_from(OBJECTS[name]))
        target = payload
        for key in path:
            target = target[key]
        target["unknown_field"] = value
    return payload


def test_recorded_submissions_decode_alike() -> None:
    for payload in RECORDED.values():
        _assert_same(JobRequest, payload)
        assert from_jsonable(JobRequest, payload).to_dict() == payload


@given(mutated_submissions())
@settings(max_examples=300, deadline=None)
def test_mutated_submissions_decode_alike(payload) -> None:
    _assert_same(JobRequest, payload)


# ----------------------------------------------------------------------
# (ii) Random JSON trees, decoded as every wire type
# ----------------------------------------------------------------------

DECODED_TYPES = (
    JobRequest, SimJob, MachineConfig, WorkloadParameters, RegionFootprint, TraceHeader,
)


def _reachable(cls: type, seen: dict) -> dict:
    """Every dataclass reachable from ``cls`` through its type hints."""

    def visit(annotation: Any) -> None:
        if dataclasses.is_dataclass(annotation) and annotation not in seen:
            seen[annotation] = typing.get_type_hints(annotation)
            for hint in seen[annotation].values():
                visit(hint)
        for argument in typing.get_args(annotation):
            visit(argument)

    visit(cls)
    return seen


_REACHABLE: dict = {}
for _cls in DECODED_TYPES:
    _reachable(_cls, _REACHABLE)
FIELD_NAMES = sorted({field.name for cls in _REACHABLE for field in dataclasses.fields(cls)})
ENUM_VALUES = sorted(
    {
        member.value
        for hints in _REACHABLE.values()
        for hint in hints.values()
        if isinstance(hint, type) and issubclass(hint, enum.Enum)
        for member in hint
    }
)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(ENUM_VALUES)
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=3), children, max_size=8),
    max_leaves=40,
)


SCALARS = {int: st.integers(), float: st.floats(), str: st.text(max_size=6), bool: st.booleans()}


@functools.lru_cache(maxsize=None)
def _shaped(annotation: Any):
    """Trees shaped like ``annotation``'s JSON form, so decoding goes deep.

    Required fields are always present and optional ones sometimes; about
    one node in a hundred is a random scalar instead, of whatever type.
    """
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if dataclasses.is_dataclass(annotation):
        hints = typing.get_type_hints(annotation)
        required, optional = {}, {}
        for field in dataclasses.fields(annotation):
            missing = dataclasses.MISSING
            has_default = field.default is not missing or field.default_factory is not missing
            target = optional if has_default else required
            target[field.name] = st.deferred(lambda hint=hints[field.name]: _shaped(hint))
        shaped = st.fixed_dictionaries(required, optional=optional)
    elif isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        shaped = st.sampled_from([member.value for member in annotation])
    elif annotation in SCALARS:
        shaped = SCALARS[annotation]
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        shaped = st.lists(_shaped(args[0]), max_size=3)
    elif origin is tuple:  # a fixed arity, broken one time in ten
        exact = st.tuples(*(_shaped(arg) for arg in args)).map(list)
        wrong = st.lists(json_scalars, max_size=3)
        shaped = st.integers(0, 9).flatmap(lambda roll: exact if roll else wrong)
    elif origin is Union:
        shaped = st.none() | _shaped(next(arg for arg in args if arg is not type(None)))
    else:
        shaped = json_trees
    return st.integers(0, 99).flatmap(lambda roll: json_scalars if roll == 0 else shaped)


@given(
    st.sampled_from(DECODED_TYPES).flatmap(
        lambda cls: st.tuples(st.just(cls), json_trees | _shaped(cls))
    )
)
@settings(max_examples=300, deadline=None)
def test_random_trees_decode_alike(case) -> None:
    cls, data = case
    _assert_same(cls, data)


def test_plans_built_by_racing_threads_agree() -> None:
    """Threads that all build the first plans at once decode and encode alike."""
    payload = RECORDED["one-case"]
    serialize._ENCODE_PLANS.clear()
    serialize._DECODE_PLANS.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(lambda: serialize.to_jsonable(from_jsonable(JobRequest, payload)))
                for _ in range(32)
            ]
            lowered = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(document == payload for document in lowered)
    assert set(serialize._DECODE_PLANS) == set(_reachable(JobRequest, {}))
