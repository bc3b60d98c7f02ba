"""The package's one JSON codec, for bench configs, environment files and
system files: each is a dataclass, and its fields are the schema.

A missing key takes its field's default, the decoder's one default rule.
Field metadata adjusts the JSON form: "key" names the JSON key when it
differs from the field name, "default" gives a field the default the
dataclass cannot carry, "echo_if" is a predicate of the owning object that
decides whether the field is encoded, and "kinds" maps the names of a tagged
union to its classes, the JSON object naming its class under "kind".

Decoding is strict: an unknown or missing key, a wrong JSON type, a fraction
for an int, a non-finite number and a ValueError from a dataclass's own
checks each raise ConfigError, which `rolecomms` reports with exit code 2.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError

# resolved once per class: resolving the string annotations costs about as
# much as decoding a whole config
_type_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _field_plan(cls) -> tuple:
    """Each field's (name, key, echo_if, kind name by class), read once per class."""
    return tuple(
        (f.name, f.metadata.get("key", f.name), f.metadata.get("echo_if"),
         {c: kind for kind, c in f.metadata["kinds"].items()} if "kinds" in f.metadata else None)
        for f in fields(cls)
    )


def encode(value):
    """The JSON value of a dataclass, tuple, list or scalar."""
    if is_dataclass(value):
        out = {}
        for name, key, echo_if, kinds in _field_plan(type(value)):
            if echo_if is None or echo_if(value):
                item = getattr(value, name)
                out[key] = encode(item) if kinds is None else {"kind": kinds[type(item)], **encode(item)}
        return out
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return value


def decode(tp, value, where: str):
    """Strictly decode the JSON value `value` as type `tp`.

    Raises ConfigError with a message that starts at `where`, the name of
    the value, and follows keys and indices to the offending part.
    """
    try:
        return _decode(tp, value, where)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _decode(tp, value, where: str):
    """decode, raising TypeError, ValueError or OverflowError."""
    if tp in (bool, str):
        if not isinstance(value, tp):
            raise TypeError(f"{where}: expected a {tp.__name__}, got {value!r}")
        return value
    if tp in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"{where}: expected a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError as exc:  # an int beyond the range of a float
            raise ValueError(f"{where}: {exc}") from exc
        if not finite:
            raise ValueError(f"{where}: expected a finite number, got {value!r}")
        if tp is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{where}: expected an integer, got {value!r}")
        return tp(value)
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, value, where)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise TypeError(f"{where}: expected an object, got {value!r}")
        schema = {f.metadata.get("key", f.name): f for f in fields(tp)}
        unknown = set(value) - set(schema)
        if unknown:
            raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
        kwargs = {}
        for key, f in schema.items():
            default = f.metadata.get("default", f.default)
            if key in value:
                if "kinds" in f.metadata:
                    field_tp, item = _untag(f.metadata["kinds"], value[key], f"{where}.{key}")
                else:
                    field_tp, item = _type_hints(tp)[f.name], value[key]
                kwargs[f.name] = _decode(field_tp, item, f"{where}.{key}")
            elif default is not MISSING:
                kwargs[f.name] = default
            else:
                raise ValueError(f"{where}: missing key {key!r}")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
    if origin is tuple:
        if not isinstance(value, list):
            raise TypeError(f"{where}: expected a list, got {value!r}")
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if len(value) != len(items):
            raise ValueError(f"{where}: expected {len(items)} elements, got {value!r}")
        return tuple(_decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    raise TypeError(f"{where}: unsupported type {tp!r}")


def _untag(kinds: dict, value, where: str):
    """The class a tagged JSON object names under "kind", and its other keys."""
    kind = value.get("kind") if isinstance(value, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"{where}.kind: expected one of {', '.join(kinds)}, got {kind!r}")
    return kinds[kind], {k: v for k, v in value.items() if k != "kind"}
