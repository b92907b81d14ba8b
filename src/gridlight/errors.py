"""Shared exception types and the document readers that raise them.

ConfigurationError maps to CLI exit code 2; everything else is a runtime
failure (exit code 1).
"""

import json
from dataclasses import MISSING, fields
from numbers import Integral
from pathlib import Path
from typing import get_args, get_origin, get_type_hints


class ConfigurationError(ValueError):
    """A config value, scenario file, or argument combination is invalid."""


class ShapeError(ValueError):
    """Array dimensions do not match what the operation expects."""


def read_int(value, name: str) -> int:
    """Document value ``value`` of field ``name`` as an int: ``2``, ``2.0``
    and ``"2"`` read as 2, while ``2.7``, ``"x"`` or ``true`` raise
    ``ConfigurationError`` instead of being truncated."""
    whole = value
    try:
        if isinstance(value, str) or (isinstance(value, float)
                                      and value.is_integer()):
            whole = int(value)
    except ValueError:
        pass
    if isinstance(whole, bool) or not isinstance(whole, Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(whole)


def read_list(value, name: str) -> list:
    """Document value ``value`` of field ``name`` as a list; anything but a
    list, a string included, raises ``ConfigurationError`` instead of being
    iterated."""
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list, got {value!r}")
    return list(value)


def load_json(path):
    """The JSON value in file ``path``; a file that is missing, unreadable
    or not JSON raises ``ConfigurationError`` naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON or UTF-8
        raise ConfigurationError(f"cannot read JSON file {path}: {exc}") \
            from exc


class Document:
    """A dataclass read from and written to a JSON object by its field
    types (:func:`read_document`). A field's document key is its name, or
    its metadata's ``key``."""

    where = "document"  # what messages call such a document

    @classmethod
    def document_defaults(cls, doc: dict) -> dict:
        """Values for fields that document ``doc`` leaves out, where they
        differ from the dataclass's defaults."""
        return {}

    @classmethod
    def from_json(cls, doc):
        return read_document(cls, doc)

    def to_json(self) -> dict:
        return {f.metadata.get("key", f.name): _written(getattr(self, f.name))
                for f in fields(self)}


def _written(value):
    if isinstance(value, Document):
        return value.to_json()
    return [_written(v) for v in value] if isinstance(value, tuple) else value


def read_document(kind: type, doc, base=None):
    """Document ``doc`` as dataclass ``kind``: each field it gives is read
    by :func:`read_value`, and each it leaves out takes its value in
    ``base``, else in ``kind.document_defaults(doc)``, else the dataclass's
    default; a field with none of those is required. Messages call the
    document ``kind.where``."""
    where = kind.where
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be an object, got {doc!r}")
    keys = {f.metadata.get("key", f.name): f for f in fields(kind)}
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")
    defaults = {**kind.document_defaults(doc),
                **(vars(base) if base is not None else {})}
    types, values = get_type_hints(kind), {}
    for key, f in keys.items():
        if key in doc:
            values[f.name] = read_value(types[f.name], doc[key], key,
                                        defaults.get(f.name))
        elif f.name in defaults:
            values[f.name] = defaults[f.name]
        elif f.default is MISSING:
            raise ConfigurationError(f"{where} missing field {key!r}")
    return kind(**values)


_KINDS = {bool: "true or false", float: "a float", str: "a string"}


def read_value(kind, value, name: str, base=None):
    """Document value ``value`` of field ``name``, read as type ``kind``:
    a bool takes only a JSON boolean, an int goes through :func:`read_int`,
    a float takes a number or a numeric string but no boolean, a str only a
    string, ``tuple[X, ...]`` a list of X and a fixed tuple a list of its
    length. A :class:`Document` takes an object whose missing fields come
    from ``base``; a ``ConfigurationError`` inside it is prefixed with
    ``name``."""
    if kind is int:
        return read_int(value, name)
    if kind in _KINDS:
        if kind is float and isinstance(value, (int, str)) \
                and not isinstance(value, bool):
            try:
                value = float(value)
            except (ValueError, OverflowError):
                pass
        if not isinstance(value, kind):
            raise ConfigurationError(
                f"{name} must be {_KINDS[kind]}, got {value!r}")
        return value
    if get_origin(kind) is tuple:
        items, kinds = read_list(value, name), get_args(kind)
        if kinds[-1] is Ellipsis:
            kinds = kinds[:1] * len(items)
        elif len(items) != len(kinds):
            raise ConfigurationError(
                f"{name} must be a list of {len(kinds)}, got {value!r}")
        return tuple(read_value(k, v, f"{name}[{i}]")
                     for i, (k, v) in enumerate(zip(kinds, items)))
    try:
        return read_document(kind, value, base)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc
