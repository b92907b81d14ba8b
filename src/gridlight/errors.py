"""Shared exception types and the document readers that raise them.

ConfigurationError maps to CLI exit code 2; everything else is a runtime
failure (exit code 1).
"""

from numbers import Integral


class ConfigurationError(ValueError):
    """A config value, scenario file, or argument combination is invalid."""


class ShapeError(ValueError):
    """Array dimensions do not match what the operation expects."""


def refuse_unknown_keys(doc: dict, known, where: str) -> None:
    """Raise ``ConfigurationError`` if document ``doc`` is not an object or
    has a key outside ``known``, so a misspelt key fails instead of being
    ignored."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")


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
