"""Shared exception types.

ConfigurationError maps to CLI exit code 2; everything else is a runtime
failure (exit code 1).
"""


class ConfigurationError(ValueError):
    """A config value, scenario file, or argument combination is invalid."""


class ShapeError(ValueError):
    """Array dimensions do not match what the operation expects."""


def refuse_unknown_keys(doc: dict, known, where: str) -> None:
    """Raise ``ConfigurationError`` if document ``doc`` has a key outside
    ``known``, so a misspelt key fails instead of being ignored."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")
