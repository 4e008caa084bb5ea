"""Domain errors. Each class carries the exit code and the stderr label the
CLI reports it with, so the mapping from a failure to its exit code is
decided here and nowhere else; so is the one rule for a config field's range.

Exit codes: 1 I/O or input failure, 2 config error, 3 numeric divergence.
"""

from __future__ import annotations

import functools
import operator
import types
import typing
from dataclasses import fields


class SentencError(Exception):
    """Base of every error the CLI reports as one stderr line."""

    exit_code = 1
    label = "I/O error"


class ConfigError(SentencError):
    """Malformed or inconsistent run configuration."""

    exit_code = 2
    label = "config error"


class DivergenceError(SentencError):
    """Non-finite loss or gradient; training aborted."""

    exit_code = 3
    label = "training diverged"


class CorpusError(SentencError):
    """Unreadable file or structurally corrupted corpus."""


class MiningError(SentencError):
    """Invalid mining configuration or encoder input."""


class EncoderError(SentencError):
    """Invalid encoder configuration or input."""


class EvalError(SentencError):
    """Degenerate task or metric input."""


class NumericError(SentencError, ValueError):
    """Invalid input to a numeric kernel operation."""


# The bounds a config field may declare in its metadata, e.g.
# field(default=64, metadata={"min": 1}), and the relation a value keeps to each.
_BOUNDS = {"min": (">=", operator.ge), "gt": (">", operator.gt), "max": ("<=", operator.le)}


def check_value(key: str, value, hint, bounds) -> None:
    """ConfigError, one line `<key> <value!r> must be >= N` (or `> N`, `<= N`,
    `one of ...`), unless `value` keeps `bounds` (each element does, for a
    list; None keeps any) and is one of a Literal `hint`'s values."""
    if typing.get_origin(hint) is typing.Literal and value not in typing.get_args(hint):
        raise ConfigError(f"{key} {value!r} must be one of "
                          + ", ".join(map(repr, typing.get_args(hint))))
    if isinstance(value, list):
        for i, item in enumerate(value):
            check_value(f"{key}[{i}]", item, None, bounds)
        return
    for name, bound in bounds.items():
        sign, keeps = _BOUNDS[name]
        if value is not None and not keeps(value, bound):  # `not`, so NaN fails
            raise ConfigError(f"{key} {value!r} must be {sign} {bound}")


@functools.cache
def field_hints(cls) -> types.MappingProxyType:
    """typing.get_type_hints of dataclass `cls`, resolved once per class and
    read-only, since every caller shares it."""
    return types.MappingProxyType(typing.get_type_hints(cls))


def check_declared(section, prefix: str, skip=()) -> None:
    """check_value on each field of dataclass instance `section` but those in
    `skip`; `prefix` is the section's config key and a dot ("" at the top)."""
    hints = field_hints(type(section))
    for f in fields(section):
        if f.name not in skip:
            check_value(prefix + f.name, getattr(section, f.name), hints[f.name], f.metadata)
