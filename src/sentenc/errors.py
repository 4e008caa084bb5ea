"""Domain errors. Each class carries the exit code and the stderr label the
CLI reports it with, so the mapping from a failure to its exit code is
decided here and nowhere else.

Exit codes: 1 I/O or input failure, 2 config error, 3 numeric divergence.
"""

from __future__ import annotations


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
