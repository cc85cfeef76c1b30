"""Exception hierarchy shared across the package.

Split into two broad families so the CLI can map failures to exit codes:
``DataError`` (bad inputs, exit 2) and ``ProviderError`` (remote generation
or embedding endpoints, exit 3).
"""

from __future__ import annotations

from pathlib import Path


class McIndexError(Exception):
    """Base class for all package errors."""


class DataError(McIndexError):
    """Invalid or inconsistent input data."""


class SchemaError(DataError):
    """A JSONL record does not match the expected schema.

    Reads ``<path>: line <line>: <message>``, leaving out a part while it is
    None. A loader sets ``path`` on the errors raised for its file's records.
    """

    def __init__(self, message: str, line: int | None = None, path: str | Path | None = None):
        super().__init__(message)
        self.line = line
        self.path = path

    def __str__(self) -> str:
        text = self.args[0]
        if self.line is not None:
            text = f"line {self.line}: {text}"
        if self.path is not None:
            text = f"{self.path}: {text}"
        return text


class DuplicateId(DataError):
    """An identifier that must be unique occurred twice."""


class EmptyDocument(DataError):
    """No non-whitespace content survived parsing."""


class EmptyCorpus(DataError):
    """An index was requested over zero units."""


class UnknownDoc(DataError):
    """A question references a document (or section) that is not present."""


class ViewMismatch(DataError):
    """View indexes do not cover the same unit ids."""


class EmptyScope(DataError):
    """An answer scope with zero characters cannot be scored."""


class EmptyRetrieval(DataError):
    """Answer generation requires at least one retrieved text."""


class CorruptIndex(DataError):
    """A persisted index failed checksum verification."""


class VersionMismatch(DataError):
    """A persisted index uses an unsupported format version."""


class ProviderMismatch(DataError):
    """A dense index was built with a different provider than supplied."""


class ProviderError(McIndexError):
    """A generation or embedding endpoint failed (after retries)."""


class DimensionMismatch(ProviderError):
    """An embedding provider's vectors are not one numeric row per text of a single width."""


class ParseError(McIndexError):
    """Provider output could not be parsed into the expected shape."""
