"""Exception hierarchy shared across the package, and the helpers every
file loader uses to open its input and to name the file in its errors.

Everything raised on bad data or bad parameters derives from AdexpandError
so the CLI can map it to a single "data error" exit code.
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, TextIO


class AdexpandError(Exception):
    """Base class for all adexpand data and parameter errors."""


class ZeroVectorError(AdexpandError):
    """Vector has (near-)zero L2 norm and cannot be normalized."""


class NonFiniteError(AdexpandError):
    """Vector or value contains NaN or infinity."""


class DimensionMismatchError(AdexpandError):
    """Vector dimensions disagree."""


class ParseError(AdexpandError):
    """A data file is malformed; message carries the line number."""


# What reading a parsed document raises on a missing key, a wrong type, a
# value that does not convert or a failed check of the loader's own; each
# loader turns these into a ParseError that names the file.
MALFORMED = (AttributeError, KeyError, ParseError, TypeError, ValueError)


def malformed(where: str, what: str, exc: Exception) -> ParseError:
    """The ParseError for one of MALFORMED, naming the file and the key."""
    if isinstance(exc, KeyError):
        return ParseError(f"{where}: malformed {what}: missing key {exc.args[0]!r}")
    return ParseError(f"{where}: malformed {what}: {type(exc).__name__}: {exc}")


def reading(path: str, fh: TextIO | None = None) -> ContextManager[TextIO]:
    """What a loader reads ``path`` from: ``fh`` when the caller has it open
    (left open, its owner closes it), else ``path`` opened as UTF-8 text."""
    return open(path, "r", encoding="utf-8") if fh is None else contextlib.nullcontext(fh)


def check_market(where: str, found: str, expected: str) -> None:
    """ParseError naming the file when a per-market file belongs to another
    market than the one it is used for."""
    if found != expected:
        raise ParseError(f"{where}: holds market {found!r}, used for market {expected!r}")


class DuplicateKeywordError(AdexpandError):
    """The same (market, keyword) pair appears twice."""


class EmptySetError(AdexpandError):
    """An operation requires a non-empty collection."""


class TooManyClustersError(AdexpandError):
    """Requested more clusters than there are points."""


class UnassignedKeywordError(AdexpandError):
    """A keyword in the embedding set has no cluster assignment."""


class EmptyInputError(AdexpandError):
    """A numeric computation received no values."""


class InvalidQuantileError(AdexpandError):
    """Quantile fraction outside (0, 1]."""


class DegenerateInputError(AdexpandError):
    """Statistic undefined because an input has zero variance."""


class EmptyDatasetError(AdexpandError):
    """A model operation requires a non-empty dataset."""


class SchemaMismatchError(AdexpandError):
    """Feature vector does not match the model's feature schema."""


class ConstraintViolationError(AdexpandError):
    """Adjustment-model size limits exceeded without an explicit override."""


class DanglingReferenceError(AdexpandError):
    """Snapshot input references a keyword that no campaign declares."""


class VersionRegressionError(AdexpandError):
    """Snapshot version does not increase."""


class UnknownMarketError(AdexpandError):
    """Query names a market the snapshot does not serve."""


class NoPositivePairsError(AdexpandError):
    """Label set contains no positive pair among retrieved candidates."""
