"""Exception hierarchy shared across the package, and the helpers every
file loader uses to open its input and to name the file in its errors.

Everything raised on bad data or bad parameters derives from AdexpandError
so the CLI can map it to a single "data error" exit code.
"""

from __future__ import annotations

import contextlib
import json
import math
from typing import Callable, Iterator, TextIO, TypeVar

T = TypeVar("T")


class AdexpandError(Exception):
    """Base class for all adexpand data and parameter errors."""


class ZeroVectorError(AdexpandError):
    """Vector has (near-)zero L2 norm and cannot be normalized."""


class NonFiniteError(AdexpandError):
    """Vector or value contains NaN or infinity."""


class DimensionMismatchError(AdexpandError):
    """Vector dimensions disagree, or a dim is below what an operation needs."""


class ParseError(AdexpandError):
    """A data file is malformed; message carries the line number."""


# What reading a parsed document raises on a missing key, a wrong type, a
# value that does not convert (1e999 or a 400-digit number meets int() or
# float() as OverflowError), a document nested too deep for the parser
# (RecursionError) or a failed check of the loader's own; each loader turns
# these into a ParseError that names the file.
MALFORMED = (
    AttributeError, KeyError, OverflowError, ParseError, RecursionError, TypeError, ValueError
)


def malformed(where: str, what: str, exc: Exception) -> ParseError:
    """The ParseError for one of MALFORMED, naming the file and the key."""
    if isinstance(exc, KeyError):
        return ParseError(f"{where}: malformed {what}: missing key {exc.args[0]!r}")
    return ParseError(f"{where}: malformed {what}: {type(exc).__name__}: {exc}")


@contextlib.contextmanager
def reading(path: str, fh: TextIO | None = None) -> Iterator[TextIO]:
    """What a loader reads ``path`` from: ``fh`` when the caller has it open
    (left open, its owner closes it), else ``path`` opened as UTF-8 text. A
    byte that is not UTF-8, met anywhere in the block, raises ParseError
    naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") if fh is None else contextlib.nullcontext(fh) as src:
            yield src
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc


def parse_json(
    path: str, what: str, build: Callable[[object], T] = lambda doc: doc, fh: TextIO | None = None
) -> T:
    """``build`` applied to the JSON document read from ``path`` (see
    reading). The text is decoded before parsing starts, so a byte that is
    not UTF-8 reads "not UTF-8 text" like every loader's; bad JSON, and any
    of MALFORMED that ``build`` raises, is ``malformed(path, what, ...)``."""
    with reading(path, fh) as src:
        text = src.read()
    try:
        return build(json.loads(text))
    except MALFORMED as exc:
        raise malformed(path, what, exc) from exc


def finite(doc: dict, key: str) -> float:
    """doc[key] as a float, which must be finite: JSON parses NaN, Infinity
    and 1e999 to floats, and a NaN passes every check that refuses by a
    comparison (``nan < 0`` is false)."""
    value = float(doc[key])
    if not math.isfinite(value):
        raise ValueError(f"{key!r} must be finite, got {value!r}")
    return value


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
    """An adjustment model would exceed its caps of two trees of depth 5."""


class DanglingReferenceError(AdexpandError):
    """Snapshot input references a keyword that no campaign declares."""


class VersionRegressionError(AdexpandError):
    """Snapshot version does not increase."""


class UnknownMarketError(AdexpandError):
    """Query names a market the snapshot does not serve."""


class NoPositivePairsError(AdexpandError):
    """Label set contains no positive pair among retrieved candidates."""
