"""Exception hierarchy shared across the package, and the helpers every
file loader uses to open its input and to name the file in its errors.

Everything raised on bad data or bad parameters derives from AdexpandError
so the CLI can map it to a single "data error" exit code.
"""

from __future__ import annotations

import contextlib
import json
import sys
from math import inf, isfinite
from types import GenericAlias
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


# What reading a parsed document raises on a missing key, a value of the
# wrong kind (see typed), a number that does not convert (a 400-digit label
# meets numpy as OverflowError), a document nested too deep for the parser
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


# The name of each JSON kind, by the Python type json.loads makes of it
_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean", list: "a list",
          dict: "an object"}


def typed(doc, key, kind, default=...):
    """doc[key] read as exactly one JSON kind: int (not a boolean), float (a
    finite int or float, returned as a float), str, bool, list, dict or
    list[kind]; ``default``, if given, for a missing key or one that holds
    that object (null, for None). Else TypeError or ValueError names the key."""
    value = doc[key] if default is ... else doc.get(key, default)
    if type(value) is kind and kind is not float or value is default:
        return value
    if kind is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else inf
    if kind is float and type(value) is float and isfinite(value):
        return value
    name = f"[{key}]" if type(key) is int else repr(key)
    if type(value) is kind:
        raise ValueError(f"{name} must be finite, got {value!r}")
    if type(kind) is not GenericAlias or type(value) is not list:
        raise TypeError(f"{name} must be {_KINDS.get(kind, 'a list')}, got {value!r}")
    entries, entry = [], kind.__args__[0]
    try:
        for i in range(len(value)):
            entries.append(typed(value, i, entry))
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}{exc}") from None
    return entries


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
