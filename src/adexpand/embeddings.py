"""Keyword embeddings: normalization, cosine arithmetic, a deterministic
hashed-n-gram fallback embedder, and TSV ingestion.

Vectors are float32 numpy arrays with unit L2 norm. The fallback embedder
stands in for a pre-trained encoder: it only needs to place near-duplicate
strings close together, deterministically, with no model file.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateKeywordError,
    EmptySetError,
    NonFiniteError,
    ParseError,
    ZeroVectorError,
    reading,
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

NGRAM_SIZES = (3, 4, 5)
DEFAULT_DIM = 256
# the smallest dim fallback_embed accepts
MIN_DIM = 16
_MIN_NORM = 1e-12  # a vector whose L2 norm is at or below this is zero


@dataclass(frozen=True, order=True)
class KeywordRef:
    """Identity of one keyword within a market."""

    market: str
    text: str
    id: int


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def normalize(values) -> np.ndarray:
    """Scale a raw vector to unit L2 norm (float32).

    Raises ZeroVectorError when the norm is at or below 1e-12 and
    NonFiniteError when any entry is NaN or infinite.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError("expected a 1-D vector with at least one entry")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("vector contains NaN or infinity")
    norm = float(np.linalg.norm(v))
    if norm <= _MIN_NORM:
        raise ZeroVectorError("cannot normalize a zero vector")
    return (v / norm).astype(np.float32)


def _normalize_rows(vectors: list[np.ndarray]) -> np.ndarray:
    """normalize() of each of some finite, equal-length vectors whose norms
    are clear of zero, stacked, bit for bit: the same dot product for each
    norm, the same division, the same cast."""
    rows = np.array(vectors, dtype=np.float64)
    rows /= np.sqrt(np.array([row.dot(row) for row in rows]))[:, None]
    return rows.astype(np.float32)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1]."""
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dimensions differ: {u.shape} vs {v.shape}")
    return float(np.clip(np.dot(u, v), -1.0, 1.0))


def fallback_embed(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Deterministic embedding from hashed character n-grams.

    The lowercased, trimmed text is padded with '#' boundaries and decomposed
    into character n-grams of sizes 3, 4 and 5. Each n-gram is hashed with
    FNV-1a 64-bit; the hash picks a bucket (hash mod dim) and a sign (+1 when
    bit 63 is clear, -1 otherwise). Bucket counts are accumulated in that
    fixed order and the result is normalized, so identical (text, dim) inputs
    produce bit-identical vectors on every platform.
    """
    if dim < MIN_DIM:
        raise ValueError(f"dim must be at least {MIN_DIM}")
    trimmed = text.strip().lower()
    if not trimmed:
        raise ZeroVectorError("text produces no n-grams")
    padded = "#" + trimmed + "#"
    buckets = np.zeros(dim, dtype=np.int64)
    for n in NGRAM_SIZES:
        for start in range(len(padded) - n + 1):
            h = fnv1a_64(padded[start : start + n].encode("utf-8"))
            sign = 1 if (h >> 63) == 0 else -1
            buckets[h % dim] += sign
    if not np.any(buckets):
        raise ZeroVectorError("n-gram signs cancelled to a zero vector")
    return normalize(buckets)


@dataclass
class EmbeddingSet:
    """All keyword vectors for one market; a keyword's id is its row number
    in both refs and matrix."""

    market: str
    dim: int
    refs: list[KeywordRef]
    matrix: np.ndarray
    _by_text: dict[str, KeywordRef] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if any(r.id != row for row, r in enumerate(self.refs)):
            raise ValueError("keyword ids must be the row numbers 0..n-1")
        self._by_text = {r.text: r for r in self.refs}

    @classmethod
    def from_pairs(cls, market: str, pairs: list[tuple[str, np.ndarray]]) -> "EmbeddingSet":
        """Build a set from (keyword text, raw vector) pairs.

        Ids are assigned sequentially in input order; vectors are normalized.
        """
        if not pairs:
            raise EmptySetError(f"no keywords for market {market!r}")
        dim = len(pairs[0][1])
        refs: list[KeywordRef] = []
        rows = []
        seen: set[str] = set()
        for i, (text, vec) in enumerate(pairs):
            text = text.strip()
            if not text:
                raise ParseError(f"empty keyword at position {i}")
            if text in seen:
                raise DuplicateKeywordError(f"duplicate keyword {text!r} in market {market!r}")
            seen.add(text)
            if len(vec) != dim:
                raise DimensionMismatchError(
                    f"keyword {text!r} has dim {len(vec)}, expected {dim}"
                )
            refs.append(KeywordRef(market=market, text=text, id=i))
            rows.append(normalize(vec))
        return cls(market=market, dim=dim, refs=refs, matrix=np.vstack(rows))

    def __len__(self) -> int:
        return len(self.refs)

    def vector(self, ref: KeywordRef) -> np.ndarray:
        return self.matrix[ref.id]

    def ref_by_text(self, text: str) -> KeywordRef | None:
        return self._by_text.get(text)


def read_tsv(
    path: str, layout: tuple[str, ...], fh: TextIO | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(lineno, fields)`` for each record of a TSV input file.

    This is the one rule every TSV input follows: the trailing newline is
    stripped, blank lines and lines starting with '#' (after leading
    whitespace) are skipped, and each remaining line must split on TAB into
    exactly ``len(layout)`` fields, else ParseError names ``path:lineno``.
    Field values are returned as read; callers own per-field handling.
    ``fh``, when given, is ``path`` already open, read from where it stands.
    """
    with reading(path, fh) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != len(layout):
                raise ParseError(f"{path}:{lineno}: expected {'<TAB>'.join(layout)}")
            yield lineno, fields


_EMBEDDINGS_LAYOUT = ("market", "keyword", "vector")


class _PerRecord(Exception):
    """A record that the bulk parse leaves to the per-record path."""


def _parse_all_vectors(
    path: str, fh: TextIO
) -> tuple[list[tuple[int, str, str]], np.ndarray] | None:
    """Every record's (lineno, market, keyword) and all vector fields parsed
    by one ``np.loadtxt`` call, whose rows equal the per-record parse's.

    None when any record might fail a check of the per-record parse or of
    read_tsv; the caller then parses record by record, so each error is
    raised as before, naming its ``path:lineno``. ``loadtxt`` rejects what
    ``float`` accepts beyond plain decimals (``1_000``, non-ASCII digits),
    which also leaves those files to the per-record path.
    """
    records: list[tuple[int, str, str]] = []

    def fields() -> Iterator[str]:
        # streamed, so that no more than one line's text is held at a time
        for lineno, (market, keyword, values) in read_tsv(path, _EMBEDDINGS_LAYOUT, fh):
            if not values or values.isspace():  # loadtxt would skip the line
                raise _PerRecord
            records.append((lineno, market, keyword))
            yield values

    lines = fields()
    try:
        first = next(lines, None)  # loadtxt warns on a file with no records
        if first is None:
            return None
        matrix = np.loadtxt(
            itertools.chain([first], lines), dtype=np.float64, comments=None, ndmin=2
        )
    except (_PerRecord, ParseError, ValueError):  # ValueError: also undecodable bytes
        return None
    if matrix.shape[0] != len(records) or not np.all(np.isfinite(matrix)):
        return None
    # These row norms sum in another order than the per-record check's, so
    # only norms well clear of the limit are taken as passing it.
    if np.any(np.linalg.norm(matrix, axis=1) <= 10 * _MIN_NORM):
        return None
    return records, matrix


def _read_rows(
    path: str, markets: list[str] | None, fh: TextIO
) -> tuple[dict[str, list[tuple[str, np.ndarray]]], int | None]:
    """Every row of the embeddings file checked, and the requested markets'
    (keyword, raw vector) pairs in file order, with the shared dimension."""
    # Each row's last item is its parsed vector, or on the per-record path
    # the raw field, parsed after the keyword checks as errors are ordered.
    parsed = _parse_all_vectors(path, fh)
    if parsed is None:
        fh.seek(0)
        rows = (
            (lineno, market, keyword, values)
            for lineno, (market, keyword, values) in read_tsv(path, _EMBEDDINGS_LAYOUT, fh)
        )
    else:
        records, matrix = parsed
        rows = ((*record, vec) for record, vec in zip(records, matrix))
    by_market: dict[str, list[tuple[str, np.ndarray]]] = {}
    dim: int | None = None
    seen: set[tuple[str, str]] = set()
    for lineno, row_market, keyword, vec in rows:
        keyword = keyword.strip()
        if not keyword:
            raise ParseError(f"{path}:{lineno}: empty keyword")
        key = (row_market, keyword)
        if key in seen:
            raise DuplicateKeywordError(f"{path}:{lineno}: duplicate keyword {keyword!r}")
        seen.add(key)
        if parsed is None:
            try:
                vec = np.array([float(x) for x in vec.split()], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad float: {exc}") from exc
            if not np.all(np.isfinite(vec)):
                raise ParseError(f"{path}:{lineno}: non-finite vector entry")
            if float(np.linalg.norm(vec)) <= _MIN_NORM:
                raise ParseError(f"{path}:{lineno}: zero vector")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DimensionMismatchError(
                f"{path}:{lineno}: dim {vec.size}, expected {dim}"
            )
        if markets is None or row_market in markets:
            by_market.setdefault(row_market, []).append((keyword, vec))
    return by_market, dim


def load_embedding_sets(
    path: str, markets: list[str] | None = None, fh: TextIO | None = None
) -> dict[str, EmbeddingSet]:
    """Load several markets' vectors from one pass over a TSV file.

    Format: ``market<TAB>keyword<TAB>v1 v2 ... vD`` per line (see read_tsv),
    dimension inferred from the first record and shared by every market. All
    rows are validated; only the requested markets' rows are kept. ``markets``
    defaults to every market in the file, in first-seen order; a requested
    market with no rows raises EmptySetError. ``fh``, when given, is
    ``path`` open at its start; it is rewound if the file is read twice.
    """
    with reading(path, fh) as fh:
        by_market, dim = _read_rows(path, markets, fh)
    sets: dict[str, EmbeddingSet] = {}
    for market in by_market if markets is None else markets:
        pairs = by_market.get(market)
        if not pairs:
            raise EmptySetError(f"{path}: no rows for market {market!r}")
        # every check of from_pairs has passed above; only its normalisation
        # is left, done for all rows at once
        sets[market] = EmbeddingSet(
            market=market,
            dim=dim,
            refs=[KeywordRef(market=market, text=text, id=i) for i, (text, _) in enumerate(pairs)],
            matrix=_normalize_rows([vec for _, vec in pairs]),
        )
    return sets


def load_embeddings(path: str, market: str) -> EmbeddingSet:
    """Load one market's vectors from a TSV file (see load_embedding_sets)."""
    return load_embedding_sets(path, [market])[market]


def save_embeddings(embedding_set: EmbeddingSet, path: str, append: bool = False) -> None:
    """Write a set in the TSV format with 9-significant-digit floats."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as fh:
        for ref, row in zip(embedding_set.refs, embedding_set.matrix):
            values = " ".join(f"{float(x):.9g}" for x in row)
            fh.write(f"{embedding_set.market}\t{ref.text}\t{values}\n")
