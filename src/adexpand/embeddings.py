"""Keyword embeddings: normalization, cosine arithmetic, a deterministic
hashed-n-gram fallback embedder, and TSV ingestion.

Vectors are float32 numpy arrays with unit L2 norm. The fallback embedder
stands in for a pre-trained encoder: it only needs to place near-duplicate
strings close together, deterministically, with no model file.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
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
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME)

NGRAM_SIZES = (3, 4, 5)
# the smallest dim fallback_embed accepts
MIN_DIM = 16
# the largest dim a config accepts, well above any real encoder's
MAX_DIM = 65536
_MIN_NORM = 1e-12  # a vector whose L2 norm is at or below this is zero


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
    are finite and clear of zero, stacked, bit for bit: the same dot product
    for each norm, the same division, the same cast."""
    rows = np.array(vectors, dtype=np.float64)
    rows /= np.sqrt(np.array([row.dot(row) for row in rows]))[:, None]
    return rows.astype(np.float32)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1].

    The clamp on the Python float gives the bits np.clip gives, NaN and -0.0
    included, without numpy's per-call wrapper cost.
    """
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dimensions differ: {u.shape} vs {v.shape}")
    return min(max(float(np.dot(u, v)), -1.0), 1.0)


def fallback_embed(text: str, dim: int) -> np.ndarray:
    """Deterministic embedding from hashed character n-grams.

    The lowercased, trimmed text is padded with '#' boundaries and decomposed
    into character n-grams of sizes 3, 4 and 5. Each n-gram is hashed with
    FNV-1a 64-bit; the hash picks a bucket (hash mod dim) and a sign (+1 when
    bit 63 is clear, -1 otherwise). Bucket counts are accumulated and the
    result is normalized, so identical (text, dim) inputs produce
    bit-identical vectors on every platform.

    FNV-1a is a left fold over bytes, so when the padded text is ASCII (one
    byte per character) the hashes of all n-grams come out of whole-array
    passes: pass j folds byte ``i + j`` into the running hash of the n-gram
    starting at ``i``, and passes 3, 4 and 5 leave the hash of every 3-, 4-
    and 5-gram. The operands stay ``uint64`` arrays, whose multiply wraps
    mod 2**64 as the hash needs (a scalar ``np.uint64`` multiply would warn
    on overflow). One ``np.add.at`` adds the +-1 signs into the integer
    buckets; integer sums do not depend on their order, so the counts equal
    the sequential ones. A non-ASCII text, whose UTF-8 n-grams have no fixed
    byte length, is hashed n-gram by n-gram.
    """
    if dim < MIN_DIM:
        raise DimensionMismatchError(f"the fallback embedder needs dim at least {MIN_DIM},"
                                     f" got {dim}")
    trimmed = text.strip().lower()
    if not trimmed:
        raise ZeroVectorError("text produces no n-grams")
    padded = "#" + trimmed + "#"
    # a dim numpy cannot allocate fails here, as a ValueError or MemoryError
    buckets = np.zeros(dim, dtype=np.int64)
    if padded.isascii():
        data = np.frombuffer(padded.encode("ascii"), dtype=np.uint8).astype(np.uint64)
        h = np.full(data.size + 1, _FNV_OFFSET, dtype=np.uint64)
        hashes = []
        for j in range(max(NGRAM_SIZES)):
            h = (h[:-1] ^ data[j:]) * _FNV_PRIME_U64
            if j + 1 in NGRAM_SIZES:
                hashes.append(h)
        h = np.concatenate(hashes)
        signs = 1 - 2 * (h >> np.uint64(63)).astype(np.int64)
        np.add.at(buckets, (h % np.uint64(dim)).astype(np.intp), signs)
    else:
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
    in both texts and matrix."""

    market: str
    texts: list[str]
    matrix: np.ndarray

    @classmethod
    def from_pairs(cls, market: str, pairs: list[tuple[str, np.ndarray]]) -> "EmbeddingSet":
        """Build a set from (keyword text, raw vector) pairs.

        Ids are assigned sequentially in input order; vectors are normalized.
        """
        if not pairs:
            raise EmptySetError(f"no keywords for market {market!r}")
        dim = len(pairs[0][1])
        texts: list[str] = []
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
            texts.append(text)
            rows.append(normalize(vec))
        return cls(market=market, texts=texts, matrix=np.vstack(rows))

    def __len__(self) -> int:
        return len(self.texts)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _rows(self) -> dict[str, int]:
        return {text: row for row, text in enumerate(self.texts)}

    def row_of(self, text: str) -> int | None:
        """The keyword's id (= row), or None for a keyword outside the set."""
        return self._rows.get(text)


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
    # only norms well clear of its limits are taken as passing it: zero, and
    # the float range, which a norm near 1.34e154 leaves when squared.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    if not np.all((norms > 10 * _MIN_NORM) & (norms < 1e154)):
        return None
    return records, matrix


def _read_rows(
    path: str, markets: list[str], fh: TextIO
) -> dict[str, list[tuple[str, np.ndarray]]]:
    """Every row of the embeddings file checked, and the requested markets'
    (keyword, raw vector) pairs in file order."""
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
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(vec))
            if norm <= _MIN_NORM:
                raise ParseError(f"{path}:{lineno}: zero vector")
            if norm == np.inf:  # it would scale the row to zero
                raise ParseError(f"{path}:{lineno}: vector norm overflows")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DimensionMismatchError(
                f"{path}:{lineno}: dim {vec.size}, expected {dim}"
            )
        if row_market in markets:
            by_market.setdefault(row_market, []).append((keyword, vec))
    return by_market


def load_embedding_sets(
    path: str, markets: list[str], fh: TextIO | None = None
) -> dict[str, EmbeddingSet]:
    """Load several markets' vectors from one pass over a TSV file.

    Format: ``market<TAB>keyword<TAB>v1 v2 ... vD`` per line (see read_tsv),
    dimension inferred from the first record and shared by every market. All
    rows are validated; only the rows of ``markets`` are kept, one set per
    market in that order, and a market with no rows raises EmptySetError.
    ``fh``, when given, is ``path`` open at its start; it is rewound if the
    file is read twice.
    """
    with reading(path, fh) as fh:
        by_market = _read_rows(path, markets, fh)
    sets: dict[str, EmbeddingSet] = {}
    for market in markets:
        pairs = by_market.get(market)
        if not pairs:
            raise EmptySetError(f"{path}: no rows for market {market!r}")
        # every check of from_pairs has passed above; only its normalisation
        # is left, done for all rows at once
        sets[market] = EmbeddingSet(
            market=market,
            texts=[text for text, _ in pairs],
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
        for text, row in zip(embedding_set.texts, embedding_set.matrix):
            values = " ".join(f"{float(x):.9g}" for x in row)
            fh.write(f"{embedding_set.market}\t{text}\t{values}\n")
