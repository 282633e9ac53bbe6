"""Threshold-gated semantic variant generation with gender and numeric
consistency filters.

A keyword is assigned to its nearest cluster, its cluster's distance cutoff
is looked up, nearest neighbors within the cutoff become candidate variants,
and candidates that flip gender ("men's shoes" -> "women's sandals") or
contradict a shared numeric attribute ("iphone 13" -> "iphone 12") are
rejected. Rejected candidates stay in the record with their rejection reason
so before/after-filter behavior can be audited.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import isfinite
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .clustering import Clustering, assign_cluster
from .embeddings import EmbeddingSet, fallback_embed
from .errors import MALFORMED, malformed, reading, typed
from .flat_index import FlatIndex, knn_search
from .thresholds import ThresholdTable

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Number with an optional single decimal point and an optional trailing
# alphabetic unit, not glued to a preceding letter or digit
# ("4.4mm", "65w", "13"; but not the "65" of "model65").
_NUMERIC_TOKEN_RE = re.compile(r"(?<![^\W_])(\d+(?:\.\d+)?)([^\W\d_]*)", re.UNICODE)

MASCULINE_TOKENS = frozenset(
    {"men", "mens", "man", "male", "boys", "boy", "gentleman", "gents"}
)
FEMININE_TOKENS = frozenset(
    {"women", "womens", "woman", "female", "ladies", "lady", "girls", "girl"}
)


class GenderClass(Enum):
    MASCULINE = "masculine"
    FEMININE = "feminine"
    NEUTRAL = "neutral"


class FilterReason(Enum):
    GENDER = "GENDER"
    NUMERIC = "NUMERIC"


def tokenize(text: str) -> list[str]:
    """Lowercase, drop apostrophes, split on anything that is not a letter
    or digit ("Men's Shoes" -> ["mens", "shoes"])."""
    # three replace calls beat one str.translate several times over
    return _TOKEN_RE.findall(
        text.lower().replace("'", "").replace("’", "").replace("ʼ", "")
    )


@lru_cache(maxsize=65536)
def gender_class(text: str) -> GenderClass:
    # memoised: every keyword is some other keyword's neighbour many times
    tokens = set(tokenize(text))
    masc = bool(tokens & MASCULINE_TOKENS)
    fem = bool(tokens & FEMININE_TOKENS)
    if masc and not fem:
        return GenderClass.MASCULINE
    if fem and not masc:
        return GenderClass.FEMININE
    return GenderClass.NEUTRAL


def _genders_agree(ga: GenderClass, gb: GenderClass) -> bool:
    return ga == gb or GenderClass.NEUTRAL in (ga, gb)


def numeric_tokens(text: str) -> set[tuple[float, str]]:
    """(value, unit) pairs like "13" -> (13, ""), "65w" -> (65, "w"),
    "4.4mm" -> (4.4, "mm").

    Scans the raw lowercased text so decimal points survive (the broad-match
    tokenizer splits on them).
    """
    return {
        (float(value), unit)
        for value, unit in _NUMERIC_TOKEN_RE.findall(text.lower())
    }


@lru_cache(maxsize=65536)
def _values_by_unit(text: str) -> Mapping[str, frozenset[float]]:
    # memoised like gender_class; callers share the result, so it is a
    # read-only view over frozensets
    units: dict[str, set[float]] = {}
    for value, unit in numeric_tokens(text):
        units.setdefault(unit, set()).add(value)
    return MappingProxyType({unit: frozenset(values) for unit, values in units.items()})


def _units_agree(a: Mapping[str, frozenset[float]], b: Mapping[str, frozenset[float]]) -> bool:
    """True unless some unit on both sides carries different values."""
    for unit, values in a.items():
        if b.get(unit, values) != values:
            return False
    return True


@dataclass
class Variant:
    text: str
    id: int
    distance: float
    similarity: float
    filtered_reason: FilterReason | None = None

    @property
    def accepted(self) -> bool:
        return self.filtered_reason is None


@dataclass
class ExpansionRecord:
    market: str
    origin: str
    origin_id: int  # -1 for a keyword outside the market's set
    cluster: int
    tau_used: float
    variants: list[Variant] = field(default_factory=list)

    def accepted_variants(self) -> list[Variant]:
        return [v for v in self.variants if v.accepted]


@dataclass
class ExpansionContext:
    """One market's state for expanding a keyword: its embedding set, the
    index over it, its clustering and its cutoff table."""

    embedding_set: EmbeddingSet
    index: FlatIndex
    clustering: Clustering
    table: ThresholdTable


def expand_keyword(
    context: ExpansionContext,
    origin: str,
    origin_id: int,
    vector: np.ndarray,
    k_neighbors: int,
) -> ExpansionRecord:
    """Alg.: assign cluster, retrieve neighbors, gate by the cluster cutoff,
    then apply gender and numeric filters (first failing filter wins)."""
    texts = context.embedding_set.texts
    cluster, _ = assign_cluster(context.clustering, vector)
    # a row per cluster: build_threshold_table makes one, load_expansion_files checks
    tau = context.table.rows[cluster].tau_distance
    # an unseen origin has id -1, for which knn_search excludes no row
    neighbors = knn_search(context.index, vector, k=k_neighbors, exclude_id=origin_id)
    # the origin's side of both filters, derived once for all neighbors
    origin_gender = gender_class(origin)
    origin_units = _values_by_unit(origin)
    variants: list[Variant] = []
    for nb in neighbors:
        if nb.distance > tau:
            continue
        text = texts[nb.id]
        reason: FilterReason | None = None
        if not _genders_agree(origin_gender, gender_class(text)):
            reason = FilterReason.GENDER
        elif not _units_agree(origin_units, _values_by_unit(text)):
            reason = FilterReason.NUMERIC
        variants.append(
            Variant(
                text=text,
                id=nb.id,
                distance=nb.distance,
                similarity=1.0 - nb.distance,
                filtered_reason=reason,
            )
        )
    return ExpansionRecord(market=context.embedding_set.market, origin=origin,
                           origin_id=origin_id, cluster=cluster, tau_used=tau,
                           variants=variants)


def expand_text(context: ExpansionContext, text: str, k_neighbors: int) -> ExpansionRecord:
    """Expand a keyword given as text, stripped as keyword files are. A
    keyword of the market's set keeps its stored vector and id; any other is
    embedded with fallback_embed and gets id -1."""
    text = text.strip()
    embedding_set = context.embedding_set
    row = embedding_set.row_of(text)
    if row is None:
        row, vector = -1, fallback_embed(text, embedding_set.dim)
    else:
        vector = embedding_set.matrix[row]
    return expand_keyword(context, text, row, vector, k_neighbors)


def expand_all(context: ExpansionContext, k_neighbors: int) -> list[ExpansionRecord]:
    """Expand every keyword of the context's set, in ascending-id order."""
    embedding_set = context.embedding_set
    return [
        expand_keyword(context, text, row, vector, k_neighbors)
        for row, (text, vector) in enumerate(zip(embedding_set.texts, embedding_set.matrix))
    ]


def record_to_doc(record: ExpansionRecord) -> dict:
    market = record.market
    return {
        "origin": {"market": market, "text": record.origin, "id": record.origin_id},
        "cluster": record.cluster,
        "tau_used": record.tau_used,
        "variants": [
            {
                "keyword": {"market": market, "text": v.text, "id": v.id},
                "distance": v.distance,
                "similarity": v.similarity,
                **(
                    {"filtered_reason": v.filtered_reason.value}
                    if v.filtered_reason is not None
                    else {}
                ),
            }
            for v in record.variants
        ],
    }


def save_expansions(records: list[ExpansionRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_doc(record), separators=(",", ":"), sort_keys=True))
            fh.write("\n")


# One expansions.jsonl record as the match index reads it: the origin's
# market and text, and the text and similarity of each accepted variant in
# file order.
ExpansionRow = tuple[str, str, list[tuple[str, float]]]


def load_expansions(path: str, fh: TextIO | None = None) -> list[ExpansionRow]:
    """The rows of an expansions.jsonl file, one per record in file order.

    Every field save_expansions writes is read with its kind on every
    variant, accepted or rejected, before the variant is kept or dropped;
    similarity must be 1 - distance, as expand_keyword computes it, and a
    filtered_reason a FilterReason. A failed check raises ParseError naming
    ``path:line``.

    json.loads makes a new str for every value it parses; the rows hold one
    str object per distinct market or text of the file.
    """
    rows = []
    shared = {}.setdefault
    with reading(path, fh) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(_row_from_doc(json.loads(line), shared))
                except MALFORMED as exc:
                    raise malformed(f"{path}:{lineno}", "expansion record", exc) from exc
    return rows


# A variant's filtered_reason when the key is absent: the variant is accepted
_ACCEPTED = object()
_REASONS = frozenset(reason.value for reason in FilterReason)


def _row_from_doc(doc: dict, shared: Callable[[str, str], str]) -> ExpansionRow:
    """The row of one parsed line; ``shared(text, text)`` maps each market
    and text to the one str object of the load.

    A variant whose keys hold exactly the kinds save_expansions writes passes
    one test; any other is read key by key with errors.typed, which converts
    an int to a number or raises naming the key, as if every variant were.
    """
    accepted = []
    # list, not list[dict], saves a call per variant: v's first read refuses a non-object
    for v in typed(doc, "variants", list):
        if not (
            type(v) is dict
            and type(keyword := v.get("keyword")) is dict
            and type(keyword.get("market")) is str
            and type(keyword.get("id")) is int
            and type(text := keyword.get("text")) is str
            and type(similarity := v.get("similarity")) is float
            and isfinite(similarity)
            and type(distance := v.get("distance")) is float
            # the similarity is a scored feature of every match on the variant
            and similarity == 1.0 - distance
            # a non-str reason is never hashed: a list would raise TypeError
            and ((reason := v.get("filtered_reason", _ACCEPTED)) is _ACCEPTED
                 or type(reason) is str and reason in _REASONS)
        ):
            text, similarity, reason = _variant_by_key(v)
        if reason is _ACCEPTED:
            accepted.append((shared(text, text), similarity))
    origin = typed(doc, "origin", dict)
    market = typed(origin, "market", str)
    typed(origin, "id", int)
    text = typed(origin, "text", str)
    typed(doc, "cluster", int)
    typed(doc, "tau_used", float)
    return shared(market, market), shared(text, text), accepted


def _variant_by_key(v) -> tuple[str, float, object]:
    """A variant's text, similarity and filtered_reason (_ACCEPTED if absent),
    each key read with errors.typed."""
    keyword = typed(v, "keyword", dict)
    typed(keyword, "market", str)
    typed(keyword, "id", int)
    text = typed(keyword, "text", str)
    similarity = typed(v, "similarity", float)
    if similarity != 1.0 - typed(v, "distance", float):
        raise ValueError(f"'similarity' must be 1 - 'distance', got {similarity!r}")
    if "filtered_reason" not in v:
        return text, similarity, _ACCEPTED
    return text, similarity, FilterReason(typed(v, "filtered_reason", str))
