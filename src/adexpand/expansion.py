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
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import TextIO

import numpy as np

from .clustering import Clustering, assign_cluster
from .embeddings import EmbeddingSet, KeywordRef, fallback_embed
from .errors import MALFORMED, malformed, reading
from .flat_index import DEFAULT_K, FlatIndex, knn_search
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


def gender_consistent(a: str, b: str) -> bool:
    """True unless the two texts carry opposite gender classes."""
    return _genders_agree(gender_class(a), gender_class(b))


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


def numeric_consistent(original: str, candidate: str) -> bool:
    """False only when a unit present on both sides carries different values.

    A candidate with no numbers, or with numbers in units the original does
    not mention, is accepted.
    """
    return _units_agree(_values_by_unit(original), _values_by_unit(candidate))


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
    keyword: KeywordRef
    distance: float
    similarity: float
    filtered_reason: FilterReason | None = None

    @property
    def accepted(self) -> bool:
        return self.filtered_reason is None


@dataclass
class ExpansionRecord:
    origin: KeywordRef
    cluster: int
    tau_used: float
    variants: list[Variant] = field(default_factory=list)

    def accepted_variants(self) -> list[Variant]:
        return [v for v in self.variants if v.accepted]


def expand_keyword(
    origin: KeywordRef,
    vector: np.ndarray,
    index: FlatIndex,
    clustering: Clustering,
    table: ThresholdTable,
    k_neighbors: int = DEFAULT_K,
    filters_enabled: bool = True,
) -> ExpansionRecord:
    """Alg.: assign cluster, retrieve neighbors, gate by the cluster cutoff,
    then apply gender and numeric filters (first failing filter wins)."""
    cluster, _ = assign_cluster(clustering, vector)
    tau = table.tau_for(cluster)
    exclude = origin.id if origin.market == index.market else None
    neighbors = knn_search(index, vector, k=k_neighbors, exclude_id=exclude)
    # the origin's side of both filters, derived once for all neighbors
    origin_gender = gender_class(origin.text)
    origin_units = _values_by_unit(origin.text)
    variants: list[Variant] = []
    for nb in neighbors:
        if nb.distance > tau:
            continue
        ref = index.refs[nb.id]
        reason: FilterReason | None = None
        if filters_enabled:
            if not _genders_agree(origin_gender, gender_class(ref.text)):
                reason = FilterReason.GENDER
            elif not _units_agree(origin_units, _values_by_unit(ref.text)):
                reason = FilterReason.NUMERIC
        variants.append(
            Variant(
                keyword=ref,
                distance=nb.distance,
                similarity=1.0 - nb.distance,
                filtered_reason=reason,
            )
        )
    return ExpansionRecord(origin=origin, cluster=cluster, tau_used=tau, variants=variants)


@dataclass
class ExpansionContext:
    """One market's state for expanding a keyword: its embedding set, the
    index over it, its clustering and its cutoff table."""

    embedding_set: EmbeddingSet
    index: FlatIndex
    clustering: Clustering
    table: ThresholdTable


def expand_text(
    context: ExpansionContext,
    text: str,
    k_neighbors: int = DEFAULT_K,
    filters_enabled: bool = True,
) -> ExpansionRecord:
    """Expand a keyword given as text. A keyword of the market's set keeps
    its stored vector and id; any other is embedded with fallback_embed and
    gets id -1."""
    embedding_set = context.embedding_set
    ref = embedding_set.ref_by_text(text)
    if ref is not None:
        vector = embedding_set.vector(ref)
    else:
        ref = KeywordRef(market=embedding_set.market, text=text, id=-1)
        vector = fallback_embed(text, embedding_set.dim)
    return expand_keyword(
        ref,
        vector,
        context.index,
        context.clustering,
        context.table,
        k_neighbors=k_neighbors,
        filters_enabled=filters_enabled,
    )


def expand_all(
    context: ExpansionContext, k_neighbors: int = DEFAULT_K, filters_enabled: bool = True
) -> list[ExpansionRecord]:
    """Expand every keyword of the context's set, in ascending-id order."""
    embedding_set = context.embedding_set
    return [
        expand_keyword(
            ref,
            vector,
            context.index,
            context.clustering,
            context.table,
            k_neighbors=k_neighbors,
            filters_enabled=filters_enabled,
        )
        for ref, vector in zip(embedding_set.refs, embedding_set.matrix)
    ]


def _ref_doc(ref: KeywordRef) -> dict:
    return {"market": ref.market, "text": ref.text, "id": ref.id}


def record_to_doc(record: ExpansionRecord) -> dict:
    return {
        "origin": _ref_doc(record.origin),
        "cluster": record.cluster,
        "tau_used": record.tau_used,
        "variants": [
            {
                "keyword": _ref_doc(v.keyword),
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


def record_from_doc(doc: dict) -> ExpansionRecord:
    def ref(d: dict) -> KeywordRef:
        return KeywordRef(market=d["market"], text=d["text"], id=int(d["id"]))

    variants = [
        Variant(
            keyword=ref(v["keyword"]),
            distance=float(v["distance"]),
            similarity=float(v["similarity"]),
            filtered_reason=(
                FilterReason(v["filtered_reason"]) if "filtered_reason" in v else None
            ),
        )
        for v in doc["variants"]
    ]
    return ExpansionRecord(
        origin=ref(doc["origin"]),
        cluster=int(doc["cluster"]),
        tau_used=float(doc["tau_used"]),
        variants=variants,
    )


def save_expansions(records: list[ExpansionRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_doc(record), separators=(",", ":"), sort_keys=True))
            fh.write("\n")


def load_expansions(path: str, fh: TextIO | None = None) -> list[ExpansionRecord]:
    records = []
    with reading(path, fh) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    records.append(record_from_doc(json.loads(line)))
                except MALFORMED as exc:
                    raise malformed(f"{path}:{lineno}", "expansion record", exc) from exc
    return records


def format_expansion_table(records: list[ExpansionRecord]) -> str:
    """Two-column text table: origin keyword and its accepted expansions."""
    lines = ["Original Keyword | Semantic Expansions", "---|---"]
    for record in records:
        accepted = ", ".join(v.keyword.text for v in record.accepted_variants())
        lines.append(f"{record.origin.text} | {accepted}")
    return "\n".join(lines)
