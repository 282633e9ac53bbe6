"""Runtime query matching over an immutable snapshot.

A snapshot holds a token index over campaign keywords and their expansions,
the relevance model and per-market score thresholds. Queries match an
expanded keyword when the keyword's token set is contained in the query's
token set; candidate items are scored and kept when the score clears the
market threshold. Serving reads a single snapshot reference, so a refresh
is one atomic swap and no request ever sees a mixture of two snapshot
versions.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, TextIO

import numpy as np

from .errors import (
    MALFORMED,
    DanglingReferenceError,
    ParseError,
    UnknownMarketError,
    malformed,
    reading,
)
from .expansion import ExpansionRecord, tokenize
from .features import FeatureExtractor
from .relevance import StackedModel


@dataclass(frozen=True)
class Item:
    id: int
    title: str
    price: float
    market: str


@dataclass(frozen=True)
class AdGroup:
    keywords: tuple[str, ...]
    items: tuple[Item, ...]


@dataclass(frozen=True)
class Campaign:
    id: str
    market: str
    ad_groups: tuple[AdGroup, ...]


def load_campaigns(path: str, fh: TextIO | None = None) -> list[Campaign]:
    """Parse the campaign JSON file and enforce id/market invariants."""
    with reading(path, fh) as fh:
        try:
            return _campaigns_from_doc(json.load(fh))
        except MALFORMED as exc:
            raise malformed(path, "campaigns", exc) from exc


def _campaigns_from_doc(doc: dict) -> list[Campaign]:
    campaigns: list[Campaign] = []
    seen_campaigns: set[str] = set()
    items_by_market: dict[tuple[str, int], tuple[str, float]] = {}
    for c in doc.get("campaigns", []):
        cid = str(c["id"])
        if cid in seen_campaigns:
            raise ParseError(f"duplicate campaign id {cid!r}")
        seen_campaigns.add(cid)
        market = c["market"]
        groups = []
        for g in c.get("ad_groups", []):
            items = []
            for it in g.get("items", []):
                item = Item(
                    id=int(it["id"]),
                    title=str(it["title"]),
                    price=float(it["price"]),
                    market=market,
                )
                if not item.title.strip():
                    raise ParseError(f"item {item.id} in campaign {cid!r} has an empty title")
                if item.price < 0:
                    raise ParseError(f"item {item.id} in campaign {cid!r} has negative price")
                key = (market, item.id)
                prior = items_by_market.get(key)
                if prior is not None and prior != (item.title, item.price):
                    raise ParseError(
                        f"item id {item.id} reused in market {market!r} with different attributes"
                    )
                items_by_market[key] = (item.title, item.price)
                items.append(item)
            keywords = tuple(str(k) for k in g.get("keywords", []))
            groups.append(AdGroup(keywords=keywords, items=tuple(items)))
        campaigns.append(Campaign(id=cid, market=market, ad_groups=tuple(groups)))
    return campaigns


def broad_match(query_tokens: AbstractSet[str], keyword_tokens: AbstractSet[str]) -> bool:
    """Containment rule: the keyword's token set is a subset of the query's."""
    return keyword_tokens <= query_tokens


@dataclass(frozen=True)
class _IndexEntry:
    """One matchable expanded keyword and where it leads."""

    tokens: frozenset[str]
    matched_text: str
    origin_text: str
    similarity: float
    ad_groups: tuple[AdGroup, ...]


@dataclass(frozen=True)
class MatchRecord:
    query: str
    market: str
    item_id: int
    matched_keyword: str
    origin_keyword: str
    score: float
    score_base: float
    score_adjustment: float
    threshold: float


def match_record_to_doc(record: MatchRecord) -> dict:
    return {
        "query": record.query,
        "market": record.market,
        "item_id": record.item_id,
        "matched_keyword": record.matched_keyword,
        "origin_keyword": record.origin_keyword,
        "score": record.score,
        "score_base": record.score_base,
        "score_adjustment": record.score_adjustment,
        # null mirrors the thresholds-file convention for disabled filtering;
        # a bare -Infinity would not be strict JSON
        "threshold": None if record.threshold == float("-inf") else record.threshold,
    }


@dataclass
class Snapshot:
    """Immutable serving bundle; built once, swapped atomically.

    ``_token_index`` (campaign market -> token -> entries) is the match index.
    It depends only on the campaigns and expansions, so snapshots that differ
    in model, thresholds or version may share one, read-only
    (``dataclasses.replace``). Every campaign market must have a threshold.
    """

    version: int
    model: StackedModel
    market_thresholds: dict[str, float]
    extractor: FeatureExtractor
    markets: set[str] = field(init=False)
    _token_index: dict[str, dict[str, list[_IndexEntry]]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        _check_thresholds(self._token_index, self.market_thresholds)
        self.markets = set(self._token_index) | set(self.market_thresholds)

    def entries_for(self, market: str, token: str) -> list[_IndexEntry]:
        return self._token_index.get(market, {}).get(token, [])


def _check_thresholds(campaign_markets: Iterable[str], market_thresholds: dict[str, float]) -> None:
    """UnknownMarketError unless every campaign market has a threshold."""
    for market in sorted(campaign_markets):
        if market not in market_thresholds:
            raise UnknownMarketError(f"no relevance threshold for market {market!r}")


def build_snapshot(
    campaigns: list[Campaign],
    expansions: list[ExpansionRecord],
    model: StackedModel,
    market_thresholds: dict[str, float],
    version: int,
    extractor: FeatureExtractor | None = None,
) -> Snapshot:
    """Validate cross-references and build the reverse token index.

    Every ad-group keyword is matchable as its own trivial expansion, so the
    system degrades to plain token matching when no expansions are supplied.
    Each index entry is filed under its rarest token (lowest document
    frequency, ties to the lexicographically smallest), which bounds the
    candidate scan at query time.
    """
    extractor = extractor or FeatureExtractor()
    groups_by_keyword: dict[str, dict[str, list[AdGroup]]] = {}
    markets: set[str] = set()
    for campaign in campaigns:
        markets.add(campaign.market)
        per_market = groups_by_keyword.setdefault(campaign.market, {})
        for group in campaign.ad_groups:
            for keyword in group.keywords:
                per_market.setdefault(keyword, []).append(group)

    # Each distinct text is tokenised once, and every entry with that text
    # holds the same frozenset.
    token_sets: dict[str, frozenset[str]] = {}

    def tokens_of(text: str) -> frozenset[str]:
        tokens = token_sets.get(text)
        if tokens is None:
            tokens = token_sets[text] = frozenset(tokenize(text))
        return tokens

    entries_by_market: dict[str, list[_IndexEntry]] = {m: [] for m in markets}
    for market in sorted(markets):
        for keyword in sorted(groups_by_keyword[market]):
            groups = tuple(groups_by_keyword[market][keyword])
            tokens = tokens_of(keyword)
            if not tokens:
                continue
            entries_by_market[market].append(
                _IndexEntry(
                    tokens=tokens,
                    matched_text=keyword,
                    origin_text=keyword,
                    similarity=1.0,
                    ad_groups=groups,
                )
            )
    for record in expansions:
        market = record.origin.market
        origin_groups = groups_by_keyword.get(market, {}).get(record.origin.text)
        if not origin_groups:
            raise DanglingReferenceError(
                f"expansion origin {record.origin.text!r} ({market}) is not in any campaign"
            )
        groups = tuple(origin_groups)
        for variant in record.accepted_variants():
            tokens = tokens_of(variant.keyword.text)
            if not tokens or variant.keyword.text == record.origin.text:
                continue
            entries_by_market[market].append(
                _IndexEntry(
                    tokens=tokens,
                    matched_text=variant.keyword.text,
                    origin_text=record.origin.text,
                    similarity=variant.similarity,
                    ad_groups=groups,
                )
            )

    token_index: dict[str, dict[str, list[_IndexEntry]]] = {}
    for market, entries in entries_by_market.items():
        # document frequency counts every entry, shared token sets included
        entries_per_set = Counter(entry.tokens for entry in entries)
        df: Counter[str] = Counter()
        for tokens, count in entries_per_set.items():
            for token in tokens:
                df[token] += count
        rarest = {
            tokens: min(tokens, key=lambda t: (df[t], t)) for tokens in entries_per_set
        }
        buckets: dict[str, list[_IndexEntry]] = {}
        for entry in entries:
            buckets.setdefault(rarest[entry.tokens], []).append(entry)
        token_index[market] = buckets

    return Snapshot(
        version=version,
        model=model,
        market_thresholds=dict(market_thresholds),
        extractor=extractor,
        _token_index=token_index,
    )


def match_query(query: str, market: str, snapshot: Snapshot) -> list[MatchRecord]:
    """All items whose expanded keywords broad-match the query and whose
    relevance score clears the market threshold.

    An item reachable through several expanded keywords is reported once with
    its best-scoring keyword; output is sorted by descending score, then
    ascending item id.
    """
    if market not in snapshot.markets:
        raise UnknownMarketError(f"unknown market {market!r}")
    threshold = snapshot.market_thresholds.get(market, float("-inf"))
    query_tokens = set(tokenize(query))
    candidates: list[_IndexEntry] = []
    for token in sorted(query_tokens):
        for entry in snapshot.entries_for(market, token):
            if broad_match(query_tokens, entry.tokens):
                candidates.append(entry)

    pairs: list[tuple[_IndexEntry, Item]] = []
    rows: list[np.ndarray] = []
    scored: set[tuple[int, str, str]] = set()
    for entry in candidates:
        for group in entry.ad_groups:
            for item in group.items:
                score_key = (item.id, entry.matched_text, entry.origin_text)
                if score_key in scored:
                    continue
                scored.add(score_key)
                pairs.append((entry, item))
                rows.append(
                    snapshot.extractor.extract(
                        query, item.title, item.price, entry.matched_text, entry.similarity
                    )
                )
    if not pairs:
        return []
    features = np.stack(rows)
    base_scores = snapshot.model.predict_base(features).tolist()
    adjustments = snapshot.model.predict_adjustment(features).tolist()

    best: dict[int, MatchRecord] = {}
    for (entry, item), base, adjustment in zip(pairs, base_scores, adjustments):
        score = base + adjustment
        if score < threshold:
            continue
        record = MatchRecord(
            query=query,
            market=market,
            item_id=item.id,
            matched_keyword=entry.matched_text,
            origin_keyword=entry.origin_text,
            score=score,
            score_base=base,
            score_adjustment=adjustment,
            threshold=threshold,
        )
        cur = best.get(item.id)
        if cur is None or _better(record, cur):
            best[item.id] = record
    return sorted(best.values(), key=lambda r: (-r.score, r.item_id))


def _better(candidate: MatchRecord, incumbent: MatchRecord) -> bool:
    if candidate.score != incumbent.score:
        return candidate.score > incumbent.score
    return (candidate.matched_keyword, candidate.origin_keyword) < (
        incumbent.matched_keyword,
        incumbent.origin_keyword,
    )
