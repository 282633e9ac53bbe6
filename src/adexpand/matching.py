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

from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, NamedTuple, TextIO

import numpy as np

from .errors import (
    DanglingReferenceError,
    ParseError,
    UnknownMarketError,
    parse_json,
    typed,
)
from .expansion import ExpansionRow, tokenize
from .features import FeatureExtractor
from .relevance import StackedModel


@dataclass(frozen=True)
class Item:
    id: int
    title: str
    price: float


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
    return parse_json(path, "campaigns", _campaigns_from_doc, fh)


def _campaigns_from_doc(doc: dict) -> list[Campaign]:
    campaigns: list[Campaign] = []
    seen_campaigns: set[str] = set()
    items_by_market: dict[tuple[str, int], tuple[str, float]] = {}
    # a list key left out stands for an empty list
    for c in typed(doc, "campaigns", list[dict], []):
        cid = typed(c, "id", str)
        if cid in seen_campaigns:
            raise ParseError(f"duplicate campaign id {cid!r}")
        seen_campaigns.add(cid)
        market = typed(c, "market", str)
        groups = []
        for g in typed(c, "ad_groups", list[dict], []):
            items = []
            for it in typed(g, "items", list[dict], []):
                item = Item(typed(it, "id", int), typed(it, "title", str), typed(it, "price", float))
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
            keywords = tuple(typed(g, "keywords", list[str], []))
            groups.append(AdGroup(keywords=keywords, items=tuple(items)))
        campaigns.append(Campaign(id=cid, market=market, ad_groups=tuple(groups)))
    return campaigns


def broad_match(query_tokens: AbstractSet[str], keyword_tokens: AbstractSet[str]) -> bool:
    """Containment rule: the keyword's token set is a subset of the query's."""
    return keyword_tokens <= query_tokens


class _IndexEntry(NamedTuple):
    """One matchable expanded keyword and where it leads."""

    matched_text: str
    origin_text: str
    similarity: float
    ad_groups: tuple[AdGroup, ...]


# The entries of one market whose matched text has this token set, in filing
# order: one broad_match test admits or rejects them all.
_TokenGroup = tuple[frozenset[str], list[_IndexEntry]]


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
        "threshold": record.threshold,
    }


@dataclass(frozen=True)
class Snapshot:
    """Immutable serving bundle; built once, swapped atomically.

    ``_token_index`` (campaign market -> token -> [(token set, entries)]) is
    the match index build_snapshot files from the campaigns and
    load_expansions' rows. It depends on nothing else, so snapshots that
    differ in model, thresholds or version may share one, read-only. Every
    campaign market must have a threshold; each threshold is a finite number,
    as load_market_thresholds reads it.
    """

    version: int
    model: StackedModel
    market_thresholds: dict[str, float]
    extractor: FeatureExtractor
    _token_index: dict[str, dict[str, list[_TokenGroup]]] = field(repr=False)

    def __post_init__(self) -> None:
        for market in sorted(self._token_index):
            if market not in self.market_thresholds:
                raise UnknownMarketError(f"no relevance threshold for market {market!r}")


def build_snapshot(
    campaigns: list[Campaign], expansions: Iterable[ExpansionRow]
) -> dict[str, dict[str, list[_TokenGroup]]]:
    """File a snapshot's token index: the reverse index over the campaign
    keywords and their accepted expansions, cross-references checked.

    ``expansions`` holds load_expansions' rows, and every origin must be an
    ad-group keyword of its market. Every ad-group keyword is matchable as
    its own trivial expansion, so the system degrades to plain token matching
    when no expansions are supplied; an accepted variant is filed as one more
    entry unless it has no tokens or is its origin's own text. The entries
    whose texts have one token set form one group, in filing order, and the
    group is filed under the set's rarest token (lowest document frequency
    counted over entries, ties to the lexicographically smallest), which
    bounds the candidate scan at query time to one test per token set.
    """
    group_lists: dict[str, dict[str, list[AdGroup]]] = {}
    for campaign in campaigns:
        per_market = group_lists.setdefault(campaign.market, {})
        for group in campaign.ad_groups:
            for keyword in group.keywords:
                per_market.setdefault(keyword, []).append(group)
    # every entry reached through one keyword holds the same groups tuple
    groups_by_keyword = {
        market: {keyword: tuple(groups) for keyword, groups in per_market.items()}
        for market, per_market in group_lists.items()
    }

    # Each distinct text is tokenised once, in whichever market it comes first.
    token_sets: dict[str, frozenset[str]] = {}

    def tokens_of(text: str) -> frozenset[str]:
        tokens = token_sets.get(text)
        if tokens is None:
            tokens = token_sets[text] = frozenset(tokenize(text))
        return tokens

    groups_by_set: dict[str, dict[frozenset[str], list[_IndexEntry]]] = {
        m: {} for m in groups_by_keyword}
    for market in sorted(groups_by_keyword):
        by_set = groups_by_set[market]
        for keyword, groups in sorted(groups_by_keyword[market].items()):
            tokens = tokens_of(keyword)
            if tokens:
                by_set.setdefault(tokens, []).append(_IndexEntry(keyword, keyword, 1.0, groups))
    for market, origin, variants in expansions:
        groups = groups_by_keyword.get(market, {}).get(origin)
        if groups is None:
            raise DanglingReferenceError(
                f"expansion origin {origin!r} ({market}) is not in any campaign"
            )
        by_set = groups_by_set[market]
        for text, similarity in variants:
            tokens = tokens_of(text)
            if tokens and text != origin:
                by_set.setdefault(tokens, []).append(
                    _IndexEntry(text, origin, similarity, groups))

    token_index: dict[str, dict[str, list[_TokenGroup]]] = {}
    for market, by_set in groups_by_set.items():
        # document frequency counts every entry, shared token sets included
        df: Counter[str] = Counter()
        for tokens, entries in by_set.items():
            for token in tokens:
                df[token] += len(entries)
        buckets: dict[str, list[_TokenGroup]] = {}
        for tokens, entries in by_set.items():
            buckets.setdefault(min(tokens, key=lambda t: (df[t], t)), []).append(
                (tokens, entries))
        token_index[market] = buckets
    return token_index


def match_query(query: str, market: str, snapshot: Snapshot) -> list[MatchRecord]:
    """All items whose expanded keywords broad-match the query and whose
    relevance score clears the market threshold.

    An item reachable through several expanded keywords is reported once with
    its best-scoring keyword; output is sorted by descending score, then
    ascending item id.
    """
    if market not in snapshot.market_thresholds:
        raise UnknownMarketError(f"unknown market {market!r}")
    threshold = snapshot.market_thresholds[market]
    query_tokens = set(tokenize(query))
    buckets = snapshot._token_index.get(market, {})
    candidates: list[_IndexEntry] = []
    for token in sorted(query_tokens):
        for tokens, entries in buckets.get(token, ()):
            if broad_match(query_tokens, tokens):
                candidates.extend(entries)

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
