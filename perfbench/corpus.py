"""Seeded synthetic corpus for the benchmark.

Everything here is a pure function of a seed and the sizes. ``make_corpus``
gives keywords with gendered and numeric variants (so both GENDER and
NUMERIC rejections occur), campaigns covering every keyword, base/new/holdout
relevance datasets and a Zipf-weighted head-query pool. ``make_streams``
gives a non-repeating tail-query stream and keywords no snapshot has seen,
for ``/expand``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from adexpand.expansion import tokenize
from adexpand.features import FEATURE_NAMES, FeatureExtractor
from adexpand.relevance import save_dataset
from adexpand.rng import SplitMix64

MARKETS = ("UK", "US")

# Products carry a numeric-attribute family; apparel takes gender prefixes.
PRODUCTS = [
    ("running shoes", "size", True), ("trail shoes", "size", True),
    ("sandals", "size", True), ("boots", "size", True), ("sneakers", "size", True),
    ("jacket", "size", True), ("rain coat", "size", True), ("jumper", "size", True),
    ("sweater", "size", True), ("hoodie", "size", True), ("jeans", "size", True),
    ("shorts", "size", True), ("swim shorts", "size", True), ("socks", "pack", True),
    ("t shirt", "pack", True), ("pyjamas", "size", True), ("gloves", "size", True),
    ("watch", "mm", True), ("backpack", "litre", True), ("wallet", "none", True),
    ("phone case", "model", False), ("screen protector", "model", False),
    ("charger", "watt", False), ("usb cable", "metre", False), ("earbuds", "none", False),
    ("headphones", "none", False), ("power bank", "mah", False),
    ("laptop sleeve", "inch", False), ("monitor", "inch", False), ("keyboard", "none", False),
    ("garden lights", "pack", False), ("string lights", "metre", False),
    ("led bulbs", "watt", False), ("desk lamp", "watt", False), ("solar lights", "pack", False),
    ("drill bits", "mm", False), ("screwdriver set", "pack", False), ("saw blade", "mm", False),
    ("water bottle", "litre", False), ("coffee mug", "pack", False), ("frying pan", "cm", False),
    ("knife set", "pack", False), ("storage box", "litre", False), ("bath towel", "pack", False),
    ("duvet cover", "size", False), ("pillow", "pack", False), ("yoga mat", "mm", False),
    ("dumbbells", "kg", False), ("bike helmet", "size", False), ("tent", "person", False),
]
MODIFIERS = [
    "black", "white", "red", "blue", "green", "grey", "pink", "navy", "leather",
    "cotton", "wool", "waterproof", "wireless", "portable", "outdoor", "kids",
    "lightweight", "heavy duty", "slim", "vintage", "premium", "cheap", "large",
    "small", "organic", "bamboo", "steel", "silicone", "magnetic", "foldable",
    "rechargeable", "insulated", "padded", "quick dry", "non stick", "anti slip",
    "orange", "yellow", "purple", "beige", "khaki", "olive", "maroon", "teal",
    "linen", "denim", "suede", "velvet", "fleece", "canvas", "nylon", "mesh",
    "ergonomic", "compact", "classic", "modern", "retro", "luxury", "budget",
    "travel", "office", "camping", "hiking", "gym", "summer", "winter", "spring",
    "thermal", "breathable", "stretch", "reversible", "adjustable", "washable",
]
BRANDS = [
    "acme", "nordia", "zentro", "kelvo", "brightway", "orbix", "tessla", "marlow",
    "quinto", "vexa", "hollis", "pravda", "lumo", "sprigg", "trekka", "ondo",
    "arvo", "belcor", "cindra", "dovel", "estra", "fennix", "glimt", "harvo",
    "istra", "jorvik", "kairo", "lindell", "mosca", "nexo", "oberon", "pollux",
]
GENDERS = ["mens", "womens", "ladies", "boys", "girls"]
NUMERIC = {
    "size": ["6", "7", "8", "9", "10", "11", "12"],
    "pack": ["2 pack", "3 pack", "5 pack", "10 pack"],
    "mm": ["3mm", "4.4mm", "6mm", "8mm", "40mm", "44mm"],
    "litre": ["10l", "20l", "30l", "1.5l"],
    "model": ["11", "12", "13", "14", "15"],
    "watt": ["20w", "30w", "45w", "65w", "100w"],
    "metre": ["1m", "2m", "3m", "10m"],
    "mah": ["5000mah", "10000mah", "20000mah"],
    "inch": ["13 inch", "14 inch", "15.6 inch", "24 inch", "27 inch"],
    "cm": ["20cm", "24cm", "28cm"],
    "kg": ["2kg", "5kg", "10kg"],
    "person": ["2 person", "4 person", "6 person"],
    "none": [],
}
EXTRA_QUERY_WORDS = [
    "sale", "best", "buy", "deal", "new", "uk", "online", "gift", "review", "offer",
    "free", "delivery", "top", "rated", "2024", "set", "bundle", "quality",
]
TITLE_WORDS = ["Premium", "Classic", "Pro", "Everyday", "Deluxe", "Essential", "Ultra"]


@dataclass(frozen=True)
class Sizes:
    keywords_per_market: int = 4000
    head_pool_per_market: int = 150  # assumed, as is the Zipf exponent (README)
    relevance_rows: int = 3200  # split 60/20/20 into base/new/holdout

    @classmethod
    def small(cls) -> "Sizes":
        return cls(keywords_per_market=300, head_pool_per_market=20, relevance_rows=400)


@dataclass
class Corpus:
    keywords: dict[str, list[str]]
    campaigns: dict
    relevance: dict[str, tuple[np.ndarray, np.ndarray]]
    head_pool: list[tuple[str, str]]
    head_weights: list[float]

    def item_titles(self) -> set[str]:
        return {
            it["title"]
            for c in self.campaigns["campaigns"]
            for g in c["ad_groups"]
            for it in g["items"]
        }


@dataclass
class Streams:
    tail_queries: list[tuple[str, str]]
    unseen_keywords: list[tuple[str, str]]


def _pick(rng: SplitMix64, items: list):
    return items[rng.next_index(len(items))]


def _compose(rng: SplitMix64, product_row: tuple[str, str, bool]) -> str:
    product, family, apparel = product_row
    parts: list[str] = []
    if apparel and rng.next_float() < 0.4:
        parts.append(_pick(rng, GENDERS))
    if rng.next_float() < 0.85:
        parts.append(_pick(rng, BRANDS))
    parts.append(_pick(rng, MODIFIERS))
    parts.append(product)
    if NUMERIC[family] and rng.next_float() < 0.45:
        parts.append(_pick(rng, NUMERIC[family]))
    return " ".join(parts)


def make_keywords(rng: SplitMix64, count: int) -> list[str]:
    """Distinct keywords; each base is often followed by its gender or
    numeric sibling so the filters have near neighbours to reject."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        text = _compose(rng, _pick(rng, PRODUCTS))
        siblings = [text]
        tokens = text.split(" ")
        if tokens[0] in GENDERS and rng.next_float() < 0.5:
            other = [g for g in GENDERS if g != tokens[0]]
            siblings.append(" ".join([_pick(rng, other)] + tokens[1:]))
        for values in NUMERIC.values():
            for value in values:
                if text.endswith(" " + value) and rng.next_float() < 0.5:
                    alt = _pick(rng, [v for v in values if v != value])
                    siblings.append(text[: -len(value)] + alt)
        for s in siblings:
            if s not in seen and len(out) < count:
                seen.add(s)
                out.append(s)
    return out


def _title_for(rng: SplitMix64, keyword: str) -> str:
    words = keyword.split(" ")
    extra = [_pick(rng, TITLE_WORDS)]
    if rng.next_float() < 0.5:
        extra.append(_pick(rng, MODIFIERS))
    if rng.next_float() < 0.3:
        extra.append(_pick(rng, BRANDS))
    title = [w.capitalize() for w in words] + [w.capitalize() for w in " ".join(extra).split(" ")]
    return " ".join(title)


def make_campaigns(rng: SplitMix64, keywords: dict[str, list[str]]) -> dict:
    """Every keyword sits in exactly one ad group; 1-3 keywords and 1-3
    items per group, 1-4 groups per campaign."""
    campaigns = []
    for market in MARKETS:
        order = list(keywords[market])
        rng.shuffle(order)
        item_id = 1_000_000 if market == "US" else 2_000_000
        groups = []
        i = 0
        while i < len(order):
            size = 1 + rng.next_index(3)
            kws = order[i : i + size]
            i += size
            items = []
            for _ in range(1 + (rng.next_float() < 0.1)):
                items.append({
                    "id": item_id,
                    "title": _title_for(rng, _pick(rng, kws)),
                    "price": round(2.0 + 198.0 * rng.next_float(), 2),
                })
                item_id += 1
            groups.append({"keywords": kws, "items": items})
        j = 0
        while j < len(groups):
            size = 1 + rng.next_index(4)
            campaigns.append({
                "id": f"{market.lower()}-{len(campaigns):05d}",
                "market": market,
                "ad_groups": groups[j : j + size],
            })
            j += size
    return {"campaigns": campaigns}


def _query_from(rng: SplitMix64, keyword: str, extra_max: int) -> str:
    words = keyword.split(" ")
    for _ in range(rng.next_index(extra_max + 1)):
        pool = EXTRA_QUERY_WORDS if rng.next_float() < 0.85 else MODIFIERS
        words.insert(rng.next_index(len(words) + 1), _pick(rng, pool))
    return " ".join(words)


def make_relevance(rng: SplitMix64, campaigns: dict, rows: int, dim: int):
    """Query-item feature rows graded by token overlap, with label noise and
    a shift on the 'new' and 'holdout' slices, as the fixtures do."""
    extractor = FeatureExtractor(embed_dim=dim)
    groups = [(g, c["market"]) for c in campaigns["campaigns"] for g in c["ad_groups"]]
    X = np.zeros((rows, len(FEATURE_NAMES)))
    y = np.zeros(rows)
    grades = np.zeros(rows)
    for r in range(rows):
        group, _ = _pick(rng, groups)
        item = _pick(rng, group["items"])
        keyword = _pick(rng, group["keywords"])
        if rng.next_float() < 0.35:  # a query from some other group
            other, _ = _pick(rng, groups)
            query = _query_from(rng, _pick(rng, other["keywords"]), 3)
        else:
            query = _query_from(rng, keyword, 3)
        similarity = 1.0 if rng.next_float() < 0.5 else 0.55 + 0.45 * rng.next_float()
        f = extractor.extract(query, item["title"], item["price"], keyword, similarity)
        grade = float(np.clip(round(1 + 5 * f[0] + 2 * f[5] + 1.5 * (f[2] - 0.8)), 1, 5))
        noise = 0.6 * (rng.next_float() + rng.next_float() - 1.0)
        X[r] = f
        grades[r] = grade
        y[r] = float(np.clip(grade + noise, 0.5, 5.5))
    base_end, new_end = int(0.6 * rows), int(0.8 * rows)
    shift = 0.5 * (grades <= 2)
    return {
        "base": (X[:base_end], y[:base_end]),
        "new": (X[base_end:new_end], y[base_end:new_end] - shift[base_end:new_end]),
        "holdout": (X[new_end:], y[new_end:] - shift[new_end:]),
    }


def make_corpus(seed: int, sizes: Sizes, dim: int) -> Corpus:
    """The program's inputs plus the head-query pool that repeats against them."""
    rng = SplitMix64(seed)
    keywords = {m: make_keywords(rng, sizes.keywords_per_market) for m in MARKETS}
    campaigns = make_campaigns(rng, keywords)
    relevance = make_relevance(rng, campaigns, sizes.relevance_rows, dim)
    head_pool: list[tuple[str, str]] = []
    for market in MARKETS:
        seen: set[str] = set()
        while len(seen) < sizes.head_pool_per_market:
            q = _query_from(rng, _pick(rng, keywords[market]), 4)
            if rng.next_float() < 0.05:  # two needs in one query: many candidates
                q = f"{q} {_pick(rng, keywords[market])}"
            if q not in seen:
                seen.add(q)
                head_pool.append((market, q))
    rng.shuffle(head_pool)
    return Corpus(keywords=keywords, campaigns=campaigns, relevance=relevance,
                  head_pool=head_pool, head_weights=zipf_weights(len(head_pool)))


def zipf_weights(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def make_streams(keywords: dict[str, list[str]], seed: int, tail_count: int,
                 unseen_count: int, exclude: set[str] = frozenset()) -> Streams:
    """Non-repeating tail queries and keywords absent from the corpus."""
    rng = SplitMix64(seed)
    tail: list[tuple[str, str]] = []
    seen = set(exclude)
    while len(tail) < tail_count:
        market = MARKETS[rng.next_index(len(MARKETS))]
        q = _query_from(rng, _pick(rng, keywords[market]), 3)
        q = f"{q} {_pick(rng, BRANDS)}{rng.next_index(100000)}"
        if q not in seen:
            seen.add(q)
            tail.append((market, q))
    known = {(m, k) for m in MARKETS for k in keywords[m]}
    unseen: list[tuple[str, str]] = []
    while len(unseen) < unseen_count:
        market = MARKETS[rng.next_index(len(MARKETS))]
        text = _compose(rng, _pick(rng, PRODUCTS))
        key = (market, text)
        if key not in known and text not in seen and tokenize(text):
            seen.add(text)
            unseen.append(key)
    return Streams(tail_queries=tail, unseen_keywords=unseen)


def write_inputs(corpus: Corpus, out_dir: str) -> dict[str, str]:
    """The files the program reads; returns their paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "keywords": os.path.join(out_dir, "keywords.tsv"),
        "campaigns": os.path.join(out_dir, "campaigns.json"),
    }
    with open(paths["keywords"], "w", encoding="utf-8") as fh:
        fh.write("# market<TAB>keyword\n")
        for market in MARKETS:
            for text in corpus.keywords[market]:
                fh.write(f"{market}\t{text}\n")
    with open(paths["campaigns"], "w", encoding="utf-8") as fh:
        json.dump(corpus.campaigns, fh, sort_keys=True)
    for role, (X, y) in corpus.relevance.items():
        paths[role] = os.path.join(out_dir, f"relevance_{role}.csv")
        save_dataset(X, y, FEATURE_NAMES, paths[role])
    return paths
