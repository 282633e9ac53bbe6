"""Broad-match algebra, snapshot building, query matching."""

import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand import matching

from adexpand.errors import DanglingReferenceError, ParseError, UnknownMarketError
from adexpand.expansion import (
    ExpansionRecord,
    FilterReason,
    Variant,
    load_expansions,
    record_to_doc,
    tokenize,
)
from adexpand.features import FeatureExtractor
from adexpand.matching import (
    AdGroup,
    Campaign,
    Item,
    MatchRecord,
    Snapshot,
    broad_match,
    build_snapshot,
    match_query,
)
from adexpand.relevance import GbdtModel, StackedModel, as_stacked, fit_tree
from adexpand.snapshot_store import load_market_thresholds

from conftest import golden_campaigns, price_step_model

# the feature extractor of a snapshot whose embeddings are 256-dim
EXTRACTOR = FeatureExtractor(embed_dim=256)


# A market threshold is a finite number; this one is below every score the
# test models give, so it keeps every candidate.
FLOOR = -1e9


def tokens(text):
    return set(tokenize(text))


class TestBroadMatch:
    def test_subset_rule(self):
        assert broad_match(tokens("apple iphone case red"), tokens("iphone case"))

    def test_extra_keyword_token_fails(self):
        assert not broad_match(tokens("iphone case"), tokens("iphone case pro"))

    def test_reflexive(self):
        assert broad_match(tokens("iphone case"), tokens("iphone case"))

    def test_order_and_duplicates_irrelevant(self):
        assert broad_match(tokens("case iphone case apple"), tokens("iphone case"))

    def test_anti_monotone_in_keyword_tokens(self):
        rng = np.random.default_rng(40)
        vocabulary = [f"tok{i}" for i in range(10)]
        for _ in range(100):
            q = set(rng.choice(vocabulary, size=rng.integers(1, 8), replace=False))
            k = set(rng.choice(vocabulary, size=rng.integers(1, 5), replace=False))
            extra = set(rng.choice(vocabulary, size=1))
            if broad_match(q, k | extra):
                assert broad_match(q, k)


def _variant(text, kw_id, distance):
    return Variant(
        text=text,
        id=kw_id,
        distance=distance,
        similarity=1.0 - distance,
    )


def _expansion(market, origin_text, origin_id, variants):
    return ExpansionRecord(
        market=market,
        origin=origin_text,
        origin_id=origin_id,
        cluster=0,
        tau_used=0.5,
        variants=variants,
    )


def _rows(records):
    """load_expansions' rows for expansion records: each origin, and the
    text and similarity of each accepted variant."""
    return [
        (r.market, r.origin,
         [(v.text, v.similarity) for v in r.accepted_variants()])
        for r in records
    ]


def golden_expansions():
    return [
        _expansion("US", "led garden lights", 0, [
            _variant("outdoor led lights", 1, 0.02),
            _variant("garden lighting", 2, 0.03),
        ]),
        _expansion("US", "iphone 13 case", 3, [
            _variant("iphone 13 cover", 4, 0.05),
        ]),
        _expansion("UK", "ladies winter jumpers", 8, [
            _variant("womens winter sweaters", 9, 0.04),
        ]),
    ]


def make_snapshot(version=1, thresholds=None, model=None, expansions=None):
    return Snapshot(
        version=version,
        model=model or price_step_model(),
        market_thresholds=thresholds or {"US": FLOOR, "UK": FLOOR},
        extractor=EXTRACTOR,
        _token_index=build_snapshot(
            golden_campaigns(), _rows(golden_expansions() if expansions is None else expansions)),
    )


class TestBuildSnapshot:
    def test_empty_inputs_valid(self):
        snapshot = Snapshot(
            version=1,
            model=as_stacked(GbdtModel(base_score=3.0, learning_rate=1.0, n_features=6)),
            market_thresholds={"US": 0.0},
            extractor=EXTRACTOR,
            _token_index=build_snapshot([], []),
        )
        assert snapshot.version == 1
        assert match_query("anything at all", "US", snapshot) == []

    def test_dangling_expansion_origin(self):
        with pytest.raises(DanglingReferenceError):
            make_snapshot(expansions=[
                _expansion("US", "keyword nobody bid on", 99, []),
            ])

    def test_missing_market_threshold(self):
        with pytest.raises(UnknownMarketError):
            Snapshot(
                version=1,
                model=price_step_model(),
                market_thresholds={"US": 0.0},  # UK campaigns exist
                extractor=EXTRACTOR,
                _token_index=build_snapshot(golden_campaigns(), []),
            )

    @pytest.mark.parametrize("threshold", [float("-inf"), float("inf"), float("nan")])
    def test_non_finite_threshold(self, tmp_path, threshold):
        """A snapshot's thresholds come from load_market_thresholds, which
        refuses a non-finite one, naming the file and the market."""
        path = tmp_path / "market_thresholds.json"
        path.write_text(json.dumps({"US": 2.5, "UK": threshold}), encoding="utf-8")
        with pytest.raises(ParseError, match="'UK'") as info:
            load_market_thresholds(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_rebuild_equivalence_on_probe_queries(self):
        a = make_snapshot(version=1)
        b = make_snapshot(version=2)
        probes = [
            ("solar led garden lights outdoor", "US"),
            ("warm ladies winter jumpers sale", "UK"),
            ("iphone 13 leather cover", "US"),
            ("nothing matches this", "US"),
        ]
        for query, market in probes:
            got_a = [(r.item_id, r.matched_keyword, r.score) for r in match_query(query, market, a)]
            got_b = [(r.item_id, r.matched_keyword, r.score) for r in match_query(query, market, b)]
            assert got_a == got_b


def shared_expansions():
    """Variant texts accepted by several origins, and one that is also a
    campaign keyword, as expansion output files them."""
    return golden_expansions() + [
        _expansion("US", "garden lighting", 2, [
            _variant("outdoor led lights", 1, 0.01),
            _variant("led garden lights", 0, 0.03),
        ]),
        _expansion("US", "outdoor led lights", 1, [
            _variant("garden lighting", 2, 0.02),
        ]),
        _expansion("UK", "solar garden light", 11, [
            _variant("garden lighting", 12, 0.04),
        ]),
    ]


def _all_entries(snapshot):
    """(market, token set, entry) for every entry of the index."""
    return [
        (market, tokens, entry)
        for market, buckets in snapshot._token_index.items()
        for bucket in buckets.values()
        for tokens, entries in bucket
        for entry in entries
    ]


class TestSharedTokenSets:
    def test_tokenize_once_per_distinct_text(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(matching, "tokenize", counted)
        expansions = shared_expansions()
        make_snapshot(expansions=expansions)
        texts = {kw for c in golden_campaigns() for g in c.ad_groups for kw in g.keywords}
        texts |= {v.text for r in expansions for v in r.accepted_variants()}
        assert Counter(calls) == Counter(texts)

    def test_entries_with_one_text_share_one_token_set(self):
        snapshot = make_snapshot(expansions=shared_expansions())
        by_text = {}
        for _, tokens, entry in _all_entries(snapshot):
            by_text.setdefault(entry.matched_text, []).append(tokens)
        shared = [sets for sets in by_text.values() if len(sets) > 1]
        assert len(shared) >= 3
        for sets in shared:
            assert all(tokens is sets[0] for tokens in sets)

    def test_entry_filed_under_rarest_token_by_entry_count(self):
        # "solar" is in 6 entries but 2 distinct texts, "lamp" in 3 of each:
        # counted per entry, "lamp" is the rarer token of "solar lamp".
        origins = ["led garden lights", "garden lighting", "outdoor led lights",
                   "iphone 13 case", "running shoes"]
        expansions = shared_expansions() + [
            _expansion("US", origin, i, [_variant("solar panel", 50, 0.05)])
            for i, origin in enumerate(origins)
        ] + [
            _expansion("US", "mens running shoes", 7, [
                _variant("solar lamp", 51, 0.05),
                _variant("lamp post", 52, 0.05),
                _variant("desk lamp", 53, 0.05),
            ]),
        ]
        snapshot = make_snapshot(expansions=expansions)
        lamp = [e.matched_text for _, entries in snapshot._token_index["US"]["lamp"]
                for e in entries]
        assert lamp.count("solar lamp") == 1
        for market in ("US", "UK"):
            placed = [(token, tokens, len(entries))
                      for token, bucket in snapshot._token_index[market].items()
                      for tokens, entries in bucket]
            # each token set is filed once, under its rarest token by entry count
            assert len({tokens for _, tokens, _ in placed}) == len(placed)
            df = Counter()
            for _, tokens, count in placed:
                for t in tokens:
                    df[t] += count
            for token, tokens, _ in placed:
                assert token == min(tokens, key=lambda t: (df[t], t))

    def test_broad_match_hits_equal_matched_token_sets(self, monkeypatch):
        # perfbench's tracer counts candidates per query as the broad_match
        # calls inside match_query that succeed: match_query tests each token
        # set of a scanned bucket once, so that count is the number of the
        # market's token sets the query contains, not of their entries.
        snapshot = make_snapshot(expansions=shared_expansions())
        calls, hits = [], []
        real = matching.broad_match

        def counted(query_tokens, keyword_tokens):
            matched = real(query_tokens, keyword_tokens)
            calls.append(keyword_tokens)
            if matched:
                hits.append(keyword_tokens)
            return matched

        monkeypatch.setattr(matching, "broad_match", counted)
        fewer = []
        for query, market in [
            ("solar led garden lights outdoor lighting", "US"),
            ("outdoor led lights", "US"),
            ("garden lighting solar light", "UK"),
            ("ladies womens winter jumpers sweaters", "UK"),
            ("nothing matches this", "US"),
        ]:
            calls.clear()
            hits.clear()
            match_query(query, market, snapshot)
            q = tokens(query)
            buckets = snapshot._token_index[market]
            scanned = [ts for t in sorted(q) for ts, _ in buckets.get(t, [])]
            assert calls == scanned
            sets = {ts for m, ts, _ in _all_entries(snapshot) if m == market}
            assert sorted(map(sorted, hits)) == sorted(sorted(ts) for ts in sets if ts <= q)
            matched_entries = sum(m == market and ts <= q for m, ts, _ in _all_entries(snapshot))
            fewer.append(len(hits) < matched_entries)
        # some query matches a token set that several entries share
        assert any(fewer)


_WORDS = ["led", "garden", "lights", "iphone", "13", "men's", "mens"]
_TEXT = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=3).map(" ".join)


@st.composite
def _matching_inputs(draw):
    item_ids = iter(range(1, 10_000))
    campaigns = []
    for market in ("US", "UK"):
        for c in range(draw(st.integers(0, 4))):
            groups = tuple(
                AdGroup(
                    keywords=tuple(draw(st.lists(_TEXT, min_size=0, max_size=3))),
                    items=tuple(
                        Item(id=next(item_ids), title=draw(_TEXT) or "plain",
                             price=draw(st.sampled_from([5.0, 49.0, 51.0, 120.0])))
                        for _ in range(draw(st.integers(0, 3)))
                    ),
                )
                for _ in range(draw(st.integers(1, 2)))
            )
            campaigns.append(Campaign(id=f"{market}-{c}", market=market, ad_groups=groups))
    expansions = []
    for campaign in campaigns:
        for group in campaign.ad_groups:
            for keyword in group.keywords:
                if draw(st.booleans()):
                    variants = [
                        Variant(
                            text=draw(_TEXT),
                            id=i,
                            distance=draw(st.sampled_from([0.0, 0.01, 0.1, 0.25])),
                            similarity=0.0,
                            filtered_reason=draw(st.sampled_from([None, FilterReason.GENDER])),
                        )
                        for i in range(draw(st.integers(0, 3)))
                    ]
                    for v in variants:
                        v.similarity = 1.0 - v.distance
                    expansions.append(_expansion(campaign.market, keyword, 0, variants))
    threshold = draw(st.sampled_from([FLOOR, 2.5, 3.0]))
    queries = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(_WORDS), min_size=2, max_size=8).map(" ".join),
                  st.sampled_from(["US", "UK"])),
        min_size=1, max_size=6,
    ))
    return campaigns, expansions, threshold, queries


def _brute_force_match(query, market, campaigns, expansions, model, threshold):
    """Score every (keyword, item) pair whose keyword the query contains."""
    groups_by_keyword = {}
    for c in campaigns:
        if c.market == market:
            for g in c.ad_groups:
                for kw in g.keywords:
                    groups_by_keyword.setdefault(kw, []).append(g)
    entries = [(kw, kw, 1.0, groups) for kw, groups in groups_by_keyword.items()]
    for r in expansions:
        if r.market == market:
            for v in r.accepted_variants():
                if v.text != r.origin:
                    entries.append((v.text, r.origin, v.similarity,
                                    groups_by_keyword[r.origin]))
    q = set(tokenize(query))
    found = []
    for matched, origin, similarity, groups in entries:
        kw_tokens = set(tokenize(matched))
        if not kw_tokens or not kw_tokens <= q:
            continue
        for g in groups:
            for item in g.items:
                x = EXTRACTOR.extract(query, item.title, item.price, matched, similarity)
                base, adjustment = model.predict_one(x)
                score = base + adjustment
                if score >= threshold:
                    found.append(MatchRecord(query, market, item.id, matched, origin,
                                             score, base, adjustment, threshold))
    best = {}
    for r in sorted(found, key=lambda r: (-r.score, r.matched_keyword, r.origin_keyword)):
        best.setdefault(r.item_id, r)
    return sorted(best.values(), key=lambda r: (-r.score, r.item_id))


def _keyword_sensitive_model():
    """Price step plus an adjustment on the keyword-dependent features, so
    which keyword reaches an item changes its score."""
    base = price_step_model().base
    X = np.random.default_rng(5).uniform(0.0, 1.0, size=(60, base.n_features))
    adjustment = [fit_tree(X, X[:, 0] + X[:, 2] - X[:, 5], max_depth=3)]
    return StackedModel(base=base, adjustment=adjustment, adjustment_rate=0.5)


class TestMatchQueryEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_matching_inputs())
    def test_equals_brute_force_scan(self, inputs):
        campaigns, expansions, threshold, queries = inputs
        model = _keyword_sensitive_model()
        snapshot = Snapshot(1, model, {"US": threshold, "UK": threshold}, EXTRACTOR,
                            build_snapshot(campaigns, _rows(expansions)))
        for query, market in queries:
            expected = _brute_force_match(query, market, campaigns, expansions, model, threshold)
            assert match_query(query, market, snapshot) == expected


# "'" and "-" have no tokens
_INDEX_TEXT = st.lists(st.sampled_from(_WORDS + ["'", "-"]), max_size=3).map(" ".join)


@st.composite
def _index_inputs(draw):
    """Campaigns, and expansion records of their keywords whose variants are
    accepted or rejected, equal to their origin or without tokens, and share
    texts across origins and markets."""
    campaigns = [
        Campaign(id=f"{market}-{c}", market=market, ad_groups=(AdGroup(
            keywords=tuple(draw(st.lists(_INDEX_TEXT, min_size=1, max_size=4))),
            items=(Item(id=1, title="plain", price=5.0),),
        ),))
        for market in ("US", "UK")
        for c in range(draw(st.integers(0, 2)))
    ]
    origins = [(c.market, kw) for c in campaigns for g in c.ad_groups for kw in g.keywords]
    records = []
    for market, origin in draw(st.lists(st.sampled_from(origins), max_size=8)
                               if origins else st.just([])):
        variants = [
            Variant(
                text=draw(st.just(origin) | _INDEX_TEXT),
                id=i,
                distance=distance,
                similarity=1.0 - distance,
                filtered_reason=draw(st.sampled_from([None, None, *FilterReason])),
            )
            for i, distance in enumerate(draw(st.lists(st.floats(0.0, 1.0), max_size=4)))
        ]
        records.append(ExpansionRecord(market=market, origin=origin, origin_id=99,
                                       cluster=0, tau_used=0.5, variants=variants))
    return campaigns, records


def _reference_index(campaigns, records):
    """The token index by the rule of expansion records: an entry for each
    campaign keyword and for each accepted variant that has tokens and is
    not its origin, filed under its token in the fewest entries (ties to the
    smallest), then grouped by token set within each bucket."""
    groups = {}
    for c in campaigns:
        for g in c.ad_groups:
            for kw in g.keywords:
                groups.setdefault(c.market, {}).setdefault(kw, []).append(g)
    entries = {market: [] for market in groups}
    for market in sorted(groups):
        for kw in sorted(groups[market]):
            if tokenize(kw):
                entries[market].append(
                    (frozenset(tokenize(kw)), kw, kw, 1.0, tuple(groups[market][kw])))
    for r in records:
        for v in r.accepted_variants():
            if tokenize(v.text) and v.text != r.origin:
                entries[r.market].append((
                    frozenset(tokenize(v.text)), v.text, r.origin,
                    v.similarity, tuple(groups[r.market][r.origin]),
                ))
    index = {}
    for market, market_entries in entries.items():
        df = Counter(t for e in market_entries for t in e[0])
        buckets = {}
        for e in market_entries:
            buckets.setdefault(min(e[0], key=lambda t: (df[t], t)), []).append(e)
        index[market] = {token: _grouped(bucket) for token, bucket in buckets.items()}
    return index


def _grouped(bucket):
    """A bucket's entries grouped by token set: each set once, in the order
    it is first filed, with its entries in filing order."""
    groups = {}
    for tokens, *entry in bucket:
        groups.setdefault(tokens, []).append(tuple(entry))
    return list(groups.items())


class TestIndexFromLines:
    @settings(max_examples=150, deadline=None)
    @given(_index_inputs())
    def test_equals_index_of_records(self, inputs):
        """The index filed from expansions.jsonl lines equals the one the
        records give, bucket for bucket, group for group and entry for
        entry."""
        campaigns, records = inputs
        text = "".join(json.dumps(record_to_doc(r), sort_keys=True) + "\n" for r in records)
        rows = load_expansions("expansions.jsonl", io.StringIO(text))
        assert build_snapshot(campaigns, rows) == _reference_index(campaigns, records)


class TestMatchQuery:
    def test_no_expansions_no_origin_match_is_empty(self):
        snapshot = make_snapshot(expansions=[])
        assert match_query("quantum flux capacitor", "US", snapshot) == []

    def test_unknown_market(self):
        snapshot = make_snapshot()
        with pytest.raises(UnknownMarketError):
            match_query("iphone 13 case", "AU", snapshot)

    def test_origin_keywords_match_without_expansions(self):
        snapshot = make_snapshot(expansions=[])
        records = match_query("red iphone 13 case sale", "US", snapshot)
        assert {r.item_id for r in records} == {104, 105}
        assert all(r.matched_keyword == "iphone 13 case" for r in records)
        assert all(r.origin_keyword == "iphone 13 case" for r in records)

    def test_expanded_keyword_reaches_origin_items(self):
        snapshot = make_snapshot()
        # "iphone 13 cover" is an expansion of "iphone 13 case"; its ad group
        # items must surface for a cover query that never mentions "case".
        records = match_query("iphone 13 cover leather", "US", snapshot)
        assert {r.item_id for r in records} == {104, 105}
        assert all(r.origin_keyword == "iphone 13 case" for r in records)
        assert all(r.matched_keyword == "iphone 13 cover" for r in records)

    def test_disabled_threshold_equals_unfiltered(self):
        lenient = make_snapshot(thresholds={"US": FLOOR, "UK": FLOOR})
        strict = make_snapshot(thresholds={"US": 3.0, "UK": 3.0})
        query = "solar led garden lights outdoor string"
        all_records = match_query(query, "US", lenient)
        kept = match_query(query, "US", strict)
        assert {r.item_id for r in kept} <= {r.item_id for r in all_records}
        assert all(r.score >= 3.0 for r in kept)
        # cheap items (score 2.5) pass only the floor
        assert {r.item_id for r in all_records} - {r.item_id for r in kept}

    def test_score_decomposition_and_threshold_invariants(self):
        snapshot = make_snapshot(thresholds={"US": 2.0, "UK": 2.0})
        for query, market in [("solar led garden lights outdoor", "US"),
                              ("warm ladies winter jumpers", "UK")]:
            for record in match_query(query, market, snapshot):
                assert record.score >= record.threshold
                assert record.score == pytest.approx(
                    record.score_base + record.score_adjustment, abs=1e-9
                )

    def test_dedup_keeps_best_scoring_keyword(self):
        snapshot = make_snapshot()
        # Query matching both the origin and its expansion: each item once.
        records = match_query("led garden lights outdoor lighting solar", "US", snapshot)
        ids = [r.item_id for r in records]
        assert len(ids) == len(set(ids))

    def test_output_order(self):
        snapshot = make_snapshot()
        records = match_query("solar led garden lights outdoor string", "US", snapshot)
        keys = [(-r.score, r.item_id) for r in records]
        assert keys == sorted(keys)

    def test_deterministic(self):
        snapshot = make_snapshot()
        q = "solar led garden lights outdoor"
        assert match_query(q, "US", snapshot) == match_query(q, "US", snapshot)

    def test_one_batch_per_query(self, monkeypatch):
        snapshot = make_snapshot()
        calls = []
        for name in ("predict_base", "predict_adjustment", "predict_one"):
            real = getattr(StackedModel, name)

            def counted(self, X, _real=real, _name=name):
                calls.append((_name, np.asarray(X).shape))
                return _real(self, X)

            monkeypatch.setattr(StackedModel, name, counted)
        records = match_query("led garden lights outdoor lighting solar", "US", snapshot)
        assert records
        assert [name for name, _ in calls] == ["predict_base", "predict_adjustment"]
        assert calls[0][1] == calls[1][1]
        assert calls[0][1][0] >= len(records)
        calls.clear()
        assert match_query("quantum flux capacitor", "US", snapshot) == []
        assert calls == []

    def test_batch_scores_equal_one_row_scores(self):
        # Without expansions every match is an origin keyword (similarity 1.0),
        # so each record's features can be rebuilt and scored one row at a time.
        base = price_step_model().base
        X = np.random.default_rng(3).normal(size=(40, base.n_features))
        adjustment = [fit_tree(X, X[:, 4] - X[:, 0], max_depth=3)]
        model = StackedModel(base=base, adjustment=adjustment, adjustment_rate=0.7)
        snapshot = make_snapshot(model=model, expansions=[])
        items = {it.id: it for c in golden_campaigns() for g in c.ad_groups for it in g.items}
        query = "solar led garden lights outdoor string iphone 13 case"
        records = match_query(query, "US", snapshot)
        assert len(records) > 2
        for record in records:
            item = items[record.item_id]
            features = snapshot.extractor.extract(
                query, item.title, item.price, record.matched_keyword, 1.0
            )
            base_score, adjustment_score = model.predict_one(features)
            assert (record.score_base, record.score_adjustment) == (base_score, adjustment_score)
            assert record.score == base_score + adjustment_score
