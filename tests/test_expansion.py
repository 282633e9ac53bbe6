"""Tokenization, consistency filters, and threshold-gated expansion."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand.clustering import Clustering, kmeans
from adexpand.embeddings import EmbeddingSet, normalize
from adexpand.expansion import (
    ExpansionContext,
    FilterReason,
    GenderClass,
    expand_all,
    expand_keyword,
    gender_class,
    load_expansions,
    numeric_tokens,
    save_expansions,
    tokenize,
)
from adexpand.flat_index import build_index
from adexpand.thresholds import ThresholdRow, ThresholdTable, build_threshold_table

# neighbours retrieved per keyword, the k_neighbors default of the CLI
K = 100

# The filters' reference rules, written from the public classifiers alone:
# the expected reason of every variant in these tests comes from them.

def gender_consistent(a, b):
    """True unless the two texts carry opposite gender classes."""
    classes = {gender_class(a), gender_class(b)}
    return len(classes) == 1 or GenderClass.NEUTRAL in classes


def numeric_consistent(original, candidate):
    """False only when a unit present on both sides carries different values:
    a candidate with no numbers, or with numbers in units the original does
    not mention, is accepted."""
    def values_by_unit(text):
        units = {}
        for value, unit in numeric_tokens(text):
            units.setdefault(unit, set()).add(value)
        return units

    theirs = values_by_unit(candidate)
    return all(theirs.get(unit, values) == values
               for unit, values in values_by_unit(original).items())


class TestTokenize:
    def test_apostrophes_removed_before_split(self):
        assert tokenize("Men's Shoes") == ["mens", "shoes"]

    def test_alphanumeric_runs_stay_fused(self):
        assert tokenize("65W USB-C GaN Charger") == ["65w", "usb", "c", "gan", "charger"]

    def test_empty(self):
        assert tokenize("") == []

    def test_underscore_and_punctuation_split(self):
        assert tokenize("a_b-c.d") == ["a", "b", "c", "d"]

    def test_curly_apostrophe(self):
        assert tokenize("men’s shoes") == ["mens", "shoes"]

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.one_of(
        st.sampled_from(list("'’ʼ Men'S Ünïcödé ÉßİΣσ ÆçĞ 65W 4.4mm _-.")),
        st.characters(),
    )))
    def test_equals_translate_form(self, text):
        reference = re.findall(
            r"[^\W_]+", text.lower().translate(str.maketrans("", "", "'’ʼ")), re.UNICODE
        )
        assert tokenize(text) == reference


class TestGender:
    def test_masculine(self):
        assert gender_class("mens shoes") is GenderClass.MASCULINE

    def test_feminine(self):
        assert gender_class("women's sandals") is GenderClass.FEMININE

    def test_neutral(self):
        assert gender_class("running shoes") is GenderClass.NEUTRAL

    def test_both_genders_is_neutral(self):
        assert gender_class("men women unisex jacket") is GenderClass.NEUTRAL

    def test_opposite_genders_inconsistent(self):
        assert not gender_consistent("men's shoes", "women's sandals")

    def test_same_gender_consistent(self):
        assert gender_consistent("ladies winter jumpers", "women's winter sweaters")

    def test_neutral_consistent_with_anything(self):
        assert gender_consistent("running shoes", "mens running shoes")


class TestNumeric:
    def test_bare_number(self):
        assert numeric_tokens("iphone 13 case") == {(13.0, "")}

    def test_number_with_unit(self):
        assert numeric_tokens("65w usb c gan charger") == {(65.0, "w")}

    def test_decimal_with_unit(self):
        assert numeric_tokens("4.4mm balanced cable") == {(4.4, "mm")}

    def test_conflicting_values_inconsistent(self):
        assert not numeric_consistent("iPhone 13 case", "iPhone 12 accessories")

    def test_same_value_same_unit_consistent(self):
        assert numeric_consistent("65W USB-C GaN Charger", "USB-C GaN Power Adapter 65W")

    def test_no_numerics_consistent(self):
        assert numeric_consistent("slouchy bag", "leather shoulder bag")

    def test_disjoint_units_consistent(self):
        # Only shared units are compared, so a 65w charger may expand to a cable
        # with no wattage at all.
        assert numeric_consistent("65w charger", "usb c cable 2m")

    def test_digits_inside_words_not_numeric(self):
        assert numeric_tokens("model65") == set()


def _axis(i, dim=8):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def _fixture_corpus():
    """Hand-placed vectors: two close variants, one rejected-by-filter pair,
    and unrelated keywords, all in one market."""
    dim = 8
    origin = _axis(0, dim)
    pairs = [
        ("led garden lights", origin),
        ("outdoor led lights", normalize(origin + 0.10 * _axis(1, dim))),
        ("garden lighting", normalize(origin + 0.12 * _axis(2, dim))),
        ("mens shoes", _axis(3, dim)),
        ("womens sandals", normalize(_axis(3, dim) + 0.1 * _axis(4, dim))),
        ("iphone 13 case", _axis(5, dim)),
        ("iphone 12 accessories", normalize(_axis(5, dim) + 0.1 * _axis(6, dim))),
        ("garden hose", _axis(7, dim)),
    ]
    return EmbeddingSet.from_pairs("US", pairs)


def _one_cluster_context(emb, tau):
    """emb's context with one cluster whose cutoff is tau."""
    clustering = Clustering(
        market="US",
        cluster_count=1,
        centroids=np.ones((1, emb.dim)),
        labels=np.zeros(len(emb), dtype=np.int64),
    )
    table = ThresholdTable(
        market="US",
        p=0.99,
        min_cluster_size=0,
        fallback_tau=tau,
        rows={0: ThresholdRow(size=len(emb), tau_distance=tau, tau_similarity=1 - tau, fallback=False)},
    )
    return ExpansionContext(emb, build_index(emb), clustering, table)


class TestExpandKeyword:
    def test_zero_threshold_accepts_nothing(self):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=0.0)
        row = emb.row_of("led garden lights")
        record = expand_keyword(context, emb.texts[row], row, emb.matrix[row], K)
        assert record.accepted_variants() == []

    def test_near_neighbors_within_tau_accepted(self):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=0.05)
        row = emb.row_of("led garden lights")
        record = expand_keyword(context, emb.texts[row], row, emb.matrix[row], K)
        accepted = {v.text for v in record.accepted_variants()}
        assert accepted == {"outdoor led lights", "garden lighting"}
        for v in record.accepted_variants():
            assert v.distance <= record.tau_used
            assert v.similarity == pytest.approx(1.0 - v.distance, abs=1e-12)

    def test_origin_never_among_variants(self):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=2.0)
        for row, text in enumerate(emb.texts):
            record = expand_keyword(context, text, row, emb.matrix[row], K)
            assert all(v.id != row for v in record.variants)

    def test_gender_filter_records_reason(self):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=0.05)
        row = emb.row_of("mens shoes")
        record = expand_keyword(context, emb.texts[row], row, emb.matrix[row], K)
        by_text = {v.text: v for v in record.variants}
        assert by_text["womens sandals"].filtered_reason is FilterReason.GENDER
        assert "womens sandals" not in {v.text for v in record.accepted_variants()}

    def test_numeric_filter_records_reason(self):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=0.05)
        row = emb.row_of("iphone 13 case")
        record = expand_keyword(context, emb.texts[row], row, emb.matrix[row], K)
        by_text = {v.text: v for v in record.variants}
        assert by_text["iphone 12 accessories"].filtered_reason is FilterReason.NUMERIC

    def test_filter_soundness(self):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=2.0)
        for record in expand_all(context, K):
            for v in record.variants:
                if v.filtered_reason is FilterReason.GENDER:
                    assert not gender_consistent(record.origin, v.text)
                elif v.filtered_reason is FilterReason.NUMERIC:
                    assert gender_consistent(record.origin, v.text)
                    assert not numeric_consistent(record.origin, v.text)
                else:
                    assert gender_consistent(record.origin, v.text)
                    assert numeric_consistent(record.origin, v.text)

    def test_variants_sorted_by_distance_then_id(self):
        rng = np.random.default_rng(21)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(40)]
        )
        context = _one_cluster_context(emb, tau=2.0)
        row = 0
        record = expand_keyword(context, emb.texts[row], row, emb.matrix[row], K)
        keys = [(v.distance, v.id) for v in record.variants]
        assert keys == sorted(keys)

    def test_accepted_set_grows_with_p(self):
        rng = np.random.default_rng(22)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(80)]
        )
        clustering = kmeans(emb, 4, seed=17)
        index = build_index(emb)
        previous: dict[str, set[str]] | None = None
        for p in (0.95, 0.99, 0.9999, 0.999999):
            table = build_threshold_table(clustering, emb, p, min_cluster_size=0)
            accepted = {}
            context = ExpansionContext(emb, index, clustering, table)
            for record in expand_all(context, K):
                # every variant inside the cutoff, filtered or not
                accepted[record.origin] = {v.text for v in record.variants}
            if previous is not None:
                for origin, variants in previous.items():
                    assert variants <= accepted[origin]
            previous = accepted


_FILTER_WORDS = ["mens", "men's", "women’s", "ladies", "boys", "girl", "herren", "damen",
                 "13", "12", "65w", "45w", "4.4mm", "4.5mm", "iphone", "case", "shoes", "usb"]


class TestFilterReasons:
    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(_FILTER_WORDS), min_size=1, max_size=4).map(" ".join),
            min_size=2, max_size=12, unique=True,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reasons_equal_per_neighbor_rules(self, texts, seed):
        rng = np.random.default_rng(seed)
        emb = EmbeddingSet.from_pairs("US", [(t, rng.normal(size=8)) for t in texts])
        context = _one_cluster_context(emb, tau=2.0)
        for row, text in enumerate(emb.texts):
            record = expand_keyword(context, text, row, emb.matrix[row], K)
            assert len(record.variants) == len(emb) - 1
            for v in record.variants:
                expected = None
                if not gender_consistent(text, v.text):
                    expected = FilterReason.GENDER
                elif not numeric_consistent(text, v.text):
                    expected = FilterReason.NUMERIC
                assert v.filtered_reason is expected, (text, v.text)


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        emb = _fixture_corpus()
        context = _one_cluster_context(emb, tau=0.2)
        records = expand_all(context, K)
        path = str(tmp_path / "expansions.jsonl")
        save_expansions(records, path)
        # the reader keeps each origin and its accepted variants' text and
        # similarity, rejected variants checked and dropped
        assert any(not v.accepted for r in records for v in r.variants)
        assert load_expansions(path) == [
            (r.market, r.origin,
             [(v.text, v.similarity) for v in r.accepted_variants()])
            for r in records
        ]

    def test_one_str_per_distinct_text(self, tmp_path):
        emb = _fixture_corpus()
        records = expand_all(_one_cluster_context(emb, tau=0.2), K)
        path = str(tmp_path / "expansions.jsonl")
        save_expansions(records, path)
        rows = load_expansions(path)
        strings = [s for market, origin, variants in rows
                   for s in (market, origin, *(text for text, _ in variants))]
        # texts recur across lines, yet each distinct one is one object
        assert len(set(strings)) < len(strings)
        assert len({id(s) for s in strings}) == len(set(strings))
