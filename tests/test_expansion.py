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
    gender_consistent,
    load_expansions,
    numeric_consistent,
    numeric_tokens,
    save_expansions,
    tokenize,
)
from adexpand.flat_index import build_index
from adexpand.thresholds import ThresholdRow, ThresholdTable, build_threshold_table


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


def _one_cluster_table(emb, tau):
    clustering = Clustering(
        market="US",
        cluster_count=1,
        centroids=np.ones((1, emb.dim)),
        assignments={r.id: 0 for r in emb.refs},
    )
    table = ThresholdTable(
        market="US",
        p=0.99,
        min_cluster_size=0,
        fallback_tau=tau,
        rows={0: ThresholdRow(size=len(emb), tau_distance=tau, tau_similarity=1 - tau, fallback=False)},
    )
    return clustering, table


class TestExpandKeyword:
    def test_zero_threshold_accepts_nothing(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=0.0)
        index = build_index(emb)
        ref = emb.ref_by_text("led garden lights")
        record = expand_keyword(ref, emb.vector(ref), index, clustering, table)
        assert record.accepted_variants() == []

    def test_near_neighbors_within_tau_accepted(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=0.05)
        index = build_index(emb)
        ref = emb.ref_by_text("led garden lights")
        record = expand_keyword(ref, emb.vector(ref), index, clustering, table)
        accepted = {v.keyword.text for v in record.accepted_variants()}
        assert accepted == {"outdoor led lights", "garden lighting"}
        for v in record.accepted_variants():
            assert v.distance <= record.tau_used
            assert v.similarity == pytest.approx(1.0 - v.distance, abs=1e-12)

    def test_origin_never_among_variants(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=2.0)
        index = build_index(emb)
        for ref in emb.refs:
            record = expand_keyword(ref, emb.vector(ref), index, clustering, table)
            assert all(v.keyword.id != ref.id for v in record.variants)

    def test_gender_filter_records_reason(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=0.05)
        index = build_index(emb)
        ref = emb.ref_by_text("mens shoes")
        record = expand_keyword(ref, emb.vector(ref), index, clustering, table)
        by_text = {v.keyword.text: v for v in record.variants}
        assert by_text["womens sandals"].filtered_reason is FilterReason.GENDER
        assert "womens sandals" not in {v.keyword.text for v in record.accepted_variants()}

    def test_numeric_filter_records_reason(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=0.05)
        index = build_index(emb)
        ref = emb.ref_by_text("iphone 13 case")
        record = expand_keyword(ref, emb.vector(ref), index, clustering, table)
        by_text = {v.keyword.text: v for v in record.variants}
        assert by_text["iphone 12 accessories"].filtered_reason is FilterReason.NUMERIC

    def test_filters_disabled_accepts_everything_within_tau(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=0.05)
        index = build_index(emb)
        ref = emb.ref_by_text("mens shoes")
        record = expand_keyword(
            ref, emb.vector(ref), index, clustering, table, filters_enabled=False
        )
        assert "womens sandals" in {v.keyword.text for v in record.accepted_variants()}

    def test_filter_soundness(self):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=2.0)
        index = build_index(emb)
        for record in expand_all(ExpansionContext(emb, index, clustering, table)):
            for v in record.variants:
                if v.filtered_reason is FilterReason.GENDER:
                    assert not gender_consistent(record.origin.text, v.keyword.text)
                elif v.filtered_reason is FilterReason.NUMERIC:
                    assert gender_consistent(record.origin.text, v.keyword.text)
                    assert not numeric_consistent(record.origin.text, v.keyword.text)
                else:
                    assert gender_consistent(record.origin.text, v.keyword.text)
                    assert numeric_consistent(record.origin.text, v.keyword.text)

    def test_variants_sorted_by_distance_then_id(self):
        rng = np.random.default_rng(21)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(40)]
        )
        clustering, table = _one_cluster_table(emb, tau=2.0)
        index = build_index(emb)
        ref = emb.refs[0]
        record = expand_keyword(ref, emb.vector(ref), index, clustering, table)
        keys = [(v.distance, v.keyword.id) for v in record.variants]
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
            for record in expand_all(context, filters_enabled=False):
                accepted[record.origin.text] = {v.keyword.text for v in record.accepted_variants()}
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
        filters_enabled=st.booleans(),
    )
    def test_reasons_equal_per_neighbor_rules(self, texts, seed, filters_enabled):
        rng = np.random.default_rng(seed)
        emb = EmbeddingSet.from_pairs("US", [(t, rng.normal(size=8)) for t in texts])
        clustering, table = _one_cluster_table(emb, tau=2.0)
        index = build_index(emb)
        for ref in emb.refs:
            record = expand_keyword(ref, emb.vector(ref), index, clustering, table,
                                    filters_enabled=filters_enabled)
            assert len(record.variants) == len(emb) - 1
            for v in record.variants:
                expected = None
                if not filters_enabled:
                    pass
                elif not gender_consistent(ref.text, v.keyword.text):
                    expected = FilterReason.GENDER
                elif not numeric_consistent(ref.text, v.keyword.text):
                    expected = FilterReason.NUMERIC
                assert v.filtered_reason is expected, (ref.text, v.keyword.text)


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        emb = _fixture_corpus()
        clustering, table = _one_cluster_table(emb, tau=0.2)
        index = build_index(emb)
        records = expand_all(ExpansionContext(emb, index, clustering, table))
        path = str(tmp_path / "expansions.jsonl")
        save_expansions(records, path)
        loaded = load_expansions(path)
        assert loaded == records
