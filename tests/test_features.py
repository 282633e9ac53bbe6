"""Query-item features: values against fresh tokenisation, and token reuse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand import features
from adexpand.embeddings import cosine_similarity, fallback_embed
from adexpand.expansion import tokenize
from adexpand.features import FeatureExtractor

_TEXT = st.text(alphabet=st.sampled_from(list("ab13 Men'sʼ’ÉéW-.")), max_size=24)


def _reference(query, title, price, keyword, similarity, dim):
    """The six features from freshly tokenised inputs."""
    q = set(tokenize(query))
    title_tokens = tokenize(title)
    t = set(title_tokens)
    k = set(tokenize(keyword))
    union = q | t
    return np.array([
        len(q & t) / len(union) if union else 0.0,
        cosine_similarity(fallback_embed(query, dim), fallback_embed(title, dim)),
        similarity,
        math.log1p(max(price, 0.0)),
        float(len(title_tokens)),
        len(k & t) / len(k) if k else 0.0,
    ])


@pytest.fixture
def tokenize_calls(monkeypatch):
    """Texts tokenised by the features module, from an empty token cache."""
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(features, "tokenize", counted)
    features._tokens_cached.cache_clear()
    yield calls
    features._tokens_cached.cache_clear()


class TestExtract:
    @settings(max_examples=300, deadline=None)
    @given(query=_TEXT.filter(str.strip), title=_TEXT.filter(str.strip), keyword=_TEXT,
           price=st.sampled_from([0.0, 9.99, 120.0]), similarity=st.floats(0.0, 1.0))
    def test_equals_fresh_tokenisation(self, query, title, keyword, price, similarity):
        extractor = FeatureExtractor(embed_dim=32)
        expected = _reference(query, title, price, keyword, similarity, 32)
        # twice: the second call reads every token set from the cache
        for _ in range(2):
            got = extractor.extract(query, title, price, keyword, similarity)
            np.testing.assert_array_equal(got, expected)

    def test_query_tokenised_once_per_query(self, tokenize_calls):
        extractor = FeatureExtractor(embed_dim=32)
        query = "solar led garden lights outdoor"
        pairs = [
            ("Solar LED Garden Lights 8 Pack", "led garden lights"),
            ("Outdoor String Lights", "outdoor led lights"),
            ("Solar LED Garden Lights 8 Pack", "garden lighting"),
            ("Outdoor String Lights", "led garden lights"),
        ]
        for title, keyword in pairs:
            extractor.extract(query, title, 10.0, keyword, 0.9)
        assert tokenize_calls.count(query) == 1
        assert sorted(tokenize_calls) == sorted({query} | {t for p in pairs for t in p})
        tokenize_calls.clear()
        for title, keyword in pairs:
            extractor.extract(query, title, 10.0, keyword, 0.9)
        assert tokenize_calls == []
