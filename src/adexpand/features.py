"""Default query-item feature extractor feeding the relevance model.

Six features, fixed order; the same schema is used when synthesizing
training datasets so trained models can score live matches directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .embeddings import cosine_similarity, fallback_embed
from .expansion import tokenize


@lru_cache(maxsize=65536)
def _embed_cached(text: str, dim: int) -> np.ndarray:
    # queries and titles repeat heavily at serving time; the embedding is a
    # pure function of (text, dim), so the cached array is shared read-only
    vector = fallback_embed(text, dim)
    vector.setflags(write=False)
    return vector


@lru_cache(maxsize=65536)
def _tokens_cached(text: str) -> tuple[frozenset[str], int]:
    # the same texts recur for every pair of a query; returns the token set
    # and the token count (repeats included), both read-only
    tokens = tokenize(text)
    return frozenset(tokens), len(tokens)


FEATURE_NAMES = [
    "query_title_jaccard",
    "query_title_embed_sim",
    "origin_variant_sim",
    "log1p_price",
    "title_token_count",
    "keyword_in_title_ratio",
]


@dataclass(frozen=True)
class FeatureExtractor:
    """Stateless extractor; embed_dim controls the hashing embedder."""

    embed_dim: int

    def extract(
        self,
        query: str,
        title: str,
        price: float,
        matched_keyword: str,
        origin_variant_similarity: float,
    ) -> np.ndarray:
        q_tokens, _ = _tokens_cached(query)
        t_tokens, title_token_count = _tokens_cached(title)
        k_tokens, _ = _tokens_cached(matched_keyword)
        union = q_tokens | t_tokens
        jaccard = len(q_tokens & t_tokens) / len(union) if union else 0.0
        embed_sim = cosine_similarity(
            _embed_cached(query, self.embed_dim), _embed_cached(title, self.embed_dim)
        )
        kw_ratio = len(k_tokens & t_tokens) / len(k_tokens) if k_tokens else 0.0
        return np.array(
            [
                jaccard,
                embed_sim,
                origin_variant_similarity,
                math.log1p(max(price, 0.0)),
                float(title_token_count),
                kw_ratio,
            ],
            dtype=np.float64,
        )
