"""Exactness of the brute-force index against an independent full-sort oracle."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand.embeddings import EmbeddingSet
from adexpand.errors import DimensionMismatchError, EmptySetError
from adexpand.flat_index import FlatIndex, build_index, knn_search


def random_set(rng, n, dim, market="US"):
    pairs = [(f"kw-{i}", rng.normal(size=dim)) for i in range(n)]
    return EmbeddingSet.from_pairs(market, pairs)


def oracle_knn(index, query, k, exclude_id=None):
    """Full scan in float64, full sort by (distance, id)."""
    rows = []
    q = query.astype(np.float64)
    for kid, row in enumerate(index.matrix):
        if exclude_id is not None and kid == exclude_id:
            continue
        rows.append((1.0 - float(row.astype(np.float64) @ q), kid))
    rows.sort()
    return rows[:k]


class TestBuildIndex:
    def test_single_vector(self):
        rng = np.random.default_rng(0)
        index = build_index(random_set(rng, 1, 8))
        assert len(index) == 1

    def test_construction_preserves_contents(self):
        rng = np.random.default_rng(1)
        emb = random_set(rng, 5000, 16)
        index = build_index(emb)
        assert len(index) == 5000
        assert index.matrix.shape[1] == 16
        assert index.matrix is emb.matrix
        for i in (0, 17, 4999):
            np.testing.assert_array_equal(index.matrix[i], emb.matrix[i])

    def test_empty_set_rejected(self):
        emb = EmbeddingSet(market="US", texts=[], matrix=np.zeros((0, 4), np.float32))
        with pytest.raises(EmptySetError):
            build_index(emb)


class TestKnnSearch:
    def test_exact_self_match(self):
        rng = np.random.default_rng(2)
        emb = random_set(rng, 50, 8)
        index = build_index(emb)
        row = 13
        result = knn_search(index, emb.matrix[row], k=1)
        assert result[0].id == row
        assert result[0].distance == pytest.approx(0.0, abs=1e-6)

    def test_exclusion_returns_nearest_other(self):
        rng = np.random.default_rng(3)
        emb = random_set(rng, 50, 8)
        index = build_index(emb)
        row = 13
        result = knn_search(index, emb.matrix[row], k=1, exclude_id=row)
        assert result[0].id != row
        expected = oracle_knn(index, emb.matrix[row], 1, exclude_id=row)
        assert result[0].id == expected[0][1]

    def test_oracle_equivalence_5000(self):
        rng = np.random.default_rng(4)
        emb = random_set(rng, 5000, 64)
        index = build_index(emb)
        for _ in range(20):
            query = emb.matrix[rng.integers(0, 5000)] + rng.normal(scale=0.05, size=64)
            query = (query / np.linalg.norm(query)).astype(np.float32)
            got = knn_search(index, query, k=50)
            expected = oracle_knn(index, query, 50)
            assert [nb.id for nb in got] == [kid for _, kid in expected]
            np.testing.assert_allclose(
                [nb.distance for nb in got], [d for d, _ in expected], atol=1e-6
            )

    def test_monotone_distances(self):
        rng = np.random.default_rng(5)
        emb = random_set(rng, 500, 16)
        index = build_index(emb)
        result = knn_search(index, emb.matrix[0], k=100)
        dists = [nb.distance for nb in result]
        assert dists == sorted(dists)

    def test_k_larger_than_corpus(self):
        rng = np.random.default_rng(6)
        emb = random_set(rng, 5, 8)
        index = build_index(emb)
        assert len(knn_search(index, emb.matrix[0], k=50)) == 5
        assert len(knn_search(index, emb.matrix[0], k=50, exclude_id=0)) == 4

    def test_tie_break_by_id(self):
        # Two identical rows at ids 1 and 3: both at the same distance.
        vectors = [
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
        ]
        emb = EmbeddingSet.from_pairs("US", [(f"k{i}", v) for i, v in enumerate(vectors)])
        index = build_index(emb)
        result = knn_search(index, np.array([0.0, 1.0], dtype=np.float32), k=4)
        assert [nb.id for nb in result] == [1, 3, 0, 2]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        index = build_index(random_set(rng, 10, 8))
        with pytest.raises(DimensionMismatchError):
            knn_search(index, np.ones(9, dtype=np.float32), k=1)


# Small integer components make many rows identical or equidistant, so
# most queries meet ties, including at the k-th place.
_tie_vectors = st.lists(st.integers(-1, 1), min_size=3, max_size=3).filter(any)


@st.composite
def _knn_case(draw):
    vectors = draw(st.lists(_tie_vectors, min_size=1, max_size=12))
    n = len(vectors)
    query = np.array(draw(st.one_of(st.sampled_from(vectors), _tie_vectors)), dtype=np.float64)
    k = draw(st.integers(1, n + 2))
    exclude_id = draw(st.sampled_from([None, -1, 0, n - 1, n, draw(st.integers(0, n - 1))]))
    return vectors, (query / np.linalg.norm(query)).astype(np.float32), k, exclude_id


def _full_sort_knn(index, query, k, exclude_id):
    """knn_search as it was before partition-then-sort: one stable argsort
    of every distance."""
    distances = np.float32(1.0) - index.matrix @ query.astype(np.float32)
    if exclude_id is not None and 0 <= exclude_id < len(distances):
        distances[exclude_id] = np.inf
    order = np.argsort(distances, kind="stable")[:k]
    out = []
    for row in order:
        d = float(distances[row])
        if d == np.inf:
            continue
        out.append((int(row), repr(min(max(d, 0.0), 2.0))))
    return out


@st.composite
def _partition_case(draw):
    """Tie-heavy rows, sometimes a NaN row or a NaN query, every k from 1
    to past n, and exclude_id in range, at -1 and past the end."""
    vectors = draw(st.lists(_tie_vectors, min_size=1, max_size=40))
    n = len(vectors)
    matrix = np.array(vectors, dtype=np.float64)
    matrix = (matrix / np.linalg.norm(matrix, axis=1)[:, None]).astype(np.float32)
    if draw(st.booleans()) and n > 1:
        matrix[draw(st.integers(0, n - 1))] = np.nan
    query = np.array(draw(st.one_of(st.sampled_from(vectors), _tie_vectors)), dtype=np.float64)
    query = (query / np.linalg.norm(query)).astype(np.float32)
    if draw(st.integers(0, 9)) == 0:
        query[:] = np.nan
    k = draw(st.integers(1, n + 2))
    exclude_id = draw(st.sampled_from([None, -1, 0, n - 1, n, n + 5, draw(st.integers(0, n - 1))]))
    return matrix, query, k, exclude_id


class TestKnnOracleProperty:
    @settings(max_examples=400, deadline=None)
    @given(_knn_case())
    def test_equals_full_sort_oracle(self, case):
        vectors, query, k, exclude_id = case
        emb = EmbeddingSet.from_pairs("US", [(f"k{i}", v) for i, v in enumerate(vectors)])
        index = build_index(emb)
        # the same float32 distances, then every row but the excluded one
        # sorted by (distance, id) in plain Python
        distances = np.float32(1.0) - index.matrix @ query
        ranked = sorted(
            (float(d), row) for row, d in enumerate(distances) if row != exclude_id
        )[:k]
        got = knn_search(index, query, k=k, exclude_id=exclude_id)
        assert [(nb.distance, nb.id) for nb in got] == [
            (min(max(d, 0.0), 2.0), row) for d, row in ranked
        ]

    @settings(max_examples=600, deadline=None)
    @given(_partition_case())
    def test_equals_full_stable_argsort(self, case):
        matrix, query, k, exclude_id = case
        index = FlatIndex(matrix=matrix)
        got = knn_search(index, query, k=k, exclude_id=exclude_id)
        assert [(nb.id, repr(nb.distance)) for nb in got] == _full_sort_knn(
            index, query, k, exclude_id
        )

    def test_ties_straddling_the_kth_place_keep_id_order(self):
        # rows 1..5 tie with each other; k = 3 cuts inside the run
        matrix = np.array([[1, 0], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [-1, 0]],
                          dtype=np.float32)
        index = FlatIndex(matrix=matrix)
        query = np.array([0.6, 0.8], dtype=np.float32)
        got = knn_search(index, query, k=3, exclude_id=2)
        assert [nb.id for nb in got] == [1, 3, 4]


class TestConcurrentSearch:
    def test_concurrent_equals_sequential(self):
        # the index is read-only, so searches from several threads at once
        # return what one thread gets, each in its own order
        rng = np.random.default_rng(9)
        emb = random_set(rng, 500, 16)
        index = build_index(emb)
        queries = [emb.matrix[i] for i in rng.integers(0, 500, size=100)]
        sequential = [knn_search(index, q, k=10) for q in queries]
        with ThreadPoolExecutor(4) as pool:
            assert list(pool.map(lambda q: knn_search(index, q, k=10), queries)) == sequential
