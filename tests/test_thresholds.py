"""Quantile computation and the per-cluster threshold table."""

import math

import numpy as np
import pytest

from adexpand.clustering import Clustering, kmeans
from adexpand.embeddings import EmbeddingSet
from adexpand.errors import DegenerateInputError, EmptyInputError
from adexpand.thresholds import (
    ThresholdRow,
    ThresholdTable,
    build_threshold_table,
    intra_cluster_distances,
    load_threshold_table,
    quantile,
    save_threshold_table,
    threshold_size_correlation,
)


class TestQuantile:
    def test_median(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_interpolation_rule(self):
        assert quantile([0.0, 1.0], 0.75) == 0.75

    def test_p_one_returns_max(self):
        assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_matches_numpy_linear_method(self):
        rng = np.random.default_rng(42)
        values = rng.normal(size=1000)
        for p in (0.001, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0):
            expected = float(np.quantile(values, p, method="linear"))
            assert quantile(values, p) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=200)
        ps = sorted(rng.uniform(1e-9, 1.0, size=50))
        results = [quantile(values, p) for p in ps]
        assert results == sorted(results)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=100)
        for p in (0.01, 0.5, 0.999):
            q = quantile(values, p)
            assert float(values.min()) <= q <= float(values.max())

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            quantile([], 0.5)


def _single_cluster_fixture():
    """Two points at cosine distances 0 and 0.1 from the centroid direction."""
    b = [0.9, math.sqrt(1 - 0.81)]
    emb = EmbeddingSet.from_pairs("US", [("a", [1.0, 0.0]), ("b", b)])
    model = Clustering(
        market="US",
        cluster_count=1,
        centroids=np.array([[1.0, 0.0]]),
        labels=np.array([0, 0]),
    )
    return emb, model


class TestIntraClusterDistances:
    def test_singleton_on_centroid_direction(self):
        emb = EmbeddingSet.from_pairs("US", [("a", [2.0, 0.0])])
        model = Clustering(
            market="US", cluster_count=1, centroids=np.array([[0.5, 0.0]]), labels=np.array([0])
        )
        distances = intra_cluster_distances(model, emb)
        assert distances[0] == pytest.approx([0.0], abs=1e-7)

    def test_identical_points_all_zero(self):
        emb = EmbeddingSet.from_pairs(
            "US", [("a", [0.0, 1.0]), ("b", [0.0, 2.0]), ("c", [0.0, 3.0])]
        )
        model = Clustering(
            market="US",
            cluster_count=1,
            centroids=np.array([[0.0, 1.0]]),
            labels=np.array([0, 0, 0]),
        )
        np.testing.assert_allclose(intra_cluster_distances(model, emb)[0], 0.0, atol=1e-7)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(3)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(60)]
        )
        model = kmeans(emb, 4, seed=9)
        distances = intra_cluster_distances(model, emb)
        for m in range(4):
            member_rows = [row for row in range(len(emb)) if model.labels[row] == m]
            direction = model.centroids[m] / np.linalg.norm(model.centroids[m])
            naive = [1.0 - float(emb.matrix[row].astype(np.float64) @ direction)
                     for row in member_rows]
            np.testing.assert_allclose(distances[m], naive, atol=1e-6)


class TestBuildThresholdTable:
    def test_max_quantile_on_two_point_cluster(self):
        emb, model = _single_cluster_fixture()
        table = build_threshold_table(model, emb, p=1.0, min_cluster_size=0)
        assert table.rows[0].tau_distance == pytest.approx(0.1, abs=1e-6)
        assert table.rows[0].tau_similarity == pytest.approx(0.9, abs=1e-6)

    def test_small_cluster_uses_fallback(self):
        rng = np.random.default_rng(4)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(30)]
        )
        model = kmeans(emb, 6, seed=1)
        table = build_threshold_table(model, emb, p=0.9, min_cluster_size=10)
        assert len(table.rows) == 6
        for m, row in table.rows.items():
            if row.size < 10:
                assert row.fallback
                assert row.tau_distance == table.fallback_tau
            else:
                assert not row.fallback

    def test_no_fallback_reproduces_raw_quantiles(self):
        rng = np.random.default_rng(5)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(40)]
        )
        model = kmeans(emb, 5, seed=2)
        distances = intra_cluster_distances(model, emb)
        table = build_threshold_table(model, emb, p=0.8, min_cluster_size=0)
        for m in range(5):
            assert table.rows[m].tau_distance == pytest.approx(
                quantile(distances[m], 0.8), abs=1e-12
            )
            assert not table.rows[m].fallback

    def test_tau_monotone_in_p(self):
        rng = np.random.default_rng(6)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(60)]
        )
        model = kmeans(emb, 4, seed=3)
        previous = None
        for p in (0.5, 0.9, 0.99, 0.9999, 1.0):
            table = build_threshold_table(model, emb, p, min_cluster_size=0)
            if previous is not None:
                for m in range(4):
                    assert previous.rows[m].tau_distance <= table.rows[m].tau_distance + 1e-12
            previous = table

    def test_totality_and_bounds(self):
        rng = np.random.default_rng(7)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(50)]
        )
        model = kmeans(emb, 7, seed=4)
        table = build_threshold_table(model, emb, p=0.999999, min_cluster_size=10)
        assert set(table.rows) == set(range(7))
        for row in table.rows.values():
            assert math.isfinite(row.tau_distance)
            assert 0.0 <= row.tau_distance <= 2.0


class TestThresholdSizeCorrelation:
    @staticmethod
    def _table(rows):
        return ThresholdTable(
            market="US",
            p=0.99,
            min_cluster_size=0,
            fallback_tau=0.1,
            rows={
                i: ThresholdRow(size=s, tau_distance=t, tau_similarity=1 - t, fallback=False)
                for i, (s, t) in enumerate(rows)
            },
        )

    def test_perfectly_linear(self):
        table = self._table([(10, 0.1), (20, 0.2), (30, 0.3)])
        assert threshold_size_correlation(table) == pytest.approx(1.0, abs=1e-12)

    # two rows lie on a line, so r is exactly 1 or -1, also for cutoffs a
    # few ulps apart or so small that their centred squares underflow
    @pytest.mark.parametrize("low, high", [
        (0.42, math.nextafter(0.42, 1)),
        (1e-200, 3e-200),
        (1e-300, 2e-300),
        (0.0, 5e-324),
    ])
    def test_two_rows_give_exactly_one(self, low, high):
        assert threshold_size_correlation(self._table([(3, low), (4, high)])) == 1.0
        assert threshold_size_correlation(self._table([(3, high), (4, low)])) == -1.0

    def test_constant_threshold_degenerate(self):
        table = self._table([(10, 0.2), (20, 0.2), (30, 0.2)])
        with pytest.raises(DegenerateInputError):
            threshold_size_correlation(table)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(8)
        rows = [(int(s), float(t)) for s, t in
                zip(rng.integers(1, 100, size=30), rng.uniform(0, 0.5, size=30))]
        table = self._table(rows)
        expected = float(np.corrcoef([s for s, _ in rows], [t for _, t in rows])[0, 1])
        assert threshold_size_correlation(table) == pytest.approx(expected, abs=1e-9)


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(30)]
        )
        model = kmeans(emb, 3, seed=5)
        table = build_threshold_table(model, emb, p=0.95, min_cluster_size=5)
        path = str(tmp_path / "thresholds.jsonl")
        save_threshold_table(table, path)
        loaded = load_threshold_table(path)
        assert loaded.p == table.p
        assert loaded.min_cluster_size == table.min_cluster_size
        assert loaded.fallback_tau == table.fallback_tau
        assert loaded.rows == table.rows
