"""k-means training, diagnostics, and persistence."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand import clustering as clustering_mod
from adexpand.clustering import (
    Clustering,
    assign_cluster,
    elbow_sweep,
    kfold_stability,
    kmeans,
    load_clustering,
    save_clustering,
    wcss,
)
from adexpand.embeddings import EmbeddingSet, cosine_similarity, normalize
from adexpand.errors import TooManyClustersError


def two_group_set(rng, per_group=50, dim=16, sigma=0.02, market="US"):
    """Two tight groups around orthogonal unit centers."""
    centers = [np.eye(dim)[0], np.eye(dim)[1]]
    pairs = []
    for g, center in enumerate(centers):
        for i in range(per_group):
            pairs.append((f"g{g}-{i}", center + rng.normal(scale=sigma, size=dim)))
    return EmbeddingSet.from_pairs(market, pairs)


def random_unit_set(rng, n, dim, market="US"):
    return EmbeddingSet.from_pairs(market, [(f"kw-{i}", rng.normal(size=dim)) for i in range(n)])


class TestKmeans:
    def test_recovers_two_separated_groups(self):
        rng = np.random.default_rng(42)
        emb = two_group_set(rng)
        model = kmeans(emb, 2, seed=5)
        # Direct group means, computed independently of the trainer.
        group_means = [
            emb.matrix[:50].astype(np.float64).mean(axis=0),
            emb.matrix[50:].astype(np.float64).mean(axis=0),
        ]
        matched = set()
        for mean in group_means:
            dists = [float(np.linalg.norm(c - mean)) for c in model.centroids]
            best = int(np.argmin(dists))
            assert dists[best] < 0.05
            matched.add(best)
        assert matched == {0, 1}
        first_group = set(model.labels[:50].tolist())
        second_group = set(model.labels[50:].tolist())
        assert len(first_group) == 1 and len(second_group) == 1
        assert first_group != second_group

    def test_every_point_its_own_cluster(self):
        rng = np.random.default_rng(1)
        emb = random_unit_set(rng, 8, 8)
        model = kmeans(emb, 8, seed=3)
        assert sorted(model.labels.tolist()) == list(range(8))
        assert wcss(model, emb) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_is_global_mean(self):
        rng = np.random.default_rng(2)
        emb = random_unit_set(rng, 40, 8)
        model = kmeans(emb, 1, seed=0)
        np.testing.assert_allclose(
            model.centroids[0], emb.matrix.astype(np.float64).mean(axis=0), atol=1e-6
        )

    def test_too_many_clusters(self):
        rng = np.random.default_rng(3)
        emb = random_unit_set(rng, 5, 8)
        with pytest.raises(TooManyClustersError):
            kmeans(emb, 6, seed=0)

    def test_wcss_history_non_increasing(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            emb = random_unit_set(rng, 200, 8)
            model = kmeans(emb, 8, seed=seed)
            history = model.wcss_history
            assert history, "training must record at least one iteration"
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        emb = random_unit_set(rng, 120, 8)
        a = kmeans(emb, 6, seed=11)
        b = kmeans(emb, 6, seed=11)
        assert a.labels.tolist() == b.labels.tolist()
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_training_assignment_matches_assign_cluster(self):
        rng = np.random.default_rng(5)
        emb = two_group_set(rng, per_group=30)
        model = kmeans(emb, 2, seed=9)
        for row, vector in enumerate(emb.matrix):
            cluster, _ = assign_cluster(model, vector)
            assert cluster == model.labels[row]

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(6)
        emb = random_unit_set(rng, 60, 8)
        model = kmeans(emb, 12, seed=2)
        sizes = np.bincount(model.labels, minlength=12)
        assert all(size > 0 for size in sizes)


def centroids_only(centroids):
    """A clustering of the given centroids, with no keyword assigned."""
    return Clustering(market="US", cluster_count=len(centroids), centroids=centroids,
                      labels=np.zeros(0, dtype=np.int64))


class TestAssignCluster:
    def test_centroid_direction_is_its_cluster(self):
        clustering = centroids_only(np.array([[2.0, 0.0], [0.0, 0.5]]))
        cluster, distance = assign_cluster(clustering, np.array([0.0, 1.0], dtype=np.float32))
        assert cluster == 1
        assert distance == pytest.approx(0.0, abs=1e-9)

    def test_tie_goes_to_lowest_index(self):
        clustering = centroids_only(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        cluster, _ = assign_cluster(clustering, np.array([1.0, 0.0], dtype=np.float32))
        assert cluster == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(7)
        centroids = rng.normal(size=(10, 8))
        for _ in range(50):
            v = normalize(rng.normal(size=8))
            got_cluster, got_distance = assign_cluster(centroids_only(centroids), v)
            expected = min(
                (1.0 - cosine_similarity(v, normalize(c)), j) for j, c in enumerate(centroids)
            )
            assert got_cluster == expected[1]
            # oracle normalizes centroids in float32; distances agree to ~1e-7
            assert got_distance == pytest.approx(expected[0], abs=1e-6)


class TestWcss:
    def test_zero_when_points_equal_centroids(self):
        emb = EmbeddingSet.from_pairs("US", [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        model = Clustering(
            market="US",
            cluster_count=2,
            centroids=emb.matrix.astype(np.float64),
            labels=np.array([0, 1]),
        )
        assert wcss(model, emb) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_two_points(self):
        # Antipodal unit vectors, centroid at the midpoint (origin): 1 + 1.
        emb = EmbeddingSet.from_pairs("US", [("a", [1.0, 0.0]), ("b", [-1.0, 0.0])])
        model = Clustering(
            market="US",
            cluster_count=1,
            centroids=np.zeros((1, 2)),
            labels=np.array([0, 0]),
        )
        assert wcss(model, emb) == pytest.approx(2.0, abs=1e-9)

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(8)
        emb = random_unit_set(rng, 80, 8)
        model = kmeans(emb, 5, seed=1)
        naive = 0.0
        for row, vector in enumerate(emb.matrix):
            diff = vector.astype(np.float64) - model.centroids[model.labels[row]]
            naive += float(diff @ diff)
        assert wcss(model, emb) == pytest.approx(naive, abs=1e-5)



class TestElbowSweep:
    def test_single_k_single_fold_equals_plain_wcss(self):
        rng = np.random.default_rng(9)
        emb = random_unit_set(rng, 50, 8)
        rows = elbow_sweep(emb, [1], seed=4, folds=1)
        assert len(rows) == 1
        model = kmeans(emb, 1, seed=4)
        assert rows[0] == (1, pytest.approx(wcss(model, emb), abs=1e-9))

    def test_wcss_decreases_with_more_clusters(self):
        rng = np.random.default_rng(10)
        emb = two_group_set(rng, per_group=40)
        rows = elbow_sweep(emb, [1, 2, 4], seed=4, folds=3)
        values = [value for _, value in rows]
        assert values[0] > values[1] > values[2]

    def test_rows_ordered_by_cluster_count(self):
        rng = np.random.default_rng(11)
        emb = random_unit_set(rng, 30, 8)
        rows = elbow_sweep(emb, [1, 2, 3], seed=4, folds=2)
        assert [m for m, _ in rows] == [1, 2, 3]

    def test_one_held_in_set_alive_at_a_time(self, monkeypatch):
        """The folds are the outer loop: each k-means runs while exactly one
        held-in set is alive, and each count's mean has the bits of the mean
        over its folds in fold order."""
        emb = random_unit_set(np.random.default_rng(12), 40, 8)
        k_list, folds = [1, 2, 2, 3], 5
        want = [
            (m, float(np.mean([wcss(kmeans(sub, m, 4), sub)
                               for _, sub in clustering_mod._fold_splits(emb, folds)])))
            for m in k_list
        ]
        made = []  # a weak reference to each held-in set
        subset, fit = clustering_mod._subset, clustering_mod.kmeans
        alive_at_fit = []

        def tracked_subset(*args):
            held_in = subset(*args)
            made.append(weakref.ref(held_in))
            return held_in

        def counted_kmeans(*args):
            alive_at_fit.append(sum(ref() is not None for ref in made))
            return fit(*args)

        monkeypatch.setattr(clustering_mod, "_subset", tracked_subset)
        monkeypatch.setattr(clustering_mod, "kmeans", counted_kmeans)
        assert elbow_sweep(emb, k_list, seed=4, folds=folds) == want
        assert alive_at_fit == [1] * (folds * len(k_list))


def _pairwise_agreement(a, b):
    """The n x n co-assignment comparison over every pair i < j."""
    triu = np.triu_indices(len(a), k=1)
    same_a = (a[:, None] == a[None, :])[triu]
    same_b = (b[:, None] == b[None, :])[triu]
    return float(np.mean(same_a == same_b))


class TestKfoldStability:
    def test_duplicated_corpus_fully_consistent(self):
        rng = np.random.default_rng(12)
        base = two_group_set(rng, per_group=20)
        pairs = []
        for text, vec in zip(base.texts, base.matrix):
            pairs.append((f"{text}-a", vec))
            pairs.append((f"{text}-b", vec))
        doubled = EmbeddingSet.from_pairs("US", pairs)
        for folds in (2, 5):
            report = kfold_stability(doubled, 2, folds=folds, seed=6)
            assert report.assignment_consistency == pytest.approx(1.0, abs=1e-12)

    def test_separated_groups_are_stable(self):
        rng = np.random.default_rng(13)
        emb = two_group_set(rng, per_group=50)
        report = kfold_stability(emb, 2, folds=5, seed=6)
        assert report.assignment_consistency >= 0.95
        assert report.mean_compactness < 0.05

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pair_count_equals_pairwise_mean(self, data):
        n = data.draw(st.integers(2, 80), label="n")
        labels = st.lists(st.integers(0, 6), min_size=n, max_size=n)
        a = np.array(data.draw(labels, label="a"), dtype=np.int64)
        b = np.array(data.draw(labels, label="b"), dtype=np.int64)
        got = clustering_mod._co_assignment_agreement(a, b)
        assert got == _pairwise_agreement(a, b)  # same bits, not approx
        assert got == clustering_mod._co_assignment_agreement(b, a)

    def test_report_equals_pairwise_reference(self, monkeypatch):
        emb = random_unit_set(np.random.default_rng(16), 90, 8)
        report = kfold_stability(emb, 4, folds=4, seed=3)
        monkeypatch.setattr(clustering_mod, "_co_assignment_agreement", _pairwise_agreement)
        assert kfold_stability(emb, 4, folds=4, seed=3) == report


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        emb = random_unit_set(rng, 40, 8)
        model = kmeans(emb, 4, seed=2)
        path = str(tmp_path / "clustering.json")
        save_clustering(model, path)
        loaded = load_clustering(path)
        assert loaded.market == model.market
        assert loaded.cluster_count == model.cluster_count
        assert loaded.labels.tolist() == model.labels.tolist()
        np.testing.assert_allclose(loaded.centroids, model.centroids, atol=1e-6)
