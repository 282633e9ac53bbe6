"""TPR sweeps, threshold-distribution reports, relevance delta reports."""

import csv

import numpy as np
import pytest

from adexpand.clustering import Clustering, kmeans
from adexpand.embeddings import EmbeddingSet, normalize
from adexpand.errors import NoPositivePairsError
from adexpand.relevance import as_stacked, train_adjustment, train_base
from adexpand.reports import (
    LabeledPair,
    load_label_set,
    relevance_report,
    threshold_report,
    tpr_sweep,
    write_relevance_report,
    write_threshold_report_csv,
    write_tpr_csv,
)
from adexpand.thresholds import ThresholdRow, ThresholdTable, build_threshold_table


def _axis(i, dim=8):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def sweep_corpus():
    """Tight labeled pairs plus far-flung members that inflate the cutoff."""
    dim = 8
    pairs = [
        ("led garden lights", _axis(0, dim)),
        ("outdoor led lights", normalize(_axis(0, dim) + 0.02 * _axis(1, dim))),
        ("garden lighting", normalize(_axis(0, dim) + 0.03 * _axis(2, dim))),
        ("mens shoes", _axis(3, dim)),
        ("womens sandals", normalize(_axis(3, dim) + 0.02 * _axis(4, dim))),
        # spread keywords dominate the intra-cluster distance distribution
        ("far keyword one", _axis(5, dim)),
        ("far keyword two", _axis(6, dim)),
        ("far keyword three", _axis(7, dim)),
        ("far keyword four", normalize(_axis(5, dim) + _axis(6, dim))),
        ("far keyword five", normalize(_axis(6, dim) + _axis(7, dim))),
    ]
    emb = EmbeddingSet.from_pairs("US", pairs)
    clustering = Clustering(
        market="US",
        cluster_count=1,
        centroids=np.ones((1, dim)) / np.sqrt(dim),
        labels=np.zeros(len(emb), dtype=np.int64),
    )
    return emb, clustering


P_GRID = [0.95, 0.99, 0.9999, 0.999999]


class TestTprSweep:
    def test_all_positive_labels_tpr_one(self):
        emb, clustering = sweep_corpus()
        labels = [
            LabeledPair("led garden lights", "outdoor led lights", 1),
            LabeledPair("led garden lights", "garden lighting", 1),
            LabeledPair("mens shoes", "womens sandals", 1),
        ]
        rows = tpr_sweep(emb, clustering, labels, P_GRID, k_neighbors=5,
                         min_cluster_size=0)
        for row in rows:
            assert row.tpr_raw == 1.0
            # the gender filter removes a positive pair here, so only the raw
            # rate is guaranteed to be 1.0
            assert row.tpr_raw >= row.tpr_filtered

    def test_reference_row_normalized_to_100(self):
        emb, clustering = sweep_corpus()
        labels = [
            LabeledPair("led garden lights", "outdoor led lights", 1),
            LabeledPair("led garden lights", "garden lighting", 1),
        ]
        rows = tpr_sweep(emb, clustering, labels, P_GRID, k_neighbors=5,
                         min_cluster_size=0)
        reference = [r for r in rows if r.p == max(P_GRID)]
        assert reference[0].tpr_normalized == 100.0
        assert sum(1 for r in rows if r.tpr_normalized == 100.0) >= 1

    def test_filters_remove_only_negatives(self):
        emb, clustering = sweep_corpus()
        labels = [
            LabeledPair("led garden lights", "outdoor led lights", 1),
            LabeledPair("led garden lights", "garden lighting", 1),
            LabeledPair("mens shoes", "womens sandals", 0),
        ]
        rows = tpr_sweep(emb, clustering, labels, P_GRID, k_neighbors=5,
                         min_cluster_size=0)
        for row in rows:
            assert row.tpr_filtered >= row.tpr_raw - 1e-12
            assert row.tpr_filtered == row.tpr_raw  # no positive is filtered

    def test_monotone_in_p(self):
        emb, clustering = sweep_corpus()
        labels = [
            LabeledPair("led garden lights", "outdoor led lights", 1),
            LabeledPair("led garden lights", "garden lighting", 1),
            LabeledPair("led garden lights", "far keyword one", 1),
        ]
        rows = tpr_sweep(emb, clustering, labels, P_GRID, k_neighbors=9,
                         min_cluster_size=0)
        raw = [row.tpr_raw for row in rows]
        assert raw == sorted(raw)

    def test_no_positive_pairs_rejected(self):
        emb, clustering = sweep_corpus()
        labels = [LabeledPair("mens shoes", "womens sandals", 0)]
        with pytest.raises(NoPositivePairsError):
            tpr_sweep(emb, clustering, labels, P_GRID, k_neighbors=5, min_cluster_size=0)

    def test_csv_output(self, tmp_path):
        emb, clustering = sweep_corpus()
        labels = [LabeledPair("led garden lights", "outdoor led lights", 1)]
        rows = tpr_sweep(emb, clustering, labels, P_GRID, k_neighbors=5,
                         min_cluster_size=0)
        path = tmp_path / "tpr.csv"
        write_tpr_csv(rows, str(path))
        content = path.read_text(encoding="utf-8").splitlines()
        assert content[0].startswith("#")  # denominator note
        assert content[1] == "p,tpr_raw,tpr_filtered,tpr_normalized"
        assert len(content) == 2 + len(P_GRID)

    def test_label_file_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text(
            "# origin\tvariant\tlabel\n"
            "led garden lights\toutdoor led lights\t1\n"
            "mens shoes\twomens sandals\t0\n",
            encoding="utf-8",
        )
        labels = load_label_set(str(path))
        assert labels == [
            LabeledPair("led garden lights", "outdoor led lights", 1),
            LabeledPair("mens shoes", "womens sandals", 0),
        ]


class TestThresholdReport:
    def _uniform_table(self, tau):
        return ThresholdTable(
            market="US", p=0.99, min_cluster_size=0, fallback_tau=tau,
            rows={
                i: ThresholdRow(size=10 + i, tau_distance=tau, tau_similarity=1 - tau,
                                fallback=False)
                for i in range(6)
            },
        )

    def test_constant_taus_single_bin_zero_variance(self):
        report = threshold_report(self._uniform_table(0.05))
        assert report.variance_similarity == 0.0
        assert sum(1 for c in report.counts if c > 0) == 1
        assert report.pearson_r is None  # constant threshold: degenerate

    def test_matches_independent_summary_stats(self):
        rng = np.random.default_rng(30)
        emb = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(60)]
        )
        clustering = kmeans(emb, 5, seed=3)
        table = build_threshold_table(clustering, emb, 0.99, min_cluster_size=0)
        report = threshold_report(table)
        sims = [row.tau_similarity for row in table.rows.values()]
        assert report.mean_similarity == pytest.approx(float(np.mean(sims)), abs=1e-9)
        assert report.variance_similarity == pytest.approx(float(np.var(sims)), abs=1e-9)
        assert sum(report.counts) == len(sims)
        assert len(report.counts) == 20
        # the bins np.histogram gives the cutoffs on its own
        counts, edges = np.histogram(sims, bins=20)
        assert (report.counts, report.bin_edges) == (counts.tolist(), edges.tolist())

    def test_cutoffs_ulps_apart_are_binned(self):
        """np.histogram cannot part them into 20 bins; they get the range
        it gives equal cutoffs, widened by 0.5 each way."""
        sims = [0.42] * 5 + [float(np.nextafter(0.42, 1))]
        table = ThresholdTable(market="US", p=0.99, min_cluster_size=0, fallback_tau=0.58, rows={
            i: ThresholdRow(size=10 + i, tau_distance=1 - sim, tau_similarity=sim, fallback=False)
            for i, sim in enumerate(sims)
        })
        report = threshold_report(table)
        assert sum(report.counts) == 6
        assert report.bin_edges[0] == -0.08000000000000002
        assert report.bin_edges[-1] == 0.92

    def test_csv_contains_degenerate_marker(self, tmp_path):
        path = tmp_path / "report.csv"
        write_threshold_report_csv(threshold_report(self._uniform_table(0.1)), str(path))
        assert "degenerate" in path.read_text(encoding="utf-8")


def shift_fixture(rng, n):
    """Features predict the grade; new inventory shifts grades <= 2 down 0.5."""
    x0 = rng.uniform(size=n)
    grade = np.clip(1 + np.floor(5 * x0), 1, 5)
    noise = 0.1 * rng.normal(size=n)
    clean = grade + noise
    shifted = clean - 0.5 * (grade <= 2)
    X = np.column_stack([x0, rng.normal(size=n)])
    return X, clean, shifted, grade


class TestRelevanceReport:
    def test_identity_stacking_zero_deltas(self):
        rng = np.random.default_rng(31)
        X, clean, _, _ = shift_fixture(rng, 400)
        base = train_base(X, clean, tree_count=20)
        report = relevance_report(base, as_stacked(base), X, clean)
        for row in report.rows:
            assert row.delta_pct == 0.0
        assert report.overall_delta_pct == 0.0

    def test_shift_fixture_improves_low_grades(self):
        rng = np.random.default_rng(32)
        X_train, clean_train, _, _ = shift_fixture(rng, 2000)
        base = train_base(X_train, clean_train, tree_count=30)
        X_new, _, shifted_new, _ = shift_fixture(rng, 1000)
        stacked = train_adjustment(base, X_new, shifted_new, adjustment_trees=2,
                                   max_depth=5, min_leaf=50)
        X_hold, _, shifted_hold, _ = shift_fixture(rng, 1000)
        report = relevance_report(base, stacked, X_hold, shifted_hold)
        improved = {row.grade: row.delta_pct for row in report.rows}
        assert improved[1] < 0
        assert improved[2] < 0

    def test_row_count_equals_distinct_grades(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(100, 2))
        y = np.repeat([1.0, 3.0, 5.0], 34)[:100]
        base = train_base(X, y, tree_count=3)
        report = relevance_report(base, as_stacked(base), X, y)
        assert [row.grade for row in report.rows] == [1, 3, 5]

    def test_report_files(self, tmp_path):
        rng = np.random.default_rng(34)
        X, clean, _, _ = shift_fixture(rng, 300)
        base = train_base(X, clean, tree_count=5)
        report = relevance_report(base, as_stacked(base), X, clean)
        csv_path = tmp_path / "rel.csv"
        json_path = tmp_path / "rel.json"
        write_relevance_report(report, str(csv_path), str(json_path))
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grade", "rmse_base", "rmse_stacked", "delta_pct"]
        assert rows[-1][0] == "overall"
        assert json_path.exists()
