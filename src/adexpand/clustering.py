"""Per-market k-means over keyword embeddings, plus elbow and k-fold
stability diagnostics.

Centroids are arithmetic means and are NOT re-normalized; every distance to a
centroid is the cosine distance to the centroid's normalized direction, which
keeps assignment consistent with the unit-vector geometry of the corpus. The
within-cluster sum of squares (WCSS) used for the elbow and the convergence
test is the plain squared Euclidean distance to the assigned mean.

All randomness (k-means++ seeding) comes from a splitmix64 stream, so a run
is reproducible from (set, cluster count, seed) alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, TextIO

import numpy as np

from .embeddings import EmbeddingSet
from .errors import (
    EmptySetError,
    NonFiniteError,
    TooManyClustersError,
    ZeroVectorError,
    parse_json,
    typed,
)
from .rng import SplitMix64

# Lloyd iterations stop after this many, or once WCSS improves by less than
# the fraction TOL
MAX_ITER = 100
TOL = 1e-6


@dataclass
class Clustering:
    """Trained partition: mean centroids plus each keyword's cluster, by row.

    ``directions`` holds the unit centroid directions, computed when the
    clustering is made and shared read-only by every assign_cluster call on
    it; a centroid with no direction raises ZeroVectorError or
    NonFiniteError there (see _normalized_rows)."""

    market: str
    cluster_count: int
    centroids: np.ndarray
    labels: np.ndarray
    wcss_history: list[float] = field(default_factory=list)
    directions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.directions = _normalized_rows(np.asarray(self.centroids, dtype=np.float64))
        self.directions.setflags(write=False)


@dataclass
class StabilityReport:
    folds: int
    assignment_consistency: float
    mean_compactness: float


def _normalized_rows(centroids: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(centroids, axis=1)
    if np.any(norms <= 1e-12):
        raise ZeroVectorError("centroid has zero norm")
    if np.any(norms == np.inf):  # it would scale the centroid to zero
        raise NonFiniteError("vector norm overflows")
    return centroids / norms[:, None]


def _assign_all(X: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine assignment of every row of the float64 matrix X to its nearest
    unit centroid direction.

    Returns (labels, distances). One matvec per centroid keeps the reduction
    order independent of BLAS threading; argmin resolves ties to the lowest
    cluster index.
    """
    dists = np.empty((directions.shape[0], X.shape[0]), dtype=np.float64)
    for j in range(directions.shape[0]):
        dists[j] = 1.0 - X @ directions[j]
    labels = np.argmin(dists, axis=0)
    return labels, dists[labels, np.arange(X.shape[0])]


def assign_cluster(clustering: Clustering, v: np.ndarray) -> tuple[int, float]:
    """Nearest centroid by cosine distance; ties go to the lowest index."""
    labels, dists = _assign_all(v[None, :].astype(np.float64), clustering.directions)
    return int(labels[0]), float(dists[0])


def _seed_centroids(X: np.ndarray, cluster_count: int, rng: SplitMix64) -> np.ndarray:
    """k-means++ style seeding of the float64 matrix X, driven by the
    splitmix64 stream.

    Selection weights are squared Euclidean distances to the nearest chosen
    center; already-chosen rows carry zero weight. When every weight is zero
    (duplicate-heavy corpora), the lowest unchosen row is taken.
    """
    n = X.shape[0]
    chosen = [rng.next_index(n)]
    # Squared Euclidean between unit vectors = 2 * cosine distance.
    best = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    while len(chosen) < cluster_count:
        total = float(best.sum())
        if total <= 0.0:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        else:
            idx = rng.weighted_index(best)
        chosen.append(idx)
        best = np.minimum(best, np.sum((X - X[idx]) ** 2, axis=1))
    return X[chosen].copy()


def _repair_empty_clusters(
    X: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Reseed each empty cluster to the point farthest from its centroid."""
    counts = np.bincount(labels, minlength=centroids.shape[0])
    for j in np.flatnonzero(counts == 0):
        _, dists = _assign_all(X, _normalized_rows(centroids[j : j + 1]))
        # Farthest point overall; skip points that are their cluster's only member.
        order = np.argsort(-dists, kind="stable")
        for p in order:
            if counts[labels[p]] > 1:
                counts[labels[p]] -= 1
                labels[p] = j
                counts[j] = 1
                break
    return labels


def _means(columns: np.ndarray, labels: np.ndarray, cluster_count: int) -> np.ndarray:
    """Per-cluster means of the float64 rows whose columns are the rows of
    ``columns`` (the transpose, made contiguous once per k-means run). Each
    column's sums are accumulated in row order, as a scatter-add would."""
    sums = np.empty((cluster_count, columns.shape[0]), dtype=np.float64)
    for c, column in enumerate(columns):
        sums[:, c] = np.bincount(labels, weights=column, minlength=cluster_count)
    counts = np.bincount(labels, minlength=cluster_count).astype(np.float64)
    counts[counts == 0.0] = 1.0
    return sums / counts[:, None]


def _wcss_of(X: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diffs = X - centroids[labels]
    diffs *= diffs
    return float(np.sum(diffs))


def kmeans(embedding_set: EmbeddingSet, cluster_count: int, seed: int) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding; cluster_count is at least 1.

    Stops when the relative WCSS improvement drops below TOL, assignments
    stop changing, or MAX_ITER is reached. The recorded wcss_history holds
    one value per iteration, measured after the means update.
    """
    n = len(embedding_set)
    if n == 0:
        raise EmptySetError("cannot cluster an empty set")
    if cluster_count > n:
        raise TooManyClustersError(f"{cluster_count} clusters for {n} points")

    X = embedding_set.matrix.astype(np.float64)
    columns = np.ascontiguousarray(X.T)
    rng = SplitMix64(seed)
    centroids = _seed_centroids(X, cluster_count, rng)

    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(MAX_ITER):
        new_labels, _ = _assign_all(X, _normalized_rows(centroids))
        new_labels = _repair_empty_clusters(X, centroids, new_labels)
        unchanged = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        centroids = _means(columns, labels, cluster_count)
        history.append(_wcss_of(X, centroids, labels))
        if unchanged:
            break
        if len(history) >= 2:
            prev, cur = history[-2], history[-1]
            if prev <= 1e-300 or (prev - cur) / prev < TOL:
                break

    clustering = Clustering(
        market=embedding_set.market,
        cluster_count=cluster_count,
        centroids=centroids,
        labels=labels,
        wcss_history=history,
    )
    # One more assignment pass so stored labels agree with assign_cluster on
    # the final centroids; kept only if it leaves no cluster empty.
    final_labels, _ = _assign_all(X, clustering.directions)
    if np.all(np.bincount(final_labels, minlength=cluster_count) > 0):
        clustering.labels = final_labels
    return clustering


def wcss(clustering: Clustering, embedding_set: EmbeddingSet) -> float:
    """Sum of squared Euclidean distances to each point's assigned mean."""
    X = embedding_set.matrix.astype(np.float64)
    return _wcss_of(X, clustering.centroids, clustering.labels)


def _subset(embedding_set: EmbeddingSet, keep: list[int]) -> EmbeddingSet:
    """The selected rows as a set of their own, renumbered 0..len(keep)-1."""
    return EmbeddingSet(
        market=embedding_set.market,
        texts=[embedding_set.texts[i] for i in keep],
        matrix=embedding_set.matrix[keep],
    )


def _fold_splits(
    embedding_set: EmbeddingSet, folds: int
) -> Iterator[tuple[list[int], EmbeddingSet]]:
    """Per fold of a round-robin split over ids (row i is in fold i % folds):
    the fold's rows, and every other row as a set of its own (see _subset)."""
    n = len(embedding_set)
    for f in range(folds):
        held_in = [i for i in range(n) if i % folds != f]
        yield [i for i in range(n) if i % folds == f], _subset(embedding_set, held_in)


def elbow_sweep(
    embedding_set: EmbeddingSet, k_list: list[int], seed: int, folds: int
) -> list[tuple[int, float]]:
    """Mean held-in WCSS per candidate cluster count, for the elbow plot.

    With folds=1 the whole set is trained on once and the value equals the
    plain WCSS of that clustering. The folds are the outer loop, so one
    held-in set is alive while k-means runs; each count still gets its
    values in fold order.
    """
    splits = _fold_splits(embedding_set, folds) if folds > 1 else [([], embedding_set)]
    values: list[list[float]] = [[] for _ in k_list]
    for _, sub in splits:
        for m, row in zip(k_list, values):
            row.append(wcss(kmeans(sub, m, seed), sub))
    return [(m, float(np.mean(row))) for m, row in zip(k_list, values)]


def _pairs_within(counts: np.ndarray) -> int:
    """Point pairs that share a group, given each group's size."""
    return int(np.sum(counts * (counts - 1) // 2))


def _co_assignment_agreement(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of point pairs whose co-assignment (same cluster or not)
    agrees between two labelings: the Rand index.

    Counted from the contingency table (Hubert & Arabie, 1985) in exact
    integers, so it has the bits of the mean over all n*(n-1)/2 pairs.
    """
    pairs = len(a) * (len(a) - 1) // 2
    same_a = _pairs_within(np.bincount(a))
    same_b = _pairs_within(np.bincount(b))
    same_both = _pairs_within(np.bincount(a * (int(b.max()) + 1) + b))
    return (pairs - same_a - same_b + 2 * same_both) / pairs


def kfold_stability(
    embedding_set: EmbeddingSet,
    cluster_count: int,
    folds: int,
    seed: int,
) -> StabilityReport:
    """Cross-fold agreement of the induced partitions, over at least 2 folds.

    Each fold trains on its held-in points and labels the full corpus by
    nearest centroid. Consistency is the average, over fold pairs, of the
    fraction of point pairs whose co-assignment relation (same cluster or
    not) agrees between the two labelings; compactness is the mean cosine
    distance of held-out points to their assigned centroid direction.
    """
    X = embedding_set.matrix.astype(np.float64)
    labelings: list[np.ndarray] = []
    compactness: list[float] = []
    for held_out, held_in in _fold_splits(embedding_set, folds):
        model = kmeans(held_in, cluster_count, seed)
        labels, dists = _assign_all(X, model.directions)
        labelings.append(labels)
        compactness.append(float(np.mean(dists[held_out])) if held_out else 0.0)

    agreements = [
        _co_assignment_agreement(labelings[f], labelings[g])
        for f in range(folds)
        for g in range(f + 1, folds)
    ]
    return StabilityReport(
        folds=folds,
        assignment_consistency=float(np.mean(agreements)),
        mean_compactness=float(np.mean(compactness)),
    )


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def save_clustering(clustering: Clustering, path: str) -> None:
    doc = {
        "market": clustering.market,
        "M": clustering.cluster_count,
        "dim": clustering.centroids.shape[1],
        "centroids": [[_round9(float(x)) for x in row] for row in clustering.centroids],
        "assignments": {str(i): label for i, label in enumerate(clustering.labels.tolist())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_clustering(path: str, fh: TextIO | None = None) -> Clustering:
    return parse_json(path, "clustering", _clustering_from_doc, fh)


def _clustering_from_doc(doc: dict) -> Clustering:
    shape = (typed(doc, "M", int), typed(doc, "dim", int))
    centroids = np.array(typed(doc, "centroids", list[list[float]]), dtype=np.float64)
    if centroids.shape != shape:  # np.array refuses ragged rows
        raise ValueError(f"'centroids' must be 'M' by 'dim', {shape}, got {centroids.shape}")
    assignments = typed(doc, "assignments", dict)
    # a row is ASCII digits: int() would also take " +0", "0_1" or "٢"
    rows = [int(k) if k.isascii() and k.isdigit() else -1 for k in assignments]
    if sorted(rows) != list(range(len(rows))):  # "1" and "01" are one row
        raise ValueError("'assignments' must name the rows 0, 1, 2, ... once each,"
                         " in ASCII digits")
    labels = np.empty(len(rows), dtype=np.int64)
    labels[rows] = [typed(assignments, k, int) for k in assignments]
    if not np.all((labels >= 0) & (labels < shape[0])):
        raise ValueError(f"'assignments' must be in 0..M-1, got {labels.min()}..{labels.max()}")
    market = typed(doc, "market", str)
    try:  # the directions are computed here, at load
        return Clustering(market=market, cluster_count=shape[0], centroids=centroids,
                          labels=labels)
    except (ZeroVectorError, NonFiniteError) as exc:
        raise ValueError(f"'centroids': {exc}") from None
