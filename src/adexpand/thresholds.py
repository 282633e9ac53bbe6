"""Per-cluster quantile distance cutoffs with a pooled small-cluster fallback.

Each cluster's cutoff is the p-th quantile of its member-to-centroid cosine
distances. Extreme quantiles are meaningless on tiny clusters, so clusters
below min_cluster_size borrow the quantile of the pooled distance
distribution instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .clustering import Clustering
from .embeddings import EmbeddingSet
from .errors import (
    MALFORMED,
    DegenerateInputError,
    EmptyInputError,
    ParseError,
    malformed,
    reading,
    typed,
)


def quantile(values, p: float) -> float:
    """Linear interpolation between order statistics.

    With sorted v[0..n-1] and h = p*(n-1), returns
    v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]);
    p=1 returns the maximum. The CLI checks that p is in (0, 1].
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise EmptyInputError("quantile of empty input")
    v = np.sort(v)
    h = p * (v.size - 1)
    lo = int(np.floor(h))
    if lo >= v.size - 1:
        return float(v[-1])
    frac = h - lo
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


def intra_cluster_distances(
    clustering: Clustering, embedding_set: EmbeddingSet
) -> dict[int, list[float]]:
    """Member-to-centroid cosine distances per cluster, in ascending-id order."""
    rows = embedding_set.matrix.astype(np.float64)
    dists = 1.0 - np.sum(rows * clustering.directions[clustering.labels], axis=1)
    out: dict[int, list[float]] = {m: [] for m in range(clustering.cluster_count)}
    for label, dist in zip(clustering.labels.tolist(), dists.tolist()):
        out[label].append(dist)
    return out


@dataclass
class ThresholdRow:
    size: int
    tau_distance: float
    tau_similarity: float
    fallback: bool


@dataclass
class ThresholdTable:
    market: str
    p: float
    min_cluster_size: int
    fallback_tau: float
    rows: dict[int, ThresholdRow]


def build_threshold_table(
    clustering: Clustering,
    embedding_set: EmbeddingSet,
    p: float,
    min_cluster_size: int,
) -> ThresholdTable:
    """Quantile cutoff per cluster; small clusters take the pooled quantile."""
    distances = intra_cluster_distances(clustering, embedding_set)
    pooled: list[float] = []
    for m in range(clustering.cluster_count):
        pooled.extend(distances[m])
    fallback_tau = quantile(pooled, p)
    rows: dict[int, ThresholdRow] = {}
    for m in range(clustering.cluster_count):
        d_m = distances[m]
        use_fallback = len(d_m) < min_cluster_size
        tau = fallback_tau if use_fallback else quantile(d_m, p)
        rows[m] = ThresholdRow(
            size=len(d_m),
            tau_distance=tau,
            tau_similarity=1.0 - tau,
            fallback=use_fallback,
        )
    return ThresholdTable(
        market=clustering.market,
        p=p,
        min_cluster_size=min_cluster_size,
        fallback_tau=fallback_tau,
        rows=rows,
    )


def _centred(values: np.ndarray) -> np.ndarray:
    """Values that are not all equal, centred on their mean after scaling
    onto [0, 1]: the difference of two nearby floats is exact, so values a
    few ulps apart keep their order, and tiny ones do not square to zero."""
    shifted = values - values.min()
    scaled = shifted / shifted.max()
    return scaled - scaled.mean()


def threshold_size_correlation(table: ThresholdTable) -> float:
    """Pearson correlation between cluster size and distance cutoff.

    Diagnostic only; raises DegenerateInputError when either coordinate has
    zero variance.
    """
    if len(table.rows) < 2:
        raise DegenerateInputError("need at least 2 rows for a correlation")
    sizes = np.array([r.size for r in table.rows.values()], dtype=np.float64)
    taus = np.array([r.tau_distance for r in table.rows.values()], dtype=np.float64)
    if np.ptp(sizes) == 0.0 or np.ptp(taus) == 0.0:
        raise DegenerateInputError("zero variance in sizes or thresholds")
    sx = _centred(sizes)
    sy = _centred(taus)
    vx = float(np.sum(sx * sx))
    vy = float(np.sum(sy * sy))
    return float(np.sum(sx * sy) / np.sqrt(vx * vy))


def save_threshold_table(table: ThresholdTable, path: str) -> None:
    """JSON-lines: one header object, then one row object per cluster."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "p": table.p,
            "min_cluster_size": table.min_cluster_size,
            "fallback_tau": table.fallback_tau,
        }
        fh.write(json.dumps(header, separators=(",", ":"), sort_keys=True) + "\n")
        for m in sorted(table.rows):
            row = table.rows[m]
            doc = {
                "market": table.market,
                "cluster_id": m,
                "size": row.size,
                "tau_distance": row.tau_distance,
                "tau_similarity": row.tau_similarity,
                "fallback": row.fallback,
            }
            fh.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")


def load_threshold_table(path: str, fh: TextIO | None = None) -> ThresholdTable:
    with reading(path, fh) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty, expected a header line")
    try:
        header = json.loads(lines[0])
        rows: dict[int, ThresholdRow] = {}
        market = ""
        for line in lines[1:]:
            doc = json.loads(line)
            first, market = market, typed(doc, "market", str)
            if rows and market != first:
                raise ValueError(f"a row of market {market!r} after rows of {first!r}")
            cluster = typed(doc, "cluster_id", int)
            if cluster in rows:
                raise ValueError(f"cluster {cluster} has two rows")
            row = ThresholdRow(
                size=typed(doc, "size", int),
                tau_distance=typed(doc, "tau_distance", float),
                tau_similarity=typed(doc, "tau_similarity", float),
                fallback=typed(doc, "fallback", bool),
            )
            if row.tau_similarity != 1.0 - row.tau_distance:  # as build_threshold_table sets it
                raise ValueError(f"'tau_similarity' must be 1 - 'tau_distance', got {row}")
            rows[cluster] = row
        return ThresholdTable(
            market=market,
            p=typed(header, "p", float),
            min_cluster_size=typed(header, "min_cluster_size", int),
            fallback_tau=typed(header, "fallback_tau", float),
            rows=rows,
        )
    except MALFORMED as exc:
        raise malformed(path, "threshold table", exc) from exc
