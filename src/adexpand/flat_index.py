"""Exact brute-force nearest-neighbor search over an embedding set.

No approximation: every query scans all rows. Distances are cosine distances
computed as 1 - dot in float32; ties are broken by ascending keyword id,
which is the row number, so a stable sort by distance orders them.

Only the survivors are sorted. ``np.partition`` finds the k-th smallest
distance, every row at or below it is kept in id order, and a stable sort of
those rows keeps the first k. All rows tied with the k-th distance survive
the cut, so the stable sort still sees each run of ties whole and in id
order, and the result is the first k of the full (distance, id) order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet, KeywordRef
from .errors import DimensionMismatchError, EmptySetError

DEFAULT_K = 100


@dataclass(frozen=True)
class Neighbor:
    id: int
    distance: float


@dataclass
class FlatIndex:
    """Immutable row-major matrix of unit vectors; row i is keyword id i."""

    market: str
    dim: int
    refs: list[KeywordRef]
    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.refs)


def build_index(embedding_set: EmbeddingSet) -> FlatIndex:
    """An index over an embedding set, sharing its refs and matrix."""
    if len(embedding_set) == 0:
        raise EmptySetError("cannot index an empty embedding set")
    return FlatIndex(
        market=embedding_set.market,
        dim=embedding_set.dim,
        refs=embedding_set.refs,
        matrix=embedding_set.matrix,
    )


def knn_search(
    index: FlatIndex,
    query: np.ndarray,
    k: int = DEFAULT_K,
    exclude_id: int | None = None,
) -> list[Neighbor]:
    """Exact k smallest cosine distances, ties broken by ascending id.

    The excluded id (normally the query keyword itself) never appears.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if query.shape != (index.dim,):
        raise DimensionMismatchError(
            f"query dim {query.shape} does not match index dim {index.dim}"
        )
    # Per-row float32 dot products; matvec keeps the reduction order fixed
    # regardless of BLAS thread count.
    sims = index.matrix @ query.astype(np.float32)
    distances = np.float32(1.0) - sims
    # an unseen keyword carries id -1, which must not wrap to the last row
    if exclude_id is not None and 0 <= exclude_id < len(distances):
        distances[exclude_id] = np.inf
    # Stable sort + row = id gives (distance, id) lexicographic order. With
    # k >= n the cut is the largest distance and every row survives.
    cut = min(k, len(distances)) - 1
    kth = np.partition(distances, cut)[cut]
    # "not above" rather than "at or below" keeps NaN rows (sorted last)
    # and keeps every row when the k-th distance is itself NaN
    survivors = np.flatnonzero(~(distances > kth))
    order = survivors[np.argsort(distances[survivors], kind="stable")[:k]]
    return [
        Neighbor(id=row, distance=min(max(d, 0.0), 2.0))
        for row, d in zip(order.tolist(), distances[order].tolist())
        if d != np.inf
    ]


def batch_search(
    index: FlatIndex,
    queries: list[np.ndarray],
    k: int = DEFAULT_K,
    exclude_ids: list[int | None] | None = None,
    workers: int = 1,
) -> list[list[Neighbor]]:
    """knn_search per query; output order always matches input order."""
    for qi, q in enumerate(queries):
        if q.shape != (index.dim,):
            raise DimensionMismatchError(f"query {qi}: dim {q.shape} != {index.dim}")
    if exclude_ids is None:
        exclude_ids = [None] * len(queries)
    if not queries:
        return []
    if workers <= 1:
        return [knn_search(index, q, k, e) for q, e in zip(queries, exclude_ids)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda qe: knn_search(index, qe[0], k, qe[1]), zip(queries, exclude_ids)))
