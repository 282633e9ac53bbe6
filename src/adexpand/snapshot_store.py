"""On-disk snapshot bundles: a directory of canonical artifact files plus a
meta.json, loadable into the full serving state in one call.

A bundle carries everything both halves of serving need: the matching
snapshot (token index over campaigns and expansions, model, market
thresholds) and the per-market
expansion context (embeddings, flat index, clustering, cutoff table) used to
expand keywords that arrive after the offline run.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

from .clustering import Clustering, load_clustering
from .embeddings import EmbeddingSet, load_embedding_sets
from .errors import MALFORMED, ParseError, check_market, malformed
from .expansion import load_expansions
from .features import FeatureExtractor
from .flat_index import FlatIndex, build_index
from .matching import Campaign, Snapshot, build_snapshot, load_campaigns
from .relevance import as_stacked, load_model
from .thresholds import ThresholdTable, load_threshold_table

META_FILE = "meta.json"
EMBEDDINGS_FILE = "embeddings.tsv"
CAMPAIGNS_FILE = "campaigns.json"
EXPANSIONS_FILE = "expansions.jsonl"
MODEL_FILE = "model.json"
MARKET_THRESHOLDS_FILE = "market_thresholds.json"


@dataclass
class ExpansionContext:
    """Per-market state for expanding a keyword at serving time."""

    embedding_set: EmbeddingSet
    index: FlatIndex
    clustering: Clustering
    table: ThresholdTable


@dataclass
class RuntimeBundle:
    snapshot: Snapshot
    contexts: dict[str, ExpansionContext]
    k_neighbors: int
    filters_enabled: bool

    @property
    def version(self) -> int:
        return self.snapshot.version


def load_market_thresholds(path: str) -> dict[str, float]:
    """JSON map market -> threshold; null disables filtering (-inf)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            return {
                market: float("-inf") if value is None else float(value)
                for market, value in doc.items()
            }
        except MALFORMED as exc:
            raise malformed(path, "market thresholds", exc) from exc


def save_market_thresholds(thresholds: dict[str, float], path: str) -> None:
    doc = {
        market: (None if value == float("-inf") else value)
        for market, value in thresholds.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_snapshot_dir(
    out_dir: str,
    version: int,
    embeddings_path: str,
    campaigns_path: str,
    expansions_path: str,
    model_path: str,
    market_thresholds_path: str,
    clustering_paths: dict[str, str],
    threshold_paths: dict[str, str],
    dim: int,
    k_neighbors: int,
    filters_enabled: bool,
) -> None:
    """Copy artifacts into a canonical directory layout and write meta.json.

    The inputs are fully loaded and cross-validated (via load_runtime on the
    assembled directory) before the function returns.
    """
    os.makedirs(out_dir, exist_ok=True)
    shutil.copyfile(embeddings_path, os.path.join(out_dir, EMBEDDINGS_FILE))
    shutil.copyfile(campaigns_path, os.path.join(out_dir, CAMPAIGNS_FILE))
    shutil.copyfile(expansions_path, os.path.join(out_dir, EXPANSIONS_FILE))
    shutil.copyfile(model_path, os.path.join(out_dir, MODEL_FILE))
    shutil.copyfile(market_thresholds_path, os.path.join(out_dir, MARKET_THRESHOLDS_FILE))
    for market, path in clustering_paths.items():
        shutil.copyfile(path, os.path.join(out_dir, f"clustering_{market}.json"))
    for market, path in threshold_paths.items():
        shutil.copyfile(path, os.path.join(out_dir, f"thresholds_{market}.jsonl"))
    meta = {
        "version": version,
        "dim": dim,
        "k_neighbors": k_neighbors,
        "filters_enabled": filters_enabled,
        "markets": sorted(clustering_paths),
    }
    with open(os.path.join(out_dir, META_FILE), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    load_runtime(out_dir)


def _meta_value(meta_path: str, meta: dict, key: str, expected: str, default=None):
    """meta[key]; ParseError when it is missing (with no default) or is not
    ``expected``: "an integer", "a boolean" or "a list of strings"."""
    if key not in meta and default is None:
        raise ParseError(f"{meta_path}: missing {key!r}")
    value = meta.get(key, default)
    ok = {
        "an integer": isinstance(value, int) and not isinstance(value, bool),
        "a boolean": isinstance(value, bool),
        "a list of strings": isinstance(value, list) and all(isinstance(v, str) for v in value),
    }[expected]
    if not ok:
        raise ParseError(f"{meta_path}: {key!r} must be {expected}, got {value!r}")
    return value


def load_runtime(snapshot_dir: str) -> RuntimeBundle:
    """Load and validate a snapshot directory into serving state."""
    meta_path = os.path.join(snapshot_dir, META_FILE)
    if not os.path.exists(meta_path):
        raise ParseError(f"{snapshot_dir}: missing {META_FILE}")
    with open(meta_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{meta_path}: invalid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{meta_path}: expected a JSON object")
    version = _meta_value(meta_path, meta, "version", "an integer")
    dim = _meta_value(meta_path, meta, "dim", "an integer")
    k_neighbors = _meta_value(meta_path, meta, "k_neighbors", "an integer", 100)
    if k_neighbors < 1:
        raise ParseError(f"{meta_path}: 'k_neighbors' must be at least 1, got {k_neighbors}")
    filters_enabled = _meta_value(meta_path, meta, "filters_enabled", "a boolean", True)
    markets = _meta_value(meta_path, meta, "markets", "a list of strings", [])

    campaigns: list[Campaign] = load_campaigns(os.path.join(snapshot_dir, CAMPAIGNS_FILE))
    expansions = load_expansions(os.path.join(snapshot_dir, EXPANSIONS_FILE))
    model = load_model(os.path.join(snapshot_dir, MODEL_FILE))
    thresholds = load_market_thresholds(os.path.join(snapshot_dir, MARKET_THRESHOLDS_FILE))

    embedding_sets = load_embedding_sets(
        os.path.join(snapshot_dir, EMBEDDINGS_FILE), markets or None
    )
    contexts: dict[str, ExpansionContext] = {}
    for market, embedding_set in embedding_sets.items():
        clustering_path = os.path.join(snapshot_dir, f"clustering_{market}.json")
        clustering = load_clustering(clustering_path)
        check_market(clustering_path, clustering.market, market)
        expected_shape = (clustering.cluster_count, embedding_set.dim)
        if clustering.centroids.shape != expected_shape:
            raise ParseError(
                f"{clustering_path}: centroids must have shape {expected_shape}"
                f" (clusters, embedding dim), got {clustering.centroids.shape}"
            )
        table_path = os.path.join(snapshot_dir, f"thresholds_{market}.jsonl")
        table = load_threshold_table(table_path)
        if table.market:  # a header-only table names no market
            check_market(table_path, table.market, market)
        if sorted(table.rows) != list(range(clustering.cluster_count)):
            raise ParseError(
                f"{table_path}: expected a row for each cluster 0..{clustering.cluster_count - 1},"
                f" got {sorted(table.rows)}"
            )
        contexts[market] = ExpansionContext(
            embedding_set=embedding_set,
            index=build_index(embedding_set),
            clustering=clustering,
            table=table,
        )

    snapshot = build_snapshot(
        campaigns=campaigns,
        expansions=expansions,
        model=as_stacked(model),
        market_thresholds=thresholds,
        version=version,
        extractor=FeatureExtractor(embed_dim=dim),
    )
    return RuntimeBundle(
        snapshot=snapshot,
        contexts=contexts,
        k_neighbors=k_neighbors,
        filters_enabled=filters_enabled,
    )
