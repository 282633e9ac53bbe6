"""On-disk snapshot bundles: a directory of canonical artifact files plus a
meta.json, loadable into the full serving state in one call.

A bundle carries everything both halves of serving need: the matching
snapshot (token index over campaigns and expansions, model, market
thresholds) and the per-market
expansion context (embeddings, flat index, clustering, cutoff table) used to
expand keywords that arrive after the offline run.

A reload reuses what did not change. load_runtime takes a streamed sha256 of
each file a reusable part is built from, and keeps those digests on the
bundle:

- the match index: campaigns.json and expansions.jsonl;
- a market's expansion context: embeddings.tsv, meta.json's ``markets``,
  clustering_<m>.json and thresholds_<m>.jsonl.

Given the bundle it replaces, it shares each part whose digests match, as is
and read-only, and builds and checks every other part afresh. The key is the
file bytes, not size or mtime, so a publish that copies every file anew still
reuses. meta.json, model.json and market_thresholds.json are read on every
load, and so is the check that each campaign market has a threshold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, replace
from typing import NamedTuple, TextIO

from .clustering import Clustering, load_clustering
from .embeddings import MIN_DIM, EmbeddingSet, load_embedding_sets
from .errors import MALFORMED, ParseError, check_market, malformed
from .expansion import ExpansionContext, load_expansions
from .features import FeatureExtractor
from .flat_index import build_index
from .matching import Snapshot, build_snapshot, load_campaigns
from .relevance import as_stacked, load_model
from .thresholds import load_threshold_table

META_FILE = "meta.json"
EMBEDDINGS_FILE = "embeddings.tsv"
CAMPAIGNS_FILE = "campaigns.json"
EXPANSIONS_FILE = "expansions.jsonl"
MODEL_FILE = "model.json"
MARKET_THRESHOLDS_FILE = "market_thresholds.json"


@dataclass
class RuntimeBundle:
    snapshot: Snapshot
    contexts: dict[str, ExpansionContext]
    k_neighbors: int
    filters_enabled: bool
    # the digests of campaigns.json and expansions.jsonl, which the
    # snapshot's match index was built from
    index_inputs: tuple[bytes, bytes]
    # per market, what its context was built from: (embeddings.tsv digest,
    # meta markets), then the digests of its clustering and threshold files
    context_inputs: dict[str, tuple]

    @property
    def version(self) -> int:
        return self.snapshot.version


def load_market_thresholds(path: str) -> dict[str, float]:
    """JSON map market -> threshold, each null or a finite number; null
    disables filtering (-inf)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            for market, value in doc.items():
                # type(), not isinstance(): a JSON true is not a threshold
                finite = type(value) in (int, float) and math.isfinite(value)
                if value is not None and not finite:
                    raise ValueError(f"market {market!r}: {value!r} is not null or a finite number")
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


def load_clustering_for(
    embedding_set: EmbeddingSet, path: str, fh: TextIO | None = None
) -> Clustering:
    """The clustering at ``path``, checked against ``embedding_set``: it
    belongs to the set's market and has one centroid of the set's dim per
    cluster. ParseError names the file."""
    clustering = load_clustering(path, fh)
    check_market(path, clustering.market, embedding_set.market)
    expected_shape = (clustering.cluster_count, embedding_set.dim)
    if clustering.centroids.shape != expected_shape:
        raise ParseError(
            f"{path}: centroids must have shape {expected_shape}"
            f" (clusters, embedding dim), got {clustering.centroids.shape}"
        )
    return clustering


def load_expansion_files(
    embedding_set: EmbeddingSet,
    clustering_path: str,
    table_path: str,
    clustering_fh: TextIO | None = None,
    table_fh: TextIO | None = None,
) -> ExpansionContext:
    """The context that expands ``embedding_set``'s market: an index over the
    set, and a clustering and cutoff table each checked against that market
    and the set, so that every keyword the set can be asked to expand gets a
    cluster and a cutoff. ParseError names the file at fault."""
    clustering = load_clustering_for(embedding_set, clustering_path, clustering_fh)
    table = load_threshold_table(table_path, table_fh)
    if table.market:  # a header-only table names no market
        check_market(table_path, table.market, embedding_set.market)
    if sorted(table.rows) != list(range(clustering.cluster_count)):
        raise ParseError(
            f"{table_path}: expected a row for each cluster 0..{clustering.cluster_count - 1},"
            f" got {sorted(table.rows)}"
        )
    return ExpansionContext(
        embedding_set=embedding_set,
        index=build_index(embedding_set),
        clustering=clustering,
        table=table,
    )


class _Input(NamedTuple):
    path: str
    fh: TextIO  # open at its start
    sha256: bytes


def load_runtime(snapshot_dir: str, previous: RuntimeBundle | None = None) -> RuntimeBundle:
    """Load and validate a snapshot directory into serving state.

    Each part of ``previous`` whose input digests match is shared, and every
    other part is built (see the module docstring). A file a part is built
    from is opened once: digested, rewound and, unless the part is reused,
    parsed from the same handle.
    """
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
    if dim < MIN_DIM:
        raise ParseError(f"{meta_path}: 'dim' must be at least {MIN_DIM}, got {dim}")
    k_neighbors = _meta_value(meta_path, meta, "k_neighbors", "an integer", 100)
    if k_neighbors < 1:
        raise ParseError(f"{meta_path}: 'k_neighbors' must be at least 1, got {k_neighbors}")
    filters_enabled = _meta_value(meta_path, meta, "filters_enabled", "a boolean", True)
    markets = _meta_value(meta_path, meta, "markets", "a list of strings", [])

    with contextlib.ExitStack() as files:

        def read(name: str) -> _Input:
            path = os.path.join(snapshot_dir, name)
            fh = files.enter_context(open(path, "r", encoding="utf-8"))
            sha256 = hashlib.file_digest(fh.buffer, "sha256").digest()
            fh.seek(0)
            return _Input(path, fh, sha256)

        campaigns_file, expansions_file = read(CAMPAIGNS_FILE), read(EXPANSIONS_FILE)
        index_inputs = (campaigns_file.sha256, expansions_file.sha256)
        reuse_index = previous is not None and previous.index_inputs == index_inputs
        if not reuse_index:
            campaigns = load_campaigns(campaigns_file.path, campaigns_file.fh)
            expansions = load_expansions(expansions_file.path, expansions_file.fh)
        model = as_stacked(load_model(os.path.join(snapshot_dir, MODEL_FILE)))
        thresholds = load_market_thresholds(os.path.join(snapshot_dir, MARKET_THRESHOLDS_FILE))

        embeddings_file = read(EMBEDDINGS_FILE)
        embeddings_inputs = (embeddings_file.sha256, tuple(markets))
        old = previous.contexts if previous is not None else {}
        old_inputs = previous.context_inputs if previous is not None else {}
        if old and all(inputs[0] == embeddings_inputs for inputs in old_inputs.values()):
            embedding_sets = {market: c.embedding_set for market, c in old.items()}
        else:
            embedding_sets = load_embedding_sets(
                embeddings_file.path, markets or None, embeddings_file.fh
            )
        contexts: dict[str, ExpansionContext] = {}
        context_inputs: dict[str, tuple] = {}
        for market, embedding_set in embedding_sets.items():
            clustering_file = read(f"clustering_{market}.json")
            table_file = read(f"thresholds_{market}.jsonl")
            inputs = (embeddings_inputs, clustering_file.sha256, table_file.sha256)
            if market in old and old_inputs[market] == inputs:
                contexts[market] = old[market]
            else:
                contexts[market] = load_expansion_files(
                    embedding_set,
                    clustering_file.path,
                    table_file.path,
                    clustering_file.fh,
                    table_file.fh,
                )
            context_inputs[market] = inputs

    extractor = FeatureExtractor(embed_dim=dim)
    if reuse_index:
        snapshot = replace(
            previous.snapshot,
            version=version,
            model=model,
            market_thresholds=thresholds,
            extractor=extractor,
        )
    else:
        snapshot = build_snapshot(campaigns, expansions, model, thresholds, version, extractor)
    return RuntimeBundle(
        snapshot=snapshot,
        contexts=contexts,
        k_neighbors=k_neighbors,
        filters_enabled=filters_enabled,
        index_inputs=index_inputs,
        context_inputs=context_inputs,
    )
