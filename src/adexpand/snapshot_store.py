"""On-disk snapshot bundles: a directory of canonical artifact files plus a
meta.json, loadable into the full serving state in one call.

A bundle carries everything both halves of serving need: the matching
snapshot (token index over campaigns and expansions, model, market
thresholds) and the per-market
expansion context (embeddings, flat index, clustering, cutoff table) used to
expand keywords that arrive after the offline run.

The token index is filed straight from the parsed lines of expansions.jsonl.
load_expansions checks every field of every variant, rejected ones too, and
keeps one row per line: the origin, and the text and similarity of each
accepted variant. build_snapshot files those rows next to the campaign
keywords; no expansion record or variant object is built on the way.

A reload reuses what did not change, by one rule. Every reusable part is
keyed by its name and the streamed sha256 digests of the files it is built
from, and load_runtime keeps the parts it used on the bundle:

- ``("embeddings", embeddings.tsv, markets)``: the embedding sets, one per
  market in meta.json's ``markets``;
- ``("context", market, embeddings key, clustering_<m>.json,
  thresholds_<m>.jsonl)``: a market's expansion context;
- ``("index", campaigns.json, expansions.jsonl)``: the token index.

Given the bundle it replaces, a load shares each part whose key that bundle
holds, as is and read-only, and builds and checks every other part afresh.
The key is the file bytes, not size or mtime, so a publish that copies every
file anew still reuses. meta.json, model.json and market_thresholds.json are
read on every load, and so are the checks that meta.json's ``dim`` is the
embeddings' dim, that the model reads the six features a match is scored on
and that each campaign market has a threshold. A reload is refused from
meta.json alone: a version that does not exceed the replaced bundle's raises
before any other file is opened.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, TextIO

from .clustering import Clustering, load_clustering
from .embeddings import MIN_DIM, EmbeddingSet, load_embedding_sets
from .errors import (
    DanglingReferenceError,
    ParseError,
    VersionRegressionError,
    check_market,
    parse_json,
    typed,
)
from .expansion import ExpansionContext, load_expansions
from .features import FEATURE_NAMES, FeatureExtractor
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


@dataclass(frozen=True)
class RuntimeBundle:
    snapshot: Snapshot
    contexts: dict[str, ExpansionContext]
    k_neighbors: int
    # each reusable part, keyed by its name and what it was built from
    # (see the module docstring)
    parts: dict[tuple, object]

    @property
    def version(self) -> int:
        return self.snapshot.version


def load_market_thresholds(path: str) -> dict[str, float]:
    """JSON map market -> threshold, each a finite number."""
    return parse_json(path, "market thresholds", _market_thresholds_from_doc)


def _market_thresholds_from_doc(doc: dict) -> dict[str, float]:
    thresholds = {}
    for market, value in doc.items():
        try:
            thresholds[market] = typed(doc, market, float)
        except (TypeError, ValueError):
            raise ValueError(f"market {market!r}: {value!r} is not a finite number") from None
    return thresholds


def save_market_thresholds(thresholds: dict[str, float], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(thresholds, fh, indent=2, sort_keys=True)
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
) -> None:
    """Copy artifacts into a canonical directory layout and write meta.json.

    The files are written to a sibling temporary directory and loaded and
    cross-validated there (via load_runtime). Only then is each moved over
    its namesake in ``out_dir`` with os.replace, meta.json last; a build that
    fails removes the temporary directory and leaves ``out_dir`` as it was.
    """
    sources = {
        EMBEDDINGS_FILE: embeddings_path,
        CAMPAIGNS_FILE: campaigns_path,
        EXPANSIONS_FILE: expansions_path,
        MODEL_FILE: model_path,
        MARKET_THRESHOLDS_FILE: market_thresholds_path,
        **{f"clustering_{market}.json": path for market, path in clustering_paths.items()},
        **{f"thresholds_{market}.jsonl": path for market, path in threshold_paths.items()},
    }
    meta = {
        "version": version,
        "dim": dim,
        "k_neighbors": k_neighbors,
        # the filters always run; the key keeps meta.json's bytes stable
        "filters_enabled": True,
        "markets": sorted(clustering_paths),
    }
    parent, base = os.path.split(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{base}.", dir=parent)
    try:
        for name, source in sources.items():
            shutil.copyfile(source, os.path.join(staging, name))
        with open(os.path.join(staging, META_FILE), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        load_runtime(staging)
        os.makedirs(out_dir, exist_ok=True)
        for name in [*sources, META_FILE]:
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load_clustering_for(
    embedding_set: EmbeddingSet, path: str, fh: TextIO | None = None
) -> Clustering:
    """The clustering at ``path``, checked against ``embedding_set``: it
    belongs to the set's market, its centroids have the set's dim, and it
    assigns each keyword of the set once (load_clustering checks that each
    is assigned one of its clusters). ParseError names the file."""
    clustering = load_clustering(path, fh)
    check_market(path, clustering.market, embedding_set.market)
    expected_shape = (clustering.cluster_count, embedding_set.dim)
    if clustering.centroids.shape != expected_shape:
        raise ParseError(
            f"{path}: centroids must have shape {expected_shape}"
            f" (clusters, embedding dim), got {clustering.centroids.shape}"
        )
    if len(clustering.labels) != len(embedding_set):
        raise ParseError(f"{path}: assigns {len(clustering.labels)} keywords, market"
                         f" {embedding_set.market!r} has {len(embedding_set)}")
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

    Given ``previous``, a version in meta.json that does not exceed
    ``previous.version`` raises VersionRegressionError before any other file
    is opened. Otherwise each part whose key is in ``previous.parts`` is
    shared, and every other part is built (see the module docstring). A file
    a part is built from is opened once: digested, rewound and, unless the
    part is reused, parsed from the same handle.

    Cyclic garbage collection is paused for the whole load and left as it
    was found on every exit. A load files well over a hundred thousand
    objects and makes no cycles, so each collection it would trigger walks
    the growing bundle and frees nothing. An enabled collector first runs
    once, so that what is already garbage is freed before the load, not
    held through it (or, once frozen, for good).

    A load that returns freezes every object the process tracks
    (gc.freeze), before the collector is switched back on: later
    collections never walk the bundle, which would otherwise sit in the
    youngest generation. Reference counting still frees a replaced bundle;
    a cycle inside one would never be collected. A load that raises
    freezes nothing.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.collect()
        gc.disable()
    try:
        bundle = _load_runtime(snapshot_dir, previous)
        gc.freeze()
        return bundle
    finally:
        if enabled:
            gc.enable()


def _load_runtime(snapshot_dir: str, previous: RuntimeBundle | None) -> RuntimeBundle:
    meta_path = os.path.join(snapshot_dir, META_FILE)
    if not os.path.exists(meta_path):
        raise ParseError(f"{snapshot_dir}: missing {META_FILE}")
    meta = parse_json(meta_path, "meta")
    try:
        version = typed(meta, "version", int)
        if previous is not None and version <= previous.version:
            raise VersionRegressionError(f"version {version} does not exceed {previous.version}")
        dim = typed(meta, "dim", int)
        k_neighbors = typed(meta, "k_neighbors", int)
        # a snapshot that asked for unfiltered expansion is refused, not
        # served filtered
        if not typed(meta, "filters_enabled", bool):
            raise ValueError("'filters_enabled' must be true, got false")
        markets = typed(meta, "markets", list[str])
        if not markets:
            raise ValueError("'markets' must be a non-empty list of strings, got []")
    except KeyError as exc:
        raise ParseError(f"{meta_path}: missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{meta_path}: {exc}") from exc
    if dim < MIN_DIM:
        raise ParseError(f"{meta_path}: 'dim' must be at least {MIN_DIM}, got {dim}")
    if k_neighbors < 1:
        raise ParseError(f"{meta_path}: 'k_neighbors' must be at least 1, got {k_neighbors}")

    old_parts = previous.parts if previous is not None else {}
    parts: dict[tuple, object] = {}

    def part(key: tuple, build):
        parts[key] = old_parts[key] if key in old_parts else build()
        return parts[key]

    with contextlib.ExitStack() as files:

        def read(name: str) -> _Input:
            path = os.path.join(snapshot_dir, name)
            fh = files.enter_context(open(path, "r", encoding="utf-8"))
            sha256 = hashlib.file_digest(fh.buffer, "sha256").digest()
            fh.seek(0)
            return _Input(path, fh, sha256)

        model_path = os.path.join(snapshot_dir, MODEL_FILE)
        model = as_stacked(load_model(model_path))
        if model.base.n_features != len(FEATURE_NAMES):
            raise ParseError(f"{model_path}: 'n_features' must be {len(FEATURE_NAMES)}, the"
                             f" features a match is scored on, got {model.base.n_features}")
        thresholds = load_market_thresholds(os.path.join(snapshot_dir, MARKET_THRESHOLDS_FILE))
        extractor = FeatureExtractor(embed_dim=dim)

        embeddings = read(EMBEDDINGS_FILE)
        embeddings_key = ("embeddings", embeddings.sha256, tuple(markets))
        embedding_sets = part(embeddings_key, lambda: load_embedding_sets(
            embeddings.path, markets, embeddings.fh))
        # dim sizes the fallback vector of every query and title scored
        embeddings_dim = next(iter(embedding_sets.values())).dim
        if dim != embeddings_dim:
            raise ParseError(
                f"{meta_path}: 'dim' must equal the dim of {EMBEDDINGS_FILE},"
                f" {embeddings_dim}, got {dim}"
            )
        contexts: dict[str, ExpansionContext] = {}
        for market, embedding_set in embedding_sets.items():
            clustering, table = read(f"clustering_{market}.json"), read(f"thresholds_{market}.jsonl")
            contexts[market] = part(
                ("context", market, embeddings_key, clustering.sha256, table.sha256),
                lambda: load_expansion_files(
                    embedding_set, clustering.path, table.path, clustering.fh, table.fh),
            )

        campaigns, expansions = read(CAMPAIGNS_FILE), read(EXPANSIONS_FILE)
        try:
            index = part(("index", campaigns.sha256, expansions.sha256), lambda: build_snapshot(
                load_campaigns(campaigns.path, campaigns.fh),
                load_expansions(expansions.path, expansions.fh)))
        except DanglingReferenceError as exc:
            raise DanglingReferenceError(
                f"{expansions.path}: {exc} of {campaigns.path}"
            ) from exc

    return RuntimeBundle(Snapshot(version, model, thresholds, extractor, index), contexts,
                         k_neighbors, parts)
