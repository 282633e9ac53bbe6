#!/usr/bin/env python3
"""Regenerate the bundled desk-scale fixtures under fixtures/.

Writes the raw inputs (keywords, campaigns, labels, relevance datasets,
queries, config), then drives the actual CLI chain end to end and pins the
resulting match output under fixtures/golden/. Everything is seeded, so the
outputs are reproducible byte for byte on one platform.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from adexpand.cli import cli_dispatch  # noqa: E402
from adexpand.features import FEATURE_NAMES, FeatureExtractor  # noqa: E402
from adexpand.relevance import save_dataset  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")
DIM = 64
SEED = 7

KEYWORDS = {
    "US": [
        "led garden lights",
        "garden lighting",
        "iphone 13 case",
        "iphone 12 case",
        "mens running shoes",
        "running shoes",
        "womens sandals",
        "mens sandals",
    ],
    "UK": [
        "ladies winter jumpers",
        "womens winter sweaters",
        "knitted jumpers",
        "solar garden light",
    ],
}

CAMPAIGNS = {
    "campaigns": [
        {
            "id": "us-lights-1",
            "market": "US",
            "ad_groups": [
                {
                    "keywords": ["led garden lights"],
                    "items": [
                        {"id": 101, "title": "Solar LED Garden Lights 8 Pack Outdoor", "price": 24.99},
                        {"id": 102, "title": "LED Landscape Light Low Voltage", "price": 59.5},
                    ],
                }
            ],
        },
        {
            "id": "us-lights-2",
            "market": "US",
            "ad_groups": [
                {
                    "keywords": ["garden lighting"],
                    "items": [
                        {"id": 103, "title": "Outdoor String Lights for Garden Patio", "price": 18.0}
                    ],
                }
            ],
        },
        {
            "id": "us-phone",
            "market": "US",
            "ad_groups": [
                {
                    "keywords": ["iphone 13 case"],
                    "items": [
                        {"id": 104, "title": "Clear Case for iPhone 13 Shockproof", "price": 9.99},
                    ],
                },
                {
                    "keywords": ["iphone 12 case"],
                    "items": [
                        {"id": 105, "title": "iPhone 12 Slim Case Matte Black", "price": 11.5},
                    ],
                }
            ],
        },
        {
            "id": "us-shoes",
            "market": "US",
            "ad_groups": [
                {
                    "keywords": ["mens running shoes", "running shoes"],
                    "items": [
                        {"id": 106, "title": "Mens Lightweight Running Shoes Breathable", "price": 74.95}
                    ],
                },
                {
                    "keywords": ["womens sandals", "mens sandals"],
                    "items": [
                        {"id": 107, "title": "Womens Summer Sandals Comfort Slide", "price": 22.0}
                    ],
                },
            ],
        },
        {
            "id": "uk-knitwear",
            "market": "UK",
            "ad_groups": [
                {
                    "keywords": ["ladies winter jumpers", "womens winter sweaters"],
                    "items": [
                        {"id": 201, "title": "Womens Chunky Knit Winter Jumper Warm", "price": 32.0},
                        {"id": 202, "title": "Ladies Cable Knit Sweater Crew Neck", "price": 27.5},
                    ],
                }
            ],
        },
        {
            "id": "uk-garden",
            "market": "UK",
            "ad_groups": [
                {
                    "keywords": ["solar garden light", "knitted jumpers"],
                    "items": [
                        {"id": 203, "title": "Solar Garden Light Stainless Steel 6 Pack", "price": 15.0},
                        {"id": 204, "title": "Knitted Jumper Soft Wool Blend", "price": 29.0},
                    ],
                }
            ],
        },
    ]
}

LABELS = [
    ("led garden lights", "garden lighting", 1),
    ("garden lighting", "led garden lights", 1),
    ("iphone 13 case", "iphone 12 case", 0),
    ("mens running shoes", "running shoes", 1),
    ("running shoes", "mens running shoes", 1),
    ("womens sandals", "mens sandals", 0),
    ("iphone 13 case", "running shoes", 0),
    ("mens running shoes", "womens sandals", 0),
]

QUERIES = [
    ("US", "solar led garden lights outdoor"),
    ("US", "apple iphone 13 case red"),
    ("US", "cheap iphone 12 case"),
    ("US", "mens running shoes sale"),
    ("US", "garden lighting patio string"),
    ("UK", "warm ladies winter jumpers"),
    ("UK", "solar garden light 6 pack"),
    ("UK", "soft knitted jumpers wool"),
]


def write_inputs() -> None:
    os.makedirs(FIXTURES, exist_ok=True)
    with open(os.path.join(FIXTURES, "keywords.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# market<TAB>keyword\n")
        for market in sorted(KEYWORDS):
            for text in KEYWORDS[market]:
                fh.write(f"{market}\t{text}\n")
    with open(os.path.join(FIXTURES, "campaigns.json"), "w", encoding="utf-8") as fh:
        json.dump(CAMPAIGNS, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(FIXTURES, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# origin<TAB>variant<TAB>label\n")
        for origin, variant, label in LABELS:
            fh.write(f"{origin}\t{variant}\t{label}\n")
    with open(os.path.join(FIXTURES, "queries.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# market<TAB>query\n")
        for market, query in QUERIES:
            fh.write(f"{market}\t{query}\n")
    config = {
        "parameters": {
            "dim": DIM,
            "clusters": 2,
            "seed": SEED,
            "quantile_pct": 99.9999,
            "min_cluster_size": 3,
            "k_neighbors": 11,
            "trees": 60,
            "learning_rate": 0.1,
            "adjustment_trees": 2,
            "adjustment_depth": 5,
            "precision_target": 0.8,
        },
    }
    with open(os.path.join(FIXTURES, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def synth_queries_for(title: str, keyword: str, rng: np.random.Generator) -> list[str]:
    """Query variants with graded overlap against the title."""
    title_tokens = title.lower().split()
    half = max(2, len(title_tokens) // 2)
    noise_words = ["random", "unrelated", "words", "stuff", "misc",
                   "gadget", "thing", "item", "other", "assorted"]
    queries = [
        " ".join(title_tokens),
        " ".join(rng.permutation(title_tokens).tolist()),
        " ".join(rng.choice(title_tokens, size=half, replace=False).tolist()),
        keyword,
        f"{keyword} {title_tokens[0]}",
        f"{keyword} {' '.join(rng.choice(noise_words, size=2, replace=False))}",
        f"cheap {keyword} deal",
        f"buy {title_tokens[-1]} online",
        " ".join(rng.choice(noise_words, size=4, replace=False).tolist()),
        " ".join(rng.choice(noise_words, size=3, replace=False).tolist()),
    ]
    return queries


def make_relevance_datasets() -> None:
    rng = np.random.default_rng(SEED)
    extractor = FeatureExtractor(embed_dim=DIM)
    rows: list[np.ndarray] = []
    labels: list[float] = []
    grades: list[float] = []
    for campaign in CAMPAIGNS["campaigns"]:
        for group in campaign["ad_groups"]:
            for item in group["items"]:
                for keyword in group["keywords"]:
                    queries = [q for _ in range(2)
                               for q in synth_queries_for(item["title"], keyword, rng)]
                    for query in queries:
                        features = extractor.extract(
                            query, item["title"], item["price"], keyword, 1.0
                        )
                        jaccard, kw_ratio = features[0], features[5]
                        grade = float(np.clip(round(1 + 6 * jaccard + 2 * kw_ratio), 1, 5))
                        label = float(np.clip(grade + 0.15 * rng.normal(), 0.5, 5.5))
                        rows.append(features)
                        labels.append(label)
                        grades.append(grade)
    X = np.vstack(rows)
    y = np.array(labels)
    g = np.array(grades)
    order = rng.permutation(len(y))
    X, y, g = X[order], y[order], g[order]

    n = len(y)
    base_end = int(0.6 * n)
    new_end = int(0.8 * n)
    save_dataset(X[:base_end], y[:base_end], FEATURE_NAMES,
                 os.path.join(FIXTURES, "relevance_base.csv"))
    shift_new = y[base_end:new_end] - 0.5 * (g[base_end:new_end] <= 2)
    save_dataset(X[base_end:new_end], shift_new, FEATURE_NAMES,
                 os.path.join(FIXTURES, "relevance_new.csv"))
    shift_hold = y[new_end:] - 0.5 * (g[new_end:] <= 2)
    save_dataset(X[new_end:], shift_hold, FEATURE_NAMES,
                 os.path.join(FIXTURES, "relevance_holdout.csv"))


def run(args: list[str]) -> None:
    code = cli_dispatch(args)
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(args)}")


CLUSTER_COUNTS = {"US": 2, "UK": 1}


def run_chain(out_dir: str, fixtures_dir: str = FIXTURES) -> None:
    """The documented subcommand ordering, end to end, into out_dir.

    This is the reference pipeline: the test suite drives the same function
    when checking reproducibility against the pinned golden outputs.
    """
    os.makedirs(out_dir, exist_ok=True)

    def fx(name: str) -> str:
        return os.path.join(fixtures_dir, name)

    def out(name: str) -> str:
        return os.path.join(out_dir, name)

    run(["embed", "--keywords", fx("keywords.tsv"), "--dim", str(DIM),
         "--out", out("embeddings.tsv")])
    for market in ("US", "UK"):
        run(["cluster", "--embeddings", out("embeddings.tsv"), "--market", market,
             "--clusters", str(CLUSTER_COUNTS[market]), "--seed", str(SEED),
             "--out", out(f"clustering_{market}.json")])
        run(["thresholds", "--embeddings", out("embeddings.tsv"), "--market", market,
             "--clustering", out(f"clustering_{market}.json"), "--quantile-pct", "99.9999",
             "--min-cluster-size", "3", "--out", out(f"thresholds_{market}.jsonl")])
        run(["expand", "--embeddings", out("embeddings.tsv"), "--market", market,
             "--clustering", out(f"clustering_{market}.json"),
             "--thresholds", out(f"thresholds_{market}.jsonl"),
             "--k-neighbors", "11", "--out", out(f"expansions_{market}.jsonl")])
    with open(out("expansions.jsonl"), "w", encoding="utf-8") as out_fh:
        for market in ("US", "UK"):
            with open(out(f"expansions_{market}.jsonl"), "r", encoding="utf-8") as in_fh:
                out_fh.write(in_fh.read())

    run(["train-base", "--dataset", fx("relevance_base.csv"), "--trees", "60",
         "--learning-rate", "0.1", "--out", out("base_model.json")])
    run(["train-adjust", "--base", out("base_model.json"), "--dataset",
         fx("relevance_new.csv"), "--min-leaf", "5", "--out", out("stacked_model.json")])
    for market in ("US", "UK"):
        run(["tune-threshold", "--model", out("stacked_model.json"), "--holdout",
             fx("relevance_holdout.csv"), "--market", market, "--precision-target", "0.8",
             "--out", out("market_thresholds.json")])

    run(["build-snapshot", "--embeddings", out("embeddings.tsv"),
         "--campaigns", fx("campaigns.json"), "--expansions", out("expansions.jsonl"),
         "--model", out("stacked_model.json"),
         "--market-thresholds", out("market_thresholds.json"),
         "--clustering", f"US={out('clustering_US.json')}",
         "--clustering", f"UK={out('clustering_UK.json')}",
         "--thresholds", f"US={out('thresholds_US.jsonl')}",
         "--thresholds", f"UK={out('thresholds_UK.jsonl')}",
         "--version", "1", "--dim", str(DIM), "--k-neighbors", "11",
         "--out", out("snapshot")])
    run(["match", "--snapshot", out("snapshot"), "--queries", fx("queries.tsv"),
         "--out", out("matches.jsonl")])


def run_pipeline() -> None:
    golden = os.path.join(FIXTURES, "golden")
    work = os.path.join(golden, "work")
    shutil.rmtree(golden, ignore_errors=True)
    run_chain(work)
    for name in ("matches.jsonl", "expansions.jsonl", "thresholds_US.jsonl"):
        shutil.copyfile(os.path.join(work, name), os.path.join(golden, name))
    shutil.rmtree(work)


def main() -> None:
    write_inputs()
    make_relevance_datasets()
    run_pipeline()
    print(f"fixtures regenerated under {FIXTURES}")


if __name__ == "__main__":
    main()
