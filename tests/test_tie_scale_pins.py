"""Byte pins for the offline chain at a scale where distances tie.

A seeded synthetic set is built in the test: 600 keywords per market whose
8-dimensional vectors have components in {-1, 0, 1}. Dot products and norms
then take few distinct values, so cosine distances tie often, at the k-th
neighbour too, and k-means meets equidistant points and duplicate rows.
Keyword texts mix gendered words and numbers with units, so both expansion
filters fire.

``cluster``, ``thresholds``, ``expand`` (k = 11), ``elbow`` and
``stability`` run on each market and the sha256 of every output is pinned.
The hashes were recorded at commit 39acbb1, before the k-NN search became
partition-then-sort, the expansion filters were memoised, centroid
directions were cached, k-means cast its matrix once and summed with
``bincount``, and the embeddings parse went through ``np.loadtxt``. A
change to any of those kernels must leave every byte as it was.
"""

import hashlib
import itertools

import numpy as np
import pytest

from adexpand.cli import cli_dispatch
from adexpand.embeddings import load_embeddings

ROWS_PER_MARKET = 600
DIM = 8

GENDERS = ("", "mens", "womens", "ladies", "boys")
NOUNS = ("shoes", "jacket", "case", "lights", "charger", "sandals", "watch", "bag")
SIZES = ("", "13", "12", "65w", "45w", "4.4mm", "6mm")
COLOURS = ("", "black", "red")

PINNED = {
    "US": {
        "clustering": "58c6e618e4375ef75fdc3bbe4a01f5c50f6636d85c22be24e72fbae14d42f88f",
        "thresholds": "60cb53aeaca54d6e6f8f21aadfe6e067d8694b72048980a573ae6634079a36b3",
        "expansions": "fc6fdf4956434db18ee369f9b63b92d44e9f51c7b025d82071965268b7f3aa76",
        "elbow": "c2cb6cf9d519f3e9338c950072ade7fb1e689e61dd40d780af9952a55163ff52",
        "stability": "a0475ec201f6209f04d1f8d3ec13a8b0ce7dce18290109afad0581dd185849d9",
    },
    "UK": {
        "clustering": "e085e74c2463f3391793a3665e34608846919e88790706e902d7e7f590287225",
        "thresholds": "bd97b06d95f5c5245986d09bfdb17dac41120539d73e6cc8f9d59fe61ab654f7",
        "expansions": "2d8919bd5517d2cb8f71a47e08136576a512dee45511b5964e75636f6393cef8",
        "elbow": "8660f66f90951380714138704141ab4f67f0de109441b5cfb4ea8d634c6e8a87",
        "stability": "03ec29ecbb4f52047570c1b1ee9fd608c11aabaa23e9f66f70ec840006065422",
    },
}


def _write_corpus(path: str) -> None:
    rng = np.random.default_rng(20261018)
    combos = [
        " ".join(w for w in combo if w)
        for combo in itertools.product(GENDERS, NOUNS, SIZES, COLOURS)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        for market in ("US", "UK"):
            picks = rng.permutation(len(combos))[:ROWS_PER_MARKET]
            vectors = rng.integers(-1, 2, size=(ROWS_PER_MARKET, DIM))
            vectors[~vectors.any(axis=1), 0] = 1
            for pick, vector in zip(picks.tolist(), vectors.tolist()):
                values = " ".join(str(v) for v in vector)
                fh.write(f"{market}\t{combos[pick]}\t{values}\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


@pytest.fixture(scope="module")
def tie_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("ties")
    emb = str(out / "embeddings.tsv")
    _write_corpus(emb)
    hashes: dict[str, dict[str, str]] = {}
    for market in ("US", "UK"):
        def path(name: str) -> str:
            return str(out / f"{name}_{market}")

        def run(*argv: str) -> None:
            assert cli_dispatch(list(argv)) == 0, argv

        common = ("--embeddings", emb, "--market", market)
        run("cluster", *common, "--clusters", "12", "--seed", "7", "--out", path("clustering"))
        run("thresholds", *common, "--clustering", path("clustering"),
            "--quantile-pct", "90", "--min-cluster-size", "5", "--out", path("thresholds"))
        run("expand", *common, "--clustering", path("clustering"),
            "--thresholds", path("thresholds"), "--k-neighbors", "11",
            "--out", path("expansions"))
        run("elbow", *common, "--k-list", "4,8", "--seed", "7", "--folds", "3",
            "--out", path("elbow"))
        hashes[market] = {
            name: _file_hash(path(name))
            for name in ("clustering", "thresholds", "expansions", "elbow")
        }
    return emb, hashes


@pytest.mark.parametrize("market", ["US", "UK"])
@pytest.mark.parametrize("output", ["clustering", "thresholds", "expansions", "elbow"])
def test_file_output_is_pinned(tie_outputs, market, output):
    _, hashes = tie_outputs
    assert hashes[market][output] == PINNED[market][output]


@pytest.mark.parametrize("market", ["US", "UK"])
def test_stability_stdout_is_pinned(tie_outputs, market, capsys):
    emb, _ = tie_outputs
    capsys.readouterr()
    assert cli_dispatch([
        "stability", "--embeddings", emb, "--market", market,
        "--clusters", "8", "--folds", "3", "--seed", "7",
    ]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == PINNED[market]["stability"]


def test_distances_tie_at_the_kth_neighbour(tie_outputs):
    """The corpus does what it is for: some query's 11th and 12th nearest
    rows are equidistant, so the cut at k falls inside a run of ties."""
    emb, _ = tie_outputs
    embedding_set = load_embeddings(emb, "US")
    matrix = embedding_set.matrix
    boundary_ties = 0
    for row in range(0, ROWS_PER_MARKET, 10):
        distances = np.float32(1.0) - matrix @ matrix[row]
        distances[row] = np.inf
        ranked = np.sort(distances)
        boundary_ties += int(ranked[10] == ranked[11])
    assert boundary_ties > 0
