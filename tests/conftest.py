"""Shared fixture builders: a small two-market corpus with campaigns, plus a
session-scoped run of the full CLI chain over the bundled file fixtures."""

import importlib.util
import os

import numpy as np
import pytest

from adexpand.embeddings import EmbeddingSet, fallback_embed
from adexpand.matching import AdGroup, Campaign, Item
from adexpand.relevance import GbdtModel, RegressionTree, StackedModel, TreeNode

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES_DIR = os.path.join(_ROOT, "fixtures")
SRC_DIR = os.path.join(_ROOT, "src")

CHAIN_OUTPUTS = (
    "expansions.jsonl",
    "thresholds_US.jsonl",
    "thresholds_UK.jsonl",
    "matches.jsonl",
)


def _load_make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", os.path.join(_ROOT, "scripts", "make_fixtures.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_chain(out_dir: str, fixtures_dir: str = FIXTURES_DIR) -> None:
    """The reference pipeline from scripts/make_fixtures.py."""
    _load_make_fixtures().run_chain(out_dir, fixtures_dir)


def single_thread_env() -> dict[str, str]:
    """Environment for a child interpreter pinned to one BLAS thread.

    The absolute ``src/`` goes first on ``PYTHONPATH``, ahead of any inherited
    entries, so the child imports this tree's ``adexpand`` whatever its working
    directory: a relative ``PYTHONPATH=src`` would resolve against the child's
    cwd, and an installed copy must not shadow the tree under test.
    """
    env = dict(os.environ)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, inherited] if inherited else [SRC_DIR])
    return env


@pytest.fixture(scope="session")
def chain_dir(tmp_path_factory):
    """One full pipeline run shared by CLI, service, and acceptance tests."""
    out_dir = str(tmp_path_factory.mktemp("chain"))
    run_chain(out_dir)
    return out_dir

GOLDEN_KEYWORDS = {
    "US": [
        "led garden lights",
        "outdoor led lights",
        "garden lighting",
        "iphone 13 case",
        "iphone 13 cover",
        "mens running shoes",
        "running shoes",
        "womens sandals",
    ],
    "UK": [
        "ladies winter jumpers",
        "womens winter sweaters",
        "knitted jumpers",
        "solar garden light",
    ],
}

GOLDEN_DIM = 64


def golden_embedding_set(market: str) -> EmbeddingSet:
    pairs = [(text, fallback_embed(text, GOLDEN_DIM)) for text in GOLDEN_KEYWORDS[market]]
    return EmbeddingSet.from_pairs(market, pairs)


def golden_campaigns() -> list[Campaign]:
    return [
        Campaign(
            id="us-lights-1",
            market="US",
            ad_groups=(
                AdGroup(
                    keywords=("led garden lights",),
                    items=(
                        Item(101, "Solar LED Garden Lights 8 Pack Outdoor", 24.99),
                        Item(102, "LED Landscape Light Low Voltage", 59.5),
                    ),
                ),
            ),
        ),
        Campaign(
            id="us-lights-2",
            market="US",
            ad_groups=(
                AdGroup(
                    keywords=("garden lighting", "outdoor led lights"),
                    items=(Item(103, "Outdoor String Lights for Garden Patio", 18.0),),
                ),
            ),
        ),
        Campaign(
            id="us-phone",
            market="US",
            ad_groups=(
                AdGroup(
                    keywords=("iphone 13 case",),
                    items=(
                        Item(104, "Clear Case for iPhone 13 Shockproof", 9.99),
                        Item(105, "iPhone 13 Leather Cover Magsafe", 39.0),
                    ),
                ),
            ),
        ),
        Campaign(
            id="us-shoes",
            market="US",
            ad_groups=(
                AdGroup(
                    keywords=("mens running shoes", "running shoes"),
                    items=(Item(106, "Mens Lightweight Running Shoes Breathable", 74.95),),
                ),
            ),
        ),
        Campaign(
            id="uk-knitwear",
            market="UK",
            ad_groups=(
                AdGroup(
                    keywords=("ladies winter jumpers",),
                    items=(
                        Item(201, "Womens Chunky Knit Winter Jumper Warm", 32.0),
                        Item(202, "Ladies Cable Knit Sweater Crew Neck", 27.5),
                    ),
                ),
            ),
        ),
        Campaign(
            id="uk-garden",
            market="UK",
            ad_groups=(
                AdGroup(
                    keywords=("solar garden light",),
                    items=(Item(203, "Solar Garden Light Stainless Steel 6 Pack", 15.0),),
                ),
            ),
        ),
    ]


def price_step_model(base_score: float = 2.5, step_at_price: float = 50.0) -> StackedModel:
    """Deterministic scorer: expensive items get +1 via the log1p_price feature."""
    threshold = float(np.log1p(step_at_price))
    tree = RegressionTree(
        nodes=[
            TreeNode(feature=3, threshold=threshold, left=1, right=2, value=0.0),
            TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=0.0),
            TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=1.0),
        ],
        max_depth=1,
    )
    base = GbdtModel(base_score=base_score, learning_rate=1.0, n_features=6, trees=[tree])
    return StackedModel(base=base, adjustment=[], adjustment_rate=1.0)


@pytest.fixture
def campaigns():
    return golden_campaigns()
