"""Byte pins for the fixture chain's artifacts that no golden file covers.

``fixtures/golden/`` pins the chain's expansions, matches and US cutoff
table. The files below feed those only indirectly: the fallback embedder
writes ``embeddings.tsv``, the split search fits both models, and the
tuner reads the stacked model's scores. Their sha256 were recorded at
commit 191885f, before ``fallback_embed`` hashed ASCII text in whole-array
passes and ``_best_split`` scored each feature's splits as one vector, and
the same under one BLAS thread and the default thread count. A change to
either kernel must leave every byte as it was.
"""

import hashlib
import os

import pytest

PINNED = {
    "embeddings.tsv": "3583d19e7b25ebc1d5bc8b82cd2d6b2d33e61d33ff5b26f4e71ad46141f0b8fc",
    "base_model.json": "f78d0ee3ded9110694c43b310c711c44c87d84e682679a1cc988c1c560e5a49c",
    "stacked_model.json": "5fb9b6b9229d713f98b9b4ddb0dffacdc7df1be4ced4e9a25a3fe2927c7a7ad1",
    "market_thresholds.json": "bc94f16c163a4023c0b70b80bfb0e4d8a78e629079f2bc6f623d08145344b619",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_chain_artifact_is_pinned(chain_dir, name):
    with open(os.path.join(chain_dir, name), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == PINNED[name]
