"""Every file loader, fed arbitrary bytes, returns or raises an AdexpandError
whose message names the file. Bad input never escapes as a bare KeyError,
ValueError or numpy error, which the CLI would report as a bug (exit 3).

Each loader's bytes are drawn either at random or as a valid sample file
with a few spans cut out or overwritten, some with tokens that parsers meet
at their limits (NaN, 1e999, a 400-digit number, a byte that is not UTF-8),
so that most examples get past the first line.
"""

import copy
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand.clustering import load_clustering
from adexpand.config import load_config
from adexpand.embeddings import load_embedding_sets, read_tsv
from adexpand.errors import AdexpandError, ParseError
from adexpand.expansion import load_expansions
from adexpand.matching import load_campaigns
from adexpand.relevance import load_dataset, load_model
from adexpand.reports import load_label_set
from adexpand.snapshot_store import load_market_thresholds
from adexpand.thresholds import load_threshold_table

# loader name -> (the loader called on a path, a valid sample file)
LOADERS = {
    "read_tsv": (lambda path: list(read_tsv(path, ("market", "keyword"))),
                 "US\tled lights\n# note\nUK\tjumpers\n"),
    "load_embedding_sets": (lambda path: load_embedding_sets(path, ["US", "UK"]),
                            "US\ta\t1 0 0\nUS\tb\t0 1 0.5\nUK\tc\t0 0 1\n"),
    "load_config": (load_config, '{"parameters": {"dim": 32, "learning_rate": 0.5}}\n'),
    "load_dataset": (load_dataset, "a,b,label\n1,2,3\n0.5,1e3,4\n"),
    "load_label_set": (load_label_set, "a\tb\t1\nc\td\t0\n"),
    "load_campaigns": (load_campaigns, (
        '{"campaigns": [{"id": "c1", "market": "US", "ad_groups": [{"keywords": ["led"],'
        ' "items": [{"id": 1, "title": "lamp", "price": 9.5}]}]}]}\n')),
    "load_expansions": (load_expansions, (
        '{"cluster": 0, "origin": {"id": 0, "market": "US", "text": "a"}, "tau_used": 0.5,'
        ' "variants": [{"distance": 0.1, "keyword": {"id": 1, "market": "US", "text": "b"},'
        ' "similarity": 0.9}, {"distance": 0.2, "filtered_reason": "GENDER",'
        ' "keyword": {"id": 2, "market": "US", "text": "c"}, "similarity": 0.8}]}\n')),
    "load_model": (load_model, (
        '{"kind": "stacked", "adjustment_rate": 1.0, "adjustment": [{"max_depth": 1,'
        ' "nodes": [[0, 0.5, 1, 2, 0.0], [-1, 0, -1, -1, 1.0], [-1, 0, -1, -1, 2.0]]}],'
        ' "base": {"kind": "gbdt", "base_score": 1.0, "learning_rate": 0.1, "n_features": 2,'
        ' "trees": [{"max_depth": 0, "nodes": [[-1, 0, -1, -1, 0.5]]}]}}\n')),
    "load_clustering": (load_clustering, (
        '{"M": 2, "assignments": {"0": 0, "1": 1}, "centroids": [[1, 0], [0, 1]], "dim": 2,'
        ' "market": "US"}\n')),
    "load_threshold_table": (load_threshold_table, (
        '{"fallback_tau": 0.5, "min_cluster_size": 3, "p": 0.99}\n'
        '{"cluster_id": 0, "fallback": false, "market": "US", "size": 6,'
        ' "tau_distance": 0.5, "tau_similarity": 0.5}\n')),
    "load_market_thresholds": (load_market_thresholds, '{"UK": 0.5, "US": 2}\n'),
}

_TOKENS = st.sampled_from([
    b"NaN", b"Infinity", b"-1e999", b"1e999", b"9" * 400, b"null", b"true", b"[]", b"{}",
    b'"', b",", b":", b"\t", b"\n", b"\r", b"#", b" ", b"-1", b"0", b"\x00", b"\xff", b"\xc3",
    b"[[[[[[[[[[", b"1_000", b"\xd9\xa3",
])


@st.composite
def _damaged(draw, sample: bytes) -> bytes:
    """``sample`` with one to four spans each replaced by a token or by random
    bytes."""
    data = bytearray(sample)
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        end = start + draw(st.integers(0, 6))
        data[start:end] = draw(_TOKENS | st.binary(max_size=4))
    return bytes(data)


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_returns_or_raises_naming_the_file(name, data):
    loader, sample = LOADERS[name]
    content = data.draw(st.binary(max_size=64) | _damaged(sample.encode("utf-8")),
                        label="content")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            loader(path)
        except AdexpandError as exc:
            assert path in str(exc)


@pytest.mark.parametrize("name", LOADERS)
def test_sample_loads(name):
    """Each sample is a valid file, so damage to it reaches past the first
    check."""
    loader, sample = LOADERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sample)
        loader(path)


# The loaders whose sample is a JSON document, or JSON lines
JSON_LOADERS = ["load_config", "load_campaigns", "load_expansions", "load_model",
                "load_clustering", "load_threshold_table", "load_market_thresholds"]
# one value of each JSON kind but a number
_OTHER_KINDS = [None, True, "x", [], {}]


def _kind(value):
    return "number" if type(value) in (int, float) else type(value)


def _paths(doc, keys=()):
    """The keys of every value in the document, the document itself first."""
    yield keys
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, keys + (key,))


def _type_swaps(sample: str):
    """(line, keys, value, text) for each copy of the sample with one value,
    at any depth of any line, replaced by a value of another JSON kind."""
    lines = sample.splitlines()
    for n, line in enumerate(lines):
        doc = json.loads(line)
        for keys in _paths(doc):
            for value in _OTHER_KINDS:
                swapped = copy.deepcopy(doc)
                if not keys:
                    old, swapped = swapped, value
                else:
                    node = swapped
                    for key in keys[:-1]:
                        node = node[key]
                    old, node[keys[-1]] = node[keys[-1]], value
                if _kind(old) != _kind(value):
                    text = lines[:n] + [json.dumps(swapped)] + lines[n + 1:]
                    yield n + 1, keys, value, "\n".join(text) + "\n"


@pytest.mark.parametrize("name", JSON_LOADERS)
def test_value_of_another_kind_is_refused(name):
    """Every key is read with its JSON kind: any value in a valid sample
    replaced by one of another kind (a string for a number, a list for an
    object, null for anything) is a ParseError naming the file, never a
    wrong value loaded."""
    loader, sample = LOADERS[name]
    loaded = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        for line, keys, value, text in _type_swaps(sample):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                loader(path)
                loaded.append((line, keys, value))
            except ParseError as exc:
                assert path in str(exc)
    assert loaded == []
