"""Values no writer produces end as a ParseError that names the file, from
every loader and from load_runtime, and as exit 2 from the CLI, never as
exit 3 (internal error): a number too large for int() or float() (1e999, or
400 digits), a document nested deeper than the JSON parser recurses, a CSV
cell over the csv module's field limit, and any JSON value put in place of
one value of a snapshot file."""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand.cli import cli_dispatch
from adexpand.clustering import load_clustering
from adexpand.config import load_config
from adexpand.errors import EmptySetError, ParseError
from adexpand.expansion import load_expansions
from adexpand.matching import load_campaigns
from adexpand.relevance import load_dataset, load_model
from adexpand.snapshot_store import load_market_thresholds, load_runtime
from adexpand.thresholds import load_threshold_table

from conftest import FIXTURES_DIR

# each JSON file of a snapshot, and what reads it alone
SNAPSHOT_LOADERS = {
    "meta.json": lambda path: load_runtime(os.path.dirname(path)),
    "campaigns.json": load_campaigns,
    "expansions.jsonl": load_expansions,
    "clustering_US.json": load_clustering,
    "thresholds_UK.jsonl": load_threshold_table,
    "model.json": load_model,
    "market_thresholds.json": load_market_thresholds,
}

HUGE_INT = "1" + "0" * 400  # int() takes it; float() overflows
MATCH = ["match", "--snapshot", "{snapshot}", "--query", "solar garden lights", "--market", "US"]

# A text that no JSON document holds; a value set to it is spliced in raw.
_SLOT = "@@raw@@"


def _splice(path, keys, raw, line=None):
    """Put the JSON text ``raw`` at ``keys`` of the file's document, or of
    its ``line``-th line (from 1) for a JSON-lines file; an empty ``keys``
    replaces the whole document."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    text = "".join(lines) if line is None else lines[line - 1]
    doc = json.loads(text)
    if keys:
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = _SLOT
        new = json.dumps(doc).replace(json.dumps(_SLOT), raw)
    else:
        new = raw
    if line is None:
        lines = [new]
    else:
        lines[line - 1] = new + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@pytest.fixture
def snapshot_copy(chain_dir, tmp_path):
    dst = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), dst)
    return dst


def _check_refused(snapshot, name, capsys):
    """The file's loader and load_runtime raise a ParseError that starts
    with its path, and match exits 2 naming it."""
    path = os.path.join(snapshot, name)
    with pytest.raises(ParseError) as info:
        SNAPSHOT_LOADERS[name](path)
    assert str(info.value).startswith(f"{path}:")
    with pytest.raises(ParseError) as info:
        load_runtime(snapshot)
    assert str(info.value).startswith(f"{path}:")
    capsys.readouterr()
    assert cli_dispatch([arg.format(snapshot=snapshot) for arg in MATCH]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:")


# (file, JSON-lines line or None, keys, raw value) for an int() or float()
# field given a number it cannot hold
OVERFLOWS = {
    "campaigns-item-id": ("campaigns.json", None,
                          ("campaigns", 0, "ad_groups", 0, "items", 0, "id"), "1e999"),
    "campaigns-price": ("campaigns.json", None,
                        ("campaigns", 0, "ad_groups", 0, "items", 0, "price"), HUGE_INT),
    "expansions-origin-id": ("expansions.jsonl", 1, ("origin", "id"), "1e999"),
    "expansions-distance": ("expansions.jsonl", 1, ("variants", 0, "distance"), HUGE_INT),
    "clustering-M": ("clustering_US.json", None, ("M",), "1e999"),
    "clustering-assignment": ("clustering_US.json", None, ("assignments", "0"), "-1e999"),
    "thresholds-cluster-id": ("thresholds_UK.jsonl", 2, ("cluster_id",), "1e999"),
    "thresholds-p": ("thresholds_UK.jsonl", 1, ("p",), HUGE_INT),
    "model-n-features": ("model.json", None, ("base", "n_features"), "1e999"),
    "model-node-threshold": ("model.json", None, ("base", "trees", 0, "nodes", 0, 1), HUGE_INT),
    "market-thresholds": ("market_thresholds.json", None, ("US",), HUGE_INT),
    "meta-k-neighbors": ("meta.json", None, ("k_neighbors",), "1e999"),
}


@pytest.mark.parametrize("case", OVERFLOWS)
def test_number_too_large_is_refused(snapshot_copy, capsys, case):
    name, line, keys, raw = OVERFLOWS[case]
    _splice(os.path.join(snapshot_copy, name), keys, raw, line)
    _check_refused(snapshot_copy, name, capsys)


DEEP = "[" * 100_000


@pytest.mark.parametrize("name", SNAPSHOT_LOADERS)
def test_deep_nesting_is_refused(snapshot_copy, capsys, name):
    with open(os.path.join(snapshot_copy, name), "w", encoding="utf-8") as fh:
        fh.write(DEEP)
    _check_refused(snapshot_copy, name, capsys)


def test_deep_config_is_refused(tmp_path, capsys):
    path = str(tmp_path / "deep.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DEEP)
    with pytest.raises(ParseError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}:")
    argv = ["train-base", "--config", path, "--dataset",
            os.path.join(FIXTURES_DIR, "relevance_base.csv"), "--out", str(tmp_path / "b.json")]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:")


def test_oversized_csv_cell_is_refused(tmp_path, capsys):
    path = str(tmp_path / "big.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,label\n0.5,1\n" + "1" * 140_000 + ",1\n")
    with pytest.raises(ParseError, match="field larger than field limit") as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:3: ")
    argv = ["train-base", "--dataset", path, "--trees", "1", "--out", str(tmp_path / "b.json")]
    assert cli_dispatch(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:3: ")


def _value_paths(doc, keys=()):
    """The keys of every value in the document, the document itself first."""
    yield keys
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _value_paths(value, keys + (key,))


# Any JSON value, as text: numbers no field can hold, the non-standard
# constants Python's parser accepts, and nested containers. Integers stay
# small, since a snapshot's dim sizes every query's embedding.
_RAW_VALUES = st.one_of(
    st.sampled_from(["1e999", "-1e999", HUGE_INT, "-" + "9" * 400, "NaN", "Infinity",
                     "-Infinity", "1e-400", "[[[[[]]]]]"]),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-1e3, 1e3)
        | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                     max_size=3),
        max_leaves=6,
    ).map(json.dumps),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_value_swapped_loads_or_is_refused(chain_dir, data):
    """The file's loader returns or raises a ParseError that starts with the
    file's path; match exits 0 or 2, and 2 when the loader refused."""
    name = data.draw(st.sampled_from(sorted(SNAPSHOT_LOADERS)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "snapshot")
        shutil.copytree(os.path.join(chain_dir, "snapshot"), snapshot)
        path = os.path.join(snapshot, name)
        line = None
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        if name.endswith(".jsonl"):
            line = data.draw(st.integers(1, len(lines)), label="line")
        doc = json.loads("".join(lines) if line is None else lines[line - 1])
        keys = data.draw(st.sampled_from(list(_value_paths(doc))), label="keys")
        _splice(path, keys, data.draw(_RAW_VALUES, label="value"), line)
        try:
            SNAPSHOT_LOADERS[name](path)
            refused = None
        except EmptySetError:
            # meta.json alone may be well formed and list a market that
            # embeddings.tsv has no rows for (test_snapshot_store)
            assert name == "meta.json"
            refused = "no rows"
        except ParseError as exc:
            refused = str(exc)
            assert refused.startswith(f"{path}:"), refused
        code = cli_dispatch([arg.format(snapshot=snapshot) for arg in MATCH])
        assert code in (0, 2)
        assert refused is None or code == 2
