"""A byte that is not UTF-8 in any input file ends as a ParseError that names
the file, from every loader and from load_runtime, and as exit 2 from the
CLI with the file in its message."""

import os
import shutil

import pytest

from adexpand.clustering import load_clustering
from adexpand.cli import cli_dispatch
from adexpand.config import load_config
from adexpand.embeddings import load_embedding_sets, read_tsv
from adexpand.errors import ParseError
from adexpand.expansion import load_expansions
from adexpand.matching import load_campaigns
from adexpand.relevance import load_dataset, load_model
from adexpand.reports import load_label_set
from adexpand.snapshot_store import load_market_thresholds, load_runtime
from adexpand.thresholds import load_threshold_table

from conftest import FIXTURES_DIR

SNAPSHOT_FILES = (
    "meta.json", "campaigns.json", "expansions.jsonl", "embeddings.tsv", "model.json",
    "market_thresholds.json", "clustering_US.json", "thresholds_UK.jsonl",
)

# loader -> (the file it reads: in the snapshot, or a fixture, how it is called)
LOADERS = {
    "read_tsv": ("queries.tsv", lambda path: list(read_tsv(path, ("market", "query")))),
    "load_label_set": ("labels.tsv", load_label_set),
    "load_dataset": ("relevance_base.csv", load_dataset),
    "load_config": ("config.json", load_config),
    "load_embedding_sets": ("embeddings.tsv", lambda path: load_embedding_sets(path, ["US"])),
    "load_campaigns": ("campaigns.json", load_campaigns),
    "load_expansions": ("expansions.jsonl", load_expansions),
    "load_clustering": ("clustering_US.json", load_clustering),
    "load_threshold_table": ("thresholds_UK.jsonl", load_threshold_table),
    "load_model": ("model.json", load_model),
    "load_market_thresholds": ("market_thresholds.json", load_market_thresholds),
}


def _spoil(path):
    """Put a 0xFF byte, which no UTF-8 text holds, in the middle of the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    middle = data.index(b"\n", len(data) // 2) + 1
    with open(path, "wb") as fh:
        fh.write(data[:middle] + b"\xff" + data[middle:])


@pytest.fixture
def inputs(chain_dir, tmp_path):
    """The chain's snapshot directory plus the fixture files, copied."""
    snapshot = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), snapshot)
    for name in ("queries.tsv", "labels.tsv", "relevance_base.csv", "config.json"):
        shutil.copyfile(os.path.join(FIXTURES_DIR, name), str(tmp_path / name))
    return snapshot, str(tmp_path)


def _path(inputs, name):
    snapshot, fixtures = inputs
    return os.path.join(snapshot if name in SNAPSHOT_FILES else fixtures, name)


@pytest.mark.parametrize("loader", LOADERS)
def test_loader_names_the_file(inputs, loader):
    name, load = LOADERS[loader]
    path = _path(inputs, name)
    _spoil(path)
    with pytest.raises(ParseError, match="not UTF-8 text: .*can.t decode byte 0xff") as info:
        load(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: ")


@pytest.mark.parametrize("name", SNAPSHOT_FILES)
def test_load_runtime_names_the_file(inputs, name):
    path = _path(inputs, name)
    _spoil(path)
    with pytest.raises(ParseError, match="not UTF-8 text: .*can.t decode byte 0xff") as info:
        load_runtime(inputs[0])
    assert str(info.value).startswith(f"{path}: not UTF-8 text: ")


# CLI argv for each spoiled file: {snapshot} and {fixtures} are the copies
CLI_RUNS = {
    **{name: ["match", "--snapshot", "{snapshot}", "--query", "garden lights", "--market", "US"]
       for name in SNAPSHOT_FILES},
    "queries.tsv": ["match", "--snapshot", "{snapshot}", "--queries", "{fixtures}/queries.tsv"],
    "relevance_base.csv": ["train-base", "--dataset", "{fixtures}/relevance_base.csv",
                           "--trees", "1", "--out", "{fixtures}/base.json"],
    "config.json": ["embed", "--config", "{fixtures}/config.json",
                    "--keywords", "{fixtures}/queries.tsv", "--out", "{fixtures}/emb.tsv"],
}


@pytest.mark.parametrize("name", CLI_RUNS)
def test_cli_exits_2_naming_the_file(inputs, capsys, name):
    path = _path(inputs, name)
    _spoil(path)
    snapshot, fixtures = inputs
    argv = [arg.format(snapshot=snapshot, fixtures=fixtures) for arg in CLI_RUNS[name]]
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert f"{path}: not UTF-8 text: " in err and "decode byte 0xff" in err
