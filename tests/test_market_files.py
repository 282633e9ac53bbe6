"""A per-market file is used only for the market it belongs to, and a
threshold table with no cluster rows is refused by name."""

import json
import os
import shutil

import pytest

from adexpand.cli import cli_dispatch
from adexpand.errors import ParseError
from adexpand.snapshot_store import load_runtime

from conftest import FIXTURES_DIR


def _chain(chain_dir, name):
    return os.path.join(chain_dir, name)


def _argv(chain_dir, tmp_path, command, clustering, thresholds="thresholds_US.jsonl"):
    common = ["--embeddings", _chain(chain_dir, "embeddings.tsv"), "--market", "US",
              "--clustering", _chain(chain_dir, clustering)]
    if command == "thresholds":
        return ["thresholds", *common, "--quantile-pct", "99", "--min-cluster-size", "3",
                "--out", str(tmp_path / "t.jsonl")]
    if command == "expand":
        return ["expand", *common, "--thresholds", _chain(chain_dir, thresholds),
                "--k-neighbors", "11", "--keyword", "led garden lights"]
    return ["sweep-tpr", *common, "--labels", os.path.join(FIXTURES_DIR, "labels.tsv"),
            "--p-list", "95", "--k-neighbors", "11", "--out", str(tmp_path / "tpr.csv")]


class TestCliMarketMismatch:
    @pytest.mark.parametrize("command", ["thresholds", "expand", "sweep-tpr"])
    def test_matching_files_run(self, chain_dir, tmp_path, command, capsys):
        assert cli_dispatch(_argv(chain_dir, tmp_path, command, "clustering_US.json")) == 0

    @pytest.mark.parametrize("command", ["thresholds", "expand", "sweep-tpr"])
    def test_other_markets_clustering_exits_2(self, chain_dir, tmp_path, command, capsys):
        assert cli_dispatch(_argv(chain_dir, tmp_path, command, "clustering_UK.json")) == 2
        err = capsys.readouterr().err
        assert "clustering_UK.json" in err and "'UK'" in err and "'US'" in err

    def test_other_markets_thresholds_exits_2(self, chain_dir, tmp_path, capsys):
        argv = _argv(chain_dir, tmp_path, "expand", "clustering_US.json",
                     thresholds="thresholds_UK.jsonl")
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "thresholds_UK.jsonl" in err and "'UK'" in err and "'US'" in err


def _swap(snapshot_dir, a, b):
    pa, pb = os.path.join(snapshot_dir, a), os.path.join(snapshot_dir, b)
    tmp = pa + ".swap"
    os.replace(pa, tmp)
    os.replace(pb, pa)
    os.replace(tmp, pb)


class TestSnapshotMarketMismatch:
    @pytest.mark.parametrize("first, second", [
        ("clustering_US.json", "clustering_UK.json"),
        ("thresholds_US.jsonl", "thresholds_UK.jsonl"),
    ])
    def test_swapped_files_refused(self, chain_dir, tmp_path, first, second, capsys):
        snapshot = str(tmp_path / "snapshot")
        shutil.copytree(os.path.join(chain_dir, "snapshot"), snapshot)
        _swap(snapshot, first, second)
        with pytest.raises(ParseError) as info:
            load_runtime(snapshot)
        message = str(info.value)
        assert ("_UK." in message or "_US." in message) and "'UK'" in message
        assert "'US'" in message
        assert cli_dispatch([
            "match", "--snapshot", snapshot, "--query", "solar garden lights", "--market", "US",
        ]) == 2


class TestHeaderOnlyThresholdReport:
    def test_exits_2_naming_the_file(self, chain_dir, tmp_path, capsys):
        table = tmp_path / "thresholds_US.jsonl"
        with open(_chain(chain_dir, "thresholds_US.jsonl"), encoding="utf-8") as fh:
            table.write_text(fh.readline(), encoding="utf-8")
        assert cli_dispatch([
            "threshold-report", "--thresholds", str(table),
            "--out", str(tmp_path / "report.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert str(table) in err and "no cluster rows" in err
        assert not (tmp_path / "report.csv").exists()


class TestExpandChecksItsFiles:
    """The offline ``expand`` checks its clustering and threshold table as a
    snapshot load does, naming the file at fault."""

    def _expand(self, chain_dir, clustering, thresholds):
        return cli_dispatch([
            "expand", "--embeddings", _chain(chain_dir, "embeddings.tsv"), "--market", "US",
            "--clustering", clustering, "--thresholds", thresholds,
            "--k-neighbors", "11", "--keyword", "led garden lights",
        ])

    def test_header_only_table_exits_2(self, chain_dir, tmp_path, capsys):
        table = tmp_path / "thresholds_US.jsonl"
        with open(_chain(chain_dir, "thresholds_US.jsonl"), encoding="utf-8") as fh:
            table.write_text(fh.readline(), encoding="utf-8")
        assert self._expand(chain_dir, _chain(chain_dir, "clustering_US.json"), str(table)) == 2
        err = capsys.readouterr().err
        assert str(table) in err and "expected a row for each cluster" in err

    def test_centroids_of_another_dim_exit_2(self, chain_dir, tmp_path, capsys):
        clustering = tmp_path / "clustering_US.json"
        with open(_chain(chain_dir, "clustering_US.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["centroids"] = [row[:32] for row in doc["centroids"]]
        doc["dim"] = 32
        clustering.write_text(json.dumps(doc), encoding="utf-8")
        thresholds = _chain(chain_dir, "thresholds_US.jsonl")
        assert self._expand(chain_dir, str(clustering), thresholds) == 2
        err = capsys.readouterr().err
        assert str(clustering) in err and "shape" in err


# Clustering files that do not fit themselves or the market's embeddings:
# (how the file is broken, what the error says)
BAD_CLUSTERINGS = [
    pytest.param(lambda d: d.update(M=5), "'centroids' must be 'M' by 'dim', (5, 64), got (2, 64)",
                 id="M-5-over-2-centroids"),
    pytest.param(lambda d: d.update(centroids=[row[:32] for row in d["centroids"]], dim=32),
                 "centroids must have shape (2, 64) (clusters, embedding dim), got (2, 32)",
                 id="centroids-32-of-64"),
]


class TestClusteringCheckedAgainstEmbeddings:
    """Every command that reads a clustering file checks it against the
    market's embeddings, as a snapshot load does."""

    @pytest.mark.parametrize("command", ["thresholds", "expand", "sweep-tpr"])
    @pytest.mark.parametrize("edit, message", BAD_CLUSTERINGS)
    def test_exits_2_naming_the_file(self, chain_dir, tmp_path, command, edit, message, capsys):
        clustering = tmp_path / "clustering_US.json"
        with open(_chain(chain_dir, "clustering_US.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        clustering.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_dispatch(_argv(chain_dir, tmp_path, command, str(clustering))) == 2
        err = capsys.readouterr().err
        assert str(clustering) in err and message in err
        assert sorted(os.listdir(tmp_path)) == ["clustering_US.json"]
