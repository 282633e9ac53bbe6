"""Loading a snapshot directory into serving state."""

import builtins
import json
import os
import shutil

import pytest

from adexpand.cli import cli_dispatch
from adexpand.errors import EmptySetError, ParseError
from adexpand.snapshot_store import EMBEDDINGS_FILE, META_FILE, load_runtime


@pytest.fixture
def snapshot_copy(chain_dir, tmp_path):
    dst = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), dst)
    return dst


def _edit_meta(snapshot_dir, **changes):
    path = os.path.join(snapshot_dir, META_FILE)
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh)
    meta.update(changes)
    for key in [k for k, v in meta.items() if v is None]:
        del meta[key]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


class TestLoadRuntime:
    def test_reads_embeddings_once(self, snapshot_copy, monkeypatch):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.basename(str(file)))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        bundle = load_runtime(snapshot_copy)
        assert sorted(bundle.contexts) == ["UK", "US"]
        assert opened.count(EMBEDDINGS_FILE) == 1

    def test_markets_default_to_first_seen_order(self, snapshot_copy):
        path = os.path.join(snapshot_copy, EMBEDDINGS_FILE)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        assert lines[0].startswith("UK\t")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(sorted(lines, key=lambda line: not line.startswith("US\t")))
        _edit_meta(snapshot_copy, markets=None)
        assert list(load_runtime(snapshot_copy).contexts) == ["US", "UK"]

    def test_listed_market_without_rows_is_empty(self, snapshot_copy):
        _edit_meta(snapshot_copy, markets=["UK", "US", "DE"])
        with pytest.raises(EmptySetError, match="DE"):
            load_runtime(snapshot_copy)


BAD_META = [
    pytest.param({"version": None}, id="no-version"),
    pytest.param({"version": "1"}, id="string-version"),
    pytest.param({"version": 1.5}, id="float-version"),
    pytest.param({"dim": None}, id="no-dim"),
    pytest.param({"dim": True}, id="bool-dim"),
    pytest.param({"k_neighbors": "100"}, id="string-k"),
]


class TestBadMeta:
    @pytest.mark.parametrize("changes", BAD_META)
    def test_load_raises_parse_error(self, snapshot_copy, changes):
        _edit_meta(snapshot_copy, **changes)
        with pytest.raises(ParseError, match="meta.json"):
            load_runtime(snapshot_copy)

    def test_non_object_meta(self, snapshot_copy):
        with open(os.path.join(snapshot_copy, META_FILE), "w", encoding="utf-8") as fh:
            fh.write("[1, 2]")
        with pytest.raises(ParseError, match="meta.json"):
            load_runtime(snapshot_copy)

    @pytest.mark.parametrize("changes", BAD_META[:2])
    def test_match_exits_2(self, snapshot_copy, changes, capsys):
        _edit_meta(snapshot_copy, **changes)
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert "meta.json" in capsys.readouterr().err
