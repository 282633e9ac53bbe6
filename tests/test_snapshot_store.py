"""Loading a snapshot directory into serving state."""

import builtins
import json
import os
import shutil

import pytest

from adexpand.cli import cli_dispatch
from adexpand.clustering import load_clustering
from adexpand.errors import EmptySetError, ParseError
from adexpand.expansion import load_expansions
from adexpand.matching import load_campaigns
from adexpand.relevance import load_model
from adexpand.snapshot_store import (
    EMBEDDINGS_FILE,
    META_FILE,
    load_market_thresholds,
    load_runtime,
)
from adexpand.thresholds import load_threshold_table


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
    # fallback_embed, which scores every /match, refuses a dim below 16
    pytest.param({"dim": 8}, id="dim-8"),
    pytest.param({"dim": 0}, id="dim-0"),
    pytest.param({"k_neighbors": "100"}, id="string-k"),
    pytest.param({"filters_enabled": "false"}, id="string-filters"),
    pytest.param({"filters_enabled": 0}, id="int-filters"),
    pytest.param({"markets": "US"}, id="string-markets"),
    pytest.param({"markets": ["US", 1]}, id="non-string-market"),
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

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_filters_enabled_is_read_as_given(self, snapshot_copy, value):
        _edit_meta(snapshot_copy, filters_enabled=value)
        assert load_runtime(snapshot_copy).filters_enabled is value

    @pytest.mark.parametrize("changes", BAD_META[:2] + BAD_META[5:7] + BAD_META[-4:])
    def test_match_exits_2(self, snapshot_copy, changes, capsys):
        _edit_meta(snapshot_copy, **changes)
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert "meta.json" in capsys.readouterr().err


def _drop_price(doc):
    del doc["campaigns"][0]["ad_groups"][0]["items"][0]["price"]


def _duplicate_campaign(doc):
    doc["campaigns"].append(doc["campaigns"][0])


def _child_not_after_parent(doc):
    doc["base"]["trees"][0]["nodes"][0][2] = 0  # node 0's left child is itself


def _drop_key(key):
    def edit(doc):
        del doc[key]
    return edit


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _edit_jsonl(path, lineno, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    doc = json.loads(lines[lineno - 1])
    edit(doc)
    lines[lineno - 1] = json.dumps(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _overwrite(text):
    def write(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return write


# (file, loader, how the file is broken, what the error must name)
BAD_FILES = [
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, _drop_price), "'price'", id="campaigns-no-price"),
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, lambda d: d["campaigns"].append([1])), "TypeError",
                 id="campaigns-list-campaign"),
    pytest.param("campaigns.json", load_campaigns, _overwrite("{"), "JSONDecodeError",
                 id="campaigns-bad-json"),
    pytest.param("campaigns.json", load_campaigns, lambda p: _edit_json(p, _duplicate_campaign),
                 "duplicate campaign id", id="campaigns-duplicate-id"),
    pytest.param("model.json", load_model, lambda p: _edit_json(p, _child_not_after_parent),
                 "tree 0 node 0", id="model-child-not-after-parent"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 2, _drop_key("tau_used")), "expansions.jsonl:2",
                 id="expansions-no-tau"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 1, lambda d: d["variants"][0].update(
                     filtered_reason="COLOUR")), "COLOUR", id="expansions-bad-reason"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, _drop_key("M")), "'M'", id="clustering-no-M"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 1, _drop_key("p")), "'p'", id="thresholds-no-p"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, _drop_key("tau_distance")), "'tau_distance'",
                 id="thresholds-row-no-tau"),
    pytest.param("thresholds_US.jsonl", load_threshold_table, _overwrite("\n"), "empty",
                 id="thresholds-empty"),
    pytest.param("market_thresholds.json", load_market_thresholds, _overwrite("[2.5]"),
                 "AttributeError", id="market-thresholds-list"),
    pytest.param("market_thresholds.json", load_market_thresholds,
                 _overwrite('{"US": "high"}'), "ValueError", id="market-thresholds-string"),
    pytest.param("market_thresholds.json", load_market_thresholds,
                 _overwrite('{"UK": 2.5, "US": "0.5"}'), "'US'",
                 id="market-thresholds-numeric-string"),
    pytest.param("market_thresholds.json", load_market_thresholds,
                 _overwrite('{"UK": 2.5, "US": NaN}'), "'US'", id="market-thresholds-nan"),
    pytest.param("market_thresholds.json", load_market_thresholds,
                 _overwrite('{"UK": -Infinity, "US": 2.5}'), "'UK'",
                 id="market-thresholds-infinity"),
    pytest.param("market_thresholds.json", load_market_thresholds,
                 _overwrite('{"UK": true, "US": 2.5}'), "'UK'", id="market-thresholds-bool"),
]


class TestBadArtifactFiles:
    """A missing key, a wrong type or an empty file is a ParseError naming
    the file, never a bare KeyError or IndexError."""

    @pytest.mark.parametrize("name, loader, damage, named", BAD_FILES)
    def test_loader_raises_parse_error(self, snapshot_copy, name, loader, damage, named):
        path = os.path.join(snapshot_copy, name)
        damage(path)
        with pytest.raises(ParseError, match=name) as info:
            loader(path)
        assert named in str(info.value)
        with pytest.raises(ParseError, match=name):
            load_runtime(snapshot_copy)

    @pytest.mark.parametrize("name, loader, damage, named", BAD_FILES)
    def test_match_exits_2(self, snapshot_copy, name, loader, damage, named, capsys):
        damage(os.path.join(snapshot_copy, name))
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        err = capsys.readouterr().err
        assert name in err and named in err


def _header_only(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)


def _halve_centroids(doc):
    doc["centroids"] = [row[: len(row) // 2] for row in doc["centroids"]]
    doc["dim"] = len(doc["centroids"][0])


# Snapshots whose files each parse, but which could not answer /expand:
# (file, how it is broken, what the error must name)
UNSERVABLE = [
    pytest.param("thresholds_US.jsonl", _header_only, "cluster", id="thresholds-header-only"),
    pytest.param("clustering_US.json", lambda p: _edit_json(p, _halve_centroids), "shape",
                 id="centroids-32-of-64"),
    pytest.param(META_FILE, lambda p: _edit_json(p, lambda d: d.update(k_neighbors=0)),
                 "k_neighbors", id="k-neighbors-0"),
    pytest.param(META_FILE, lambda p: _edit_json(p, lambda d: d.update(dim=8)),
                 "'dim'", id="dim-8"),
]


class TestUnservableSnapshot:
    """load_runtime refuses a snapshot that would answer every /expand with
    500, naming the file at fault."""

    @pytest.mark.parametrize("name, damage, named", UNSERVABLE)
    def test_load_raises_parse_error(self, snapshot_copy, name, damage, named):
        damage(os.path.join(snapshot_copy, name))
        with pytest.raises(ParseError, match=name) as info:
            load_runtime(snapshot_copy)
        assert named in str(info.value)

    @pytest.mark.parametrize("name, damage, named", UNSERVABLE)
    def test_match_exits_2(self, snapshot_copy, name, damage, named, capsys):
        damage(os.path.join(snapshot_copy, name))
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert name in capsys.readouterr().err
