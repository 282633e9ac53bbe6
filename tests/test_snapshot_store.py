"""Loading a snapshot directory into serving state."""

import builtins
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adexpand.cli import cli_dispatch
from adexpand.clustering import load_clustering
from adexpand.errors import DanglingReferenceError, EmptySetError, ParseError
from adexpand.expansion import expand_text, load_expansions
from adexpand.matching import load_campaigns
from adexpand.relevance import load_model
from adexpand.snapshot_store import (
    CAMPAIGNS_FILE,
    EMBEDDINGS_FILE,
    EXPANSIONS_FILE,
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
    def test_boolean_filters_enabled_is_read_as_given(self, snapshot_copy, value, capsys):
        # the filters always run: true loads, and a snapshot that asks for
        # none is refused, by load_runtime and by match (exit 2)
        _edit_meta(snapshot_copy, filters_enabled=value)
        if value:
            assert load_runtime(snapshot_copy).version == 1
            return
        with pytest.raises(ParseError, match="meta.json: 'filters_enabled' must be true"):
            load_runtime(snapshot_copy)
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert "meta.json: 'filters_enabled' must be true" in capsys.readouterr().err

    @pytest.mark.parametrize("changes", BAD_META[:2] + BAD_META[5:7] + BAD_META[-4:])
    def test_match_exits_2(self, snapshot_copy, changes, capsys):
        _edit_meta(snapshot_copy, **changes)
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert "meta.json" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [65, 10**400], ids=["dim-65", "dim-10**400"])
    def test_dim_must_be_the_embeddings_dim(self, snapshot_copy, dim, capsys):
        # dim sizes the fallback vector of every query and title that /match
        # scores: another dim would serve other scores, a huge one fail later
        meta_path = os.path.join(snapshot_copy, META_FILE)
        _edit_meta(snapshot_copy, dim=dim)
        message = f"{meta_path}: 'dim' must equal the dim of {EMBEDDINGS_FILE}, 64, got {dim}"
        with pytest.raises(ParseError) as info:
            load_runtime(snapshot_copy)
        assert str(info.value) == message
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("changes, named", [
        pytest.param({"k_neighbors": None}, "missing 'k_neighbors'", id="no-k"),
        pytest.param({"filters_enabled": None}, "missing 'filters_enabled'", id="no-filters"),
        pytest.param({"markets": None}, "missing 'markets'", id="no-markets"),
        pytest.param({"markets": []},
                     "'markets' must be a non-empty list of strings, got []", id="empty-markets"),
    ])
    def test_every_written_key_is_required(self, snapshot_copy, changes, named, capsys):
        # meta.json is read as write_snapshot_dir writes it: every key, and
        # at least one market
        meta_path = os.path.join(snapshot_copy, META_FILE)
        _edit_meta(snapshot_copy, **changes)
        with pytest.raises(ParseError) as info:
            load_runtime(snapshot_copy)
        assert str(info.value) == f"{meta_path}: {named}"
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert f"{meta_path}: {named}" in capsys.readouterr().err


def _drop_led_garden_lights(doc):
    for campaign in doc["campaigns"]:
        for group in campaign["ad_groups"]:
            group["keywords"] = [k for k in group["keywords"] if k != "led garden lights"]


class TestDanglingOrigin:
    """An expansion whose origin no campaign declares is refused naming
    both files, since either may be the one at fault."""

    def test_load_and_match_name_both_files(self, snapshot_copy, capsys):
        _edit_json(os.path.join(snapshot_copy, CAMPAIGNS_FILE), _drop_led_garden_lights)
        message = (
            f"{os.path.join(snapshot_copy, EXPANSIONS_FILE)}: expansion origin"
            f" 'led garden lights' (US) is not in any campaign of"
            f" {os.path.join(snapshot_copy, CAMPAIGNS_FILE)}"
        )
        with pytest.raises(DanglingReferenceError) as info:
            load_runtime(snapshot_copy)
        assert str(info.value) == message
        assert cli_dispatch([
            "match", "--snapshot", snapshot_copy,
            "--query", "solar garden lights", "--market", "US",
        ]) == 2
        assert f"error: {message}" in capsys.readouterr().err


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


def _break_rejected(edit):
    """Apply ``edit`` to line 3's first variant, one the filters rejected."""
    def edit_line(doc):
        variant = doc["variants"][0]
        assert "filtered_reason" in variant
        edit(variant)
    return lambda path: _edit_jsonl(path, 3, edit_line)


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
    # a market or keyword that is not a string would meet sorting and
    # tokenising as an internal error
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, lambda d: d["campaigns"][0].update(market=5)),
                 "'market' must be a string, got 5", id="campaigns-numeric-market"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 1, lambda d: d["variants"][0]["keyword"].update(text=5)),
                 "'text' must be a string, got 5", id="expansions-numeric-text"),
    pytest.param("model.json", load_model, lambda p: _edit_json(p, _child_not_after_parent),
                 "tree 0 node 0", id="model-child-not-after-parent"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 2, _drop_key("tau_used")), "expansions.jsonl:2",
                 id="expansions-no-tau"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 1, lambda d: d["variants"][0].update(
                     filtered_reason="COLOUR")), "COLOUR", id="expansions-bad-reason"),
    # a rejected variant files nothing in the index, and meets the same
    # checks as an accepted one
    pytest.param("expansions.jsonl", load_expansions,
                 _break_rejected(lambda v: v.update(filtered_reason="COLOUR")),
                 "expansions.jsonl:3: malformed expansion record:"
                 " ValueError: 'COLOUR' is not a valid FilterReason",
                 id="expansions-rejected-bad-reason"),
    pytest.param("expansions.jsonl", load_expansions,
                 _break_rejected(lambda v: v["keyword"].update(text=5)),
                 "expansions.jsonl:3: malformed expansion record:"
                 " TypeError: 'text' must be a string, got 5",
                 id="expansions-rejected-numeric-text"),
    pytest.param("expansions.jsonl", load_expansions, _break_rejected(lambda v: v.pop("distance")),
                 "expansions.jsonl:3: malformed expansion record: missing key 'distance'",
                 id="expansions-rejected-no-distance"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, _drop_key("M")), "'M'", id="clustering-no-M"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 1, _drop_key("p")), "'p'", id="thresholds-no-p"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, _drop_key("tau_distance")), "'tau_distance'",
                 id="thresholds-row-no-tau"),
    pytest.param("thresholds_US.jsonl", load_threshold_table, _overwrite("\n"), "empty",
                 id="thresholds-empty"),
    # a NaN or infinite cutoff would admit every neighbour
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(tau_distance=float("nan"))),
                 "'tau_distance' must be finite, got nan", id="thresholds-tau-distance-nan"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 3, lambda d: d.update(tau_similarity=-float("inf"))),
                 "'tau_similarity' must be finite, got -inf",
                 id="thresholds-tau-similarity-infinity"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 1, lambda d: d.update(p=float("inf"))),
                 "'p' must be finite, got inf", id="thresholds-p-infinity"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 1, lambda d: d.update(fallback_tau=float("nan"))),
                 "'fallback_tau' must be finite, got nan", id="thresholds-fallback-nan"),
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
    # a threshold is a number: no value turns a market's filtering off
    pytest.param("market_thresholds.json", load_market_thresholds,
                 _overwrite('{"UK": 2.5, "US": null}'), "market 'US': None is not a finite number",
                 id="market-thresholds-null"),
]


def _set(path, value):
    """An edit that sets the value at ``path``, a list of keys and indices."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _accepted_similarity_nan(doc):
    variant = doc["variants"][0]
    assert "filtered_reason" not in variant
    variant["similarity"] = float("nan")


# Numbers JSON parses to floats that are not finite (NaN, Infinity, 1e999):
# each would pass the loader's other checks and then give NaN scores, send
# every keyword to one cluster or every row down one branch.
# (file, loader, how the file is broken, what the error must name)
NON_FINITE = [
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, _set(["campaigns", 0, "ad_groups", 0, "items", 0,
                                               "price"], float("nan"))),
                 "'price' must be finite, got nan", id="campaigns-price-nan"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["base", "base_score"], float("nan"))),
                 "'base_score' must be finite, got nan", id="model-base-score-nan"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["base", "learning_rate"], float("inf"))),
                 "'learning_rate' must be finite, got inf", id="model-learning-rate-infinity"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["adjustment_rate"], -float("inf"))),
                 "'adjustment_rate' must be finite, got -inf", id="model-adjustment-rate-infinity"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["base", "trees", 0, "nodes", 0, 1], float("nan"))),
                 "'threshold' must be finite, got nan", id="model-split-threshold-nan"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 1, _accepted_similarity_nan),
                 "expansions.jsonl:1: malformed expansion record:"
                 " ValueError: 'similarity' must be finite, got nan",
                 id="expansions-accepted-similarity-nan"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, _set(["centroids", 1, 0], float("nan"))),
                 "'centroids'[1][0] must be finite, got nan", id="clustering-centroid-nan"),
]
BAD_FILES += NON_FINITE


def _append_row(lineno):
    """Append a copy of line ``lineno``, a row, with another cutoff."""
    def edit(path):
        with open(path, encoding="utf-8") as fh:
            row = json.loads(fh.readlines()[lineno - 1])
        row.update(tau_distance=0.0, tau_similarity=1.0)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
    return edit


def _assignments(edit):
    """``edit(assignments, n)`` applied to a clustering that assigns n keywords."""
    return lambda path: _edit_json(path, lambda d: edit(d["assignments"], len(d["assignments"])))


# A threshold table holds one market and one row per cluster, and a
# clustering assigns each keyword of its market once; each is refused at
# load, not left to a later lookup or a last-row-wins read.
# (file, loader, how the file is broken, what the error must name)
ONE_EACH = [
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(market="UK")),
                 "a row of market 'US' after rows of 'UK'", id="thresholds-two-markets"),
    pytest.param("thresholds_US.jsonl", load_threshold_table, _append_row(3),
                 "cluster 1 has two rows", id="thresholds-cluster-twice"),
    pytest.param("clustering_US.json", load_clustering,
                 _assignments(lambda a, n: a.update({"01": 0})),
                 "'assignments' must name", id="clustering-row-twice"),
    pytest.param("clustering_US.json", load_clustering,
                 _assignments(lambda a, n: a.update({str(n): a.pop(str(n - 1))})),
                 "'assignments' must name", id="clustering-row-n"),
]
BAD_FILES += ONE_EACH


def _rename_row(old, new):
    """Name the assignment of row ``old`` ``new`` instead."""
    return _assignments(lambda a, n: a.update({new: a.pop(old)}))


# A clustering that loads can answer: each centroid has a direction (a zero
# one has none, and one whose norm overflows would be scaled to zero), and
# each assignment key is a row in ASCII digits, as a Content-Length is read.
# (file, loader, how the file is broken, what the error must name)
NO_ANSWER = [
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, _set(["centroids", 1], [0.0] * 64)),
                 "'centroids': centroid has zero norm", id="clustering-centroid-zero"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, _set(["centroids", 0], [1e200] * 64)),
                 "'centroids': vector norm overflows", id="clustering-centroid-norm-overflows"),
    pytest.param("clustering_US.json", load_clustering, _rename_row("0", " +0"),
                 "'assignments' must name", id="clustering-row-signed"),
    pytest.param("clustering_US.json", load_clustering, _rename_row("1", "0_1"),
                 "'assignments' must name", id="clustering-row-underscore"),
    pytest.param("clustering_US.json", load_clustering, _rename_row("2", "\u0662"),
                 "'assignments' must name", id="clustering-row-arabic-indic-digit"),
]
BAD_FILES += NO_ANSWER


def _item(key, value):
    return lambda p: _edit_json(p, _set(["campaigns", 0, "ad_groups", 0, "items", 0, key], value))


def _variant(edit, lineno=1):
    """Apply ``edit`` to line ``lineno``'s first variant."""
    return lambda p: _edit_jsonl(p, lineno, lambda d: edit(d["variants"][0]))


def _add_to_similarity(variant):
    variant["similarity"] += 0.125


# Values of another JSON kind than the one a key holds, a fractional integer
# and a derived value that disagrees with its source: each loaded, as a
# wrong value, before every key was read with its kind. Each is refused at
# load, naming the file and the key.
# (file, loader, how the file is broken, what the error must name)
MISTYPED = [
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, _set(["campaigns", 0, "ad_groups", 0, "keywords"], "abc")),
                 "'keywords' must be a list, got 'abc'", id="campaigns-keywords-string"),
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, _set(["campaigns", 0, "ad_groups", 0, "keywords"],
                                              [None, 5])),
                 "'keywords'[0] must be a string, got None", id="campaigns-keywords-null-and-5"),
    pytest.param("campaigns.json", load_campaigns, _item("id", 5.7),
                 "'id' must be an integer, got 5.7", id="campaigns-item-id-fraction"),
    pytest.param("campaigns.json", load_campaigns, _item("title", 123),
                 "'title' must be a string, got 123", id="campaigns-title-number"),
    pytest.param("campaigns.json", load_campaigns, _item("price", True),
                 "'price' must be a number, got True", id="campaigns-price-true"),
    pytest.param("campaigns.json", load_campaigns,
                 lambda p: _edit_json(p, _set(["campaigns", 0, "id"], 7)),
                 "'id' must be a string, got 7", id="campaigns-id-number"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(fallback="false")),
                 "'fallback' must be a boolean, got 'false'", id="thresholds-fallback-string"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(cluster_id="0")),
                 "'cluster_id' must be an integer, got '0'", id="thresholds-cluster-id-string"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(tau_distance="0.5")),
                 "'tau_distance' must be a number, got '0.5'", id="thresholds-tau-string"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(size=6.5)),
                 "'size' must be an integer, got 6.5", id="thresholds-size-fraction"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 1, lambda d: d.update(min_cluster_size=True)),
                 "'min_cluster_size' must be an integer, got True",
                 id="thresholds-min-cluster-size-true"),
    pytest.param("thresholds_US.jsonl", load_threshold_table,
                 lambda p: _edit_jsonl(p, 2, lambda d: d.update(tau_distance=1e308)),
                 "'tau_similarity' must be 1 - 'tau_distance'", id="thresholds-similarity-disagrees"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, lambda d: d.update(M=1.9)),
                 "'M' must be an integer, got 1.9", id="clustering-M-fraction"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, lambda d: d.update(M=3)),
                 "'centroids' must be 'M' by 'dim', (3, 64), got (2, 64)", id="clustering-M-3-of-2"),
    pytest.param("clustering_US.json", load_clustering,
                 lambda p: _edit_json(p, lambda d: d.update(dim=999)),
                 "'centroids' must be 'M' by 'dim', (2, 999), got (2, 64)", id="clustering-dim-999"),
    pytest.param("clustering_US.json", load_clustering,
                 _assignments(lambda a, n: a.update({"0": "0"})),
                 "'0' must be an integer, got '0'", id="clustering-label-string"),
    pytest.param("clustering_US.json", load_clustering,
                 _assignments(lambda a, n: a.update({"0": True})),
                 "'0' must be an integer, got True", id="clustering-label-true"),
    pytest.param("expansions.jsonl", load_expansions,
                 _variant(lambda v: v["keyword"].update(id=2.5)),
                 "expansions.jsonl:1: malformed expansion record:"
                 " TypeError: 'id' must be an integer, got 2.5", id="expansions-variant-id-fraction"),
    pytest.param("expansions.jsonl", load_expansions,
                 _variant(lambda v: v.update(distance="0.4")),
                 "'distance' must be a number, got '0.4'", id="expansions-distance-string"),
    pytest.param("expansions.jsonl", load_expansions,
                 lambda p: _edit_jsonl(p, 1, lambda d: d.update(tau_used=True)),
                 "'tau_used' must be a number, got True", id="expansions-tau-used-true"),
    pytest.param("expansions.jsonl", load_expansions, _variant(_add_to_similarity),
                 "expansions.jsonl:1: malformed expansion record:"
                 " ValueError: 'similarity' must be 1 - 'distance'",
                 id="expansions-similarity-disagrees"),
    pytest.param("expansions.jsonl", load_expansions, _variant(_add_to_similarity, lineno=3),
                 "expansions.jsonl:3: malformed expansion record:"
                 " ValueError: 'similarity' must be 1 - 'distance'",
                 id="expansions-rejected-similarity-disagrees"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["base", "kind"], "gbdt!")),
                 "'kind' of a base model must be 'gbdt', got 'gbdt!'",
                 id="model-base-kind-typo"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, lambda d: d["base"]["trees"][0].update(
                     nodes=[[str(x) for x in node] for node in d["base"]["trees"][0]["nodes"]])),
                 "'feature' must be an integer, got '0'", id="model-node-strings"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["base", "base_score"], True)),
                 "'base_score' must be a number, got True", id="model-base-score-true"),
    pytest.param("model.json", load_model,
                 lambda p: _edit_json(p, _set(["base", "n_features"], 6.5)),
                 "'n_features' must be an integer, got 6.5", id="model-n-features-fraction"),
]
BAD_FILES += MISTYPED
# a clustering that parses on its own, but leaves out a keyword of its market
CLUSTERING_ROW_MISSING = pytest.param(
    "clustering_US.json", _assignments(lambda a, n: a.pop(str(n - 1))),
    "keywords, market 'US' has", id="clustering-row-missing")


class TestAssignmentRows:
    def test_leading_zero_names_the_row(self, snapshot_copy):
        path = os.path.join(snapshot_copy, "clustering_US.json")
        labels = load_clustering(path).labels
        _rename_row("1", "01")(path)
        assert load_clustering(path).labels.tolist() == labels.tolist()


# Centroid entries at the edges of the float range: each row's norm can
# underflow to zero, overflow to inf or land anywhere between
_CENTROID_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1e-170, 1e-160, 1e-10, 0.5, -1.0, 1e154,
                                    1.5e154, 1e200, -1e308, 1.7976931348623157e308])


@st.composite
def _centroid_edits(draw):
    """(row, columns or None for the whole row, value) edits of a 2 x 64
    centroid matrix."""
    return draw(st.lists(st.tuples(
        st.integers(0, 1),
        st.none() | st.lists(st.integers(0, 63), min_size=1, max_size=4),
        _CENTROID_VALUES,
    ), min_size=1, max_size=4))


class TestLoadedClusteringAnswers:
    """A snapshot whose centroids were edited either fails to load, naming
    the clustering file, or answers /expand for every keyword of the
    market, from a unit direction for every cluster."""

    @settings(max_examples=60, deadline=None)
    @given(edits=_centroid_edits())
    def test_refused_or_answers(self, chain_dir, edits):
        def edit(doc):
            for row, columns, value in edits:
                for c in range(len(doc["centroids"][row])) if columns is None else columns:
                    doc["centroids"][row][c] = value

        with tempfile.TemporaryDirectory() as tmp:
            snapshot_dir = os.path.join(tmp, "snapshot")
            shutil.copytree(os.path.join(chain_dir, "snapshot"), snapshot_dir)
            _edit_json(os.path.join(snapshot_dir, "clustering_US.json"), edit)
            try:
                bundle = load_runtime(snapshot_dir)
            except ParseError as exc:
                assert "clustering_US.json" in str(exc)
                return
        context = bundle.contexts["US"]
        norms = np.linalg.norm(context.clustering.directions, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)
        for text in context.embedding_set.texts:
            expand_text(context, text, bundle.k_neighbors)  # what /expand answers


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
        with pytest.raises(ParseError, match=name) as info:
            load_runtime(snapshot_copy)
        assert named in str(info.value)

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


# Snapshots whose files each parse, but which could not answer /expand or
# /match:
# (file, how it is broken, what the error must name)
UNSERVABLE = [
    pytest.param("thresholds_US.jsonl", _header_only, "cluster", id="thresholds-header-only"),
    pytest.param("clustering_US.json", lambda p: _edit_json(p, _halve_centroids), "shape",
                 id="centroids-32-of-64"),
    pytest.param(META_FILE, lambda p: _edit_json(p, lambda d: d.update(k_neighbors=0)),
                 "k_neighbors", id="k-neighbors-0"),
    pytest.param(META_FILE, lambda p: _edit_json(p, lambda d: d.update(dim=8)),
                 "'dim'", id="dim-8"),
    # every query with a candidate would fail: the extractor makes 6 features
    pytest.param("model.json", lambda p: _edit_json(p, lambda d: d["base"].update(n_features=7)),
                 "'n_features' must be 6, the features a match is scored on, got 7",
                 id="model-n-features-7"),
    CLUSTERING_ROW_MISSING,
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


# ONE_EACH without the loader, and CLUSTERING_ROW_MISSING: (file, damage, named)
ONE_EACH_FILES = [
    *(pytest.param(case.values[0], *case.values[2:], id=case.id) for case in ONE_EACH),
    CLUSTERING_ROW_MISSING,
]


class TestOneMarketOneRowEach:
    """The offline commands that read a clustering or a threshold table
    refuse one that breaks ONE_EACH's rules, naming it."""

    @staticmethod
    def _paths(snapshot_dir):
        return ["--embeddings", os.path.join(snapshot_dir, EMBEDDINGS_FILE), "--market", "US",
                "--clustering", os.path.join(snapshot_dir, "clustering_US.json")]

    @pytest.mark.parametrize("name, damage, named", ONE_EACH_FILES)
    def test_expand_exits_2(self, snapshot_copy, name, damage, named, capsys):
        damage(os.path.join(snapshot_copy, name))
        assert cli_dispatch(["expand", *self._paths(snapshot_copy),
                             "--thresholds", os.path.join(snapshot_copy, "thresholds_US.jsonl"),
                             "--keyword", "garden lights"]) == 2
        err = capsys.readouterr().err
        assert name in err and named in err

    @pytest.mark.parametrize("name, damage, named",
                             [case for case in ONE_EACH_FILES if "clustering" in case.id])
    def test_thresholds_exits_2(self, snapshot_copy, tmp_path, name, damage, named, capsys):
        damage(os.path.join(snapshot_copy, name))
        out = tmp_path / "thresholds.jsonl"
        assert cli_dispatch(["thresholds", *self._paths(snapshot_copy),
                             "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert name in err and named in err
        assert not out.exists()
