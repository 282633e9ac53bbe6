"""CLI behavior: exit codes, single-keyword expansion, the full chain, and
reproducibility of its artifacts."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from adexpand import cli
from adexpand import clustering as clustering_mod
from adexpand.cli import build_parser, cli_dispatch
from adexpand.config import PipelineConfig
from adexpand.embeddings import MAX_DIM, MIN_DIM, EmbeddingSet, save_embeddings
from adexpand.snapshot_store import load_runtime

from conftest import CHAIN_OUTPUTS, FIXTURES_DIR, run_chain, single_thread_env


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli_dispatch([]) == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["cluster", "--market", "US"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_dispatch(["--help"]) == 0

    def test_invalid_quantile_is_data_error(self, chain_dir, capsys):
        code = cli_dispatch([
            "thresholds",
            "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US",
            "--clustering", os.path.join(chain_dir, "clustering_US.json"),
            "--quantile-pct", "150",
            "--out", os.path.join(chain_dir, "ignored.jsonl"),
        ])
        assert code == 2
        assert "quantile" in capsys.readouterr().err.lower()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert cli_dispatch([
            "cluster", "--embeddings", str(tmp_path / "nope.tsv"), "--market", "US",
            "--clusters", "2", "--out", str(tmp_path / "c.json"),
        ]) == 2

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"parameters": {"no_such_knob": 1}}', encoding="utf-8")
        assert cli_dispatch([
            "embed", "--config", str(config),
            "--keywords", os.path.join(FIXTURES_DIR, "keywords.tsv"),
            "--out", str(tmp_path / "emb.tsv"),
        ]) == 2
        assert "no_such_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"parameters": {"dim": "abc"}}',
        '{"parameters": ["dim"]}',
        '{"parameters": {"trees": true}}',
        '{"paths": ["keywords"]}',
        '["parameters"]',
    ])
    def test_mistyped_config_is_data_error(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        assert cli_dispatch([
            "embed", "--config", str(config),
            "--keywords", os.path.join(FIXTURES_DIR, "keywords.tsv"),
            "--out", str(tmp_path / "emb.tsv"),
        ]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range_is_data_error(self, tmp_path, capsys, port):
        # the snapshot does not exist: the flag is refused before the load
        assert cli_dispatch([
            "serve", "--snapshot", str(tmp_path / "no-snapshot"), "--port", port,
        ]) == 2
        assert capsys.readouterr().err == f"error: --port must be in 0..65535, got {port}\n"

    @pytest.mark.parametrize("exc", [ValueError("a bug"), json.JSONDecodeError("a bug", "{", 0)],
                             ids=["value-error", "json-decode-error"])
    def test_untyped_error_is_internal_error(self, tmp_path, capsys, monkeypatch, exc):
        """Bad input ends as an AdexpandError or an OSError, exit 2; any other
        exception a command raises is a bug, exit 3."""
        def load(path):
            raise exc
        monkeypatch.setattr(cli, "load_threshold_table", load)
        assert cli_dispatch(["threshold-report", "--thresholds", str(tmp_path / "t.jsonl"),
                             "--out", str(tmp_path / "report.csv")]) == 3
        assert capsys.readouterr().err == f"internal error: {type(exc).__name__}: {exc}\n"


class TestConfigDefaults:
    def test_config_supplies_parameters(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parameters": {"dim": 32}}), encoding="utf-8")
        out = tmp_path / "emb.tsv"
        assert cli_dispatch([
            "embed", "--config", str(config),
            "--keywords", os.path.join(FIXTURES_DIR, "keywords.tsv"),
            "--out", str(out),
        ]) == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert len(first.split("\t")[2].split()) == 32

    def test_explicit_flag_beats_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parameters": {"dim": 32}}), encoding="utf-8")
        out = tmp_path / "emb.tsv"
        assert cli_dispatch([
            "embed", "--config", str(config), "--dim", "64",
            "--keywords", os.path.join(FIXTURES_DIR, "keywords.tsv"),
            "--out", str(out),
        ]) == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert len(first.split("\t")[2].split()) == 64


def _chain_argv(argv, chain_dir, out):
    """``argv`` with {chain} the chain's outputs, {fixtures} the fixture
    directory and the command's ``--out`` at ``out``."""
    filled = [arg.format(chain=chain_dir, fixtures=FIXTURES_DIR) for arg in argv]
    return filled + ["--out", str(out)]


TRAIN_ADJUST = ["train-adjust", "--base", "{chain}/base_model.json",
                "--dataset", "{fixtures}/relevance_new.csv"]
BUILD_SNAPSHOT = [
    "build-snapshot", "--embeddings", "{chain}/embeddings.tsv",
    "--campaigns", "{fixtures}/campaigns.json", "--expansions", "{chain}/expansions.jsonl",
    "--model", "{chain}/stacked_model.json",
    "--market-thresholds", "{chain}/market_thresholds.json",
    "--clustering", "US={chain}/clustering_US.json", "--clustering", "UK={chain}/clustering_UK.json",
    "--thresholds", "US={chain}/thresholds_US.jsonl", "--thresholds", "UK={chain}/thresholds_UK.jsonl",
    "--version", "1",
]
US_FILES = ["--embeddings", "{chain}/embeddings.tsv", "--market", "US",
            "--clustering", "{chain}/clustering_US.json"]

# Values outside each range-checked parameter's range, and a subcommand
# that takes the parameter (argv without it and without --out). The library
# functions do not check these again.
OUT_OF_RANGE = {
    "learning_rate": ([5], ["train-base", "--dataset", "{fixtures}/relevance_base.csv"]),
    "adjustment_depth": ([0], TRAIN_ADJUST),
    "adjustment_trees": ([3, 0], TRAIN_ADJUST),
    "dim": ([8], BUILD_SNAPSHOT),
    "k_neighbors": ([0], ["expand", *US_FILES, "--thresholds", "{chain}/thresholds_US.jsonl"]),
    "seed": ([-1], ["cluster", "--embeddings", "{chain}/embeddings.tsv", "--market", "US"]),
    "min_cluster_size": ([-1], ["thresholds", *US_FILES]),
    # 5e-324 is above 0, but its fraction 5e-324 / 100 rounds to 0
    "quantile_pct": ([0, 150, 5e-324], ["thresholds", *US_FILES]),
    "precision_target": ([1.5, 0], ["tune-threshold", "--model", "{chain}/stacked_model.json",
                                    "--holdout", "{fixtures}/relevance_holdout.csv",
                                    "--market", "US"]),
    "clusters": ([0], ["cluster", "--embeddings", "{chain}/embeddings.tsv", "--market", "US"]),
    "trees": ([0], ["train-base", "--dataset", "{fixtures}/relevance_base.csv"]),
}


# A flag that is not a PipelineConfig field, an argv that gives it a bad
# value ({out} is the command's output) and the flag's name.
BAD_FLAGS = {
    "elbow-k-list-descending": (
        ["elbow", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--k-list", "16,8", "--out", "{out}"], "--k-list"),
    "elbow-k-list-empty": (
        ["elbow", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--k-list", ",", "--out", "{out}"], "--k-list"),
    "elbow-k-list-zero": (
        ["elbow", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--k-list", "0,2", "--out", "{out}"], "--k-list"),
    "elbow-folds-0": (
        ["elbow", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--k-list", "1,2", "--folds", "0", "--out", "{out}"], "--folds"),
    "stability-folds-1": (
        ["stability", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--clusters", "2", "--folds", "1"], "--folds"),
    "train-adjust-min-leaf-0": (
        ["train-adjust", "--base", "{chain}/base_model.json",
         "--dataset", "{fixtures}/relevance_new.csv", "--min-leaf", "0", "--out", "{out}"],
        "--min-leaf"),
    "sweep-tpr-p-list-empty": (
        ["sweep-tpr", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--clustering", "{chain}/clustering_US.json", "--labels", "{fixtures}/labels.tsv",
         "--p-list", ",", "--out", "{out}"], "--p-list"),
    "sweep-tpr-p-list-fraction-rounds-to-0": (
        ["sweep-tpr", "--embeddings", "{chain}/embeddings.tsv", "--market", "US",
         "--clustering", "{chain}/clustering_US.json", "--labels", "{fixtures}/labels.tsv",
         "--p-list", "99,5e-324", "--out", "{out}"], "--p-list"),
    "build-snapshot-version-negative": (
        [*BUILD_SNAPSHOT, "--version", "-5", "--out", "{out}"], "--version"),
}


class TestFlagChecks:
    """Every flag outside PipelineConfig is checked before any work, and its
    error names the flag."""

    @pytest.mark.parametrize("case", BAD_FLAGS)
    def test_bad_flag_is_data_error_naming_it(self, chain_dir, tmp_path, capsys, case):
        argv, flag = BAD_FLAGS[case]
        out = tmp_path / "out"
        fill = {"chain": chain_dir, "fixtures": FIXTURES_DIR, "out": out}
        assert cli_dispatch([arg.format(**fill) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == ""
        assert not out.exists()

    def test_dim_above_bound_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        assert cli_dispatch([
            "embed", "--keywords", os.path.join(FIXTURES_DIR, "keywords.tsv"),
            "--dim", str(10**21), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == f"error: dim must be in [{MIN_DIM}, {MAX_DIM}]\n"
        assert not out.exists()


    @pytest.mark.parametrize("command, rest", [
        ("elbow", ["--k-list", "1,2"]),
        ("stability", ["--clusters", "2"]),
    ])
    def test_folds_above_keyword_count_is_data_error(self, chain_dir, capsys, monkeypatch,
                                                     command, rest):
        """The fixture's UK market has 4 keywords: 5 folds are refused once
        the embeddings load, before any k-means runs; 4 run."""
        argv = [command, "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
                "--market", "UK", *rest, "--seed", "7"]
        kmeans = clustering_mod.kmeans
        calls = []
        monkeypatch.setattr(clustering_mod, "kmeans", lambda *a: calls.append(a) or kmeans(*a))
        assert cli_dispatch(argv + ["--folds", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --folds must be at most 4, the keyword count of"
                                " market 'UK', got 5\n")
        assert captured.out == ""
        assert calls == []
        assert cli_dispatch(argv + ["--folds", "4"]) == 0
        assert calls


class TestSnapshotPublish:
    """build-snapshot validates in a sibling temporary directory and moves
    the files into --out only once the snapshot loads."""

    def test_failed_build_leaves_target_as_it_was(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "snapshot"
        argv = _chain_argv(BUILD_SNAPSHOT, chain_dir, out) + ["--dim", "64"]
        assert cli_dispatch(argv) == 0
        assert os.listdir(tmp_path) == ["snapshot"]
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        # meta.json's dim must equal the embeddings' 64
        assert cli_dispatch(argv + ["--version", "2", "--dim", "65"]) == 2
        assert "'dim' must equal the dim of embeddings.tsv, 64, got 65" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert os.listdir(tmp_path) == ["snapshot"]
        assert load_runtime(str(out)).version == 1
        # a good build over it replaces every file; only meta.json changes
        assert cli_dispatch(argv + ["--version", "2"]) == 0
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert os.listdir(tmp_path) == ["snapshot"]
        assert after.keys() == before.keys()
        assert {name for name in before if before[name] != after[name]} == {"meta.json"}
        assert load_runtime(str(out)).version == 2

    def test_wrong_width_model_leaves_target_as_it_was(self, chain_dir, tmp_path, capsys):
        """A model that reads 7 features would fail every scored query: the
        build refuses it, naming model.json."""
        out = tmp_path / "snapshot"
        argv = _chain_argv(BUILD_SNAPSHOT, chain_dir, out) + ["--dim", "64"]
        assert cli_dispatch(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        doc = json.loads(before["model.json"])
        doc["base"]["n_features"] = 7
        model = tmp_path / "wide_model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(argv + ["--version", "2", "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(
            "model.json: 'n_features' must be 6, the features a match is scored on, got 7\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(os.listdir(tmp_path)) == ["snapshot", "wide_model.json"]


def _narrow_embeddings(path):
    """An 8-dim embeddings file for market US: a width the fallback embedder
    cannot make, so an unseen keyword cannot be expanded over it."""
    rng = np.random.default_rng(3)
    pairs = [(f"keyword {i}", rng.normal(size=8)) for i in range(12)]
    save_embeddings(EmbeddingSet.from_pairs("US", pairs), str(path))


def _threshold_table(tmp_path, sims):
    """A cutoff table with one cluster row per similarity cutoff."""
    path = tmp_path / "thresholds_US.jsonl"
    header = {"p": 0.9, "min_cluster_size": 1, "fallback_tau": 0.5}
    rows = [{"market": "US", "cluster_id": i, "size": 3 + i, "tau_distance": 1 - sim,
             "tau_similarity": sim, "fallback": False} for i, sim in enumerate(sims)]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *rows]), encoding="utf-8")
    return path


class TestInputErrorsAreTyped:
    """Input that a library function used to refuse with a bare ValueError,
    or that numpy refused deep inside a report, is an AdexpandError: exit 2."""

    def test_unseen_keyword_over_narrow_embeddings(self, tmp_path, capsys):
        emb, clustering, table = (str(tmp_path / name) for name in
                                  ("emb.tsv", "clustering.json", "thresholds.jsonl"))
        _narrow_embeddings(emb)
        files = ["--embeddings", emb, "--market", "US"]
        assert cli_dispatch(["cluster", *files, "--clusters", "2", "--out", clustering]) == 0
        assert cli_dispatch(["thresholds", *files, "--clustering", clustering,
                             "--out", table]) == 0
        expand = ["expand", *files, "--clustering", clustering, "--thresholds", table]
        capsys.readouterr()
        assert cli_dispatch(expand + ["--keyword", "keyword 3"]) == 0
        capsys.readouterr()
        assert cli_dispatch(expand + ["--keyword", "brand new words"]) == 2
        assert capsys.readouterr() == (
            "", "error: the fallback embedder needs dim at least 16, got 8\n")

    def test_overflowing_residuals(self, chain_dir, tmp_path):
        """Leaves of 1e308 sum past the float range, so every residual is
        infinite. The sum warns (RuntimeWarning), which this suite's warning
        filter would make an error, so the command runs in a child."""
        with open(os.path.join(chain_dir, "base_model.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for tree in doc["trees"]:
            for node in tree["nodes"]:
                node[4] = 1e308
        base = tmp_path / "base_model.json"
        base.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "stacked.json"
        child = subprocess.run(
            [sys.executable, "-W", "default", "-m", "adexpand.cli", "train-adjust",
             "--base", str(base), "--dataset", os.path.join(FIXTURES_DIR, "relevance_new.csv"),
             "--out", str(out)],
            env=single_thread_env(), capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 2, child.stderr
        assert child.stderr.splitlines()[-1] == (
            "error: tree targets must be finite: a label or residual is NaN or infinite")
        assert not out.exists()

    def test_overflowing_embedding_norm(self, tmp_path, capsys):
        """A row whose norm is past the float range would scale to a zero
        vector, with two RuntimeWarnings on the way."""
        emb = tmp_path / "emb.tsv"
        emb.write_text("US\ta\t1e200 1e200 0\nUS\tb\t1 2 3\n", encoding="utf-8")
        out = tmp_path / "clustering.json"
        assert cli_dispatch(["cluster", "--embeddings", str(emb), "--market", "US",
                             "--clusters", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {emb}:1: vector norm overflows\n"
        assert not out.exists()

    # each similarity is 1 - tau for a float tau, as build_threshold_table
    # writes it, so that 1 - (1 - sim) is sim
    @pytest.mark.parametrize("sims", [[1 - 0.58, 1 - float(np.nextafter(0.58, 0))],
                                      [1 - 0.58, 1 - (0.58 - 1e-15)]])
    def test_threshold_report_on_near_equal_cutoffs(self, tmp_path, capsys, sims):
        """np.histogram cannot part cutoffs a few ulps apart into 20 bins;
        they are binned over the unit-wide range it gives equal ones."""
        table = _threshold_table(tmp_path, sims)
        out = tmp_path / "report.csv"
        assert cli_dispatch(["threshold-report", "--thresholds", str(table),
                             "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").split("\n\n")[0].splitlines()[1:]
        assert len(rows) == 20
        assert sum(int(row.split(",")[2]) for row in rows) == len(sims)

    def test_threshold_report_on_a_span_past_the_float_range(self, tmp_path, capsys):
        table = _threshold_table(tmp_path, [1e308, -1e308])
        out = tmp_path / "report.csv"
        assert cli_dispatch(["threshold-report", "--thresholds", str(table),
                             "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {table}: cutoffs from -1e+308 to 1e+308 do not part into 20 finite bins\n")
        assert not out.exists()

    def test_threshold_report_on_a_similarity_that_is_not_1_minus_the_distance(
            self, tmp_path, capsys):
        """Distance cutoffs past the float range beside similarity cutoffs
        that bin normally gave a Pearson r of NaN, with exit 0."""
        table = tmp_path / "thresholds_US.jsonl"
        header = {"p": 0.9, "min_cluster_size": 1, "fallback_tau": 0.5}
        rows = [{"market": "US", "cluster_id": i, "size": 3 + i, "tau_distance": tau,
                 "tau_similarity": sim, "fallback": False}
                for i, (tau, sim) in enumerate([(1e308, 0.4), (-1e308, 0.5)])]
        table.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *rows]),
                         encoding="utf-8")
        out = tmp_path / "report.csv"
        assert cli_dispatch(["threshold-report", "--thresholds", str(table),
                             "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {table}: malformed threshold table: ValueError: 'tau_similarity' must be"
            " 1 - 'tau_distance', got ThresholdRow(size=3, tau_distance=1e+308,"
            " tau_similarity=0.4, fallback=False)\n")
        assert not out.exists()

    def test_assignment_to_no_cluster(self, chain_dir, tmp_path, capsys):
        """A clustering that assigns a keyword to a cluster it does not have
        is refused when it is loaded, not met as an IndexError while the
        cutoffs are computed."""
        with open(os.path.join(chain_dir, "clustering_US.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["assignments"]["0"] = 5
        clustering = tmp_path / "clustering_US.json"
        clustering.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "thresholds.jsonl"
        assert cli_dispatch(["thresholds",
                             "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
                             "--market", "US", "--clustering", str(clustering),
                             "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {clustering}: malformed clustering: ValueError: 'assignments' must be in"
            " 0..M-1, got 0..5\n")
        assert not out.exists()

    def test_infinite_cutoff_in_table(self, chain_dir, tmp_path, capsys):
        with open(os.path.join(chain_dir, "thresholds_US.jsonl"), encoding="utf-8") as fh:
            lines = fh.readlines()
        row = json.loads(lines[1])
        row["tau_similarity"] = float("-inf")
        lines[1] = json.dumps(row).replace("-Infinity", "-1e999") + "\n"
        table = tmp_path / "thresholds_US.jsonl"
        table.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "report.csv"
        assert cli_dispatch(["threshold-report", "--thresholds", str(table),
                             "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {table}: malformed threshold table: ValueError:"
            " 'tau_similarity' must be finite, got -inf\n")
        assert not out.exists()


def _flag_dests():
    """The dest of every flag of every subcommand."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for sub in subcommands.choices.values() for action in sub._actions}


class TestOneCheckPerParameter:
    """A parameter meets one range check, whether a flag or a config file
    gives its value, and fails before the command writes anything."""

    @pytest.mark.parametrize("name", OUT_OF_RANGE)
    def test_flag_and_config_value_fail_alike(self, chain_dir, tmp_path, capsys, name):
        values, argv = OUT_OF_RANGE[name]
        config = tmp_path / "config.json"
        out = tmp_path / "out"
        for value in values:
            config.write_text(json.dumps({"parameters": {name: value}}), encoding="utf-8")
            errors = []
            for given in ([f"--{name.replace('_', '-')}={value}"], ["--config", str(config)]):
                assert cli_dispatch(_chain_argv(argv, chain_dir, out) + given) == 2
                errors.append(capsys.readouterr().err)
                assert not out.exists()
            assert errors[0] == errors[1]
            assert errors[0].startswith(f"error: {name} must be")

    @pytest.mark.parametrize("doc, key", [
        ({"paths": {"keywords": "fixtures/keywords.tsv"}}, "paths"),
        ({"parameters": {"markets": ["UK", "US"]}}, "markets"),
    ])
    def test_removed_config_keys_are_unknown(self, tmp_path, capsys, doc, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "emb.tsv"
        assert cli_dispatch([
            "embed", "--config", str(config),
            "--keywords", os.path.join(FIXTURES_DIR, "keywords.tsv"), "--out", str(out),
        ]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_bad_config_value(self, chain_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"parameters": {"dim": 8}}), encoding="utf-8")
        out = tmp_path / "snapshot"
        argv = _chain_argv(BUILD_SNAPSHOT, chain_dir, out)
        assert cli_dispatch(argv + ["--config", str(config), "--dim", "64"]) == 0
        assert load_runtime(str(out)).version == 1

    def test_every_config_key_is_read_by_a_flag(self):
        unread = {f.name for f in dataclasses.fields(PipelineConfig)} - _flag_dests()
        assert not unread, f"config keys that no flag reads: {sorted(unread)}"

    @pytest.mark.parametrize("command, rest", [
        ("train-adjust", ["--dataset", "{fixtures}/relevance_new.csv", "--out", "{out}"]),
        ("eval-relevance", ["--stacked", "{stacked}", "--holdout",
                            "{fixtures}/relevance_holdout.csv", "--out-csv", "{out}",
                            "--out-json", "{out}.json"]),
    ])
    def test_stacked_model_as_base_is_refused_alike(self, chain_dir, tmp_path, capsys,
                                                    command, rest):
        stacked = os.path.join(chain_dir, "stacked_model.json")
        out = tmp_path / "out"
        fill = {"fixtures": FIXTURES_DIR, "stacked": stacked, "out": out}
        argv = [command, "--base", stacked] + [arg.format(**fill) for arg in rest]
        assert cli_dispatch(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {stacked}: expected a base model, got a stacked one\n"
        )
        assert not out.exists()


class TestSingleKeywordExpand:
    def test_known_keyword_record_on_stdout(self, chain_dir, capsys):
        assert cli_dispatch([
            "expand",
            "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US",
            "--clustering", os.path.join(chain_dir, "clustering_US.json"),
            "--thresholds", os.path.join(chain_dir, "thresholds_US.jsonl"),
            "--k-neighbors", "11",
            "--keyword", "led garden lights",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["origin"]["text"] == "led garden lights"
        accepted = [v["keyword"]["text"] for v in record["variants"]
                    if "filtered_reason" not in v]
        assert "garden lighting" in accepted

    def test_unseen_keyword_embedded_on_the_fly(self, chain_dir, capsys):
        assert cli_dispatch([
            "expand",
            "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US",
            "--clustering", os.path.join(chain_dir, "clustering_US.json"),
            "--thresholds", os.path.join(chain_dir, "thresholds_US.jsonl"),
            "--k-neighbors", "11",
            "--keyword", "garden light fixtures",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["origin"]["id"] == -1
        assert record["tau_used"] > 0


class TestPipelineArtifacts:
    def test_golden_match_records_pinned(self, chain_dir):
        """Fresh chain output matches the pinned golden run semantically."""
        with open(os.path.join(FIXTURES_DIR, "golden", "matches.jsonl")) as fh:
            golden = [json.loads(line) for line in fh if line.strip()]
        with open(os.path.join(chain_dir, "matches.jsonl")) as fh:
            fresh = [json.loads(line) for line in fh if line.strip()]
        assert len(fresh) == len(golden)
        for a, b in zip(golden, fresh):
            assert a["query"] == b["query"]
            assert a["item_id"] == b["item_id"]
            assert a["matched_keyword"] == b["matched_keyword"]
            assert a["origin_keyword"] == b["origin_keyword"]
            assert abs(a["score"] - b["score"]) < 1e-9

    def test_golden_expansions_pinned(self, chain_dir):
        with open(os.path.join(FIXTURES_DIR, "golden", "expansions.jsonl")) as fh:
            golden = [json.loads(line) for line in fh if line.strip()]
        with open(os.path.join(chain_dir, "expansions.jsonl")) as fh:
            fresh = [json.loads(line) for line in fh if line.strip()]
        assert [r["origin"] for r in fresh] == [r["origin"] for r in golden]
        for a, b in zip(golden, fresh):
            assert [v["keyword"]["text"] for v in a["variants"]] == [
                v["keyword"]["text"] for v in b["variants"]
            ]
            assert [v.get("filtered_reason") for v in a["variants"]] == [
                v.get("filtered_reason") for v in b["variants"]
            ]

    def test_match_records_satisfy_invariants(self, chain_dir):
        with open(os.path.join(chain_dir, "matches.jsonl")) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert records, "golden chain should produce matches"
        for r in records:
            assert r["score"] >= r["threshold"]
            assert abs(r["score"] - (r["score_base"] + r["score_adjustment"])) < 1e-9

    def test_single_query_match(self, chain_dir, capsys):
        assert cli_dispatch([
            "match", "--snapshot", os.path.join(chain_dir, "snapshot"),
            "--query", "apple iphone 13 case red", "--market", "US",
        ]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert any(r["item_id"] == 104 for r in lines)

    def test_elbow_table(self, chain_dir, tmp_path):
        out = tmp_path / "elbow.csv"
        assert cli_dispatch([
            "elbow", "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US", "--k-list", "1,2,4", "--seed", "7", "--folds", "2",
            "--out", str(out),
        ]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "clusters,mean_wcss"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(values) == 3
        assert values[0] > values[2]

    def test_stability_report(self, chain_dir, capsys):
        assert cli_dispatch([
            "stability", "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US", "--clusters", "2", "--folds", "2", "--seed", "7",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["folds"] == 2
        assert 0.0 <= doc["assignment_consistency"] <= 1.0

    def test_elbow_output_pinned(self, chain_dir, capsys):
        # held-in folds are sets of their own, renumbered from 0
        assert cli_dispatch([
            "elbow", "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US", "--k-list", "1,2,4", "--seed", "7", "--folds", "2",
        ]) == 0
        assert capsys.readouterr().out == (
            "clusters,mean_wcss\n1,3.19680887596743\n2,1.9899440441201022\n4,0.0\n"
        )

    @pytest.mark.parametrize("folds, expected", [
        (2, '{"assignment_consistency": 1.0, "folds": 2, '
            '"mean_compactness": 0.4878690165945002}\n'),
        (3, '{"assignment_consistency": 0.5952380952380952, "folds": 3, '
            '"mean_compactness": 0.6671359135582078}\n'),
    ])
    def test_stability_output_pinned(self, chain_dir, capsys, folds, expected):
        assert cli_dispatch([
            "stability", "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US", "--clusters", "2", "--folds", str(folds), "--seed", "7",
        ]) == 0
        assert capsys.readouterr().out == expected

    def test_sweep_and_reports_run(self, chain_dir, tmp_path):
        assert cli_dispatch([
            "sweep-tpr",
            "--embeddings", os.path.join(chain_dir, "embeddings.tsv"),
            "--market", "US",
            "--clustering", os.path.join(chain_dir, "clustering_US.json"),
            "--labels", os.path.join(FIXTURES_DIR, "labels.tsv"),
            "--p-list", "95,99,99.99,99.9999",
            "--k-neighbors", "11", "--min-cluster-size", "3",
            "--out", str(tmp_path / "tpr.csv"),
        ]) == 0
        rows = (tmp_path / "tpr.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1] == "p,tpr_raw,tpr_filtered,tpr_normalized"
        last = rows[-1].split(",")
        assert float(last[3]) == 100.0

        assert cli_dispatch([
            "threshold-report",
            "--thresholds", os.path.join(chain_dir, "thresholds_US.jsonl"),
            "--out", str(tmp_path / "threshold_report.csv"),
        ]) == 0
        assert cli_dispatch([
            "eval-relevance",
            "--base", os.path.join(chain_dir, "base_model.json"),
            "--stacked", os.path.join(chain_dir, "stacked_model.json"),
            "--holdout", os.path.join(FIXTURES_DIR, "relevance_holdout.csv"),
            "--out-csv", str(tmp_path / "rel.csv"),
            "--out-json", str(tmp_path / "rel.json"),
        ]) == 0
        doc = json.loads((tmp_path / "rel.json").read_text(encoding="utf-8"))
        assert "per_grade_rmse" in doc and "overall_rmse" in doc


class TestTuneThreshold:
    def _tune(self, chain_dir, out):
        return cli_dispatch([
            "tune-threshold", "--model", os.path.join(chain_dir, "stacked_model.json"),
            "--holdout", os.path.join(FIXTURES_DIR, "relevance_holdout.csv"),
            "--market", "US", "--precision-target", "0.8", "--out", str(out),
        ])

    def test_missing_file_is_created(self, chain_dir, tmp_path, capsys):
        out = tmp_path / "market_thresholds.json"
        assert self._tune(chain_dir, out) == 0
        assert list(json.loads(out.read_text(encoding="utf-8"))) == ["US"]

    @pytest.mark.parametrize("text", ["", "{", "[1.5]", '{"UK": NaN}', '{"UK": "0.5"}',
                                      '{"UK": null}'])
    def test_corrupt_file_exits_2_unchanged(self, chain_dir, tmp_path, capsys, text):
        out = tmp_path / "market_thresholds.json"
        out.write_text(text, encoding="utf-8")
        assert self._tune(chain_dir, out) == 2
        assert "market_thresholds.json" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == text


class TestDeterminism:
    def test_byte_identical_across_runs(self, chain_dir, tmp_path):
        rerun = str(tmp_path / "rerun")
        run_chain(rerun)
        for name in CHAIN_OUTPUTS:
            with open(os.path.join(chain_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(rerun, name), "rb") as fh:
                b = fh.read()
            assert a == b, f"{name} differs between runs"

    def test_byte_identical_across_thread_counts(self, chain_dir, tmp_path):
        out_dir = str(tmp_path / "threads1")
        script = (
            "import sys; sys.path.insert(0, r'%s'); "
            "from conftest import run_chain; run_chain(r'%s')"
            % (os.path.dirname(os.path.abspath(__file__)), out_dir)
        )
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=single_thread_env(),
                       cwd=os.path.dirname(os.path.abspath(__file__)))
        for name in CHAIN_OUTPUTS:
            with open(os.path.join(chain_dir, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(out_dir, name), "rb") as fh:
                b = fh.read()
            assert a == b, f"{name} differs across thread counts"
