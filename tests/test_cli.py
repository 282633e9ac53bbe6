"""CLI behavior: exit codes, single-keyword expansion, the full chain, and
reproducibility of its artifacts."""

import json
import os
import subprocess
import sys

import pytest

from adexpand.cli import cli_dispatch

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

    @pytest.mark.parametrize("text", ["", "{", "[1.5]", '{"UK": NaN}', '{"UK": "0.5"}'])
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
