"""Smoke test for the benchmark at a tiny size.

Checks the output schema, that every named metric appears with its unit and
sample count, and that the correctness checks run and can fail. Never checks
a timing. Each test runs the benchmark from a temporary copy of the
repository, so no working files land in the checkout.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH_DIR)

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _copy_repo(dest: str, with_src: bool = True) -> str:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH_DIR, os.path.join(dest, "perfbench"), ignore=ignore)
    shutil.copyfile(os.path.join(REPO, "BENCHMARK.json"), os.path.join(dest, "BENCHMARK.json"))
    if with_src:
        shutil.copytree(os.path.join(REPO, "src"), os.path.join(dest, "src"), ignore=ignore)
    return dest


def _run(root: str, workload: str, trace: int = 0, seed: int = 1):
    cmd = list(SPEC["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", "2",
        "--trace", str(trace), "--small",
    ]
    cmd[0] = sys.executable
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.fixture(scope="module")
def repo_copy(tmp_path_factory):
    return _copy_repo(str(tmp_path_factory.mktemp("bench")))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_schema(repo_copy, workload):
    proc, lines = _run(repo_copy, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    record = json.loads(lines[-2])["run_record"]
    for name, unit in expected.items():
        entry = record["end_to_end"][name]
        assert entry["unit"] == unit and entry["samples"] >= 1
    assert record["checks"] == [] and record["correct"] is True
    assert record["src_lines"] > 0 and record["nproc"] >= 1
    if workload == "build":
        assert set(record["detail"]["artifact_sha256"]) >= {"expansions.jsonl", "stacked_model.json"}
    else:
        # the fixed verification sample was sent and compared
        assert result["attempted"] >= 80
        assert record["detail"]["lag_p99_ms"] >= 0
        # the ungated latencies are reported with their sample counts
        latency = record["latency"]
        assert latency["p50_samples"] >= 1 and latency["samples"] >= latency["p50_samples"]
        assert all(latency[k] > 0 for k in ("p50_ms", "p90_ms", "p99_ms"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_schema(repo_copy, workload):
    proc, lines = _run(repo_copy, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    if workload == "build":
        assert calls["expansion.expand_keyword.calls"] > 0
        assert result["metrics"]["expansion.rejected_gender"]["value"] > 0
        assert result["metrics"]["expansion.rejected_numeric"]["value"] > 0
    else:
        assert calls["matching.match_query.calls"] > 0
        assert calls["relevance.score.calls"] > 0


def _corrupt_record(root: str, suffix: str, key: str) -> None:
    """Make the one hash record ending in suffix disagree on key."""
    hashes_dir = os.path.join(root, ".perfbench_work", "small", "hashes")
    (record,) = [p for p in os.listdir(hashes_dir) if p.endswith(suffix)]
    with open(os.path.join(hashes_dir, record), "w", encoding="utf-8") as fh:
        json.dump({key: "0" * 64}, fh)


def _assert_fails(proc, lines) -> None:
    assert proc.returncode == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_build_hashes_repeat_across_program_versions_and_a_mismatch_fails(tmp_path):
    root = _copy_repo(str(tmp_path))
    for run in range(2):  # the second run compares against the first
        if run == 1:
            # a program change that keeps the outputs: the record still applies
            with open(os.path.join(root, "src", "adexpand", "__init__.py"), "a") as fh:
                fh.write("\n# a change that alters no output\n")
        proc, lines = _run(root, "build", seed=5)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(lines[-1])["correct"] is True
    _corrupt_record(root, "-seed5.json", "expansions.jsonl")
    _assert_fails(*_run(root, "build", seed=5))


def test_served_answers_repeat_and_a_mismatch_fails(tmp_path):
    root = _copy_repo(str(tmp_path))
    proc, lines = _run(root, "serve_head")
    assert proc.returncode == 0, proc.stderr
    record = json.loads(lines[-2])["run_record"]
    assert {"answers_a", "answers_b"} <= set(record["detail"]["serve_sha256"])
    _corrupt_record(root, "-serve.json", "answers_a")
    _assert_fails(*_run(root, "serve_head"))


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_repo(str(tmp_path), with_src=False)
    proc, lines = _run(root, "build")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
