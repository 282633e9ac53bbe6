#!/usr/bin/env python3
"""adexpand benchmark: one workload, one seed, one verdict.

    python3 perfbench/run.py --workload build|serve_head|serve_tail_refresh \
        --seed N --seconds S --trace 0|1

Run from the repository root. The program is driven only as an operator
would drive it: the offline chain through ``adexpand.cli.cli_dispatch`` in a
child process, serving through ``adexpand serve`` in a server process and
plain HTTP from this process. ``perfbench/README.md`` describes the
workloads, the metrics and which layer moves which metric.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The lines before it are a readable
table and the full run record, with sample counts. A failed correctness
check makes the exit code 1; a run whose load generator fell behind its
schedule is invalid and exits 3.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(HERE, "launch.py")

WORKLOADS = ("build", "serve_head", "serve_tail_refresh")

# Program parameters: fixtures/config.json with 16 clusters.
PARAMS = {
    "dim": 64,
    "clusters": 16,
    "seed": 7,
    "quantile_pct": 99.9999,
    "min_cluster_size": 3,
    "k_neighbors": 11,
    "trees": 60,
    "learning_rate": 0.1,
    "adjust_min_leaf": 5,
    "adjust_min_leaf_refresh": 40,  # the second served content's adjustment
    "precision_target": 0.8,
    "elbow_k_list": "8,16",
    "folds": 3,
}
SERVE_CORPUS_SEED = 20250524  # the served corpus is fixed; traffic comes from --seed
VERIFY_SEED = 7
VERIFY_MATCHES = 50  # 30 head-pool queries + 20 tail queries
VERIFY_EXPANDS = 30

HEAD_RATE = 15.0  # /match per second, open loop, serve_head
TAIL_RATE = 15.0  # requests per second, open loop, serve_tail_refresh
# An assumed mix, not one taken from traffic data (the README's "Traffic
# shape"): enough /expand requests per run for their p50.
TAIL_EXPAND_SHARE = 0.3
REFRESHES = 1  # per phase on serve_tail_refresh
GOODPUT_P90_LIMIT_MS = 75.0
GOODPUT_STEP = 1.08
GOODPUT_RUNGS = 32
GOODPUT_RUNG_S = 3.0
LAG_LIMIT_MS = 50.0  # p99 generator lag above this makes the run invalid
# Set-up is timed this many times per run, half before the measured work and
# half after it, so that the median spans the run rather than one moment of it.
SERVE_SETUP_SPAWNS = 4
BUILD_SETUP_SPAWNS = 20
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}


class CheckFailed(Exception):
    pass


# ----------------------------------------------------------------- helpers

def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50)


def src_files() -> list[str]:
    out = []
    for base, _, names in os.walk(os.path.join(SRC, "adexpand")):
        out += [os.path.join(base, n) for n in names if n.endswith(".py")]
    return sorted(out)


BENCH_FILES = [os.path.join(HERE, name) for name in ("corpus.py", "launch.py", "run.py")]


def _digest(paths: list[str], sizes) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    h.update(json.dumps([PARAMS, vars(sizes)], sort_keys=True).encode())
    return h.hexdigest()[:16]


def bench_key(sizes) -> str:
    """Hash of what decides the inputs and the commands (the benchmark's own
    code, parameters and sizes), but not of the program that runs them."""
    return _digest(BENCH_FILES, sizes)


def program_key(sizes) -> str:
    """bench_key plus the program source: outputs cached under it are reused
    only by the same program version."""
    return _digest(BENCH_FILES + src_files(), sizes)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: bool, sizes) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    threads = {k: v for k, v in os.environ.items()
               if k.endswith("_NUM_THREADS") or k in ("OPENBLAS_CORETYPE", "MKL_THREADING_LAYER")}
    src_lines = 0
    for path in src_files():
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": threads,
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "params": PARAMS,
        "sizes": vars(sizes),
        "loadgen": {
            "threads": 1,
            "head_rate_rps": HEAD_RATE,
            "tail_rate_rps": TAIL_RATE,
            "tail_expand_share": TAIL_EXPAND_SHARE,
            "refreshes_per_phase": REFRESHES,
            "goodput_p90_limit_ms": GOODPUT_P90_LIMIT_MS,
            "lag_limit_ms": LAG_LIMIT_MS,
        },
    }


# ------------------------------------------------------- program processes

def chain_plan(inp: dict, out: str, model_selection: bool) -> list[list[str]]:
    """The documented offline chain, as argv lists for cli_dispatch."""
    P = PARAMS

    def o(name: str) -> str:
        return os.path.join(out, name)

    emb = o("embeddings.tsv")
    plan = [["embed", "--keywords", inp["keywords"], "--dim", str(P["dim"]), "--out", emb]]
    for m in ("UK", "US"):
        if model_selection:
            plan.append(["elbow", "--embeddings", emb, "--market", m, "--k-list", P["elbow_k_list"],
                         "--seed", str(P["seed"]), "--folds", str(P["folds"]),
                         "--out", o(f"elbow_{m}.csv")])
            plan.append(["stability", "--embeddings", emb, "--market", m,
                         "--clusters", str(P["clusters"]), "--folds", str(P["folds"]),
                         "--seed", str(P["seed"])])
        plan.append(["cluster", "--embeddings", emb, "--market", m, "--clusters",
                     str(P["clusters"]), "--seed", str(P["seed"]),
                     "--out", o(f"clustering_{m}.json")])
        plan.append(["thresholds", "--embeddings", emb, "--market", m,
                     "--clustering", o(f"clustering_{m}.json"),
                     "--quantile-pct", str(P["quantile_pct"]),
                     "--min-cluster-size", str(P["min_cluster_size"]),
                     "--out", o(f"thresholds_{m}.jsonl")])
        plan.append(["expand", "--embeddings", emb, "--market", m,
                     "--clustering", o(f"clustering_{m}.json"),
                     "--thresholds", o(f"thresholds_{m}.jsonl"),
                     "--k-neighbors", str(P["k_neighbors"]), "--out", o(f"expansions_{m}.jsonl")])
    plan.append(["train-base", "--dataset", inp["base"], "--trees", str(P["trees"]),
                 "--learning-rate", str(P["learning_rate"]), "--seed", str(P["seed"]),
                 "--out", o("base_model.json")])
    plan.append(["train-adjust", "--base", o("base_model.json"), "--dataset", inp["new"],
                 "--min-leaf", str(P["adjust_min_leaf"]), "--out", o("stacked_model.json")])
    for m in ("UK", "US"):
        plan.append(["tune-threshold", "--model", o("stacked_model.json"),
                     "--holdout", inp["holdout"], "--market", m,
                     "--precision-target", str(P["precision_target"]),
                     "--out", o("market_thresholds.json")])
    plan.append(snapshot_argv(inp, out, o("stacked_model.json"),
                              o("market_thresholds.json"), 1, o("snapshot")))
    return plan


def snapshot_argv(inp: dict, out: str, model: str, thresholds: str, version: int,
                  dest: str) -> list[str]:
    argv = ["build-snapshot", "--embeddings", os.path.join(out, "embeddings.tsv"),
            "--campaigns", inp["campaigns"], "--expansions", os.path.join(out, "expansions.jsonl"),
            "--model", model, "--market-thresholds", thresholds]
    for m in ("UK", "US"):
        argv += ["--clustering", f"{m}={os.path.join(out, f'clustering_{m}.json')}",
                 "--thresholds", f"{m}={os.path.join(out, f'thresholds_{m}.jsonl')}"]
    return argv + ["--version", str(version), "--dim", str(PARAMS["dim"]),
                   "--k-neighbors", str(PARAMS["k_neighbors"]), "--out", dest]


def concat_expansions(out: str) -> None:
    with open(os.path.join(out, "expansions.jsonl"), "w", encoding="utf-8") as dst:
        for m in ("UK", "US"):
            with open(os.path.join(out, f"expansions_{m}.jsonl"), encoding="utf-8") as src:
                dst.write(src.read())


def run_child_chain(plan: list[list[str]], work: str, out: str, trace_path: str | None) -> dict:
    """Run plan in two children: the per-market expansions are concatenated
    between them, before the relevance steps and build-snapshot."""
    split = next(i for i, argv in enumerate(plan) if argv[0] == "train-base")
    results = []
    for part, steps in enumerate((plan[:split], plan[split:])):
        plan_path = os.path.join(work, f"plan{part}.json")
        result_path = os.path.join(work, f"result{part}.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(steps, fh)
        cmd = [sys.executable, LAUNCH, "--chain", plan_path, "--result", result_path]
        if trace_path:
            cmd += ["--trace", f"{trace_path}.{part}"]
        with open(os.path.join(work, f"chain{part}.log"), "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                    cwd=ROOT)
            try:
                rc = proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                stop_process(proc)
        if rc != 0:
            raise CheckFailed(f"offline chain failed (exit {rc}); see {log.name}")
        with open(result_path, encoding="utf-8") as fh:
            results.append(json.load(fh))
        if part == 0:
            concat_expansions(out)
    return {
        "commands": results[0]["commands"] + results[1]["commands"],
        "vmhwm_kb": max(r["vmhwm_kb"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
    }


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def proc_status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One `adexpand serve` process; set-up is timed from spawn to the first
    200 on /healthz."""

    def __init__(self, snapshot_dir: str, log_path: str, trace_path: str | None = None) -> None:
        cmd = [sys.executable, "-u", LAUNCH, "--serve", snapshot_dir]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.log = open(log_path, "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log, text=True,
                                     env=child_env(), cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if "serving on http://" not in line:
                raise CheckFailed(f"server did not start: {line!r}; see {log_path}")
            self.port = int(line.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            while request(self.port, "GET", "/healthz")[0] != 200:
                if time.monotonic() > deadline:
                    raise CheckFailed("server never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def vmhwm_mb(self) -> float:
        return proc_status_kb(self.proc.pid, "VmHWM") / 1024.0

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)
        self.proc.stdout.close()
        self.log.close()


def request(port: int, method: str, path: str, body: bytes | None = None):
    """(status, body bytes); status 0 on a connection error."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    except OSError:
        return 0, b""
    finally:
        conn.close()


# ----------------------------------------------------------- load generator

class OpenLoop:
    """Sends a fixed schedule of requests from one thread.

    Each request is timed from the moment it was due. Lag is how late the
    sender sent a request after its due time, counted from when it was free;
    a slow answer delays the requests behind it, which shows in their
    latency, not in lag.
    """

    def __init__(self, port: int, schedule: list[tuple[float, str, bytes]]) -> None:
        self.port = port
        self.schedule = schedule
        self.results: list[tuple] = []

    def run(self, t0: float | None = None) -> "OpenLoop":
        t0 = time.perf_counter() + 0.05 if t0 is None else t0
        for offset, path, body in self.schedule:
            due = t0 + offset
            free = time.perf_counter()
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            status, data = request(self.port, "POST", path, body)
            done = time.perf_counter()
            lag = sent - max(due, free)
            self.results.append((offset, path, status, data, (done - due) * 1000.0, lag * 1000.0))
        return self

    def latencies(self, path: str | None = None) -> list[float]:
        """Latencies of the requests answered with 200."""
        return [r[4] for r in self.results if (path is None or r[1] == path) and r[2] == 200]

    def failed(self) -> int:
        return sum(1 for r in self.results if r[2] != 200 or not _well_formed(r[1], r[3]))

    def lags(self) -> list[float]:
        return [r[5] for r in self.results]


def _json_field(data: bytes, key: str):
    try:
        doc = json.loads(data)
    except ValueError:
        return None
    return doc.get(key) if isinstance(doc, dict) else None


def _well_formed(path: str, data: bytes) -> bool:
    try:
        doc = json.loads(data)
    except ValueError:
        return False
    key = "matches" if path == "/match" else "variants"
    return isinstance(doc, dict) and isinstance(doc.get(key), list)


def schedule_at(rate: float, requests: list[tuple[str, bytes]]) -> list[tuple[float, str, bytes]]:
    return [(i / rate, path, body) for i, (path, body) in enumerate(requests)]


def match_body(market: str, query: str) -> bytes:
    return json.dumps({"market": market, "query": query}).encode()


def expand_body(market: str, keyword: str) -> bytes:
    return json.dumps({"market": market, "keyword": keyword}).encode()


# ---------------------------------------------------------------- the build

def build_setup_s(spawns: int) -> list[float]:
    """Program start-up: spawn to the CLI being imported and ready."""
    times = []
    for _ in range(spawns):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, LAUNCH, "--ready"], capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0 or out.stdout.strip() != "ready":
            raise CheckFailed(f"program did not start: {out.stderr[-500:]}")
        times.append(time.perf_counter() - start)
    return times


ARTIFACTS = (
    "embeddings.tsv", "clustering_UK.json", "clustering_US.json", "thresholds_UK.jsonl",
    "thresholds_US.jsonl", "expansions.jsonl", "base_model.json", "stacked_model.json",
    "market_thresholds.json",
)


def check_hashes(root: str, name: str, hashes: dict[str, str], what: str,
                 checks: list[str]) -> int:
    """Output hashes must equal those of the first run with the same inputs
    in this working directory. The record is keyed by the inputs only, not
    by the program source, so a program change that alters an output fails
    here. If the change is meant, delete the record (under
    .perfbench_work/*/hashes/). Returns the number of outputs that differ."""
    record = os.path.join(root, "hashes", f"{name}.json")
    os.makedirs(os.path.dirname(record), exist_ok=True)
    if not os.path.exists(record):
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, indent=1)
        return 0
    with open(record, encoding="utf-8") as fh:
        previous = json.load(fh)
    differ = [key for key, digest in hashes.items() if previous.get(key) != digest]
    checks += [f"{key} differs from {what} recorded in {record}" for key in differ]
    return len(differ)


def check_build(out: str, seed: int, sizes, root: str, checks: list[str]) -> dict[str, str]:
    """Artifact hashes must repeat across runs of one seed, and the filters
    must have rejected both kinds of variant."""
    hashes = {name: sha256_file(os.path.join(out, name)) for name in ARTIFACTS}
    check_hashes(root, f"{bench_key(sizes)}-seed{seed}", hashes,
                 f"an earlier run of seed {seed}", checks)
    reasons = {"GENDER": 0, "NUMERIC": 0}
    with open(os.path.join(out, "expansions.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            for v in json.loads(line)["variants"]:
                if v.get("filtered_reason") in reasons:
                    reasons[v["filtered_reason"]] += 1
    for reason, n in reasons.items():
        if n == 0:
            checks.append(f"no {reason} rejections in the expansions")
    return hashes


def run_build(seed: int, trace: bool, sizes, root: str) -> dict:
    import corpus

    work = os.path.join(root, "build")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    data = corpus.make_corpus(seed, sizes, PARAMS["dim"])
    inp = corpus.write_inputs(data, os.path.join(work, "in"))
    out = os.path.join(work, "out")
    os.makedirs(out)
    plan = chain_plan(inp, out, model_selection=True)

    setup = build_setup_s(BUILD_SETUP_SPAWNS // 2)
    checks: list[str] = []
    start = time.perf_counter()
    chain = run_child_chain(plan, work, out, None)
    wall = time.perf_counter() - start
    setup += build_setup_s(BUILD_SETUP_SPAWNS - len(setup))
    hashes = check_build(out, seed, sizes, root, checks)
    res = {
        "checks": checks,
        "attempted": len(chain["commands"]) + len(ARTIFACTS),
        "samples": {"setup_s": len(setup), "peak_rss_mb": 1},
        "setup_s": median(setup),
        "peak_rss_mb": chain["vmhwm_kb"] / 1024.0,
        "cpu_s": chain["cpu_s"],
        "detail": {
            "build_s": sum(c["s"] for c in chain["commands"]),
            "build_wall_s": wall,
            "stages_s": _stage_seconds(chain["commands"]),
            "artifact_sha256": hashes,
            "stream_counts": {"keywords": sum(len(v) for v in data.keywords.values()),
                              "item_titles": len(data.item_titles())},
        },
    }
    if trace:
        spans = os.path.join(work, "spans")
        shutil.rmtree(out)
        os.makedirs(out)
        traced = run_child_chain(plan, work, out, spans)
        res["spans"] = read_spans([f"{spans}.0", f"{spans}.1"])
        res["trace_overhead_pct"] = (traced["cpu_s"] / chain["cpu_s"] - 1.0) * 100.0
        for name, digest in hashes.items():
            if sha256_file(os.path.join(out, name)) != digest:
                checks.append(f"artifact {name} differs between the untraced and traced chain")
    res["failed"] = len(checks)
    return res


def _stage_seconds(commands: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for c in commands:
        out[c["command"]] = out.get(c["command"], 0.0) + c["s"]
    return out


# ------------------------------------------------------- serving workloads

def serve_cache(sizes, root: str) -> str:
    """Two snapshot contents of the fixed served corpus, the inputs traffic
    is drawn from, and in-process reference answers for the verification
    sample. Built once per program version; later runs reuse it."""
    import corpus

    cache = os.path.join(root, f"serve-{program_key(sizes)}")
    if os.path.exists(os.path.join(cache, "references.json")):
        return cache
    tmp = f"{cache}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    data = corpus.make_corpus(SERVE_CORPUS_SEED, sizes, PARAMS["dim"])
    inp = corpus.write_inputs(data, os.path.join(tmp, "in"))
    out = os.path.join(tmp, "out")
    os.makedirs(out)
    o = lambda name: os.path.join(out, name)  # noqa: E731
    plan = chain_plan(inp, out, model_selection=False)
    plan += [
        ["train-adjust", "--base", o("base_model.json"), "--dataset", inp["new"],
         "--min-leaf", str(PARAMS["adjust_min_leaf_refresh"]), "--out", o("stacked_model_b.json")],
    ]
    for m in ("UK", "US"):
        plan.append(["tune-threshold", "--model", o("stacked_model_b.json"), "--holdout",
                     inp["holdout"], "--market", m, "--precision-target",
                     str(PARAMS["precision_target"]), "--out", o("market_thresholds_b.json")])
    plan.append(snapshot_argv(inp, out, o("stacked_model_b.json"), o("market_thresholds_b.json"),
                              2, o("snapshot_b")))
    run_child_chain(plan, tmp, out, None)
    os.replace(o("snapshot"), os.path.join(tmp, "content_a"))
    os.replace(o("snapshot_b"), os.path.join(tmp, "content_b"))

    streams = corpus.make_streams(data.keywords, VERIFY_SEED, VERIFY_MATCHES - 30,
                                  VERIFY_EXPANDS)
    sample = {
        "match": [list(q) for q in data.head_pool[:30] + streams.tail_queries],
        "expand": [list(k) for k in streams.unseen_keywords],
    }
    refs = {"sample": sample}
    for content in ("a", "b"):
        refs[content] = reference_answers(os.path.join(tmp, f"content_{content}"), sample)
    with open(os.path.join(tmp, "traffic.json"), "w", encoding="utf-8") as fh:
        json.dump({"keywords": data.keywords, "head_pool": data.head_pool,
                   "head_weights": data.head_weights,
                   "item_titles": len(data.item_titles())}, fh)
    with open(os.path.join(tmp, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    shutil.rmtree(out)
    shutil.rmtree(os.path.join(tmp, "in"))
    shutil.rmtree(cache, ignore_errors=True)
    os.replace(tmp, cache)
    return cache


def reference_answers(snapshot_dir: str, sample: dict) -> dict:
    """In-process answers from the same snapshot contents."""
    from adexpand.expansion import record_to_doc
    from adexpand.matching import match_query, match_record_to_doc
    from adexpand.service import MatchService

    service = MatchService(snapshot_dir)
    snapshot = service.current().snapshot
    return {
        "match": [[match_record_to_doc(r) for r in match_query(q, m, snapshot)]
                  for m, q in sample["match"]],
        "expand": [record_to_doc(service.expand(k, m)) for m, k in sample["expand"]],
    }


def verify(port: int, refs: dict, content: str, checks: list[str]) -> int:
    """Served bodies must equal the in-process answers; returns mismatches."""
    sample, expected = refs["sample"], refs[content]
    bad = 0
    for (m, q), want in zip(sample["match"], expected["match"]):
        status, data = request(port, "POST", "/match", match_body(m, q))
        got = json.loads(data)["matches"] if status == 200 else None
        if got != json.loads(json.dumps(want)):
            bad += 1
            checks.append(f"/match {m} {q!r}: served body differs from match_query")
    for (m, k), want in zip(sample["expand"], expected["expand"]):
        status, data = request(port, "POST", "/expand", expand_body(m, k))
        got = json.loads(data) if status == 200 else None
        if got != json.loads(json.dumps(want)):
            bad += 1
            checks.append(f"/expand {m} {k!r}: served body differs from MatchService.expand")
    return bad


def publish(content_dir: str, served: str, version: int) -> None:
    """Write the next snapshot version into the served directory; meta last."""
    for name in sorted(os.listdir(content_dir)):
        if name != "meta.json":
            shutil.copyfile(os.path.join(content_dir, name), os.path.join(served, name))
    with open(os.path.join(content_dir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["version"] = version
    with open(os.path.join(served, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def head_requests(traffic: dict, seed: int, count: int) -> list[tuple[str, bytes]]:
    """count requests over the pool in Zipf proportions, in seeded order.

    Each query's share is apportioned exactly (largest remainder), so every
    seed sends the same multiset and only the order changes; random draws
    would make the rare heavy queries, and so the latency tail, vary with the seed.
    """
    from adexpand.rng import SplitMix64

    pool, weights = traffic["head_pool"], traffic["head_weights"]
    total = sum(weights)
    quotas = [count * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(pool)), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    out = [("/match", match_body(*pool[i])) for i, n in enumerate(counts) for _ in range(n)]
    SplitMix64(seed).shuffle(out)
    return out


def tail_requests(traffic: dict, refs: dict, seed: int, count: int) -> list[tuple[str, bytes]]:
    import corpus
    from adexpand.rng import SplitMix64

    n_expand = int(round(count * TAIL_EXPAND_SHARE))
    exclude = {q for _, q in refs["sample"]["match"]} | {k for _, k in refs["sample"]["expand"]}
    exclude |= {q for _, q in traffic["head_pool"]}
    streams = corpus.make_streams(traffic["keywords"], seed, count - n_expand, n_expand, exclude)
    rng = SplitMix64(seed ^ 0x5EED)
    tail = iter(streams.tail_queries)
    unseen = iter(streams.unseen_keywords)
    kinds = ["/expand"] * n_expand + ["/match"] * (count - n_expand)
    rng.shuffle(kinds)
    return [("/match", match_body(*next(tail))) if k == "/match" else
            ("/expand", expand_body(*next(unseen))) for k in kinds]


def goodput(port: int, traffic: dict, seed: int) -> tuple[float, list[dict]]:
    """Highest rung of a geometric rate grid whose /match p90 meets the limit
    with no growing backlog, found by bisection."""
    grid = [HEAD_RATE * GOODPUT_STEP ** i for i in range(GOODPUT_RUNGS)]
    lo, hi = -1, len(grid)
    rungs = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rate = grid[mid]
        reqs = head_requests(traffic, seed + 1000 + mid, int(rate * GOODPUT_RUNG_S))
        loop = OpenLoop(port, schedule_at(rate, reqs)).run()
        lat = loop.latencies()
        third = max(1, len(lat) // 3)
        backlog = median(lat[-third:]) > 2.0 * median(lat[:third]) + 5.0
        p90 = percentile(lat, 90)
        ok = loop.failed() == 0 and p90 <= GOODPUT_P90_LIMIT_MS and not backlog
        rungs.append({"rate": rate, "p90_ms": p90, "backlog": backlog, "ok": ok})
        lo, hi = (mid, hi) if ok else (lo, mid)
    return (grid[lo] if lo >= 0 else 0.0), rungs


def serve_phase(workload: str, port: int, server: Server, traffic: dict, refs: dict, seed: int,
                seconds: int, served: str) -> dict:
    """The measured open-loop phase; refreshes run beside it on serve_tail_refresh."""
    refreshes: list[tuple[float, float, int]] = []
    if workload == "serve_head":
        reqs = head_requests(traffic, seed, int(HEAD_RATE * seconds))
        loop = OpenLoop(port, schedule_at(HEAD_RATE, reqs))
    else:
        reqs = tail_requests(traffic, refs, seed, int(TAIL_RATE * seconds))
        loop = OpenLoop(port, schedule_at(TAIL_RATE, reqs))
    cpu0 = server.cpu_s()
    t0 = time.perf_counter() + 0.05
    runner = threading.Thread(target=loop.run, args=(t0,))
    runner.start()
    if workload == "serve_tail_refresh":
        # content A is live as version 1. Versions 2, 3, ... alternate B and
        # A, due evenly over the phase and refreshed on this thread's own
        # connection; a version is published only once the previous refresh
        # has returned.
        for i in range(REFRESHES):
            time.sleep(max(0.0, t0 + (i + 0.5) / REFRESHES * seconds - time.perf_counter()))
            version = i + 2
            publish(traffic["content_b" if i % 2 == 0 else "content_a"], served, version)
            start = time.perf_counter()
            status, body = request(port, "POST", "/refresh")
            if status == 200 and _json_field(body, "new_version") != version:
                status = -1  # the served version is not the one just published
            refreshes.append((start - t0, time.perf_counter() - t0, status))
    runner.join()
    return {"loop": loop, "refreshes": refreshes, "t0": t0,
            "server_cpu_s": server.cpu_s() - cpu0}


LOAD_LAYERS = {"snapshot_store.load_runtime", "embeddings.load_embeddings",
               "flat_index.build_index", "matching.build_snapshot"}


def run_serve(workload: str, seed: int, seconds: int, trace: bool, sizes, root: str) -> dict:
    cache = serve_cache(sizes, root)
    with open(os.path.join(cache, "traffic.json"), encoding="utf-8") as fh:
        traffic = json.load(fh)
    with open(os.path.join(cache, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    traffic["content_a"] = os.path.join(cache, "content_a")
    traffic["content_b"] = os.path.join(cache, "content_b")
    checks: list[str] = []
    hashes = serve_hashes(traffic, refs)
    drifted = check_hashes(root, f"{bench_key(sizes)}-serve", hashes,
                           "the served contents and answers of an earlier run", checks)
    work = os.path.join(root, "serve")
    shutil.rmtree(work, ignore_errors=True)
    served = os.path.join(work, "served")
    shutil.copytree(traffic["content_a"], served)
    log = os.path.join(work, "server.log")

    setups = serve_setup_s(served, log, SERVE_SETUP_SPAWNS // 2 - 1)
    server = Server(served, log)
    setups.append(server.setup_s)
    try:
        if workload == "serve_head":
            # one request per distinct query fills the features LRU before timing
            phase_requests = head_requests(traffic, seed, int(HEAD_RATE * seconds))
            warm = [(0.0, "/match", body) for body in dict.fromkeys(b for _, b in phase_requests)]
            OpenLoop(server.port, warm).run()
        phase = serve_phase(workload, server.port, server, traffic, refs, seed, seconds, served)
        # the rate ladder is informational and costly: only the --trace 1 invocation runs it
        good, rungs = (goodput(server.port, traffic, seed) if workload == "serve_head" and trace
                       else (None, []))
        mismatches = verify(server.port, refs, "b" if len(phase["refreshes"]) % 2 else "a", checks)
        peak = server.vmhwm_mb()
    finally:
        server.stop()
    # the served directory holds the version last published; set-up loads it
    setups += serve_setup_s(served, log, SERVE_SETUP_SPAWNS - len(setups))
    res = summarize_serve(workload, phase, setups, peak, mismatches, checks)
    res["attempted"] += len(hashes)
    res["failed"] += drifted
    res["detail"]["match_goodput_rps"] = good
    res["detail"]["goodput_rungs"] = rungs
    res["detail"]["stream_counts"] = stream_counts(traffic, phase["loop"])
    res["detail"]["serve_sha256"] = hashes

    if trace:
        # the same phase again against a traced server: per-layer numbers,
        # and the tracing overhead as traced over untraced server CPU time
        shutil.rmtree(served)
        shutil.copytree(traffic["content_a"], served)
        spans = os.path.join(work, "spans")
        server = Server(served, log, trace_path=spans)
        try:
            if workload == "serve_head":
                OpenLoop(server.port, warm).run()
            traced = serve_phase(workload, server.port, server, traffic, refs, seed, seconds,
                                 served)
        finally:
            server.stop()
        # warm-up requests come before the phase; only loading counts from then
        res["spans"] = [s for s in read_spans([spans])
                        if s["start"] >= traced["t0"] or s["name"] in LOAD_LAYERS]
        res["traced_loop"] = traced["loop"]
        res["trace_overhead_pct"] = (traced["server_cpu_s"] / phase["server_cpu_s"] - 1) * 100.0
    return res


def serve_setup_s(served: str, log: str, spawns: int) -> list[float]:
    times = []
    for _ in range(spawns):
        server = Server(served, log)
        times.append(server.setup_s)
        server.stop()
    return times


def serve_hashes(traffic: dict, refs: dict) -> dict[str, str]:
    """sha256 of each file of the two served contents and of the in-process
    answers to the verification sample."""
    hashes = {}
    for content in ("a", "b"):
        folder = traffic[f"content_{content}"]
        for name in sorted(os.listdir(folder)):
            hashes[f"content_{content}/{name}"] = sha256_file(os.path.join(folder, name))
        answers = json.dumps(refs[content], sort_keys=True).encode()
        hashes[f"answers_{content}"] = hashlib.sha256(answers).hexdigest()
    return hashes


def stream_counts(traffic: dict, loop: OpenLoop) -> dict:
    bodies = [s[2] for s in loop.schedule]
    return {
        "requests": len(bodies),
        "distinct_request_texts": len(set(bodies)),
        "head_pool_texts": len(traffic["head_pool"]),
        "item_titles": traffic["item_titles"],
        "features_lru_size": 65536,
    }


def in_refresh(result: tuple, phase: dict) -> bool:
    """Whether the request was due while a refresh was in flight."""
    return any(a <= result[0] <= b for a, b, _ in phase["refreshes"])


def steady_latencies(phase: dict) -> list[float]:
    """Latencies of the requests answered 200 and due while no refresh was
    in flight. A refresh stalls reads for seconds; the requests due during
    it are reported on their own (match_p90_refresh_ms) and in the tail
    latency, and its cost is in cpu_s."""
    return [r[4] for r in phase["loop"].results if r[2] == 200 and not in_refresh(r, phase)]


def summarize_serve(workload: str, phase: dict, setups: list[float], peak: float,
                    mismatches: int, checks: list[str]) -> dict:
    loop: OpenLoop = phase["loop"]
    lat = loop.latencies()
    failed = loop.failed() + mismatches + sum(1 for r in phase["refreshes"] if r[2] != 200)
    if loop.failed():
        checks.append(f"{loop.failed()} requests failed or were malformed")
    for _, _, status in phase["refreshes"]:
        if status != 200:
            checks.append(f"/refresh failed or served the wrong version (status {status})")
    attempted = len(loop.schedule) + len(phase["refreshes"]) + VERIFY_MATCHES + VERIFY_EXPANDS
    lags = loop.lags()
    detail = {
        "lag_p99_ms": percentile(lags, 99),
        "lag_max_ms": max(lags),
        "server_cpu_ms_per_request": phase["server_cpu_s"] * 1000.0 / len(loop.schedule),
        "match_p50_ms": median(loop.latencies("/match")),
        "match_p99_ms": percentile(loop.latencies("/match"), 99),
        "match_samples": len(loop.latencies("/match")),
    }
    if workload == "serve_tail_refresh":
        exp = loop.latencies("/expand")
        during = [r[4] for r in loop.results
                  if r[1] == "/match" and r[2] == 200 and in_refresh(r, phase)]
        detail.update({
            "expand_p50_ms": median(exp),
            "expand_p99_ms": percentile(exp, 99),
            "expand_samples": len(exp),
            "refresh_s": median([b - a for a, b, _ in phase["refreshes"]]),
            "refreshes": len(phase["refreshes"]),
            "match_p90_refresh_ms": percentile(during, 90),
            "match_during_refresh_samples": len(during),
        })
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "samples": {"setup_s": len(setups), "peak_rss_mb": 1},
        "setup_s": median(setups),
        "peak_rss_mb": peak,
        "cpu_s": phase["server_cpu_s"],
        "latency": {
            "p50_ms": median(steady_latencies(phase)),
            "p50_samples": len(steady_latencies(phase)),
            "p90_ms": percentile(lat, 90),
            "p99_ms": percentile(lat, 99),
            "samples": len(lat),
        },
        "detail": detail,
    }


# --------------------------------------------------------------- per layer

CLI_STAGES = ("embed", "elbow", "stability", "cluster", "thresholds", "expand", "train-base",
              "train-adjust", "tune-threshold", "build-snapshot")
_SPAN_METRICS = (
    ("embeddings.fallback_embed", ("calls", "self_s")),
    ("embeddings.load_embeddings", ("self_s",)),
    ("flat_index.knn_search", ("calls", "self_s")),
    ("flat_index.build_index", ("self_s",)),
    ("clustering.kmeans", ("self_s", "iterations")),
    ("clustering.elbow_sweep", ("self_s",)),
    ("clustering.kfold_stability", ("self_s",)),
    ("clustering.assign_cluster", ("calls", "self_s")),
    ("thresholds.build_threshold_table", ("self_s",)),
    ("expansion.expand_keyword", ("calls", "self_s")),
    ("relevance.train_base", ("self_s",)),
    ("relevance.train_adjustment", ("self_s",)),
    ("relevance.tune_market_threshold", ("self_s",)),
    ("relevance.score", ("calls", "rows", "self_s")),
    ("features.extract", ("calls", "self_s")),
    ("matching.match_query", ("calls", "p50_ms", "p99_ms", "self_s")),
    ("matching.build_snapshot", ("self_s",)),
)
_KIND_UNITS = {"calls": "count", "rows": "count", "iterations": "count", "self_s": "s",
               "p50_ms": "ms", "p99_ms": "ms"}
PER_LAYER_UNITS = {
    **{f"cli.{stage}.s": "s" for stage in CLI_STAGES},
    **{f"{name}.{kind}": _KIND_UNITS[kind] for name, kinds in _SPAN_METRICS for kind in kinds},
    "thresholds.fallback_clusters": "count",
    "expansion.within_cutoff": "count",
    "expansion.accepted": "count",
    "expansion.rejected_gender": "count",
    "expansion.rejected_numeric": "count",
    "expansion.accept_share": "ratio",
    "matching.candidates_per_query.p50": "count",
    "matching.candidates_per_query.p99": "count",
    "matching.scored_per_query.p50": "count",
    "matching.scored_per_query.p99": "count",
    "matching.kept_share": "ratio",
    "snapshot_store.load_runtime.s": "s",
    "snapshot_store.write_snapshot_dir.s": "s",
    "service.match.server_ms": "ms",
    "service.overhead_ms": "ms",
    "service.refresh.s": "s",
    "loadgen.lag_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "trace.overhead_pct": "%",
}


def read_spans(paths: list[str]) -> list[dict]:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans += [json.loads(line) for line in fh]
    return spans


def per_layer(res: dict) -> dict[str, float]:
    spans = res["spans"]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by_name.get(name, [])]

    values: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        group = by_name.get(layer, [])
        if kind == "calls":
            values[metric] = len(group)
        elif kind == "self_s":
            values[metric] = sum(s["self"] for s in group)
        elif kind == "rows":
            values[metric] = sum(s["n"] for s in group)
        elif kind == "iterations":
            values[metric] = sum(s["n"] for s in group)
    for stage in CLI_STAGES:
        values[f"cli.{stage}.s"] = sum(durations(f"cli.{stage}"))
    mq = by_name.get("matching.match_query", [])
    mq_ms = [d * 1000.0 for d in durations("matching.match_query")]
    values["matching.match_query.p50_ms"] = median(mq_ms)
    values["matching.match_query.p99_ms"] = percentile(mq_ms, 99)
    cands = [s["n"][1] for s in mq]
    scored = [s["n"][2] for s in mq]
    values["matching.candidates_per_query.p50"] = median(cands)
    values["matching.candidates_per_query.p99"] = percentile(cands, 99)
    values["matching.scored_per_query.p50"] = median(scored)
    values["matching.scored_per_query.p99"] = percentile(scored, 99)
    values["matching.kept_share"] = (sum(s["n"][0] for s in mq) / sum(scored)) if sum(scored) else 0.0
    values["thresholds.fallback_clusters"] = sum(
        s["n"] for s in by_name.get("thresholds.build_threshold_table", []))
    outcomes = [s["n"] for s in by_name.get("expansion.expand_keyword", [])]
    for i, key in enumerate(("within_cutoff", "accepted", "rejected_gender", "rejected_numeric")):
        values[f"expansion.{key}"] = sum(o[i] for o in outcomes)
    within = values["expansion.within_cutoff"]
    values["expansion.accept_share"] = values["expansion.accepted"] / within if within else 0.0
    values["snapshot_store.load_runtime.s"] = median(durations("snapshot_store.load_runtime"))
    values["snapshot_store.write_snapshot_dir.s"] = sum(durations("snapshot_store.write_snapshot_dir"))
    server_ms = [d * 1000.0 for d in durations("service.match")]
    values["service.match.server_ms"] = median(server_ms)
    values["service.refresh.s"] = median(durations("service.refresh"))
    loop = res.get("traced_loop")
    if loop is not None:
        values["service.overhead_ms"] = median(loop.latencies("/match")) - median(server_ms)
        values["loadgen.lag_ms"] = percentile(loop.lags(), 99)
        values["loadgen.sent"] = len(loop.schedule)
        values["loadgen.failed"] = loop.failed()
        values["loadgen.ok"] = len(loop.schedule) - loop.failed()
    else:
        for key in ("service.overhead_ms", "loadgen.lag_ms", "loadgen.sent", "loadgen.ok",
                    "loadgen.failed"):
            values[key] = 0
    values["trace.overhead_pct"] = res["trace_overhead_pct"]
    return values


# -------------------------------------------------------------------- main

def end_to_end(res: dict) -> dict[str, float]:
    return {name: res[name] for name in END_TO_END_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny corpus, for the smoke test; figures mean nothing")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adexpand", "cli.py")):
        print(f"error: no program source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # a terminated run still stops its child processes (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import corpus

    sizes = corpus.Sizes.small() if args.small else corpus.Sizes()
    root = os.path.join(WORK, "small" if args.small else "full")
    os.makedirs(root, exist_ok=True)

    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    try:
        if args.workload == "build":
            res = run_build(args.seed, bool(args.trace), sizes, root)
        else:
            res = run_serve(args.workload, args.seed, args.seconds, bool(args.trace), sizes, root)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = end_to_end(res)
    samples = dict(res["samples"], cpu_s=1)
    latency = res.get("latency")  # serving runs only
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in per_layer(res).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    valid = args.workload == "build" or res["detail"]["lag_p99_ms"] <= LAG_LIMIT_MS
    correct = not res["checks"] and res["failed"] == 0
    record.update({
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": samples[k]}
                       for k, v in e2e.items()},
        "latency": latency,
        "detail": res["detail"],
        "checks": res["checks"],
        "valid": valid,
        "correct": correct,
    })
    if args.trace:
        record["per_layer"] = metrics
    for name, m in record["end_to_end"].items():
        print(f"{name:14s} {m['value']:12.4f} {m['unit']:4s} n={m['samples']}")
    if latency:
        print(f"{'p50_ms':14s} {latency['p50_ms']:12.4f} ms   n={latency['p50_samples']}"
              " (not gated; requests due while no refresh was in flight)")
        for name in ("p90_ms", "p99_ms"):
            print(f"{name:14s} {latency[name]:12.4f} ms   n={latency['samples']} (not gated)")
    for check in res["checks"][:20]:
        print(f"CHECK FAILED: {check}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}"
          f"{'' if valid else ' (INVALID: load generator lagged)'}")
    print(json.dumps({"run_record": record}, default=float))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    if not valid:
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
