"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either computed by an independent oracle inside the
test or forced analytically by the operation's contract; tolerances are
pinned here, not tuned to the implementation.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from adexpand.clustering import kmeans, save_clustering
from adexpand.embeddings import EmbeddingSet
from adexpand.errors import ConstraintViolationError
from adexpand.expansion import (
    ExpansionContext,
    FilterReason,
    expand_all,
)
from adexpand.flat_index import build_index, knn_search
from adexpand.relevance import (
    rmse,
    serialize_model,
    train_adjustment,
    train_base,
    tune_market_threshold,
)
from adexpand.reports import LabeledPair, tpr_sweep
from adexpand.service import MatchService
from adexpand.thresholds import build_threshold_table, quantile

from conftest import CHAIN_OUTPUTS, price_step_model, run_chain, single_thread_env
from test_expansion import gender_consistent, numeric_consistent
from test_relevance import assert_same_tree, oracle_fit_tree
from test_reports import sweep_corpus

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def criterion(number, description):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"\nCRITERION {number:2d} FAIL  {description}")
                raise
            elapsed = time.monotonic() - started
            print(f"\nCRITERION {number:2d} PASS  {description} ({elapsed:.1f}s)")

        return wrapper

    return decorate


@criterion(1, "exact k-NN equals the full-sort oracle (5000x64, k=50, 100 queries)")
def test_criterion_1_knn_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    emb = EmbeddingSet.from_pairs(
        "US", [(f"kw-{i}", rng.normal(size=64)) for i in range(5000)]
    )
    index = build_index(emb)

    queries = []
    for _ in range(100):
        q = rng.normal(size=64)
        queries.append((q / np.linalg.norm(q)).astype(np.float32))

    # Independent oracle: float64 arithmetic, lexicographic full sort.
    matrix64 = index.matrix.astype(np.float64)
    ids = np.arange(len(index))
    for q in queries:
        got = knn_search(index, q, k=50)
        distances = 1.0 - matrix64 @ q.astype(np.float64)
        order = np.lexsort((ids, distances))[:50]
        assert [nb.id for nb in got] == [int(ids[row]) for row in order]
        np.testing.assert_allclose(
            [nb.distance for nb in got], distances[order], atol=1e-6
        )

    sequential = [knn_search(index, q, k=50) for q in queries]
    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(lambda q: knn_search(index, q, k=50), queries)) == sequential
    assert time.monotonic() - started < 10.0


@criterion(2, "k-means: monotone WCSS, recovers separated groups, thread-stable")
def test_criterion_2_kmeans(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(1002)

    # Two tight groups around orthogonal centers (sigma = 0.02, 100 points).
    dim = 16
    pairs = []
    for g, axis in enumerate((0, 1)):
        center = np.zeros(dim)
        center[axis] = 1.0
        for i in range(50):
            pairs.append((f"g{g}-{i}", center + rng.normal(scale=0.02, size=dim)))
    emb = EmbeddingSet.from_pairs("US", pairs)
    model = kmeans(emb, 2, seed=2002)
    for earlier, later in zip(model.wcss_history, model.wcss_history[1:]):
        assert later <= earlier + 1e-9
    group_means = [
        emb.matrix[:50].astype(np.float64).mean(axis=0),
        emb.matrix[50:].astype(np.float64).mean(axis=0),
    ]
    matched = set()
    for mean in group_means:
        dists = [float(np.linalg.norm(c - mean)) for c in model.centroids]
        assert min(dists) < 0.05
        matched.add(int(np.argmin(dists)))
    assert matched == {0, 1}

    # Random fixtures: the per-iteration curve stays monotone everywhere.
    for seed in range(3):
        rng2 = np.random.default_rng(3000 + seed)
        emb2 = EmbeddingSet.from_pairs(
            "US", [(f"kw-{i}", rng2.normal(size=8)) for i in range(150)]
        )
        trained = kmeans(emb2, 6, seed=seed)
        for earlier, later in zip(trained.wcss_history, trained.wcss_history[1:]):
            assert later <= earlier + 1e-9

    # Thread-count determinism: identical serialized model from a
    # single-threaded subprocess.
    probe = (
        "import sys, numpy as np\n"
        "from adexpand.embeddings import EmbeddingSet\n"
        "from adexpand.clustering import kmeans, save_clustering\n"
        "rng = np.random.default_rng(1002)\n"
        "dim = 16\n"
        "pairs = []\n"
        "for g, axis in enumerate((0, 1)):\n"
        "    center = np.zeros(dim); center[axis] = 1.0\n"
        "    for i in range(50):\n"
        "        pairs.append((f'g{g}-{i}', center + rng.normal(scale=0.02, size=dim)))\n"
        "emb = EmbeddingSet.from_pairs('US', pairs)\n"
        "save_clustering(kmeans(emb, 2, seed=2002), sys.argv[1])\n"
    )
    sub_path = str(tmp_path / "_sub_clustering.json")
    main_path = str(tmp_path / "_main_clustering.json")
    subprocess.run([sys.executable, "-c", probe, sub_path], check=True,
                   env=single_thread_env())
    save_clustering(model, main_path)
    with open(sub_path, "rb") as fh:
        sub_bytes = fh.read()
    with open(main_path, "rb") as fh:
        main_bytes = fh.read()
    assert sub_bytes == main_bytes
    assert time.monotonic() - started < 5.0


@criterion(3, "quantile oracle, cutoff monotone in p, expansion superset in p")
def test_criterion_3_quantiles_and_thresholds():
    rng = np.random.default_rng(1003)
    values = rng.normal(size=1000)
    for p in rng.uniform(1e-6, 1.0, size=25).tolist() + [1.0]:
        assert quantile(values, p) == pytest.approx(
            float(np.quantile(values, p, method="linear")), abs=1e-9
        )

    emb = EmbeddingSet.from_pairs(
        "US", [(f"kw-{i}", rng.normal(size=8)) for i in range(80)]
    )
    clustering = kmeans(emb, 4, seed=33)
    index = build_index(emb)
    grid = [0.95, 0.99, 0.9999, 0.999999]
    previous_tau = None
    previous_accepted = None
    for p in grid:
        table = build_threshold_table(clustering, emb, p, min_cluster_size=0)
        taus = [table.rows[m].tau_distance for m in range(4)]
        if previous_tau is not None:
            for old, new in zip(previous_tau, taus):
                assert old <= new + 1e-12
        previous_tau = taus
        accepted = {
            record.origin: {v.text for v in record.variants}
            for record in expand_all(ExpansionContext(emb, index, clustering, table), 100)
        }
        if previous_accepted is not None:
            for origin, variants in previous_accepted.items():
                assert variants <= accepted[origin]
        previous_accepted = accepted


@criterion(4, "consistency filters reproduce the documented example pairs")
def test_criterion_4_filter_fidelity():
    assert not gender_consistent("men's shoes", "women's sandals")
    assert not numeric_consistent("iPhone 13 case", "iPhone 12 accessories")
    assert numeric_consistent("65W USB-C GaN Charger", "USB-C GaN Power Adapter 65W")
    assert gender_consistent("65W USB-C GaN Charger", "USB-C GaN Power Adapter 65W")
    assert gender_consistent("Ladies Winter Jumpers", "Women's Winter Sweaters")

    # The same pairs through the expansion pipeline, with hand-placed vectors.
    def near(base, i, eps):
        v = base.copy()
        v[i] += eps
        return v

    axis = np.zeros(8)
    axis[0] = 1.0
    pairs = [
        ("men's shoes", axis),
        ("women's sandals", near(axis, 1, 0.05)),
        ("iphone 13 case", near(axis, 2, 0.4)),
        ("iphone 12 accessories", near(axis, 2, 0.45)),
        ("65w usb-c gan charger", near(axis, 3, 0.4)),
        ("usb-c gan power adapter 65w", near(axis, 3, 0.45)),
    ]
    emb = EmbeddingSet.from_pairs("US", pairs)
    clustering = kmeans(emb, 1, seed=4)
    table = build_threshold_table(clustering, emb, 1.0, min_cluster_size=0)
    # widen the gate so every neighbor is threshold-eligible
    table.rows[0].tau_distance = 2.0
    context = ExpansionContext(emb, build_index(emb), clustering, table)
    records = {r.origin: r for r in expand_all(context, 100)}
    shoes = {v.text: v for v in records["men's shoes"].variants}
    assert shoes["women's sandals"].filtered_reason is FilterReason.GENDER
    phone = {v.text: v for v in records["iphone 13 case"].variants}
    assert phone["iphone 12 accessories"].filtered_reason is FilterReason.NUMERIC
    charger = {v.text: v for v in records["65w usb-c gan charger"].variants}
    assert charger["usb-c gan power adapter 65w"].filtered_reason is None


@criterion(5, "boosting: monotone training RMSE, exactness, frozen base, caps")
def test_criterion_5_gbdt_properties():
    rng = np.random.default_rng(1005)
    X = rng.normal(size=(2000, 4))
    y = 2.0 + np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.3 * rng.normal(size=2000)
    model = train_base(X, y, tree_count=50, learning_rate=0.1)
    assert len(model.train_rmse) == 50
    for earlier, later in zip(model.train_rmse, model.train_rmse[1:]):
        assert later <= earlier + 1e-12

    constant = train_base(X[:100], np.full(100, 3.25), tree_count=1, learning_rate=1.0)
    np.testing.assert_allclose(constant.predict(X[:100]), 3.25, atol=1e-12)

    before = serialize_model(model)
    train_adjustment(model, X[:500], y[:500] - 0.3, adjustment_trees=2, max_depth=5)
    assert serialize_model(model) == before

    with pytest.raises(ConstraintViolationError):
        train_adjustment(model, X, y, adjustment_trees=3)
    with pytest.raises(ConstraintViolationError):
        train_adjustment(model, X, y, max_depth=6)


def _shifted_population(rng, n):
    x0 = rng.uniform(size=n)
    grade = np.clip(1 + np.floor(5 * x0), 1, 5)
    clean = grade + 0.1 * rng.normal(size=n)
    X = np.column_stack([x0, rng.normal(size=n), rng.normal(size=n)])
    return X, clean, grade


@criterion(6, "residual stacking fixes a -0.5 shift on low grades (>=4% RMSE)")
def test_criterion_6_stacking_improvement():
    started = time.monotonic()
    rng = np.random.default_rng(1006)
    X_train, clean_train, _ = _shifted_population(rng, 4000)
    base = train_base(X_train, clean_train, tree_count=60, learning_rate=0.1)

    # Shifted new inventory: grades <= 2 sit 0.5 lower than the base learned.
    X_new, clean_new, grade_new = _shifted_population(rng, 2000)
    y_new = clean_new - 0.5 * (grade_new <= 2)
    stacked = train_adjustment(base, X_new, y_new, adjustment_trees=2, max_depth=5,
                               min_leaf=150)

    # The adjustment trees must be exactly the brute-force residual fits.
    running = base.predict(X_new)
    for tree in stacked.adjustment:
        oracle = oracle_fit_tree(X_new, y_new - running, max_depth=5, min_leaf=150)
        assert_same_tree(tree, oracle)
        running = running + tree.predict(X_new)

    X_hold, clean_hold, grade_hold = _shifted_population(rng, 2000)
    y_hold = clean_hold - 0.5 * (grade_hold <= 2)
    low = grade_hold <= 2
    base_rmse = rmse(base.predict(X_hold[low]), y_hold[low])
    stacked_rmse = rmse(stacked.predict(X_hold[low]), y_hold[low])
    assert stacked_rmse <= base_rmse * 0.96  # at least 4% better

    # No-shift control: adjustment trained on the base's own distribution
    # must not move overall holdout RMSE by more than 2%.
    X_ctrl, clean_ctrl, _ = _shifted_population(rng, 2000)
    control = train_adjustment(base, X_ctrl, clean_ctrl, adjustment_trees=2,
                               max_depth=5, min_leaf=150)
    X_eval, clean_eval, _ = _shifted_population(rng, 2000)
    base_eval = rmse(base.predict(X_eval), clean_eval)
    control_eval = rmse(control.predict(X_eval), clean_eval)
    assert abs(control_eval - base_eval) / base_eval <= 0.02
    assert time.monotonic() - started < 30.0


@criterion(7, "market threshold tuner equals the exhaustive-scan oracle")
def test_criterion_7_threshold_tuner():
    rng = np.random.default_rng(1007)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        predictions = np.round(rng.normal(loc=3.0, scale=1.2, size=n), 2)
        grades = rng.integers(1, 6, size=n).astype(float)
        for target in (0.6, 0.8, 1.0):
            relevant = grades >= 3
            expected = None
            for t in sorted(set(predictions.tolist())):
                passed = predictions >= t
                if relevant[passed].sum() / passed.sum() >= target:
                    expected = t
                    break
            decision = tune_market_threshold(predictions, grades, "US", target)
            if expected is None:
                assert not decision.feasible
                assert not np.any(predictions >= decision.threshold)
            else:
                assert decision.feasible
                assert decision.threshold == expected


@criterion(8, "golden pipeline run is byte-identical and match records hold")
def test_criterion_8_golden_run(chain_dir, tmp_path_factory):
    rerun_dir = str(tmp_path_factory.mktemp("acceptance-rerun"))
    run_chain(rerun_dir)
    for name in CHAIN_OUTPUTS:
        with open(os.path.join(chain_dir, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(rerun_dir, name), "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} not reproducible"

    threads_dir = str(tmp_path_factory.mktemp("acceptance-threads"))
    script = (
        "import sys; sys.path.insert(0, r'%s'); "
        "from conftest import run_chain; run_chain(r'%s')" % (_TESTS_DIR, threads_dir)
    )
    subprocess.run([sys.executable, "-c", script], check=True,
                   env=single_thread_env(), cwd=_TESTS_DIR)
    for name in CHAIN_OUTPUTS:
        with open(os.path.join(chain_dir, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(threads_dir, name), "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} differs across thread counts"

    with open(os.path.join(chain_dir, "matches.jsonl")) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    assert records
    for r in records:
        assert r["score"] >= r["threshold"]
        assert abs(r["score"] - (r["score_base"] + r["score_adjustment"])) < 1e-9


@criterion(9, "TPR report: all-positive rate 1.0, reference row exactly 100")
def test_criterion_9_tpr_contract():
    emb, clustering = sweep_corpus()
    grid = [0.95, 0.99, 0.9999, 0.999999]

    all_positive = [
        LabeledPair("led garden lights", "outdoor led lights", 1),
        LabeledPair("led garden lights", "garden lighting", 1),
    ]
    rows = tpr_sweep(emb, clustering, all_positive, grid, k_neighbors=5,
                     min_cluster_size=0)
    for row in rows:
        assert row.tpr_raw == 1.0
        assert row.tpr_filtered == 1.0
    assert [r.tpr_normalized for r in rows if r.p == max(grid)] == [100.0]

    with_negatives = all_positive + [
        LabeledPair("mens shoes", "womens sandals", 0),
    ]
    rows = tpr_sweep(emb, clustering, with_negatives, grid, k_neighbors=5,
                     min_cluster_size=0)
    for row in rows:
        assert row.tpr_filtered >= row.tpr_raw - 1e-12


@criterion(10, "snapshot isolation: 10k reads, 50 refreshes, no mixed batches")
def test_criterion_10_snapshot_isolation(chain_dir, tmp_path):
    # Version v scores with base_score = 100 * v and keeps every item at
    # threshold -v, so each record is tagged with its version twice; a batch
    # mixing two versions, or one version's model with another's
    # thresholds, would carry two tags. A refresh rewrites only meta.json,
    # model.json and market_thresholds.json of one directory.
    snapshot_dir = str(tmp_path / "snapshot")
    shutil.copytree(os.path.join(chain_dir, "snapshot"), snapshot_dir)

    def publish(version):
        with open(os.path.join(snapshot_dir, "model.json"), "wb") as fh:
            fh.write(serialize_model(price_step_model(base_score=100.0 * version)))
        with open(os.path.join(snapshot_dir, "market_thresholds.json"), "w") as fh:
            json.dump({"US": -version, "UK": -version}, fh)
        meta_path = os.path.join(snapshot_dir, "meta.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        with open(meta_path, "w") as fh:
            json.dump({**meta, "version": version}, fh)

    publish(1)
    service = MatchService(snapshot_dir)
    errors = []
    total = [0]
    lock = threading.Lock()
    target = 10_000
    swaps_done = threading.Event()

    def reader():
        last_version = 0
        while True:
            with lock:
                if total[0] >= target and swaps_done.is_set():
                    return
                total[0] += 1
            records, version = service.match("solar led garden lights outdoor", "US")
            tags = {int(r.score_base // 100) for r in records} | {-r.threshold for r in records}
            if not records:
                errors.append(f"no matches under version {version}")
            elif tags != {version}:
                errors.append(f"tags {tags} under version {version}")
            if version < last_version:
                errors.append("version decreased")
            last_version = version

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for v in range(2, 52):
        publish(v)
        assert service.refresh() == (v - 1, v)
        time.sleep(0.002)
    swaps_done.set()
    for t in threads:
        t.join()
    assert total[0] >= target
    assert errors == []
