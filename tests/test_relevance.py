"""Tree fitting, boosting, residual stacking, evaluation, threshold tuning."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adexpand.errors import (
    ConstraintViolationError,
    EmptyDatasetError,
    ParseError,
    SchemaMismatchError,
)
from adexpand.relevance import (
    GbdtModel,
    RegressionTree,
    StackedModel,
    TreeNode,
    as_stacked,
    fit_tree,
    gbdt_from_doc,
    gbdt_to_doc,
    load_dataset,
    load_model,
    rmse,
    rmse_by_label,
    save_dataset,
    save_model,
    serialize_model,
    stacked_from_doc,
    stacked_to_doc,
    train_adjustment,
    train_base,
    tune_market_threshold,
)


def oracle_fit_tree(X, y, max_depth, min_leaf):
    """Independent brute-force CART: every midpoint split, O(n^2) SSE."""

    def sse(values):
        return float(np.sum((values - values.mean()) ** 2)) if values.size else 0.0

    def build(idx, depth):
        y_node = y[idx]
        node = {"value": float(y_node.mean()), "feature": None}
        if depth >= max_depth or idx.size < 2 * min_leaf or np.all(y_node == y_node[0]):
            return node
        best = None
        tie_eps = 1e-9 * max(1.0, sse(y_node))
        for f in range(X.shape[1]):
            vals = sorted(set(X[idx, f].tolist()))
            for a, b in zip(vals, vals[1:]):
                t = (a + b) / 2.0
                left = idx[X[idx, f] <= t]
                right = idx[X[idx, f] > t]
                if left.size < min_leaf or right.size < min_leaf:
                    continue
                gain = sse(y_node) - sse(y[left]) - sse(y[right])
                if gain > 1e-12 and (best is None or gain > best[0] + tie_eps):
                    best = (gain, f, t, left, right)
        if best is None:
            return node
        _, f, t, left, right = best
        node.update(feature=f, threshold=t)
        node["left"] = build(left, depth + 1)
        node["right"] = build(right, depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0)


def assert_same_tree(tree: RegressionTree, oracle: dict, node_index: int = 0):
    node = tree.nodes[node_index]
    if oracle["feature"] is None:
        assert node.feature == -1
        assert node.value == pytest.approx(oracle["value"], abs=1e-9)
        return
    assert node.feature == oracle["feature"]
    assert node.threshold == pytest.approx(oracle["threshold"], abs=1e-9)
    assert_same_tree(tree, oracle["left"], node.left)
    assert_same_tree(tree, oracle["right"], node.right)


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        tree = fit_tree(X, np.full(10, 2.5), max_depth=4)
        assert len(tree.nodes) == 1
        assert tree.nodes[0].feature == -1
        assert tree.nodes[0].value == 2.5

    def test_step_function_split_found_by_enumeration(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(size=200)
        y = np.where(x <= 0.5, 1.0, 3.0)
        tree = fit_tree(x[:, None], y, max_depth=1)
        oracle = oracle_fit_tree(x[:, None], y, max_depth=1, min_leaf=1)
        assert_same_tree(tree, oracle)
        # The split lands in the gap around the step.
        below = x[x <= 0.5].max()
        above = x[x > 0.5].min()
        assert below < tree.nodes[0].threshold < above
        leaves = set(tree.predict(np.array([[0.0], [1.0]])).tolist())
        assert leaves == {1.0, 3.0}

    def test_min_leaf_equal_to_n_gives_single_leaf(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        tree = fit_tree(X, y, max_depth=5, min_leaf=20)
        assert len(tree.nodes) == 1
        assert tree.nodes[0].value == pytest.approx(float(y.mean()), abs=1e-12)

    def test_matches_bruteforce_oracle_on_random_data(self):
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(60, 3))
            y = rng.normal(size=60) + 2.0 * (X[:, 0] > 0)
            tree = fit_tree(X, y, max_depth=3, min_leaf=2)
            oracle = oracle_fit_tree(X, y, max_depth=3, min_leaf=2)
            assert_same_tree(tree, oracle)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), max_depth=2)


def synthetic_regression(rng, n=2000, d=4, noise=0.3):
    X = rng.normal(size=(n, d))
    y = 3.0 + np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 - 0.8 * X[:, 2] + noise * rng.normal(size=n)
    return X, y


class TestTrainBase:
    def test_constant_labels_exact(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        model = train_base(X, np.full(50, 4.0), tree_count=1, learning_rate=1.0)
        np.testing.assert_allclose(model.predict(X), 4.0, atol=1e-12)

    def test_training_rmse_non_increasing(self):
        rng = np.random.default_rng(3)
        X, y = synthetic_regression(rng)
        model = train_base(X, y, tree_count=50, learning_rate=0.1)
        assert len(model.train_rmse) == 50
        for earlier, later in zip(model.train_rmse, model.train_rmse[1:]):
            assert later <= earlier + 1e-12

    def test_single_example_fit_exactly(self):
        model = train_base(np.array([[1.0, 2.0]]), np.array([3.5]), tree_count=1,
                           learning_rate=1.0)
        assert float(model.predict(np.array([[1.0, 2.0]]))[0]) == pytest.approx(3.5, abs=1e-12)

    def test_schema_mismatch(self):
        rng = np.random.default_rng(4)
        model = train_base(rng.normal(size=(30, 3)), rng.normal(size=30), tree_count=2)
        with pytest.raises(SchemaMismatchError):
            model.predict(np.ones((1, 4)))


class TestTrainAdjustment:
    def test_constant_base_shifted_to_new_labels(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 2))
        base = train_base(X, np.zeros(100), tree_count=1, learning_rate=1.0)
        stacked = train_adjustment(base, X, np.ones(100), adjustment_trees=1,
                                   max_depth=1, min_leaf=1)
        np.testing.assert_allclose(stacked.predict(X), 1.0, atol=1e-12)

    def test_base_bytes_unchanged_by_stacking(self):
        rng = np.random.default_rng(6)
        X, y = synthetic_regression(rng, n=300)
        base = train_base(X, y, tree_count=10)
        before = serialize_model(base)
        train_adjustment(base, X[:100], y[:100] - 0.2, adjustment_trees=2, max_depth=3)
        assert serialize_model(base) == before

    def test_limits_enforced(self):
        rng = np.random.default_rng(7)
        X, y = synthetic_regression(rng, n=100)
        base = train_base(X, y, tree_count=2)
        with pytest.raises(ConstraintViolationError):
            train_adjustment(base, X, y, adjustment_trees=3)
        with pytest.raises(ConstraintViolationError):
            train_adjustment(base, X, y, max_depth=6)

    def test_adjustment_trees_fit_residuals_sequentially(self):
        rng = np.random.default_rng(8)
        X, y = synthetic_regression(rng, n=400)
        base = train_base(X, y, tree_count=5)
        shifted = y - 0.4
        stacked = train_adjustment(base, X, shifted, adjustment_trees=2, max_depth=5,
                                   min_leaf=20)
        # Oracle: refit the two trees by brute force on the running residuals.
        running = base.predict(X)
        for tree in stacked.adjustment:
            oracle = oracle_fit_tree(X, shifted - running, max_depth=5, min_leaf=20)
            assert_same_tree(tree, oracle)
            running = running + tree.predict(X)


class TestPredict:
    def _fixture_tree(self):
        # x0 <= 1.5 -> 2.0 else 5.0, built by hand.
        return RegressionTree(
            nodes=[
                TreeNode(feature=0, threshold=1.5, left=1, right=2, value=0.0),
                TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=2.0),
                TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=5.0),
            ],
            max_depth=1,
        )

    def test_identity_stacking_equals_base(self):
        rng = np.random.default_rng(9)
        X, y = synthetic_regression(rng, n=200)
        base = train_base(X, y, tree_count=5)
        stacked = as_stacked(base)
        np.testing.assert_array_equal(stacked.predict(X), base.predict(X))

    def test_decomposition(self):
        rng = np.random.default_rng(10)
        X, y = synthetic_regression(rng, n=300)
        base = train_base(X, y, tree_count=5)
        stacked = train_adjustment(base, X, y - 0.3, adjustment_trees=2, max_depth=2)
        total = stacked.predict(X)
        parts = stacked.predict_base(X) + stacked.predict_adjustment(X)
        np.testing.assert_allclose(total, parts, atol=1e-9)

    def test_hand_traversal(self):
        tree = self._fixture_tree()
        base = GbdtModel(base_score=1.0, learning_rate=0.5, n_features=1, trees=[tree])
        stacked = StackedModel(base=base, adjustment=[tree], adjustment_rate=2.0)
        x = np.array([1.0])
        # hand evaluation: base = 1.0 + 0.5*2.0 = 2.0 ; adj = 2.0*2.0 = 4.0
        b, a = stacked.predict_one(x)
        assert b == pytest.approx(2.0, abs=1e-12)
        assert a == pytest.approx(4.0, abs=1e-12)
        x = np.array([2.0])
        b, a = stacked.predict_one(x)
        assert b == pytest.approx(1.0 + 0.5 * 5.0, abs=1e-12)
        assert a == pytest.approx(2.0 * 5.0, abs=1e-12)

    def test_value_on_threshold_goes_left(self):
        tree = self._fixture_tree()
        X = np.array([[1.5], [np.nextafter(1.5, 2.0)], [-np.inf], [np.inf]])
        np.testing.assert_array_equal(tree.predict(X), [2.0, 5.0, 2.0, 5.0])


def reference_leaf(tree, x):
    """Plain per-row walk from the root."""
    i = 0
    while tree.nodes[i].feature >= 0:
        node = tree.nodes[i]
        i = node.left if x[node.feature] <= node.threshold else node.right
    return tree.nodes[i].value


def reference_sum(start, rate, trees, X):
    out = []
    for x in X:
        total = start
        for tree in trees:
            total += rate * reference_leaf(tree, x)
        out.append(total)
    return np.array(out, dtype=np.float64)


N_FEATURES = 3
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
finite = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def random_trees(draw, max_depth=4):
    """A tree in pre-order; thresholds come from GRID so rows can sit on one."""
    nodes = []

    def build(depth):
        pos = len(nodes)
        nodes.append(None)
        if depth < max_depth and draw(st.booleans()):
            feature = draw(st.integers(0, N_FEATURES - 1))
            threshold = draw(st.sampled_from(GRID))
            left = build(depth + 1)
            right = build(depth + 1)
            nodes[pos] = TreeNode(feature, threshold, left, right, draw(finite))
        else:
            nodes[pos] = TreeNode(-1, 0.0, -1, -1, draw(finite))
        return pos

    build(0)
    return RegressionTree(nodes=nodes, max_depth=max_depth)


row_values = st.one_of(
    st.sampled_from(GRID + [math.inf, -math.inf, math.nan]),
    st.floats(-2.0, 2.0),
)
rows = st.lists(
    st.lists(row_values, min_size=N_FEATURES, max_size=N_FEATURES), max_size=8
).map(lambda r: np.array(r, dtype=np.float64).reshape(-1, N_FEATURES))


class TestBatchedWalk:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        base_trees=st.lists(random_trees(), max_size=6),
        adjustment=st.lists(random_trees(max_depth=2), max_size=2),
        base_score=finite,
        learning_rate=st.floats(0.01, 2.0),
        adjustment_rate=st.floats(0.01, 2.0),
        X=rows,
    )
    def test_equals_per_row_reference(
        self, base_trees, adjustment, base_score, learning_rate, adjustment_rate, X
    ):
        base = GbdtModel(base_score, learning_rate, N_FEATURES, trees=base_trees)
        model = StackedModel(base=base, adjustment=adjustment, adjustment_rate=adjustment_rate)
        want_base = reference_sum(base_score, learning_rate, base_trees, X)
        want_adjustment = reference_sum(0.0, adjustment_rate, adjustment, X)
        # the whole batch, every row alone, and the empty batch
        for batch in [slice(None)] + [slice(i, i + 1) for i in range(len(X))] + [slice(0, 0)]:
            np.testing.assert_array_equal(base.predict(X[batch]), want_base[batch])
            np.testing.assert_array_equal(model.predict_base(X[batch]), want_base[batch])
            np.testing.assert_array_equal(
                model.predict_adjustment(X[batch]), want_adjustment[batch]
            )
        for tree in base_trees:
            np.testing.assert_array_equal(
                tree.predict(X), [reference_leaf(tree, x) for x in X]
            )
        for i, x in enumerate(X):
            assert model.predict_one(x) == (want_base[i], want_adjustment[i])

    def test_trees_are_fixed_when_the_model_is_made(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 2))
        trees = [fit_tree(X, rng.normal(size=50), max_depth=3) for _ in range(3)]
        given_trees = [trees[0]]
        base = GbdtModel(base_score=0.5, learning_rate=0.3, n_features=2, trees=given_trees)
        model = StackedModel(base=base, adjustment=[trees[1]], adjustment_rate=0.9)
        given_trees.append(trees[2])  # the model holds its own copy of the list
        for change in (
            lambda: model.adjustment.append(trees[2]),
            lambda: model.adjustment.__setitem__(0, trees[0]),
            lambda: base.trees.append(trees[1]),
            lambda: setattr(model, "adjustment", [trees[2]]),
            lambda: setattr(base, "trees", [trees[1]]),
            lambda: setattr(base, "packed", model.packed),
        ):
            with pytest.raises((AttributeError, TypeError)):
                change()
        np.testing.assert_array_equal(
            model.predict_adjustment(X), reference_sum(0.0, 0.9, [trees[1]], X)
        )
        np.testing.assert_array_equal(model.predict_base(X), reference_sum(0.5, 0.3, [trees[0]], X))
        # a model file with a bad node still fails at load
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_one_split_doc(left=0)), encoding="utf-8")
        with pytest.raises(ParseError, match="children"):
            load_model(str(path))


def _one_split_doc(**node0):
    tree = RegressionTree(
        nodes=[
            TreeNode(feature=0, threshold=0.5, left=1, right=2, value=0.0),
            TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=1.0),
            TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=2.0),
        ],
        max_depth=1,
    )
    doc = gbdt_to_doc(GbdtModel(base_score=0.0, learning_rate=1.0, n_features=2, trees=[tree]))
    names = ["feature", "threshold", "left", "right", "value"]
    for name, value in node0.items():
        doc["trees"][0]["nodes"][0][names.index(name)] = value
    return doc


class TestModelValidation:
    @pytest.mark.parametrize("node0, message", [
        ({"left": 0}, "children"),
        ({"right": 3}, "children"),
        ({"left": -1}, "children"),
        ({"feature": 2}, "feature 2"),
        ({"value": math.inf}, "finite, got inf"),
        ({"value": math.nan}, "finite, got nan"),
    ])
    def test_bad_node_is_parse_error(self, tmp_path, node0, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_one_split_doc(**node0)), encoding="utf-8")
        with pytest.raises(ParseError, match=message) as info:
            load_model(str(path))
        assert str(info.value).startswith(f"{path}: ")

    def test_bad_adjustment_tree_is_parse_error(self):
        good = gbdt_from_doc(_one_split_doc())
        doc = stacked_to_doc(StackedModel(base=good, adjustment=list(good.trees)))
        doc["adjustment"][0]["nodes"][0][0] = 2  # feature 2 of a 2-feature model
        with pytest.raises(ParseError, match="feature 2"):
            stacked_from_doc(doc)

    def test_valid_doc_loads_and_scores(self):
        model = gbdt_from_doc(_one_split_doc())
        np.testing.assert_array_equal(model.predict(np.array([[0.5, 9.0], [0.6, 9.0]])), [1.0, 2.0])

    @pytest.mark.parametrize("text", ['{"kind": "gbdt"}', "[1]", '{"trees": 3}'])
    def test_malformed_model_file_is_parse_error(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="malformed model"):
            load_model(str(path))


class TestRmseByLabel:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 2))
        y = rng.integers(1, 6, size=60).astype(float)
        # 40 boosting stages of depth-6 trees interpolate these 60 rows;
        # train_base's depth-3 trees would only approach them
        trees, current = [], np.zeros(60)
        for _ in range(40):
            trees.append(fit_tree(X, y - current, max_depth=6, min_leaf=1))
            current += trees[-1].predict(X)
        model = as_stacked(GbdtModel(base_score=0.0, learning_rate=1.0, n_features=2,
                                     trees=trees))
        if not np.allclose(model.predict(X), y):
            pytest.skip("fixture did not interpolate; adjust tree capacity")
        per_grade, overall = rmse_by_label(model, X, y)
        assert overall == pytest.approx(0.0, abs=1e-9)
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in per_grade.values())

    def test_constant_predictor_analytic(self):
        X = np.zeros((4, 1))
        y = np.array([1.0, 5.0, 1.0, 5.0])
        model = as_stacked(GbdtModel(base_score=3.0, learning_rate=1.0, n_features=1))
        per_grade, overall = rmse_by_label(model, X, y)
        assert per_grade == {1: pytest.approx(2.0), 5: pytest.approx(2.0)}
        assert overall == pytest.approx(2.0)

    def test_matches_per_group_recomputation(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 3))
        y = rng.integers(1, 6, size=200).astype(float)
        model = as_stacked(train_base(X, y, tree_count=10))
        per_grade, _ = rmse_by_label(model, X, y)
        predictions = model.predict(X)
        for grade, value in per_grade.items():
            mask = y == grade
            expected = float(np.sqrt(np.mean((predictions[mask] - y[mask]) ** 2)))
            assert value == pytest.approx(expected, abs=1e-9)


def oracle_tune(predictions, grades, target):
    """Exhaustive scan over candidate thresholds."""
    candidates = sorted(set(predictions.tolist()))
    relevant = grades >= 3
    for t in candidates:
        passed = predictions >= t
        if passed.sum() and relevant[passed].sum() / passed.sum() >= target:
            return t
    return None


class TestTuneMarketThreshold:
    def test_forced_by_rule(self):
        decision = tune_market_threshold(
            np.array([1.0, 2, 3, 4, 5]), np.array([1.0, 2, 3, 4, 5]), "US", 1.0
        )
        assert decision.threshold == 3.0
        assert decision.feasible

    def test_all_relevant_passes_everything(self):
        decision = tune_market_threshold(
            np.array([2.0, 4.0, 3.0]), np.array([3.0, 4.0, 5.0]), "US", 0.5
        )
        assert decision.threshold == 2.0
        assert decision.recall == 1.0

    def test_infeasible_passes_nothing(self):
        predictions = np.array([1.0, 2.0])
        decision = tune_market_threshold(predictions, np.array([1.0, 2.0]), "US", 0.9)
        assert not decision.feasible
        assert not np.any(predictions >= decision.threshold)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            predictions = np.round(rng.normal(loc=3, size=n), 2)
            grades = rng.integers(1, 6, size=n).astype(float)
            for target in (0.6, 0.8, 1.0):
                expected = oracle_tune(predictions, grades, target)
                decision = tune_market_threshold(predictions, grades, "US", target)
                if expected is None:
                    assert not decision.feasible
                else:
                    assert decision.feasible
                    assert decision.threshold == pytest.approx(expected, abs=0)


class TestPersistence:
    def test_dataset_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        path = str(tmp_path / "data.csv")
        save_dataset(X, y, ["f1", "f2", "f3"], path)
        X2, y2, names = load_dataset(path)
        np.testing.assert_array_equal(X2, X)
        np.testing.assert_array_equal(y2, y)
        assert names == ["f1", "f2", "f3"]

    @pytest.mark.parametrize("text, where, what", [
        ("a,b,label\n1,x,0\n", ":2:", "could not convert"),
        ("a,b,label\n1,2,0\n1,nan,0\n", ":3:", "finite"),
        ("a,b,label\n1,2,inf\n", ":2:", "finite"),
        ("a,b,label\n1,2,0\n1,2\n", ":3:", "expected 3 columns, got 2"),
        ("a,b,grade\n1,2,0\n", ":1:", "header"),
        ("", ":1:", "header"),
    ])
    def test_bad_dataset_names_the_line(self, tmp_path, text, where, what):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=what) as info:
            load_dataset(str(path))
        assert f"{path}{where}" in str(info.value)

    def test_header_only_dataset_is_empty(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n\n", encoding="utf-8")
        with pytest.raises(EmptyDatasetError, match="no data rows"):
            load_dataset(str(path))

    def test_model_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        X, y = synthetic_regression(rng, n=200)
        base = train_base(X, y, tree_count=5, feature_names=["a", "b", "c", "d"])
        stacked = train_adjustment(base, X, y - 0.1, adjustment_trees=1, max_depth=2)
        path = str(tmp_path / "model.json")
        save_model(stacked, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(X), stacked.predict(X))
        assert serialize_model(loaded) == serialize_model(stacked)

    def test_rmse_helper(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )
