"""Query-item relevance models: least-squares boosted regression trees, an
incremental residual-stacking step for new inventory, per-grade RMSE
evaluation, and per-market score threshold tuning.

The base ensemble is trained once on a large labeled dataset and then frozen.
Adapting to new inventory never touches it: at most two shallow trees are fit
on the new data's residuals and added on top, so the serving score is always
base + adjustment and the base stays byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MALFORMED,
    ConstraintViolationError,
    EmptyDatasetError,
    SchemaMismatchError,
    malformed,
)
from .trees import PackedTrees, RegressionTree, TreeNode, accumulate, pack_trees

MAX_ADJUSTMENT_TREES = 2
MAX_ADJUSTMENT_DEPTH = 5
RELEVANT_GRADE = 3

_GAIN_EPS = 1e-12


def _leaf(nodes: list[TreeNode], value: float) -> int:
    nodes.append(TreeNode(feature=-1, threshold=0.0, left=-1, right=-1, value=value))
    return len(nodes) - 1


def _best_split(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, min_leaf: int
) -> tuple[float, int, float] | None:
    """Exhaustive variance-reduction split search over sorted feature values.

    Returns (gain, feature, threshold) with ties resolved to the lowest
    feature index and then the lowest threshold, or None when no split beats
    zero gain. Thresholds are midpoints between consecutive distinct values.
    Gains within float noise of the incumbent count as ties, so two features
    inducing the same partition resolve to the lower feature index.
    """
    n = idx.size
    y_node = y[idx]
    total = float(y_node.sum())
    total_sq = float((y_node * y_node).sum())
    sse_parent = total_sq - total * total / n
    tie_eps = 1e-9 * max(1.0, abs(sse_parent))
    best: tuple[float, int, float] | None = None
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y_node[order]
        cum = np.cumsum(sy)
        cum_sq = np.cumsum(sy * sy)
        for i in range(min_leaf, n - min_leaf + 1):
            if sv[i - 1] == sv[i]:
                continue
            left_sum = cum[i - 1]
            left_sq = cum_sq[i - 1]
            sse_left = left_sq - left_sum * left_sum / i
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            sse_right = right_sq - right_sum * right_sum / (n - i)
            gain = sse_parent - sse_left - sse_right
            if gain > _GAIN_EPS and (best is None or gain > best[0] + tie_eps):
                best = (gain, f, float((sv[i - 1] + sv[i]) / 2.0))
    return best


def fit_tree(
    X: np.ndarray,
    targets: np.ndarray,
    max_depth: int,
    min_leaf: int = 1,
) -> RegressionTree:
    """Greedy CART regression tree; leaves predict the target mean."""
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot fit a tree on an empty dataset")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if min_leaf < 1:
        raise ValueError("min_leaf must be at least 1")
    nodes: list[TreeNode] = []

    def build(idx: np.ndarray, depth: int) -> int:
        y_node = targets[idx]
        mean = float(y_node.mean())
        if depth >= max_depth or idx.size < 2 * min_leaf or np.all(y_node == y_node[0]):
            return _leaf(nodes, mean)
        found = _best_split(X, targets, idx, min_leaf)
        if found is None:
            return _leaf(nodes, mean)
        _, feature, threshold = found
        mask = X[idx, feature] <= threshold
        node_pos = len(nodes)
        nodes.append(TreeNode(feature=feature, threshold=threshold, left=-1, right=-1, value=mean))
        nodes[node_pos].left = build(idx[mask], depth + 1)
        nodes[node_pos].right = build(idx[~mask], depth + 1)
        return node_pos

    build(np.arange(X.shape[0]), 0)
    return RegressionTree(nodes=nodes, max_depth=max_depth)


@dataclass(frozen=True)
class GbdtModel:
    """Frozen base ensemble: base_score + learning_rate * sum of trees. The
    trees are packed once, when the model is made, which validates them."""

    base_score: float
    learning_rate: float
    n_features: int
    trees: tuple[RegressionTree, ...] = ()
    feature_names: list[str] | None = None
    train_rmse: list[float] = field(default_factory=list)
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "packed", pack_trees(self.trees, self.n_features))

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = self._check(X)
        out = np.full(X.shape[0], self.base_score, dtype=np.float64)
        accumulate(self.packed, X, self.learning_rate, out)
        return out

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise SchemaMismatchError(
                f"got {X.shape[1]} features, model expects {self.n_features}"
            )
        return X


def train_base(
    X: np.ndarray,
    y: np.ndarray,
    tree_count: int,
    learning_rate: float = 0.1,
    max_depth: int = 3,
    seed: int = 0,
    min_leaf: int = 5,
    feature_names: list[str] | None = None,
) -> GbdtModel:
    """Least-squares boosting: each stage fits a tree to current residuals.

    Training is fully deterministic (exhaustive split search, no
    subsampling); the seed parameter is part of the pipeline contract and
    reserved for sampled variants. The per-stage training RMSE is recorded.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    if tree_count < 1:
        raise ValueError("tree_count must be at least 1")
    del seed
    base_score = float(y.mean())
    trees: list[RegressionTree] = []
    train_rmse: list[float] = []
    current = np.full(X.shape[0], base_score, dtype=np.float64)
    for _ in range(tree_count):
        residuals = y - current
        tree = fit_tree(X, residuals, max_depth=max_depth, min_leaf=min_leaf)
        current += learning_rate * tree.predict(X)
        trees.append(tree)
        train_rmse.append(float(np.sqrt(np.mean((y - current) ** 2))))
    return GbdtModel(
        base_score=base_score,
        learning_rate=learning_rate,
        n_features=X.shape[1],
        trees=trees,
        feature_names=list(feature_names) if feature_names else None,
        train_rmse=train_rmse,
    )


@dataclass(frozen=True)
class StackedModel:
    """Frozen base plus at most two shallow residual-adjustment trees,
    packed once when the model is made, as GbdtModel's are."""

    base: GbdtModel
    adjustment: tuple[RegressionTree, ...] = ()
    adjustment_rate: float = 1.0
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjustment", tuple(self.adjustment))
        object.__setattr__(self, "packed", pack_trees(self.adjustment, self.base.n_features))

    def predict_base(self, X: np.ndarray) -> np.ndarray:
        return self.base.predict(X)

    def predict_adjustment(self, X: np.ndarray) -> np.ndarray:
        X = self.base._check(X)
        out = np.zeros(X.shape[0], dtype=np.float64)
        accumulate(self.packed, X, self.adjustment_rate, out)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_base(X) + self.predict_adjustment(X)

    def predict_one(self, x: np.ndarray) -> tuple[float, float]:
        """(base component, adjustment component) for a single row.

        Serving scores whole batches through predict_base and
        predict_adjustment; this one-row form is kept as a traced entry point.
        """
        base = float(self.predict_base(x)[0])
        adj = float(self.predict_adjustment(x)[0])
        return base, adj


def as_stacked(model: GbdtModel | StackedModel) -> StackedModel:
    """A stacked model as is; a base model wrapped with an empty adjustment
    (identity stacking)."""
    if isinstance(model, StackedModel):
        return model
    return StackedModel(base=model)


def train_adjustment(
    base: GbdtModel,
    X: np.ndarray,
    y: np.ndarray,
    adjustment_trees: int = MAX_ADJUSTMENT_TREES,
    max_depth: int = MAX_ADJUSTMENT_DEPTH,
    adjustment_rate: float = 1.0,
    min_leaf: int = 20,
    allow_exceed_limits: bool = False,
) -> StackedModel:
    """Fit shallow trees on the new dataset's residuals; base stays frozen.

    The tree-count and depth caps (2 and 5) guard the stability argument for
    incremental updates; raising them requires allow_exceed_limits.
    """
    if not allow_exceed_limits:
        if adjustment_trees > MAX_ADJUSTMENT_TREES:
            raise ConstraintViolationError(
                f"adjustment_trees={adjustment_trees} exceeds {MAX_ADJUSTMENT_TREES}"
            )
        if max_depth > MAX_ADJUSTMENT_DEPTH:
            raise ConstraintViolationError(
                f"max_depth={max_depth} exceeds {MAX_ADJUSTMENT_DEPTH}"
            )
    if adjustment_trees < 1:
        raise ValueError("adjustment_trees must be at least 1")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train an adjustment on an empty dataset")
    trees: list[RegressionTree] = []
    for _ in range(adjustment_trees):
        fitted = StackedModel(base=base, adjustment=trees, adjustment_rate=adjustment_rate)
        residuals = y - fitted.predict(X)
        trees.append(fit_tree(X, residuals, max_depth=max_depth, min_leaf=min_leaf))
    return StackedModel(base=base, adjustment=trees, adjustment_rate=adjustment_rate)


def rmse(predictions: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((np.asarray(predictions) - np.asarray(y)) ** 2)))


def rmse_by_label(
    model: GbdtModel | StackedModel, X: np.ndarray, y: np.ndarray
) -> tuple[dict[int, float], float]:
    """RMSE per integer grade (half-up rounding of the label) plus overall."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0:
        raise EmptyDatasetError("empty evaluation dataset")
    predictions = model.predict(X)
    grades = np.floor(y + 0.5).astype(int)
    per_grade: dict[int, float] = {}
    for grade in sorted(set(grades.tolist())):
        mask = grades == grade
        per_grade[grade] = rmse(predictions[mask], y[mask])
    return per_grade, rmse(predictions, y)


@dataclass
class ThresholdDecision:
    market: str
    threshold: float
    precision: float
    recall: float
    feasible: bool


def tune_market_threshold(
    predictions: np.ndarray,
    grades: np.ndarray,
    market: str,
    precision_target: float,
) -> ThresholdDecision:
    """Smallest score cutoff whose pass set reaches the precision target.

    An item is relevant when its grade is Good or better (>= 3). Candidates
    are the distinct prediction values; choosing the smallest qualifying one
    maximizes recall at the target. When no candidate qualifies the threshold
    is set just above the largest prediction (nothing passes) and the
    decision is flagged infeasible.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    grades = np.asarray(grades, dtype=np.float64)
    if predictions.size == 0 or predictions.size != grades.size:
        raise EmptyDatasetError("predictions and grades must be non-empty and aligned")
    if not 0.0 < precision_target <= 1.0:
        raise ValueError("precision_target must be in (0, 1]")
    relevant = grades >= RELEVANT_GRADE
    total_relevant = int(relevant.sum())
    order = np.argsort(predictions, kind="stable")
    sorted_preds = predictions[order]
    sorted_rel = relevant[order].astype(np.int64)
    n = predictions.size
    suffix_rel = np.concatenate([np.cumsum(sorted_rel[::-1])[::-1], [0]])
    for i in range(n):
        if i > 0 and sorted_preds[i] == sorted_preds[i - 1]:
            continue
        passed = n - i
        passed_relevant = int(suffix_rel[i])
        precision = passed_relevant / passed
        if precision >= precision_target:
            recall = passed_relevant / total_relevant if total_relevant else 0.0
            return ThresholdDecision(
                market=market,
                threshold=float(sorted_preds[i]),
                precision=precision,
                recall=recall,
                feasible=True,
            )
    return ThresholdDecision(
        market=market,
        threshold=float(np.nextafter(sorted_preds[-1], np.inf)),
        precision=0.0,
        recall=0.0,
        feasible=False,
    )


def load_dataset(path: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """CSV with header ``name_1,...,name_n,label``; returns (X, y, names)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise EmptyDatasetError(f"{path}: expected a header ending in 'label'")
        names = header[:-1]
        rows = []
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise EmptyDatasetError(f"{path}:{lineno}: expected {len(header)} columns")
            rows.append([float(v) for v in row[:-1]])
            labels.append(float(row[-1]))
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.float64), names


def save_dataset(X: np.ndarray, y: np.ndarray, names: list[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])


def _tree_to_doc(tree: RegressionTree) -> dict:
    return {
        "max_depth": tree.max_depth,
        "nodes": [
            [n.feature, n.threshold, n.left, n.right, n.value] for n in tree.nodes
        ],
    }


def _tree_from_doc(doc: dict) -> RegressionTree:
    nodes = [
        TreeNode(feature=int(f), threshold=float(t), left=int(l), right=int(r), value=float(v))
        for f, t, l, r, v in doc["nodes"]
    ]
    return RegressionTree(nodes=nodes, max_depth=int(doc["max_depth"]))


def gbdt_to_doc(model: GbdtModel) -> dict:
    return {
        "kind": "gbdt",
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "n_features": model.n_features,
        "feature_names": model.feature_names,
        "train_rmse": model.train_rmse,
        "trees": [_tree_to_doc(t) for t in model.trees],
    }


def gbdt_from_doc(doc: dict) -> GbdtModel:
    return GbdtModel(
        base_score=float(doc["base_score"]),
        learning_rate=float(doc["learning_rate"]),
        n_features=int(doc["n_features"]),
        feature_names=doc.get("feature_names"),
        train_rmse=[float(x) for x in doc.get("train_rmse", [])],
        trees=[_tree_from_doc(t) for t in doc["trees"]],
    )


def stacked_to_doc(model: StackedModel) -> dict:
    return {
        "kind": "stacked",
        "base": gbdt_to_doc(model.base),
        "adjustment_rate": model.adjustment_rate,
        "adjustment": [_tree_to_doc(t) for t in model.adjustment],
    }


def stacked_from_doc(doc: dict) -> StackedModel:
    return StackedModel(
        base=gbdt_from_doc(doc["base"]),
        adjustment_rate=float(doc["adjustment_rate"]),
        adjustment=[_tree_from_doc(t) for t in doc["adjustment"]],
    )


def serialize_model(model: GbdtModel | StackedModel) -> bytes:
    doc = stacked_to_doc(model) if isinstance(model, StackedModel) else gbdt_to_doc(model)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")


def save_model(model: GbdtModel | StackedModel, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))
        fh.write(b"\n")


def load_model(path: str) -> GbdtModel | StackedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if doc.get("kind") == "stacked":
                return stacked_from_doc(doc)
            return gbdt_from_doc(doc)
        except MALFORMED as exc:
            raise malformed(path, "model", exc) from exc
