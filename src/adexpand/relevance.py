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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintViolationError,
    EmptyDatasetError,
    NonFiniteError,
    ParseError,
    SchemaMismatchError,
    parse_json,
    reading,
    typed,
)
from .trees import PackedTrees, RegressionTree, TreeNode, accumulate, pack_trees

MAX_ADJUSTMENT_TREES = 2
MAX_ADJUSTMENT_DEPTH = 5
BASE_DEPTH = 3
BASE_MIN_LEAF = 5
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

    The scan is sequential: over features in order and, within one, split
    positions in order, a position replaces the incumbent only when its gain
    exceeds the incumbent's by more than ``tie_eps``. Each feature's gains
    are one float64 vector, from the same elementwise operations in the same
    order as a per-position loop, so each has the same bits. The scan is
    replayed on it: the next incumbent is the first later position above the
    current bar. The positions before it are all at or below that bar, and
    the bar only rises, so it is the first position whose running maximum
    exceeds the bar: one ``searchsorted`` on the prefix maximum.
    """
    n = idx.size
    y_node = y[idx]
    total = float(y_node.sum())
    total_sq = float((y_node * y_node).sum())
    sse_parent = total_sq - total * total / n
    tie_eps = 1e-9 * max(1.0, abs(sse_parent))
    # split position i puts sorted rows [0, i) left; min_leaf <= i <= n - min_leaf
    left_n = np.arange(min_leaf, n - min_leaf + 1, dtype=np.float64)
    lo, hi = min_leaf - 1, n - min_leaf
    best: tuple[float, int, float] | None = None
    for f in range(X.shape[1]):
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y_node[order]
        left_sum = np.cumsum(sy)[lo:hi]
        left_sq = np.cumsum(sy * sy)[lo:hi]
        sse_left = left_sq - left_sum * left_sum / left_n
        right_sum = total - left_sum
        right_sq = total_sq - left_sq
        sse_right = right_sq - right_sum * right_sum / (n - left_n)
        gain = sse_parent - sse_left - sse_right
        eligible = (sv[lo:hi] != sv[lo + 1 : hi + 1]) & (gain > _GAIN_EPS)
        running_max = np.maximum.accumulate(np.where(eligible, gain, -np.inf))
        while True:
            bar = -np.inf if best is None else best[0] + tie_eps
            k = int(np.searchsorted(running_max, bar, side="right"))
            if k == running_max.size:
                break
            i = lo + k  # the split between sorted rows i and i + 1
            best = (float(gain[k]), f, float((sv[i] + sv[i + 1]) / 2.0))
    return best


def fit_tree(
    X: np.ndarray,
    targets: np.ndarray,
    max_depth: int,
    min_leaf: int = 1,
) -> RegressionTree:
    """Greedy CART regression tree, at least min_leaf >= 1 rows per leaf;
    leaves predict the target mean."""
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot fit a tree on an empty dataset")
    if not np.all(np.isfinite(targets)):
        raise NonFiniteError("tree targets must be finite: a label or residual is NaN or infinite")
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
    feature_names: list[str] | None = None,
) -> GbdtModel:
    """Least-squares boosting: each of tree_count >= 1 stages fits a tree of
    depth BASE_DEPTH, with at least BASE_MIN_LEAF rows per leaf, to current
    residuals.

    Training is fully deterministic (exhaustive split search, no
    subsampling), so it takes no seed. The per-stage training RMSE is
    recorded.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    base_score = float(y.mean())
    trees: list[RegressionTree] = []
    train_rmse: list[float] = []
    current = np.full(X.shape[0], base_score, dtype=np.float64)
    for _ in range(tree_count):
        residuals = y - current
        tree = fit_tree(X, residuals, max_depth=BASE_DEPTH, min_leaf=BASE_MIN_LEAF)
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
        X = np.reshape(x, (1, -1))
        return float(self.predict_base(X)[0]), float(self.predict_adjustment(X)[0])


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
    min_leaf: int = 20,
) -> StackedModel:
    """Fit adjustment_trees >= 1 shallow trees on the new dataset's
    residuals, added at rate 1.0; the base stays frozen.

    The tree-count and depth caps (2 and 5) guard the stability argument for
    incremental updates and have no override.
    """
    if adjustment_trees > MAX_ADJUSTMENT_TREES:
        raise ConstraintViolationError(
            f"adjustment_trees={adjustment_trees} exceeds {MAX_ADJUSTMENT_TREES}"
        )
    if max_depth > MAX_ADJUSTMENT_DEPTH:
        raise ConstraintViolationError(f"max_depth={max_depth} exceeds {MAX_ADJUSTMENT_DEPTH}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("cannot train an adjustment on an empty dataset")
    trees: list[RegressionTree] = []
    for _ in range(adjustment_trees):
        fitted = StackedModel(base=base, adjustment=trees)
        residuals = y - fitted.predict(X)
        trees.append(fit_tree(X, residuals, max_depth=max_depth, min_leaf=min_leaf))
    return StackedModel(base=base, adjustment=trees)


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
    """Smallest score cutoff whose pass set reaches the precision target, a
    fraction in (0, 1].

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
    """CSV with header ``name_1,...,name_n,label``; returns (X, y, names).
    ParseError names ``path:lineno`` for a bad header, a row of another
    width, a cell that is not a finite number, or a line the csv module
    refuses (a cell over its field size limit)."""
    with reading(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[-1] != "label":
                raise ParseError(f"{path}:1: expected a header ending in 'label'")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(
                        f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                    )
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from exc
                if not all(map(math.isfinite, rows[-1])):
                    raise ParseError(f"{path}:{lineno}: every cell must be a finite number")
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise EmptyDatasetError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    return np.ascontiguousarray(data[:, :-1]), data[:, -1].copy(), header[:-1]


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


# A node as _tree_to_doc writes it: a list of these fields, in this order
_NODE_KINDS = {"feature": int, "threshold": float, "left": int, "right": int, "value": float}


def _tree_from_doc(doc: dict) -> RegressionTree:
    nodes = [dict(zip(_NODE_KINDS, node, strict=True)) for node in typed(doc, "nodes", list[list])]
    return RegressionTree(
        nodes=[TreeNode(**{k: typed(n, k, t) for k, t in _NODE_KINDS.items()}) for n in nodes],
        max_depth=typed(doc, "max_depth", int),
    )


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
    if typed(doc, "kind", str, "gbdt") != "gbdt":  # a base model, whole or inside a stacked one
        raise ValueError(f"'kind' of a base model must be 'gbdt', got {doc['kind']!r}")
    return GbdtModel(
        base_score=typed(doc, "base_score", float),
        learning_rate=typed(doc, "learning_rate", float),
        n_features=typed(doc, "n_features", int),
        feature_names=typed(doc, "feature_names", list[str], None),
        train_rmse=typed(doc, "train_rmse", list[float], []),
        trees=[_tree_from_doc(t) for t in typed(doc, "trees", list[dict])],
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
        base=gbdt_from_doc(typed(doc, "base", dict)),
        adjustment_rate=typed(doc, "adjustment_rate", float),
        adjustment=[_tree_from_doc(t) for t in typed(doc, "adjustment", list[dict])],
    )


def serialize_model(model: GbdtModel | StackedModel) -> bytes:
    doc = stacked_to_doc(model) if isinstance(model, StackedModel) else gbdt_to_doc(model)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")


def save_model(model: GbdtModel | StackedModel, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))
        fh.write(b"\n")


def load_model(path: str) -> GbdtModel | StackedModel:
    return parse_json(path, "model", _model_from_doc)


def _model_from_doc(doc: dict) -> GbdtModel | StackedModel:
    kind = typed(doc, "kind", str, "gbdt")
    return stacked_from_doc(doc) if kind == "stacked" else gbdt_from_doc(doc)
