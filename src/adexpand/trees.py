"""Regression trees and the packed form they are scored in.

A tree list is packed once into flat node arrays (feature, threshold, left,
right, value) and walked for all rows at once, one level per step. Packing
validates every node, so a model file with a bad child index, feature or
value fails at load instead of while scoring.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParseError


@dataclass
class TreeNode:
    """Internal node (feature >= 0) or leaf (feature == -1)."""

    feature: int
    threshold: float
    left: int
    right: int
    value: float


@dataclass
class RegressionTree:
    """Every child index is greater than its parent's (fit_tree writes the
    nodes in pre-order). A tree is not mutated once built: the pack its
    model makes of it relies on that.
    """

    nodes: list[TreeNode]
    max_depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        packed = pack_trees([self], X.shape[1])
        return packed.value[leaf_index(packed, X)[0]]


# Rows walked together; bounds the (trees x rows) temporaries of a walk.
_ROW_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class PackedTrees:
    """The nodes of a tree list, concatenated into flat arrays.

    Children are global indices. A leaf points at itself through both
    children and reads feature 0, so a walk can step every (tree, row) pair
    the same number of times: ``depth``, the deepest leaf over all trees.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


def pack_trees(trees: Sequence[RegressionTree], n_features: int) -> PackedTrees:
    """Validate the trees and pack them; ParseError names the bad node."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    roots: list[int] = []
    depth = 0
    for t, tree in enumerate(trees):
        nodes = tree.nodes
        n = len(nodes)
        if n == 0:
            raise ParseError(f"tree {t} has no nodes")
        offset = len(feature)
        roots.append(offset)
        # Every parent of node i comes before it, so level[i] is final when
        # the loop reaches i.
        level = [0] * n
        for i, node in enumerate(nodes):
            if not math.isfinite(node.value):
                raise ParseError(f"tree {t} node {i}: value is not finite")
            if node.feature < 0:
                feature.append(0)
                left.append(offset + i)
                right.append(offset + i)
            else:
                if not (i < node.left < n and i < node.right < n):
                    raise ParseError(
                        f"tree {t} node {i}: children ({node.left}, {node.right}) "
                        f"must lie in ({i}, {n})"
                    )
                if node.feature >= n_features:
                    raise ParseError(
                        f"tree {t} node {i}: feature {node.feature} not in [0, {n_features})"
                    )
                feature.append(node.feature)
                left.append(offset + node.left)
                right.append(offset + node.right)
                for child in (node.left, node.right):
                    level[child] = max(level[child], level[i] + 1)
                depth = max(depth, level[i] + 1)
            threshold.append(node.threshold)
            value.append(node.value)
    return PackedTrees(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
        roots=np.array(roots, dtype=np.int64),
        depth=depth,
    )


def leaf_index(packed: PackedTrees, X: np.ndarray) -> np.ndarray:
    """(trees, rows) index of the leaf each row reaches in each tree.

    A value equal to the threshold goes left; NaN goes right.
    """
    node = np.repeat(packed.roots[:, None], X.shape[0], axis=1)
    rows = np.arange(X.shape[0])
    for _ in range(packed.depth):
        go_left = X[rows, packed.feature[node]] <= packed.threshold[node]
        node = np.where(go_left, packed.left[node], packed.right[node])
    return node


def accumulate(packed: PackedTrees, X: np.ndarray, rate: float, out: np.ndarray) -> None:
    """``out += rate * tree(X)`` for each packed tree, in tree order.

    np.add.accumulate adds the trees one after another, as that loop would,
    so the bits match; a pairwise np.sum would round differently.
    """
    for start in range(0, X.shape[0], _ROW_BLOCK):
        block = out[start : start + _ROW_BLOCK]
        leaves = packed.value[leaf_index(packed, X[start : start + _ROW_BLOCK])]
        terms = np.concatenate([block[None, :], rate * leaves])
        block[:] = np.add.accumulate(terms, axis=0)[-1]
