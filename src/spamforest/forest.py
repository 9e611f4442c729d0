"""Soft-routed binary decision trees and their forest ensemble.

Each tree is a complete binary tree of depth D: 2^D - 1 decision nodes and
2^D leaves, stored in heap order (children of node i are 2i+1 and 2i+2), so
level l holds nodes 2^l - 1 .. 2^(l+1) - 2 and its children fill level l+1
left, right, left, right. A decision node holds one routing-weight row w_d;
a sample at tree input x_t goes left with probability sigmoid(w_d . x_t) --
there is no bias term, so append a constant-1 component to x_t if bias
behavior is wanted.

Leaves hold unconstrained logits; the class distribution of a leaf is
always the softmax of its logit row, so it sums to one by construction no
matter what the optimizer does to the logits.

The K trees are stored stacked: routing (K, 2^D - 1, xt_dim) and leaf
logits (K, 2^D, n_classes), the layout of Deep Neural Decision Forests
(Kontschieder et al., ICCV 2015). The depth is read off the leaf count.
The forward and backward passes walk the trees one at a time, so their
temporaries stay the size of one tree's batch, and compute reach
probabilities and their gradients one tree level at a time.

Forest parameters are read-only during inference and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Layer, sigmoid, softmax

__all__ = ["ForestParams", "forest_forward", "leaf_mixture", "leaf_gradient",
           "forest_backward"]


@dataclass
class ForestParams:
    """K trees of equal depth and input width behind shared fully connected
    layers. ``routing[k]`` and ``leaf_logits[k]`` are tree k's tensors."""

    routing: np.ndarray      # (K, 2^depth - 1, xt_dim)
    leaf_logits: np.ndarray  # (K, 2^depth, n_classes)
    fc: list[Layer] = field(default_factory=list)

    def __post_init__(self):
        self.routing = np.asarray(self.routing, dtype=np.float64)
        self.leaf_logits = np.asarray(self.leaf_logits, dtype=np.float64)
        if self.routing.ndim != 3 or self.leaf_logits.ndim != 3:
            raise ShapeError(
                f"routing {self.routing.shape} and leaf_logits "
                f"{self.leaf_logits.shape} must both be stacked 3-D tensors")
        if self.routing.shape[0] == 0:
            raise ConfigError("a forest needs at least one tree")
        n_leaf = self.leaf_logits.shape[1]
        if n_leaf < 2 or n_leaf & (n_leaf - 1):
            raise ShapeError(f"leaf count {n_leaf} is not 2^depth with depth >= 1")
        if self.routing.shape[:2] != (self.leaf_logits.shape[0], n_leaf - 1):
            raise ShapeError(
                f"routing shape {self.routing.shape} does not match leaf_logits "
                f"shape {self.leaf_logits.shape}: need (K, 2^depth - 1, xt_dim) "
                f"and (K, 2^depth, n_classes)")
        for prev, nxt in zip(self.fc, self.fc[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ShapeError(
                    f"fc layer shapes do not chain: {prev.W.shape} -> {nxt.W.shape}"
                )
        if self.fc and self.fc[-1].out_dim != self.input_dim:
            raise ShapeError(
                f"fc output width {self.fc[-1].out_dim} != tree input width "
                f"{self.input_dim}"
            )

    @property
    def n_trees(self) -> int:
        return self.routing.shape[0]

    @property
    def depth(self) -> int:
        return self.leaf_logits.shape[1].bit_length() - 1

    @property
    def n_decision_nodes(self) -> int:
        return self.routing.shape[1]

    @property
    def input_dim(self) -> int:
        return self.routing.shape[2]

    @property
    def n_classes(self) -> int:
        return self.leaf_logits.shape[2]

    def leaf_distributions(self) -> np.ndarray:
        """(K, n_leaves, n_classes): softmax(leaf_logits), rows stochastic."""
        return softmax(self.leaf_logits)


def _levels(depth: int):
    """Per decision level: its node slice and its children's left/right slices."""
    for level in range(depth):
        lo, hi = 2 ** level - 1, 2 ** (level + 1) - 1
        yield slice(lo, hi), slice(2 * lo + 1, 2 * hi, 2), slice(2 * lo + 2, 2 * hi + 1, 2)


def forest_forward(XT: np.ndarray, forest: ForestParams) -> dict:
    """One batched forest pass over tree inputs ``XT`` (B, xt_dim).

    Returns per-tree lists ``decisions`` (B, 2^D - 1) of left probabilities
    and ``reach`` (B, 2^(D+1) - 1) of node-reach probabilities in heap order
    (the last 2^D columns are the leaf reach mu, rows summing to one), plus
    the ``leaf_mixture`` entries.
    """
    if XT.ndim != 2 or XT.shape[1] != forest.input_dim:
        raise ShapeError(
            f"tree input shape {XT.shape} != (batch, {forest.input_dim})")
    n_dec = forest.n_decision_nodes
    decisions, reaches = [], []
    for k in range(forest.n_trees):
        d = sigmoid(XT @ forest.routing[k].T)
        reach = np.empty((XT.shape[0], 2 * n_dec + 1))
        reach[:, 0] = 1.0
        for nodes, left, right in _levels(forest.depth):
            reach[:, left] = reach[:, nodes] * d[:, nodes]
            reach[:, right] = reach[:, nodes] * (1.0 - d[:, nodes])
        decisions.append(d)
        reaches.append(reach)
    return {"decisions": decisions, "reach": reaches,
            **leaf_mixture(reaches, forest)}


def leaf_mixture(reaches: list[np.ndarray], forest: ForestParams) -> dict:
    """The leaf half of the forward pass, from ``forest_forward``'s reach.

    Returns ``leaf_dists`` (K, 2^D, C) of the forest's current leaf logits,
    per-tree class distributions ``probs`` (K, B, C) = mu @ leaf_dists[k],
    and their tree average ``forest_probs``. A step on the leaf logits alone
    leaves the reach unchanged, so calling this after one gives what a new
    ``forest_forward`` would, bit for bit.
    """
    n_dec = forest.n_decision_nodes
    leaf_dists = forest.leaf_distributions()
    probs = np.empty((forest.n_trees, reaches[0].shape[0], forest.n_classes))
    for k, reach in enumerate(reaches):
        probs[k] = reach[:, n_dec:] @ leaf_dists[k]
    return {"leaf_dists": leaf_dists, "probs": probs,
            "forest_probs": probs.mean(axis=0)}


def leaf_gradient(y: np.ndarray, g_py: np.ndarray, cache: dict,
                  forest: ForestParams) -> np.ndarray:
    """dL/d leaf logits (K, 2^D, C) for ``g_py[k, b] = dL / d probs[k, b,
    y[b]]``, from a ``forest_forward`` cache: only the leaf reach mu and the
    leaf distributions enter, through p = mu @ pi and the softmax behind pi.
    """
    n_dec = forest.n_decision_nodes
    rows = np.arange(g_py.shape[1])
    g_leaf_logits = np.empty_like(forest.leaf_logits)
    for k in range(forest.n_trees):
        pi = cache["leaf_dists"][k]
        onehot_s = np.zeros((g_py.shape[1], forest.n_classes))
        onehot_s[rows, y] = g_py[k]
        g_pi = cache["reach"][k][:, n_dec:].T @ onehot_s
        g_leaf_logits[k] = pi * (g_pi - (g_pi * pi).sum(axis=1, keepdims=True))
    return g_leaf_logits


def forest_backward(XT: np.ndarray, y: np.ndarray, g_py: np.ndarray,
                    cache: dict, forest: ForestParams):
    """Backpropagate a loss that depends on each tree's probability of the
    true class, ``g_py[k, b] = dL / d probs[k, b, y[b]]`` (K, B).

    ``cache`` is the ``forest_forward`` result for the same ``XT``. Returns
    ``(g_routing, g_leaf_logits, g_xt)``: gradients shaped like the stacked
    routing and leaf logits, and dL/dXT summed over the trees.
    """
    n_dec = forest.n_decision_nodes
    g_leaf_logits = leaf_gradient(y, g_py, cache, forest)
    g_routing = np.empty_like(forest.routing)
    g_xt = np.zeros_like(XT)
    for k in range(forest.n_trees):
        d, reach = cache["decisions"][k], cache["reach"][k]
        pi = cache["leaf_dists"][k]

        # Reach recursion, deepest decision level first: a node's reach
        # feeds its left child through d and its right child through 1 - d.
        g_reach = np.empty_like(reach)
        g_reach[:, n_dec:] = g_py[k][:, None] * pi[:, y].T
        for nodes, left, right in reversed(list(_levels(forest.depth))):
            g_reach[:, nodes] = (g_reach[:, left] * d[:, nodes]
                                 + g_reach[:, right] * (1.0 - d[:, nodes]))
        g_d = (g_reach[:, 1::2] - g_reach[:, 2::2]) * reach[:, :n_dec]
        g_f = g_d * d * (1.0 - d)
        g_routing[k] = g_f.T @ XT
        g_xt += g_f @ forest.routing[k]
    return g_routing, g_leaf_logits, g_xt
