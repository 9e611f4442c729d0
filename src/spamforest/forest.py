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
The backprop forward (``forest_forward``) keeps stacked decisions
(K, B, 2^D - 1) and reach (K, B, 2^(D+1) - 1) for ``forest_backward``;
``leaf_reach`` keeps only the leaf reach mu (K, B, 2^D), all that the leaf
mixture, the leaf gradient and scoring read, and runs its sigmoid and reach
recursion in row blocks of reused scratch. Every pass takes a chunk of
trees per numpy call (``_tree_chunks``), with a batched matmul over the
tree axis (one gemm per tree over all rows) and one reach step per tree
level over all trees of the chunk, through one routing kernel (``_route``).

Forest parameters are read-only during inference and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Layer, sigmoid, softmax

__all__ = ["ForestParams", "forest_forward", "leaf_reach", "leaf_mixture",
           "leaf_gradient", "forest_backward"]


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


@lru_cache(maxsize=None)
def _levels(depth: int) -> tuple:
    """Per decision level, built once per depth: its node slice and its
    children's left/right slices."""
    spans = [(2 ** level - 1, 2 ** (level + 1) - 1) for level in range(depth)]
    return tuple((slice(lo, hi), slice(2 * lo + 1, 2 * hi, 2),
                  slice(2 * lo + 2, 2 * hi + 1, 2)) for lo, hi in spans)


# A chunk holds as many trees as keep trees * rows * (2^(D+1) - 1) cells under
# CHUNK_CELLS, and at least one: a mini-batch (default 5 * 50 * 15) takes every
# tree, while the full-set pass and large predict batches take one tree at a
# time, so that their temporaries stay in cache. leaf_reach also bounds its
# row blocks by CHUNK_CELLS reach cells.
CHUNK_CELLS = 2 ** 16


def _tree_chunks(forest: ForestParams, n_rows: int) -> list[slice]:
    per_chunk = max(1, CHUNK_CELLS // max(1, n_rows * (2 * forest.n_decision_nodes + 1)))
    return [slice(k, k + per_chunk) for k in range(0, forest.n_trees, per_chunk)]


def _check_input(XT: np.ndarray, forest: ForestParams):
    if XT.ndim != 2 or XT.shape[1] != forest.input_dim:
        raise ShapeError(
            f"tree input shape {XT.shape} != (batch, {forest.input_dim})")


def _route(z: np.ndarray, d: np.ndarray, r: np.ndarray, depth: int):
    """The one routing kernel: writes the left probabilities sigmoid(z) into
    ``d`` (trees, rows, 2^D - 1) and the reach recursion into ``r`` (trees,
    rows, 2^(D+1) - 1), whose root column the caller sets to 1. Elementwise
    per row, so any row block of ``z`` gives the same bits."""
    sigmoid(z, out=d)
    for nodes, left, right in _levels(depth):
        r[:, :, left] = r[:, :, nodes] * d[:, :, nodes]
        r[:, :, right] = r[:, :, nodes] * (1.0 - d[:, :, nodes])


def forest_forward(XT: np.ndarray, forest: ForestParams) -> dict:
    """One batched forest pass over tree inputs ``XT`` (B, xt_dim), keeping
    what ``forest_backward`` reads.

    Returns the stacked ``decisions`` (K, B, 2^D - 1) of left probabilities
    and ``reach`` (K, B, 2^(D+1) - 1) of node-reach probabilities in heap
    order, whose last 2^D columns are the leaf reach ``mu`` (rows summing to
    one), plus the ``leaf_mixture`` entries. Trees are routed in chunks of
    ``_tree_chunks``; each tree's arithmetic is the same in any chunk.
    """
    _check_input(XT, forest)
    n_dec = forest.n_decision_nodes
    decisions = np.empty((forest.n_trees, XT.shape[0], n_dec))
    reach = np.empty((forest.n_trees, XT.shape[0], 2 * n_dec + 1))
    reach[:, :, 0] = 1.0
    for trees in _tree_chunks(forest, XT.shape[0]):
        _route(XT @ forest.routing[trees].transpose(0, 2, 1), decisions[trees],
               reach[trees], forest.depth)
    mu = reach[:, :, n_dec:]
    return {"decisions": decisions, "reach": reach, "mu": mu,
            **leaf_mixture(mu, forest)}


def leaf_reach(XT: np.ndarray, forest: ForestParams) -> np.ndarray:
    """The leaf reach mu (K, B, 2^D) of ``forest_forward``, bit for bit,
    without its decisions and reach.

    The routing gemm runs per tree chunk over all B rows, as in
    ``forest_forward``; the sigmoid and the reach recursion then run in row
    blocks of at most ``CHUNK_CELLS`` reach cells, in scratch buffers reused
    across blocks, and only each block's leaf columns are kept.
    """
    _check_input(XT, forest)
    n_rows, n_dec = XT.shape[0], forest.n_decision_nodes
    chunks = _tree_chunks(forest, n_rows)
    n_chunk = min(chunks[0].stop, forest.n_trees)
    # A chunk of several trees fits CHUNK_CELLS with all its rows, so only
    # one-tree chunks are split into row blocks.
    n_block = max(1, min(n_rows, CHUNK_CELLS // (n_chunk * (2 * n_dec + 1))))
    d_buf = np.empty((n_chunk, n_block, n_dec))
    r_buf = np.empty((n_chunk, n_block, 2 * n_dec + 1))
    r_buf[:, :, 0] = 1.0
    mu = np.empty((forest.n_trees, n_rows, n_dec + 1))
    for trees in chunks:
        z = XT @ forest.routing[trees].transpose(0, 2, 1)
        for lo in range(0, n_rows, n_block):
            rows = slice(lo, lo + n_block)
            d, r = d_buf[:z.shape[0], :n_rows - lo], r_buf[:z.shape[0], :n_rows - lo]
            _route(z[:, rows], d, r, forest.depth)
            mu[trees, rows] = r[:, :, n_dec:]
    return mu


def leaf_mixture(mu: np.ndarray, forest: ForestParams) -> dict:
    """The leaf half of the forward pass, from the leaf reach ``mu``.

    Returns ``leaf_dists`` (K, 2^D, C) of the forest's current leaf logits,
    per-tree class distributions ``probs`` (K, B, C) = mu[k] @ leaf_dists[k],
    and their tree average ``forest_probs``. A step on the leaf logits alone
    leaves mu unchanged, so calling this after one gives what a new forward
    would, bit for bit.
    """
    leaf_dists = forest.leaf_distributions()
    probs = mu @ leaf_dists
    return {"leaf_dists": leaf_dists, "probs": probs,
            "forest_probs": probs.mean(axis=0)}


def leaf_gradient(y: np.ndarray, g_py: np.ndarray, mu: np.ndarray,
                  leaf_dists: np.ndarray) -> np.ndarray:
    """dL/d leaf logits (K, 2^D, C) for ``g_py[k, b] = dL / d probs[k, b,
    y[b]]``: only the leaf reach ``mu`` and the leaf distributions pi enter,
    through p = mu @ pi and the softmax behind pi.
    """
    pi = leaf_dists
    onehot_s = np.zeros((mu.shape[0], g_py.shape[1], pi.shape[2]))
    onehot_s[:, np.arange(g_py.shape[1]), y] = g_py
    g_pi = mu.transpose(0, 2, 1) @ onehot_s
    return pi * (g_pi - (g_pi * pi).sum(axis=2, keepdims=True))


def forest_backward(XT: np.ndarray, y: np.ndarray, g_py: np.ndarray,
                    cache: dict, forest: ForestParams):
    """Backpropagate a loss that depends on each tree's probability of the
    true class, ``g_py[k, b] = dL / d probs[k, b, y[b]]`` (K, B).

    ``cache`` is the ``forest_forward`` result for the same ``XT``. Returns
    ``(g_routing, g_xt)``: the gradient shaped like the stacked routing, and
    dL/dXT summed over the trees. The leaf logits enter only through the
    leaf distributions in ``cache``; their gradient is ``leaf_gradient``'s.
    """
    n_dec = forest.n_decision_nodes
    g_routing = np.empty_like(forest.routing)
    g_xt_terms = np.empty((forest.n_trees,) + XT.shape)
    for trees in _tree_chunks(forest, XT.shape[0]):
        d, reach = cache["decisions"][trees], cache["reach"][trees]
        pi_y = cache["leaf_dists"][trees][:, :, y].transpose(0, 2, 1)

        # Reach recursion, deepest decision level first: a node's reach
        # feeds its left child through d and its right child through 1 - d.
        g_reach = np.empty_like(reach)
        g_reach[:, :, n_dec:] = g_py[trees, :, None] * pi_y
        for nodes, left, right in reversed(_levels(forest.depth)):
            g_reach[:, :, nodes] = (g_reach[:, :, left] * d[:, :, nodes]
                                    + g_reach[:, :, right] * (1.0 - d[:, :, nodes]))
        g_d = (g_reach[:, :, 1::2] - g_reach[:, :, 2::2]) * reach[:, :, :n_dec]
        g_f = g_d * d * (1.0 - d)
        g_routing[trees] = g_f.transpose(0, 2, 1) @ XT
        np.matmul(g_f, forest.routing[trees], out=g_xt_terms[trees])
    # cumsum adds the trees' terms in tree order, where sum may pair them up.
    return g_routing, np.cumsum(g_xt_terms, axis=0)[-1]
