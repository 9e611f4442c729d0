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

The backprop forward (``forest_forward``) keeps the decisions and the reach
for ``forest_backward``; both route every tree at once, with a batched
matmul over the tree axis (one gemm per tree over all rows) and one reach
step per tree level over all trees. ``leaf_reach`` keeps only the leaf
reach mu (K, B, 2^D), all that the leaf mixture, the leaf gradient and
scoring read: it runs one tree's gemm at a time into one reused buffer, and
that tree's sigmoid and reach recursion in row blocks of reused scratch.
Both passes share one routing kernel (``_route``).

The decisions, the reach and the reach gradient are stored node-major,
(K, nodes, B), so that each level step of the recursion and of its backward
runs over B contiguous rows instead of K * B runs of 1 to 2^(D-1) nodes.
``forest_forward`` still hands out ``decisions`` (K, B, 2^D - 1) and
``reach`` (K, B, 2^(D+1) - 1), as transposed views.

Every matrix product keeps the row-major operands it always had: the
routing gemm is ``XT @ routing.transpose(0, 2, 1)``, whose output the
kernel copies node-major before the sigmoid; mu is a contiguous (K, B, 2^D)
copy; and the routing gradient is copied back to a contiguous
(K, B, 2^D - 1) array before its two gemms. That is a correctness rule, not
a style: a gemm handed a transposed operand may sum in another order, and
did change low bits (``mu @ leaf_dists`` at 10 trees, 150 rows and 64
leaves), while the golden train and predict outputs pin every bit. The
elementwise steps give the same bits in either layout.

Shapes are fixed where a model is built (``training._allocate_model``) and
not checked here. Forest parameters are read-only during inference and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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

    @property
    def n_trees(self) -> int:
        return self.routing.shape[0]

    @property
    def depth(self) -> int:
        return self.leaf_logits.shape[1].bit_length() - 1

    @property
    def n_decision_nodes(self) -> int:
        return self.routing.shape[1]

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


# leaf_reach routes one tree's row block of at most CHUNK_CELLS reach cells
# at a time, so that its temporaries stay in cache whatever the row count.
CHUNK_CELLS = 2 ** 16


def _route(z: np.ndarray, d: np.ndarray, r: np.ndarray, depth: int):
    """The one routing kernel. From the routing gemm's output ``z`` (trees,
    rows, 2^D - 1), writes the left probabilities sigmoid(z) into ``d``
    (trees, 2^D - 1, rows) and the reach recursion, root included, into
    ``r`` (trees, 2^(D+1) - 1, rows): node-major, so every level step runs
    over contiguous rows. Elementwise per row, so any row block of ``z``
    gives the same bits."""
    # z is staged node-major in the leaf rows of r, which the last level
    # overwrites, so that the sigmoid reads contiguous memory.
    staged = r[:, d.shape[1] + 1:]
    np.copyto(staged, z.transpose(0, 2, 1))
    sigmoid(staged, out=d)
    r[:, 0] = 1.0
    for nodes, left, right in _levels(depth):
        np.multiply(r[:, nodes], d[:, nodes], out=r[:, left])
        np.multiply(r[:, nodes], 1.0 - d[:, nodes], out=r[:, right])


def forest_forward(XT: np.ndarray, forest: ForestParams) -> dict:
    """One batched forest pass over tree inputs ``XT`` (B, xt_dim), keeping
    what ``forest_backward`` reads.

    Returns the stacked ``decisions`` (K, B, 2^D - 1) of left probabilities
    and ``reach`` (K, B, 2^(D+1) - 1) of node-reach probabilities in heap
    order, both transposed views of node-major arrays, plus the leaf reach
    ``mu`` (K, B, 2^D), rows summing to one, as a contiguous copy of the
    reach's last 2^D nodes, and the ``leaf_mixture`` entries. Each tree's
    slice is that tree's single-tree pass, bit for bit.
    """
    n_dec = forest.n_decision_nodes
    d = np.empty((forest.n_trees, n_dec, XT.shape[0]))
    r = np.empty((forest.n_trees, 2 * n_dec + 1, XT.shape[0]))
    _route(XT @ forest.routing.transpose(0, 2, 1), d, r, forest.depth)
    mu = np.ascontiguousarray(r[:, n_dec:].transpose(0, 2, 1))
    return {"decisions": d.transpose(0, 2, 1), "reach": r.transpose(0, 2, 1),
            "mu": mu, **leaf_mixture(mu, forest)}


def leaf_reach(XT: np.ndarray, forest: ForestParams) -> np.ndarray:
    """The leaf reach mu (K, B, 2^D) of ``forest_forward``, bit for bit,
    without its decisions and reach.

    The routing gemm runs one tree at a time over all B rows, the same BLAS
    call as ``forest_forward`` makes for that tree, into one buffer reused
    for every tree; the sigmoid and the reach recursion then run node-major
    in row blocks of at most ``CHUNK_CELLS`` reach cells, in scratch buffers
    reused across blocks, and only each block's leaf nodes are kept.
    """
    n_rows, n_dec = XT.shape[0], forest.n_decision_nodes
    n_block = max(1, min(n_rows, CHUNK_CELLS // (2 * n_dec + 1)))
    z = np.empty((1, n_rows, n_dec))
    d_buf = np.empty(n_dec * n_block)
    r_buf = np.empty((2 * n_dec + 1) * n_block)
    mu = np.empty((forest.n_trees, n_rows, n_dec + 1))
    for k in range(forest.n_trees):
        np.matmul(XT, forest.routing[k:k + 1].transpose(0, 2, 1), out=z)
        for lo in range(0, n_rows, n_block):
            m = min(n_block, n_rows - lo)
            # A block's scratch is the contiguous head of each buffer.
            d = d_buf[:n_dec * m].reshape(1, n_dec, m)
            r = r_buf[:(2 * n_dec + 1) * m].reshape(1, 2 * n_dec + 1, m)
            _route(z[:, lo:lo + m], d, r, forest.depth)
            mu[k, lo:lo + m] = r[0, n_dec:].T
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
    The reach gradient is built node-major, like the forward's reach, and
    the routing-logit gradient is copied back to (K, B, 2^D - 1) rows for
    the two gemms.
    """
    n_dec = forest.n_decision_nodes
    d = cache["decisions"].transpose(0, 2, 1)
    reach = cache["reach"].transpose(0, 2, 1)

    # Reach recursion, deepest decision level first: a node's reach feeds
    # its left child through d and its right child through 1 - d. Nothing
    # reads the root's reach gradient, so the root level is skipped.
    g_reach = np.empty(reach.shape)
    np.multiply(g_py[:, None, :], cache["leaf_dists"][:, :, y],
                out=g_reach[:, n_dec:])
    for nodes, left, right in reversed(_levels(forest.depth)[1:]):
        np.multiply(g_reach[:, left], d[:, nodes], out=g_reach[:, nodes])
        g_reach[:, nodes] += g_reach[:, right] * (1.0 - d[:, nodes])
    # g_f = (g_left - g_right) * reach * d * (1 - d), in that order.
    g_f = g_reach[:, 1::2] - g_reach[:, 2::2]
    g_f *= reach[:, :n_dec]
    g_f *= d
    g_f *= 1.0 - d
    # The gemms below read g_f in the row-major layout they always have.
    g_f = np.ascontiguousarray(g_f.transpose(0, 2, 1))
    # cumsum adds the trees' terms in tree order, where sum may pair them up.
    return g_f.transpose(0, 2, 1) @ XT, np.cumsum(g_f @ forest.routing, axis=0)[-1]
