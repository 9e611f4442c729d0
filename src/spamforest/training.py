"""Joint loss, exact backpropagation, AdaGrad updates and the epoch/batch
training loop.

The model chains three stages: a sigmoid autoencoder (input x -> hidden
code h -> reconstruction x_c), an optional fully connected stack
(h -> tree input x_t), and a forest of soft-routed trees (x_t -> class
probabilities, averaged over trees); ``predict`` skips the decoder, whose
x_c enters only the loss. The scalar objective is

    mean over samples [ ||x - x_c||^2 + mean over trees( -log p_tree[y] ) ]

and every gradient is derived by hand, layer by layer, in one backward
pass whose forest part is ``forest.forest_backward`` (``_forest_pass``).
The finite difference harness in the test suite is the arbiter of correctness.

Per-epoch cost model: one epoch costs O(n_batches * batch_size * (
sum_l n_{l-1} n_l over encoder, decoder and fully connected layers +
xt_dim * n_trees * n_leaves)). At a fixed depth the forest term grows
linearly in the number of trees. Acceptance test 10 checks this by counting
the rows and weights each epoch's forward and backward calls see; wall time
is measured by the benchmark in ``perfbench/``. Each pass hands work to a
second thread (``numerics.beside``) by one rule. The mini-batch backward,
the only pass that keeps the forest's decisions and reach for backprop,
splits its trees: after ``_forward_cache`` has run the autoencoder and the
fully connected stack, ``_forest_pass`` runs ``forest_forward`` and
``forest_backward`` over stacked node-major (K, nodes, rows) arrays once
per tree half of ``by_tree_halves`` (two threads from 2 *
``forest.CHUNK_CELLS`` reach cells on). Each half writes its trees' slices
of the routing gradient and of the terms of dL/dx_t, added in tree order
(``_tree_sum``), and its forest cache dies with it. Each epoch's
mini-batch loop runs in one ``numerics.one_worker`` scope: its batches
hand their second half to one thread, started at the first handoff and
joined when the loop ends, so the leaf step, outside that scope, leaves no
full-set temporaries in that thread's heap. The one full-set forward,
``_leaf_forward``, serves ``predict`` (without the decoder),
``joint_loss``, the leaf step and ``gradients``' leaf blocks. It keeps
only the reconstruction and the leaf reach mu (``forest.leaf_reach``),
(K, rows, 2^D) floats of forest state, not (K, rows, 3 * 2^D - 2), and
runs in row blocks aligned to ``ROW_BLOCK`` (``_by_row_blocks``), on two
threads from two blocks on, each block writing its rows of outputs
allocated once, with every row's bits those of one pass over all rows.

One function, ``_allocate_model``, owns the parameter layout of every model
(``init_model``'s, ``dataio.load_model``'s and the training loop's gradient
model): the weight set theta (encoder, decoder, fully connected, routing) is
one float64 vector, ``Model.theta``, and every ``Layer.W``/``.b`` and the
stacked routing are views into it; the leaf logits are a separate array.
It fixes every shape, so the one shape check left is ``_batch``'s, on a
batch entering ``predict``, ``joint_loss`` or ``gradients``.

Two optimizers run side by side. After each mini-batch the backward writes
the theta gradient into the gradient model, whose ``theta`` is checked for
finiteness once and takes one AdaGrad ``rmsprop_step``; that
backward computes no leaf-logit gradient. The leaf logits take one step per
epoch from the full-training-set gradient, which needs only one full-set
forward's leaf reach mu, leaf distributions pi (the softmax of the logits,
so always valid) and true-class probabilities (``_leaf_logit_gradient``,
which ``gradients`` runs too). The step changes only pi, so the epoch's
logged loss and accuracy reuse mu and the reconstruction and recompute
only the leaf mixture mu @ pi.

The loop owns the model exclusively while training; per-batch gradient
reductions are plain indexed sums, so results are reproducible for a fixed
(seed, config, dataset) triple. The module does no file I/O: the CLI writes
the loss and accuracy traces ``train`` returns as ``training_log.tsv``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import ceil, prod

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .forest import (CHUNK_CELLS, ForestParams, forest_backward, forest_forward,
                     leaf_gradient, leaf_mixture, leaf_reach)
from .numerics import Layer, Rng, beside, binary_labels, one_worker, sigmoid_chain

__all__ = [
    "TrainConfig",
    "config_value",
    "AutoencoderParams",
    "Model",
    "TrainResult",
    "init_model",
    "parameter_blocks",
    "joint_loss",
    "gradients",
    "rmsprop_step",
    "train",
    "predict",
    "MAX_DEPTH",
]

NORMALIZATION_METHODS = ("zscore", "minmax", "none")

# Labels are 0 or 1 everywhere, so every forest leaf holds two class logits.
N_CLASSES = 2

# -log is kept finite by flooring the predicted probability of the true
# class here; the gradient is zero wherever the floor is active.
PROB_FLOOR = 1e-12

# Soft routing sends every row through all 2^D - 1 decision nodes of every
# tree, so the mini-batch forward holds a (K, rows, 2^(D+1) - 1) reach array
# and (K, rows, 2^D - 1) left and right probabilities (at depth 10, 32 KB
# per row per tree) and its backward temporaries of the reach's size over
# all K trees, and the full-set leaf step and predict hold the (K, rows, 2^D)
# leaf reach mu (8 KB). The deepest config shipped uses 6.
MAX_DEPTH = 10


@dataclass
class TrainConfig:
    """Structure and optimizer settings for one training run."""

    n_epoch: int = 200
    n_tree: int = 5
    n_depth: int = 3
    batch_size: int = 50
    learning_rate: float = 0.05
    epsilon: float = 1e-8
    leaf_learning_rate: float = 0.05
    seed: int = 0
    normalization: str = "zscore"
    fc_layer_count: int = 1
    ae_layer_count: int = 2
    ae_widths: tuple[int, ...] | None = None
    fc_width: int | None = None
    init_scale: float = 0.5
    reshuffle_each_epoch: bool = False

    def __post_init__(self):
        if self.n_epoch < 0:
            raise ConfigError(f"n_epoch must be >= 0, got {self.n_epoch}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("n_tree", "n_depth", "batch_size", "ae_layer_count"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_depth > MAX_DEPTH:
            raise ConfigError(f"n_depth must be <= {MAX_DEPTH}, got {self.n_depth}")
        if self.fc_layer_count < 0:
            raise ConfigError(f"fc_layer_count must be >= 0, got {self.fc_layer_count}")
        for name in ("learning_rate", "leaf_learning_rate", "epsilon", "init_scale"):
            if not 0 < getattr(self, name) < float("inf"):
                raise ConfigError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.normalization not in NORMALIZATION_METHODS:
            raise ConfigError(
                f"normalization must be one of {NORMALIZATION_METHODS}, got {self.normalization!r}"
            )
        if self.ae_widths is not None:
            self.ae_widths = tuple(int(w) for w in self.ae_widths)
            if len(self.ae_widths) != self.ae_layer_count:
                raise ConfigError(
                    f"ae_widths has {len(self.ae_widths)} entries for "
                    f"{self.ae_layer_count} encoder layers"
                )
            if any(w < 1 for w in self.ae_widths):
                raise ConfigError("ae_widths entries must be >= 1")
        if self.fc_width is not None and self.fc_width < 1:
            raise ConfigError(f"fc_width must be >= 1, got {self.fc_width}")


_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False,
                 "yes": True, "no": False}


def _exact(value, *kinds):
    # type(), not isinstance: a JSON true must not pass as the integer 1.
    if type(value) not in kinds:
        raise TypeError
    return value


# How a TrainConfig field is read, by its annotation without " | None":
# (what it must be, the reader of config-file text, the reader of a model
# file's JSON value). A reader raises KeyError, TypeError or ValueError on a
# value it refuses.
_CONFIG_TYPES = {
    "int": ("an integer", int, lambda v: _exact(v, int)),
    # A whole number written without a fraction loads from JSON as int.
    "float": ("a number", float, lambda v: float(_exact(v, int, float))),
    "str": ("text", str, lambda v: _exact(v, str)),
    "bool": ("true or false", lambda raw: _BOOL_STRINGS[raw.lower()],
             lambda v: _exact(v, bool)),
    "tuple[int, ...]": ("integers",
                        lambda raw: tuple(int(p) for p in raw.split(",") if p.strip()),
                        lambda v: tuple(_exact(w, int) for w in _exact(v, list))),
}

# TrainConfig field name -> its annotation, e.g. "int" or "int | None".
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def config_value(key: str, value, text: bool = False):
    """TrainConfig field ``key`` read from a model file's JSON ``value`` or,
    with ``text``, from the raw text of a config-file line (comma-separated
    for a tuple). None (JSON null, or the text ``none`` or nothing) is
    accepted only where the annotation allows it. Raises ConfigError naming
    the key and what it must be."""
    if key not in _CONFIG_FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    annotation = _CONFIG_FIELDS[key]
    optional = annotation.endswith(" | None")
    if optional and (value.lower() in ("none", "") if text else value is None):
        return None
    expected, from_text, from_json = _CONFIG_TYPES[annotation.removesuffix(" | None")]
    try:
        return from_text(value) if text else from_json(value)
    except (KeyError, TypeError, ValueError):
        none = f" or {'none' if text else 'null'}" if optional else ""
        raise ConfigError(f"{key} must be {expected}{none}, got {value!r}") from None


@dataclass
class AutoencoderParams:
    """Encoder (x -> hidden code h) and decoder (h -> x_c) layer stacks."""

    encoder: list[Layer]
    decoder: list[Layer]


@dataclass
class Model:
    """All trainable tensors plus the config that shaped them.

    ``theta`` is the flat float64 vector behind every block but the leaf
    logits (see ``_allocate_model``). ``norm_stats`` (a dataio.NormStats,
    kept untyped here to avoid the import cycle), ``manifest_version`` and
    ``feature_names`` (the training columns, in order) ride along so a
    serialized model can be applied to raw feature files without sidecars.
    """

    autoencoder: AutoencoderParams
    forest: ForestParams
    config: TrainConfig
    theta: np.ndarray
    norm_stats: object = None
    manifest_version: int | None = None
    feature_names: list[str] | None = None

    @property
    def n_features(self) -> int:
        return self.autoencoder.encoder[0].W.shape[1]


def _default_encoder_widths(n_features: int, n_layers: int) -> list[int]:
    # Halve per layer but keep at least two units: the routing has no bias
    # term, so a one-dimensional all-positive tree input cannot be split.
    widths = []
    w = n_features
    for _ in range(n_layers):
        w = max(2, ceil(w / 2))
        widths.append(w)
    return widths


def _allocate_model(config: TrainConfig, n_features: int) -> Model:
    """The all-zero model of ``config``; the one owner of the parameter layout,
    and so of every shape: nothing downstream checks them again. A model
    too large to allocate raises ConfigError.

    The weight set theta is one float64 vector, ``model.theta``: every
    ``Layer.W``/``.b`` (encoder, decoder, fully connected) and the stacked
    routing are views into it, in ``parameter_blocks`` order. The stacked
    leaf logits are a separate array.
    """
    if n_features < 1:
        raise ConfigError(f"need at least one input feature, got {n_features}")
    enc_widths = list(config.ae_widths) if config.ae_widths is not None else \
        _default_encoder_widths(n_features, config.ae_layer_count)
    hidden = enc_widths[-1]
    dec_widths = list(reversed(enc_widths))[1:] + [n_features]
    fc_width = config.fc_width if config.fc_width is not None else hidden
    fc_widths = [fc_width] * config.fc_layer_count
    xt_dim = fc_width if config.fc_layer_count > 0 else hidden
    n_dec = 2 ** config.n_depth - 1

    # Layer (in, out) widths of the encoder, decoder and fully connected stacks.
    stacks = [list(zip([n_features] + enc_widths, enc_widths)),
              list(zip([hidden] + dec_widths, dec_widths)),
              list(zip([hidden] + fc_widths, fc_widths))]
    shapes = [shape for stack in stacks for n_in, n_out in stack
              for shape in ((n_out, n_in), (n_out,))]
    shapes.append((config.n_tree, n_dec, xt_dim))
    sizes = [prod(shape) for shape in shapes]
    try:
        theta = np.zeros(sum(sizes))
        leaves = np.zeros((config.n_tree, n_dec + 1, N_CLASSES))
    except (MemoryError, ValueError):  # beyond memory, or beyond numpy's sizes
        raise ConfigError("config describes a model too large to allocate") from None
    views = iter([chunk.reshape(shape) for chunk, shape in
                  zip(np.split(theta, np.cumsum(sizes)[:-1]), shapes)])
    encoder, decoder, fc = [[Layer(next(views), next(views)) for _ in stack]
                            for stack in stacks]
    forest = ForestParams(next(views), leaves, fc)
    return Model(AutoencoderParams(encoder, decoder), forest, config, theta)


def init_model(config: TrainConfig, n_features: int, rng: Rng) -> Model:
    """Freshly initialized model; every tensor is drawn normal(0, init_scale^2).

    One draw per block in ``parameter_blocks`` order (encoder, decoder,
    fully connected, then per tree routing and leaf logits), so ``rng``'s
    seed pins the whole initialization.
    """
    model = _allocate_model(config, n_features)
    for _, block in parameter_blocks(model):
        block[...] = rng.normal(block.shape, config.init_scale)
    return model


def _block_names(config: TrainConfig):
    """Yield the name of every block of ``config``'s model, in
    ``parameter_blocks`` order, one at a time: a reader can take the first
    few of a config that describes more blocks than it could allocate."""
    for prefix, n_layers in (("encoder", config.ae_layer_count),
                             ("decoder", config.ae_layer_count),
                             ("fc", config.fc_layer_count)):
        for i in range(n_layers):
            yield f"{prefix}.{i}.W"
            yield f"{prefix}.{i}.b"
    for k in range(config.n_tree):
        yield f"tree.{k}.routing"
        yield f"tree.{k}.leaf_logits"


def parameter_blocks(model: Model) -> list[tuple[str, np.ndarray]]:
    """Named references to every trainable tensor, leaf logits included,
    named by ``_block_names``.

    The arrays are the model's own buffers: writing through them (e.g.
    ``block[...] = new``) updates the model. Tree k's blocks are the views
    ``forest.routing[k]`` and ``forest.leaf_logits[k]`` of the stacked
    forest tensors.
    """
    arrays = [array for layers in (model.autoencoder.encoder, model.autoencoder.decoder,
                                   model.forest.fc)
              for layer in layers for array in (layer.W, layer.b)]
    for k in range(model.forest.n_trees):
        arrays += [model.forest.routing[k], model.forest.leaf_logits[k]]
    return list(zip(_block_names(model.config), arrays, strict=True))


# ---------------------------------------------------------------------------
# Forward pass


def _batch(X: np.ndarray, model: Model) -> np.ndarray:
    """``X`` as float64 if it is (rows, model.n_features): the one batch check."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ShapeError(f"expected a 2-D batch (rows, {model.n_features}), "
                         f"got shape {X.shape}")
    return X


def _labeled_batch(X: np.ndarray, y, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as ``_batch`` checks it, with one row or more, and ``y`` as int64
    labels, one 0 or 1 per row: the check of ``joint_loss`` and ``gradients``."""
    X = _batch(X, model)
    y = np.atleast_1d(np.asarray(y))
    if X.shape[0] == 0:
        raise ValueError("the joint loss of an empty batch is undefined")
    if y.shape != (X.shape[0],):
        raise ValueError(f"{X.shape[0]} samples but label shape {y.shape}")
    return X, binary_labels(y)


def _forward_cache(X: np.ndarray, model: Model) -> dict:
    """The mini-batch backward's forward through the autoencoder and the
    fully connected stack, keeping every intermediate for backprop; the
    forest's forward runs in ``_forest_pass``, beside its backward."""
    enc_acts = sigmoid_chain(X, model.autoencoder.encoder)
    H = enc_acts[-1]
    dec_acts = sigmoid_chain(H, model.autoencoder.decoder)
    fc_acts = sigmoid_chain(H, model.forest.fc)
    return {
        "enc_acts": enc_acts,
        "dec_acts": dec_acts,
        "fc_acts": fc_acts,
        "x_c": dec_acts[-1],
    }


# A full-set forward runs in row blocks that start at multiples of ROW_BLOCK
# rows; the last block takes the remainder, so it holds ROW_BLOCK to
# 2 * ROW_BLOCK - 1 rows, and fewer than 2 * ROW_BLOCK rows make one block.
# Every step of the forward is row by row, but a gemm's result for one row
# can depend on where the row sits in its operand: a gemv takes a tail path
# for the last rows, and a small product takes another kernel. Aligned,
# large blocks keep every row's bits those of one call over all rows.
ROW_BLOCK = 2048


def _by_row_blocks(n_rows: int, body):
    """``body(rows)`` for the row blocks ``rows`` that cover ``n_rows`` rows;
    each call writes its rows of outputs the caller allocated.

    One block runs on this thread. Two or more are taken in turn, last
    block first, from one shared iterator by this thread and one worker
    (numpy releases the interpreter lock inside each gemm and ufunc). A
    block that raises drains the iterator, so the other thread takes no new
    block, and the exception reaches the caller once both threads are done.
    """
    n_blocks = max(1, n_rows // ROW_BLOCK)
    bounds = [b * ROW_BLOCK for b in range(n_blocks)] + [n_rows]
    # The last block, the largest, is handed out first: the two threads then
    # end closer together, and later blocks' temporaries fit in the memory
    # its temporaries freed, where the other order grew each thread's heap.
    # A list iterator hands each item out once, also to two threads.
    blocks = iter([slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])][::-1])

    def take():
        try:
            for rows in blocks:
                body(rows)
        except BaseException:
            for _ in blocks:
                pass
            raise

    if n_blocks == 1:
        take()
    else:
        beside(take, take)


def _leaf_forward(X: np.ndarray, model: Model,
                  decode: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """The reconstruction x_c (None without ``decode``, which skips the
    decoder) and the leaf reach mu of a batch, keeping no intermediate for
    backprop; computed in row blocks. The one full-set forward."""
    x_c = np.empty(X.shape) if decode else None
    mu = np.empty((model.forest.n_trees, len(X), model.forest.leaf_logits.shape[1]))

    def block(rows):
        H = sigmoid_chain(X[rows], model.autoencoder.encoder)[-1]
        if decode:
            x_c[rows] = sigmoid_chain(H, model.autoencoder.decoder)[-1]
        leaf_reach(sigmoid_chain(H, model.forest.fc)[-1], model.forest, out=mu[:, rows])

    _by_row_blocks(len(X), block)
    return x_c, mu


def predict(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, forest probabilities) for a 2-D batch; argmax ties go low:
    ``_leaf_forward`` without the decoder, then the leaf mixture."""
    _, mu = _leaf_forward(_batch(X, model), model, decode=False)
    probs = leaf_mixture(mu, model.forest)["forest_probs"]
    return probs.argmax(axis=1), probs


# ---------------------------------------------------------------------------
# Losses


def joint_loss(X: np.ndarray, y: np.ndarray, model: Model) -> float:
    """Reconstruction error plus mean per-tree -log p[y], averaged over a 2-D batch."""
    X, y = _labeled_batch(X, y, model)
    x_c, mu = _leaf_forward(X, model)
    return _loss_terms(X, y, x_c, leaf_mixture(mu, model.forest)["probs"])


def _loss_terms(X: np.ndarray, y: np.ndarray, x_c: np.ndarray,
                probs: np.ndarray) -> float:
    """The joint loss from a reconstruction ``x_c`` and per-tree ``probs``."""
    recon = ((X - x_c) ** 2).sum(axis=1)
    p_y = np.maximum(probs[:, np.arange(X.shape[0]), y], PROB_FLOOR)
    tree_terms = _tree_sum(-np.log(p_y)) / probs.shape[0]
    return float((recon + tree_terms).mean())


def _tree_sum(terms: np.ndarray) -> np.ndarray:
    """``terms[0] + terms[1] + ...``, the sum over the first (tree) axis
    added in tree order, where ``sum`` may pair terms up, with one in-place
    add per tree. Every entry that is not NaN has the bits of
    ``np.cumsum(terms, axis=0)[-1]``; which NaN a sum of two NaNs gives is
    the add loop's choice, and a NaN ends training either way."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


# ---------------------------------------------------------------------------
# Backpropagation


def _backward_layers(layers: list[Layer], acts: list[np.ndarray],
                     g_out: np.ndarray, grads: list[Layer]) -> np.ndarray:
    """Backpropagate dL/d(output) through a sigmoid_chain stack, writing each
    layer's dL/dW and dL/db into the same layer of ``grads``; returns
    dL/d(input)."""
    g = g_out
    for i in range(len(layers) - 1, -1, -1):
        a = acts[i + 1]
        gz = g * a * (1.0 - a)
        np.matmul(gz.T, acts[i], out=grads[i].W)
        gz.sum(axis=0, out=grads[i].b)
        g = gz @ layers[i].W
    return g


def _tree_loss_grad(probs: np.ndarray, y: np.ndarray, n_trees: int) -> np.ndarray:
    """d(mean over batch and ``n_trees`` trees of -log p_k[y]) / d p_k[y]
    for the trees of ``probs`` (k, B), which may be some of the forest's;
    zero where the probability floor is active."""
    B = probs.shape[1]
    p_y = probs[:, np.arange(B), y]
    return np.where(p_y > PROB_FLOOR,
                    -1.0 / (n_trees * B * np.maximum(p_y, PROB_FLOOR)), 0.0)


def by_tree_halves(forest: ForestParams, n_rows: int, body) -> None:
    """``body(trees)`` over tree slices that cover the forest, for a pass
    over ``n_rows`` rows; each call writes its trees' slices of outputs the
    caller allocated.

    With two trees or more and at least 2 * ``CHUNK_CELLS`` reach cells
    (K * n_rows * (2^(D+1) - 1)), the trees split in two halves: trees
    [0, ceil(K/2)) on this thread and [ceil(K/2), K) beside it
    (``numerics.beside``), one handoff for the whole pass. Otherwise
    ``body`` runs once over all K trees on this thread: on smaller passes
    numpy's per-call cost, paid under the interpreter lock, outweighs what
    a second thread runs. Given the tree input, a tree's routing, reach and
    gradients depend on no other tree, so the halves share no state.
    """
    n_trees = forest.n_trees
    cells = n_trees * n_rows * (2 * forest.n_decision_nodes + 1)
    if n_trees < 2 or cells < 2 * CHUNK_CELLS:
        body(slice(0, n_trees))
    else:
        mid = (n_trees + 1) // 2
        beside(lambda: body(slice(mid, n_trees)), lambda: body(slice(0, mid)))


def _forest_pass(XT: np.ndarray, y: np.ndarray, forest: ForestParams,
                 g_routing: np.ndarray) -> np.ndarray:
    """The mini-batch forest pass: per tree, the forward, p_k[y], dL/dp_k[y]
    and the backward, over the tree halves of ``by_tree_halves``.

    Writes dL/d routing into ``g_routing`` and returns dL/dXT, with the
    trees' terms added in tree order on this thread; the leaf logits take
    their gradient from the full-set forward instead. Every tree's gemms
    and elementwise steps are those of one pass over all trees, so every
    bit is too.
    """
    g_xt = np.empty((forest.n_trees, *XT.shape))

    def half(trees):
        part = ForestParams(forest.routing[trees], forest.leaf_logits[trees])
        cache = forest_forward(XT, part)
        g_py = _tree_loss_grad(cache["probs"], y, forest.n_trees)
        forest_backward(XT, y, g_py, cache, part, out=(g_routing[trees], g_xt[trees]))

    by_tree_halves(forest, len(XT), half)
    return _tree_sum(g_xt)


def _leaf_logit_gradient(y: np.ndarray, mu: np.ndarray, forest: ForestParams,
                         out: np.ndarray):
    """Write dL/d leaf logits of the tree term of the joint loss into
    ``out``, from the leaf reach ``mu`` of ``_leaf_forward``: the one
    leaf-gradient path, of ``gradients`` and of the epoch's leaf step."""
    mixture = leaf_mixture(mu, forest)
    out[...] = leaf_gradient(y, _tree_loss_grad(mixture["probs"], y, forest.n_trees),
                             mu, mixture["leaf_dists"])


def _check_finite(grad: Model):
    """Raise NumericError naming the first block of the gradient model
    ``grad`` with a non-finite entry, in the order the backward pass reaches
    them: decoder, trees, fully connected, encoder."""
    order = ("decoder", "tree", "fc", "encoder")
    for name, g in sorted(parameter_blocks(grad),
                          key=lambda block: order.index(block[0].split(".")[0])):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in block {name}", context=name)


def _backward(X: np.ndarray, y: np.ndarray, model: Model, grad: Model) -> None:
    """The one backward pass for a validated batch: writes dL/d every theta
    block of ``model`` into the same block of the gradient model ``grad``,
    whose leaf logits it leaves alone."""
    cache = _forward_cache(X, model)

    # Decoder chain, seeded by d/dx_c of mean_b ||x - x_c||^2.
    g_xc = 2.0 * (cache["x_c"] - X) / X.shape[0]
    g_h_dec = _backward_layers(model.autoencoder.decoder, cache["dec_acts"], g_xc,
                               grad.autoencoder.decoder)

    # Trees: the forest carries d(mean_k -log p_k[y]) back to the tree input.
    g_xt = _forest_pass(cache["fc_acts"][-1], y, model.forest, grad.forest.routing)

    # Fully connected chain (identity pass-through when empty).
    g_h_fc = _backward_layers(model.forest.fc, cache["fc_acts"], g_xt, grad.forest.fc)

    # Encoder receives gradient from both the decoder and the forest.
    _backward_layers(model.autoencoder.encoder, cache["enc_acts"], g_h_dec + g_h_fc,
                     grad.autoencoder.encoder)


def gradients(X: np.ndarray, y: np.ndarray, model: Model) -> dict[str, np.ndarray]:
    """Exact gradient of joint_loss with respect to every parameter block.

    Keys match ``parameter_blocks`` names; shapes match the parameters.
    Theta's blocks are ``_backward``'s, the leaf logits' the leaf step's.
    """
    X, y = _labeled_batch(X, y, model)
    grad = _allocate_model(model.config, model.n_features)
    _backward(X, y, model, grad)
    _leaf_logit_gradient(y, _leaf_forward(X, model, decode=False)[1], model.forest,
                         grad.forest.leaf_logits)
    _check_finite(grad)
    return dict(parameter_blocks(grad))


# ---------------------------------------------------------------------------
# Optimizers


def rmsprop_step(theta: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                 learning_rate: float, epsilon: float):
    """One AdaGrad step (Duchi, Hazan & Singer, JMLR 2011).

    G <- G + g*g ; theta <- theta - (lr / sqrt(G + eps)) * g, elementwise:
    G is a running sum, not RMSProp's decaying average; the name is older
    than that reading, and ``perfbench/tracing.py`` hooks it by this name.
    Pure: returns (new_theta, new_accumulator). The per-epoch leaf step uses
    it too; leaf distributions are softmax(logits), so they stay normalized
    exactly no matter the step.
    """
    accum = accum + grad * grad
    theta = theta - learning_rate / np.sqrt(accum + epsilon) * grad
    return theta, accum


# ---------------------------------------------------------------------------
# Training loop


def _leaf_epoch_step(X: np.ndarray, y: np.ndarray, model: Model, grad: Model,
                     accum: np.ndarray,
                     config: TrainConfig) -> tuple[float, float, np.ndarray]:
    """The epoch's leaf-logit step from one full-set ``_leaf_forward``; the
    leaf gradient goes into the gradient model ``grad``, and ``accum`` is
    the leaf logits' squared-gradient accumulator.

    Returns the joint loss and training accuracy of the stepped model, equal
    to ``joint_loss`` and ``predict`` on it, and the updated accumulator. The
    step changes only the leaf logits, so mu and the reconstruction still
    hold and only the leaf mixture is recomputed.
    """
    x_c, mu = _leaf_forward(X, model)
    _leaf_logit_gradient(y, mu, model.forest, grad.forest.leaf_logits)
    if not np.isfinite(grad.forest.leaf_logits).all():
        _check_finite(grad)
    model.forest.leaf_logits[...], accum = rmsprop_step(
        model.forest.leaf_logits, grad.forest.leaf_logits, accum,
        config.leaf_learning_rate, config.epsilon)
    mixture = leaf_mixture(mu, model.forest)
    loss = _loss_terms(X, y, x_c, mixture["probs"])
    acc = float((mixture["forest_probs"].argmax(axis=1) == y).mean())
    return loss, acc, accum


@dataclass
class TrainResult:
    model: Model
    losses: list[float]
    accuracies: list[float]


def train(X: np.ndarray, y: np.ndarray, config: TrainConfig,
          epoch_callback=None) -> TrainResult:
    """Mini-batch training.

    The data is shuffled once up front (seeded); each epoch then walks the
    same batch sequence updating the weight set theta per batch, and takes
    a single leaf-logit step from the full-training-set gradient, computed
    from one full-set forward pass. The loss and accuracy traces hold the
    full-set joint loss and training accuracy after each epoch's updates,
    bit-identical to ``joint_loss`` and ``predict`` on the rows in the
    loop's order.

    ``epoch_callback(epoch, model)``, when given, runs after each epoch's
    updates (read-only hook).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ConfigError(f"training features must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ConfigError(f"{X.shape[0]} rows but label shape {y.shape}")
    y = binary_labels(y, ConfigError)
    n = X.shape[0]
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds dataset size {n}")

    rng = Rng(config.seed)
    model = init_model(config, X.shape[1], rng=rng)
    grad = _allocate_model(config, X.shape[1])
    theta_accum = np.zeros_like(model.theta)
    leaf_accum = np.zeros_like(model.forest.leaf_logits)

    order = rng.permutation(n)
    X, y = X[order], y[order]

    n_batches = ceil(n / config.batch_size)
    losses: list[float] = []
    accuracies: list[float] = []

    for epoch in range(config.n_epoch):
        if config.reshuffle_each_epoch and epoch > 0:
            order = rng.permutation(n)
            X, y = X[order], y[order]
        try:
            with one_worker():
                for b in range(n_batches):
                    sl = slice(b * config.batch_size, (b + 1) * config.batch_size)
                    _backward(X[sl], y[sl], model, grad)
                    if not np.isfinite(grad.theta).all():
                        _check_finite(grad)
                    model.theta[...], theta_accum = rmsprop_step(
                        model.theta, grad.theta, theta_accum, config.learning_rate,
                        config.epsilon)
            loss, acc, leaf_accum = _leaf_epoch_step(X, y, model, grad, leaf_accum,
                                                     config)
        except NumericError as exc:
            raise NumericError(f"{exc} at epoch {epoch}", context=epoch) from exc
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {epoch}", context=epoch)
        losses.append(loss)
        accuracies.append(acc)
        if epoch_callback is not None:
            epoch_callback(epoch, model)

    return TrainResult(model, losses, accuracies)

