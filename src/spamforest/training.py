"""Joint loss, exact backpropagation, RMSProp-style updates and the
epoch/batch training loop.

The model chains three stages: a sigmoid autoencoder (input x -> hidden
code h -> reconstruction x_c), an optional fully connected stack
(h -> tree input x_t), and a forest of soft-routed trees (x_t -> class
probabilities, averaged over trees); ``predict`` skips the decoder, whose
x_c enters only the loss. The scalar objective is

    mean over samples [ ||x - x_c||^2 + mean over trees( -log p_tree[y] ) ]

and every gradient is derived by hand, layer by layer, in one backward
pass whose forest part is ``forest.forest_backward``. The finite
difference harness in the test suite is the arbiter of correctness.

Per-epoch cost model: one epoch costs O(n_batches * batch_size * (
sum_l n_{l-1} n_l over encoder, decoder and fully connected layers +
xt_dim * n_trees * n_leaves)). At a fixed depth the forest term grows
linearly in the number of trees. Acceptance test 10 checks this by counting
the rows and weights each epoch's forward and backward calls see; wall time
is measured by the benchmark in ``perfbench/``. The forest works on stacked
(K, rows, nodes) arrays, one chunk of trees per numpy call: every tree for a
mini-batch, one per call for the full-set pass (``forest._tree_chunks``).

Two optimizers run side by side. In ``train`` the weight set theta
(encoder, decoder, fully connected, routing) is one float64 vector, and
every ``Layer.W``/``.b`` and the stacked routing are views into it. After
each mini-batch the backward's theta gradient, concatenated in the same
layout, is checked for finiteness once and takes one accumulator-scaled
``rmsprop_step``; that backward computes no leaf-logit gradient. The leaf
logits take one step per epoch from the full-training-set gradient, which
needs only one full-set forward's leaf reach mu, leaf distributions pi (the
softmax of the logits, so always valid) and true-class probabilities. The
step changes only pi, so the epoch's logged loss and accuracy reuse mu and
the reconstruction and recompute only the leaf mixture mu @ pi.

The loop owns the model exclusively while training; per-batch gradient
reductions are plain indexed sums, so results are reproducible for a fixed
(seed, config, dataset) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .autoencoder import AutoencoderParams
from .errors import ConfigError, NumericError, ShapeError
from .forest import (ForestParams, forest_backward, forest_forward,
                     leaf_gradient, leaf_mixture)
from .numerics import Layer, Rng, sigmoid_chain

__all__ = [
    "TrainConfig",
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

# -log is kept finite by flooring the predicted probability of the true
# class here; the gradient is zero wherever the floor is active.
PROB_FLOOR = 1e-12

# Soft routing sends every row through all 2^D - 1 decision nodes of every
# tree, so a forward holds a (K, rows, 2^(D+1) - 1) reach array: at depth 10,
# 16 KB per row per tree. The deepest config shipped uses 6.
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


@dataclass
class Model:
    """All trainable tensors plus the config that shaped them.

    ``norm_stats`` (a dataio.NormStats, kept untyped here to avoid the
    import cycle), ``manifest_version`` and ``feature_names`` (the training
    columns, in order) ride along so a serialized model can be applied to
    raw feature files without extra sidecars.
    """

    autoencoder: AutoencoderParams
    forest: ForestParams
    config: TrainConfig
    norm_stats: object = None
    manifest_version: int | None = None
    feature_names: list[str] | None = None

    @property
    def n_features(self) -> int:
        return self.autoencoder.input_dim

    @property
    def n_classes(self) -> int:
        return self.forest.n_classes


def _default_encoder_widths(n_features: int, n_layers: int) -> list[int]:
    # Halve per layer but keep at least two units: the routing has no bias
    # term, so a one-dimensional all-positive tree input cannot be split.
    widths = []
    w = n_features
    for _ in range(n_layers):
        w = max(2, ceil(w / 2))
        widths.append(w)
    return widths


def init_model(config: TrainConfig, n_features: int, rng: Rng,
               n_classes: int = 2) -> Model:
    """Freshly initialized model; every tensor is drawn normal(0, init_scale^2).

    The draw order (encoder, decoder, fully connected, then per-tree routing
    and leaf logits) is fixed so ``rng``'s seed pins the whole initialization.
    """
    if n_features < 1:
        raise ConfigError(f"need at least one input feature, got {n_features}")
    scale = config.init_scale

    enc_widths = list(config.ae_widths) if config.ae_widths is not None else \
        _default_encoder_widths(n_features, config.ae_layer_count)
    dec_widths = list(reversed(enc_widths))[1:] + [n_features]

    def draw_layers(in_dim, widths):
        layers = []
        for out_dim in widths:
            layers.append(Layer(rng.normal((out_dim, in_dim), scale),
                                rng.normal((out_dim,), scale)))
            in_dim = out_dim
        return layers

    encoder = draw_layers(n_features, enc_widths)
    decoder = draw_layers(enc_widths[-1], dec_widths)
    hidden = enc_widths[-1]

    fc_width = config.fc_width if config.fc_width is not None else hidden
    fc = draw_layers(hidden, [fc_width] * config.fc_layer_count)
    xt_dim = fc_width if config.fc_layer_count > 0 else hidden

    n_dec = 2 ** config.n_depth - 1
    n_leaf = 2 ** config.n_depth
    routing, leaf_logits = [], []
    for _ in range(config.n_tree):
        routing.append(rng.normal((n_dec, xt_dim), scale))
        leaf_logits.append(rng.normal((n_leaf, n_classes), scale))
    forest = ForestParams(np.stack(routing), np.stack(leaf_logits), fc)

    return Model(AutoencoderParams(encoder, decoder), forest, config)


def _layer_stacks(model: Model) -> list[tuple[str, list[Layer]]]:
    return [("encoder", model.autoencoder.encoder),
            ("decoder", model.autoencoder.decoder), ("fc", model.forest.fc)]


def parameter_blocks(model: Model) -> list[tuple[str, np.ndarray]]:
    """Named references to every trainable tensor, leaf logits included.

    The arrays are the model's own buffers: writing through them (e.g.
    ``block[...] = new``) updates the model. Tree k's blocks are the views
    ``forest.routing[k]`` and ``forest.leaf_logits[k]`` of the stacked
    forest tensors.
    """
    blocks = []
    for prefix, layers in _layer_stacks(model):
        for i, layer in enumerate(layers):
            blocks += [(f"{prefix}.{i}.W", layer.W), (f"{prefix}.{i}.b", layer.b)]
    for k in range(model.forest.n_trees):
        blocks.append((f"tree.{k}.routing", model.forest.routing[k]))
        blocks.append((f"tree.{k}.leaf_logits", model.forest.leaf_logits[k]))
    return blocks


def _flat_theta(model: Model) -> np.ndarray:
    """Move the weight set theta (every block but the leaf logits) into one
    float64 vector, in ``parameter_blocks`` order, and return it; every
    ``Layer.W``/``.b`` and ``forest.routing`` becomes a view into it."""
    layers = [layer for _, stack in _layer_stacks(model) for layer in stack]
    arrays = [a for layer in layers for a in (layer.W, layer.b)] + [model.forest.routing]
    theta = np.concatenate([a.ravel() for a in arrays])
    chunks = np.split(theta, np.cumsum([a.size for a in arrays])[:-1])
    views = iter([c.reshape(a.shape) for c, a in zip(chunks, arrays)])
    for layer in layers:
        layer.W, layer.b = next(views), next(views)
    model.forest.routing = next(views)
    return theta


# ---------------------------------------------------------------------------
# Forward pass


def _batch(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D batch (rows, features), got shape {X.shape}")
    return X


def _forward_cache(X: np.ndarray, model: Model) -> dict:
    """One batched forward pass keeping every intermediate for backprop."""
    enc_acts = sigmoid_chain(X, model.autoencoder.encoder)
    H = enc_acts[-1]
    dec_acts = sigmoid_chain(H, model.autoencoder.decoder)
    fc_acts = sigmoid_chain(H, model.forest.fc)
    return {
        "enc_acts": enc_acts,
        "dec_acts": dec_acts,
        "fc_acts": fc_acts,
        "x_c": dec_acts[-1],
        "forest": forest_forward(fc_acts[-1], model.forest),
    }


def predict(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, forest probabilities) for a 2-D batch; argmax ties go low.

    Runs encoder -> fully connected -> forest; the decoder is skipped.
    """
    H = sigmoid_chain(_batch(X), model.autoencoder.encoder)[-1]
    x_t = sigmoid_chain(H, model.forest.fc)[-1]
    probs = forest_forward(x_t, model.forest)["forest_probs"]
    return probs.argmax(axis=1), probs


# ---------------------------------------------------------------------------
# Losses


def joint_loss(X: np.ndarray, y: np.ndarray, model: Model) -> float:
    """Reconstruction error plus mean per-tree -log p[y], averaged over a 2-D batch."""
    X = _batch(X)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if X.shape[0] == 0:
        raise ValueError("joint_loss of an empty batch is undefined")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} samples but {y.shape[0]} labels")
    cache = _forward_cache(X, model)
    return _loss_terms(X, y, cache["x_c"], cache["forest"]["probs"])


def _loss_terms(X: np.ndarray, y: np.ndarray, x_c: np.ndarray,
                probs: np.ndarray) -> float:
    """The joint loss from a reconstruction ``x_c`` and per-tree ``probs``."""
    recon = ((X - x_c) ** 2).sum(axis=1)
    p_y = np.maximum(probs[:, np.arange(X.shape[0]), y], PROB_FLOOR)
    # cumsum adds the trees' terms in tree order, where sum may pair them up.
    tree_terms = np.cumsum(-np.log(p_y), axis=0)[-1] / probs.shape[0]
    return float((recon + tree_terms).mean())


# ---------------------------------------------------------------------------
# Backpropagation


def _backward_layers(layers: list[Layer], acts: list[np.ndarray],
                     g_out: np.ndarray):
    """Gradients for a sigmoid_chain stack given dL/d(output).

    Returns ([(gW, gb) per layer], dL/d(input)).
    """
    grads = [None] * len(layers)
    g = g_out
    for i in range(len(layers) - 1, -1, -1):
        a = acts[i + 1]
        gz = g * a * (1.0 - a)
        grads[i] = (gz.T @ acts[i], gz.sum(axis=0))
        g = gz @ layers[i].W
    return grads, g


def _tree_loss_grad(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean over batch and trees of -log p_k[y]) / d p_k[y], (K, B); zero
    where the probability floor is active."""
    K, B = probs.shape[:2]
    p_y = probs[:, np.arange(B), y]
    return np.where(p_y > PROB_FLOOR, -1.0 / (K * B * np.maximum(p_y, PROB_FLOOR)), 0.0)


def _check_finite(grads: dict[str, np.ndarray]):
    """Raise NumericError naming the first block, in ``grads`` order, with a
    non-finite entry."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in block {name}", context=name)


def _backward(X: np.ndarray, y: np.ndarray, model: Model,
              with_leaf: bool) -> dict[str, np.ndarray]:
    """The one backward pass: dL/d every theta block, plus the leaf logits
    when ``with_leaf``, for a validated batch.

    Blocks are keyed by ``parameter_blocks`` name in the order the pass
    produces them (decoder, trees, fully connected, encoder), the order in
    which ``_check_finite`` looks for the first non-finite one.
    """
    B = X.shape[0]
    cache = _forward_cache(X, model)
    grads: dict[str, np.ndarray] = {}

    # Decoder chain, seeded by d/dx_c of mean_b ||x - x_c||^2.
    g_xc = 2.0 * (cache["x_c"] - X) / B
    dec_grads, g_h_dec = _backward_layers(model.autoencoder.decoder,
                                          cache["dec_acts"], g_xc)
    for i, (gW, gb) in enumerate(dec_grads):
        grads[f"decoder.{i}.W"], grads[f"decoder.{i}.b"] = gW, gb

    # Trees: the forest carries d(mean_k -log p_k[y]) back to the tree input.
    g_py = _tree_loss_grad(cache["forest"]["probs"], y)
    g_routing, g_xt = forest_backward(
        cache["fc_acts"][-1], y, g_py, cache["forest"], model.forest)
    if with_leaf:
        g_leaf_logits = leaf_gradient(y, g_py, cache["forest"], model.forest)
    for k in range(model.forest.n_trees):
        if with_leaf:
            grads[f"tree.{k}.leaf_logits"] = g_leaf_logits[k]
        grads[f"tree.{k}.routing"] = g_routing[k]

    # Fully connected chain (identity pass-through when empty).
    fc_grads, g_h_fc = _backward_layers(model.forest.fc, cache["fc_acts"], g_xt)
    for i, (gW, gb) in enumerate(fc_grads):
        grads[f"fc.{i}.W"], grads[f"fc.{i}.b"] = gW, gb

    # Encoder receives gradient from both the decoder and the forest.
    enc_grads, _ = _backward_layers(model.autoencoder.encoder,
                                    cache["enc_acts"], g_h_dec + g_h_fc)
    for i, (gW, gb) in enumerate(enc_grads):
        grads[f"encoder.{i}.W"], grads[f"encoder.{i}.b"] = gW, gb
    return grads


def gradients(X: np.ndarray, y: np.ndarray, model: Model) -> dict[str, np.ndarray]:
    """Exact gradient of joint_loss with respect to every parameter block.

    Keys match ``parameter_blocks`` names; shapes match the parameters.
    """
    X = _batch(X)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if X.shape[0] == 0:
        raise ValueError("gradients of an empty batch are undefined")
    grads = _backward(X, y, model, with_leaf=True)
    _check_finite(grads)
    return grads


# ---------------------------------------------------------------------------
# Optimizers


def rmsprop_step(theta: np.ndarray, grad: np.ndarray, accum: np.ndarray,
                 learning_rate: float, epsilon: float):
    """One accumulator-scaled step.

    G <- G + g*g ; theta <- theta - (lr / sqrt(G + eps)) * g, elementwise.
    Pure: returns (new_theta, new_accumulator). The per-epoch leaf step uses
    it too; leaf distributions are softmax(logits), so they stay normalized
    exactly no matter the step.
    """
    accum = accum + grad * grad
    theta = theta - learning_rate / np.sqrt(accum + epsilon) * grad
    return theta, accum


# ---------------------------------------------------------------------------
# Training loop


def _leaf_epoch_step(X: np.ndarray, y: np.ndarray, model: Model, accum: np.ndarray,
                     config: TrainConfig) -> tuple[float, float, np.ndarray]:
    """The epoch's leaf-logit step from one full-set forward pass; ``accum``
    is the leaf logits' squared-gradient accumulator.

    Returns the joint loss and training accuracy of the stepped model, equal
    to ``joint_loss`` and ``predict`` on it, and the updated accumulator. The
    step changes only the leaf logits, so the cached reach and reconstruction
    still hold and only the leaf mixture is recomputed. The cache is dropped
    on return, before the next epoch's forward.
    """
    cache = _forward_cache(X, model)
    forest_cache = cache["forest"]
    g_leaf_logits = leaf_gradient(
        y, _tree_loss_grad(forest_cache["probs"], y), forest_cache, model.forest)
    if not np.isfinite(g_leaf_logits).all():
        _check_finite({f"tree.{k}.leaf_logits": g for k, g in enumerate(g_leaf_logits)})
    model.forest.leaf_logits[...], accum = rmsprop_step(
        model.forest.leaf_logits, g_leaf_logits, accum,
        config.leaf_learning_rate, config.epsilon)
    mixture = leaf_mixture(forest_cache["reach"], model.forest)
    loss = _loss_terms(X, y, cache["x_c"], mixture["probs"])
    acc = float((mixture["forest_probs"].argmax(axis=1) == y).mean())
    return loss, acc, accum


@dataclass
class TrainResult:
    model: Model
    losses: list[float]
    accuracies: list[float]


def train(X: np.ndarray, y: np.ndarray, config: TrainConfig,
          log_path=None, epoch_callback=None) -> TrainResult:
    """Mini-batch training.

    The data is shuffled once up front (seeded); each epoch then walks the
    same batch sequence updating the weight set theta per batch, and takes
    a single leaf-logit step from the full-training-set gradient, computed
    from one full-set forward pass. The loss and accuracy traces hold the
    full-set joint loss and training accuracy after each epoch's updates,
    bit-identical to ``joint_loss`` and ``predict`` on the rows in the
    loop's order.

    ``log_path``, when given, receives one tab-separated line per epoch:
    epoch index, joint loss, training accuracy. ``epoch_callback(epoch,
    model)``, when given, runs after each epoch's updates (read-only hook).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise ConfigError(f"training features must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ConfigError(f"{X.shape[0]} rows but label shape {y.shape}")
    if not np.all((y == 0) | (y == 1)):
        raise ConfigError("labels must be 0 or 1")
    n = X.shape[0]
    if config.batch_size > n:
        raise ConfigError(f"batch_size {config.batch_size} exceeds dataset size {n}")

    rng = Rng(config.seed)
    model = init_model(config, X.shape[1], rng=rng)
    theta = _flat_theta(model)
    theta_names = [name for name, _ in parameter_blocks(model)
                   if not name.endswith(".leaf_logits")]
    theta_accum = np.zeros_like(theta)
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
            for b in range(n_batches):
                sl = slice(b * config.batch_size, (b + 1) * config.batch_size)
                grads = _backward(X[sl], y[sl], model, with_leaf=False)
                g = np.concatenate([grads[name].ravel() for name in theta_names])
                if not np.isfinite(g).all():
                    _check_finite(grads)
                theta[...], theta_accum = rmsprop_step(
                    theta, g, theta_accum, config.learning_rate, config.epsilon)
            loss, acc, leaf_accum = _leaf_epoch_step(X, y, model, leaf_accum, config)
        except NumericError as exc:
            raise NumericError(f"{exc} at epoch {epoch}", context=epoch) from exc
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {epoch}", context=epoch)
        losses.append(loss)
        accuracies.append(acc)
        if epoch_callback is not None:
            epoch_callback(epoch, model)

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for e, (loss, acc) in enumerate(zip(losses, accuracies)):
                fh.write(f"{e}\t{loss!r}\t{acc!r}\n")

    return TrainResult(model, losses, accuracies)

