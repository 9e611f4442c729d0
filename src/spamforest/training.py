"""Joint loss, exact backpropagation, AdaGrad updates and the epoch/batch
training loop.

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
is measured by the benchmark in ``perfbench/``. Only the mini-batch backward
runs ``_forward_cache`` and its ``forest_forward``, which routes every tree
of the mini-batch at once on stacked node-major (K, nodes, rows) arrays and
keeps decisions and reach for backprop; ``predict``, ``joint_loss`` and the
leaf step keep only the leaf reach mu (``forest.leaf_reach``, one tree at a
time in row blocks), so a full-set pass holds (K, rows, 2^D) floats of forest
state, not (K, rows, 3 * 2^D - 2).

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
so always valid) and true-class probabilities; that forward keeps only the
reconstruction and mu. The step changes only pi, so the epoch's logged
loss and accuracy reuse mu and the reconstruction and recompute only the
leaf mixture mu @ pi.

The loop owns the model exclusively while training; per-batch gradient
reductions are plain indexed sums, so results are reproducible for a fixed
(seed, config, dataset) triple.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import ceil, prod

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .forest import (ForestParams, forest_backward, forest_forward,
                     leaf_gradient, leaf_mixture, leaf_reach)
from .numerics import Layer, Rng, sigmoid_chain

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
# (at depth 10, 16 KB per row per tree) and its backward temporaries of the
# same size over all K trees, and the full-set leaf step and predict hold the
# (K, rows, 2^D) leaf reach mu (8 KB). The deepest config shipped uses 6.
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
    and so of every shape: nothing downstream checks them again.

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
    theta = np.zeros(sum(sizes))
    views = iter([chunk.reshape(shape) for chunk, shape in
                  zip(np.split(theta, np.cumsum(sizes)[:-1]), shapes)])
    encoder, decoder, fc = [[Layer(next(views), next(views)) for _ in stack]
                            for stack in stacks]
    forest = ForestParams(next(views), np.zeros((config.n_tree, n_dec + 1, N_CLASSES)), fc)
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


def parameter_blocks(model: Model) -> list[tuple[str, np.ndarray]]:
    """Named references to every trainable tensor, leaf logits included.

    The arrays are the model's own buffers: writing through them (e.g.
    ``block[...] = new``) updates the model. Tree k's blocks are the views
    ``forest.routing[k]`` and ``forest.leaf_logits[k]`` of the stacked
    forest tensors.
    """
    blocks = []
    for prefix, layers in (("encoder", model.autoencoder.encoder),
                           ("decoder", model.autoencoder.decoder),
                           ("fc", model.forest.fc)):
        for i, layer in enumerate(layers):
            blocks += [(f"{prefix}.{i}.W", layer.W), (f"{prefix}.{i}.b", layer.b)]
    for k in range(model.forest.n_trees):
        blocks.append((f"tree.{k}.routing", model.forest.routing[k]))
        blocks.append((f"tree.{k}.leaf_logits", model.forest.leaf_logits[k]))
    return blocks


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
    if not ((y == 0) | (y == 1)).all():
        raise ValueError("labels must be 0 or 1")
    return X, y.astype(np.int64)


def _forward_cache(X: np.ndarray, model: Model) -> dict:
    """One batched forward pass keeping every intermediate for backprop;
    only the mini-batch backward needs it."""
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


def _leaf_forward(X: np.ndarray, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """The reconstruction x_c and the leaf reach mu of a batch, keeping no
    intermediate for backprop."""
    H = sigmoid_chain(X, model.autoencoder.encoder)[-1]
    x_c = sigmoid_chain(H, model.autoencoder.decoder)[-1]
    return x_c, leaf_reach(sigmoid_chain(H, model.forest.fc)[-1], model.forest)


def predict(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, forest probabilities) for a 2-D batch; argmax ties go low.

    Runs encoder -> fully connected -> forest; the decoder is skipped.
    """
    H = sigmoid_chain(_batch(X, model), model.autoencoder.encoder)[-1]
    x_t = sigmoid_chain(H, model.forest.fc)[-1]
    probs = leaf_mixture(leaf_reach(x_t, model.forest), model.forest)["forest_probs"]
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
    # cumsum adds the trees' terms in tree order, where sum may pair them up.
    tree_terms = np.cumsum(-np.log(p_y), axis=0)[-1] / probs.shape[0]
    return float((recon + tree_terms).mean())


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


def _tree_loss_grad(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean over batch and trees of -log p_k[y]) / d p_k[y], (K, B); zero
    where the probability floor is active."""
    K, B = probs.shape[:2]
    p_y = probs[:, np.arange(B), y]
    return np.where(p_y > PROB_FLOOR, -1.0 / (K * B * np.maximum(p_y, PROB_FLOOR)), 0.0)


def _check_finite(grad: Model):
    """Raise NumericError naming the first block of the gradient model
    ``grad`` with a non-finite entry, in the order the backward pass reaches
    them: decoder, trees, fully connected, encoder."""
    order = ("decoder", "tree", "fc", "encoder")
    for name, g in sorted(parameter_blocks(grad),
                          key=lambda block: order.index(block[0].split(".")[0])):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in block {name}", context=name)


def _backward(X: np.ndarray, y: np.ndarray, model: Model, grad: Model):
    """The one backward pass for a validated batch: writes dL/d every theta
    block of ``model`` into the same block of the gradient model ``grad``,
    whose leaf logits it leaves alone.

    Returns the forest cache and dL/d p_k[y], from which ``leaf_gradient``
    gives the leaf-logit gradient.
    """
    cache = _forward_cache(X, model)

    # Decoder chain, seeded by d/dx_c of mean_b ||x - x_c||^2.
    g_xc = 2.0 * (cache["x_c"] - X) / X.shape[0]
    g_h_dec = _backward_layers(model.autoencoder.decoder, cache["dec_acts"], g_xc,
                               grad.autoencoder.decoder)

    # Trees: the forest carries d(mean_k -log p_k[y]) back to the tree input.
    g_py = _tree_loss_grad(cache["forest"]["probs"], y)
    grad.forest.routing[...], g_xt = forest_backward(
        cache["fc_acts"][-1], y, g_py, cache["forest"], model.forest)

    # Fully connected chain (identity pass-through when empty).
    g_h_fc = _backward_layers(model.forest.fc, cache["fc_acts"], g_xt, grad.forest.fc)

    # Encoder receives gradient from both the decoder and the forest.
    _backward_layers(model.autoencoder.encoder, cache["enc_acts"], g_h_dec + g_h_fc,
                     grad.autoencoder.encoder)
    return cache["forest"], g_py


def gradients(X: np.ndarray, y: np.ndarray, model: Model) -> dict[str, np.ndarray]:
    """Exact gradient of joint_loss with respect to every parameter block.

    Keys match ``parameter_blocks`` names; shapes match the parameters.
    """
    X, y = _labeled_batch(X, y, model)
    grad = _allocate_model(model.config, model.n_features)
    forest_cache, g_py = _backward(X, y, model, grad)
    grad.forest.leaf_logits[...] = leaf_gradient(y, g_py, forest_cache["mu"],
                                                 forest_cache["leaf_dists"])
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
    """The epoch's leaf-logit step from one full-set forward pass that keeps
    only the reconstruction and the leaf reach mu; the leaf gradient goes
    into the gradient model ``grad``, and ``accum`` is the leaf logits'
    squared-gradient accumulator.

    Returns the joint loss and training accuracy of the stepped model, equal
    to ``joint_loss`` and ``predict`` on it, and the updated accumulator. The
    step changes only the leaf logits, so mu and the reconstruction still
    hold and only the leaf mixture is recomputed.
    """
    x_c, mu = _leaf_forward(X, model)
    mixture = leaf_mixture(mu, model.forest)
    grad.forest.leaf_logits[...] = leaf_gradient(
        y, _tree_loss_grad(mixture["probs"], y), mu, mixture["leaf_dists"])
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

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for e, (loss, acc) in enumerate(zip(losses, accuracies)):
                fh.write(f"{e}\t{loss!r}\t{acc!r}\n")

    return TrainResult(model, losses, accuracies)

