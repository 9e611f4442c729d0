"""Joint loss, exact backpropagation, RMSProp-style updates and the
epoch/batch training loop.

The model chains three stages: a sigmoid autoencoder (input x -> hidden
code h -> reconstruction x_c), an optional fully connected stack
(h -> tree input x_t), and a forest of soft-routed trees (x_t -> class
probabilities, averaged over trees). The scalar objective is

    mean over samples [ ||x - x_c||^2 + mean over trees( -log p_tree[y] ) ]

and every gradient is derived by hand, layer by layer; the forest's part
of the forward and backward pass is ``forest.forest_forward`` and
``forest.forest_backward``. The finite difference harness in the test suite
is the arbiter of correctness.

Per-epoch cost model: one epoch costs O(n_batches * batch_size * (
sum_l n_{l-1} n_l over encoder+decoder layers + sum_l n_{l-1} n_l over
fully connected layers + xt_dim * n_trees * n_leaves)). At a fixed depth
the forest term, and hence the epoch wall time once it dominates, grows
linearly in the number of trees.

Two optimizers run side by side, exactly as the training loop is staged:
the weight set theta (encoder, decoder, fully connected, routing) takes an
accumulator-scaled step after every mini-batch, while the leaf logits take
one step per epoch from the gradient over the full training set. Leaf
class distributions are always the softmax of the stored logits, so they
remain valid distributions after every update.

Each epoch passes the full training set through the forward pass once.
The leaf gradient uses only that pass's leaf reach mu, leaf distributions
pi and true-class probabilities; a leaf step changes only pi, so the
epoch's logged loss and accuracy reuse mu and the reconstruction and
recompute only the leaf mixture mu @ pi. Beside the mini-batches, an epoch
therefore forwards each training row twice and backpropagates it once.

The loop owns the model exclusively while training; per-batch gradient
reductions are plain indexed sums, so results are reproducible for a fixed
(seed, config, dataset) triple.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from math import ceil

import numpy as np

from .autoencoder import AutoencoderParams
from .errors import ConfigError, NumericError
from .forest import (ForestParams, forest_backward, forest_forward,
                     leaf_gradient, leaf_mixture)
from .numerics import Layer, Rng, sigmoid_chain

__all__ = [
    "TrainConfig",
    "Model",
    "OptimizerState",
    "TrainResult",
    "init_model",
    "parameter_blocks",
    "forward",
    "tree_loss",
    "joint_loss",
    "gradients",
    "rmsprop_step",
    "train",
    "predict",
    "measure_epoch_seconds",
]

NORMALIZATION_METHODS = ("zscore", "minmax", "none")

# -log is kept finite by flooring the predicted probability of the true
# class here; the gradient is zero wherever the floor is active.
PROB_FLOOR = 1e-12


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
        if self.fc_layer_count < 0:
            raise ConfigError(f"fc_layer_count must be >= 0, got {self.fc_layer_count}")
        for name in ("learning_rate", "leaf_learning_rate", "epsilon", "init_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ae_widths"] = list(self.ae_widths) if self.ae_widths is not None else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if d.get("ae_widths") is not None:
            d["ae_widths"] = tuple(d["ae_widths"])
        return cls(**d)


@dataclass
class Model:
    """All trainable tensors plus the config that shaped them.

    ``norm_stats`` (a dataio.NormStats, kept untyped here to avoid the
    import cycle) and ``manifest_version`` ride along so a serialized model
    can be applied to raw feature files without extra sidecars.
    """

    autoencoder: AutoencoderParams
    forest: ForestParams
    config: TrainConfig
    norm_stats: object = None
    manifest_version: int | None = None

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


def init_model(config: TrainConfig, n_features: int, rng: Rng | None = None,
               n_classes: int = 2) -> Model:
    """Freshly initialized model; every tensor is drawn normal(0, init_scale^2).

    The draw order (encoder, decoder, fully connected, then per-tree routing
    and leaf logits) is fixed so a seed pins the whole initialization.
    """
    if n_features < 1:
        raise ConfigError(f"need at least one input feature, got {n_features}")
    if rng is None:
        rng = Rng(config.seed)
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


def parameter_blocks(model: Model) -> list[tuple[str, np.ndarray]]:
    """Named references to every trainable tensor, leaf logits included.

    The arrays are the model's own buffers: writing through them (e.g.
    ``block[...] = new``) updates the model. Tree k's blocks are the views
    ``forest.routing[k]`` and ``forest.leaf_logits[k]`` of the stacked
    forest tensors.
    """
    blocks = []
    for i, layer in enumerate(model.autoencoder.encoder):
        blocks.append((f"encoder.{i}.W", layer.W))
        blocks.append((f"encoder.{i}.b", layer.b))
    for i, layer in enumerate(model.autoencoder.decoder):
        blocks.append((f"decoder.{i}.W", layer.W))
        blocks.append((f"decoder.{i}.b", layer.b))
    for i, layer in enumerate(model.forest.fc):
        blocks.append((f"fc.{i}.W", layer.W))
        blocks.append((f"fc.{i}.b", layer.b))
    for k in range(model.forest.n_trees):
        blocks.append((f"tree.{k}.routing", model.forest.routing[k]))
        blocks.append((f"tree.{k}.leaf_logits", model.forest.leaf_logits[k]))
    return blocks


def _leaf_block_names(model: Model) -> list[str]:
    return [f"tree.{k}.leaf_logits" for k in range(model.forest.n_trees)]


# ---------------------------------------------------------------------------
# Forward pass


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


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


def forward(x: np.ndarray, model: Model):
    """Full inference chain for one vector or a batch.

    Returns ``(x_c, probs_per_tree, forest_probs)`` where ``probs_per_tree``
    is stacked with the tree axis first.
    """
    X, single = _as_batch(x)
    cache = _forward_cache(X, model)
    x_c = cache["x_c"]
    per_tree, forest_probs = cache["forest"]["probs"], cache["forest"]["forest_probs"]
    if single:
        return x_c[0], per_tree[:, 0, :], forest_probs[0]
    return x_c, per_tree, forest_probs


def predict(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, forest probabilities) for a batch; argmax ties go low."""
    X, single = _as_batch(X)
    probs = _forward_cache(X, model)["forest"]["forest_probs"]
    labels = probs.argmax(axis=1)
    if single:
        return labels[0], probs[0]
    return labels, probs


# ---------------------------------------------------------------------------
# Losses


def tree_loss(probs: np.ndarray, y: int) -> float:
    """-log of the probability assigned to the true class, floored at 1e-12."""
    p = max(float(np.asarray(probs)[int(y)]), PROB_FLOOR)
    return -float(np.log(p))


def joint_loss(X: np.ndarray, y: np.ndarray, model: Model) -> float:
    """Reconstruction error plus mean per-tree -log p[y], averaged over the batch."""
    X, _ = _as_batch(X)
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
    rows = np.arange(X.shape[0])
    tree_terms = np.zeros(X.shape[0])
    for tree_probs in probs:
        p_y = np.maximum(tree_probs[rows, y], PROB_FLOOR)
        tree_terms += -np.log(p_y)
    tree_terms /= probs.shape[0]
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


def _check_finite(name: str, g: np.ndarray):
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient in block {name}", context=name)


def gradients(X: np.ndarray, y: np.ndarray, model: Model) -> dict[str, np.ndarray]:
    """Exact gradient of joint_loss with respect to every parameter block.

    Keys match ``parameter_blocks`` names; shapes match the parameters.
    """
    X, _ = _as_batch(X)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if X.shape[0] == 0:
        raise ValueError("gradients of an empty batch are undefined")
    B = X.shape[0]
    K = model.forest.n_trees
    cache = _forward_cache(X, model)
    grads: dict[str, np.ndarray] = {}

    # Decoder chain, seeded by d/dx_c of mean_b ||x - x_c||^2.
    g_xc = 2.0 * (cache["x_c"] - X) / B
    dec_grads, g_h_dec = _backward_layers(model.autoencoder.decoder,
                                          cache["dec_acts"], g_xc)
    for i, (gW, gb) in enumerate(dec_grads):
        grads[f"decoder.{i}.W"] = gW
        grads[f"decoder.{i}.b"] = gb

    # Trees: the forest carries d(mean_k -log p_k[y]) back to the tree input.
    g_py = _tree_loss_grad(cache["forest"]["probs"], y)
    g_routing, g_leaf_logits, g_xt = forest_backward(
        cache["fc_acts"][-1], y, g_py, cache["forest"], model.forest)
    for k in range(K):
        grads[f"tree.{k}.leaf_logits"] = g_leaf_logits[k]
        grads[f"tree.{k}.routing"] = g_routing[k]

    # Fully connected chain (identity pass-through when empty).
    fc_grads, g_h_fc = _backward_layers(model.forest.fc, cache["fc_acts"], g_xt)
    for i, (gW, gb) in enumerate(fc_grads):
        grads[f"fc.{i}.W"] = gW
        grads[f"fc.{i}.b"] = gb

    # Encoder receives gradient from both the decoder and the forest.
    enc_grads, _ = _backward_layers(model.autoencoder.encoder,
                                    cache["enc_acts"], g_h_dec + g_h_fc)
    for i, (gW, gb) in enumerate(enc_grads):
        grads[f"encoder.{i}.W"] = gW
        grads[f"encoder.{i}.b"] = gb

    for name, g in grads.items():
        _check_finite(name, g)
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


@dataclass
class OptimizerState:
    """Squared-gradient accumulators, one per parameter block.

    Entries are nonnegative and nondecreasing across steps.
    """

    accumulators: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_model(cls, model: Model) -> "OptimizerState":
        return cls({name: np.zeros_like(arr) for name, arr in parameter_blocks(model)})


# ---------------------------------------------------------------------------
# Training loop


def _leaf_epoch_step(X: np.ndarray, y: np.ndarray, model: Model,
                     state: OptimizerState, config: TrainConfig) -> tuple[float, float]:
    """The epoch's leaf-logit step from one full-set forward pass.

    Returns the joint loss and training accuracy of the stepped model, equal
    to ``joint_loss`` and ``predict`` on it: the step changes only the leaf
    logits, so the cached reach and reconstruction still hold and only the
    leaf mixture is recomputed. The cache is dropped on return, before the
    next epoch's forward.
    """
    cache = _forward_cache(X, model)
    forest_cache = cache["forest"]
    g_leaf_logits = leaf_gradient(
        y, _tree_loss_grad(forest_cache["probs"], y), forest_cache, model.forest)
    for k, name in enumerate(_leaf_block_names(model)):
        _check_finite(name, g_leaf_logits[k])
        model.forest.leaf_logits[k], state.accumulators[name] = rmsprop_step(
            model.forest.leaf_logits[k], g_leaf_logits[k], state.accumulators[name],
            config.leaf_learning_rate, config.epsilon)
    mixture = leaf_mixture(forest_cache["reach"], model.forest)
    loss = _loss_terms(X, y, cache["x_c"], mixture["probs"])
    acc = float((mixture["forest_probs"].argmax(axis=1) == y).mean())
    return loss, acc


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
    state = OptimizerState.for_model(model)
    leaf_names = _leaf_block_names(model)

    order = rng.permutation(n)
    X, y = X[order], y[order]

    blocks = dict(parameter_blocks(model))
    n_batches = ceil(n / config.batch_size)
    losses: list[float] = []
    accuracies: list[float] = []

    for epoch in range(config.n_epoch):
        if config.reshuffle_each_epoch and epoch > 0:
            order = rng.permutation(n)
            X, y = X[order], y[order]
        for b in range(n_batches):
            sl = slice(b * config.batch_size, (b + 1) * config.batch_size)
            try:
                grads = gradients(X[sl], y[sl], model)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}",
                                   context=epoch) from exc
            for name, arr in blocks.items():
                if name in leaf_names:
                    continue
                new, state.accumulators[name] = rmsprop_step(
                    arr, grads[name], state.accumulators[name],
                    config.learning_rate, config.epsilon)
                arr[...] = new

        try:
            loss, acc = _leaf_epoch_step(X, y, model, state, config)
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


def measure_epoch_seconds(X: np.ndarray, y: np.ndarray, config: TrainConfig,
                          n_epochs: int = 3) -> float:
    """Wall-clock seconds per epoch, with setup cost subtracted out.

    Times an ``n_epochs`` run against an epoch-free run of the same config,
    so initialization and shuffling do not pollute the per-epoch figure.
    Each side is the fastest of three runs, since noise from other work on
    the host only ever adds time.
    """

    def timed(n: int) -> float:
        cfg = TrainConfig.from_dict({**config.to_dict(), "n_epoch": n})
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            train(X, y, cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    setup = timed(0)
    full = timed(n_epochs)
    return max((full - setup) / n_epochs, 1e-9)
