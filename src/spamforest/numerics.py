"""Dense numeric primitives shared by the model modules.

All arithmetic is 64-bit floating point: the training module validates its
backpropagation against central finite differences, which needs the
headroom. Vectors and matrices are plain ``numpy.float64`` arrays; functions
accept a single vector ``(n,)`` or a batch ``(b, n)`` and preserve the shape.

Entropy is reported in nats (natural log) with the ``0 * log 0 := 0``
convention. Softmax subtracts the row maximum before exponentiating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = [
    "Rng",
    "Layer",
    "affine",
    "sigmoid",
    "softmax",
    "entropy",
    "sigmoid_chain",
]


class Rng:
    """Seeded deterministic random source.

    Thin wrapper over numpy's PCG64 generator, which produces the same
    stream for the same 64-bit seed on every platform. Instances are
    single-owner: do not share one across threads.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        """I.i.d. normal(0, scale^2) array, deterministic per seed."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        return self._gen.normal(0.0, scale, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def subsample(self, items, k: int) -> list:
        """k items drawn uniformly without replacement, input order kept."""
        idx = self._gen.choice(len(items), size=k, replace=False)
        idx.sort()
        return [items[i] for i in idx]


def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W @ x + b for a vector x, or row-wise for a batch of vectors."""
    x = np.asarray(x, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeError(f"weight matrix must be 2-D, got shape {W.shape}")
    if x.shape[-1] != W.shape[1]:
        raise ShapeError(
            f"input shape {x.shape} incompatible with weight shape {W.shape}"
        )
    if b.shape != (W.shape[0],):
        raise ShapeError(
            f"bias shape {b.shape} incompatible with weight shape {W.shape}"
        )
    return x @ W.T + b


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x), numerically stable on both tails.

    Accepts a scalar or an array; returns the same shape. Outputs lie in
    (0, 1) until float64 saturation (|x| > ~37).

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e)
    otherwise, the same operations on the same values as evaluating each
    branch on its own, so the result is bit-identical to that form.
    """
    arr = np.asarray(x, dtype=np.float64)
    # min(x, -x) is -|x| but passes a NaN through with its sign, as the
    # x < 0 branch does. out= keeps a 0-d input an array, not a scalar.
    out = np.negative(arr, out=np.empty_like(arr))
    np.minimum(arr, out, out=out)
    np.exp(out, out=out)
    den = out + 1.0
    out[arr >= 0] = 1.0
    out /= den
    if arr.ndim == 0:
        return float(out)
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, max-subtracted."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p, atol: float = 1e-9) -> float:
    """Shannon entropy -sum(p_i ln p_i) in nats.

    ``p`` must be a proportion vector: nonnegative, summing to 1 within
    ``atol``. Zero proportions contribute zero.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a non-empty 1-D proportion vector, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("proportions must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > atol:
        raise ValueError(f"proportions must sum to 1 (got {total!r})")
    nz = p[p > 0]
    # Summing in sorted order makes the result exactly permutation-invariant;
    # + 0.0 normalizes -0.0 from the degenerate single-spike case.
    return float(-np.sort(nz * np.log(nz)).sum() + 0.0)


@dataclass
class Layer:
    """One affine-plus-sigmoid layer. W has shape (out, in), b has (out,)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ShapeError(
                f"layer weight shape {self.W.shape} incompatible with bias shape {self.b.shape}"
            )

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]


def sigmoid_chain(x: np.ndarray, layers: list[Layer]) -> list[np.ndarray]:
    """Activations [x, sigma(affine(x)), ...] through a stack of layers.

    Returns the full list so backpropagation can reuse the intermediates;
    callers that only want the output take the last element.
    """
    acts = [np.asarray(x, dtype=np.float64)]
    for layer in layers:
        acts.append(sigmoid(affine(acts[-1], layer.W, layer.b)))
    return acts


def norm_sf(z: float) -> float:
    """Standard normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared survival function via the regularized upper gamma Q(df/2, x/2)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    return _gammainc_upper(df / 2.0, x / 2.0)


def _gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x).

    Series expansion for x < a + 1, Lentz continued fraction otherwise;
    both converge to ~1e-15 for the half-integer a used here.
    """
    if x < a + 1.0:
        return 1.0 - _gser(a, x)
    return _gcf(a, x)


def _gser(a: float, x: float, itmax: int = 500, eps: float = 3e-16) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(itmax):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * eps:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gcf(a: float, x: float, itmax: int = 500, eps: float = 3e-16) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
