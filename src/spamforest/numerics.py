"""Dense numeric primitives shared by the model modules.

All arithmetic is 64-bit floating point: the training module validates its
backpropagation against central finite differences, which needs the
headroom. Vectors and matrices are plain ``numpy.float64`` arrays; functions
accept a single vector ``(n,)`` or a batch ``(b, n)`` and preserve the shape.
They check no shapes: ``training._allocate_model`` fixes a model's, and
``training._batch`` checks a batch's where it enters.

Entropy is reported in nats (natural log) with the ``0 * log 0 := 0``
convention. Softmax subtracts the row maximum before exponentiating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "Rng",
    "Layer",
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
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
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


def sigmoid(x, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + e^-x), numerically stable on both tails.

    Accepts a scalar or an array; returns an array of the same shape, 0-d
    for a scalar, written into ``out`` when given. Outputs lie in (0, 1)
    until float64 saturation (|x| > ~37).

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e)
    otherwise, the same operations on the same values as evaluating each
    branch on its own, so the result is bit-identical to that form. The
    numerator is max(e, x >= 0), which takes no branch per element: since
    e <= 1, the maximum is exactly 1 where x >= 0 (-0.0 and +inf included)
    and exactly e elsewhere, and a NaN passes through it, so the bits are
    the two-branch form's.
    """
    arr = np.asarray(x, dtype=np.float64)
    # min(x, -x) is -|x| but passes a NaN through with its sign, as the
    # x < 0 branch does. out= keeps a 0-d input an array, not a scalar.
    out = np.negative(arr, out=np.empty_like(arr) if out is None else out)
    np.minimum(arr, out, out=out)
    np.exp(out, out=out)
    den = out + 1.0
    np.maximum(out, arr >= 0, out=out)
    out /= den
    return out


def softmax(v: np.ndarray) -> np.ndarray:
    """Normalized exponentials along the last axis, max-subtracted."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p) -> float:
    """Shannon entropy -sum(p_i ln p_i) in nats.

    ``p`` must be a proportion vector: nonnegative, summing to 1 within
    1e-9. Zero proportions contribute zero.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a non-empty 1-D proportion vector, got shape {p.shape}")
    if np.any(p < 0):
        raise ValueError("proportions must be nonnegative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
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


def sigmoid_chain(x: np.ndarray, layers: list[Layer]) -> list[np.ndarray]:
    """Activations [x, sigma(x @ W.T + b), ...] through a stack of layers.

    Returns the full list so backpropagation can reuse the intermediates;
    callers that only want the output take the last element.
    """
    acts = [np.asarray(x, dtype=np.float64)]
    for layer in layers:
        acts.append(sigmoid(acts[-1] @ layer.W.T + layer.b))
    return acts


def norm_sf(z: float) -> float:
    """Standard normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi2_sf(x: float, df: int) -> float:
    """Chi-squared survival function Q(df/2, x/2) for integer ``df``.

    For integer df this regularized upper gamma is a finite sum (Abramowitz
    & Stegun, Handbook of Mathematical Functions, 26.4): with y = x/2 it
    starts from Q(1, y) = e^-y for even df, or Q(1/2, y) = erfc(sqrt(y)) for
    odd df, and Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1). Every term
    is positive, so the sum cancels nothing.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x <= 0:
        return 1.0
    y = x / 2.0
    a, q = (0.5, math.erfc(math.sqrt(y))) if df % 2 else (1.0, math.exp(-y))
    while a < df / 2.0:
        q += math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
        a += 1.0
    return q
