"""Multi-layer sigmoid encoder/decoder with squared reconstruction error.

The encoder maps an input vector of width n to a hidden code of width m
through one or more affine + sigmoid layers; the decoder mirrors the shape
chain back to width n. Both stacks run through ``numerics.sigmoid_chain``
in the model's one forward pass (``training._forward_cache``). Parameters are
immutable during inference; only the training loop mutates them, and it
has exclusive access while doing so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import Layer

__all__ = ["AutoencoderParams", "reconstruction_loss"]


@dataclass
class AutoencoderParams:
    encoder: list[Layer]
    decoder: list[Layer]

    def __post_init__(self):
        if not self.encoder or not self.decoder:
            raise ShapeError("encoder and decoder each need at least one layer")
        chain = self.encoder + self.decoder
        for prev, nxt in zip(chain, chain[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ShapeError(
                    f"layer shapes do not chain: {prev.W.shape} -> {nxt.W.shape}"
                )
        if self.decoder[-1].out_dim != self.encoder[0].in_dim:
            raise ShapeError(
                f"decoder output width {self.decoder[-1].out_dim} != "
                f"encoder input width {self.encoder[0].in_dim}"
            )

    @property
    def input_dim(self) -> int:
        return self.encoder[0].in_dim

    @property
    def hidden_dim(self) -> int:
        return self.encoder[-1].out_dim


def reconstruction_loss(x_in: np.ndarray, x_rec: np.ndarray) -> float:
    """Squared error ||x_in - x_rec||^2; mean over samples for a batch."""
    x_in = np.asarray(x_in, dtype=np.float64)
    x_rec = np.asarray(x_rec, dtype=np.float64)
    if x_in.shape != x_rec.shape:
        raise ShapeError(f"input shape {x_in.shape} != reconstruction shape {x_rec.shape}")
    sq = ((x_in - x_rec) ** 2).sum(axis=-1)
    return float(sq if sq.ndim == 0 else sq.mean())
