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

from .errors import ShapeError
from .numerics import Layer

__all__ = ["AutoencoderParams"]


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
