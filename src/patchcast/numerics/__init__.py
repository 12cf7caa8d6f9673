"""Tape-based reverse-mode autodiff, kernels, optimizer, and gradient checks."""

from .adamw import AdamWConfig, AdamWState, adamw_step
from .gradcheck import grad_check
from .ops import (
    NormState,
    add,
    append_token,
    causal_attention,
    linear,
    linear_relu,
    matmul,
    mse,
    normalize,
    relu,
    reshape,
    residual,
    scale,
    select_position,
)
from .tensor import Tape, Tensor, all_finite, backward, tile, zero_grads
