"""Gradient-descent machinery: RMSProp with momentum and global-norm clipping."""

from __future__ import annotations

import numpy as np


def clip_global_norm(parameters, max_norm):
    """Scale all gradients in place so their joint L2 norm is at most max_norm.

    Returns the pre-clip global norm. Parameters without a gradient are
    ignored.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for p in parameters:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for p in parameters:
            if p.grad is not None:
                p.grad *= scale
    return norm


class RMSProp:
    """RMSProp with heavy-ball momentum.

    Per parameter, with gradient g:

        avg    <- decay * avg + (1 - decay) * g^2
        step   <- momentum * step + lr * g / sqrt(avg + eps)
        weight <- weight - step

    State buffers are created lazily on the first step and keyed by
    parameter identity, so the same optimizer instance must be used for the
    whole run.
    """

    def __init__(self, parameters, lr=0.001, decay=0.9, momentum=0.9, eps=1e-6):
        self.parameters = list(parameters)
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("duplicate parameter passed to optimizer")
        self.lr = lr
        self.decay = decay
        self.momentum = momentum
        self.eps = eps
        self._square_avg = {id(p): np.zeros_like(p.data) for p in self.parameters}
        self._step_buf = {id(p): np.zeros_like(p.data) for p in self.parameters}

    def step(self):
        for p in self.parameters:
            if p.grad is None:
                continue
            g = p.grad
            avg = self._square_avg[id(p)]
            buf = self._step_buf[id(p)]
            avg *= self.decay
            avg += (1.0 - self.decay) * g * g
            buf *= self.momentum
            buf += self.lr * g / np.sqrt(avg + self.eps)
            p.data -= buf

