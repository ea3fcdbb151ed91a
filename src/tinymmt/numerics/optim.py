"""Bias-corrected Adam over a ParameterStore's trainable set."""

from __future__ import annotations

import numpy as np

from tinymmt.numerics.params import ParameterStore

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Moment buffers for exactly the store's trainable set at creation time.

    Rebuild the state whenever the trainable set changes (e.g. a new training
    stage); adam_step refuses to run against a drifted set.
    """

    def __init__(self, store: ParameterStore, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0
        self.m = {name: np.zeros_like(store[name].data) for name in sorted(store.trainable)}
        self.v = {name: np.zeros_like(store[name].data) for name in sorted(store.trainable)}


def adam_step(store: ParameterStore, state: AdamState) -> None:
    """Apply one Adam update to the trainable parameters, then zero all grads.

    Parameters outside the trainable set are never touched (bit-identical
    before and after, whatever their gradients hold).
    """
    if set(state.m) != set(store.trainable):
        raise ValueError(
            "trainable set changed since AdamState was created; rebuild the optimizer state"
        )
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name in sorted(state.m):
        p = store[name]
        if p.grad is None:
            raise ValueError(f"adam_step: trainable parameter {name!r} has no gradient")
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    for _, p in store.items():
        p.grad = None
