"""Finite-difference validation of the recorded backward pass."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from tinymmt.numerics.tensor import Tensor, backward, no_grad

# Rounding in f(x+h) and f(x-h) alone moves the central difference by up to
# about ulps * eps * |f| / h; disagreements below this are not resolvable.
_ROUNDOFF_ULPS = 4.0
_EPS = float(np.finfo(np.float64).eps)


def _rel_error(analytic: float, f_plus: float, f_minus: float, h: float) -> float:
    numeric = (f_plus - f_minus) / (2.0 * h)
    diff = abs(analytic - numeric)
    if diff <= _ROUNDOFF_ULPS * _EPS * max(abs(f_plus), abs(f_minus)) / h:
        return 0.0
    return diff / max(abs(analytic), abs(numeric), 1e-8)


def grad_check_params(
    loss_fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    h: float = 1e-4,
    rng: np.random.Generator | None = None,
    coords_per_tensor: int | None = None,
) -> float:
    """Max relative error between backward() and central differences of a
    shared scalar loss closure, over the coordinates of many tensors.

    With coords_per_tensor set, checks that many randomly chosen coordinates
    in each tensor instead of every coordinate (the loss itself still runs
    the full computation), which keeps whole-model checks fast.

    Per coordinate, the relative error is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8), so near-zero coordinates don't blow
    up. A disagreement no larger than the central difference's own roundoff,
    4 * eps * max(|f(x+h)|, |f(x-h)|) / h with eps float64's machine
    epsilon, counts as agreement (error 0): a coordinate whose exact
    gradient is 0 still sees a few ulps of the loss divided by 2h.
    """
    for t in tensors:
        t.grad = None
    out = loss_fn()
    backward(out)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    with no_grad():
        for t, a in zip(tensors, analytic):
            if coords_per_tensor is not None and t.data.size > coords_per_tensor:
                if rng is None:
                    rng = np.random.default_rng(0)
                picks = rng.choice(t.data.size, size=coords_per_tensor, replace=False)
                coords = zip(*np.unravel_index(picks, t.data.shape))
            else:
                coords = np.ndindex(t.data.shape)
            for idx in coords:
                orig = t.data[idx]
                t.data[idx] = orig + h
                f_plus = float(loss_fn().data)
                t.data[idx] = orig - h
                f_minus = float(loss_fn().data)
                t.data[idx] = orig
                worst = max(worst, _rel_error(float(a[idx]), f_plus, f_minus, h))
    return worst
