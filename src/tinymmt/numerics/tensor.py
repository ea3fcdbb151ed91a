"""Dense tensors with reverse-mode autodiff on a dynamically recorded tape.

Storage is numpy; float64 by default so finite-difference checks are
meaningful. Each op records its parents and a backward closure; backward()
walks the tape in reverse topological order and accumulates gradients
additively. Nothing persists across steps: a fresh graph is recorded every
forward pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from tinymmt.errors import ShapeError

DEFAULT_DTYPE = np.float64

_GRAD_ENABLED = True


class no_grad:
    """Ops executed inside record no tape and produce constant tensors."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the actual math lives in the module-level functions
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -_coerce(other, self.data.dtype))

    def __rsub__(self, other):
        return add(_coerce(other, self.data.dtype), -self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        out_data = self.data[idx].copy()
        src = self

        def fn(g: np.ndarray) -> None:
            if src.requires_grad:
                if src.grad is None:
                    src.grad = np.zeros_like(src.data)
                np.add.at(src.grad, idx, g)

        return _make(out_data, (self,), fn)


def _coerce(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _coerce(b, a.data.dtype)
    out_data = a.data + b.data

    def fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), fn)


def mul(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = _coerce(b, a.data.dtype)
    out_data = a.data * b.data

    def fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), fn)


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with np.matmul semantics (both operands ndim >= 2)."""
    if not isinstance(a, Tensor):
        a = Tensor(a)
    if not isinstance(b, Tensor):
        b = Tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires 2-D or higher operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ _swap_last(b.data), a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(_swap_last(a.data) @ g, b.data.shape))

    return _make(out_data, (a, b), fn)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    out_data = np.transpose(x.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.transpose(g, inv))

    return _make(out_data, (x,), fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    out_data = x.data.reshape(shape)

    def fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g.reshape(x.data.shape))

    return _make(out_data, (x,), fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [p if isinstance(p, Tensor) else Tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of an empty sequence")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def fn(g: np.ndarray) -> None:
        pos = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(pos, pos + size)
                _accumulate(p, g[tuple(sl)])
            pos += size

    return _make(out_data, tuple(parts), fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows table[ids]; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.data.shape}")
    if ids.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got {ids.shape}")
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"embedding ids out of range [0, {n})")
    out_data = table.data[ids]

    def fn(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, ids, g)

    return _make(out_data, (table,), fn)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def fn(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(gg, x.data.shape))

    return _make(out_data, (x,), fn)


_GELU_C = float(np.sqrt(2.0 / np.pi))  # a Python float keeps float32 inputs float32


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    xd = x.data
    # cube and square as products: the generic ** ufunc costs ~70x a multiply here
    inner = xd * xd * xd
    inner *= 0.044715
    inner += xd
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    out_data = 0.5 * xd * (1.0 + t)

    def fn(g: np.ndarray) -> None:
        if x.requires_grad:
            dinner = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
            local = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner
            _accumulate(x, g * local)

    return _make(out_data, (x,), fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm scale/shift must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = gamma.data * xhat + beta.data

    def fn(g: np.ndarray) -> None:
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gamma.data
            term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * term)

    return _make(out_data, (x, gamma, beta), fn)


def _softmax_inplace(p: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite p with its softmax along `axis` (max-subtracted for stability)."""
    p -= p.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p


def _softmax_grad(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of the softmax input given output p and output gradient g."""
    d = g - (g * p).sum(axis=axis, keepdims=True)
    d *= p
    return d


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, computed with max-subtraction for stability."""
    p = _softmax_inplace(x.data.copy(), axis)

    def fn(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, _softmax_grad(g, p, axis))

    return _make(p, (x,), fn)


def masked_softmax(x: Tensor, scale: float, mask: np.ndarray | None = None) -> Tensor:
    """softmax(x * scale + mask) along the last axis, as one tape node.

    `mask` is a constant additive array broadcast against x (e.g. a causal
    mask of 0 and ATTN_MASK_VALUE); it receives no gradient. Where the mask
    drives a probability to exactly 0, the gradient to x is exactly 0 too.
    """
    scale = x.data.dtype.type(scale)
    p = x.data * scale
    if mask is not None:
        p += mask
    _softmax_inplace(p, -1)

    def fn(g: np.ndarray) -> None:
        if x.requires_grad:
            d = _softmax_grad(g, p, -1)
            d *= scale
            _accumulate(x, d)

    return _make(p, (x,), fn)


def attention_probs(q: Tensor, k: Tensor, scale: float,
                    mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ kᵀ * scale + mask) along the last axis, as one tape node.

    Bitwise equal, forward and backward, to
    masked_softmax(matmul(q, transpose(k)), scale, mask). The scores are
    computed into the buffer that becomes the output, so the op holds one
    (..., T, T) array where that chain holds two.
    """
    scale = q.data.dtype.type(scale)
    p = q.data @ _swap_last(k.data)
    p *= scale
    if mask is not None:
        p += mask
    _softmax_inplace(p, -1)

    def fn(g: np.ndarray) -> None:
        d = _softmax_grad(g, p, -1)
        d *= scale
        if q.requires_grad:
            _accumulate(q, d @ k.data)
        if k.requires_grad:
            _accumulate(k, _swap_last(_swap_last(q.data) @ d))

    return _make(p, (q, k), fn)


def cross_entropy_masked(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-softmax probability of targets over masked positions.

    logits: (T, V); targets: (T,) int token ids; mask: (T,) bool. Positions
    with mask False contribute nothing, so the loss is independent of their
    targets. Raises if the mask selects no positions (the mean is undefined).
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_masked expects (T, V) logits, got {logits.data.shape}")
    t_len, vocab = logits.data.shape
    if targets.shape != (t_len,) or mask.shape != (t_len,):
        raise ShapeError(
            f"targets {targets.shape} and mask {mask.shape} must both have shape ({t_len},)"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(f"target ids out of range [0, {vocab})")
    if not mask.any():
        raise ValueError("cross_entropy_masked: mask selects no positions; mean is undefined")

    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    e = np.exp(shifted)
    sum_e = e.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sum_e)
    nll = -log_probs[np.arange(t_len), targets]
    count = int(mask.sum())
    out_data = np.asarray((nll * mask).sum() / count, dtype=logits.data.dtype)

    def fn(g: np.ndarray) -> None:
        if logits.requires_grad:
            p = e / sum_e
            d = p.copy()
            d[np.arange(t_len), targets] -= 1.0
            d *= (mask.astype(logits.data.dtype) / count)[:, None]
            _accumulate(logits, d * g)

    return _make(out_data, (logits,), fn)


def backward(loss: Tensor) -> None:
    """Populate grad for every requires_grad tensor reachable from `loss`.

    Gradients accumulate additively across uses and across repeated calls;
    clearing is the caller's job (adam_step does it after each update).
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    _accumulate(loss, np.ones((), dtype=loss.data.dtype))
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
