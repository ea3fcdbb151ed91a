"""Dense tensors with reverse-mode autodiff on a dynamically recorded tape.

Storage is numpy float64, whatever the input's dtype, so finite-difference
checks are meaningful. Each recorded op gets a tape node that holds its
gradient, its parents' places and a backward closure, but not its output:
the closure keeps only the arrays its backward reads, so an output that no
backward reads (a residual sum, say) is freed as soon as the forward drops
its Tensor. backward() walks the tape in reverse topological order,
accumulates gradients additively, and releases each node's closure, parents
and gradient once its closure has run, so a graph is back-propagated once
and freed as the walk goes. Nothing persists across steps: a fresh graph is
recorded every forward pass.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from tinymmt.errors import ShapeError

LAYER_NORM_EPS = 1e-5

# LoRA's rank and scale (Hu et al. 2021): an adapter's delta is scaled by alpha / r
LORA_R = 4
LORA_ALPHA = 16.0
LORA_SCALE = LORA_ALPHA / LORA_R

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


class _Node:
    """A recorded op's place on the tape: the gradient reaching its output,
    its parents' places and its backward closure; never the output itself."""

    __slots__ = ("grad", "shape", "_parents", "_backward_fn")
    requires_grad = True

    def __init__(self, shape: tuple[int, ...], parents: tuple[Tensor | _Node, ...],
                 backward_fn: Callable):
        self.grad: np.ndarray | None = None
        self.shape = shape
        self._parents = parents
        self._backward_fn = backward_fn


class Tensor:
    """A value, and the tape node of the op that recorded it, if any.

    A Tensor no op recorded (a leaf, such as a parameter, or a constant) is
    its own place on the tape, and backward leaves a leaf's gradient in
    `grad`; a recorded Tensor's gradient lives on its node. A new Tensor is
    a constant: ParameterStore.add makes a parameter require grad, and
    _make an op's output.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data):
        # float is float64: numpy resolves the builtin ≈25 ns faster than np.float64
        self.data: np.ndarray = np.asarray(data, dtype=float)
        self.grad: np.ndarray | None = None
        self.requires_grad = False
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple[Tensor | _Node, ...]:
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self) -> Callable | None:
        return None if self._node is None else self._node._backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # + and * only, each with a Tensor of the same shape or a scalar constant
    # on either side; a difference is a sum with a product by -1.0
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, idx):
        def fn(g: np.ndarray, src) -> None:
            if src.requires_grad:
                _scatter_add(src, idx, g)

        out_data = self.data[idx]
        # a basic index gives a view; an integer array's selection is already new
        if np.may_share_memory(out_data, self.data):
            out_data = out_data.copy()
        return _make(out_data, (self,), fn)


def _selects_once(idx) -> bool:
    """True for an int, a slice, or a tuple of them: no element is selected twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        isinstance(i, slice) or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
        for i in parts
    )


# an integer index array goes one strictly increasing run at a time when its
# runs average at least this many ids: a run costs ~1.3-2.5 µs and np.add.at
# ~0.55 µs a row (a packed group's position ids, 850 rows in 3 runs: 20 µs
# against 457 µs), while token ids, runs of ~2, stay with np.add.at
_SCATTER_RUN = 4


def _scatter_add(t: Tensor | _Node, idx, g: np.ndarray) -> None:
    """Add g into the gradient of place t at idx, from zeros on the first
    contribution.

    A basic index, or a 1-D integer array of few strictly increasing runs (a
    packed group's position ids: sequence 0's, then each later sequence's
    own), adds in place, one run at a time in index order and as a slice
    where a run is contiguous; any other index goes through np.add.at. Both
    add a repeated element's shares in index order, so they agree bit for bit.
    """
    if t.grad is None:
        t.grad = np.zeros(t.shape)
    if isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu" and idx.size:
        starts = (np.flatnonzero(idx[1:] <= idx[:-1]) + 1).tolist()
        if (len(starts) + 1) * _SCATTER_RUN <= len(idx) or not starts:
            for a, b in zip([0] + starts, starts + [len(idx)]):
                lo, hi = int(idx[a]), int(idx[b - 1])
                contiguous = lo >= 0 and hi - lo == b - a - 1
                t.grad[slice(lo, hi + 1) if contiguous else idx[a:b]] += g[a:b]
            return
    elif _selects_once(idx):
        t.grad[idx] += g
        return
    np.add.at(t.grad, idx, g)


def _recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op on these parents records a tape node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """data as a Tensor, recorded on the tape when a parent requires grad.

    backward calls backward_fn(g, *places): g is the gradient reaching the
    output, and each parent's place is its node, or the parent itself when
    no op recorded it. A place has `grad`, `shape` and `requires_grad` but
    no data, so the closure keeps the arrays its backward reads itself.
    """
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._node = _Node(out.data.shape, tuple(p if p._node is None else p._node
                                                for p in parents), backward_fn)
    return out


def _accumulate(t: Tensor | _Node, g: np.ndarray, fresh: bool = False) -> None:
    """Add g into the gradient of place t. fresh: the caller just built g in
    t's shape and keeps no other use for it, so a first contribution becomes
    the gradient itself instead of a copy."""
    if t.grad is None:
        if fresh:
            t.grad = g
            return
        # a copy of its own: g may be a view of another buffer
        t.grad = np.empty(t.shape)
        t.grad[...] = g
    else:
        t.grad += g


def _operand(op: str, a: Tensor, b) -> Tensor:
    """b as the second operand of an elementwise op on a: a Tensor of a's
    shape, or a scalar constant made a Tensor."""
    if isinstance(b, Tensor):
        if b.data.shape != a.data.shape:
            raise ShapeError(f"{op} needs operands of one shape, got {a.data.shape} "
                             f"and {b.data.shape}")
        return b
    b = Tensor(b)
    if b.data.ndim:
        raise ShapeError(f"{op} takes a Tensor or a scalar constant, got shape {b.data.shape}")
    return b


def add(a: Tensor, b) -> Tensor:
    b = _operand("add", a, b)

    def fn(g: np.ndarray, a, b) -> None:
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _make(a.data + b.data, (a, b), fn)


def mul(a: Tensor, b) -> Tensor:
    b = _operand("mul", a, b)
    ad, bd = a.data, b.data

    def fn(g: np.ndarray, a, b) -> None:
        if a.requires_grad:
            _accumulate(a, g * bd)
        if b.requires_grad:
            _accumulate(b, g * ad)

    return _make(ad * bd, (a, b), fn)


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """The parts stacked along their first axis."""
    parts = [p if isinstance(p, Tensor) else Tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of an empty sequence")
    out_data = np.concatenate([p.data for p in parts])
    sizes = [p.data.shape[0] for p in parts]

    def fn(g: np.ndarray, *parts) -> None:
        pos = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                _accumulate(p, g[pos:pos + size])
            pos += size

    return _make(out_data, tuple(parts), fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows table[ids], a Tensor.__getitem__ node, once the ids are checked."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.data.shape}")
    if ids.ndim != 1:
        raise ShapeError(f"embedding ids must be 1-D, got {ids.shape}")
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"embedding ids out of range [0, {n})")
    return table[ids]


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_tanh(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, GELU(xd)), tanh approximation: t = tanh(c (x + 0.044715 x³)) is
    what the slope needs besides x."""
    # cube and square as products: the generic ** ufunc costs ~70x a multiply here
    inner = xd * xd * xd
    inner *= 0.044715
    inner += xd
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    out = t + 1.0
    out *= xd
    out *= 0.5
    return t, out


def _gelu_slope(xd: np.ndarray, t: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """GELU's derivative at xd, given _gelu_tanh's t, in one new buffer:
    0.5 x (1 - t²) c (1 + 3·0.044715 x²) + 0.5(1 + t).

    Overwrites t, and sq, a buffer of xd's shape (xd itself when the caller
    has no further use for it), with the terms it is done with.
    """
    slope = t * t
    np.subtract(1.0, slope, out=slope)
    slope *= xd
    slope *= 0.5
    np.multiply(xd, xd, out=sq)
    sq *= 3 * 0.044715
    sq += 1.0
    sq *= _GELU_C
    slope *= sq
    t += 1.0
    t *= 0.5
    slope += t
    return slope


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    xd = x.data
    t, out_data = _gelu_tanh(xd)

    def fn(g: np.ndarray, x) -> None:
        if x.requires_grad:
            slope = _gelu_slope(xd, t, np.empty_like(xd))
            slope *= g
            _accumulate(x, slope, fresh=True)

    return _make(out_data, (x,), fn)


def gelu_mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one tape node, bit for bit.

    x is (n, d_in), w1 (h, d_in), b1 (h,), w2 (d_out, h) and b2 (d_out,).
    While recording, the node keeps GELU's slope at the hidden rows, for the
    gradients of x, w1 and b1, and GELU's output only when w2 trains: the
    three nodes it replaces keep the hidden rows, tanh and GELU's output.
    It keeps x's values only when w1 trains.
    """
    if x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2 \
            or x.data.shape[1] != w1.data.shape[1] or w1.data.shape[0] != w2.data.shape[1]:
        raise ShapeError(f"gelu_mlp expects x (n, d_in), w1 (h, d_in) and w2 (d_out, h), "
                         f"got {x.data.shape}, {w1.data.shape} and {w2.data.shape}")
    xd, w1d, w2d = x.data, w1.data, w2.data
    hidden = _dense(xd, w1d, b1)
    t, act = _gelu_tanh(hidden)
    out_data = _dense(act, w2d, b2)
    parents = (x, w1, b1, w2, b2)
    recording = _recording(parents)
    upstream = recording and (x.requires_grad or w1.requires_grad or b1.requires_grad)
    slope = _gelu_slope(hidden, t, hidden) if upstream else None
    kept_act = act if recording and w2.requires_grad else None
    kept_x = xd if recording and w1.requires_grad else None

    def fn(g: np.ndarray, x, w1, b1, w2, b2) -> None:
        if upstream:
            dh = g @ w2d
            dh *= slope
            _dense_grads(x, kept_x, w1, w1d, b1, dh)
        _dense_grads(None, kept_act, w2, w2d, b2, g)

    return _make(out_data, parents, fn)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True), bitwise, minus np.mean's wrapper."""
    m = np.add.reduce(a, axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm scale/shift must have shape ({d},)")
    xhat = x.data - _row_mean(x.data)
    inv = _row_mean(xhat * xhat)
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    gd = gamma.data
    out_data = xhat * gd
    out_data += beta.data

    def fn(g: np.ndarray, x, gamma, beta) -> None:
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
            dxhat = g * gd
            m2 = _row_mean(dxhat * xhat)
            dxhat -= _row_mean(dxhat)
            dxhat -= xhat * m2
            dxhat *= inv
            _accumulate(x, dxhat, fresh=True)

    return _make(out_data, (x, gamma, beta), fn)


def _softmax_inplace(p: np.ndarray) -> np.ndarray:
    """Overwrite p with its softmax along the last axis (max-subtracted for stability)."""
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Overwrite g, the gradient of softmax output p (last axis), with the
    gradient of its input."""
    g -= (g * p).sum(axis=-1, keepdims=True)
    g *= p
    return g


# query rows per causal block: at T≈350 one block of every row costs about twice
# as much as blocks of 32 to 128 rows, which differ by a few percent
ATTN_BLOCK = 64
ATTN_MASK_VALUE = -1e30  # finite stand-in for -inf; exp() underflows to exactly 0

# the one (ATTN_BLOCK, ATTN_BLOCK) mask, built on first use, so building a
# model allocates none
_CAUSAL_MASK: np.ndarray | None = None


def causal_mask(n: int) -> np.ndarray:
    """Read-only (n, n) additive mask: 0 on and below the diagonal, ATTN_MASK_VALUE above.

    n is at most ATTN_BLOCK, the diagonal part of one query block; every
    result is a view of one shared mask.
    """
    global _CAUSAL_MASK
    if not 0 <= n <= ATTN_BLOCK:
        raise ValueError(f"causal_mask: n must be in [0, {ATTN_BLOCK}], got {n}")
    if _CAUSAL_MASK is None:
        _CAUSAL_MASK = np.triu(np.full((ATTN_BLOCK, ATTN_BLOCK), ATTN_MASK_VALUE), k=1)
        _CAUSAL_MASK.flags.writeable = False
    return _CAUSAL_MASK[:n, :n]


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(n, d) rows as (n_heads, n, d / n_heads): head i is columns [i·d/h, (i+1)·d/h).

    A view of a C-contiguous x, as every buffer written through it is; other
    layouts may come back as a copy, which is fine for reading.
    """
    return x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2)


class Segments:
    """Causal sequences packed as the rows of one (rows, d) matrix.

    Sequence 0 is rows [0, ends[0]). Every later sequence starts with the
    same `prefix` positions, held once as rows [0, prefix) of sequence 0,
    and goes on with its own rows [ends[j-1], ends[j]). Only the last
    queries[j] positions of sequence j query and give an output row; for a
    later sequence they lie in its own rows. queries=None: every row
    queries.

    This is packed ("varlen") attention with a shared prefix: row-wise ops
    run once over the packed rows, the prefix rows among them, and one
    attention node per layer serves every sequence. A table of one
    sequence only says how many last rows query: attention then reads q as
    the last t of the n positions k holds, which is also the KV-cache case.
    """

    __slots__ = ("ends", "prefix", "spans", "index")

    def __init__(self, ends: Sequence[int], prefix: int = 0,
                 queries: Sequence[int] | None = None):
        ends = tuple(int(e) for e in ends)
        own = [b - a for a, b in zip((0,) + ends, ends)]
        if not ends or min(own) < 1 or not 0 <= prefix <= ends[0] \
                or (queries is not None and len(queries) != len(ends)):
            raise ShapeError(f"segments need ends increasing from above 0, 0 <= prefix <= "
                             f"ends[0] and one query count per sequence, got ends={ends}, "
                             f"prefix={prefix}, queries={queries}")
        if queries is None:
            queries = own
        for j, (t, rows) in enumerate(zip(queries, own)):
            if not 0 < t <= rows:
                raise ShapeError(f"sequence {j}: last must be in [1, {rows}], got {t}")
        queries = [int(t) for t in queries]
        self.ends, self.prefix = ends, prefix
        # per sequence (q0, q1, shared, k0, k1): output rows [q0, q1) attend
        # over the keys [0, shared) followed by [k0, k1)
        spans, q0, k0 = [], 0, 0
        for j, (end, t) in enumerate(zip(ends, queries)):
            spans.append((q0, q0 + t, prefix if j else 0, k0, end))
            q0, k0 = q0 + t, end
        self.spans = tuple(spans)
        if queries == own:
            self.index = None
        elif len(ends) == 1:
            self.index = slice(-queries[0], None)
        else:
            self.index = np.concatenate([np.arange(end - t, end)
                                         for end, t in zip(ends, queries)])

    def positions(self) -> np.ndarray:
        """Each packed row's position in its own sequence: a later sequence's
        own rows go on from the shared prefix."""
        return np.concatenate([np.arange(self.ends[0])] + [
            np.arange(self.prefix, self.prefix + end - start)
            for start, end in zip(self.ends, self.ends[1:])])

    def select(self, x: Tensor) -> Tensor:
        """The rows of the packed x that query, in order."""
        return x if self.index is None else x[self.index]

    def every_row(self) -> "Segments | None":
        """The same packing with every row querying; None for one sequence,
        where every row querying is plain causal attention."""
        if len(self.ends) == 1:
            return None
        return self if self.index is None else Segments(self.ends, self.prefix)


def _keys(x: np.ndarray, shared: int, k0: int, k1: int) -> np.ndarray:
    """Rows [0, shared) then [k0, k1) of x: a view when shared is 0."""
    return np.concatenate((x[:shared], x[k0:k1])) if shared else x[k0:k1]


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, causal: bool,
              segments: Segments | None) -> Tensor:
    """softmax(q @ kᵀ / √d_head + mask) @ v for each head, as one tape node.

    q is (t, d) and holds the last t of the n positions whose keys and values
    k and v hold, (n, d) and (n, dv); t < n when the earlier ones come from a
    cache. Head i reads and writes columns [i·d/h, (i+1)·d/h) of q and k (and
    the same share of dv) through strided views, so heads are split and
    merged without a copy or a tape node; the output is (t, dv). With
    `causal`, query rows go in blocks of ATTN_BLOCK: block [r0, r1) scores
    only the keys [:n - t + r1] it can see and masks only its (b, b)
    diagonal part, so the masked upper triangle is never built,
    exponentiated or back-propagated. One row, or a bidirectional layer, is
    one block with no mask. The backward is analytic, block by block; a
    masked key gets exactly zero probability and zero gradient.

    With a Segments table of several sequences, k and v are the packed rows
    and q the rows the table's queries select; each sequence runs as above
    over its own keys, the shared prefix's first, and the prefix rows of dk
    and dv sum every sequence's share.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2 or kd.shape[1] != qd.shape[1] \
            or vd.shape[0] != kd.shape[0] or not 0 < qd.shape[0] <= kd.shape[0] \
            or n_heads < 1 or qd.shape[1] % n_heads or vd.shape[1] % n_heads:
        raise ShapeError(f"attention expects q (t, d), k (n, d), v (n, dv) with 0 < t <= n "
                         f"and d, dv divisible by n_heads={n_heads}, "
                         f"got {qd.shape}, {kd.shape}, {vd.shape}")
    t, n = qd.shape[0], kd.shape[0]
    scale = 1.0 / np.sqrt(qd.shape[1] // n_heads)
    if segments is None or len(segments.ends) == 1:
        spans = ((0, t, 0, 0, n),)
    else:
        spans = segments.spans
        if spans[-1][1] != t or segments.ends[-1] != n:
            raise ShapeError(f"attention: segments select {spans[-1][1]} query rows of "
                             f"{segments.ends[-1]}, got q {qd.shape} and k {kd.shape}")
    qh = _heads(qd, n_heads)
    out = np.empty((t, vd.shape[1]))
    out_h = _heads(out, n_heads)
    blocks = []  # per sequence: (q0, q1, shared, k0, k1, [(r0, r1, keys seen, probabilities)])
    for q0, q1, shared, k0, k1 in spans:
        kh = _heads(_keys(kd, shared, k0, k1), n_heads)
        vh = _heads(_keys(vd, shared, k0, k1), n_heads)
        offset = kh.shape[1] - (q1 - q0)
        masked = causal and q1 - q0 > 1
        step = ATTN_BLOCK if masked else q1 - q0
        seq = []
        for r0 in range(q0, q1, step):
            r1 = min(r0 + step, q1)
            m = offset + r1 - q0
            p = qh[:, r0:r1] @ _swap_last(kh[:, :m])
            p *= scale
            if masked:
                p[:, :, offset + r0 - q0:] += causal_mask(r1 - r0)
            _softmax_inplace(p)
            np.matmul(p, vh[:, :m], out=out_h[:, r0:r1])
            seq.append((r0, r1, m, p))
        blocks.append((q0, q1, shared, k0, k1, seq))

    def fn(g: np.ndarray, q, k, v) -> None:
        gh = _heads(g, n_heads)
        dq = np.empty(qd.shape) if q.requires_grad else None
        dk = np.empty(kd.shape) if k.requires_grad else None
        dv = np.empty(vd.shape) if v.requires_grad else None
        dqh = None if dq is None else _heads(dq, n_heads)
        for q0, q1, shared, k0, k1, seq in blocks:
            # gathered again, not held from the forward: the tape keeps no
            # per-sequence copy of the keys and values
            kh = _heads(_keys(kd, shared, k0, k1), n_heads)
            vh = _heads(_keys(vd, shared, k0, k1), n_heads)
            # a sequence's own key rows are its alone; with a shared prefix
            # it writes into buffers of its own and adds the prefix rows
            # into those sequence 0 wrote
            dks, dvs = (None if dx is None else
                        np.empty((kh.shape[1], dx.shape[1])) if shared else dx[k0:k1]
                        for dx in (dk, dv))
            dkh, dvh = (None if dx is None else _heads(dx, n_heads) for dx in (dks, dvs))
            # the last block sees every key, so walking backwards its write
            # fills dk and dv whole and every earlier block adds into them
            for r0, r1, m, p in reversed(seq):
                gb = gh[:, r0:r1]
                add = r1 < q1
                if dvh is not None:
                    _matmul_into(dvh[:, :m], _swap_last(p), gb, add)
                if dqh is None and dkh is None:
                    continue
                d = _softmax_grad(gb @ _swap_last(vh[:, :m]), p)
                d *= scale
                if dqh is not None:
                    np.matmul(d, kh[:, :m], out=dqh[:, r0:r1])
                if dkh is not None:
                    _matmul_into(dkh[:, :m], _swap_last(d), qh[:, r0:r1], add)
            if shared:
                for dx, dxs in ((dk, dks), (dv, dvs)):
                    if dx is not None:
                        dx[:shared] += dxs[:shared]
                        dx[k0:k1] = dxs[shared:]
        for x, dx in ((q, dq), (k, dk), (v, dv)):
            if dx is not None:
                _accumulate(x, dx, fresh=True)

    return _make(out, (q, k, v), fn)


def _matmul_into(dst: np.ndarray, a: np.ndarray, b: np.ndarray, add: bool) -> None:
    if add:
        dst += a @ b
    else:
        np.matmul(a, b, out=dst)


def _dense(xd: np.ndarray, wd: np.ndarray, b: Tensor | None) -> np.ndarray:
    """xd @ wdᵀ (+ b), a dense layer's output rows, in a new buffer."""
    out = xd @ wd.T
    if b is not None:
        out += b.data
    return out


def _dense_grads(x: Tensor | _Node | None, xd: np.ndarray | None, w: Tensor | _Node,
                 wd: np.ndarray, b: Tensor | _Node | None, g: np.ndarray) -> None:
    """Add the gradients of the dense layer _dense(xd, wd, b), whose output
    got g, into the places x, w and b: x's share first, then w's, then b's.
    x is None when the node computed the input rows xd itself, and b when
    the layer has no bias; xd is read only when w requires grad."""
    if x is not None and x.requires_grad:
        _accumulate(x, g @ wd, fresh=True)
    if w.requires_grad:
        _accumulate(w, (xd.T @ g).T)
    if b is not None and b.requires_grad:
        _accumulate(b, g.sum(axis=0))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ wᵀ (+ b) as one tape node; x is (n, d_in), w (d_out, d_in) and b (d_out,).

    The node keeps w's values, and x's only when w requires grad.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"linear expects x (n, d_in) and w (d_out, d_in), "
                         f"got {x.data.shape} and {w.data.shape}")
    wd = w.data
    out_data = _dense(x.data, wd, b)
    xd = x.data if w.requires_grad else None

    def fn(g: np.ndarray, x, w, *bias) -> None:
        _dense_grads(x, xd, w, wd, bias[0] if bias else None, g)

    return _make(out_data, (x, w) if b is None else (x, w, b), fn)


def lora_linear(x: Tensor, w: Tensor, b: Tensor, down: Tensor, up: Tensor) -> Tensor:
    """linear(x, w, b) + linear(linear(x, down), up) * LORA_SCALE as one tape node,
    bit for bit: a low-rank adapter's down (r, d_in) and up (d_out, r) on a
    linear layer's w (d_out, d_in) and b (d_out,).

    The node keeps x's values and the (n, r) rows x @ downᵀ, and adds into
    x's gradient the base layer's share first, then the adapter's, as the
    five nodes it replaces do.
    """
    r = down.data.shape[0]
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1] \
            or down.data.shape != (r, w.data.shape[1]) or up.data.shape != (w.data.shape[0], r):
        raise ShapeError(f"lora_linear expects x (n, d_in), w (d_out, d_in), down (r, d_in) "
                         f"and up (d_out, r), got {x.data.shape}, {w.data.shape}, "
                         f"{down.data.shape} and {up.data.shape}")
    xd, wd, downd, upd = x.data, w.data, down.data, up.data
    out_data = _dense(xd, wd, b)
    low = _dense(xd, downd, None)
    delta = _dense(low, upd, None)
    delta *= LORA_SCALE
    out_data += delta

    def fn(g: np.ndarray, x, w, b, down, up) -> None:
        _dense_grads(x, xd, w, wd, b, g)
        g_delta = g * LORA_SCALE
        _dense_grads(None, low, up, upd, None, g_delta)
        if x.requires_grad or down.requires_grad:
            _dense_grads(x, xd, down, downd, None, g_delta @ upd)

    return _make(out_data, (x, w, b, down, up), fn)


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
    out_data = (nll * mask).sum() / count

    def fn(g: np.ndarray, logits) -> None:
        if logits.requires_grad:
            d = e / sum_e
            d[np.arange(t_len), targets] -= 1.0
            d *= (mask / count)[:, None]
            _accumulate(logits, d * g, fresh=True)

    return _make(out_data, (logits,), fn)


# the closure of a node that backward has released; reaching one raises
_RELEASED = object()


def backward(loss: Tensor) -> None:
    """Populate grad for every requires_grad leaf reachable from `loss`, and
    release the graph as the walk goes.

    Once a node's closure has run, the node drops its gradient, closure and
    parents, so the arrays its closure kept are freed as soon as no unwalked
    node refers to them; leaves (parameters) keep their gradients. A second
    backward over a released graph raises. Leaf gradients accumulate
    additively across uses and across calls on fresh graphs; clearing is the
    caller's job (adam_step does it after each update).
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    root = loss if loss._node is None else loss._node
    order: list[Tensor | _Node] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
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

    _accumulate(root, np.ones(()))
    while order:
        node = order.pop()
        fn = node._backward_fn
        if fn is None:
            continue
        if fn is _RELEASED:
            raise RuntimeError("backward: this graph was already back-propagated and "
                               "released; record a fresh forward to back-propagate again")
        if node.grad is not None:
            fn(node.grad, *node._parents)
        node.grad = None
        node._parents = ()
        node._backward_fn = _RELEASED
