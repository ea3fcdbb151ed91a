import operator
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leaf, tape_sum
from tinymmt.errors import ShapeError
from tinymmt.numerics import (
    Tensor,
    attention,
    backward,
    concat,
    cross_entropy_masked,
    embedding,
    gelu,
    gelu_mlp,
    grad_check_params,
    layer_norm,
    linear,
    lora_linear,
    no_grad,
)
from tinymmt.numerics.tensor import ATTN_BLOCK, Segments, causal_mask

# the dtype a test draws its input arrays in: a Tensor stores either as
# float64, so each op's result and gradients are float64 and equal the
# float64 reference on the stored values bit for bit
INPUT_DTYPES = [np.float64, np.float32]


class TestMatmul:
    """The matrix product, which only `linear` (x @ wᵀ) computes."""

    def test_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor([[5.0, 6.0]])
        assert np.array_equal(linear(a, w).data, [[17.0], [39.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        eye = Tensor(np.eye(4))
        assert np.allclose(linear(a, eye).data, a.data)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(1)
        z = Tensor(np.zeros((2, 3)))
        w = Tensor(rng.normal(size=(5, 3)))
        assert np.array_equal(linear(z, w).data, np.zeros((2, 5)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(5, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 2))))

    def test_backward_formulas(self):
        rng = np.random.default_rng(2)
        a = leaf(rng.normal(size=(2, 3)))
        w = leaf(rng.normal(size=(4, 3)))
        backward(tape_sum(linear(a, w)))
        g = np.ones((2, 4))
        assert np.allclose(a.grad, g @ w.data)
        assert np.allclose(w.grad, g.T @ a.data)


def softmax(scores) -> np.ndarray:
    """The probabilities attention puts on keys scored `scores` (last axis),
    read out exactly by one head per row of scores, each with dh = 1 and v = I."""
    s = np.asarray(scores, dtype=float).reshape(-1, np.shape(scores)[-1])
    rows, n = s.shape
    out = attention(Tensor(np.ones((1, rows))), Tensor(s.T), Tensor(np.tile(np.eye(n), rows)),
                    rows, False, None)
    return out.data.reshape(np.shape(scores))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax([0.0, 0.0])
        assert np.allclose(out, [0.5, 0.5])

    def test_large_inputs_no_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax([0.0, np.log(3.0)])
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(rng.normal(size=(5, 7)))
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, values, const):
        x = np.array(values)
        a = softmax(x)
        b = softmax(x + const)
        assert np.allclose(a, b, atol=1e-9)
        assert abs(a.sum() - 1.0) < 1e-9


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy_masked(logits, [0, 1, 3], [True, True, True])
        assert abs(float(loss.data) - np.log(4.0)) < 1e-12

    def test_confident_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e4
        loss = cross_entropy_masked(Tensor(logits), [2], [True])
        assert float(loss.data) < 1e-9

    def test_masked_position_ignored(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 6))
        a = cross_entropy_masked(Tensor(logits), [1, 2, 3, 4], [True, False, True, True])
        b = cross_entropy_masked(Tensor(logits), [1, 5, 3, 4], [True, False, True, True])
        assert float(a.data) == float(b.data)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            cross_entropy_masked(Tensor(np.zeros((2, 3))), [0, 1], [False, False])

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_masked(Tensor(np.zeros((2, 3))), [0, 3], [True, True])


class TestBackward:
    def test_sum_gives_ones(self):
        x = leaf(np.arange(6, dtype=float).reshape(2, 3))
        backward(tape_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_2x(self):
        x = leaf([1.0, -2.0, 3.0])
        backward(tape_sum(x * x))
        assert np.allclose(x.grad, 2 * x.data)

    def test_accumulates_across_uses(self):
        x = leaf([2.0])
        y = x + x  # dy/dx = 2
        backward(tape_sum(y))
        assert np.allclose(x.grad, [2.0])

    def test_non_scalar_rejected(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ShapeError, match="scalar"):
            backward(x * x)

    def test_no_grad_blocks_tape(self):
        x = leaf([1.0, 2.0])
        with no_grad():
            y = tape_sum(x * x)
        assert not y.requires_grad
        assert y._parents == ()

    def test_backward_releases_the_graph_and_keeps_leaf_gradients(self):
        x = leaf([1.0, -2.0, 3.0])
        w = leaf([0.5, 0.25, 2.0])
        y = x * w
        sq = gelu(y) * y
        loss = tape_sum(sq)
        backward(loss)
        for node in (y, sq, loss):
            assert node._parents == () and node.grad is None
            assert not callable(node._backward_fn)
        assert sq.data.shape == (3,)  # an output stays readable
        gx, gw = x.grad.copy(), w.grad.copy()
        assert np.all(gx != 0) and np.all(gw != 0)
        # a second walk over the released graph, or over a new graph that
        # reaches it, raises instead of adding nothing
        for again in (loss, tape_sum(sq * 2.0)):
            with pytest.raises(RuntimeError, match="released"):
                backward(again)
        assert x.grad.tobytes() == gx.tobytes() and w.grad.tobytes() == gw.tobytes()

    def test_the_tape_keeps_no_value_its_backward_does_not_read(self):
        # a residual block: add's backward reads neither operand, layer
        # norm's reads its own normalized rows, linear's reads its input
        rng = np.random.default_rng(5)
        x0, w0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        gamma, beta = leaf(np.ones(3)), Tensor(np.zeros(3))

        def block(x, w):
            a = x * 2.0
            s = a + linear(a, w)
            return a, s, tape_sum(layer_norm(s, gamma, beta))

        kept = [leaf(x0), leaf(w0)]
        loss = block(*kept)[2]
        backward(loss)
        expected = [t.grad for t in kept + [gamma]]
        gamma.grad = None

        x, w = leaf(x0), leaf(w0)
        a, s, loss = block(x, w)
        read, unread = weakref.ref(a.data), weakref.ref(s.data)
        del a, s
        assert loss._parents  # the graph is alive
        assert unread() is None and read() is not None
        backward(loss)
        for t, g in zip((x, w, gamma), expected):
            assert t.grad.tobytes() == g.tobytes()

    def test_leaf_gradients_accumulate_across_fresh_graphs(self):
        x = leaf([1.5, -0.5])
        backward(tape_sum(x * x))
        backward(tape_sum(x * 3.0))
        assert np.array_equal(x.grad, 2 * x.data + 3.0)


class TestAddMulOperands:
    """add and mul take two Tensors of one shape, or a Tensor and a scalar constant."""

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    @pytest.mark.parametrize("shapes", [((4, 5), (5,)), ((4, 5), (4, 1)), ((3,), ())],
                             ids=["row", "column", "0-d"])
    def test_tensors_of_different_shapes_rejected(self, op, shapes):
        a, b = (leaf(np.ones(shape)) for shape in shapes)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ShapeError, match="one shape"):
                op(x, y)

    def test_an_array_constant_rejected(self):
        with pytest.raises(ShapeError, match="scalar constant"):
            Tensor(np.ones((3, 4))) * np.ones((3, 4))

    @pytest.mark.parametrize("dtype", INPUT_DTYPES)
    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    @pytest.mark.parametrize("c", [2.5, -1.0, 3], ids=["float", "minus-one", "int"])
    def test_scalar_constant_on_either_side(self, op, dtype, c):
        xd = np.random.default_rng(17).normal(size=(3, 4)).astype(dtype)
        x = leaf(xd)
        left, right = op(c, x), op(x, c)
        want = op(xd.astype(np.float64), float(c))
        for out in (left, right):
            assert out.data.dtype == np.float64 and out.data.tobytes() == want.tobytes()
        backward(tape_sum(left + right))
        assert x.grad.dtype == np.float64
        assert np.array_equal(x.grad, np.full(xd.shape, 2.0 if op is operator.add else 2.0 * c))


class TestMiscOps:
    def test_getitem_backward(self):
        x = leaf(np.arange(12, dtype=float).reshape(3, 4))
        backward(tape_sum(x[1:]))
        expected = np.zeros((3, 4))
        expected[1:] = 1.0
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("idx", [slice(None, 5), 3, (slice(1, 4), 2), (2, slice(None))],
                             ids=["slice", "int", "slice-int", "int-slice"])
    def test_getitem_basic_index_bitwise_equal_to_add_at(self, idx):
        rng = np.random.default_rng(12)
        x = leaf(rng.normal(size=(6, 4)))
        w = rng.normal(size=x.data[idx].shape)
        backward(tape_sum(x[idx] * Tensor(w)))
        expected = np.zeros_like(x.data)
        np.add.at(expected, idx, w)
        assert x.grad.tobytes() == expected.tobytes()

    def test_getitem_duplicated_fancy_index_accumulates(self):
        x = leaf(np.zeros((3, 2)))
        backward(tape_sum(x[[0, 0, 2]]))
        assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_concat_backward_splits(self):
        a = leaf(np.ones((2, 3)))
        b = leaf(np.ones((4, 3)))
        out = concat([a, 2.0 * b])
        backward(tape_sum(out))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, 2 * np.ones((4, 3)))

    def test_embedding_scatter_adds(self):
        table = leaf(np.zeros((5, 2)))
        backward(tape_sum(embedding(table, [1, 1, 3])))
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(table.grad, expected)

    def test_embedding_range_check(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.zeros((3, 2))), [0, 5])

    @pytest.mark.parametrize("ids", [[3, 0, 2], [0, 1, 2, 3, 4], [1, 1, 3], [4, 0, 4, 4]],
                             ids=["unique", "positions", "repeated", "repeated-unsorted"])
    def test_embedding_backward_bitwise_equal_to_add_at(self, ids):
        # unique ids add rows in place, repeated ones scatter-add; both match
        # np.add.at bit for bit, also onto a gradient already accumulated
        rng = np.random.default_rng(13)
        table = leaf(rng.normal(size=(5, 3)))
        w = rng.normal(size=(len(ids), 3))
        table.grad = rng.normal(size=(5, 3))
        expected = table.grad.copy()
        backward(tape_sum(embedding(table, ids) * Tensor(w)))
        np.add.at(expected, ids, w)
        assert table.grad.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scatter_by_runs_bitwise_equal_to_add_at(self, data):
        # ids as strictly increasing runs, each contiguous (position ids) or
        # gapped, with repeats across runs; few long runs go in place run by
        # run, many short ones through np.add.at, onto a gradient already
        # accumulated, and both must match np.add.at bit for bit
        n = 12
        ids = []
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                lo = data.draw(st.integers(0, n - 1))
                ids += range(lo, data.draw(st.integers(lo + 1, n)))
            else:
                ids += sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = leaf(rng.normal(size=(n, 3)))
        w = rng.normal(size=(len(ids), 3))
        table.grad = rng.normal(size=(n, 3))
        expected = table.grad.copy()
        backward(tape_sum(embedding(table, ids) * Tensor(w)))
        np.add.at(expected, ids, w)
        assert table.grad.tobytes() == expected.tobytes()


def _squared_sum(y: Tensor) -> Tensor:
    return tape_sum(y * y)


def _attention_case(causal):
    def fn(x):
        out = attention(x, x * 0.5, x * -0.8, 1, causal, None)
        return tape_sum(out * Tensor(np.arange(out.data.size).reshape(out.shape) * 0.1 + 0.5))
    return fn


# weights that do not train, for the fused ops' frozen rows
_FROZEN = np.random.default_rng(99).normal(size=(4, 5))


GRAD_CASES = {
    "matmul": lambda x: tape_sum(linear(x, x)),
    "mul": lambda x: tape_sum(x * x * 0.5),
    "add": lambda x: _squared_sum(x + gelu(x)),
    "add_scalar": lambda x: _squared_sum(x + 0.3),
    "gelu": lambda x: tape_sum(gelu(x)),
    "attention": _attention_case(causal=False),
    "attention_causal": _attention_case(causal=True),
    "linear": lambda x: _squared_sum(linear(x, x[:3] * 0.5, x[0, :3])),
    "layer_norm": lambda x: _squared_sum(
        layer_norm(x, Tensor(np.full(x.shape[-1], 1.3)), Tensor(np.full(x.shape[-1], -0.2)))
    ),
    "getitem": lambda x: tape_sum(x[1:] * x[1:]),
    "embedding_unique": lambda x: _squared_sum(embedding(x, [3, 0, 2])),
    "embedding_repeated": lambda x: _squared_sum(embedding(x, [1, 3, 1, 1])),
    # a packed group's position ids: sequence 0's rows, then the rows after
    # the shared prefix of 2, as two strictly increasing runs
    "embedding_packed_positions": lambda x: _squared_sum(
        embedding(concat([x, x * 0.5]), Segments((8, 14), 2).positions())),
    "cross_entropy": lambda x: cross_entropy_masked(
        x, np.arange(x.shape[0]) % x.shape[1], np.ones(x.shape[0], dtype=bool)
    ),
    # base weight (3, 5), bias (3,), down (2, 5) and up (3, 2)
    "lora_linear": lambda x: _squared_sum(
        lora_linear(x, x[:3] * 0.5, x[0, :3], x[1:3] * 0.3, x[:3, :2] * -0.4)),
    "lora_linear_frozen_base": lambda x: _squared_sum(
        lora_linear(x, Tensor(_FROZEN[:3]), Tensor(_FROZEN[3, :3]), x[1:3] * 0.3,
                    x[:3, :2] * -0.4)),
    # hidden width 4: w1 (4, 5), b1 (4,), w2 (3, 4) and b2 (3,)
    "gelu_mlp": lambda x: _squared_sum(
        gelu_mlp(x, x * 0.5, x[:, 0] * 0.5, x[:3, :4] * -0.3, x[3, :3])),
    "gelu_mlp_frozen": lambda x: _squared_sum(
        gelu_mlp(x, Tensor(_FROZEN), Tensor(_FROZEN[:, 0]), Tensor(_FROZEN[:3, :4]),
                 Tensor(_FROZEN[3, :3]))),
    "gelu_mlp_frozen_fc2": lambda x: _squared_sum(
        gelu_mlp(x, x * 0.5, x[:, 0] * 0.5, Tensor(_FROZEN[:3, :4]), Tensor(_FROZEN[3, :3]))),
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_grad_check_per_op_ten_seeds(name):
    fn = GRAD_CASES[name]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = leaf(rng.normal(size=(4, 5)))
        assert grad_check_params(lambda: fn(x), [x]) < 1e-3


def _qkv(rng, h, t, n, dh, dtype=np.float64, dv=None):
    """q (t, h·dh), k (n, h·dh) and v (n, h·dv): h heads side by side in the columns."""
    return (leaf(rng.normal(size=(t, h * dh)).astype(dtype)),
            leaf(rng.normal(size=(n, h * dh)).astype(dtype)),
            leaf(rng.normal(size=(n, h * (dv or dh))).astype(dtype)))


def _split(a, h):
    """(n, h·dh) -> a contiguous (h, n, dh) copy, head i from columns [i·dh, (i+1)·dh)."""
    return np.ascontiguousarray(np.stack(np.split(a, h, axis=-1)))


def _merge(a):
    """(h, n, dh) -> (n, h·dh), the inverse of _split."""
    return np.concatenate(list(a), axis=-1)


def _dense_attention(q, k, v, h, causal, g):
    """Reference: each head's (t, n) scores scaled by 1/√d_head, a full causal
    mask, softmax, @ v; and its analytic backward for the output gradient g.
    Returns (out, dq, dk, dv), each in the (rows, h·d) layout of its input."""
    scale = 1.0 / np.sqrt(q.shape[1] // h)
    q, k, v, g = (_split(a, h) for a in (q, k, v, g))
    t, n = q.shape[1], k.shape[1]
    s = q @ np.swapaxes(k, -1, -2) * scale
    if causal:
        s = s + np.where(np.arange(n)[None, :] > np.arange(n - t, n)[:, None], -1e30, 0.0)
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = g @ np.swapaxes(v, -1, -2)
    ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p * scale
    return tuple(_merge(a) for a in (p @ v, ds @ k, np.swapaxes(ds, -1, -2) @ q,
                                      np.swapaxes(p, -1, -2) @ g))


def _attention_grads(q, k, v, h, causal, g):
    for x in (q, k, v):
        x.grad = None
    out = attention(q, k, v, h, causal, None)
    backward(tape_sum(out * Tensor(g)))
    return out.data, q.grad, k.grad, v.grad


def _eye_values(n, h, dtype=np.float64):
    """v = I for each of h heads: the output is then the probabilities."""
    return np.tile(np.eye(n, dtype=dtype), h)


class TestMaskedSoftmax:
    @pytest.mark.parametrize("dtype", INPUT_DTYPES)
    def test_bitwise_equal_to_scale_mask_softmax_chain(self, dtype):
        # one block (t <= ATTN_BLOCK) is exactly q·kᵀ, scale, mask, softmax, @ v
        # per head, on contiguous per-head copies
        rng = np.random.default_rng(4)
        q, k, v = _qkv(rng, 3, 6, 6, 4, dtype)
        g = rng.normal(size=(6, 12))
        got = _attention_grads(q, k, v, 3, True, g)
        scale = 1.0 / np.sqrt(4)  # 1/√d_head
        qh, kh, vh, gh = (_split(a, 3) for a in (q.data, k.data, v.data, g))
        p = qh @ np.swapaxes(kh, -1, -2)
        p *= scale
        p += causal_mask(6)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ds = gh @ np.swapaxes(vh, -1, -2)
        ds = ds - (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        chain = (p @ vh, ds @ kh, np.swapaxes(ds, -1, -2) @ qh, np.swapaxes(p, -1, -2) @ gh)
        for a, b in zip(got, chain):
            assert a.dtype == np.float64
            assert np.array_equal(a, _merge(b))

    def test_masked_entries_get_zero_probability_and_gradient(self):
        rng = np.random.default_rng(5)
        n, row = 150, 70  # three blocks; the row sits in the second
        q, k, _ = _qkv(rng, 2, n, n, 3)
        v = leaf(_eye_values(n, 2))
        out = attention(q, k, v, 2, True, None)
        probs = _split(out.data, 2)
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        assert np.all(probs[:, upper] == 0.0)
        assert np.allclose(probs.sum(axis=-1), 1.0)
        backward(tape_sum(out[row] * Tensor(rng.normal(size=2 * n))))
        assert np.all(k.grad[row + 1:] == 0.0) and np.all(v.grad[row + 1:] == 0.0)
        assert np.all(k.grad[:row + 1] != 0.0)

    def test_causal_mask_is_read_only(self):
        mask = causal_mask(4)
        with pytest.raises(ValueError):
            mask[0, 1] = 0.0


class TestAttentionProbs:
    @pytest.mark.parametrize("dtype", INPUT_DTYPES)
    @pytest.mark.parametrize("masked", [True, False])
    def test_bitwise_equal_to_matmul_masked_softmax_chain(self, dtype, masked):
        # with v = I the output is the probabilities and their gradient is g
        rng = np.random.default_rng(6)
        q, k, _ = _qkv(rng, 2, 7, 7, 4, dtype)
        v = Tensor(_eye_values(7, 2, dtype))
        g = rng.normal(size=(7, 14))
        probs, dq, dk, _ = _attention_grads(q, k, v, 2, masked, g)
        scale = 1.0 / np.sqrt(4)  # 1/√d_head
        qh, kh, gh = _split(q.data, 2), _split(k.data, 2), _split(g, 2)
        p = qh @ np.swapaxes(kh, -1, -2)
        p *= scale
        if masked:
            p += causal_mask(7)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        d = gh - (gh * p).sum(axis=-1, keepdims=True)
        d *= p
        d *= scale
        assert probs.dtype == np.float64
        assert np.array_equal(probs, _merge(p))
        assert np.array_equal(dq, _merge(d @ kh))
        assert np.array_equal(dk, _merge(np.swapaxes(d, -1, -2) @ qh))


class TestAttention:
    @pytest.mark.parametrize("t, n, causal", [
        (150, 150, True),   # three blocks, the last partial
        (20, 150, True),    # a cached prefix: keys before the offset get gradient
        (1, 40, True),      # one decode row
        (30, 30, False),    # bidirectional
    ], ids=["three-blocks", "offset", "one-row", "bidirectional"])
    def test_grad_check(self, t, n, causal):
        for h in (1, 2, 4):
            rng = np.random.default_rng(7 + h)
            q, k, v = _qkv(rng, h, t, n, 3)
            w = Tensor(rng.normal(size=(t, 3 * h)))
            loss = lambda: tape_sum(attention(q, k, v, h, causal, None) * w)  # noqa: E731
            assert grad_check_params(loss, [q, k, v], rng=np.random.default_rng(0),
                                     coords_per_tensor=60) < 1e-6
            assert np.all(k.grad[: n - t + 1] != 0.0)

    @pytest.mark.parametrize("t", [1, 63, 64, 65, 130, 347])
    @pytest.mark.parametrize("offset", [0, 9])
    def test_matches_dense_reference(self, t, offset):
        rng = np.random.default_rng(t + offset)
        q, k, v = _qkv(rng, 4, t, t + offset, 16)
        g = rng.normal(size=(t, 64))
        got = _attention_grads(q, k, v, 4, True, g)
        want = _dense_attention(q.data, k.data, v.data, 4, True, g)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_bidirectional_matches_dense_reference(self):
        rng = np.random.default_rng(8)
        q, k, v = _qkv(rng, 2, 130, 130, 8, dv=5)
        g = rng.normal(size=(130, 10))
        got = _attention_grads(q, k, v, 2, False, g)
        want = _dense_attention(q.data, k.data, v.data, 2, False, g)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) < 1e-13

    @pytest.mark.parametrize("causal", [True, False])
    def test_heads_are_column_blocks(self, causal):
        # h heads in one node give, column block by column block, exactly what
        # h one-head calls on contiguous column copies give, forward and backward
        rng = np.random.default_rng(14)
        h, dh, t = 4, 6, 70
        q, k, v = _qkv(rng, h, t, t, dh)
        g = rng.normal(size=(t, h * dh))
        got = _attention_grads(q, k, v, h, causal, g)
        cols = [slice(i * dh, (i + 1) * dh) for i in range(h)]
        parts = [_attention_grads(*(leaf(np.ascontiguousarray(x.data[:, c]))
                                    for x in (q, k, v)), 1, causal,
                                  np.ascontiguousarray(g[:, c])) for c in cols]
        for i, a in enumerate(got):
            assert a.shape == (t, h * dh)
            assert np.array_equal(a, np.concatenate([p[i] for p in parts], axis=1))

    def test_shapes_checked(self):
        rng = np.random.default_rng(9)
        q, k, v = _qkv(rng, 2, 5, 4, 3)
        with pytest.raises(ShapeError, match="attention"):
            attention(q, k, v, 2, True, None)
        q, k, v = _qkv(rng, 2, 4, 4, 3)
        with pytest.raises(ShapeError, match="n_heads=4"):
            attention(q, k, v, 4, True, None)

    def test_one_sequence_table_is_plain_attention(self):
        rng = np.random.default_rng(16)
        q, k, v = _qkv(rng, 2, 20, 90, 4)  # a cached prefix of 70 positions
        g = rng.normal(size=(20, 8))
        want = _attention_grads(q, k, v, 2, True, g)
        for x in (q, k, v):
            x.grad = None
        out = attention(q, k, v, 2, True, Segments((20,), queries=(20,)))
        backward(tape_sum(out * Tensor(g)))
        for a, b in zip((out.data, q.grad, k.grad, v.grad), want):
            assert np.array_equal(a, b)

    def test_causal_mask_only_covers_one_block(self):
        assert causal_mask(ATTN_BLOCK).shape == (ATTN_BLOCK, ATTN_BLOCK)
        with pytest.raises(ValueError, match="causal_mask"):
            causal_mask(ATTN_BLOCK + 1)


class TestLinear:
    @pytest.mark.parametrize("dtype", INPUT_DTYPES)
    @pytest.mark.parametrize("bias", [True, False])
    def test_bitwise_equal_to_matmul_transpose_add(self, dtype, bias):
        rng = np.random.default_rng(10)
        x = leaf(rng.normal(size=(9, 6)).astype(dtype))
        w = leaf(rng.normal(size=(5, 6)).astype(dtype))
        b = leaf(rng.normal(size=5).astype(dtype)) if bias else None
        g = rng.normal(size=(9, 5))
        fused = linear(x, w, b)
        backward(tape_sum(fused * Tensor(g)))
        # numpy reference: x @ wᵀ + b; dx = g @ w, dw = (xᵀ @ g)ᵀ, db = Σ rows of g
        want = x.data @ np.swapaxes(w.data, -1, -2)
        if bias:
            want = want + b.data
        assert fused.data.dtype == np.float64
        assert np.array_equal(fused.data, want)
        grads = [(x, g @ w.data), (w, np.swapaxes(np.swapaxes(x.data, -1, -2) @ g, -1, -2))]
        if bias:
            grads.append((b, g.sum(axis=0)))
        for p, want in grads:
            assert p.grad.dtype == np.float64 and np.array_equal(p.grad, want)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_rows_must_be_a_matrix(self):
        with pytest.raises(ShapeError, match=r"x \(n, d_in\).*\(2, 3, 4\)"):
            linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 4))))


_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_reference(x, g):
    """GELU forward and input gradient, out of place: the products gelu must match bit for bit."""
    inner = x * x * x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    t = np.tanh(inner, out=inner)
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    return 0.5 * x * (1.0 + t), g * local


def _layer_norm_reference(x, gamma, beta, g, eps=1e-5):
    """layer_norm forward and gradients (x, gamma, beta) with np.mean, out of place."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gamma
    term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (gamma * xhat + beta, inv * term,
            (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


class TestGradientHandOver:
    """A node hands its freshly built gradient to its input instead of copying
    it, so a tensor that feeds two slots must still receive the sum of both."""

    def test_one_tensor_as_query_and_key(self):
        rng = np.random.default_rng(11)
        xd, vd = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        x, v = leaf(xd), leaf(vd)
        backward(tape_sum(attention(x, x, v, 2, True, None)))
        q, k = leaf(xd), leaf(xd)
        v2 = leaf(vd)
        backward(tape_sum(attention(q, k, v2, 2, True, None)))
        assert np.array_equal(x.grad, q.grad + k.grad)
        assert np.array_equal(v.grad, v2.grad)

    def test_one_tensor_into_two_gelu_nodes(self):
        rng = np.random.default_rng(12)
        xd = rng.normal(size=(3, 6))
        x = leaf(xd)
        backward(tape_sum(gelu(x) + gelu(x) * 3.0))
        a, b = leaf(xd), leaf(xd)
        backward(tape_sum(gelu(a) + gelu(b) * 3.0))
        assert np.array_equal(x.grad, a.grad + b.grad)


class TestGeluLayerNormBitwise:
    @pytest.mark.parametrize("dtype", INPUT_DTYPES)
    @pytest.mark.parametrize("shape", [(347, 256), (1, 256), (9, 48)])
    def test_gelu_bitwise_equal_to_reference(self, shape, dtype):
        rng = np.random.default_rng(15)
        x = leaf((rng.normal(size=shape) * 3).astype(dtype))
        g = rng.normal(size=shape)
        out = gelu(x)
        backward(tape_sum(out * Tensor(g)))
        want_out, want_dx = _gelu_reference(x.data, g)
        assert out.data.dtype == np.float64 and x.grad.dtype == np.float64
        assert out.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("dtype", INPUT_DTYPES)
    @pytest.mark.parametrize("d", [33, 48, 64, 96, 256])
    def test_layer_norm_bitwise_equal_to_reference(self, d, dtype):
        rng = np.random.default_rng(d)
        x = leaf((rng.normal(size=(37, d)) * 2 + 0.5).astype(dtype))
        gamma = leaf(rng.normal(size=d).astype(dtype))
        beta = leaf(rng.normal(size=d).astype(dtype))
        g = rng.normal(size=(37, d))
        out = layer_norm(x, gamma, beta)
        backward(tape_sum(out * Tensor(g)))
        want = _layer_norm_reference(x.data, gamma.data, beta.data, g)
        got = (out.data, x.grad, gamma.grad, beta.grad)
        for a, b in zip(got, want):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


def _lora_chain(x, w, b, down, up):
    """The five nodes lora_linear replaces: base linear, two thin linears, mul
    by LoRA's scale alpha / r = 16 / 4, and add."""
    return linear(x, w, b) + linear(linear(x, down), up) * 4.0


def _mlp_chain(x, w1, b1, w2, b2):
    """The three nodes gelu_mlp replaces."""
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def _leaves(rng, shapes, trains):
    return [(leaf if t else Tensor)(rng.normal(size=s)) for s, t in zip(shapes, trains)]


def _fused_and_chain(build, ops, seed, shapes, trains, g_shape):
    """build(op, leaves) -> output, run with each of ops (the fused op, then
    its chain) on equal leaves; returns (output, gradients) for each, the
    gradients in leaf order (None where a leaf does not train)."""
    runs = []
    for op in ops:
        rng = np.random.default_rng(seed)
        leaves = _leaves(rng, shapes, trains)
        g = rng.normal(size=g_shape)
        out = build(op, leaves)
        if out.requires_grad:
            backward(tape_sum(out * Tensor(g)))
        runs.append((out.data, [p.grad for p in leaves]))
    return runs


def _assert_bitwise(runs):
    (out_a, grads_a), (out_b, grads_b) = runs
    assert out_a.tobytes() == out_b.tobytes()
    for a, b in zip(grads_a, grads_b):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


class TestLoraLinear:
    """lora_linear is bit for bit the five-node chain, forward and backward."""

    D, R, N = 16, 4, 23

    # x, then per projection (w, b, down, up); the base weights train or not
    @pytest.mark.parametrize("base_trains", [True, False])
    @pytest.mark.parametrize("x_trains", [True, False])
    def test_three_projections_of_one_x_match_the_chain(self, base_trains, x_trains):
        d, r = self.D, self.R
        per = [(d, d), (d,), (r, d), (d, r)]
        shapes = [(self.N, d)] + per * 3
        trains = [x_trains] + [base_trains, base_trains, True, True] * 3

        def build(op, leaves):
            x, rest = leaves[0], leaves[1:]
            q, k, v = (op(x, *rest[i:i + 4]) for i in (0, 4, 8))
            return attention(q, k, v, 2, True, None)

        _assert_bitwise(_fused_and_chain(build, (lora_linear, _lora_chain), 31, shapes, trains, (self.N, d)))

    def test_no_grad_forward_matches_the_chain(self):
        rng = np.random.default_rng(32)
        leaves = _leaves(rng, [(5, 8), (6, 8), (6,), (2, 8), (6, 2)], [True] * 5)
        with no_grad():
            fused, chain = lora_linear(*leaves), _lora_chain(*leaves)
        assert not fused.requires_grad and fused.data.tobytes() == chain.data.tobytes()

    def test_shapes_checked(self):
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"up \(d_out, r\).*\(4, 3\), \(2, 3\) and \(3, 2\)"):
            lora_linear(z, Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)), z,
                        Tensor(np.zeros((3, 2))))


class TestGeluMlp:
    """gelu_mlp is bit for bit linear(gelu(linear(·))), forward and backward."""

    D, H, N = 12, 48, 37

    @pytest.mark.parametrize("trains", [
        (True, True, True, True, True),
        (True, False, False, False, False),
        (True, True, True, False, False),
        (False, False, False, True, True),
        (False, True, True, False, True),
    ], ids=["all", "x-only", "fc2-frozen", "fc2-only", "fc1-and-b2"])
    def test_matches_the_chain(self, trains):
        d, h, n = self.D, self.H, self.N
        shapes = [(n, d), (h, d), (h,), (d, h), (d,)]

        def build(op, leaves):
            # scaled so GELU sees both tails and its bend
            return op(leaves[0] * 3.0, *leaves[1:])

        _assert_bitwise(_fused_and_chain(build, (gelu_mlp, _mlp_chain), 33, shapes, trains, (n, d)))

    def test_no_grad_forward_matches_the_chain(self):
        rng = np.random.default_rng(34)
        leaves = _leaves(rng, [(5, 8), (32, 8), (32,), (8, 32), (8,)], [True] * 5)
        with no_grad():
            fused, chain = gelu_mlp(*leaves), _mlp_chain(*leaves)
        assert not fused.requires_grad and fused.data.tobytes() == chain.data.tobytes()

    def test_shapes_checked(self):
        with pytest.raises(ShapeError, match=r"w2 \(d_out, h\).*\(6, 4\) and \(4, 5\)"):
            gelu_mlp(Tensor(np.zeros((2, 4))), Tensor(np.zeros((6, 4))), Tensor(np.zeros(6)),
                     Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


def test_forward_backward_values_stay_finite():
    rng = np.random.default_rng(11)
    x = leaf(rng.normal(size=(6, 8)))
    scores = gelu(linear(x, x))
    # q scaled by 30·√3, so the logits are 30 times q·kᵀ at d_head = 3
    out = attention(scores * (30.0 * 3 ** 0.5), scores, scores, 2, True, None)
    loss = tape_sum(out * out)
    backward(loss)
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(x.grad))


# ----------------------------------------------------------------------
# packed sequences sharing a prefix

# sequence 0 is rows [0, 100); sequences 1 and 2 share its first 30 rows and
# own rows [100, 150) and [150, 160); the last-block case queries only the
# last rows of each
PACKED = dict(ends=(100, 150, 160), prefix=30)
LAST_ROWS = (7, 50, 1)


def _per_sequence_grads(q, k, v, table, h, g):
    """Each sequence alone through one-sequence attention on copied rows, its
    gradients added back into packed (rows, d) buffers."""
    out = np.empty((q.shape[0], v.shape[1]))
    dq, dk, dv = np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
    for q0, q1, shared, k0, k1 in table.spans:
        rows = np.r_[0:shared, k0:k1]
        parts = [leaf(x.data[r].copy())
                 for x, r in ((q, slice(q0, q1)), (k, rows), (v, rows))]
        o, gq, gk, gv = _attention_grads(*parts, h, True, g[q0:q1])
        out[q0:q1] = o
        dq[q0:q1] += gq
        dk[rows] += gk
        dv[rows] += gv
    return out, dq, dk, dv


class TestPackedAttention:
    @pytest.mark.parametrize("queries", [None, LAST_ROWS], ids=["every-row", "last-rows"])
    def test_grad_check(self, queries):
        table = Segments(**PACKED, queries=queries)
        rng = np.random.default_rng(21)
        t = table.spans[-1][1]
        q, k, v = _qkv(rng, 2, t, 160, 3)
        w = Tensor(rng.normal(size=(t, 6)))
        loss = lambda: tape_sum(attention(q, k, v, 2, True, table) * w)  # noqa: E731
        assert grad_check_params(loss, [q, k, v], rng=np.random.default_rng(1),
                                 coords_per_tensor=80) < 1e-6
        assert np.all(k.grad[:30] != 0.0)  # every sequence reads the prefix keys

    @pytest.mark.parametrize("queries", [None, LAST_ROWS], ids=["every-row", "last-rows"])
    def test_matches_each_sequence_alone(self, queries):
        table = Segments(**PACKED, queries=queries)
        rng = np.random.default_rng(22)
        t = table.spans[-1][1]
        q, k, v = _qkv(rng, 4, t, 160, 4)
        g = rng.normal(size=(t, 16))
        want = _per_sequence_grads(q, k, v, table, 4, g)
        for x in (q, k, v):
            x.grad = None
        out = attention(q, k, v, 4, True, table)
        backward(tape_sum(out * Tensor(g)))
        got = (out.data, q.grad, k.grad, v.grad)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) < 1e-13

    def test_select_picks_the_query_rows(self):
        x = leaf(np.arange(160.0)[:, None])
        picked = Segments(**PACKED, queries=LAST_ROWS).select(x)
        rows = np.r_[93:100, 100:150, 159:160]
        assert np.array_equal(picked.data[:, 0], rows)
        backward(tape_sum(picked))
        assert np.array_equal(np.flatnonzero(x.grad[:, 0]), rows)
        assert Segments(**PACKED).select(x) is x
        assert Segments(**PACKED).every_row() is not None
        assert Segments((9,), queries=(3,)).every_row() is None

    @pytest.mark.parametrize("ends, prefix, queries, match", [
        ((), 0, None, "segments"),
        ((10, 10), 2, None, "segments"),
        ((10, 20), 11, None, "segments"),
        ((10, 20), 2, (1,), "segments"),
        ((10, 20), 2, (0, 3), "sequence 0: last"),
        ((10, 20), 2, (3, 11), "sequence 1: last"),
    ])
    def test_bad_tables_rejected(self, ends, prefix, queries, match):
        with pytest.raises(ShapeError, match=match):
            Segments(ends, prefix, queries)

    def test_rows_must_match_the_table(self):
        rng = np.random.default_rng(23)
        q, k, v = _qkv(rng, 2, 150, 150, 3)
        with pytest.raises(ShapeError, match="segments"):
            attention(q, k, v, 2, True, Segments(**PACKED))
