import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinymmt.errors import ShapeError
from tinymmt.model.components import causal_mask
from tinymmt.numerics import (
    Tensor,
    attention_probs,
    backward,
    concat,
    cross_entropy_masked,
    embedding,
    gelu,
    grad_check,
    layer_norm,
    masked_softmax,
    matmul,
    no_grad,
    reshape,
    softmax,
    transpose,
    tsum,
)


class TestMatmul:
    def test_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal((a @ b).data, [[17.0], [39.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)))
        eye = Tensor(np.eye(4))
        assert np.allclose((a @ eye).data, a.data)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(1)
        z = Tensor(np.zeros((2, 3)))
        b = Tensor(rng.normal(size=(3, 5)))
        assert np.array_equal((z @ b).data, np.zeros((2, 5)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 5))))

    def test_backward_formulas(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = tsum(a @ b)
        backward(out)
        g = np.ones((2, 4))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_large_inputs_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax(Tensor([0.0, np.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 7)))
        out = softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, values, const):
        x = np.array(values)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + const)).data
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
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        backward(tsum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_2x(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(tsum(x * x))
        assert np.allclose(x.grad, 2 * x.data)

    def test_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x + x  # dy/dx = 2
        backward(tsum(y))
        assert np.allclose(x.grad, [2.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(x * x)

    def test_no_grad_blocks_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = tsum(x * x)
        assert not y.requires_grad
        assert y._parents == ()


class TestMiscOps:
    def test_getitem_backward(self):
        x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        backward(tsum(x[1:]))
        expected = np.zeros((3, 4))
        expected[1:] = 1.0
        assert np.array_equal(x.grad, expected)

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        out = concat([a, 2.0 * b], axis=0)
        backward(tsum(out))
        assert np.array_equal(a.grad, np.ones((2, 3)))
        assert np.array_equal(b.grad, 2 * np.ones((4, 3)))

    def test_embedding_scatter_adds(self):
        table = Tensor(np.zeros((5, 2)), requires_grad=True)
        backward(tsum(embedding(table, [1, 1, 3])))
        expected = np.zeros((5, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(table.grad, expected)

    def test_embedding_range_check(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.zeros((3, 2))), [0, 5])

    def test_transpose_reshape_roundtrip(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = reshape(transpose(x, (2, 0, 1)), (4, 6))
        backward(tsum(out * out))
        assert x.grad.shape == (2, 3, 4)


def _squared_sum(y: Tensor) -> Tensor:
    return tsum(y * y)


GRAD_CASES = {
    "matmul": lambda x: tsum(matmul(x, transpose(x))),
    "mul": lambda x: tsum(x * x * 0.5),
    "add_broadcast": lambda x: tsum(x + Tensor(np.ones(x.shape[-1]), requires_grad=False)),
    "gelu": lambda x: tsum(gelu(x)),
    "softmax": lambda x: tsum(softmax(x, axis=-1) * Tensor(np.arange(x.shape[-1]) + 0.5)),
    "masked_softmax": lambda x: tsum(
        masked_softmax(x, 0.7) * Tensor(np.arange(x.shape[-1]) + 0.5)
    ),
    "attention_probs": lambda x: tsum(
        attention_probs(x, x * 0.5, 0.7) * Tensor(np.arange(x.shape[0]) + 0.5)
    ),
    "attention_probs_causal": lambda x: tsum(
        attention_probs(x, x * 0.5, 0.7, causal_mask(x.shape[0], x.dtype))
        * Tensor(np.arange(x.shape[0]) + 0.5)
    ),
    "masked_softmax_causal": lambda x: tsum(
        masked_softmax(x, 0.7, causal_mask(x.shape[-1], x.dtype)[: x.shape[0]])
        * Tensor(np.arange(x.shape[-1]) + 0.5)
    ),
    "layer_norm": lambda x: _squared_sum(
        layer_norm(x, Tensor(np.full(x.shape[-1], 1.3)), Tensor(np.full(x.shape[-1], -0.2)))
    ),
    "getitem": lambda x: tsum(x[1:] * x[1:]),
    "cross_entropy": lambda x: cross_entropy_masked(
        x, np.arange(x.shape[0]) % x.shape[1], np.ones(x.shape[0], dtype=bool)
    ),
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_grad_check_per_op_ten_seeds(name):
    fn = GRAD_CASES[name]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 5)))
        assert grad_check(fn, x, h=1e-4) < 1e-3


class TestMaskedSoftmax:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_scale_mask_softmax_chain(self, dtype):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 6, 6)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6, 6)).astype(dtype))
        mask = causal_mask(8, dtype)[:6, :6]
        chain = softmax(x * 0.25 + Tensor(mask), axis=-1)
        backward(tsum(chain * w))
        chain_grad, x.grad = x.grad, None
        fused = masked_softmax(x, 0.25, mask)
        backward(tsum(fused * w))
        assert fused.data.dtype == dtype and x.grad.dtype == dtype
        assert np.array_equal(fused.data, chain.data)
        assert np.array_equal(x.grad, chain_grad)

    def test_masked_entries_get_zero_probability_and_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 5, 5)), requires_grad=True)
        out = masked_softmax(x, 1.0, causal_mask(5, np.float64))
        backward(tsum(out * Tensor(rng.normal(size=(2, 5, 5)))))
        upper = np.triu(np.ones((5, 5), dtype=bool), k=1)
        assert np.all(out.data[:, upper] == 0.0)
        assert np.all(x.grad[:, upper] == 0.0)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_causal_mask_is_read_only(self):
        mask = causal_mask(4, np.float64)
        with pytest.raises(ValueError):
            mask[0, 1] = 0.0


class TestAttentionProbs:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("masked", [True, False])
    def test_bitwise_equal_to_matmul_masked_softmax_chain(self, dtype, masked):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(2, 7, 4)).astype(dtype), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 7, 4)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 7, 7)).astype(dtype))
        mask = causal_mask(9, dtype)[:7, :7] if masked else None
        chain = masked_softmax(matmul(q, transpose(k, (0, 2, 1))), 0.5, mask)
        backward(tsum(chain * w))
        chain_grads, q.grad, k.grad = (q.grad, k.grad), None, None
        fused = attention_probs(q, k, 0.5, mask)
        backward(tsum(fused * w))
        assert fused.data.dtype == dtype
        assert np.array_equal(fused.data, chain.data)
        assert np.array_equal(q.grad, chain_grads[0]) and np.array_equal(k.grad, chain_grads[1])


def test_forward_backward_values_stay_finite():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    out = softmax(gelu(matmul(x, transpose(x))), axis=-1)
    loss = tsum(out * out)
    backward(loss)
    assert np.all(np.isfinite(out.data))
    assert np.all(np.isfinite(x.grad))
