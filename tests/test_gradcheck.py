import os

import numpy as np
import pytest

from conftest import leaf, tape_sum
from tinymmt.model import lora_attach, lora_targets
from tinymmt.numerics import Tensor, grad_check_params, no_grad
from tinymmt.numerics.gradcheck import _rel_error
from tinymmt.numerics.tensor import _accumulate, _make


def test_quadratic_is_tight():
    rng = np.random.default_rng(0)
    x = leaf(rng.normal(size=(3, 4)))
    assert grad_check_params(lambda: tape_sum(x * x), [x]) < 1e-6


def test_constant_function_near_zero_error():
    x = leaf(np.ones((2, 2)))
    err = grad_check_params(lambda: leaf(np.float64(5.0)) * 1.0, [x])
    assert err < 1e-12


def test_zero_exact_gradient_at_loss_near_four_passes():
    # (t + 4) + t * -1 has an exact gradient of 0, and the tape gives exactly 0;
    # but f(x+h) and f(x-h) round differently, so at some points the central
    # difference is an ulp of the loss over 2h, far above the 1e-8 floor
    h = 1e-6
    f = lambda t: tape_sum((t + 4.0) + t * -1.0)
    numerics = []
    for x0 in np.linspace(0.1, 0.9, 9):
        f_plus, f_minus = float(f(Tensor([x0 + h])).data), float(f(Tensor([x0 - h])).data)
        numerics.append(abs(f_plus - f_minus) / (2 * h))
        x = leaf([x0])
        assert grad_check_params(lambda: f(x), [x], h=h) < 1e-3
    assert max(numerics) / 1e-8 > 1e-3  # the relative error alone would fail


def test_few_ulp_roundoff_at_zero_gradient_is_agreement():
    # a zero gradient whose central difference at loss 4.07, h=1e-4, is 1 to
    # 3 ulps of the loss over 2h: up to 1.3e-11, 1.3e-3 over the 1e-8 floor
    f_plus = 4.07
    for ulps in (1, 2, 3):
        f_minus = f_plus - ulps * float(np.spacing(f_plus))
        assert _rel_error(1e-20, f_plus, f_minus, 1e-4) == 0.0


def _square_with_grad_scaled(scale):
    """sum(x * x) whose backward is off by the factor `scale`."""

    def f(t):
        td = t.data

        def fn(g, t):
            _accumulate(t, g * 2.0 * td * scale)

        return tape_sum(_make(t.data * t.data, (t,), fn))

    return f


def test_one_percent_wrong_backward_fails():
    x = leaf([[1.0, -0.5], [1.5, -0.5]])
    assert 3.0 < float(_square_with_grad_scaled(1.0)(x).data) < 5.0
    assert grad_check_params(lambda: _square_with_grad_scaled(1.0)(x), [x]) < 1e-6
    assert grad_check_params(lambda: _square_with_grad_scaled(1.01)(x), [x]) > 1e-3


def test_full_model_loss_gradients(tiny_mm_setup):
    model, instances = tiny_mm_setup
    from tinymmt.datapipe import synth_image

    inst = instances[0]
    prompt = model.vocab.encode(inst.prompt)
    response = model.vocab.encode(inst.response)
    image = synth_image(inst.image_id, model.config.image_size)

    def loss_fn():
        assembled = model.assemble_sequence(prompt, model.visual_tokens(image), response)
        loss, _ = model.loss(assembled)
        return loss

    tensors = [model.params[name] for name in model.params.names()]
    err = grad_check_params(loss_fn, tensors, h=1e-4,
                            rng=np.random.default_rng(3), coords_per_tensor=2)
    assert err < 1e-3


def test_full_model_loss_gradients_mask_from_mid_sequence(tiny_mm_setup):
    # the loss computes logits from the <sys> row on; the rows before it,
    # the visual rows among them, reach the loss only through the last
    # block's keys and values
    model, instances = tiny_mm_setup
    from tinymmt.datapipe import synth_image

    inst = instances[0]
    prompt = model.vocab.encode(inst.prompt)
    response = model.vocab.encode(inst.response)
    with no_grad():
        projected = model.visual_tokens(synth_image(inst.image_id, model.config.image_size))
    visual = leaf(projected.data.copy())

    def visual_loss():
        loss, _ = model.loss(model.assemble_sequence(prompt, visual, response))
        return loss

    err = grad_check_params(visual_loss, [visual], h=1e-4,
                            rng=np.random.default_rng(5), coords_per_tensor=40)
    assert err < 1e-3


@pytest.mark.parametrize("mode", ["full", "lora"])
def test_shared_prefix_group_loss_gradients(tiny_text_setup, mode):
    # two text-only samples in one loss call: the template rows they share
    # run once, and their nodes take both samples' gradients
    model, instances = tiny_text_setup
    if mode == "lora":
        lora_attach(model)
        rng = np.random.default_rng(6)
        for target in lora_targets(model):
            b = model.params[f"lora.{target}.B"]
            b.data[...] = rng.normal(0.0, 0.05, size=b.shape)
    pair = [(model.vocab.encode(inst.prompt), model.vocab.encode(inst.response))
            for inst in instances[:2]]
    assert len(os.path.commonprefix([inst.prompt for inst in instances[:2]])) >= 88

    def loss_fn():
        loss, _ = model.loss(*(model.assemble_sequence(p, None, r) for p, r in pair))
        return loss

    tensors = [model.params[name] for name in sorted(model.params.trainable)]
    assert any(name.startswith("lora.") for name in model.params.trainable) == (mode == "lora")
    err = grad_check_params(loss_fn, tensors, h=1e-4,
                            rng=np.random.default_rng(7), coords_per_tensor=2)
    assert err < 1e-3
