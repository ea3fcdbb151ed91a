import numpy as np
import pytest

from tinymmt.datapipe import synth_image
from tinymmt.errors import BudgetError, ConfigError, ShapeError
from tinymmt.model import (
    Assembled, ModelConfig, MultimodalModel, Vocabulary, lora_attach, lora_merge, lora_targets,
)
from tinymmt.model.components import DecoderLM
from tinymmt.model.vocab import BOS, EOS, HUM, IMG, SYS
from tinymmt.numerics import no_grad
import tinymmt.numerics.tensor as tensor_module
from tinymmt.numerics.tensor import ATTN_BLOCK, backward, cross_entropy_masked

from conftest import build_model, make_instances, make_records


def small_model(seed=0, c_total=256):
    vocab = Vocabulary.from_texts(["hello world abc xyz"])
    return MultimodalModel(ModelConfig(vocab_size=len(vocab), c_total=c_total), vocab, seed=seed)


def _of_dtype(model, dtype):
    """The model, after checking that every parameter, adapters included, holds dtype."""
    assert {t.data.dtype for _, t in model.params.items()} == {np.dtype(dtype)}
    return model


# float64 is the one model dtype; the parameter is the dtype these tests check
MODEL_DTYPE = pytest.mark.parametrize("dtype", ["float64"])
MODEL_DTYPE_TOL = pytest.mark.parametrize("dtype, tol", [("float64", 1e-12)])


class TestConfig:
    def test_visual_budget_is_derived(self):
        cfg = ModelConfig(vocab_size=10, image_size=12, patch_size=4)
        assert cfg.c_vis == 9

    def test_production_scale_shapes(self):
        # 336px images with 14px patches fill 576 of 4096 context slots
        cfg = ModelConfig(vocab_size=50000, image_size=336, patch_size=14,
                          c_total=4096, d_vis=64, d_model=64)
        assert cfg.c_vis == 576
        assert cfg.c_total == 4096

    def test_patch_must_divide_image(self):
        with pytest.raises(ConfigError, match="divide"):
            ModelConfig(vocab_size=10, image_size=12, patch_size=5)

    def test_visual_budget_below_context(self):
        with pytest.raises(ConfigError, match="c_total"):
            ModelConfig(vocab_size=10, image_size=64, patch_size=4, c_total=256)

    def test_heads_divide_width(self):
        with pytest.raises(ConfigError, match="n_heads"):
            ModelConfig(vocab_size=10, d_model=62, n_heads=4)


class TestVisionEncoder:
    def test_row_count_matches_patch_grid(self):
        model = small_model()
        out = model.encode_image(synth_image("a", 12))
        assert out.shape == (9, model.config.d_vis)

    def test_identical_images_bit_identical(self):
        model = small_model()
        img = synth_image("b", 12)
        a = model.encode_image(img.copy())
        b = model.encode_image(img.copy())
        assert np.array_equal(a.data, b.data)

    def test_wrong_dimensions_rejected(self):
        model = small_model()
        with pytest.raises(ShapeError, match="image"):
            model.encode_image(np.zeros((8, 8)))

    def test_patchify_order_is_row_major(self):
        model = small_model()
        img = np.arange(144, dtype=float).reshape(12, 12)
        patches = model.vision.patchify(img)
        assert patches.shape == (9, 16)
        assert patches[0, 0] == img[0, 0]
        assert patches[1, 0] == img[0, 4]  # second patch starts 4 columns over
        assert patches[3, 0] == img[4, 0]  # fourth patch starts 4 rows down


class TestAdapter:
    def test_mlp2_output_shape(self):
        model = small_model()
        assert [n for n in model.params.names() if n.startswith("adapter.")] == [
            "adapter.fc1.bias", "adapter.fc1.weight", "adapter.fc2.bias", "adapter.fc2.weight"]
        out = model.project(model.encode_image(synth_image("d", 12)))
        assert out.shape == (9, 64)

    def test_width_mismatch_rejected(self):
        from tinymmt.numerics import Tensor

        model = small_model()
        with pytest.raises(ShapeError):
            model.project(Tensor(np.zeros((9, 33))))


class TestAssemble:
    def test_layout_with_image(self):
        model = small_model()
        prompt = model.vocab.encode("hello")
        resp = model.vocab.encode("world")
        vis = model.visual_tokens(synth_image("e", 12))
        asm = model.assemble_sequence(prompt, vis, resp)
        c_vis = model.config.c_vis
        assert len(asm.ids) == 1 + c_vis + 1 + 5 + 1 + 5 + 1
        assert asm.ids[0] == BOS
        assert (asm.ids[1:1 + c_vis] == IMG).all()
        assert asm.ids[1 + c_vis] == HUM
        assert asm.ids[1 + c_vis + 1 + 5] == SYS
        assert asm.ids[-1] == EOS
        assert asm.visual is vis

    def test_layout_without_image(self):
        model = small_model()
        prompt = model.vocab.encode("hello")
        resp = model.vocab.encode("world")
        with_img = model.assemble_sequence(prompt, model.visual_tokens(synth_image("f", 12)), resp)
        without = model.assemble_sequence(prompt, None, resp)
        assert len(with_img.ids) - len(without.ids) == model.config.c_vis
        assert IMG not in without.ids

    def test_loss_mask_covers_response_plus_eos(self):
        model = small_model()
        resp = model.vocab.encode("world")
        asm = model.assemble_sequence(model.vocab.encode("hello"), None, resp)
        with no_grad():
            loss, count = model.loss(asm)
            logits = model.forward(asm).data
        assert count == len(resp) + 1
        # the rows from <sys> on predict the response and the closing <eos>
        rows = logits[-(len(resp) + 2):-1]
        log_z = np.log(np.exp(rows - rows.max(axis=1, keepdims=True)).sum(axis=1)) \
            + rows.max(axis=1)
        nll = log_z - rows[np.arange(len(resp) + 1), np.append(resp, EOS)]
        assert float(loss.data) == pytest.approx(nll.mean(), rel=1e-12)

    def test_prompt_only_has_no_mask_and_no_eos(self):
        model = small_model()
        asm = model.assemble_sequence(model.vocab.encode("hello"))
        assert asm.ids[-1] == SYS
        with pytest.raises(ValueError, match="no positions"):
            model.loss(asm)

    def test_overflow_is_an_error_not_a_truncation(self):
        model = small_model(c_total=32)
        long_prompt = model.vocab.encode("hello world abc" * 3)
        with pytest.raises(BudgetError, match="c_total"):
            model.assemble_sequence(long_prompt, None, model.vocab.encode("x"))


class TestForward:
    def test_causality_bitwise(self):
        model = small_model()
        prompt = model.vocab.encode("hello")
        vis = model.visual_tokens(synth_image("g", 12))
        a = model.forward(model.assemble_sequence(prompt, vis, model.vocab.encode("world")))
        b = model.forward(model.assemble_sequence(prompt, vis, model.vocab.encode("worlz")))
        t_first_diff = len(a.data) - 2  # sequences differ at the last response char
        assert np.array_equal(a.data[:t_first_diff], b.data[:t_first_diff])

    def test_causality_bitwise_past_two_blocks(self):
        model = small_model()
        prompt = model.vocab.encode("hello world " * 12)
        vis = model.visual_tokens(synth_image("g", 12))
        a = model.forward(model.assemble_sequence(prompt, vis, model.vocab.encode("world")))
        b = model.forward(model.assemble_sequence(prompt, vis, model.vocab.encode("worlz")))
        t_first_diff = len(a.data) - 2
        assert t_first_diff > 2 * ATTN_BLOCK
        assert np.array_equal(a.data[:t_first_diff], b.data[:t_first_diff])
        assert not np.array_equal(a.data[t_first_diff:], b.data[t_first_diff:])

    def test_long_forward_keeps_masks_to_one_block(self):
        model = small_model(c_total=512)
        prompt = model.vocab.encode("abc xyz " * 60)
        asm = model.assemble_sequence(prompt, model.visual_tokens(synth_image("m", 12)),
                                      model.vocab.encode("hello"))
        assert len(asm.ids) > 490
        model.forward(asm)
        assert tensor_module._CAUSAL_MASK.shape == (ATTN_BLOCK, ATTN_BLOCK)

    def test_forward_and_loss_record_a_fixed_number_of_tape_ops(self):
        # per block: 2 layer norms, 4 attention projections, 1 attention
        # (heads split and merged inside it), 1 gelu_mlp node (fc1, GELU and
        # fc2), 2 residual adds; the last block
        # adds 2 row slices (the query rows and the residual rows); around
        # the LM: the token embedding, position embedding and its add,
        # ln_f, the tied head and the cross-entropy (the last row's logits
        # stay in it under a masked target, so no logits slice)
        def recorded_ops(loss):
            seen, stack, ops = {id(loss)}, [loss], 0
            while stack:
                node = stack.pop()
                ops += node._backward_fn is not None
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return ops

        model = small_model()
        cfg = model.config
        prompt, response = model.vocab.encode("hello"), model.vocab.encode("world")
        text_only = recorded_ops(model.loss(model.assemble_sequence(prompt, None, response))[0])
        assert text_only == 8 + 10 * cfg.n_layers_lm
        # the token rows around the visual rows: one more embedding and a
        # concat; vision: patch projection, position add, its blocks and
        # ln_f; mlp2 adapter: 3
        vis = model.visual_tokens(synth_image("n", 12))
        grounded = recorded_ops(model.loss(model.assemble_sequence(prompt, vis, response))[0])
        assert grounded == text_only + 2 + 3 + 10 * cfg.n_layers_vis + 3

    def test_shape_and_determinism(self):
        model = small_model()
        asm = model.assemble_sequence(model.vocab.encode("abc"), None, model.vocab.encode("x"))
        la = model.forward(asm)
        lb = model.forward(model.assemble_sequence(
            model.vocab.encode("abc"), None, model.vocab.encode("x")))
        assert la.shape == (len(asm.ids), len(model.vocab))
        assert np.array_equal(la.data, lb.data)


class TestGenerate:
    def test_zero_budget_returns_empty(self):
        model = small_model()
        out = model.generate(model.vocab.encode("hello"), None, max_new_tokens=0)
        assert out.size == 0

    def test_budget_overflow_rejected(self):
        model = small_model(c_total=32)
        with pytest.raises(BudgetError, match="max_new_tokens"):
            model.generate(model.vocab.encode("hello world"), None, max_new_tokens=30)

    def test_deterministic(self):
        model = small_model()
        img = synth_image("h", 12)
        a = model.generate(model.vocab.encode("hello"), img, max_new_tokens=10)
        b = model.generate(model.vocab.encode("hello"), img, max_new_tokens=10)
        assert np.array_equal(a, b)

    def test_argmax_shift_invariance(self):
        # greedy decoding only consults the argmax, which a constant shift
        # of the logits cannot move
        model = small_model()
        asm = model.assemble_sequence(model.vocab.encode("hello"))
        logits = model.forward(asm).data
        shifted = logits + 123.456
        assert np.array_equal(np.argmax(logits, axis=-1), np.argmax(shifted, axis=-1))

    def test_visual_budget_reserved_only_with_image(self):
        model = small_model()
        prompt = model.vocab.encode("abc")
        with_img = model._assemble(prompt, model.visual_tokens(synth_image("i", 12)),
                                   None, append_eos=False)
        without = model._assemble(prompt, None, None, append_eos=False)
        assert (with_img.ids == IMG).sum() == model.config.c_vis
        assert (without.ids == IMG).sum() == 0


def test_clone_is_deep_and_equal():
    records = make_records(3, seed=5)
    instances = make_instances(records, "text_only")
    model = build_model(instances, seed=4, c_total=256)
    twin = model.clone()
    for name in model.params.names():
        assert np.array_equal(model.params[name].data, twin.params[name].data)
    twin.params["llm.tok_emb"].data += 1.0
    assert not np.array_equal(model.params["llm.tok_emb"].data,
                              twin.params["llm.tok_emb"].data)


# ----------------------------------------------------------------------
# cached decoding

def _teacher_forced_argmax(model, prompt, image, ids):
    """Argmax at every generated position of one forward over prompt + ids."""
    with no_grad():
        visual = model.visual_tokens(image) if image is not None else None
        n_prefix = len(model._assemble(prompt, visual, None, append_eos=False).ids)
        full = model._assemble(prompt, visual, ids, append_eos=False)
        return model.forward(full).data[n_prefix - 1:].argmax(axis=1)


def _decoding_model(dtype, lora):
    """A small model whose greedy outputs stop at <eos> for some prompts and
    at a 20-token budget for others; lora is "none", "attached" with a
    non-zero B, or "merged". Every parameter holds dtype."""
    model = small_model(seed=3)
    if lora != "none":
        lora_attach(model)
        rng = np.random.default_rng(5)
        for target in lora_targets(model):
            b = model.params[f"lora.{target}.B"]
            b.data[...] = rng.normal(0.0, 0.05, size=b.shape)
        if lora == "merged":
            lora_merge(model)
    model.params["llm.tok_emb"].data[EOS] *= 1.5
    return _of_dtype(model, dtype)


class TestCachedDecoding:
    @MODEL_DTYPE
    @pytest.mark.parametrize("lora", ["none", "attached", "merged"])
    @pytest.mark.parametrize("with_image", [False, True], ids=["text", "image"])
    def test_greedy_equals_teacher_forced_argmax(self, dtype, lora, with_image):
        model = _decoding_model(dtype, lora)
        image = synth_image("oracle", 12) if with_image else None
        for text in ("hello", "abc xyz", "world hello abc"):
            prompt = model.vocab.encode(text)
            ids = model.generate(prompt, image, max_new_tokens=20)
            predicted = _teacher_forced_argmax(model, prompt, image, ids)
            assert np.array_equal(predicted[:len(ids)], ids)
            if len(ids) < 20:
                assert predicted[len(ids)] == EOS

    @MODEL_DTYPE
    def test_prefill_logits_equal_forward(self, dtype):
        model = _of_dtype(small_model(), dtype)
        prefix = model.assemble_sequence(model.vocab.encode("hello abc"),
                                         model.visual_tokens(synth_image("p", 12)))
        with no_grad():
            cache = model.llm.new_cache(len(prefix.ids) + 4)
            cached = model.forward(prefix, cache).data
            assert np.array_equal(cached, model.forward(prefix).data)
        assert all(layer.filled == len(prefix.ids) for layer in cache)

    @pytest.mark.parametrize("split", [10, 11, 13])
    def test_chunked_feed_matches_one_forward(self, split):
        # rows fed after the first chunk stay causal among themselves; the
        # first chunk holds <bos> and the c_vis = 9 image slots
        model = small_model()
        full = model.assemble_sequence(model.vocab.encode("hello abc"),
                                       model.visual_tokens(synth_image("c", 12)),
                                       model.vocab.encode("xyz"))
        with no_grad():
            expected = model.forward(full).data
            cache = model.llm.new_cache(len(full.ids))
            parts = [model.forward(Assembled(full.ids[rows], full.visual), cache).data
                     for rows in (slice(0, split), slice(split, None))]
        np.testing.assert_allclose(np.concatenate(parts), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("split", [1, 5, 9])
    def test_feeding_from_inside_the_image_slots_is_rejected(self, split):
        # a chunk that stops short of the last image slot, or one that starts
        # inside them after a text-only first chunk
        model = small_model()
        full = model.assemble_sequence(model.vocab.encode("hello abc"),
                                       model.visual_tokens(synth_image("c", 12)))
        with no_grad():
            with pytest.raises(ShapeError, match="image slots"):
                model.forward(Assembled(full.ids[:split], full.visual))
            cache = model.llm.new_cache(len(full.ids))
            model.forward(Assembled(full.ids[:split], None), cache)
            with pytest.raises(ShapeError, match="image slots"):
                model.forward(Assembled(full.ids[split:], full.visual), cache)

    @MODEL_DTYPE_TOL
    def test_a_generated_img_id_is_a_token_row(self, dtype, tol):
        # the <img> slots are positions 1..c_vis; an <img> id an untrained
        # model emits after the prompt embeds as its token row, fed whole or
        # step by step
        model = _of_dtype(small_model(), dtype)
        prompt = model.vocab.encode("hello")
        ids = np.array([IMG, model.vocab.encode("a")[0], IMG, IMG])
        with no_grad():
            visual = model.visual_tokens(synth_image("i", 12))
            prefix = model._assemble(prompt, visual, None, append_eos=False)
            n = len(prefix.ids)
            whole = model.forward(model._assemble(prompt, visual, ids, append_eos=False)).data
            cache = model.llm.new_cache(n + len(ids))
            steps = [model.forward(prefix, cache, last=1).data]
            steps += [model.forward(Assembled(ids[i:i + 1], None), cache).data
                      for i in range(len(ids))]
        np.testing.assert_allclose(np.concatenate(steps), whole[n - 1:], rtol=0, atol=tol)

    def test_zero_budget_runs_no_forward(self, monkeypatch):
        model = small_model()
        calls = []
        monkeypatch.setattr(DecoderLM, "forward_embedded",
                            lambda self, *args, **kw: calls.append(args))
        assert model.generate(model.vocab.encode("hello"), synth_image("z", 12), 0).size == 0
        assert calls == []

    def test_budget_is_checked_before_the_image_is_encoded(self, monkeypatch):
        model = small_model(c_total=32)
        encoded = []
        monkeypatch.setattr(MultimodalModel, "encode_image",
                            lambda self, image: encoded.append(image))
        image = synth_image("z", 12)
        prompt = model.vocab.encode("hello")
        room = model.context_room(prompt, has_image=True)
        assert model.generate(prompt, image, 0).size == 0
        with pytest.raises(BudgetError, match="max_new_tokens"):
            model.generate(prompt, image, room + 1)
        # a prompt that alone overflows fails its budget check, even a zero one
        long_prompt = model.vocab.encode("hello world abc xyz" * 2)
        assert model.context_room(long_prompt, has_image=True) < 0
        for budget in (0, 1):
            with pytest.raises(BudgetError, match="max_new_tokens"):
                model.generate(long_prompt, image, budget)
        assert encoded == []

    def test_budget_that_exactly_fills_context(self):
        model = small_model(c_total=32)
        prompt = model.vocab.encode("hello world")
        room = 32 - (3 + len(prompt))
        assert model.context_room(prompt, has_image=False) == room
        ids = model.generate(prompt, None, max_new_tokens=room)
        assert len(ids) <= room
        with pytest.raises(BudgetError, match="max_new_tokens"):
            model.generate(prompt, None, max_new_tokens=room + 1)

    @pytest.mark.parametrize("with_image", [False, True], ids=["text", "image"])
    def test_each_new_token_feeds_one_position(self, monkeypatch, with_image):
        model = _decoding_model("float64", "none")
        forward_embedded = DecoderLM.forward_embedded
        fed = []

        def counting(self, embeds, positions, cache=None, last=None):
            fed.append(len(positions))
            return forward_embedded(self, embeds, positions, cache, last)

        monkeypatch.setattr(DecoderLM, "forward_embedded", counting)
        image = synth_image("w", 12) if with_image else None
        for text, budget in (("hello", 20), ("abc xyz", 20), ("world hello abc", 6)):
            prompt = model.vocab.encode(text)
            fed.clear()
            ids = model.generate(prompt, image, max_new_tokens=budget)
            n_prefix = 3 + len(prompt) + (model.config.c_vis if with_image else 0)
            steps = len(ids) + (len(ids) < budget)  # argmaxes taken, <eos> included
            assert fed == [n_prefix] + [1] * (steps - 1)
            assert sum(fed) == n_prefix + steps - 1


# ----------------------------------------------------------------------
# logits of the last rows only

def _grounded(model, with_image=True, response="xyz abc"):
    image = model.visual_tokens(synth_image("rows", 12)) if with_image else None
    return model.assemble_sequence(model.vocab.encode("hello world abc"), image,
                                   model.vocab.encode(response))


def _full_rows_loss(model, asm):
    """Reference: logits for every row, cross-entropy over the targets after <sys>."""
    t = len(asm.ids)
    scored = np.arange(1, t) > np.flatnonzero(asm.ids == SYS)[0]
    return cross_entropy_masked(model.forward(asm)[: t - 1], asm.ids[1:], scored)


def _loss_and_grads(model, loss_fn, response):
    names = model.params.names()
    model.params.set_trainable(frozenset(names))
    for name in names:
        model.params[name].grad = None
    # a fresh graph: backward accumulates into its nodes
    asm = _grounded(model, response=response)
    loss = loss_fn(model, asm)
    backward(loss)
    return float(loss.data), {n: model.params[n].grad for n in names}


class TestLastRows:
    @MODEL_DTYPE_TOL
    @pytest.mark.parametrize("lora", ["none", "attached", "merged"])
    @pytest.mark.parametrize("with_image", [False, True], ids=["text", "image"])
    def test_forward_equals_the_last_rows_of_a_full_forward(self, dtype, tol, lora,
                                                            with_image):
        model = _decoding_model(dtype, lora)
        asm = _grounded(model, with_image)
        t = len(asm.ids)
        with no_grad():
            full = model.forward(asm).data
            for k in (1, 2, t - 1, t):
                rows = model.forward(asm, last=k).data
                assert rows.shape == (k, len(model.vocab))
                np.testing.assert_allclose(rows, full[-k:], rtol=0, atol=tol)

    @pytest.mark.parametrize("last", [0, -1, 10_000])
    def test_last_out_of_range_rejected(self, last):
        model = small_model()
        with pytest.raises(ShapeError, match="last"):
            model.forward(_grounded(model), last=last)

    @pytest.mark.parametrize("response", ["xyz abc", ""], ids=["response", "eos_only"])
    def test_loss_and_gradients_equal_the_full_rows_reference(self, response):
        model = small_model(seed=4)
        loss, grads = _loss_and_grads(model, lambda m, a: m.loss(a)[0], response)
        ref_loss, ref_grads = _loss_and_grads(model, _full_rows_loss, response)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        assert grads.keys() == ref_grads.keys()
        largest = max(np.abs(g).max() for g in ref_grads.values())
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12 * largest,
                                       err_msg=name)

    def test_empty_mask_still_raises(self):
        # a response without its closing <eos> scores nothing
        model = small_model()
        asm = model._assemble(model.vocab.encode("hello"), None, model.vocab.encode("abc"),
                              append_eos=False)
        with pytest.raises(ValueError, match="no positions"):
            model.loss(asm)

    @MODEL_DTYPE_TOL
    def test_one_row_prefill_equals_the_last_row_and_caches_every_row(self, dtype, tol):
        model = _decoding_model(dtype, "attached")
        prefix = model.assemble_sequence(model.vocab.encode("hello abc"),
                                         model.visual_tokens(synth_image("p", 12)))
        n = len(prefix.ids)
        with no_grad():
            full_cache = model.llm.new_cache(n)
            full = model.forward(prefix, full_cache).data
            cache = model.llm.new_cache(n + 4)
            row = model.forward(prefix, cache, last=1).data
        assert row.shape == (1, len(model.vocab))
        np.testing.assert_allclose(row, full[-1:], rtol=0, atol=tol)
        for layer, ref in zip(cache, full_cache):
            assert layer.filled == n
            assert np.array_equal(layer.k[:n], ref.k) and np.array_equal(layer.v[:n], ref.v)

    def test_generate_computes_one_row_of_logits_per_step(self, monkeypatch):
        model = _decoding_model("float64", "none")
        forward = MultimodalModel.forward
        rows = []

        def counting(self, asm, cache=None, last=None):
            logits = forward(self, asm, cache, last)
            rows.append(logits.shape[0])
            return logits

        monkeypatch.setattr(MultimodalModel, "forward", counting)
        ids = model.generate(model.vocab.encode("hello"), synth_image("g", 12),
                             max_new_tokens=5)
        assert rows == [1] * (len(ids) + (len(ids) < 5))


def test_building_a_model_allocates_no_causal_mask(monkeypatch):
    monkeypatch.setattr(tensor_module, "_CAUSAL_MASK", None)
    small_model(c_total=4096)
    assert tensor_module._CAUSAL_MASK is None
