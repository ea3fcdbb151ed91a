"""A batch's shared prompt prefix runs once per group of samples.

Oracles: the pooled loss and every trainable gradient of the grouped path
(`_group_terms`, which groups by image and calls `MultimodalModel.loss` once
per group) against forwarding each sample alone over every row.
"""

import dataclasses
import os

import numpy as np
import pytest

from tinymmt.errors import DataError
from tinymmt.model import MultimodalModel, lora_attach, lora_targets
from tinymmt.model.components import DecoderLM
from tinymmt.model.config import ModelConfig
from tinymmt.model.vocab import SYS
from tinymmt.numerics import backward, cross_entropy_masked, no_grad
from tinymmt.training import StageConfig, run_stage
from tinymmt.training.loop import _group_terms, _pooled_loss, _prepare_samples, _scored_count

from conftest import build_model, make_instances, make_records


def _reference_loss(model, samples):
    """Each sample projected, assembled and forwarded alone, logits on every
    row, each scoring the targets after its <sys>, the per-sample losses
    pooled by their counts."""
    weighted, total = None, 0
    for s in samples:
        visual = model.project(s.image) if s.image is not None else None
        asm = model.assemble_sequence(s.prompt_ids, visual, s.response_ids)
        t = len(asm.ids)
        scored = np.arange(1, t) > np.flatnonzero(asm.ids == SYS)[0]
        ce = cross_entropy_masked(model.forward(asm)[: t - 1], asm.ids[1:], scored)
        count = int(scored.sum())
        term = ce * float(count)
        weighted = term if weighted is None else weighted + term
        total += count
    return weighted * (1.0 / total)


def _grouped_loss(model, samples):
    terms = list(_group_terms(model, samples))
    return sum(terms[1:], terms[0]) * (1.0 / _scored_count(samples))


def _loss_and_grads(model, samples, loss_fn):
    for name in model.params.names():
        model.params[name].grad = None
    loss = loss_fn(model, samples)
    backward(loss)
    grads = {}
    for name in sorted(model.params.trainable):
        grad = model.params[name].grad
        grads[name] = np.zeros_like(model.params[name].data) if grad is None else grad.copy()
    return float(loss.data), grads


def assert_matches_per_sample(model, instances, tol):
    """Pooled loss within tol relative; each gradient entry within tol times
    the largest reference entry (a per-tensor relative error is meaningless
    for a gradient that is analytically zero, like attn.wk.bias's)."""
    samples = _prepare_samples(model, instances)
    loss, grads = _loss_and_grads(model, samples, _grouped_loss)
    ref_loss, ref_grads = _loss_and_grads(model, samples, _reference_loss)
    assert abs(loss - ref_loss) <= tol * abs(ref_loss)
    assert grads.keys() == ref_grads.keys() and grads
    largest = max(np.abs(g).max() for g in ref_grads.values())
    assert largest > 0
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=tol * largest, err_msg=name)


def _all_trainable(model):
    model.params.set_trainable(frozenset(model.params.names()))
    return model


def _share_images(instances, ids):
    return [inst._replace(image_id=i) for inst, i in zip(instances, ids)]


def _loss_calls(monkeypatch):
    """Record the number of sequences in each MultimodalModel.loss call."""
    loss = MultimodalModel.loss
    groups = []

    def spy(self, *members):
        groups.append(len(members))
        return loss(self, *members)

    monkeypatch.setattr(MultimodalModel, "loss", spy)
    return groups


def _text_batch(n=8, seed=5):
    instances = make_instances(make_records(n, seed=seed), "text_only")
    return build_model(instances, seed=3, c_total=256), instances


class TestAgainstPerSample:
    def test_text_only_batch_of_eight(self):
        model, instances = _text_batch()
        assert_matches_per_sample(_all_trainable(model), instances, 1e-12)

    def test_mmt_batch_with_samples_sharing_an_image(self):
        instances = make_instances(make_records(6, seed=6), "mmt")
        instances = _share_images(instances, ["imgA", "imgB", "imgA", "imgC", "imgB", "imgA"])
        model = build_model(instances, seed=4, c_total=512)
        assert_matches_per_sample(_all_trainable(model), instances, 1e-12)

    def test_mixed_caption_mmt_and_text_batch(self):
        # caption and mmt of one record share its image and the box clause
        records = make_records(3, seed=7)
        instances = (make_instances(records, "caption") + make_instances(records, "mmt")
                     + make_instances(records, "text_only"))
        order = [0, 6, 3, 1, 7, 4, 8, 2, 5]
        instances = [instances[i] for i in order]
        model = build_model(instances, seed=5, c_total=512)
        assert_matches_per_sample(_all_trainable(model), instances, 1e-12)

    def test_single_sample(self):
        model, instances = _text_batch(n=1)
        assert_matches_per_sample(_all_trainable(model), instances, 1e-12)

    def test_lora_with_non_zero_b(self):
        model, instances = _text_batch()
        lora_attach(model)
        rng = np.random.default_rng(9)
        for target in lora_targets(model):
            b = model.params[f"lora.{target}.B"]
            b.data[...] = rng.normal(0.0, 0.05, size=b.shape)
        assert_matches_per_sample(_all_trainable(model), instances, 1e-12)


class TestRowsComputed:
    def test_text_only_batch_of_eight_feeds_the_prefix_once(self, monkeypatch):
        model, instances = _text_batch()
        samples = _prepare_samples(model, instances)
        # <bos>, <hum> and the 88 characters of the text-only template
        prefix = 2 + len(os.path.commonprefix([inst.prompt for inst in instances]))
        assert prefix == 90
        lengths = [len(model.assemble_sequence(s.prompt_ids, None, s.response_ids).ids)
                   for s in samples]
        forward_embedded = DecoderLM.forward_embedded
        fed = []

        def counting(self, embeds, positions, cache=None, segments=None):
            fed.append(embeds.shape[0])
            return forward_embedded(self, embeds, positions, cache, segments)

        monkeypatch.setattr(DecoderLM, "forward_embedded", counting)
        list(_group_terms(model, samples))
        assert fed == [prefix + sum(n - prefix for n in lengths)]

    def test_one_loss_call_per_image_group(self, monkeypatch):
        instances = make_instances(make_records(5, seed=8), "mmt")
        instances = _share_images(instances, ["a", "b", "a", "c", "b"])
        instances += make_instances(make_records(2, seed=9), "text_only")
        model = build_model(instances, seed=2, c_total=512)
        groups = _loss_calls(monkeypatch)
        list(_group_terms(model, _prepare_samples(model, instances)))
        assert groups == [2, 2, 1, 2]  # a, b, c, then the text-only samples

    def test_validation_loss_runs_grouped_and_matches_per_sample(self, monkeypatch):
        model, instances = _text_batch(n=10)
        samples = _prepare_samples(model, instances)
        with no_grad():
            ref = float(_reference_loss(model, samples).data)
        groups = _loss_calls(monkeypatch)
        value = _pooled_loss(model, _prepare_samples(model, instances))
        assert groups == [8, 2]
        assert value == pytest.approx(ref, rel=1e-12, abs=0)


class TestHardEdges:
    def test_overflow_in_second_member_of_a_group_names_it(self):
        instances = make_instances(make_records(3, seed=10), "text_only")
        long = instances[1]._replace(response=instances[1].response * 20,
                                     source_id="hi/train/long")
        instances = [instances[0], long, instances[2]]
        model = build_model(instances, seed=1, c_total=512)
        small = MultimodalModel(ModelConfig(vocab_size=len(model.vocab), c_total=160),
                                model.vocab, seed=1)
        for inst in (instances[0], instances[2]):
            assert len(inst.prompt) + len(inst.response) + 4 <= 160
        with pytest.raises(DataError, match="'hi/train/long'") as info:
            run_stage(small, instances, StageConfig(stage=3, seed=1, max_steps=1,
                                                    batch_size=3))
        assert "context budget" in str(info.value)

    def test_members_with_different_visuals_raise(self):
        # equal ids are not enough: the <img> rows of two images differ
        instances = make_instances(make_records(2, seed=11), "mmt")
        model = build_model(instances, seed=6, c_total=512)
        samples = _prepare_samples(model, instances)
        with no_grad():
            projected = [model.project(s.image) for s in samples]
            twin = model.project(samples[0].image)  # equal rows, another object
            asms = [model.assemble_sequence(s.prompt_ids, v, s.response_ids)
                    for s, v in zip(samples, projected)]
            text = model.assemble_sequence(samples[0].prompt_ids, None, samples[0].response_ids)
            for pair in ([asms[0], asms[1]], [asms[0], text], [text, asms[1]],
                         [asms[0], dataclasses.replace(asms[1], visual=twin)]):
                with pytest.raises(ValueError, match="share one visual"):
                    model.loss(*pair)
