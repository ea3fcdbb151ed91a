import json
import struct

import numpy as np
import pytest

from tinymmt.datapipe import synth_image
from tinymmt.model import default_lora_targets, lora_attach, lora_merge, lora_targets
from tinymmt.training import StageConfig, freeze_plan, run_stage, save_checkpoint

from conftest import build_model, make_instances, make_records


def setup_model(seed=3):
    records = make_records(4, seed=seed)
    instances = make_instances(records, "mmt")
    model = build_model(instances, seed=seed, c_total=512)
    return model, instances


def test_attach_is_identity_for_generation():
    model, _ = setup_model()
    prompt = model.vocab.encode("red cat")
    img = synth_image("z1", 12)
    before = model.generate(prompt, img, max_new_tokens=12)
    lora_attach(model)
    after = model.generate(prompt, img, max_new_tokens=12)
    assert np.array_equal(before, after)


def test_default_targets_are_lm_attention_projections():
    model, _ = setup_model()
    targets = default_lora_targets(model)
    assert len(targets) == model.config.n_layers_lm * 4
    assert all(t.startswith("llm.blocks.") and ".attn." in t for t in targets)


def test_attach_freezes_base_weights():
    model, _ = setup_model()
    lora_attach(model)
    for target in default_lora_targets(model):
        assert target not in model.params.trainable
        a, b = model.params.linears[target].lora
        assert a is model.params[f"lora.{target}.A"] and b is model.params[f"lora.{target}.B"]
        assert np.array_equal(model.params[f"lora.{target}.B"].data,
                              np.zeros_like(model.params[f"lora.{target}.B"].data))


def test_double_attach_rejected():
    model, _ = setup_model()
    lora_attach(model)
    names = model.params.names()
    with pytest.raises(ValueError, match="duplicate parameter name 'lora.llm.blocks.0.attn.wq"):
        lora_attach(model)
    assert model.params.names() == names
    assert lora_targets(model) == sorted(default_lora_targets(model))


def logits(model, inst):
    prompt, resp = model.vocab.encode(inst.prompt), model.vocab.encode(inst.response)
    visual = model.visual_tokens(synth_image(inst.image_id, 12))
    return model.forward(model.assemble_sequence(prompt, visual, resp)).data


def test_clone_of_a_lora_model_is_equal_and_independent():
    """B non-zero, so every adapter shows in the logits; training the clone
    moves its own parameters only."""
    model, instances = setup_model()
    lora_attach(model)
    rng = np.random.default_rng(5)
    for target in lora_targets(model):
        b = model.params[f"lora.{target}.B"]
        b.data[...] = rng.normal(0.0, 0.1, size=b.shape)
    twin = model.clone()
    assert lora_targets(twin) == lora_targets(model)
    assert twin.params.trainable == model.params.trainable
    assert np.array_equal(logits(twin, instances[0]), logits(model, instances[0]))

    before = model.params.component_digests()
    log = run_stage(twin, instances, StageConfig(stage=3, mode="lora", lr=1e-3, max_steps=2,
                                                 batch_size=2, seed=4))
    assert log.digests_post["lora"] != before["lora"]
    assert model.params.component_digests() == before


def test_merge_matches_adapted_logits_after_training():
    model, instances = setup_model()
    lora_attach(model)
    cfg = StageConfig(stage=3, mode="lora", lr=1e-3, epochs=2, batch_size=2, seed=9)
    run_stage(model, instances, cfg)

    inst = instances[0]
    prompt = model.vocab.encode(inst.prompt)
    resp = model.vocab.encode(inst.response)
    img = synth_image(inst.image_id, 12)
    adapted = model.forward(
        model.assemble_sequence(prompt, model.visual_tokens(img), resp)).data.copy()
    assert any(model.params[f"lora.{t}.B"].data.any() for t in default_lora_targets(model))

    lora_merge(model)
    merged = model.forward(
        model.assemble_sequence(prompt, model.visual_tokens(img), resp)).data
    assert np.abs(adapted - merged).max() < 1e-9
    assert not any(name.startswith("lora.") for name in model.params.names())


def test_base_lm_digests_unchanged_across_lora_stage():
    model, instances = setup_model()
    cfg = StageConfig(stage=3, mode="lora", lr=1e-3, epochs=2, batch_size=2, seed=4)
    log = run_stage(model, instances, cfg)
    assert log.digests_pre["llm"] == log.digests_post["llm"]
    assert log.digests_pre["vision"] == log.digests_post["vision"]
    assert log.digests_pre["adapter"] != log.digests_post["adapter"]
    assert log.digests_pre["lora"] != log.digests_post["lora"]


def test_lora_freeze_plan_contents():
    model, _ = setup_model()
    lora_attach(model)
    plan = freeze_plan(model, StageConfig(stage=3, mode="lora"))
    assert all(n.startswith(("adapter.", "lora.")) for n in plan)
    assert any(n.startswith("lora.") for n in plan)
    assert any(n.startswith("adapter.") for n in plan)


def test_merge_without_adapters_rejected():
    model, _ = setup_model()
    with pytest.raises(ValueError, match="no lora adapters"):
        lora_merge(model)


@pytest.mark.parametrize("adapter_mode", ["mlp2"])  # the one adapter, as the header names it
def test_every_weight_registers_its_linear(adapter_mode, tmp_path):
    records = make_records(4, seed=3)
    model = build_model(make_instances(records, "mmt"), seed=3)
    save_checkpoint(model, tmp_path / "m.ckpt")
    blob = (tmp_path / "m.ckpt").read_bytes()
    (header_len,) = struct.unpack("<Q", blob[8:16])
    assert json.loads(blob[16:16 + header_len])["config"]["adapter_mode"] == adapter_mode

    def check(m):
        weights = {name for name in m.params.names() if name.endswith(".weight")}
        assert set(m.params.linears) == weights
        for name, linear in m.params.linears.items():
            assert linear.weight is m.params[name]

    check(model)
    other = model.clone()
    check(other)
    assert set(other.params.linears) == set(model.params.linears)
    lora_attach(other)
    check(other)
    lora_merge(other)
    check(other)
    assert all(linear.lora is None for linear in other.params.linears.values())
