import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

import tinymmt.training.loop as loop
from tinymmt.datapipe import synth_image
from tinymmt.errors import ConfigError, DataError, TinymmtError
from tinymmt.model import MultimodalModel, lora_attach
from tinymmt.model.vocab import SYS
from tinymmt.numerics import backward, no_grad
from tinymmt.training import (
    STAGE_COMPONENTS,
    StageConfig,
    derive_stage_seed,
    freeze_plan,
    load_checkpoint,
    run_pipeline,
    run_stage,
)
from tinymmt.training.loop import _prepare_samples, _scored_count

from conftest import build_model, make_instances, make_records


def full_setup(n=6, seed=2, model_seed=8):
    records = make_records(n, seed=seed)
    caption = make_instances(records, "caption")
    mmt = make_instances(records, "mmt")
    text = make_instances(records, "text_only")
    model = build_model(caption + mmt + text, seed=model_seed, c_total=512)
    return model, {1: caption, 2: caption + mmt, 3: mmt + text}


def stage_plans():
    """(stage, mode, model, freeze plan) for every stage the recipe runs."""
    for stage, mode in [(1, "full"), (2, "full"), (3, "full"), (3, "lora")]:
        model, _ = full_setup()
        if mode == "lora":
            lora_attach(model)
        yield stage, mode, model, freeze_plan(model, StageConfig(stage=stage, mode=mode))


class TestStageConfig:
    def test_stage_defaults(self):
        assert StageConfig(stage=1).lr == 1e-3
        assert StageConfig(stage=2).lr == 2e-4
        cfg = StageConfig(stage=3)
        assert cfg.lr == 1e-4 and cfg.epochs == 1  # the selected grid point

    def test_lora_only_stage3(self):
        with pytest.raises(ConfigError, match="lora"):
            StageConfig(stage=2, mode="lora")
        StageConfig(stage=3, mode="lora")

    def test_vision_never_trainable(self):
        for stage, mode, model, plan in stage_plans():
            assert plan, (stage, mode)
            assert not any(name.startswith("vision.") for name in plan), (stage, mode)

    def test_component_sets_fixed_per_stage(self):
        for stage, mode, model, plan in stage_plans():
            components = set(STAGE_COMPONENTS[stage])
            if mode == "lora":  # the low-rank matrices train in place of the base LM
                components = components - {"llm"} | {"lora"}
            assert {name.split(".", 1)[0] for name in plan} == components, (stage, mode)
            assert plan == {name for name in model.params.names()
                            if name.split(".", 1)[0] in components}

    def test_bad_stage_number(self):
        with pytest.raises(ConfigError):
            StageConfig(stage=4)


class TestFreezePlan:
    def test_stage1_adapter_only(self):
        model, _ = full_setup()
        plan = freeze_plan(model, StageConfig(stage=1))
        assert plan
        assert all(name.startswith("adapter.") for name in plan)

    def test_stage2_adapter_and_llm(self):
        model, _ = full_setup()
        plan = freeze_plan(model, StageConfig(stage=2))
        prefixes = {name.split(".", 1)[0] for name in plan}
        assert prefixes == {"adapter", "llm"}
        assert not any(name.startswith("vision.") for name in plan)

    def test_stage3_lora_requires_adapters(self):
        model, _ = full_setup()
        with pytest.raises(ConfigError, match="adapters"):
            freeze_plan(model, StageConfig(stage=3, mode="lora"))


class TestRunStage:
    def test_stage1_digest_contract(self):
        model, datasets = full_setup()
        log = run_stage(model, datasets[1], StageConfig(stage=1, seed=1, max_steps=2,
                                                        batch_size=2))
        assert log.digests_pre["vision"] == log.digests_post["vision"]
        assert log.digests_pre["llm"] == log.digests_post["llm"]
        assert log.digests_pre["adapter"] != log.digests_post["adapter"]

    def test_step_count_is_epochs_times_batches(self):
        model, datasets = full_setup()
        cfg = StageConfig(stage=2, seed=1, epochs=2, batch_size=4)
        log = run_stage(model, datasets[2], cfg)
        n = len(datasets[2])
        assert len(log.steps) == 2 * ((n + 3) // 4)

    def test_max_steps_cap(self):
        model, datasets = full_setup()
        log = run_stage(model, datasets[1], StageConfig(stage=1, seed=1, epochs=5,
                                                        batch_size=2, max_steps=3))
        assert len(log.steps) == 3

    def test_empty_dataset_rejected(self):
        model, _ = full_setup()
        with pytest.raises(DataError, match="empty"):
            run_stage(model, [], StageConfig(stage=1))

    def test_overflow_reports_sample_id(self):
        records = make_records(2, seed=3)
        instances = make_instances(records, "mmt")
        model = build_model(instances, seed=1, c_total=512)
        # rebuild with a context too small for these prompts
        from tinymmt.model import ModelConfig, MultimodalModel
        cfg = ModelConfig(vocab_size=len(model.vocab), c_total=128)
        small = MultimodalModel(cfg, model.vocab, seed=1)
        with pytest.raises(DataError, match=instances[0].source_id.split("/")[0]):
            run_stage(small, instances, StageConfig(stage=3, seed=1, max_steps=1))

    @pytest.mark.parametrize("where", ["train", "val"])
    def test_an_overflowing_sample_stops_the_stage_before_its_first_update(self, monkeypatch,
                                                                           where):
        instances = make_instances(make_records(12, seed=12), "text_only")
        long = instances[0]._replace(response=instances[0].response * 40,
                                     source_id="hi/train/long")
        model = build_model(instances + [long], seed=4, c_total=256)
        length = 3 + len(long.prompt) + len(long.response) + 1  # <bos> <hum> <sys> ... <eos>
        updates = []
        adam = loop.adam_step
        monkeypatch.setattr(loop, "adam_step", lambda *args: (updates.append(1), adam(*args)))
        train = instances[:6] + [long] + instances[6:] if where == "train" else instances
        val = [instances[0], long] if where == "val" else None
        with pytest.raises(DataError) as raised:
            run_stage(model, train, StageConfig(stage=3, seed=2, batch_size=2), val_dataset=val)
        assert str(raised.value) == (f"stage 3: sample 'hi/train/long': assembled sequence "
                                     f"length {length} exceeds context budget c_total=256")
        assert updates == []

    def test_same_seed_bit_identical_checkpoints(self):
        losses = []
        params = []
        for _ in range(2):
            model, datasets = full_setup()
            log = run_stage(model, datasets[3], StageConfig(stage=3, seed=77, epochs=1,
                                                            batch_size=2))
            losses.append([s["loss"] for s in log.steps])
            params.append({n: model.params[n].data.tobytes() for n in model.params.names()})
        assert losses[0] == losses[1]
        assert params[0] == params[1]

    def test_loss_strictly_decreases_ten_steps(self):
        # fixed batch (batch_size == dataset size), lr 1e-3
        model, datasets = full_setup(n=4, seed=6, model_seed=3)
        data = datasets[3][:4]
        cfg = StageConfig(stage=3, lr=1e-3, epochs=10, batch_size=len(data), seed=5,
                          max_steps=10)
        log = run_stage(model, data, cfg)
        losses = [s["loss"] for s in log.steps]
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_validation_loss_logged_per_epoch(self):
        model, datasets = full_setup()
        log = run_stage(model, datasets[1], StageConfig(stage=1, seed=2, epochs=2,
                                                        batch_size=4),
                        val_dataset=datasets[1][:2])
        assert [v["epoch"] for v in log.val_losses] == [1, 2]
        assert all(np.isfinite(v["val_loss"]) for v in log.val_losses)


def shared_image_setup():
    """Six mmt instances over three images, as Visual Genome regions share them."""
    records = make_records(6, seed=4)
    shared = ["imgA", "imgB", "imgA", "imgC", "imgB", "imgA"]
    instances = [inst._replace(image_id=image_id)
                 for inst, image_id in zip(make_instances(records, "mmt"), shared)]
    return build_model(instances, seed=5, c_total=512), instances


class TestFrozenVisionOncePerImage:
    def test_encoder_runs_once_per_distinct_image_per_stage(self, monkeypatch):
        model, instances = shared_image_setup()
        calls = []
        real = MultimodalModel.encode_image

        def spy(self, image):
            calls.append(image)
            return real(self, image)

        monkeypatch.setattr(MultimodalModel, "encode_image", spy)
        cfg = StageConfig(stage=2, seed=3, epochs=2, batch_size=3)
        val = [instances[0]._replace(image_id="imgV")] * 2 + instances[1:2]
        log = run_stage(model, instances, cfg, val_dataset=val)
        assert len(log.steps) == 4 and len(log.val_losses) == 2
        assert log.val_losses[0]["val_loss"] != log.val_losses[1]["val_loss"]
        assert len(calls) == 5  # imgA, imgB, imgC, then imgV and imgB; not samples x epochs
        assert log.digests_pre["vision"] == log.digests_post["vision"]
        assert log.digests_pre["adapter"] != log.digests_post["adapter"]

    def test_first_step_loss_equals_a_per_sample_encoding(self):
        model, instances = shared_image_setup()
        size = model.config.image_size
        weighted, total = 0.0, 0
        with no_grad():
            for inst in instances:
                visual = model.visual_tokens(synth_image(inst.image_id, size))
                assembled = model.assemble_sequence(model.vocab.encode(inst.prompt), visual,
                                                    model.vocab.encode(inst.response))
                loss, count = model.loss(assembled)
                weighted += float(loss.data) * count
                total += count
        cfg = StageConfig(stage=2, seed=3, epochs=1, batch_size=len(instances))
        log = run_stage(model, instances, cfg)
        # one batch of every sample; only the pooling order may differ
        assert log.steps[0]["loss"] == pytest.approx(weighted / total, rel=1e-12, abs=0)

    def test_samples_of_one_image_share_one_constant_encoding(self):
        model, instances = shared_image_setup()
        samples = _prepare_samples(model, instances)
        a = [s.image for s in samples]
        assert a[0] is a[2] is a[5] and a[1] is a[4]
        assert len({id(x) for x in a}) == 3
        assert not any(x.requires_grad or x._parents for x in a)
        expected = model.encode_image(synth_image("imgC", model.config.image_size))
        assert np.array_equal(a[3].data, expected.data)


def _one_walk(model, batch):
    """A step's loss and gradients as one backward over the summed loss of
    every image group: the arithmetic before groups back-propagated one at
    a time. Returns the loss value and the summed counts of the loss calls."""
    groups = {}
    for sample in batch:
        groups.setdefault(sample.image_id, []).append(sample)
    summed, total = None, 0
    for group in groups.values():
        image = group[0].image
        visual = model.project(image) if image is not None else None
        loss, count = model.loss(*(model.assemble_sequence(s.prompt_ids, visual, s.response_ids)
                                   for s in group))
        term = loss * float(count)
        summed = term if summed is None else summed + term
        total += count
    backward(summed * (1.0 / total))
    return float(summed.data) / total, total


def multi_group_instances():
    """mmt samples of images A, B, A, C, B, A and two text-only samples: in
    one batch, groups of 3, 2 and 1 samples and a text-only group of 2."""
    records = make_records(6, seed=12)
    mmt = [inst._replace(image_id=image_id) for inst, image_id in
           zip(make_instances(records, "mmt"), ["A", "B", "A", "C", "B", "A"])]
    text = make_instances(make_records(2, seed=13), "text_only")
    return mmt[:2] + text[:1] + mmt[2:5] + text[1:] + mmt[5:]


class TestPerGroupBackward:
    @pytest.mark.parametrize("mode", ["full", "lora"])
    def test_gradients_and_loss_bitwise_equal_one_walk(self, monkeypatch, mode):
        instances = multi_group_instances()
        model = build_model(instances, seed=9, c_total=512)
        if mode == "lora":
            lora_attach(model)
            rng = np.random.default_rng(14)
            for name in model.params.names():
                if name.endswith(".B"):
                    b = model.params[name]
                    b.data[...] = rng.normal(0.0, 0.05, size=b.shape)
        reference = model.clone()
        batches, grads = [], {}
        group_terms, adam_step = loop._group_terms, loop.adam_step

        def recording(m, batch):
            batches.append(list(batch))
            return group_terms(m, batch)

        def before_update(params, state):
            grads.update((name, params[name].grad.copy()) for name in params.trainable)
            adam_step(params, state)

        monkeypatch.setattr(loop, "_group_terms", recording)
        monkeypatch.setattr(loop, "adam_step", before_update)
        cfg = StageConfig(stage=2 if mode == "full" else 3, mode=mode, seed=1,
                          batch_size=len(instances), max_steps=1)
        log = run_stage(model, instances, cfg)
        (batch,) = batches
        assert len({s.image_id for s in batch}) == 4

        reference.params.set_trainable(freeze_plan(reference, cfg))
        loss_value, count = _one_walk(reference, batch)
        assert count == _scored_count(batch)
        assert log.steps[0]["loss"] == loss_value
        assert grads.keys() == set(reference.params.trainable)
        assert any(name.startswith("lora.") for name in grads) == (mode == "lora")
        for name, grad in grads.items():
            assert grad.tobytes() == reference.params[name].grad.tobytes(), name

    def test_a_step_holds_one_group_graph_at_a_time(self):
        # four single-sample image groups against one: a group's backward
        # overlaps the next group's forward, so at most two groups' graphs
        # are alive at once; with one backward over the summed loss, every
        # group's graph lives to the end of the step and the ratio is ~3.2
        instances = make_instances(make_records(4, seed=21), "mmt")

        def peak(n):
            model = build_model(instances, seed=3, c_total=512)
            tracemalloc.start()
            try:
                run_stage(model, instances[:n], StageConfig(stage=2, seed=1, batch_size=n,
                                                            max_steps=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) < 2 * peak(1)


class _InlineExecutor:
    """ThreadPoolExecutor's part the training loop uses, running each call
    on the caller's thread as it is submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestOverlappedBackward:
    """A group's backward runs on the stage's worker thread while the
    calling thread builds the next group's forward."""

    def _run(self, instances, **cfg):
        model = build_model(instances, seed=9, c_total=512)
        return run_stage(model, instances, StageConfig(stage=2, seed=1, **cfg))

    def test_every_backward_but_the_last_runs_on_the_worker(self, monkeypatch):
        threads = []

        def recording(loss):
            threads.append(threading.get_ident())
            backward(loss)

        monkeypatch.setattr(loop, "backward", recording)
        instances = multi_group_instances()
        self._run(instances, batch_size=len(instances), max_steps=1)
        caller = threading.get_ident()
        assert len(threads) == 4
        assert caller not in threads[:-1] and threads[-1] == caller
        # every text-only sample is one group, so no backward leaves the caller
        threads.clear()
        text = [inst for inst in instances if inst.image_id is None]
        self._run(text, batch_size=len(text), max_steps=1)
        assert threads == [caller]

    def test_the_worker_is_gone_after_the_stage(self, monkeypatch):
        start = threading.active_count()
        instances = multi_group_instances()
        self._run(instances, batch_size=4, epochs=2)
        assert threading.active_count() == start
        # a diverging stage stops on its non-finite check
        with pytest.raises(TinymmtError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            self._run(instances, batch_size=4, epochs=2, lr=1e300)
        assert threading.active_count() == start
        # a forward that raises while the group before it back-propagates
        # waits for that backward to return
        finished = []
        group_terms = loop._group_terms

        def walked(loss):
            backward(loss)
            finished.append(threading.get_ident())

        def failing(model, batch):
            yield next(group_terms(model, batch))
            raise RuntimeError("forward failed")

        monkeypatch.setattr(loop, "backward", walked)
        monkeypatch.setattr(loop, "_group_terms", failing)
        with pytest.raises(RuntimeError, match="forward failed"):
            self._run(instances, batch_size=len(instances))
        assert len(finished) == 1 and finished[0] != threading.get_ident()
        assert threading.active_count() == start

    def test_the_overlap_changes_no_bit(self, monkeypatch, tmp_path):
        def train(out):
            instances = multi_group_instances()
            model = build_model(instances, seed=9, c_total=512)
            cfg = StageConfig(stage=2, seed=1, batch_size=4, epochs=2)
            _, (log,) = run_pipeline(model, [cfg], {2: instances}, out, ())
            return [s["loss"] for s in log.steps], (out / "stage2.ckpt").read_bytes()

        # switching threads every few microseconds interleaves the worker's
        # backward with the next forward as finely as the interpreter can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            overlapped = train(tmp_path / "overlapped")
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(loop, "ThreadPoolExecutor", _InlineExecutor)
        assert train(tmp_path / "inline") == overlapped


class TestPipeline:
    def test_full_recipe_digests(self, tmp_path):
        model, datasets = full_setup()
        cfgs = [StageConfig(stage=s, seed=derive_stage_seed(11, s), max_steps=2,
                            batch_size=2) for s in (1, 2, 3)]
        model, logs = run_pipeline(model, cfgs, datasets, tmp_path, ())
        vision_digests = {d for log in logs
                          for d in (log.digests_pre["vision"], log.digests_post["vision"])}
        assert len(vision_digests) == 1
        assert logs[0].digests_pre["llm"] == logs[0].digests_post["llm"]
        assert logs[1].digests_pre["llm"] != logs[1].digests_post["llm"]
        assert logs[2].digests_pre["llm"] != logs[2].digests_post["llm"]
        for s in (1, 2, 3):
            assert (tmp_path / f"stage{s}.ckpt").exists()
            assert (tmp_path / f"stage{s}.log.jsonl").exists()
        assert [p["stage"] for p in model.provenance] == [1, 2, 3]

    def test_stage_skip_ablation(self, tmp_path):
        model, datasets = full_setup()
        cfgs = [StageConfig(stage=s, seed=derive_stage_seed(11, s), max_steps=2,
                            batch_size=2) for s in (1, 3)]
        model, logs = run_pipeline(model, cfgs, datasets, tmp_path, ())
        assert [log.stage for log in logs] == [1, 3]
        assert [p["stage"] for p in model.provenance] == [1, 3]

    def test_resume_equals_straight_through(self, tmp_path):
        master = 13
        def cfg_for(stage):
            return StageConfig(stage=stage, seed=derive_stage_seed(master, stage),
                               max_steps=2, batch_size=2)

        model_a, datasets = full_setup()
        run_pipeline(model_a, [cfg_for(s) for s in (1, 2, 3)], datasets, tmp_path / "full", ())

        model_b, datasets_b = full_setup()
        run_pipeline(model_b, [cfg_for(1)], datasets_b, tmp_path / "resumed", ())
        resumed = load_checkpoint(tmp_path / "resumed" / "stage1.ckpt")
        run_pipeline(resumed, [cfg_for(s) for s in (2, 3)], datasets_b,
                     tmp_path / "resumed", ())

        full_bytes = (tmp_path / "full" / "stage3.ckpt").read_bytes()
        resumed_bytes = (tmp_path / "resumed" / "stage3.ckpt").read_bytes()
        assert full_bytes == resumed_bytes

    @pytest.mark.parametrize("stage, task, first", [(2, "mmt", "adapter.fc1.bias"),
                                                    (3, "text_only", "llm.blocks.0.attn.wk.bias")])
    def test_non_finite_gradient_stops_before_the_update(self, tmp_path, stage, task, first):
        # text-only batches never reach the adapter, whose zero gradient is
        # finite, so the first non-finite parameter is then the LM's first
        model, _ = full_setup()
        data = make_instances(make_records(6, seed=2), task)
        model.params["llm.tok_emb"].data[SYS] = np.inf  # a token every prompt holds
        before = model.params.component_digests()
        cfg = StageConfig(stage=stage, seed=1, batch_size=len(data))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TinymmtError) as info:
            run_pipeline(model, [cfg], {stage: data}, tmp_path, ())
        assert type(info.value) is TinymmtError
        message = str(info.value)
        assert message.startswith(f"stage {stage}: step 1: non-finite training values, "
                                  f"batch loss nan, first non-finite gradient {first}; ")
        assert all(repr(inst.source_id) in message for inst in data)
        assert model.params.component_digests() == before
        assert list(tmp_path.iterdir()) == []

    def test_missing_stage_dataset_rejected(self, tmp_path):
        model, datasets = full_setup()
        del datasets[2]
        with pytest.raises(DataError, match="stage 2"):
            run_pipeline(model, [StageConfig(stage=2)], datasets, tmp_path, ())


def test_adapter_untouched_by_pure_text_stage():
    # text-only data routes nothing through the projector: zero gradient,
    # zero Adam update, digest unchanged
    model, datasets = full_setup()
    text_only = [inst for inst in datasets[3] if inst.image_id is None]
    log = run_stage(model, text_only, StageConfig(stage=3, seed=1, max_steps=3,
                                                  batch_size=2))
    assert log.digests_pre["adapter"] == log.digests_post["adapter"]
    assert log.digests_pre["llm"] != log.digests_post["llm"]
