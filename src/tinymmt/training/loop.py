"""The optimizer loop over instruction instances, plus the staged pipeline.

Every batch pools the per-position negative log-likelihoods across its
samples. The samples of one image, and all samples without one, form a
group that runs as one packed forward: the prompt prefix they share (for
text-only prompts of one language, the instruction template) is computed
once, and each sample adds only its own rows, which attend over the
prefix's keys and values. No row is padding, and the pooled loss and
gradients equal those of forwarding each sample alone up to rounding.
A training step back-propagates each group as soon as its forward ends,
scaled by the batch's scored-position count, and backward releases the
group's graph as it walks. A group's backward runs on a worker thread
while the calling thread builds the next group's forward (a forward only
reads parameters and a backward only writes gradients), so at most two
groups' graphs are alive at a time. Each backward starts only after the one
before it has returned, and the last group's runs on the calling thread, so
the gradients are bitwise those of one backward over the batch's summed loss.
Determinism: all shuffling flows from the stage seed, and component digests
are recorded before and after each stage so freezing is bit-checkable.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from tinymmt.atomic import atomic_write
from tinymmt.datapipe.images import make_synth_loader
from tinymmt.datapipe.records import PromptInstance
from tinymmt.errors import ConfigError, DataError, TinymmtError, VocabularyError
from tinymmt.model.lora import lora_attach, lora_targets
from tinymmt.model.multimodal import MultimodalModel
from tinymmt.model.vocab import Vocabulary
from tinymmt.numerics.optim import AdamState, adam_step
from tinymmt.numerics.tensor import Tensor, backward, no_grad
from tinymmt.training.stages import StageConfig, freeze_plan


@dataclass
class TrainLog:
    stage: int
    steps: list[dict] = field(default_factory=list)
    val_losses: list[dict] = field(default_factory=list)
    digests_pre: dict[str, str] = field(default_factory=dict)
    digests_post: dict[str, str] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def records(self) -> list[dict]:
        out: list[dict] = [{"type": "digests", "when": "pre", "stage": self.stage,
                            "digests": self.digests_pre}]
        out.extend({"type": "step", "stage": self.stage, **s} for s in self.steps)
        out.extend({"type": "val", "stage": self.stage, **v} for v in self.val_losses)
        out.append({"type": "digests", "when": "post", "stage": self.stage,
                    "digests": self.digests_post})
        out.append({"type": "wall_clock", "stage": self.stage, "seconds": self.wall_clock_s})
        return out

    def write_jsonl(self, path) -> None:
        atomic_write(path, "".join(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n"
                                   for rec in self.records()))


@dataclass
class _Sample:
    prompt_ids: np.ndarray
    response_ids: np.ndarray
    image_id: str | None
    image: Tensor | None  # the frozen encoder's output, shared by samples of one image
    source_id: str


def encode_text(vocab: Vocabulary, text: str, source_id: str) -> np.ndarray:
    """The ids of one instance's text; a character outside the vocabulary
    raises VocabularyError naming the instance."""
    try:
        return vocab.encode(text)
    except VocabularyError as exc:
        raise VocabularyError(f"instance {source_id!r}: {exc}") from exc


def _prepare_samples(model: MultimodalModel, dataset: Sequence[PromptInstance]) -> list[_Sample]:
    """Encode each instance, running the vision encoder once per distinct image.

    This is the one fit check: a sample whose prompt, response and <eos>
    overflow c_total raises DataError naming it, before any step trains or
    scores. The encoder output is a constant (c_vis, d_vis) Tensor per image
    id, computed under no_grad and held for as long as the samples are,
    which is c_vis × d_vis floats per image (2.3 KB at the desk config).
    """
    c_total = model.config.c_total
    load_image = make_synth_loader(model.config.image_size)
    encoded: dict[str, Tensor] = {}
    samples = []
    for inst in dataset:
        prompt_ids = encode_text(model.vocab, inst.prompt, inst.source_id)
        response_ids = encode_text(model.vocab, inst.response, inst.source_id)
        room = model.context_room(prompt_ids, inst.image_id is not None)
        need = len(response_ids) + 1  # and <eos>
        if need > room:
            raise DataError(f"sample {inst.source_id!r}: assembled sequence length "
                            f"{c_total - room + need} exceeds context budget c_total={c_total}")
        if inst.image_id is not None and inst.image_id not in encoded:
            # STAGE_COMPONENTS never trains vision, so its output is a constant
            with no_grad():
                encoded[inst.image_id] = model.encode_image(load_image(inst.image_id))
        samples.append(_Sample(
            prompt_ids=prompt_ids,
            response_ids=response_ids,
            image_id=inst.image_id,
            image=None if inst.image_id is None else encoded[inst.image_id],
            source_id=inst.source_id,
        ))
    return samples


def _group_terms(model: MultimodalModel, batch: Sequence[_Sample]) -> Iterator[Tensor]:
    """Each image group's summed NLL (its mean loss times its scored count),
    one group at a time.

    Samples are grouped by image id, in order of first appearance; a group
    projects its image once and runs as one packed loss call. A training
    step starts each term's backward before the next group's forward builds.
    """
    groups: dict[str | None, list[_Sample]] = {}
    for sample in batch:
        groups.setdefault(sample.image_id, []).append(sample)
    for group in groups.values():
        image = group[0].image
        visual = model.project(image) if image is not None else None
        loss, count = model.loss(*(model.assemble_sequence(s.prompt_ids, visual, s.response_ids)
                                   for s in group))
        yield loss * float(count)


def _quiet_backward(loss: Tensor) -> None:
    """backward(loss) on the worker thread; numpy's error state is per
    thread, and a diverging step is reported by the non-finite check."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        backward(loss)


def _scored_count(batch: Sequence[_Sample]) -> int:
    """The batch's scored positions: each sample's response and its <eos>."""
    return sum(len(s.response_ids) + 1 for s in batch)


# samples per packed batch when scoring a validation set: a group's (rows, 4d)
# buffers grow with its size, and a whole set as one group falls out of cache
_EVAL_BATCH = 8


def _pooled_loss(model: MultimodalModel, samples: Sequence[_Sample]) -> float:
    """Pooled mean NLL over samples, no gradients, in batches of _EVAL_BATCH."""
    weighted, total = 0.0, 0
    with no_grad():
        for start in range(0, len(samples), _EVAL_BATCH):
            batch = samples[start: start + _EVAL_BATCH]
            weighted += sum(float(t.data) for t in _group_terms(model, batch))
            total += _scored_count(batch)
    return weighted / total


def run_stage(model: MultimodalModel, dataset: Sequence[PromptInstance],
              cfg: StageConfig, val_dataset: Sequence[PromptInstance] | None = None) -> TrainLog:
    """Train one stage in place and return its log.

    Exactly the freeze-plan parameters may change; everything else is
    bit-identical afterwards (the log's digests prove it). lora mode attaches
    default adapters when none are present. A training or validation sample
    that overflows c_total stops the stage before its first update, and a
    NaN or inf in a batch's loss or in a trainable gradient stops it before
    that update. Errors name the stage.
    """
    try:
        return _train_stage(model, dataset, cfg, val_dataset)
    except TinymmtError as exc:
        raise type(exc)(f"stage {cfg.stage}: {exc}") from exc


def _train_stage(model: MultimodalModel, dataset: Sequence[PromptInstance],
                 cfg: StageConfig, val_dataset: Sequence[PromptInstance] | None) -> TrainLog:
    if not dataset:
        raise DataError("run_stage: dataset is empty")

    if cfg.mode == "lora" and not lora_targets(model):
        lora_attach(model, seed=cfg.seed)

    plan = freeze_plan(model, cfg)
    model.params.set_trainable(plan)
    trainable = sorted(plan)
    state = AdamState(model.params, lr=cfg.lr)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x57A6E]))

    samples = _prepare_samples(model, dataset)
    val_samples = _prepare_samples(model, val_dataset) if val_dataset else []
    log = TrainLog(stage=cfg.stage)
    log.digests_pre = model.params.component_digests()
    started = time.monotonic()

    step = 0
    done = False
    # one worker per stage: a group's backward overlaps the next group's forward
    with ThreadPoolExecutor(1) as worker:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(samples))
            for start in range(0, len(samples), cfg.batch_size):
                batch = [samples[i] for i in order[start: start + cfg.batch_size]]
                count = _scored_count(batch)
                last = len({s.image_id for s in batch}) - 1  # _group_terms' last group
                summed = 0.0
                pending = None  # the previous group's backward, on the worker
                # a diverging step is reported by the non-finite check below
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for i, term in enumerate(_group_terms(model, batch)):
                        summed += float(term.data)
                        scaled = term * (1.0 / count)
                        if pending is not None:
                            pending.result()
                        if i < last:
                            pending = worker.submit(_quiet_backward, scaled)
                        else:
                            backward(scaled)
                loss_value = summed / count
                step += 1
                non_finite = None
                for name in trainable:
                    # a trainable parameter the batch never touched (e.g. the
                    # adapter under text-only data) has gradient exactly zero
                    p = model.params[name]
                    if p.grad is None:
                        p.grad = np.zeros_like(p.data)
                    elif non_finite is None and not np.isfinite(p.grad).all():
                        non_finite = name
                if non_finite is not None or not np.isfinite(loss_value):
                    raise TinymmtError(
                        f"step {step}: non-finite training values, batch loss {loss_value}, "
                        f"first non-finite gradient {non_finite or 'none'}; batch source ids "
                        f"{[s.source_id for s in batch]}; stopped before the update")
                adam_step(model.params, state)
                log.steps.append({"step": step, "epoch": epoch + 1, "loss": loss_value})
                if cfg.max_steps is not None and step >= cfg.max_steps:
                    done = True
                    break
            if val_samples:
                log.val_losses.append({"epoch": epoch + 1,
                                       "val_loss": _pooled_loss(model, val_samples)})
            if done:
                break

    log.digests_post = model.params.component_digests()
    log.wall_clock_s = time.monotonic() - started
    return log


def run_pipeline(model: MultimodalModel, stage_configs: Sequence[StageConfig],
                 datasets: dict[int, Sequence[PromptInstance]], out_dir,
                 val: Sequence[PromptInstance] = ()) -> tuple[MultimodalModel, list[TrainLog]]:
    """Run an ordered subset of stages, checkpointing after each.

    Stage numbers must be strictly increasing; [1, 3] (skip instruction
    tuning) and stopping after [1, 2] are both legitimate schedules. Each
    stage resumes from the in-memory model the previous stage produced, and a
    checkpoint lands in out_dir per stage. Every stage validates on val.
    """
    from tinymmt.training.checkpoint import save_checkpoint

    stages = [cfg.stage for cfg in stage_configs]
    if not stages:
        raise ConfigError("run_pipeline: no stages given")
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise ConfigError(f"stage order must be strictly increasing, got {stages}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logs: list[TrainLog] = []
    for cfg in stage_configs:
        if cfg.stage not in datasets:
            raise DataError(f"no dataset provided for stage {cfg.stage}")
        log = run_stage(model, datasets[cfg.stage], cfg, val_dataset=val)
        logs.append(log)
        model.provenance.append(cfg.summary())
        save_checkpoint(model, out_dir / f"stage{cfg.stage}.ckpt")
        log.write_jsonl(out_dir / f"stage{cfg.stage}.log.jsonl")
    return model, logs
