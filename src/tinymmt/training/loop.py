"""The optimizer loop over instruction instances, plus the staged pipeline.

Every batch pools the per-position negative log-likelihoods across its
samples (each sample forwarded at its exact length; padding would be masked
out of both loss and attention anyway, so skipping it is bit-equivalent).
Determinism: all shuffling flows from the stage seed, and component digests
are recorded before and after each stage so freezing is bit-checkable.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from tinymmt.atomic import atomic_write
from tinymmt.datapipe.images import make_synth_loader
from tinymmt.datapipe.records import PromptInstance
from tinymmt.errors import BudgetError, ConfigError, DataError, TinymmtError
from tinymmt.model.lora import lora_attach
from tinymmt.model.multimodal import MultimodalModel
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
    image: np.ndarray | None
    source_id: str


def _prepare_samples(model: MultimodalModel, dataset: Sequence[PromptInstance]) -> list[_Sample]:
    load_image = make_synth_loader(model.config.image_size)
    samples = []
    for inst in dataset:
        image = load_image(inst.image_id) if inst.image_id is not None else None
        samples.append(_Sample(
            prompt_ids=model.vocab.encode(inst.prompt),
            response_ids=model.vocab.encode(inst.response),
            image=image,
            source_id=inst.source_id,
        ))
    return samples


def _batch_loss(model: MultimodalModel, batch: Sequence[_Sample]) -> tuple[Tensor, float]:
    """Pooled mean NLL over all masked positions in the batch."""
    weighted = None
    total_count = 0
    for sample in batch:
        visual = model.visual_tokens(sample.image) if sample.image is not None else None
        try:
            assembled = model.assemble_sequence(sample.prompt_ids, visual, sample.response_ids)
        except BudgetError as exc:
            raise DataError(f"sample {sample.source_id!r}: {exc}") from exc
        loss, count = model.loss(assembled)
        term = loss * float(count)
        weighted = term if weighted is None else weighted + term
        total_count += count
    return weighted * (1.0 / total_count), float(weighted.data) / total_count


def validation_loss(model: MultimodalModel, dataset: Sequence[PromptInstance]) -> float:
    """Pooled mean NLL over a dataset, no gradients."""
    samples = _prepare_samples(model, dataset)
    with no_grad():
        _, value = _batch_loss(model, samples)
    return value


def run_stage(model: MultimodalModel, dataset: Sequence[PromptInstance],
              cfg: StageConfig, val_dataset: Sequence[PromptInstance] | None = None) -> TrainLog:
    """Train one stage in place and return its log.

    Exactly the freeze-plan parameters may change; everything else is
    bit-identical afterwards (the log's digests prove it). lora mode attaches
    default adapters when none are present. A NaN or inf in a batch's loss
    or in a trainable gradient stops the stage before that update. Errors
    name the stage.
    """
    try:
        return _train_stage(model, dataset, cfg, val_dataset)
    except TinymmtError as exc:
        raise type(exc)(f"stage {cfg.stage}: {exc}") from exc


def _train_stage(model: MultimodalModel, dataset: Sequence[PromptInstance],
                 cfg: StageConfig, val_dataset: Sequence[PromptInstance] | None) -> TrainLog:
    if not dataset:
        raise DataError("run_stage: dataset is empty")

    if cfg.mode == "lora" and not model.lora_adapters:
        lora_attach(model, seed=cfg.seed)

    plan = freeze_plan(model, cfg)
    model.params.set_trainable(plan)
    trainable = sorted(plan)
    state = AdamState(model.params, lr=cfg.lr)
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x57A6E]))

    samples = _prepare_samples(model, dataset)
    log = TrainLog(stage=cfg.stage)
    log.digests_pre = model.params.component_digests()
    started = time.monotonic()

    step = 0
    done = False
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), cfg.batch_size):
            batch = [samples[i] for i in order[start: start + cfg.batch_size]]
            # a diverging step is reported by the non-finite check below
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                loss, loss_value = _batch_loss(model, batch)
                backward(loss)
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
        if val_dataset:
            log.val_losses.append({
                "epoch": epoch + 1,
                "val_loss": validation_loss(model, val_dataset),
            })
        if done:
            break

    log.digests_post = model.params.component_digests()
    log.wall_clock_s = time.monotonic() - started
    return log


def run_pipeline(model: MultimodalModel, stage_configs: Sequence[StageConfig],
                 datasets: dict[int, Sequence[PromptInstance]], out_dir,
                 val_datasets: dict[int, Sequence[PromptInstance]] | None = None
                 ) -> tuple[MultimodalModel, list[TrainLog]]:
    """Run an ordered subset of stages, checkpointing after each.

    Stage numbers must be strictly increasing; [1, 3] (skip instruction
    tuning) and stopping after [1, 2] are both legitimate schedules. Each
    stage resumes from the in-memory model the previous stage produced, and a
    checkpoint lands in out_dir per stage.
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
        val = (val_datasets or {}).get(cfg.stage)
        log = run_stage(model, datasets[cfg.stage], cfg, val_dataset=val)
        logs.append(log)
        model.provenance.append(cfg.summary())
        save_checkpoint(model, out_dir / f"stage{cfg.stage}.ckpt")
        log.write_jsonl(out_dir / f"stage{cfg.stage}.log.jsonl")
    return model, logs
