"""Learning-rate / epoch grid search over stage-3 finetuning runs."""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from tinymmt.datapipe.images import make_synth_loader
from tinymmt.datapipe.records import PromptInstance
from tinymmt.errors import DataError
from tinymmt.metrics.bleu import bleu
from tinymmt.metrics.tokenizer import tokenize
from tinymmt.model.multimodal import MultimodalModel
from tinymmt.training.loop import run_stage, validation_loss
from tinymmt.training.stages import StageConfig


def decode_instances(model: MultimodalModel, dataset: Sequence[PromptInstance],
                     max_new_tokens: int | None = None) -> list[tuple[np.ndarray, int | None]]:
    """Greedy token ids and the decode budget they had, for each instance.

    The budget is the context left after the prompt, capped at
    max_new_tokens when given; the reference response is never consulted.
    An output as long as its budget ran out of budget, any shorter one
    ended at <eos>. An instance whose prompt alone overflows c_total gets
    an empty output and budget None, so one long prompt aborts nothing.
    """
    load_image = make_synth_loader(model.config.image_size)
    out: list[tuple[np.ndarray, int | None]] = []
    for inst in dataset:
        prompt = model.vocab.encode(inst.prompt)
        budget = model.context_room(prompt, inst.image_id is not None)
        if budget < 0:
            out.append((np.zeros(0, dtype=np.int64), None))
            continue
        if max_new_tokens is not None:
            budget = min(budget, max_new_tokens)
        image = load_image(inst.image_id) if inst.image_id is not None else None
        out.append((model.generate(prompt, image, max_new_tokens=budget), budget))
    return out


def generate_hypotheses(model: MultimodalModel, dataset: Sequence[PromptInstance],
                        max_new_tokens: int | None = None) -> list[str]:
    """Greedy hypotheses for each instance's prompt, decoded to text."""
    return [model.vocab.decode(ids, on_special="skip")
            for ids, _ in decode_instances(model, dataset, max_new_tokens)]


def evaluate_bleu(model: MultimodalModel, dataset: Sequence[PromptInstance],
                  smooth: bool = False) -> float:
    hyps = generate_hypotheses(model, dataset)
    return bleu([tokenize(h) for h in hyps],
                [tokenize(inst.response) for inst in dataset], smooth=smooth)


def hyperparameter_sweep(
    base_model: MultimodalModel,
    train_dataset: Sequence[PromptInstance],
    val_dataset: Sequence[PromptInstance],
    stage: StageConfig,
    lrs: Sequence[float],
    epochs_list: Sequence[int],
) -> list[dict]:
    """Train one run of `stage` per (lr, epochs) cell from a shared starting
    model; each cell is `stage` with its lr and epochs replaced.

    Rows come back ranked by validation BLEU (descending, validation loss as
    the tiebreaker); a cell that fails while it trains or scores keeps its
    slot with an 'error' field instead of aborting the sweep. An invalid lr
    or epochs value raises ConfigError before any cell trains. Every cell
    starts from a clone of base_model and uses the stage's seed, so the
    ranking is reproducible.
    """
    if not lrs or not epochs_list:
        raise DataError("sweep grid is empty")
    cells = [dataclasses.replace(stage, lr=lr, epochs=epochs)
             for lr in lrs for epochs in epochs_list]

    rows: list[dict] = []
    for cfg in cells:
        row: dict = {"lr": cfg.lr, "epochs": cfg.epochs, "error": None}
        try:
            model = base_model.clone()
            run_stage(model, train_dataset, cfg)
            # an instance whose prompt overflows c_total scores an empty
            # hypothesis and has no loss
            fits = [inst for inst in val_dataset if model.context_room(
                model.vocab.encode(inst.prompt), inst.image_id is not None) >= 0]
            if not fits:
                raise DataError("no validation prompt fits the context budget")
            row.update(bleu=evaluate_bleu(model, val_dataset, smooth=True),
                       val_loss=validation_loss(model, fits),
                       prompt_overflow=len(val_dataset) - len(fits))
        except Exception as exc:  # propagate per-cell, keep sweeping
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    def rank_key(row: dict):
        failed = row["error"] is not None
        return (failed, -row.get("bleu", 0.0), row.get("val_loss", float("inf")))

    return sorted(rows, key=rank_key)
