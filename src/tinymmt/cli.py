"""Command-line surface: prepare-data, train, generate, evaluate, report, sweep.

Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 runtime
failures. Output files are written atomically (temp + rename), and every
command is deterministic given the same inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import unicodedata
from pathlib import Path

from tinymmt.atomic import atomic_write, read_lines
from tinymmt.config import RunConfig, load_config
from tinymmt.datapipe import (
    LANGS,
    SPLITS,
    TASKS,
    DetectedObject,
    PromptInstance,
    VgRecord,
    corpus_stats,
    load_detections,
    mix_samples,
    parse_vg_tsv,
    read_instances,
    render_prompt,
    select_tag,
    text_only_prompt,
    write_instances,
)
from tinymmt.errors import ConfigError, DataError, TinymmtError
from tinymmt.metrics import evaluate_files, format_leaderboard, read_reports, write_report
from tinymmt.model import ModelConfig, MultimodalModel, Vocabulary
from tinymmt.training import hyperparameter_sweep, load_checkpoint, run_pipeline
from tinymmt.training.stages import STAGE_MODES, SWEEP_EPOCHS, SWEEP_LRS
from tinymmt.training.sweep import decode_instances


def _json_dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# prepare-data

def _record_tags(cfg: RunConfig, detections_dir: Path | None, records: list[VgRecord],
                 detections: dict[str, list[DetectedObject]]) -> list[str | list[str] | None]:
    """Each record's object labels: the best-IoU detection, or all of them.

    `detections` maps image id to its detector output for the whole run, so
    each image's file is read once however many records and splits share it.
    """
    all_labels, threshold = cfg.data.all_labels, cfg.data.iou_threshold
    tags = []
    for rec in records:
        dets = detections.get(rec.image_id)
        if dets is None:
            dets = detections[rec.image_id] = load_detections(detections_dir, rec.image_id)
        if all_labels:
            tags.append([d.label for d in dets] or None)
        else:
            tags.append(select_tag(rec.box, dets, threshold))
    return tags


def cmd_prepare_data(cfg: RunConfig, task_filter: str | None) -> int:
    tasks = cfg.data.tasks if task_filter is None else (task_filter,)
    grounded = sum(task != "text_only" for task in tasks)  # tasks that carry a tag
    if not cfg.data.tsv:
        raise ConfigError("data.tsv: no input files configured")
    instances_dir = cfg.out_path / cfg.data.instances_dir
    instances_dir.mkdir(parents=True, exist_ok=True)

    detections_dir = None
    if cfg.data.detections_dir is not None:
        detections_dir = cfg.resolve(cfg.data.detections_dir)
        if not detections_dir.exists() and grounded:
            print(f"warning: detections dir {detections_dir} not found; "
                  "prompts will carry no object labels", file=sys.stderr)
            detections_dir = None
    elif grounded:
        print("warning: no detections_dir configured; prompts will carry no object labels",
              file=sys.stderr)

    detections: dict[str, list[DetectedObject]] = {}
    all_stats = {}
    for lang in sorted(cfg.data.tsv):
        records_by_split = {}
        for split in sorted(cfg.data.tsv[lang]):
            tsv_path = cfg.resolve(cfg.data.tsv[lang][split])
            if not tsv_path.exists():
                raise DataError(f"TSV file not found: {tsv_path}")
            result = parse_vg_tsv(tsv_path, lang, split, strict=cfg.data.strict)
            for issue in result.issues:
                print(f"warning: {tsv_path}:{issue.line_no}: skipped ({issue.reason})",
                      file=sys.stderr)
            records = records_by_split[split] = result.records

            # text_only ignores the tag, so a text_only run reads no detector file
            tags = (_record_tags(cfg, detections_dir, records, detections) if grounded
                    else [None] * len(records))
            untagged = tags.count(None) * grounded
            for task in tasks:
                instances = [render_prompt(rec, task, tag) for rec, tag in zip(records, tags)]
                out_path = instances_dir / f"{task}.{lang}.{split}.jsonl"
                write_instances(out_path, instances)
                print(f"wrote {len(instances)} {task} instances -> {out_path}")
            if untagged:
                print(f"warning: {lang}/{split}: {untagged} grounded prompts rendered "
                      "without a labels clause (no detection met the IoU threshold)",
                      file=sys.stderr)

        flat = [rec for split_records in records_by_split.values() for rec in split_records]
        all_stats[lang] = corpus_stats(flat)
        for split, s in all_stats[lang].items():
            avg = ", ".join(f"{l}={v:.2f}" for l, v in s["avg_tokens"].items())
            print(f"{lang}/{split}: {s['count']} records, avg tokens {avg}")

    atomic_write(cfg.out_path / "stats.json", _json_dumps(all_stats))
    return 0


# ----------------------------------------------------------------------
# train

def _load_stage_datasets(cfg: RunConfig) -> tuple[dict[int, list[PromptInstance]], list[PromptInstance]]:
    datasets: dict[int, list[PromptInstance]] = {}
    for spec in cfg.stages:
        stage = spec.config.stage
        corpora = []
        for rel in spec.data:
            path = cfg.resolve(rel)
            if not path.exists():
                raise DataError(f"stage {stage}: instance file not found: {path}")
            corpora.append(read_instances(path))
        if spec.mix_cap is not None:
            datasets[stage] = mix_samples(corpora, spec.mix_cap, spec.config.seed)
        else:
            datasets[stage] = [inst for records in corpora for inst in records]
        if not datasets[stage]:
            raise DataError(f"stage {stage}: no instances loaded")
    val = []
    for rel in cfg.val_files:
        path = cfg.resolve(rel)
        if not path.exists():
            raise DataError(f"validation instance file not found: {path}")
        val.extend(read_instances(path))
    return datasets, val


def _build_model(cfg: RunConfig, datasets: dict[int, list[PromptInstance]],
                 val: list[PromptInstance]) -> MultimodalModel:
    texts = []
    for instances in datasets.values():
        for inst in instances:
            texts.append(inst.prompt)
            texts.append(inst.response)
    for inst in val:
        texts.append(inst.prompt)
        texts.append(inst.response)
    vocab = Vocabulary.from_texts(texts)
    return MultimodalModel(ModelConfig(**cfg.model, vocab_size=len(vocab)), vocab, seed=cfg.seed)


def cmd_train(cfg: RunConfig, stages_filter: list[int] | None,
              stage3_mode: str | None) -> int:
    if not cfg.stages:
        raise ConfigError("train.stages: nothing to train")
    stage_cfgs = [s.config for s in cfg.stages
                  if stages_filter is None or s.config.stage in stages_filter]
    if not stage_cfgs:
        raise ConfigError(f"--stages {stages_filter} selects none of the configured stages")
    if stage3_mode is not None:
        if all(c.stage != 3 for c in stage_cfgs):
            raise ConfigError("--stage3-mode: the selected stages hold no stage 3")
        stage_cfgs = [dataclasses.replace(c, mode=stage3_mode) if c.stage == 3 else c
                      for c in stage_cfgs]

    datasets, val = _load_stage_datasets(cfg)
    model = _build_model(cfg, datasets, val)

    model, logs = run_pipeline(model, stage_cfgs, datasets, cfg.out_path, val)
    for log in logs:
        for comp in sorted(log.digests_pre):
            status = "changed" if log.digests_pre[comp] != log.digests_post[comp] else "frozen"
            print(f"stage {log.stage}: {comp:8s} {status} "
                  f"({log.digests_pre[comp][:12]} -> {log.digests_post[comp][:12]})")
        last = log.steps[-1]["loss"] if log.steps else float("nan")
        print(f"stage {log.stage}: {len(log.steps)} steps, final loss {last:.4f}")
    print(f"checkpoints and logs in {cfg.out_path}")
    return 0


# ----------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    if args.max_new_tokens is not None and args.max_new_tokens < 0:
        raise ConfigError(f"--max-new-tokens must be >= 0, got {args.max_new_tokens}")
    # each kind of input reads its own flags, and a flag it would ignore is an error
    if args.raw_sentences:
        if args.lang is None:
            raise ConfigError("--lang is required with --raw-sentences")
        if args.lang not in LANGS:
            raise ConfigError(f"unknown language {args.lang!r}")
        for flag, value in (("--task", args.task), ("--no-image", args.no_image)):
            if value:
                raise ConfigError(f"{flag} does not apply to --raw-sentences input")
    elif args.lang is not None:
        raise ConfigError("--lang applies only to --raw-sentences input; "
                          "instance files carry their own language")
    model = load_checkpoint(args.checkpoint)
    input_path = Path(args.input)
    if not input_path.exists():
        raise DataError(f"input file not found: {input_path}")

    if args.raw_sentences:
        lines = read_lines(input_path)
        instances = [
            PromptInstance(
                task="text_only",
                # NFC, as TSV ingestion normalizes every sentence
                prompt=text_only_prompt(args.lang, unicodedata.normalize("NFC", line)),
                response="",
                lang=args.lang,
                source_id=f"{input_path}:{line_no}",
            )
            for line_no, line in enumerate(lines, start=1) if line
        ]
    else:
        instances = read_instances(input_path)
        if args.task is not None:
            instances = [inst for inst in instances if inst.task == args.task]
        if args.no_image:
            instances = [inst._replace(image_id=None) for inst in instances]

    decoded = decode_instances(model, instances, max_new_tokens=args.max_new_tokens)
    hyps = [model.vocab.decode(ids) for ids, _ in decoded]
    if args.raw_sentences:  # a blank input line keeps its place as an empty hypothesis
        decoded_hyps = iter(hyps)
        hyps = [next(decoded_hyps) if line else "" for line in lines]
    atomic_write(args.out, "".join(h + "\n" for h in hyps))
    print(f"wrote {len(hyps)} hypotheses -> {args.out}")
    overflow = [inst.source_id for inst, (_, budget) in zip(instances, decoded) if budget is None]
    for source_id in overflow:
        print(f"warning: {source_id}: prompt overflows c_total={model.config.c_total}; "
              "wrote an empty hypothesis", file=sys.stderr)
    stop_budget = sum(len(ids) == budget for ids, budget in decoded)
    print(json.dumps({"sentences": len(hyps), "tokens": sum(len(ids) for ids, _ in decoded),
                      "blank": len(hyps) - len(decoded),
                      "stop_eos": len(decoded) - stop_budget - len(overflow),
                      "stop_budget": stop_budget, "prompt_overflow": len(overflow)},
                     sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# evaluate / report

def cmd_evaluate(args) -> int:
    report = evaluate_files(args.hyp, args.ref, args.lang, split=args.split,
                            smooth=args.smooth)
    if args.out:
        write_report(report, args.out)
    print(json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    reports = read_reports(args.reports)
    table = format_leaderboard(reports, label=args.label)
    if args.out:
        atomic_write(args.out, table)
    print(table, end="")
    return 0


# ----------------------------------------------------------------------
# sweep

def cmd_sweep(cfg: RunConfig, checkpoint: str, lrs: list[float], epochs: list[int]) -> int:
    """Train the config's stage-3 entry once per (lr, epochs) cell from one
    checkpoint, validating on train.val."""
    stage3 = [s for s in cfg.stages if s.config.stage == 3]
    if not stage3:
        raise ConfigError("train.stages: the sweep trains the stage-3 entry, and there is none")
    if not cfg.val_files:
        raise ConfigError("train.val: the sweep validates on these files, and there are none")
    base = load_checkpoint(cfg.resolve(checkpoint))
    datasets, val = _load_stage_datasets(dataclasses.replace(cfg, stages=stage3))
    rows = hyperparameter_sweep(base, datasets[3], val, stage3[0].config, lrs, epochs)
    out_path = cfg.out_path / "sweep.json"
    atomic_write(out_path, _json_dumps(rows))
    print(f"{'lr':>8}  {'epochs':>6}  {'bleu':>6}  {'val_loss':>9}  error")
    for row in rows:
        bleu_s = f"{row['bleu']:.1f}" if "bleu" in row else "-"
        loss_s = f"{row['val_loss']:.4f}" if "val_loss" in row else "-"
        print(f"{row['lr']:>8g}  {row['epochs']:>6d}  {bleu_s:>6}  {loss_s:>9}  "
              f"{row['error'] or '-'}")
    print(f"ranked table -> {out_path}")
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinymmt",
        description="Desk-scale grounded multimodal machine translation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override the config master seed")
        p.add_argument("--out-dir", default=None, help="override the config output directory")

    p = sub.add_parser("prepare-data", help="parse TSVs and render instruction instances")
    config_flags(p)
    p.add_argument("--task", choices=TASKS, default=None,
                   help="render only this task")

    p = sub.add_parser("train", help="run the staged training pipeline")
    config_flags(p)
    p.add_argument("--stages", default=None,
                   help="comma-separated subset of configured stages, e.g. 1,3")
    p.add_argument("--stage3-mode", choices=STAGE_MODES, default=None,
                   help="override stage-3 finetuning mode")

    p = sub.add_parser("generate", help="greedy decoding from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True,
                   help="instance JSONL, or a plain sentence file with --raw-sentences")
    p.add_argument("--out", required=True)
    p.add_argument("--task", choices=TASKS, default=None,
                   help="keep only instances of this task")
    p.add_argument("--lang", default=None)
    p.add_argument("--raw-sentences", action="store_true",
                   help="treat input as one English sentence per line")
    p.add_argument("--no-image", action="store_true",
                   help="drop image grounding (text-only prompting)")
    p.add_argument("--max-new-tokens", type=int, default=None)

    p = sub.add_parser("evaluate", help="score a hypothesis file against a reference file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--lang", choices=LANGS, required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--smooth", action="store_true", help="epsilon-smooth zero precisions")
    p.add_argument("--out", default=None, help="write the report JSON here")

    p = sub.add_parser("report", help="assemble a leaderboard-style table from reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--label", default="ours")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="learning-rate/epoch grid over the config's stage 3")
    config_flags(p)
    p.add_argument("--checkpoint", required=True, help="starting model (e.g. stage2.ckpt)")
    p.add_argument("--lrs", default=",".join(map(str, SWEEP_LRS)))
    p.add_argument("--epochs", default=",".join(map(str, SWEEP_EPOCHS)))

    return parser


def _numbers(flag: str, text: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _dispatch(args) -> int:
    if args.command in ("prepare-data", "train", "sweep"):
        cfg = load_config(args.config, seed=args.seed)
        if args.out_dir is not None:
            cfg.out_dir = args.out_dir
        if args.command == "prepare-data":
            return cmd_prepare_data(cfg, args.task)
        if args.command == "train":
            stages = _numbers("--stages", args.stages, int) if args.stages else None
            return cmd_train(cfg, stages, args.stage3_mode)
        return cmd_sweep(cfg, args.checkpoint, _numbers("--lrs", args.lrs, float),
                         _numbers("--epochs", args.epochs, int))
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "evaluate":
        return cmd_evaluate(args)
    if args.command == "report":
        return cmd_report(args)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TinymmtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
