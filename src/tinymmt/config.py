"""Declarative run configuration (JSON) and its validator.

One file drives every command; all randomness flows from the single master
seed (commands never read system entropy), so any command repeated with the
same config and seed reproduces its outputs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from tinymmt.errors import ConfigError
from tinymmt.datapipe.records import LANGS, SPLITS, TASKS
from tinymmt.model.config import ModelConfig


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _check_keys(raw: dict, allowed, prefix: str) -> None:
    """Reject any key outside `allowed`, naming its dotted path."""
    for key in sorted(raw):
        _expect(key in allowed, prefix + key, f"unknown key (allowed: {', '.join(allowed)})")


def _typed(d: dict, key: str, types, where: str, default=..., allow_none: bool = False):
    if key not in d:
        _expect(default is not ..., where, f"missing required key {key!r}")
        return default
    value = d[key]
    if value is None and allow_none:
        return None
    _expect(isinstance(value, types), f"{where}.{key}",
            f"expected {types}, got {type(value).__name__}")
    return value


@dataclass
class DataSection:
    tsv: dict[str, dict[str, str]] = field(default_factory=dict)  # lang -> split -> path
    detections_dir: str | None = None
    tasks: tuple[str, ...] = ("mmt",)
    iou_threshold: float = 0.1
    all_labels: bool = False
    strict: bool = True
    instances_dir: str = "instances"


@dataclass
class StageSpec:
    stage: int
    data: tuple[str, ...]
    lr: float | None = None
    epochs: int | None = None
    batch_size: int = 8
    mode: str = "full"
    max_steps: int | None = None
    mix_cap: int | None = None
    seed: int | None = None  # default: derived from the master seed by stage


_TOP_KEYS = ("seed", "out_dir", "model", "data", "train")
_TRAIN_KEYS = ("stages", "val")
_DATA_KEYS = tuple(f.name for f in fields(DataSection))
_STAGE_KEYS = tuple(f.name for f in fields(StageSpec))
# vocab_size is not settable: train derives it from the data
_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "vocab_size")


@dataclass
class RunConfig:
    seed: int
    out_dir: str
    model: dict
    data: DataSection
    stages: list[StageSpec]
    val_files: tuple[str, ...]
    base_dir: Path  # directory of the config file; relative paths resolve here

    def resolve(self, path_str: str) -> Path:
        p = Path(path_str)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def out_path(self) -> Path:
        return self.resolve(self.out_dir)


def _parse_data(raw: dict) -> DataSection:
    where = "data"
    _check_keys(raw, _DATA_KEYS, "data.")
    tsv = _typed(raw, "tsv", dict, where, default={})
    for lang, splits in tsv.items():
        _expect(lang in LANGS, f"{where}.tsv", f"unknown language {lang!r}")
        _expect(isinstance(splits, dict), f"{where}.tsv.{lang}", "expected a split -> path map")
        for split, path in splits.items():
            _expect(split in SPLITS, f"{where}.tsv.{lang}", f"unknown split {split!r}")
            _expect(isinstance(path, str), f"{where}.tsv.{lang}.{split}", "expected a path string")
    tasks = tuple(_typed(raw, "tasks", list, where, default=["mmt"]))
    for task in tasks:
        _expect(task in TASKS, f"{where}.tasks", f"unknown task {task!r}")
    threshold = float(_typed(raw, "iou_threshold", (int, float), where, default=0.1))
    _expect(0.0 <= threshold <= 1.0, f"{where}.iou_threshold", "must be in [0, 1]")
    return DataSection(
        tsv=tsv,
        detections_dir=_typed(raw, "detections_dir", str, where, default=None, allow_none=True),
        tasks=tasks,
        iou_threshold=threshold,
        all_labels=_typed(raw, "all_labels", bool, where, default=False),
        strict=_typed(raw, "strict", bool, where, default=True),
        instances_dir=_typed(raw, "instances_dir", str, where, default="instances"),
    )


def _parse_stage(raw: dict, index: int) -> StageSpec:
    where = f"train.stages[{index}]"
    _expect(isinstance(raw, dict), where, "expected an object")
    _check_keys(raw, _STAGE_KEYS, where + ".")
    stage = _typed(raw, "stage", int, where)
    _expect(stage in (1, 2, 3), where, f"stage must be 1, 2 or 3, got {stage}")
    data = _typed(raw, "data", list, where)
    _expect(all(isinstance(p, str) for p in data), f"{where}.data", "expected path strings")
    _expect(len(data) > 0, f"{where}.data", "at least one instance file required")
    mode = _typed(raw, "mode", str, where, default="full")
    _expect(mode in ("full", "lora"), f"{where}.mode", f"must be 'full' or 'lora', got {mode!r}")
    lr = _typed(raw, "lr", (int, float), where, default=None, allow_none=True)
    return StageSpec(
        stage=stage,
        data=tuple(data),
        lr=None if lr is None else float(lr),
        epochs=_typed(raw, "epochs", int, where, default=None, allow_none=True),
        batch_size=_typed(raw, "batch_size", int, where, default=8),
        mode=mode,
        max_steps=_typed(raw, "max_steps", int, where, default=None, allow_none=True),
        mix_cap=_typed(raw, "mix_cap", int, where, default=None, allow_none=True),
        seed=_typed(raw, "seed", int, where, default=None, allow_none=True),
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), str(path), "top level must be an object")
    _check_keys(raw, _TOP_KEYS, "")
    model = _typed(raw, "model", dict, "config", default={})
    _check_keys(model, _MODEL_KEYS, "model.")

    train_raw = _typed(raw, "train", dict, "config", default={})
    _check_keys(train_raw, _TRAIN_KEYS, "train.")
    stages_raw = _typed(train_raw, "stages", list, "train", default=[])
    stages = [_parse_stage(s, i) for i, s in enumerate(stages_raw)]
    numbers = [s.stage for s in stages]
    _expect(all(b > a for a, b in zip(numbers, numbers[1:])), "train.stages",
            f"stage numbers must be strictly increasing, got {numbers}")

    val_files = tuple(_typed(train_raw, "val", list, "train", default=[]))
    _expect(all(isinstance(p, str) for p in val_files), "train.val", "expected path strings")

    return RunConfig(
        seed=_typed(raw, "seed", int, "config", default=0),
        out_dir=_typed(raw, "out_dir", str, "config"),
        model=model,
        data=_parse_data(_typed(raw, "data", dict, "config", default={})),
        stages=stages,
        val_files=val_files,
        base_dir=path.parent.resolve(),
    )
