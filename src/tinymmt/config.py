"""Declarative run configuration (JSON) and its validator.

One file drives every command; all randomness flows from the single master
seed (commands never read system entropy), so any command repeated with the
same config and seed reproduces its outputs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from tinymmt.atomic import read_text
from tinymmt.errors import ConfigError
from tinymmt.datapipe.records import LANGS, SPLITS, TASKS
from tinymmt.model.config import ModelConfig
from tinymmt.training.stages import StageConfig, derive_stage_seed


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
    # JSON true/false are bools, not numbers, though bool subclasses int
    _expect(isinstance(value, types) and (types is bool or not isinstance(value, bool)),
            f"{where}.{key}", f"expected {types}, got {type(value).__name__}")
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
    """A configured stage: its settings and the instance files that feed it."""

    config: StageConfig
    data: tuple[str, ...]
    mix_cap: int | None = None


_TOP_KEYS = ("seed", "out_dir", "model", "data", "train")
_TRAIN_KEYS = ("stages", "val")
_DATA_KEYS = tuple(f.name for f in fields(DataSection))
_STAGE_KEYS = ("data", "mix_cap", *(f.name for f in fields(StageConfig)))
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


def _present(raw: dict, kinds: dict, where: str, nullable=()) -> dict:
    """The keys of `kinds` that `raw` sets, type-checked; the dataclass
    defaults fill in the rest."""
    return {key: _typed(raw, key, kind, where, allow_none=key in nullable)
            for key, kind in kinds.items() if key in raw}


def _parse_data(raw: dict) -> DataSection:
    where = "data"
    _check_keys(raw, _DATA_KEYS, "data.")
    data = DataSection(**_present(raw, {
        "tsv": dict, "detections_dir": str, "tasks": list, "iou_threshold": (int, float),
        "all_labels": bool, "strict": bool, "instances_dir": str,
    }, where, nullable=("detections_dir",)))
    for lang, splits in data.tsv.items():
        _expect(lang in LANGS, f"{where}.tsv", f"unknown language {lang!r}")
        _expect(isinstance(splits, dict), f"{where}.tsv.{lang}", "expected a split -> path map")
        for split, path in splits.items():
            _expect(split in SPLITS, f"{where}.tsv.{lang}", f"unknown split {split!r}")
            _expect(isinstance(path, str), f"{where}.tsv.{lang}.{split}", "expected a path string")
    data.tasks = tuple(data.tasks)
    for task in data.tasks:
        _expect(task in TASKS, f"{where}.tasks", f"unknown task {task!r}")
    data.iou_threshold = float(data.iou_threshold)
    _expect(0.0 <= data.iou_threshold <= 1.0, f"{where}.iou_threshold", "must be in [0, 1]")
    return data


def _parse_stage(raw: dict, index: int, master_seed: int) -> StageSpec:
    where = f"train.stages[{index}]"
    _expect(isinstance(raw, dict), where, "expected an object")
    _check_keys(raw, _STAGE_KEYS, where + ".")
    stage = _typed(raw, "stage", int, where)
    data = _typed(raw, "data", list, where)
    _expect(all(isinstance(p, str) for p in data), f"{where}.data", "expected path strings")
    _expect(len(data) > 0, f"{where}.data", "at least one instance file required")
    settings = _present(raw, {
        "seed": int, "lr": (int, float), "epochs": int, "batch_size": int, "mode": str,
        "max_steps": int,
    }, where, nullable=("seed", "lr", "epochs", "max_steps"))
    if settings.get("seed") is None:  # derived once the stage number is known to be good
        settings.pop("seed", None)
    try:
        config = StageConfig(stage=stage, **settings)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if "seed" not in settings:
        config.seed = derive_stage_seed(master_seed, stage)
    return StageSpec(config=config, data=tuple(data),
                     **_present(raw, {"mix_cap": int}, where, nullable=("mix_cap",)))


def load_config(path, seed: int | None = None) -> RunConfig:
    """Parse and check a run config; `seed` replaces its master seed, and
    stage seeds derive from the result."""
    path = Path(path)
    try:
        raw = json.loads(read_text(path, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), str(path), "top level must be an object")
    _check_keys(raw, _TOP_KEYS, "")
    if seed is None:
        seed = _typed(raw, "seed", int, "config", default=0)
    _expect(seed >= 0, "seed", f"must be >= 0, got {seed}")
    model = _typed(raw, "model", dict, "config", default={})
    _check_keys(model, _MODEL_KEYS, "model.")

    train_raw = _typed(raw, "train", dict, "config", default={})
    _check_keys(train_raw, _TRAIN_KEYS, "train.")
    stages_raw = _typed(train_raw, "stages", list, "train", default=[])
    stages = [_parse_stage(s, i, seed) for i, s in enumerate(stages_raw)]
    numbers = [s.config.stage for s in stages]
    _expect(all(b > a for a, b in zip(numbers, numbers[1:])), "train.stages",
            f"stage numbers must be strictly increasing, got {numbers}")

    val_files = tuple(_typed(train_raw, "val", list, "train", default=[]))
    _expect(all(isinstance(p, str) for p in val_files), "train.val", "expected path strings")

    return RunConfig(
        seed=seed,
        out_dir=_typed(raw, "out_dir", str, "config"),
        model=model,
        data=_parse_data(_typed(raw, "data", dict, "config", default={})),
        stages=stages,
        val_files=val_files,
        base_dir=path.parent.resolve(),
    )
