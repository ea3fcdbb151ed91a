"""Declarative run configuration (JSON) and its validator.

One file drives every command; all randomness flows from the single master
seed (commands never read system entropy), so any command repeated with the
same config and seed reproduces its outputs byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from tinymmt.atomic import NUMBER, json_fields, parse_json, read_text
from tinymmt.errors import ConfigError
from tinymmt.datapipe.records import LANGS, SPLITS, TASKS
from tinymmt.model.config import ModelConfig
from tinymmt.model.vocab import N_SPECIALS
from tinymmt.training.stages import StageConfig, derive_stage_seed


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _expect_path(where: str, path: str | None) -> None:
    # no file system path holds a NUL, and pathlib only fails on one when it opens it
    _expect(path is None or "\0" not in path, where, "a path cannot hold a NUL character")


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


# each section's field table: key -> the JSON types its value may take
_TOP_FIELDS = {"seed": int, "out_dir": str, "model": dict, "data": dict, "train": dict}
_TRAIN_FIELDS = {"stages": list, "val": list}
_DATA_FIELDS = {"tsv": dict, "detections_dir": (str, type(None)), "tasks": list,
                "iou_threshold": NUMBER, "all_labels": bool, "strict": bool,
                "instances_dir": str}
_STAGE_FIELDS = {"stage": int, "data": list, "lr": (*NUMBER, type(None)), "batch_size": int,
                 "mode": str, **dict.fromkeys(("mix_cap", "seed", "epochs", "max_steps"),
                                              (int, type(None)))}
# vocab_size is not settable: train derives it from the data
_MODEL_FIELDS = {f.name: type(f.default) for f in fields(ModelConfig) if f.name != "vocab_size"}


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
    data = DataSection(**json_fields(raw, _DATA_FIELDS, "data", ConfigError, ()))
    for lang, splits in json_fields(data.tsv, dict.fromkeys(LANGS, dict), "data.tsv",
                                    ConfigError, ()).items():
        for split, path in json_fields(splits, dict.fromkeys(SPLITS, str), f"data.tsv.{lang}",
                                       ConfigError, ()).items():
            _expect_path(f"data.tsv.{lang}.{split}", path)
    _expect_path("data.detections_dir", data.detections_dir)
    _expect_path("data.instances_dir", data.instances_dir)
    data.tasks = tuple(data.tasks)
    for task in data.tasks:
        _expect(task in TASKS, "data.tasks", f"unknown task {task!r}")
    data.iou_threshold = float(data.iou_threshold)
    _expect(0.0 <= data.iou_threshold <= 1.0, "data.iou_threshold", "must be in [0, 1]")
    return data


def _parse_stage(raw, index: int, master_seed: int) -> StageSpec:
    where = f"train.stages[{index}]"
    settings = dict(json_fields(raw, _STAGE_FIELDS, where, ConfigError, ("stage", "data")))
    data, mix_cap = settings.pop("data"), settings.pop("mix_cap", None)
    _expect(all(isinstance(p, str) for p in data), f"{where}.data", "expected path strings")
    _expect(len(data) > 0, f"{where}.data", "at least one instance file required")
    for data_file in data:
        _expect_path(f"{where}.data", data_file)
    _expect(mix_cap is None or mix_cap >= 1, where, f"mix_cap must be >= 1, got {mix_cap}")
    if settings.get("seed") is None:  # derived once the stage number is known to be good
        settings.pop("seed", None)
    try:
        config = StageConfig(**settings)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if "seed" not in settings:
        config.seed = derive_stage_seed(master_seed, config.stage)
    return StageSpec(config=config, data=tuple(data), mix_cap=mix_cap)


def load_config(path, seed: int | None = None) -> RunConfig:
    """Parse and check a run config; `seed` replaces its master seed, and
    stage seeds derive from the result."""
    path = Path(path)
    raw = json_fields(parse_json(read_text(path, ConfigError), path, ConfigError),
                      _TOP_FIELDS, path, ConfigError, ("out_dir",))
    _expect_path("out_dir", raw["out_dir"])
    seed = raw.get("seed", 0) if seed is None else seed
    _expect(seed >= 0, "seed", f"must be >= 0, got {seed}")
    model = json_fields(raw.get("model", {}), _MODEL_FIELDS, "model", ConfigError, ())
    # checks the section's values; train builds the model's with the data's vocab_size
    ModelConfig(**model, vocab_size=N_SPECIALS)

    train = json_fields(raw.get("train", {}), _TRAIN_FIELDS, "train", ConfigError, ())
    stages = [_parse_stage(s, i, seed) for i, s in enumerate(train.get("stages", []))]
    numbers = [s.config.stage for s in stages]
    _expect(all(b > a for a, b in zip(numbers, numbers[1:])), "train.stages",
            f"stage numbers must be strictly increasing, got {numbers}")

    val_files = tuple(train.get("val", ()))
    _expect(all(isinstance(p, str) for p in val_files), "train.val", "expected path strings")
    for val_file in val_files:
        _expect_path("train.val", val_file)

    return RunConfig(
        seed=seed,
        out_dir=raw["out_dir"],
        model=model,
        data=_parse_data(raw.get("data", {})),
        stages=stages,
        val_files=val_files,
        base_dir=path.parent.resolve(),
    )
