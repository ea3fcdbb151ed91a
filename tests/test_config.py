import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import tinymmt
from tinymmt.cli import main
from tinymmt.config import StageSpec, load_config
from tinymmt.errors import ConfigError
from tinymmt.model import ModelConfig
from tinymmt.training import StageConfig, derive_stage_seed

from conftest import assert_structured

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(tinymmt.__file__).resolve().parent


def base_config() -> dict:
    return {
        "seed": 3,
        "out_dir": "run",
        "data": {"tsv": {"hi": {"train": "hi_train.tsv"}}, "tasks": ["mmt"]},
        "train": {
            "stages": [
                {"stage": 1, "data": ["a.jsonl"]},
                {"stage": 2, "data": ["b.jsonl"], "batch_size": 4},
            ],
            "val": ["v.jsonl"],
        },
    }


def write(tmp_path, raw: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("section, key, value, place, problem", [
    (lambda raw: raw, "batchsize", 2, "config.json", "unknown key 'batchsize'"),
    (lambda raw: raw.setdefault("model", {"c_total": 512}), "batchsize", 2, "model",
     "unknown key 'batchsize'"),
    # the adapter and the dtype are fixed: the checkpoint header records them, no config sets them
    (lambda raw: raw.setdefault("model", {}), "adapter_mode", "mlp2", "model",
     "unknown key 'adapter_mode'"),
    (lambda raw: raw.setdefault("model", {}), "dtype", "float64", "model", "unknown key 'dtype'"),
    (lambda raw: raw["data"], "batchsize", 2, "data", "unknown key 'batchsize'"),
    (lambda raw: raw["train"], "batchsize", 2, "train", "unknown key 'batchsize'"),
    (lambda raw: raw["train"]["stages"][1], "batchsize", 2, "train.stages[1]",
     "unknown key 'batchsize'"),
    (lambda raw: raw["train"]["stages"][1], "lr", True, "train.stages[1]",
     "'lr' must be .* got a boolean"),
    # the data.tsv field tables are the one check of a TSV's language and split
    (lambda raw: raw["data"]["tsv"], "fr", {"train": "fr_train.tsv"}, "data.tsv",
     "unknown key 'fr'"),
    (lambda raw: raw["data"]["tsv"]["hi"], "dev", "hi_dev.tsv", "data.tsv.hi",
     "unknown key 'dev'"),
    (lambda raw: raw["data"], "iou_threshold", 1.5, "data.iou_threshold", r"must be in \[0, 1\]"),
    (lambda raw: raw["data"], "iou_threshold", -0.1, "data.iou_threshold",
     r"must be in \[0, 1\]"),
    (lambda raw: raw["train"]["stages"][1], "data", [], "train.stages[1].data",
     "at least one instance file required"),
], ids=["top", "model", "model-adapter_mode", "model-dtype", "data", "train", "stage",
         "bool-is-not-a-number", "tsv-lang-fr", "tsv-split-dev", "iou-threshold-1.5",
         "iou-threshold-negative", "stage-data-empty"])
def test_unknown_key_names_its_dotted_path(tmp_path, capsys, section, key, value, place, problem):
    raw = base_config()
    section(raw)[key] = value
    path = write(tmp_path, raw)
    with pytest.raises(ConfigError, match=re.escape(place) + ": " + problem):
        load_config(path)
    assert main(["prepare-data", "--config", str(path)]) == 2
    assert re.search(re.escape(place) + ": " + problem, capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [
    ("stage", 4), ("mode", "lora"), ("lr", 0), ("lr", -1e-4), ("epochs", 0),
    ("batch_size", 0), ("max_steps", 0), ("seed", -1), ("mix_cap", 0),
])
def test_bad_stage_value_fails_at_load_time(tmp_path, capsys, key, value):
    raw = base_config()
    raw["train"]["stages"][1][key] = value
    path = write(tmp_path, raw)
    with pytest.raises(ConfigError, match=re.escape("train.stages[1]: ")):
        load_config(path)
    for command in (["prepare-data"], ["train"], ["sweep", "--checkpoint", "x.ckpt"]):
        assert main([*command, "--config", str(path)]) == 2
        assert "train.stages[1]: " in capsys.readouterr().err


@pytest.mark.parametrize("edit, place", [
    (lambda raw: raw.update(out_dir="a\0b"), "out_dir"),
    (lambda raw: raw["data"]["tsv"]["hi"].update(train="hi_train.tsv\0"), "data.tsv.hi.train"),
    (lambda raw: raw["data"].update(detections_dir="d\0"), "data.detections_dir"),
    (lambda raw: raw["data"].update(instances_dir="i\0"), "data.instances_dir"),
    (lambda raw: raw["train"]["stages"][1]["data"].append("c\0.jsonl"), "train.stages[1].data"),
    (lambda raw: raw["train"]["val"].append("\0"), "train.val"),
], ids=["out_dir", "tsv", "detections_dir", "instances_dir", "stage-data", "val"])
def test_a_nul_in_a_config_path_is_a_config_error_naming_its_key(tmp_path, capsys, edit, place):
    raw = base_config()
    edit(raw)
    path = write(tmp_path, raw)
    assert main(["prepare-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {place}: a path cannot hold a NUL character" in err
    assert_structured(err)


def test_stage_seed_derives_from_the_final_master_seed(tmp_path):
    raw = base_config()
    raw["train"]["stages"][1]["seed"] = 42
    path = write(tmp_path, raw)
    assert [s.config.seed for s in load_config(path).stages] == [derive_stage_seed(3, 1), 42]
    overridden = load_config(path, seed=5)
    assert overridden.seed == 5
    assert [s.config.seed for s in overridden.stages] == [derive_stage_seed(5, 1), 42]
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        load_config(path, seed=-1)


def test_one_record_of_a_stage():
    callers = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
                     if re.search(r"(?<!def )derive_stage_seed\(", p.read_text(encoding="utf-8")))
    assert callers == ["config.py"]
    shared = {f.name for f in fields(StageSpec)} & {f.name for f in fields(StageConfig)}
    assert not shared


def test_model_keys_are_the_settable_model_config_fields(tmp_path):
    raw = base_config()
    raw["model"] = {"d_model": 32, "n_heads": 2, "c_total": 128, "n_layers_lm": 1}
    assert load_config(write(tmp_path, raw)).model == raw["model"]
    raw["model"]["vocab_size"] = 40  # derived from the data by train
    with pytest.raises(ConfigError, match="model: unknown key 'vocab_size'"):
        load_config(write(tmp_path, raw))


@pytest.mark.parametrize("field", ["n_heads", "d_model", "c_total", "patch_size"])
def test_model_config_rejects_json_booleans(field):
    # True would pass as the integer 1: n_heads true built a one-head model
    with pytest.raises(ConfigError, match=f"model.{field} must be a positive integer, got True"):
        ModelConfig(**json.loads(f'{{"vocab_size": 40, "{field}": true}}'))


def test_metrics_section_rejected(tmp_path):
    raw = base_config()
    raw["metrics"] = {"smooth_bleu": True, "ribes_alpha": 0.25, "ribes_beta": 0.1}
    with pytest.raises(ConfigError, match="unknown key 'metrics'"):
        load_config(write(tmp_path, raw))


def test_stage_entry_must_be_an_object(tmp_path):
    raw = base_config()
    raw["train"]["stages"][0] = 1
    with pytest.raises(ConfigError, match=re.escape("train.stages[0]")):
        load_config(write(tmp_path, raw))


def test_readme_walkthrough_config_loads(tmp_path):
    walkthrough = README.read_text(encoding="utf-8").split("## Walkthrough", 1)[1]
    block = re.search(r"```json\n(.*?)```", walkthrough, re.S).group(1)
    cfg = load_config(write(tmp_path, json.loads(block)))
    assert [s.config.stage for s in cfg.stages] == [1, 2, 3]
    assert cfg.data.tasks == ("mmt", "text_only", "caption")
    assert cfg.val_files == ("run/instances/mmt.hi.valid.jsonl",)
