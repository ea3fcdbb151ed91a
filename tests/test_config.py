import json
import re
from pathlib import Path

import pytest

from tinymmt.cli import main
from tinymmt.config import load_config
from tinymmt.errors import ConfigError

README = Path(__file__).resolve().parent.parent / "README.md"


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


@pytest.mark.parametrize("section, dotted", [
    (lambda raw: raw, "batchsize"),
    (lambda raw: raw.setdefault("model", {"c_total": 512}), "model.batchsize"),
    (lambda raw: raw["data"], "data.batchsize"),
    (lambda raw: raw["train"], "train.batchsize"),
    (lambda raw: raw["train"]["stages"][1], "train.stages[1].batchsize"),
], ids=["top", "model", "data", "train", "stage"])
def test_unknown_key_names_its_dotted_path(tmp_path, capsys, section, dotted):
    raw = base_config()
    section(raw)["batchsize"] = 2
    path = write(tmp_path, raw)
    with pytest.raises(ConfigError, match=re.escape(dotted) + ": unknown key"):
        load_config(path)
    assert main(["prepare-data", "--config", str(path)]) == 2
    assert dotted in capsys.readouterr().err


def test_model_keys_are_the_settable_model_config_fields(tmp_path):
    raw = base_config()
    raw["model"] = {"d_model": 32, "n_heads": 2, "c_total": 128, "dtype": "float32"}
    assert load_config(write(tmp_path, raw)).model == raw["model"]
    raw["model"]["vocab_size"] = 40  # derived from the data by train
    with pytest.raises(ConfigError, match=re.escape("model.vocab_size") + ": unknown key"):
        load_config(write(tmp_path, raw))


def test_metrics_section_rejected(tmp_path):
    raw = base_config()
    raw["metrics"] = {"smooth_bleu": True, "ribes_alpha": 0.25, "ribes_beta": 0.1}
    with pytest.raises(ConfigError, match="metrics: unknown key"):
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
    assert [s.stage for s in cfg.stages] == [1, 2, 3]
    assert cfg.data.tasks == ("mmt", "text_only", "caption")
    assert cfg.val_files == ("run/instances/mmt.hi.valid.jsonl",)
