"""Every JSON input goes through one reader with one rule: exact keys, JSON
types (true and false are not numbers), no NaN or Infinity, no lone
surrogates. Each case below mutates one input of one of the five formats
(config, detector file, instance line, report, checkpoint header) in a way
an older, per-format reader accepted, coerced or let reach `main`'s generic
branch. Each must end in its format's exit code, with a message naming the
file or section and the key. The inputs are written with json.dumps, which
emits NaN and Infinity as bare words and a lone surrogate as a \\u escape.
"""

import json
import struct
import sys
from pathlib import Path

import pytest

from tinymmt.atomic import json_fields
from tinymmt.cli import main
from tinymmt.errors import DataError
from tinymmt.model import lora_attach
from tinymmt.training import save_checkpoint

from conftest import assert_structured, build_model, make_instances, make_records
from test_cli import write_fixture_tree

INSTANCE = {"task": "text_only", "prompt": "a", "response": "b", "lang": "hi",
            "source_id": "x"}
REPORT = {"lang": "hi", "split": "test", "bleu": 1.0, "ribes": 0.5, "n_sentences": 1,
          "hyp_tokens": 2, "ref_tokens": 2}
DETECTION = {"label": "cat", "box": [2, 3, 10, 12], "confidence": 0.9}


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A fixture tree and a small LoRA checkpoint whose vocabulary covers
    text-only prompts."""
    root = tmp_path_factory.mktemp("json")
    write_fixture_tree(root, n_train=2, n_eval=1)
    model = build_model(make_instances(make_records(2, seed=1), "text_only"), seed=2,
                        c_total=256)
    lora_attach(model)
    save_checkpoint(model, root / "m.ckpt")
    (root / "s.txt").write_text("red cat\n", encoding="utf-8")
    return root


def config_case(edit, section=None):
    def run(root, name):
        raw = json.loads((root / "config.json").read_text())
        raw["out_dir"] = name
        edit(raw)
        path = root / f"{name}.json"
        # the string "1e400" stands for the number, which json.loads reads as inf
        path.write_text(json.dumps(raw).replace('"1e400"', "1e400"))
        return ["prepare-data", "--config", str(path)], section or str(path)
    return run


def detection_case(edit):
    def run(root, name):
        raw = json.loads((root / "config.json").read_text())
        raw.update(out_dir=name, data={**raw["data"], "detections_dir": name})
        (root / name).mkdir()
        path = root / name / "train0.json"
        path.write_text(json.dumps([{**DETECTION, **edit}]))
        (root / f"{name}.json").write_text(json.dumps(raw))
        return ["prepare-data", "--config", str(root / f"{name}.json")], str(path)
    return run


def instance_case(edit):
    def run(root, name):
        path = root / f"{name}.jsonl"
        path.write_text(json.dumps({**INSTANCE, **edit}) + "\n")
        return ["generate", "--checkpoint", str(root / "m.ckpt"), "--input", str(path),
                "--out", str(root / f"{name}.txt")], f"{path}:1"
    return run


def report_case(*edits):
    def run(root, name):
        paths = []
        for i, edit in enumerate(edits):
            paths.append(root / f"{name}.{i}.json")
            paths[-1].write_text(json.dumps({**REPORT, **edit}))
        return ["report", *map(str, paths)], str(paths[-1])
    return run


def header_case(edit):
    def run(root, name):
        blob = (root / "m.ckpt").read_bytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        path = root / f"{name}.ckpt"
        path.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw
                         + blob[16 + header_len:])
        return ["generate", "--checkpoint", str(path), "--input", str(root / "s.txt"),
                "--raw-sentences", "--lang", "hi", "--out", str(root / f"{name}.txt")], str(path)
    return run


def stage(**settings):
    return lambda raw: raw["train"]["stages"][0].update(settings)


CASES = {
    # config (exit 2): NaN trained a NaN checkpoint, a surrogate reached mkdir
    "config-lr-nan": (config_case(stage(lr=float("nan"))), 2, "'lr'"),
    "config-lr-infinity": (config_case(stage(lr=float("inf"))), 2, "'lr'"),
    "config-lr-overflow": (config_case(stage(lr="1e400")), 2, "'lr'"),
    "config-out-dir-surrogate": (config_case(lambda raw: raw.update(out_dir="run\ud800")), 2,
                                 "'out_dir'"),
    "config-model-float": (config_case(lambda raw: raw["model"].update(d_model=64.0), "model"),
                           2, "'d_model'"),
    # detector file (exit 3): each was read as something else
    "detection-box-string": (detection_case({"box": "1234"}), 3, "'box'"),
    "detection-box-floats": (detection_case({"box": [1.9, 2.7, 3, 4]}), 3, "'box'"),
    "detection-box-bool": (detection_case({"box": [True, 0, 3, 4]}), 3, "'box'"),
    "detection-box-five": (detection_case({"box": [2, 3, 10, 12, 5]}), 3, "'box'"),
    "detection-label-null": (detection_case({"label": None}), 3, "'label'"),
    "detection-label-surrogate": (detection_case({"label": "c\udc00t"}), 3, "'label'"),
    "detection-confidence-string": (detection_case({"confidence": "0.5"}), 3, "'confidence'"),
    # instance line (exit 3): decoded grounded with a prompt that names no image
    "instance-text-only-image": (instance_case({"image_id": "img1"}), 3, "'image_id'"),
    # report (exit 3): dropped a key, printed a row of '-', or kept the last of two
    "report-unknown-key": (report_case({"chrf": 0.5}), 3, "'chrf'"),
    "report-train-split": (report_case({"split": "train"}), 3, "'train'"),
    "report-duplicate-cell": (report_case({}, {"bleu": 2.0}), 3, "'test'"),
    # checkpoint header (exit 4): the seed was coerced, a key ignored
    "header-seed-string": (header_case(lambda h: h.update(seed="7")), 4, "'seed'"),
    "header-seed-float": (header_case(lambda h: h.update(seed=3.9)), 4, "'seed'"),
    "header-seed-bool": (header_case(lambda h: h.update(seed=True)), 4, "'seed'"),
    "header-unknown-key": (header_case(lambda h: h.update(comment="x")), 4, "'comment'"),
    "header-lora-unknown-key": (header_case(lambda h: h["lora"].update(rank=4)), 4, "'rank'"),
    # the adapter and the dtype are fixed: a header naming another one is refused
    "header-adapter-linear": (
        header_case(lambda h: h["config"].update(adapter_mode="linear")), 4, "adapter_mode="),
    "header-dtype-float32": (
        header_case(lambda h: h["config"].update(dtype="float32")), 4, "dtype="),
    "header-provenance-surrogate-key": (
        header_case(lambda h: h["provenance"].append({"st\udc00ge": 1})), 4, "'provenance'[0]"),
}


def deep(depth, value=(2, 3, 10, 12)):
    value = list(value)
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("name", CASES)
def test_a_rejected_json_input_names_its_place_and_key(tree, capsys, name):
    write, code, key = CASES[name]
    argv, place = write(tree, name)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert place in err and key in err, err
    assert_structured(err)


def test_a_value_nested_deeper_than_python_frames_is_a_field_error():
    depth = sys.getrecursionlimit() + 100
    with pytest.raises(DataError) as raised:
        json_fields({"box": deep(depth, ["\ud800"])}, {"box": list}, "d.json", DataError, ())
    assert str(raised.value) == "d.json: 'box'" + "[0]" * (depth + 1) + " holds a lone surrogate"
    json_fields({"box": deep(depth)}, {"box": list}, "d.json", DataError, ())


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_a_deeply_nested_detector_box_exits_3(tree, capsys, depth):
    name = f"deep-box-{depth}"
    argv, place = detection_case({})(tree, name)
    box = "[" * depth + "2, 3, 10, 12" + "]" * depth  # too deep for json.dumps
    Path(place).write_text(f'[{{"label": "cat", "box": {box}, "confidence": 0.9}}]')
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert place in err, err
    assert_structured(err)
