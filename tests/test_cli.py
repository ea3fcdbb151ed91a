import hashlib
import json
import unicodedata
from pathlib import Path

import numpy as np
import pytest

import tinymmt.cli as cli
import tinymmt.training.loop as loop
import tinymmt.training.sweep as sweep_module
from tinymmt.cli import main
from tinymmt.datapipe import read_instances, write_instances
from tinymmt.model.vocab import SYS
from tinymmt.training import evaluate_bleu, load_checkpoint, save_checkpoint

from conftest import HINDI, WORDS, assert_structured, build_model, make_instances, make_records


def write_fixture_tree(root: Path, n_train=6, n_eval=2, seed=0):
    """TSVs for train/valid/test plus detector files, and a run config."""
    rng = np.random.default_rng(seed)
    det_dir = root / "detections"
    det_dir.mkdir(parents=True, exist_ok=True)
    counts = {"train": n_train, "valid": n_eval, "test": n_eval}
    seen = set()
    for split, n in counts.items():
        lines = []
        i = 0
        while len(lines) < n:
            sel = tuple(rng.choice(WORDS, size=2, replace=False))
            if sel in seen:
                continue
            seen.add(sel)
            en = " ".join(sel)
            hi = " ".join(HINDI[w] for w in sel)
            image_id = f"{split}{i}"
            lines.append(f"{image_id}\t2\t3\t10\t12\t{en}\t{hi}")
            (det_dir / f"{image_id}.json").write_text(json.dumps(
                [{"label": sel[0], "box": [2, 3, 10, 12], "confidence": 0.9}]))
            i += 1
        (root / f"hi_{split}.tsv").write_text("".join(l + "\n" for l in lines),
                                              encoding="utf-8")

    config = {
        "seed": 11,
        "out_dir": "run",
        "model": {"c_total": 512},
        "data": {
            "tsv": {"hi": {"train": "hi_train.tsv", "valid": "hi_valid.tsv",
                           "test": "hi_test.tsv"}},
            "detections_dir": "detections",
            "tasks": ["mmt", "text_only", "caption"],
            "instances_dir": "instances",
        },
        "train": {
            "stages": [
                {"stage": 1, "data": ["run/instances/caption.hi.train.jsonl"],
                 "batch_size": 2, "max_steps": 2},
                {"stage": 2, "data": ["run/instances/mmt.hi.train.jsonl",
                                       "run/instances/caption.hi.train.jsonl"],
                 "batch_size": 2, "max_steps": 2},
                {"stage": 3, "data": ["run/instances/mmt.hi.train.jsonl",
                                       "run/instances/text_only.hi.train.jsonl"],
                 "batch_size": 2, "max_steps": 2},
            ],
            "val": ["run/instances/text_only.hi.valid.jsonl"],
        },
    }
    (root / "config.json").write_text(json.dumps(config, indent=2))
    return root / "config.json"


@pytest.fixture
def fixture_tree(tmp_path):
    return write_fixture_tree(tmp_path)


def test_end_to_end_flow(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    instances_dir = tmp_path / "run" / "instances"
    assert (instances_dir / "mmt.hi.train.jsonl").exists()
    assert (tmp_path / "run" / "stats.json").exists()

    assert main(["train", "--config", config]) == 0
    for stage in (1, 2, 3):
        assert (tmp_path / "run" / f"stage{stage}.ckpt").exists()
        assert (tmp_path / "run" / f"stage{stage}.log.jsonl").exists()
    out = capsys.readouterr().out
    assert "vision   frozen" in out

    hyp_path = tmp_path / "run" / "hyp.txt"
    assert main(["generate", "--checkpoint", str(tmp_path / "run" / "stage3.ckpt"),
                 "--input", str(instances_dir / "text_only.hi.test.jsonl"),
                 "--out", str(hyp_path), "--max-new-tokens", "8"]) == 0
    assert hyp_path.exists()
    assert len(hyp_path.read_text(encoding="utf-8").splitlines()) == 2

    ref_path = tmp_path / "run" / "ref.txt"
    refs = [json.loads(l)["response"]
            for l in (instances_dir / "text_only.hi.test.jsonl").read_text(
                encoding="utf-8").splitlines()]
    ref_path.write_text("".join(r + "\n" for r in refs), encoding="utf-8")

    report_path = tmp_path / "run" / "report.json"
    assert main(["evaluate", "--hyp", str(ref_path), "--ref", str(ref_path),
                 "--lang", "hi", "--split", "challenge",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["bleu"] == 100.0
    assert report["ribes"] == 1.0

    capsys.readouterr()
    assert main(["report", str(report_path)]) == 0
    table = capsys.readouterr().out
    assert "Hi-Ch" in table and "100.0" in table and "-" in table


def test_repeat_commands_byte_identical(fixture_tree, tmp_path):
    config = str(fixture_tree)

    def artifact_bytes():
        assert main(["prepare-data", "--config", config]) == 0
        assert main(["train", "--config", config]) == 0
        run = tmp_path / "run"
        instance_files = sorted((run / "instances").glob("*.jsonl"))
        return (
            [p.read_bytes() for p in instance_files],
            (run / "stats.json").read_bytes(),
            [(run / f"stage{s}.ckpt").read_bytes() for s in (1, 2, 3)],
        )

    assert artifact_bytes() == artifact_bytes()


def test_stage_skip_and_lora_flags(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1,3",
                 "--stage3-mode", "lora"]) == 0
    assert (tmp_path / "run" / "stage1.ckpt").exists()
    assert not (tmp_path / "run" / "stage2.ckpt").exists()
    out = capsys.readouterr().out
    assert "llm      frozen" in out  # low-rank stage leaves base LM untouched


def test_missing_detections_warns_but_renders(fixture_tree, tmp_path, capsys):
    config_path = fixture_tree
    raw = json.loads(config_path.read_text())
    raw["data"]["detections_dir"] = "no_such_dir"
    config_path.write_text(json.dumps(raw))
    assert main(["prepare-data", "--config", str(config_path)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err
    line = (tmp_path / "run" / "instances" / "mmt.hi.train.jsonl").read_text(
        encoding="utf-8").splitlines()[0]
    assert "labels of the objects" not in json.loads(line)["prompt"]


def test_out_dir_override(fixture_tree, tmp_path):
    assert main(["prepare-data", "--config", str(fixture_tree),
                 "--out-dir", "elsewhere", "--task", "text_only"]) == 0
    assert (tmp_path / "elsewhere" / "instances" / "text_only.hi.train.jsonl").exists()
    assert not (tmp_path / "run").exists()


def test_no_image_flag_drops_visual_grounding(fixture_tree, tmp_path):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0

    out_with = tmp_path / "with_image.txt"
    out_without = tmp_path / "without_image.txt"
    mmt_file = str(tmp_path / "run" / "instances" / "mmt.hi.test.jsonl")
    ckpt = str(tmp_path / "run" / "stage1.ckpt")
    assert main(["generate", "--checkpoint", ckpt, "--input", mmt_file,
                 "--out", str(out_with), "--max-new-tokens", "4"]) == 0
    assert main(["generate", "--checkpoint", ckpt, "--input", mmt_file,
                 "--out", str(out_without), "--no-image", "--max-new-tokens", "4"]) == 0
    # both modes decode every instance; the image-free pass must not fail
    # on grounded prompts
    n = len(Path(mmt_file).read_text(encoding="utf-8").splitlines())
    assert len(out_with.read_text(encoding="utf-8").splitlines()) == n
    assert len(out_without.read_text(encoding="utf-8").splitlines()) == n


def spy_detections(monkeypatch) -> list[str]:
    """Record the image id of every detector file prepare-data asks for."""
    calls = []
    real = cli.load_detections

    def spy(detections_dir, image_id):
        calls.append(image_id)
        return real(detections_dir, image_id)

    monkeypatch.setattr(cli, "load_detections", spy)
    return calls


def test_text_only_task_never_touches_detector(fixture_tree, tmp_path, capsys, monkeypatch):
    raw = json.loads(fixture_tree.read_text())
    raw["data"]["detections_dir"] = "definitely_missing"
    fixture_tree.write_text(json.dumps(raw))
    calls = spy_detections(monkeypatch)
    assert main(["prepare-data", "--config", str(fixture_tree),
                 "--task", "text_only"]) == 0
    assert calls == []
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    assert (tmp_path / "run" / "instances" / "text_only.hi.train.jsonl").exists()
    assert not (tmp_path / "run" / "instances" / "mmt.hi.train.jsonl").exists()


def test_prepare_data_reads_each_detector_file_once(fixture_tree, tmp_path, monkeypatch):
    calls = spy_detections(monkeypatch)
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 0  # mmt, text_only, caption
    image_ids = [line.split("\t")[0] for split in ("train", "valid", "test")
                 for line in (tmp_path / f"hi_{split}.tsv").read_text(
                     encoding="utf-8").splitlines()]
    assert sorted(calls) == sorted(image_ids)


# SHA-256 of every prepare-data output on write_fixture_tree's config, taken
# before the instance writer and the prompt templates were rewritten as direct
# string framing; any byte those rewrites move fails here
PREPARE_DIGESTS = {
    "instances/caption.hi.test.jsonl":
        "682c552cba261f91036524afffdc99e96a559812dd1c1b366fda3df4cb17aa46",
    "instances/caption.hi.train.jsonl":
        "9f1950c3bee9d65f052e0755c53b4041a633a6eacb9d6c5290fa8489a13a1735",
    "instances/caption.hi.valid.jsonl":
        "d071315e12067a34c97b32e31a1a358681f73212c16a7785f06f588ebb392881",
    "instances/mmt.hi.test.jsonl":
        "9da08dcc2b2b9cefd12499c4ddabec10a34f473fa0d2a96a2e723b1b455c8fe4",
    "instances/mmt.hi.train.jsonl":
        "f5db1d0570c2c42d5a8b9f485e2f2d2fa6f67ccdafe8fadec8e3ef134f2bfaa9",
    "instances/mmt.hi.valid.jsonl":
        "166c4cf0cb7a4499fbfcdc5116480cbd890d5992be094b3ae9f78ad2f3b647ee",
    "instances/text_only.hi.test.jsonl":
        "251386397dae106c59712a9b14c1c5bef4106a7c85bbbc2e152a5547843d6d7e",
    "instances/text_only.hi.train.jsonl":
        "a4ac7d0f1ee7c5fb1a824e52120fa7bf2d2805e7608dbded3e31cf19b0e905e0",
    "instances/text_only.hi.valid.jsonl":
        "d375d3d6425caf2cf2b6b4bf71cb268f4de1763d8b27ddeadb6e7081b5f83b52",
    "stats.json":
        "61ebbd4afa0c9cc7539aecca93b6a4c701422da79ad19c5e83601e70bf396ffb",
}


def test_prepare_data_outputs_keep_their_recorded_digests(fixture_tree, tmp_path):
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 0
    run = tmp_path / "run"
    digests = {path.relative_to(run).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(run.rglob("*")) if path.is_file()}
    assert digests == PREPARE_DIGESTS


def assert_prepare_data_matches_a_per_record_reference(tmp_path, err, all_labels, detections):
    """Every instance file equals a reference that renders each record for each
    task with its own load_detections call, and each split's untagged warning
    matches the reference's count."""
    from tinymmt.datapipe import load_detections, parse_vg_tsv, render_prompt, select_tag

    det_dir = tmp_path / detections if (tmp_path / detections).exists() else None
    for split in ("train", "valid", "test"):
        records = parse_vg_tsv(tmp_path / f"hi_{split}.tsv", "hi", split, strict=True).records
        untagged = 0
        for task in ("mmt", "text_only", "caption"):
            expected = []
            for rec in records:
                tag = None
                if task != "text_only":
                    dets = load_detections(det_dir, rec.image_id)
                    tag = ([d.label for d in dets] or None) if all_labels else select_tag(
                        rec.box, dets, 0.1)
                    untagged += tag is None
                expected.append(render_prompt(rec, task, tag))
            got = read_instances(tmp_path / "run" / "instances" / f"{task}.hi.{split}.jsonl")
            assert got == expected, (task, split)
        warning = f"warning: hi/{split}: {untagged} grounded prompts"
        assert (warning in err) == (untagged > 0), (split, err)


def untag_two_images(root: Path) -> None:
    """train1 loses its detector file and train2's detection misses its box,
    so the grounded prompts of their records go untagged."""
    (root / "detections" / "train1.json").unlink()
    far = json.loads((root / "detections" / "train2.json").read_text())
    far[0]["box"] = [100, 100, 120, 120]
    (root / "detections" / "train2.json").write_text(json.dumps(far))


# train_untagged: untagged train records x the two grounded tasks
@pytest.mark.parametrize("all_labels, detections, train_untagged", [
    (False, "detections", 2 * 2), (True, "detections", 1 * 2), (False, "no_such_dir", 6 * 2),
], ids=["best-iou", "all-labels", "missing-dir"])
def test_prepare_data_matches_a_per_task_reference(fixture_tree, tmp_path, capsys,
                                                    all_labels, detections, train_untagged):
    untag_two_images(tmp_path)
    raw = json.loads(fixture_tree.read_text())
    raw["data"].update(all_labels=all_labels, detections_dir=detections)
    fixture_tree.write_text(json.dumps(raw))
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 0
    err = capsys.readouterr().err
    assert_prepare_data_matches_a_per_record_reference(tmp_path, err, all_labels, detections)
    assert f"warning: hi/train: {train_untagged} grounded prompts" in err


# each split's records, by line, renamed to these image ids: train0, and the
# untagged train1 and train2, recur within train and again in valid and test
SHARED_IMAGE_IDS = {
    "train": ["train0", "train1", "train0", "train2", "train1", "train0"],
    "valid": ["train0", "valid1"],
    "test": ["train2", "train1"],
}


def share_image_ids(root: Path) -> list[str]:
    """Rewrite the fixture TSVs to SHARED_IMAGE_IDS; return every record's id."""
    untag_two_images(root)
    for split, ids in SHARED_IMAGE_IDS.items():
        path = root / f"hi_{split}.tsv"
        rest = [line.partition("\t")[2] for line in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("".join(f"{image_id}\t{fields}\n"
                                for image_id, fields in zip(ids, rest, strict=True)),
                        encoding="utf-8")
    return [image_id for ids in SHARED_IMAGE_IDS.values() for image_id in ids]


@pytest.mark.parametrize("all_labels", [False, True], ids=["best-iou", "all-labels"])
def test_prepare_data_reads_each_shared_image_once(fixture_tree, tmp_path, capsys, monkeypatch,
                                                   all_labels):
    image_ids = share_image_ids(tmp_path)
    raw = json.loads(fixture_tree.read_text())
    raw["data"]["all_labels"] = all_labels
    fixture_tree.write_text(json.dumps(raw))
    calls = spy_detections(monkeypatch)
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 0  # mmt, text_only, caption
    assert len(image_ids) == 10 and len(set(image_ids)) == 4
    assert sorted(calls) == sorted(set(image_ids))  # once per image, not per record
    err = capsys.readouterr().err
    assert_prepare_data_matches_a_per_record_reference(tmp_path, err, all_labels, "detections")


def test_a_shared_malformed_detector_file_exits_3_before_writing(fixture_tree, tmp_path,
                                                                 capsys):
    share_image_ids(tmp_path)
    (tmp_path / "detections" / "train0.json").write_text("[{\"label\": 1}]")
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 3
    err = capsys.readouterr().err
    assert "train0.json: bad detection entry 0" in err
    assert not (tmp_path / "run" / "instances" / "mmt.hi.train.jsonl").exists()


@pytest.mark.parametrize("image_id, code", [("\ufefftrain0", "U+FEFF"), ("tr\x00ain0", "U+0000")],
                         ids=["byte-order-mark", "nul"])
def test_an_image_id_that_cannot_name_a_file_exits_3(fixture_tree, tmp_path, capsys,
                                                      image_id, code):
    # a UTF-8 BOM at the start of a TSV lands in its first id; accepted,
    # either id would exit 0 and lose its record's labels clause
    tsv = tmp_path / "hi_train.tsv"
    text = tsv.read_text(encoding="utf-8")
    assert text.startswith("train0\t")
    tsv.write_text(image_id + text[len("train0"):], encoding="utf-8")
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 3
    err = capsys.readouterr().err
    assert f"hi_train.tsv:1: image_id holds {code}, which cannot name a file" in err
    assert_structured(err)


def test_empty_input_file_gives_empty_output(fixture_tree, tmp_path):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "hyp.txt"
    assert main(["generate", "--checkpoint", str(tmp_path / "run" / "stage1.ckpt"),
                 "--input", str(empty), "--out", str(out),
                 "--raw-sentences", "--lang", "hi"]) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_stage_data_mixing_cap(fixture_tree, tmp_path):
    config_path = fixture_tree
    raw = json.loads(config_path.read_text())
    raw["train"]["stages"][0]["data"] = [
        "run/instances/caption.hi.train.jsonl",
        "run/instances/mmt.hi.train.jsonl",
    ]
    raw["train"]["stages"][0]["mix_cap"] = 4
    config_path.write_text(json.dumps(raw))
    assert main(["prepare-data", "--config", str(config_path)]) == 0

    from tinymmt.config import load_config
    from tinymmt.cli import _load_stage_datasets
    datasets, _ = _load_stage_datasets(load_config(config_path))
    assert len(datasets[1]) == 4
    tasks = {inst.task for inst in datasets[1]}
    assert tasks == {"caption", "mmt"}  # two from each corpus


def test_a_bad_model_section_stops_prepare_data_before_it_writes(tmp_path, fixture_tree, capsys):
    # load_config checks the model section, so the error comes before any
    # instance file is written, not from train once it has read them all
    raw = json.loads(fixture_tree.read_text())
    raw["model"] = {"d_model": 0}
    fixture_tree.write_text(json.dumps(raw))
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 2
    err = capsys.readouterr().err
    assert "config error: model.d_model must be a positive integer, got 0" in err
    assert_structured(err)
    assert not (tmp_path / "run").exists()


def test_exit_codes(tmp_path, fixture_tree):
    # config errors -> 2
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["prepare-data", "--config", str(bad)]) == 2
    # data errors -> 3
    (tmp_path / "empty.json").write_text(json.dumps({
        "seed": 0, "out_dir": "o",
        "data": {"tsv": {"hi": {"train": "does_not_exist.tsv"}}},
    }))
    assert main(["prepare-data", "--config", str(tmp_path / "empty.json")]) == 3
    # runtime/artifact errors -> 4
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"garbage")
    sentences = tmp_path / "s.txt"
    sentences.write_text("hello\n")
    assert main(["generate", "--checkpoint", str(junk), "--input", str(sentences),
                 "--out", str(tmp_path / "h.txt"), "--raw-sentences",
                 "--lang", "hi"]) == 4


def test_generate_oov_characters_reported(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0
    sentences = tmp_path / "s.txt"
    sentences.write_text("ZZgarbledQQ\n", encoding="utf-8")
    code = main(["generate", "--checkpoint", str(tmp_path / "run" / "stage1.ckpt"),
                 "--input", str(sentences), "--out", str(tmp_path / "h.txt"),
                 "--raw-sentences", "--lang", "hi"])
    assert code == 3
    err = capsys.readouterr().err
    assert "'Z'" in err and "'Q'" in err


def test_generate_text_only_mode_reserves_no_visual_slots(fixture_tree, tmp_path):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0

    from tinymmt.training import load_checkpoint
    from tinymmt.model.vocab import IMG

    model = load_checkpoint(tmp_path / "run" / "stage1.ckpt")
    inst_file = tmp_path / "run" / "instances" / "text_only.hi.test.jsonl"
    prompt = json.loads(inst_file.read_text(encoding="utf-8").splitlines()[0])["prompt"]
    prefix = model._assemble(model.vocab.encode(prompt), None, None, append_eos=False)
    assert (prefix.ids == IMG).sum() == 0


# read as text, a leading byte order mark joins the first word: "red cat"
# against itself so prefixed scored BLEU 0.0 and RIBES 0.0 with exit 0
_BOM = ":1: starts with a byte order mark (U+FEFF)"


@pytest.mark.parametrize("which, content, named", [
    ("hyp", None, ""), ("ref", None, ""), ("hyp", "caf\xe9\n".encode("latin-1"), ""),
    ("ref", b"\xff\xfe\n", ""),
    ("hyp", "\ufeffred cat\n".encode("utf-8"), _BOM),
    ("ref", "\ufeffred cat\n".encode("utf-8"), _BOM),
], ids=["missing-hyp", "missing-ref", "non-utf8-hyp", "non-utf8-ref", "bom-hyp", "bom-ref"])
def test_evaluate_input_errors_exit_3(tmp_path, capsys, which, content, named):
    paths = {"hyp": tmp_path / "hyp.txt", "ref": tmp_path / "ref.txt"}
    for name, path in paths.items():
        if name != which:
            path.write_text("red cat\n", encoding="utf-8")
        elif content is not None:
            path.write_bytes(content)
    assert main(["evaluate", "--hyp", str(paths["hyp"]), "--ref", str(paths["ref"]),
                 "--lang", "hi", "--out", str(tmp_path / "report.json")]) == 3
    err = capsys.readouterr().err
    assert f"{paths[which]}{named}" in err
    assert_structured(err)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("content", [
    None, "{not json", "[1, 2]", '{"lang": "hi", "bleu": 1.0}',
    '{"lang": "hi", "split": "test", "bleu": "high", "ribes": 0.5, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
    # JSON true is not a number, and the leaderboard would print nan or inf
    '{"lang": "hi", "split": "test", "bleu": 1.0, "ribes": 0.5, "n_sentences": true, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
    '{"lang": "hi", "split": "test", "bleu": 1.0, "ribes": true, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
    '{"lang": "hi", "split": "test", "bleu": NaN, "ribes": 0.5, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
    '{"lang": "hi", "split": "test", "bleu": 1.0, "ribes": Infinity, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
    # a cell no leaderboard column shows would print a row of '-'
    '{"lang": "hindi", "split": "test", "bleu": 1.0, "ribes": 0.5, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
    '{"lang": "hi", "split": "tset", "bleu": 1.0, "ribes": 0.5, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
], ids=["missing", "invalid-json", "not-an-object", "missing-keys", "wrong-type", "bool-count",
        "bool-score", "nan-score", "inf-score", "unknown-lang", "unknown-split"])
def test_report_input_errors_exit_3(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["report", str(path)]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--lang", "hindi"], ["--lang", "hi", "--split", "tset"]],
                         ids=["lang", "split"])
def test_evaluate_rejects_an_unknown_lang_or_split(tmp_path, capsys, flags):
    ref = tmp_path / "ref.txt"
    ref.write_text("red cat\n", encoding="utf-8")
    out = tmp_path / "rep.json"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--hyp", str(ref), "--ref", str(ref), "--out", str(out), *flags])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_out_creates_its_directory(tmp_path):
    ref = tmp_path / "ref.txt"
    ref.write_text("red cat\nblue dog\n", encoding="utf-8")
    out = tmp_path / "newdir" / "rep.json"
    assert main(["evaluate", "--hyp", str(ref), "--ref", str(ref), "--lang", "hi",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["n_sentences"] == 2


def test_generate_prints_how_decoding_ended(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0
    sentences = tmp_path / "s.txt"
    sentences.write_text("red cat\nblue dog\nsun\n", encoding="utf-8")

    def generate(*extra):
        capsys.readouterr()
        assert main(["generate", "--checkpoint", str(tmp_path / "run" / "stage1.ckpt"),
                     "--input", str(sentences), "--out", str(tmp_path / "h.txt"),
                     "--raw-sentences", "--lang", "hi", *extra]) == 0
        wrote, summary = capsys.readouterr().out.splitlines()[-2:]
        assert wrote.startswith("wrote 3 hypotheses")
        summary = json.loads(summary)
        assert summary["sentences"] == 3
        assert (summary["stop_eos"] + summary["stop_budget"] + summary["prompt_overflow"]
                + summary["blank"] == summary["sentences"])
        return summary

    # the default budget is the context left, not 8 tokens for an empty reference
    assert generate()["tokens"] > 8 * 3
    assert generate("--max-new-tokens", "3") == {
        "sentences": 3, "tokens": 9, "stop_eos": 0, "stop_budget": 3, "prompt_overflow": 0,
        "blank": 0}


def test_generate_overlong_prompt_gets_an_empty_line(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0
    sentences = tmp_path / "s.txt"
    sentences.write_text("red cat\n" + "blue dog " * 60 + "\nsun\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["generate", "--checkpoint", str(tmp_path / "run" / "stage1.ckpt"),
                 "--input", str(sentences), "--out", str(tmp_path / "h.txt"),
                 "--raw-sentences", "--lang", "hi", "--max-new-tokens", "3"]) == 0
    out, err = capsys.readouterr()
    lines = (tmp_path / "h.txt").read_text(encoding="utf-8").split("\n")
    assert len(lines) == 4 and lines[1] == "" and lines[3] == ""  # one line per input line
    assert f"{sentences}:2" in err and f"{sentences}:1" not in err and f"{sentences}:3" not in err
    assert json.loads(out.splitlines()[-1]) == {
        "sentences": 3, "tokens": 6, "stop_eos": 0, "stop_budget": 2, "prompt_overflow": 1,
        "blank": 0}


def test_generate_blank_line_gets_an_empty_line(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "1"]) == 0
    sentences = tmp_path / "s.txt"
    sentences.write_text("red cat\n\nsun\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["generate", "--checkpoint", str(tmp_path / "run" / "stage1.ckpt"),
                 "--input", str(sentences), "--out", str(tmp_path / "h.txt"),
                 "--raw-sentences", "--lang", "hi", "--max-new-tokens", "3"]) == 0
    out, err = capsys.readouterr()
    lines = (tmp_path / "h.txt").read_text(encoding="utf-8").split("\n")
    assert len(lines) == 4 and lines[1] == "" and lines[3] == ""  # one line per input line
    assert out.splitlines()[-2].startswith("wrote 3 hypotheses")
    assert json.loads(out.splitlines()[-1]) == {
        "sentences": 3, "tokens": 6, "stop_eos": 0, "stop_budget": 2, "prompt_overflow": 0,
        "blank": 1}


def test_sweep_trains_the_config_stage3_as_train_does(fixture_tree, tmp_path, capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config]) == 0
    assert main(["sweep", "--config", config, "--checkpoint", "run/stage2.ckpt",
                 "--lrs", "1e-4,1e-3", "--epochs", "1"]) == 0
    assert "ranked table" in capsys.readouterr().out
    run = tmp_path / "run"
    rows = json.loads((run / "sweep.json").read_text(encoding="utf-8"))
    assert sorted((r["lr"], r["epochs"]) for r in rows) == [(1e-4, 1), (1e-3, 1)]
    assert all(r["error"] is None and r["prompt_overflow"] == 0 for r in rows)

    # stage 3's own lr and epochs: the cell is train's stage 3, scored on train.val
    (cell,) = [r for r in rows if r["lr"] == 1e-4]
    (logged,) = [rec["val_loss"] for rec in map(json.loads, (run / "stage3.log.jsonl").read_text(
        encoding="utf-8").splitlines()) if rec["type"] == "val"]
    assert cell["val_loss"] == logged
    stage3 = load_checkpoint(run / "stage3.ckpt")
    val = read_instances(run / "instances" / "text_only.hi.valid.jsonl")
    assert cell["bleu"] == evaluate_bleu(stage3, val)


@pytest.mark.parametrize("drop, path", [("stage3", "train.stages"), ("val", "train.val")])
def test_sweep_needs_a_stage3_entry_and_validation_files(fixture_tree, capsys, drop, path):
    raw = json.loads(fixture_tree.read_text())
    if drop == "stage3":
        raw["train"]["stages"].pop()
    else:
        del raw["train"]["val"]
    fixture_tree.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(fixture_tree), "--checkpoint", "run/stage2.ckpt"]) == 2
    assert f"config error: {path}:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage2_tree(tmp_path_factory):
    """The fixture tree with its instances and a trained stage2.ckpt."""
    root = tmp_path_factory.mktemp("stage2")
    config = str(write_fixture_tree(root))
    assert main(["prepare-data", "--config", config]) == 0
    assert main(["train", "--config", config, "--stages", "2"]) == 0
    return root


@pytest.mark.parametrize("flags, message", [
    (["--lrs=-1,0"], "lr must be finite and positive, got -1.0"),
    (["--lrs=1e-4,-1"], "lr must be finite and positive, got -1.0"),
    # sweep.json would hold NaN or Infinity, which are not JSON
    (["--lrs=1e-4,nan"], "lr must be finite and positive, got nan"),
    (["--lrs=inf"], "lr must be finite and positive, got inf"),
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
], ids=["lrs-all-bad", "lrs-second-bad", "lrs-nan", "lrs-inf", "epochs-zero"])
def test_sweep_rejects_a_bad_grid_before_training(stage2_tree, monkeypatch, capsys, flags,
                                                  message):
    trained = []
    monkeypatch.setattr(sweep_module, "run_stage", lambda *args, **kw: trained.append(args))
    assert main(["sweep", "--config", str(stage2_tree / "config.json"),
                 "--checkpoint", "run/stage2.ckpt", *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert trained == []
    assert not (stage2_tree / "run" / "sweep.json").exists()


def test_sweep_rejects_an_overlong_validation_reference_before_training(stage2_tree,
                                                                       monkeypatch, capsys):
    trained = []
    monkeypatch.setattr(sweep_module, "run_stage", lambda *args, **kw: trained.append(args))
    (inst,) = read_instances(stage2_tree / "run" / "instances" / "text_only.hi.valid.jsonl")[:1]
    write_instances(stage2_tree / "long_val.jsonl",
                    [inst._replace(response="\u0915" * 450, source_id="long-ref")])
    raw = json.loads((stage2_tree / "config.json").read_text())
    raw["train"]["val"] = ["long_val.jsonl"]
    config = stage2_tree / "long_val_config.json"
    config.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(config), "--checkpoint", "run/stage2.ckpt",
                 "--lrs", "1e-3", "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert "data error: sample 'long-ref': assembled sequence length" in err
    assert trained == []
    assert not (stage2_tree / "run" / "sweep.json").exists()


@pytest.mark.parametrize("where, stage", [("train", 3), ("val", 1)])
def test_train_checks_every_sample_fits_before_the_first_step(fixture_tree, tmp_path,
                                                               monkeypatch, capsys, where, stage):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    run = tmp_path / "run"
    (inst,) = read_instances(run / "instances" / "text_only.hi.valid.jsonl")[:1]
    write_instances(tmp_path / "long.jsonl",
                    [inst._replace(response="\u0915" * 600, source_id="long")])
    raw = json.loads(fixture_tree.read_text())
    if where == "train":
        raw["train"]["stages"][2]["data"].append("long.jsonl")
    else:
        raw["train"]["val"] = ["long.jsonl"]
    fixture_tree.write_text(json.dumps(raw))
    updates = []
    adam = loop.adam_step
    monkeypatch.setattr(loop, "adam_step", lambda *args: (updates.append(1), adam(*args)))
    capsys.readouterr()
    assert main(["train", "--config", config, "--stages", str(stage)]) == 3
    err = capsys.readouterr().err
    assert f"data error: stage {stage}: sample 'long': assembled sequence length " in err
    assert "exceeds context budget c_total=512" in err
    assert_structured(err)
    assert updates == []
    assert not list(run.glob("stage*"))


def test_train_stops_at_the_first_non_finite_gradient(fixture_tree, tmp_path, monkeypatch,
                                                      capsys):
    config = str(fixture_tree)
    assert main(["prepare-data", "--config", config]) == 0
    build = cli._build_model

    def poisoned(*args):
        model = build(*args)
        model.params["llm.tok_emb"].data[SYS] = np.inf  # a token every prompt holds
        return model

    monkeypatch.setattr(cli, "_build_model", poisoned)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", config]) == 4
    err = capsys.readouterr().err
    # stage 1 trains the adapter alone; its first parameter in sorted order
    assert "error: stage 1: step 1: non-finite training values, batch loss nan, " \
           "first non-finite gradient adapter.fc1.bias; batch source ids [" in err
    ids = {inst.source_id for inst in
           read_instances(tmp_path / "run" / "instances" / "caption.hi.train.jsonl")}
    named = err.split("batch source ids [")[1].split("]")[0].split(", ")
    assert len(named) == 2 and {n.strip("'") for n in named} <= ids
    assert not list((tmp_path / "run").glob("stage*"))


def text_only_checkpoint(path, extra_symbols=""):
    """A small untrained model saved to `path`; its vocabulary covers the
    text-only prompts over WORDS and `extra_symbols`."""
    instances = make_instances(make_records(4, seed=1), "text_only")
    instances.append(instances[0]._replace(response=extra_symbols))
    save_checkpoint(build_model(instances, seed=2, c_total=256), path)
    return path


def test_raw_sentences_break_lines_where_evaluate_does(tmp_path, capsys):
    breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    ckpt = text_only_checkpoint(tmp_path / "m.ckpt", breaks)
    sentences = tmp_path / "s.txt"
    sentences.write_bytes(f"red{breaks}cat\r\nblue dog\n".encode("utf-8"))
    hyp = tmp_path / "h.txt"
    assert main(["generate", "--checkpoint", str(ckpt), "--input", str(sentences),
                 "--out", str(hyp), "--raw-sentences", "--lang", "hi",
                 "--max-new-tokens", "3"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["sentences"] == 2
    ref = tmp_path / "ref.txt"
    ref.write_text("लाल बिल्ली\nनीला कुत्ता\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--lang", "hi"]) == 0
    assert json.loads(capsys.readouterr().out)["n_sentences"] == 2


def test_raw_sentences_reject_a_leading_byte_order_mark(tmp_path, capsys):
    # the vocabulary holds U+FEFF, so the mark would decode as part of line 1
    ckpt = text_only_checkpoint(tmp_path / "m.ckpt", "\ufeff")
    sentences = tmp_path / "s.txt"
    sentences.write_text("\ufeffred cat\nblue dog\n", encoding="utf-8")
    hyp = tmp_path / "h.txt"
    assert main(["generate", "--checkpoint", str(ckpt), "--input", str(sentences),
                 "--out", str(hyp), "--raw-sentences", "--lang", "hi",
                 "--max-new-tokens", "3"]) == 3
    err = capsys.readouterr().err
    assert f"{sentences}{_BOM}" in err
    assert_structured(err)
    assert not hyp.exists()


def test_raw_sentences_are_nfc_normalized_as_tsv_sentences_are(tmp_path, capsys):
    # "café" composed (U+00E9) and decomposed (e + U+0301) is one sentence
    ckpt = text_only_checkpoint(tmp_path / "m.ckpt", "\u00e9")
    sentences = tmp_path / "s.txt"
    sentences.write_text("red caf\u00e9\nred cafe\u0301\n", encoding="utf-8")
    hyp = tmp_path / "h.txt"
    assert main(["generate", "--checkpoint", str(ckpt), "--input", str(sentences),
                 "--out", str(hyp), "--raw-sentences", "--lang", "hi",
                 "--max-new-tokens", "4"]) == 0
    composed, decomposed, end = hyp.read_text(encoding="utf-8").split("\n")
    assert composed == decomposed and end == ""
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["tokens"] > 0


def test_an_nfd_instance_file_trains_and_decodes_as_its_nfc_original(tmp_path, capsys):
    # every prompt starts "café ", composed (U+00E9) in one tree and
    # decomposed (e + U+0301) in the other; both trees read as one text
    config = write_fixture_tree(tmp_path, n_train=4, n_eval=2, seed=6)
    assert main(["prepare-data", "--config", str(config)]) == 0
    outputs = {}
    for form in ("NFC", "NFD"):
        tree = tmp_path / form
        instances = tree / "run" / "instances"
        instances.mkdir(parents=True)
        for src in (tmp_path / "run" / "instances").glob("*.jsonl"):
            lines = []
            for line in src.read_text(encoding="utf-8").splitlines():
                d = json.loads(line)
                d["prompt"] = unicodedata.normalize(form, "caf\u00e9 " + d["prompt"])
                d["response"] = unicodedata.normalize(form, d["response"])
                lines.append(json.dumps(d, ensure_ascii=False) + "\n")
            (instances / src.name).write_text("".join(lines), encoding="utf-8")
        assert ("cafe\u0301 " in (instances / "mmt.hi.train.jsonl").read_text(encoding="utf-8")) \
            == (form == "NFD")
        (tree / "config.json").write_text(config.read_text())
        assert main(["train", "--config", str(tree / "config.json")]) == 0
        hyp = tree / "hyp.txt"
        assert main(["generate", "--checkpoint", str(tree / "run" / "stage3.ckpt"),
                     "--input", str(instances / "mmt.hi.test.jsonl"), "--out", str(hyp),
                     "--max-new-tokens", "4"]) == 0
        outputs[form] = [(tree / "run" / f"stage{s}.ckpt").read_bytes() for s in (1, 2, 3)]
        outputs[form].append(hyp.read_bytes())
    capsys.readouterr()
    assert outputs["NFD"] == outputs["NFC"]


@pytest.mark.parametrize("raw", [True, False], ids=["raw-sentences", "jsonl"])
def test_generate_oov_error_names_the_instance(tmp_path, capsys, raw):
    ckpt = text_only_checkpoint(tmp_path / "m.ckpt")
    if raw:
        source = tmp_path / "s.txt"
        source.write_text("red cat\nred \u03a9 cat\n", encoding="utf-8")
        named, flags = repr(f"{source}:2"), ["--raw-sentences", "--lang", "hi"]
    else:
        instances = make_instances(make_records(2, seed=1), "text_only")
        instances[1] = instances[1]._replace(prompt=instances[1].prompt + "\u03a9")
        source = tmp_path / "s.jsonl"
        write_instances(source, instances)
        named, flags = repr(instances[1].source_id), []
    hyp = tmp_path / "h.txt"
    assert main(["generate", "--checkpoint", str(ckpt), "--input", str(source),
                 "--out", str(hyp), "--max-new-tokens", "2", *flags]) == 3
    err = capsys.readouterr().err
    assert named in err and "'\u03a9'" in err
    assert not hyp.exists()


@pytest.mark.parametrize("mutate, named", [
    (lambda d: [1, 2], "a JSON object"),
    (lambda d: {**d, "prompt": 5}, "'prompt'"),
    (lambda d: {**d, "image_id": 7}, "'image_id'"),
    (lambda d: {**d, "image_id": "\ud800x"}, "'image_id'"),
    (lambda d: {**d, "source_id": [1]}, "'source_id'"),
    (lambda d: {**d, "lang": None}, "'lang'"),
    (lambda d: {**{k: v for k, v in d.items() if k != "image_id"}, "imageid": "img1"},
     "unknown key 'imageid'"),
    (lambda d: {**d, "task": "mmt", "image_id": None}, "'mmt' instance needs an 'image_id'"),
    (lambda d: {k: v for k, v in d.items() if k != "image_id"} | {"task": "caption"},
     "'caption' instance needs an 'image_id'"),
    # training and decoding would feed the image with a prompt that names none
    (lambda d: {**d, "image_id": "img1"}, "'text_only' instance has no 'image_id'"),
    (lambda d: {**d, "task": "summarize"},
     "bad instance record: task must be one of ('mmt', 'text_only', 'caption'), got 'summarize'"),
], ids=["array", "int-prompt", "int-image-id", "lone-surrogate", "list-source-id", "null-lang",
        "misspelt-key", "mmt-without-image", "caption-without-image", "text-only-with-image",
        "unknown-task"])
def test_generate_rejects_a_malformed_instance_record(tmp_path, capsys, mutate, named):
    record = make_instances(make_records(1, seed=1), "text_only")[0]._asdict()
    source = tmp_path / "s.jsonl"
    source.write_text(json.dumps(record) + "\n" + json.dumps(mutate(record)) + "\n",
                      encoding="utf-8")
    hyp = tmp_path / "h.txt"
    assert main(["generate", "--checkpoint", str(text_only_checkpoint(tmp_path / "m.ckpt")),
                 "--input", str(source), "--out", str(hyp), "--max-new-tokens", "2"]) == 3
    err = capsys.readouterr().err
    assert f"data error: {source}:2: " in err and named in err
    assert not hyp.exists()


def test_raw_sentences_into_a_language_outside_langs_is_a_config_error(tmp_path, capsys):
    sentences = tmp_path / "s.txt"
    sentences.write_text("red cat\n", encoding="utf-8")
    assert main(["generate", "--checkpoint", str(text_only_checkpoint(tmp_path / "m.ckpt")),
                 "--input", str(sentences), "--out", str(tmp_path / "h.txt"),
                 "--raw-sentences", "--lang", "en"]) == 2
    assert "config error: unknown language 'en'" in capsys.readouterr().err
    assert not (tmp_path / "h.txt").exists()


def test_negative_decode_budget_is_a_config_error(tmp_path, capsys):
    sentences = tmp_path / "s.txt"
    sentences.write_text("red cat\n", encoding="utf-8")
    assert main(["generate", "--checkpoint", str(text_only_checkpoint(tmp_path / "m.ckpt")),
                 "--input", str(sentences), "--out", str(tmp_path / "h.txt"),
                 "--raw-sentences", "--lang", "hi", "--max-new-tokens", "-1"]) == 2
    assert "config error: --max-new-tokens must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "h.txt").exists()


@pytest.mark.parametrize("flags, message", [
    # an instance file carries its own language: --lang would decode nothing else
    (["--input", "x.jsonl", "--lang", "bn"], "--lang applies only to --raw-sentences input"),
    (["--input", "s.txt", "--raw-sentences", "--lang", "hi", "--task", "mmt"],
     "--task does not apply to --raw-sentences input"),
    (["--input", "s.txt", "--raw-sentences", "--lang", "hi", "--no-image"],
     "--no-image does not apply to --raw-sentences input"),
    (["train", "--stages", "1,2", "--stage3-mode", "lora"],
     "--stage3-mode: the selected stages hold no stage 3"),
], ids=["generate-lang", "raw-task", "raw-no-image", "train-stage3-mode"])
def test_a_flag_its_command_would_ignore_is_a_config_error(fixture_tree, tmp_path, capsys,
                                                            flags, message):
    if flags[0] == "train":
        argv = [*flags, "--config", str(fixture_tree)]
    else:
        (tmp_path / "s.txt").write_text("red cat\n", encoding="utf-8")
        argv = ["generate", "--checkpoint", str(text_only_checkpoint(tmp_path / "m.ckpt")),
                "--out", str(tmp_path / "h.txt"),
                *[str(tmp_path / f) if f.endswith((".txt", ".jsonl")) else f for f in flags]]
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "h.txt").exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("target, code", [
    ("config.json", 2), ("hi_train.tsv", 3), ("detections/train0.json", 3),
    ("run/instances/caption.hi.train.jsonl", 3), ("s.txt", 3),
], ids=["config", "tsv", "detections", "instances", "raw-sentences"])
def test_non_utf8_input_gets_its_exit_code(fixture_tree, tmp_path, capsys, target, code):
    config = str(fixture_tree)
    command = ["prepare-data", "--config", config]
    if target.endswith(".jsonl"):
        assert main(command) == 0
        command = ["train", "--config", config]
    elif target == "s.txt":
        (tmp_path / target).write_text("red cat\n", encoding="utf-8")
        command = ["generate", "--checkpoint", str(text_only_checkpoint(tmp_path / "m.ckpt")),
                   "--input", str(tmp_path / target), "--out", str(tmp_path / "h.txt"),
                   "--raw-sentences", "--lang", "hi"]
    path = tmp_path / target
    path.write_bytes(path.read_bytes() + b"caf\xe9\n")
    assert main(command) == code
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and str(path) in err
