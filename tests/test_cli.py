import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import tinymmt.cli as cli
import tinymmt.training.sweep as sweep_module
from tinymmt.cli import main
from tinymmt.datapipe import read_instances
from tinymmt.model.vocab import SYS
from tinymmt.training import evaluate_bleu, load_checkpoint, save_checkpoint, validation_loss

from conftest import HINDI, WORDS, build_model, make_instances, make_records


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


# train_untagged: untagged train records x the two grounded tasks
@pytest.mark.parametrize("all_labels, detections, train_untagged", [
    (False, "detections", 2 * 2), (True, "detections", 1 * 2), (False, "no_such_dir", 6 * 2),
], ids=["best-iou", "all-labels", "missing-dir"])
def test_prepare_data_matches_a_per_task_reference(fixture_tree, tmp_path, capsys,
                                                    all_labels, detections, train_untagged):
    from tinymmt.datapipe import load_detections, parse_vg_tsv, render_prompt, select_tag

    # one record loses its detector file and one detection misses its box,
    # so some grounded prompts go untagged
    (tmp_path / "detections" / "train1.json").unlink()
    far = json.loads((tmp_path / "detections" / "train2.json").read_text())
    far[0]["box"] = [100, 100, 120, 120]
    (tmp_path / "detections" / "train2.json").write_text(json.dumps(far))
    raw = json.loads(fixture_tree.read_text())
    raw["data"].update(all_labels=all_labels, detections_dir=detections)
    fixture_tree.write_text(json.dumps(raw))
    assert main(["prepare-data", "--config", str(fixture_tree)]) == 0
    err = capsys.readouterr().err

    det_dir = tmp_path / detections if (tmp_path / detections).exists() else None
    for split in ("train", "valid", "test"):
        records = parse_vg_tsv(tmp_path / f"hi_{split}.tsv", "hi", split).records
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
    assert f"warning: hi/train: {train_untagged} grounded prompts" in err


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


@pytest.mark.parametrize("which, content", [
    ("hyp", None), ("ref", None), ("hyp", "caf\xe9\n".encode("latin-1")),
    ("ref", b"\xff\xfe\n"),
], ids=["missing-hyp", "missing-ref", "non-utf8-hyp", "non-utf8-ref"])
def test_evaluate_input_errors_exit_3(tmp_path, capsys, which, content):
    paths = {"hyp": tmp_path / "hyp.txt", "ref": tmp_path / "ref.txt"}
    for name, path in paths.items():
        if name != which:
            path.write_text("red cat\n", encoding="utf-8")
        elif content is not None:
            path.write_bytes(content)
    assert main(["evaluate", "--hyp", str(paths["hyp"]), "--ref", str(paths["ref"]),
                 "--lang", "hi", "--out", str(tmp_path / "report.json")]) == 3
    assert str(paths[which]) in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("content", [
    None, "{not json", "[1, 2]", '{"lang": "hi", "bleu": 1.0}',
    '{"lang": "hi", "split": "test", "bleu": "high", "ribes": 0.5, "n_sentences": 1, '
    '"hyp_tokens": 2, "ref_tokens": 2}',
], ids=["missing", "invalid-json", "not-an-object", "missing-keys", "wrong-type"])
def test_report_input_errors_exit_3(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["report", str(path)]) == 3
    assert "data error" in capsys.readouterr().err


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
    assert "stdin/1" in err and "stdin/0" not in err and "stdin/2" not in err
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
    stage3 = load_checkpoint(run / "stage3.ckpt")
    val = read_instances(run / "instances" / "text_only.hi.valid.jsonl")
    assert cell["val_loss"] == validation_loss(stage3, val)
    assert cell["bleu"] == evaluate_bleu(stage3, val, smooth=True)


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
    (["--lrs=-1,0"], "lr must be positive, got -1.0"),
    (["--lrs=1e-4,-1"], "lr must be positive, got -1.0"),
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
], ids=["lrs-all-bad", "lrs-second-bad", "epochs-zero"])
def test_sweep_rejects_a_bad_grid_before_training(stage2_tree, monkeypatch, capsys, flags,
                                                  message):
    trained = []
    monkeypatch.setattr(sweep_module, "run_stage", lambda *args, **kw: trained.append(args))
    assert main(["sweep", "--config", str(stage2_tree / "config.json"),
                 "--checkpoint", "run/stage2.ckpt", *flags]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert trained == []
    assert not (stage2_tree / "run" / "sweep.json").exists()


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
    instances.append(dataclasses.replace(instances[0], response=extra_symbols))
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
