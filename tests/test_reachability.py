"""Every function in src/tinymmt has a product caller.

One small pipeline runs through `main` under `sys.setprofile` and
`threading.setprofile`, so a worker thread's calls count too: criterion
10's commands, `generate` on each task's test file and with `--no-image`, a
LoRA stage 3, a stage with `mix_cap`, `sweep`, `report`, and `evaluate` on
multi-word hypotheses, one file of them capitalised and punctuated. Then
one rejected input per JSON reader (config, detector file, instance line,
report and checkpoint header) takes each reader's error path. Every
function defined under src/tinymmt, nested backward closures included, must
be called on the way. The only exceptions are the functions an acceptance
criterion alone calls, each listed below with its criterion; such a function
must exist and must stay unreached by the pipeline, so the list cannot go
stale.
"""

import ast
import json
import struct
import sys
import threading
from pathlib import Path

import pytest

import tinymmt
from tinymmt.cli import main

from test_cli import write_fixture_tree

SRC = Path(tinymmt.__file__).resolve().parent

# (path under src/tinymmt, qualified name) -> the acceptance criterion that
# is the function's only caller
CRITERION_ONLY = {
    ("model/lora.py", "lora_merge"): "03: merging folds the adapters into the base weights",
    ("numerics/params.py", "ParameterStore.remove"): "03: lora_merge drops the adapters",
    ("numerics/gradcheck.py", "grad_check_params"): "01: full-model gradient fidelity",
    ("numerics/gradcheck.py", "_rel_error"): "01: grad_check_params's per-coordinate error",
    ("metrics/bleu.py", "ngram_counts"): "08: the clipped unigram precision of 'the the the "
                                         "the' against 'the cat'",
}


def _defined() -> dict[tuple[Path, int, str], tuple[str, str]]:
    """Every function under src/tinymmt, keyed as its code object reports it:
    (file, first line, name) -> (path under src/tinymmt, qualified name)."""
    found = {}

    def visit(node, path, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = "<lambda>" if isinstance(child, ast.Lambda) else child.name
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in
                                             getattr(child, "decorator_list", ())])
                found[(path, line, name)] = (rel, prefix + name)
                visit(child, path, rel, prefix + name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, rel, prefix + child.name + ".")
            else:
                visit(child, path, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path,
              path.relative_to(SRC).as_posix(), "")
    return found


def _commands(root: Path) -> list[tuple[list[str], int]]:
    """The pipeline's command lines and the exit code each must give, over a
    fixture tree written into root."""
    config = write_fixture_tree(root, n_train=4, n_eval=2, seed=4)
    raw = json.loads(config.read_text())
    raw["train"]["stages"][1]["mix_cap"] = 2
    config.write_text(json.dumps(raw))
    config = str(config)
    run, instances = root / "run", root / "run" / "instances"
    ckpt = str(run / "stage3.ckpt")
    ref = root / "ref.txt"
    ref.write_text("लाल बिल्ली\nनीला कुत्ता\n", encoding="utf-8")
    # capitals and punctuation reach the tokenizer's rewrite, a repeated
    # n-gram reaches BLEU's clipped count
    cased = root / "cased.txt"
    cased.write_text("Red cat, red cat.\nनीला कुत्ता।\n", encoding="utf-8")
    bad = root / "bad"
    (bad / "detections").mkdir(parents=True)
    (bad / "detections" / "train0.json").write_text(
        '[{"label": "cat", "box": "2 3 10 12", "confidence": 0.9}]')
    (bad / "config.json").write_text(json.dumps(
        {"out_dir": "run", "data": {"tsv": {"hi": {"train": "../hi_train.tsv"}},
                                    "detections_dir": "detections"}}))
    (bad / "nan.json").write_text('{"out_dir": "run", "train": {"stages": '
                                  '[{"stage": 1, "data": ["a.jsonl"], "lr": NaN}]}}')
    (bad / "s.jsonl").write_text('{"task": "text_only", "prompt": "a", "response": "b", '
                                 '"lang": "hi", "source_id": "x", "image_id": "img1"}\n')
    (bad / "report.json").write_text('{"lang": "hi", "split": "test", "bleu": 1.0, '
                                     '"ribes": 0.5, "n_sentences": 1, "hyp_tokens": 2, '
                                     '"ref_tokens": 2, "chrf": 0.5}')
    header = b'{"seed": "7"}'
    (bad / "m.ckpt").write_bytes(b"CNVD" + struct.pack("<IQ", 1, len(header)) + header)
    rejected = [
        (["prepare-data", "--config", str(bad / "nan.json")], 2),
        (["prepare-data", "--config", str(bad / "config.json")], 3),
        (["generate", "--checkpoint", ckpt, "--input", str(bad / "s.jsonl"),
          "--out", str(bad / "hyp.txt")], 3),
        (["report", str(bad / "report.json")], 3),
        (["generate", "--checkpoint", str(bad / "m.ckpt"), "--input", str(bad / "s.jsonl"),
          "--out", str(bad / "hyp.txt")], 4),
    ]
    return [(argv, 0) for argv in [
        ["prepare-data", "--config", config],
        ["train", "--config", config],
        ["train", "--config", config, "--stages", "1,3", "--stage3-mode", "lora",
         "--out-dir", "lora"],
        *(["generate", "--checkpoint", ckpt, "--input", str(instances / f"{task}.hi.test.jsonl"),
           "--out", str(run / f"{task}.hyp.txt"), "--max-new-tokens", "4"]
          for task in ("mmt", "caption", "text_only")),
        ["generate", "--checkpoint", ckpt, "--input", str(instances / "mmt.hi.test.jsonl"),
         "--out", str(run / "no_image.hyp.txt"), "--max-new-tokens", "4", "--no-image"],
        ["evaluate", "--hyp", str(run / "text_only.hyp.txt"), "--ref", str(ref),
         "--lang", "hi", "--smooth", "--out", str(run / "report.json")],
        ["evaluate", "--hyp", str(ref), "--ref", str(ref), "--lang", "hi",
         "--split", "challenge", "--out", str(run / "self.json")],
        ["evaluate", "--hyp", str(cased), "--ref", str(ref), "--lang", "hi",
         "--out", str(run / "cased.json")],
        ["report", str(run / "report.json"), str(run / "self.json")],
        ["sweep", "--config", config, "--checkpoint", "run/stage2.ckpt",
         "--lrs", "1e-3", "--epochs", "1"],
    ]] + rejected


def _reached(commands) -> set[tuple[Path, int, str]]:
    """(file, first line, name) of every Python function the commands call."""
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    # threading's hook covers the threads a command starts, such as the
    # worker that runs a training step's backward
    previous, previous_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for argv, code in commands:
            assert main(argv) == code, argv
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous_threads)
    return {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name)
            for c in codes.values()}


@pytest.fixture(scope="module")
def coverage(tmp_path_factory):
    defined = _defined()
    reached = _reached(_commands(tmp_path_factory.mktemp("reach")))
    return defined, {defined[key] for key in reached if key in defined}


def _listing(defined, names) -> str:
    return "\n".join(f"src/tinymmt/{rel}:{line} {qual}"
                     for (_, line, _), (rel, qual) in sorted(defined.items(),
                                                             key=lambda kv: (kv[1][0], kv[0][1]))
                     if (rel, qual) in names)


def test_every_function_has_a_product_caller(coverage):
    defined, reached = coverage
    unreached = set(defined.values()) - reached - set(CRITERION_ONLY)
    if unreached:
        pytest.fail("never called by the product pipeline:\n" + _listing(defined, unreached))


def test_the_criterion_only_list_is_exact(coverage):
    defined, reached = coverage
    missing = sorted(set(CRITERION_ONLY) - set(defined.values()))
    stale = [f"src/tinymmt/{rel} {qual}: not defined" for rel, qual in missing]
    called = _listing(defined, set(CRITERION_ONLY) & reached)
    if called:
        stale.append("called by the product pipeline:\n" + called)
    if stale:
        pytest.fail("the criterion-only list is stale:\n" + "\n".join(stale))
