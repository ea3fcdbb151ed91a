"""Acceptance suite: one test per advertised guarantee, run with -v (and -s
for the detail lines). Budgeted criteria assert their own wall-clock limits.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tinymmt.datapipe import (
    BoundingBox,
    VgRecord,
    corpus_stats,
    iou,
    parse_vg_tsv,
    render_prompt,
    synth_image,
)
from tinymmt.metrics import bleu, kendall_tau, ribes, tokenize
from tinymmt.model import default_lora_targets, lora_attach, lora_merge
from tinymmt.numerics import grad_check_params
from tinymmt.training import (
    StageConfig,
    derive_stage_seed,
    run_pipeline,
    run_stage,
)
from tinymmt.training.sweep import evaluate_bleu, generate_hypotheses

from conftest import HINDI, WORDS, build_model, make_instances, make_records

GOLDEN = Path(__file__).parent / "golden"


def announce(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: PASS - {message}")


# ----------------------------------------------------------------------
# 1. gradient fidelity


def test_criterion_01_gradient_fidelity():
    started = time.monotonic()
    worst = 0.0
    for seed in range(5):
        records = make_records(3, seed=100 + seed)
        instances = make_instances(records, "mmt")
        model = build_model(instances, seed=seed, c_total=512)
        assert model.config.d_model == 64
        inst = instances[0]
        prompt = model.vocab.encode(inst.prompt)
        response = model.vocab.encode(inst.response)
        image = synth_image(inst.image_id, model.config.image_size)

        def loss_fn():
            assembled = model.assemble_sequence(prompt, model.visual_tokens(image), response)
            loss, _ = model.loss(assembled)
            return loss

        tensors = [model.params[name] for name in model.params.names()]
        err = grad_check_params(loss_fn, tensors, h=1e-4,
                                rng=np.random.default_rng(seed), coords_per_tensor=2)
        worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert worst < 1e-3, f"max relative error {worst}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    announce(1, f"full-model gradient check, 5 seeds, max rel err {worst:.2e} "
                f"in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. freezing contract


def test_criterion_02_freezing_contract(tmp_path):
    started = time.monotonic()
    records = make_records(8, seed=21)
    caption = make_instances(records, "caption")
    mmt = make_instances(records, "mmt")
    text = make_instances(records, "text_only")
    model = build_model(caption + mmt + text, seed=5, c_total=512)
    cfgs = [StageConfig(stage=s, seed=derive_stage_seed(3, s), max_steps=3, batch_size=4)
            for s in (1, 2, 3)]
    datasets = {1: caption, 2: caption + mmt, 3: mmt + text}
    _, logs = run_pipeline(model, cfgs, datasets, tmp_path, ())

    vision = {d for log in logs for d in (log.digests_pre["vision"], log.digests_post["vision"])}
    assert len(vision) == 1, "vision encoder weights changed"

    by_stage = {log.stage: log for log in logs}
    assert by_stage[1].digests_pre["llm"] == by_stage[1].digests_post["llm"]
    assert by_stage[2].digests_pre["llm"] != by_stage[2].digests_post["llm"]
    assert by_stage[3].digests_pre["llm"] != by_stage[3].digests_post["llm"]
    for stage in (1, 2, 3):
        assert by_stage[stage].digests_pre["adapter"] != by_stage[stage].digests_post["adapter"], \
            f"adapter did not change in stage {stage}"

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    announce(2, f"SHA digests: vision frozen, llm trains in stages 2-3 only, "
                f"adapter in all stages ({elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 3. low-rank adapter contracts


def test_criterion_03_lora_contracts():
    records = make_records(6, seed=31)
    instances = make_instances(records, "mmt")
    model = build_model(instances, seed=9, c_total=512)
    prompt = model.vocab.encode(instances[0].prompt)
    image = synth_image(instances[0].image_id, model.config.image_size)

    # (a) zero-init identity
    base_out = model.generate(prompt, image, max_new_tokens=16)
    lora_attach(model)
    assert np.array_equal(base_out, model.generate(prompt, image, max_new_tokens=16))

    # (c) base weights bit-frozen across an entire low-rank stage-3 run
    log = run_stage(model, instances,
                    StageConfig(stage=3, mode="lora", lr=1e-3, epochs=2, batch_size=2, seed=7))
    assert log.digests_pre["llm"] == log.digests_post["llm"]
    assert log.digests_pre["vision"] == log.digests_post["vision"]
    assert any(model.params[f"lora.{t}.B"].data.any() for t in default_lora_targets(model))

    # (b) merge equivalence after training
    response = model.vocab.encode(instances[0].response)
    assembled = model.assemble_sequence(prompt, model.visual_tokens(image), response)
    adapted = model.forward(assembled).data.copy()
    lora_merge(model)
    assembled = model.assemble_sequence(prompt, model.visual_tokens(image), response)
    merged = model.forward(assembled).data
    gap = float(np.abs(adapted - merged).max())
    assert gap < 1e-9, f"merge gap {gap}"
    announce(3, f"zero-init identity, base digests frozen, merge gap {gap:.2e}")


# ----------------------------------------------------------------------
# 4. overfit oracle


def _overfit_pairs(n=32, seed=5):
    rng = np.random.default_rng(seed)
    seen = set()
    records = []
    i = 0
    while len(records) < n:
        k = int(rng.integers(2, 4))
        sel = tuple(rng.choice(WORDS, size=k, replace=False))
        if sel in seen:
            continue
        seen.add(sel)
        records.append(VgRecord(
            image_id=f"pair{i}", box=BoundingBox(0, 0, 1, 1),
            english=" ".join(sel), target_lang="hi",
            target_text=" ".join(HINDI[w] for w in sel), split="train"))
        i += 1
    return records


def test_criterion_04_overfit_oracle():
    started = time.monotonic()
    instances = make_instances(_overfit_pairs(32), "text_only")
    model = build_model(instances, seed=11, c_total=256)

    max_total_steps = 2000
    chunk = 250
    total_steps = 0
    exact = 0
    score = 0.0
    while total_steps < max_total_steps:
        budget = min(chunk, max_total_steps - total_steps)
        cfg = StageConfig(stage=3, lr=1e-3, epochs=10_000, batch_size=8, seed=123,
                          max_steps=budget)
        log = run_stage(model, instances, cfg)
        total_steps += len(log.steps)
        hyps = generate_hypotheses(model, instances)
        exact = sum(h == inst.response for h, inst in zip(hyps, instances))
        score = bleu([tokenize(h) for h in hyps],
                     [tokenize(inst.response) for inst in instances], smooth=True)
        if exact >= math.ceil(0.9 * len(instances)) and score >= 90.0:
            break

    elapsed = time.monotonic() - started
    assert total_steps <= max_total_steps
    assert exact >= math.ceil(0.9 * len(instances)), \
        f"exact match {exact}/{len(instances)} after {total_steps} steps"
    assert score >= 90.0, f"train BLEU {score:.1f} after {total_steps} steps"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    announce(4, f"{exact}/32 exact, BLEU {score:.1f} after {total_steps} steps "
                f"({elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 5. stage-skip ablation machinery


def test_criterion_05_stage_skip_ablations(tmp_path):
    records = make_records(6, seed=51)
    caption = make_instances(records, "caption")
    mmt = make_instances(records, "mmt")
    datasets = {1: caption, 2: caption + mmt, 3: mmt}
    val = make_instances(make_records(2, seed=52), "mmt")

    def build():
        return build_model(caption + mmt + val, seed=3, c_total=512)

    def cfg(stage):
        return StageConfig(stage=stage, seed=derive_stage_seed(9, stage),
                           max_steps=2, batch_size=2)

    runs = {}
    for name, stages in (("full", (1, 2, 3)), ("skip2", (1, 3)), ("zero_shot", (1, 2))):
        model, logs = run_pipeline(build(), [cfg(s) for s in stages], datasets,
                                   tmp_path / name, ())
        runs[name] = model
        assert [log.stage for log in logs] == list(stages)
        for s in stages:
            assert (tmp_path / name / f"stage{s}.log.jsonl").exists()

    # the 0-shot setting: evaluation straight after stage 2
    zero_shot_bleu = evaluate_bleu(runs["zero_shot"], val)
    assert np.isfinite(zero_shot_bleu)

    provenances = [tuple(p["stage"] for p in runs[name].provenance)
                   for name in ("full", "skip2", "zero_shot")]
    assert provenances == [(1, 2, 3), (1, 3), (1, 2)]
    announce(5, "pipelines [1,2,3], [1,3], [1,2]+evaluate all completed with "
                "distinct logged configurations")


# ----------------------------------------------------------------------
# 6. IoU oracle


def _membership_masks(boxes: np.ndarray, grid: int) -> np.ndarray:
    """(n, grid*grid) uint8 pixel membership for (x, y, w, h) rows."""
    xs = np.arange(grid)
    in_x = (boxes[:, 0, None] <= xs) & (xs < boxes[:, 0, None] + boxes[:, 2, None])
    in_y = (boxes[:, 1, None] <= xs) & (xs < boxes[:, 1, None] + boxes[:, 3, None])
    return (in_x[:, :, None] & in_y[:, None, :]).reshape(len(boxes), -1).astype(np.uint8)


def _formula_inter_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form intersection/union areas for box arrays."""
    ox = np.minimum(a[:, 0] + a[:, 2], b[:, 0] + b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    oy = np.minimum(a[:, 1] + a[:, 3], b[:, 1] + b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.clip(ox, 0, None) * np.clip(oy, 0, None)
    union = a[:, 2] * a[:, 3] + b[:, 2] * b[:, 3] - inter
    return inter, union


def test_criterion_06_iou_oracle():
    # (a) every box pair with coordinates/extents < 8: full 2-D
    # pixel-membership counting, exact integer agreement
    small = np.array([(x, y, w, h)
                      for x in range(8) for y in range(8)
                      for w in range(1, 8) for h in range(1, 8)], dtype=np.int64)
    masks = _membership_masks(small, grid=14)
    areas = masks.sum(axis=1)
    block = 512
    for lo in range(0, len(small), block):
        chunk = small[lo: lo + block]
        inter_pix = masks[lo: lo + block].astype(np.int32) @ masks.T.astype(np.int32)
        union_pix = areas[lo: lo + block][:, None] + areas[None, :] - inter_pix
        a = np.repeat(chunk, len(small), axis=0)
        b = np.tile(small, (len(chunk), 1))
        inter_f, union_f = _formula_inter_union(a, b)
        assert np.array_equal(inter_f.reshape(inter_pix.shape), inter_pix)
        assert np.array_equal(union_f.reshape(union_pix.shape), union_pix)

    # (b) the per-axis overlap factor, exhaustively for all coordinates and
    # extents < 32 (intersection areas factor into per-axis overlaps, so this
    # plus (a) pins the closed form on the whole < 32 domain)
    intervals = np.array([(x, w) for x in range(32) for w in range(1, 32)], dtype=np.int64)
    member = (intervals[:, 0, None] <= np.arange(63)) & \
             (np.arange(63) < intervals[:, 0, None] + intervals[:, 1, None])
    counts = member.astype(np.int32) @ member.T.astype(np.int32)
    starts = intervals[:, 0]
    ends = intervals[:, 0] + intervals[:, 1]
    formula = np.clip(np.minimum(ends[:, None], ends[None, :])
                      - np.maximum(starts[:, None], starts[None, :]), 0, None)
    assert np.array_equal(formula, counts)

    # (c) 200k random pairs over the full < 32 domain, full 2-D pixel counting
    rng = np.random.default_rng(66)
    n = 200_000
    def sample(k):
        return np.stack([rng.integers(0, 32, k), rng.integers(0, 32, k),
                         rng.integers(1, 32, k), rng.integers(1, 32, k)], axis=1)
    a_boxes = sample(n)
    b_boxes = sample(n)
    inter_f, union_f = _formula_inter_union(a_boxes, b_boxes)
    for lo in range(0, n, 10_000):
        a_chunk = a_boxes[lo: lo + 10_000]
        b_chunk = b_boxes[lo: lo + 10_000]
        ma = _membership_masks(a_chunk, grid=63).astype(bool)
        mb = _membership_masks(b_chunk, grid=63).astype(bool)
        inter_pix = (ma & mb).sum(axis=1)
        union_pix = (ma | mb).sum(axis=1)
        assert np.array_equal(inter_f[lo: lo + 10_000], inter_pix)
        assert np.array_equal(union_f[lo: lo + 10_000], union_pix)

    # and the production function agrees with the counts bit-for-bit
    for i in rng.integers(0, n, 500):
        box_a = BoundingBox(*[int(v) for v in a_boxes[i]])
        box_b = BoundingBox(*[int(v) for v in b_boxes[i]])
        assert iou(box_a, box_b) == inter_f[i] / union_f[i]
    announce(6, "IoU matches integer pixel membership: exhaustive < 8 pairs, "
                "exhaustive < 32 per-axis overlaps, 200k random < 32 pairs, exact")


# ----------------------------------------------------------------------
# 7. prompt byte-exactness


def test_criterion_07_prompt_byte_exactness():
    record = VgRecord(
        image_id="im042", box=BoundingBox(5, 10, 20, 30),
        english="a cat sits on the mat", target_lang="hi",
        target_text="एक बिल्ली चटाई पर बैठी है", split="train")
    cases = {
        "mmt_tagged.txt": render_prompt(record, "mmt", tag="cat"),
        "mmt_untagged.txt": render_prompt(record, "mmt", None),
        "text_only.txt": render_prompt(record, "text_only", None),
        "caption.txt": render_prompt(record, "caption", tag="cat"),
    }
    for name, inst in cases.items():
        expected = (GOLDEN / name).read_bytes()
        assert (inst.prompt + "\n").encode("utf-8") == expected, f"drift in {name}"
    assert "x1=5, y1=10, x2=25, y2=40" in cases["mmt_tagged.txt"].prompt
    announce(7, "all three task templates byte-identical to golden files, "
                "corners render as x+w / y+h")


# ----------------------------------------------------------------------
# 8. metric oracles


def test_criterion_08_metric_oracles():
    tol = 1e-9
    corpus = [tokenize("एक बिल्ली चटाई पर"), tokenize("the dog runs fast")]
    assert abs(bleu(corpus, [list(s) for s in corpus], smooth=False) - 100.0) < tol
    assert abs(ribes(corpus, [list(s) for s in corpus]) - 1.0) < tol

    # clipped unigram precision 1/4, bigram precision 0 -> unsmoothed score 0
    from tinymmt.metrics import ngram_counts
    hyp = ["the", "the", "the", "the"]
    ref = ["the", "cat"]
    hyp_counts = ngram_counts(hyp, 1)
    ref_counts = ngram_counts(ref, 1)
    p1 = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()) / sum(hyp_counts.values())
    assert abs(p1 - 0.25) < tol
    assert bleu([hyp], [ref], smooth=False) == 0.0

    assert abs(ribes([["d", "c", "b", "a"]], [["a", "b", "c", "d"]])) < tol

    for n in range(2, 7):
        for perm in itertools.permutations(range(n)):
            concordant = sum(1 for i, j in itertools.combinations(range(n), 2)
                             if perm[j] > perm[i])
            discordant = n * (n - 1) // 2 - concordant
            brute = (concordant - discordant) / (n * (n - 1) / 2)
            assert abs(kendall_tau(list(perm)) - brute) < tol
    announce(8, "BLEU/RIBES maxima, clipping example, reversal zero, and "
                "exhaustive Kendall tau all inside 1e-9")


# ----------------------------------------------------------------------
# 9. official dataset counts (conditional)


OFFICIAL_DIR = os.environ.get("TINYMMT_VG_DIR", "")
TABLE_COUNTS = {"train": 28930, "valid": 998, "test": 1595, "challenge": 1400}


def test_criterion_09_official_dataset_counts():
    if not OFFICIAL_DIR:
        pytest.skip("official Visual Genome translation TSVs not supplied "
                    "(set TINYMMT_VG_DIR to a directory of <lang>_<split>.tsv files)")
    root = Path(OFFICIAL_DIR)
    checked = 0
    for lang in ("hi", "bn", "ml"):
        for split, expected in TABLE_COUNTS.items():
            path = root / f"{lang}_{split}.tsv"
            if not path.exists():
                continue
            result = parse_vg_tsv(path, lang, split, strict=False)
            assert len(result.records) == expected, \
                f"{path}: {len(result.records)} records, expected {expected}"
            stats = corpus_stats(result.records)
            print(f"diagnostic {lang}/{split}: avg tokens "
                  f"{stats[split]['avg_tokens']} (not asserted)")
            checked += 1
    if checked == 0:
        pytest.skip(f"no <lang>_<split>.tsv files found under {root}")
    announce(9, f"official split counts match on {checked} files")


# ----------------------------------------------------------------------
# 10. determinism of command artifacts


def test_criterion_10_command_determinism(tmp_path):
    from test_cli import write_fixture_tree
    from tinymmt.cli import main

    def run_all(root: Path):
        config = str(write_fixture_tree(root, n_train=4, n_eval=2, seed=4))
        assert main(["prepare-data", "--config", config]) == 0
        assert main(["train", "--config", config]) == 0
        run = root / "run"
        ref = run / "ref.txt"
        refs = [json.loads(l)["response"] for l in
                (run / "instances" / "text_only.hi.test.jsonl").read_text(
                    encoding="utf-8").splitlines()]
        ref.write_text("".join(r + "\n" for r in refs), encoding="utf-8")
        assert main(["generate", "--checkpoint", str(run / "stage3.ckpt"),
                     "--input", str(run / "instances" / "text_only.hi.test.jsonl"),
                     "--out", str(run / "hyp.txt"), "--max-new-tokens", "6"]) == 0
        assert main(["evaluate", "--hyp", str(run / "hyp.txt"), "--ref", str(ref),
                     "--lang", "hi", "--split", "test", "--smooth",
                     "--out", str(run / "report.json")]) == 0
        artifacts = {}
        for pattern in ("instances/*.jsonl", "stats.json", "stage*.ckpt",
                        "hyp.txt", "report.json"):
            for p in sorted(run.glob(pattern)):
                artifacts[str(p.relative_to(run))] = p.read_bytes()
        return artifacts

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    announce(10, f"{len(first)} artifacts byte-identical across repeated runs "
                 "(instances, stats, checkpoints, hypotheses, reports)")
