"""The four workloads: set-up, a timed closed loop with one caller, and the
checks on the program's outputs.

The op is what the one caller waits for: a train step (from one adam_step
return to the next), a translated sentence, or a corpus pass (prepare-data
then evaluate). Each run() measures for about the given number of seconds,
times the machine-speed reference between ops (see bench_speed), and returns
a Result. When a Tracer is passed, its op windows are filled in so per-layer
self times can be taken per op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_inputs
from bench_speed import SpeedReference

C_TOTAL = 512
BATCH = 8
TRAIN_INSTANCES = 32      # four steps per epoch
REPEAT_STEPS = 4          # every training repeat runs one epoch from the same start
LOSS_FINAL_STEPS = 3      # loss_final: mean loss over a repeat's last three steps
DECODE_BUDGET = 12        # fixed max_new_tokens; the work never depends on references
TRANSLATE_MMT, TRANSLATE_TEXT = 14, 28
CORPUS_SPLITS = {"train": 1200, "valid": 200, "test": 200}
CORPUS_REFS = 4000
IOU_THRESHOLD = 0.1


@dataclass
class Result:
    """Op spans as (start, end) perf_counter pairs, then figures from them.

    'first' spans are the part of an op before its first output: a repeat's
    first train step, a one-token generate call, the prepare-data half of a
    corpus pass.
    """

    ops: list = field(default_factory=list)
    firsts: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    named: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    op_ms: list = field(default_factory=list)
    op_raw_ms: list = field(default_factory=list)
    first_ms: list = field(default_factory=list)
    items_per_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def scale(self, speed: SpeedReference) -> None:
        """Op times in ms at the reference speed, and raw."""
        def ms(spans, scaled=True):
            return [(b - a) * 1000.0 * (speed.scale((a + b) / 2) if scaled else 1.0)
                    for a, b in spans]

        self.op_ms = ms(self.ops)
        self.op_raw_ms = ms(self.ops, scaled=False)
        self.first_ms = ms(self.firsts)
        self.info["speed_kernel_ms_p50"] = speed.median_ms()
        self.info["speed_kernel_calls"] = len(speed.samples)
        self.info["op_raw_ms_p50"] = median(self.op_raw_ms)


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return float("nan"), 0.0, 0
    if n <= 10:
        return xs[-1], 100.0, 0
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def _timing(res: Result, prefix: str) -> None:
    p, pct, beyond = tail(res.op_ms)
    res.named[f"{prefix}_ms_p50"] = (median(res.op_ms), "ms")
    res.named[f"{prefix}_ms_tail"] = (p, "ms")
    res.info[f"{prefix}_ms_tail_percentile"] = pct
    res.info[f"{prefix}_ms_tail_beyond"] = beyond
    res.info["ops"] = len(res.op_ms)


def _model_config(vocab):
    from tinymmt.model import ModelConfig

    return ModelConfig(vocab_size=len(vocab), c_total=C_TOTAL)


def _vocab(instances):
    from tinymmt.model import Vocabulary

    texts = [bench_inputs.LEXICON_TEXT]
    for inst in instances:
        texts += [inst.prompt, inst.response]
    return Vocabulary.from_texts(texts)


def _positions(inst, c_vis: int) -> int:
    """Length of the assembled training sequence for one instance."""
    image = c_vis if inst.image_id is not None else 0
    return 1 + image + 1 + len(inst.prompt) + 1 + len(inst.response) + 1


# ----------------------------------------------------------------------
# training

@dataclass
class TrainState:
    workdir: Path
    instances: list
    vocab: object
    config: object
    model: object
    stage_seed: int


class TrainWorkload:
    """Repeats of one epoch each from the same initial weights: a cold
    warm-up repeat on the model built in set-up gives the reference losses,
    then timed repeats on freshly built models run until the time is up.
    Every repeat must reproduce the reference losses."""

    speed_kind = "numpy"

    def __init__(self, task: str, stage: int, mode: str):
        self.task, self.stage, self.mode = task, stage, mode

    def setup(self, seed: int, workdir: Path) -> TrainState:
        from tinymmt.datapipe import read_instances, write_instances
        from tinymmt.model import MultimodalModel
        from tinymmt.training import derive_stage_seed

        rng = np.random.default_rng([seed, 1])
        path = workdir / f"{self.task}.train.jsonl"
        write_instances(path, bench_inputs.make_instances(rng, TRAIN_INSTANCES, self.task, "train"))
        instances = read_instances(path)
        vocab = _vocab(instances)
        config = _model_config(vocab)
        model = MultimodalModel(config, vocab, seed=seed)
        return TrainState(workdir, instances, vocab, config, model,
                          derive_stage_seed(seed, self.stage))

    def _guard(self, log, res: Result, which: str) -> list[float]:
        losses = [s["loss"] for s in log.steps]
        for s in log.steps:
            if not math.isfinite(s["loss"]):
                res.fail(f"{which} step {s['step']}: non-finite loss {s['loss']}")
        if log.digests_pre["vision"] != log.digests_post["vision"]:
            res.fail(f"{which}: vision weights changed")
        if self.mode == "lora" and log.digests_pre["llm"] != log.digests_post["llm"]:
            res.fail(f"{which}: base llm weights changed under lora")
        return losses

    def run(self, state: TrainState, seconds: float, tracer=None) -> Result:
        import tinymmt.training.loop as loop
        from tinymmt.model import MultimodalModel
        from tinymmt.training import StageConfig, run_stage

        res = Result()
        speed = SpeedReference(self.speed_kind, state.workdir)
        speed.measure()
        cfg = StageConfig(stage=self.stage, mode=self.mode, batch_size=BATCH,
                          seed=state.stage_seed, max_steps=REPEAT_STEPS, epochs=1)
        stops: list[float] = []    # adam_step returned
        goes: list[float] = []     # hook done, the next step starts
        adam = loop.adam_step

        def timed_adam(*args, **kwargs):
            adam(*args, **kwargs)
            stops.append(perf_counter())
            speed.tick()
            goes.append(perf_counter())

        loop.adam_step = timed_adam
        try:
            started = perf_counter()
            ref = run_stage(state.model, state.instances, cfg)
            res.attempted += len(ref.steps)
            ref_losses = self._guard(ref, res, "warm-up")
            repeat_s = perf_counter() - started
            deadline = perf_counter() + seconds
            repeat = 0
            while repeat == 0 or perf_counter() + repeat_s / 2 < deadline:
                repeat += 1
                model = MultimodalModel(state.config, state.vocab, seed=state.model.seed)
                stops.clear()
                goes.clear()
                started = perf_counter()
                try:
                    log = run_stage(model, state.instances, cfg)
                except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                    res.attempted += len(stops) + 1
                    res.fail(f"repeat {repeat}: " + traceback.format_exc(limit=3))
                    continue
                repeat_s = perf_counter() - started
                res.attempted += len(log.steps)
                if self._guard(log, res, f"repeat {repeat}") != ref_losses:
                    res.fail(f"repeat {repeat}: losses differ from the warm-up repeat")
                res.firsts.append((started, stops[0]))
                res.ops.extend(zip(goes[:-1], stops[1:]))
        finally:
            loop.adam_step = adam
        speed.measure()

        if tracer is not None:
            tracer.windows.extend(res.ops)
        res.scale(speed)
        per_sample = float(np.mean([_positions(i, state.config.c_vis) for i in state.instances]))
        if res.op_ms:
            res.items_per_s = per_sample * BATCH * len(res.op_ms) / (sum(res.op_ms) / 1000.0)
        _timing(res, "step")
        res.named["train_tokens_per_s"] = (res.items_per_s, "positions/s")
        res.named["first_step_ms_p50"] = (median(res.first_ms), "ms")
        res.named["loss_final"] = (float(np.mean(ref_losses[-LOSS_FINAL_STEPS:])), "nats")
        res.info.update(repeats=repeat, positions_per_sample=per_sample,
                        trainable_params=int(sum(model.params[n].data.size
                                                 for n in model.params.trainable)))
        return res


# ----------------------------------------------------------------------
# translation

@dataclass
class TranslateState:
    workdir: Path
    instances: list
    checkpoint: Path


class TranslateWorkload:
    speed_kind = "numpy"

    def setup(self, seed: int, workdir: Path) -> TranslateState:
        from tinymmt.datapipe import read_instances, write_instances
        from tinymmt.model import MultimodalModel
        from tinymmt.training import save_checkpoint

        rng = np.random.default_rng([seed, 2])
        mmt = bench_inputs.make_instances(rng, TRANSLATE_MMT, "mmt", "test")
        text = bench_inputs.make_instances(rng, TRANSLATE_TEXT, "text_only", "test")
        # one grounded sentence, then two text-only ones (see README)
        mixed = [inst for i in range(TRANSLATE_MMT)
                 for inst in (mmt[i], *text[2 * i: 2 * i + 2])]
        path = workdir / "heldout.jsonl"
        write_instances(path, mixed)
        instances = read_instances(path)
        vocab = _vocab(instances)
        model = MultimodalModel(_model_config(vocab), vocab, seed=seed)
        checkpoint = workdir / "model.ckpt"
        save_checkpoint(model, checkpoint)
        return TranslateState(workdir, instances, checkpoint)

    @staticmethod
    def _oracle(model, prompt, image, ids) -> str | None:
        """One teacher-forced forward over prompt + output: the argmax at each
        generated position must be the next generated token, and at the stop
        position <eos> unless the budget ran out. Returns the stop kind."""
        from tinymmt.model import EOS
        from tinymmt.numerics import no_grad

        with no_grad():
            visual = model.visual_tokens(image) if image is not None else None
            full = model.assemble_sequence(prompt, visual, None)
            n_prompt = len(full.ids)
            full = model._assemble(prompt, visual, ids, append_eos=False)
            predicted = model.forward(full).data[n_prompt - 1:].argmax(axis=1)
        if not np.array_equal(predicted[:len(ids)], ids):
            return None
        if len(ids) == DECODE_BUDGET:
            return "stop_budget"
        return "stop_eos" if predicted[len(ids)] == EOS else None

    def run(self, state: TranslateState, seconds: float, tracer=None) -> Result:
        from tinymmt.datapipe import make_synth_loader
        from tinymmt.training import load_checkpoint

        res = Result()
        speed = SpeedReference(self.speed_kind, state.workdir)
        t0 = perf_counter()
        model = load_checkpoint(state.checkpoint)
        load_ms = (perf_counter() - t0) * 1000.0
        loader = make_synth_loader(model.config.image_size)
        for inst in state.instances[:2]:  # warm-up: one grounded, one text-only
            model.generate(model.vocab.encode(inst.prompt),
                           loader(inst.image_id) if inst.image_id else None, DECODE_BUDGET)

        stops = {"stop_eos": 0, "stop_budget": 0}
        by_kind = {"mmt": [0.0, 0], "text_only": [0.0, 0]}
        tokens = []
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline:
            speed.tick()
            inst = state.instances[i % len(state.instances)]
            i += 1
            res.attempted += 1
            try:
                start = perf_counter()
                image = loader(inst.image_id) if inst.image_id is not None else None
                prompt = model.vocab.encode(inst.prompt)
                ids = model.generate(prompt, image, max_new_tokens=DECODE_BUDGET)
                end = perf_counter()
                model.generate(prompt, image, max_new_tokens=1)
                prefill_end = perf_counter()
                stop = self._oracle(model, prompt, image, ids)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                res.fail(f"{inst.source_id}: " + traceback.format_exc(limit=3))
                continue
            if stop is None:
                res.fail(f"{inst.source_id}: greedy output {ids.tolist()} disagrees with "
                         "the teacher-forced argmax")
                continue
            stops[stop] += 1
            res.ops.append((start, end))
            res.firsts.append((end, prefill_end))
            tokens.append(len(ids))
            by_kind[inst.task][0] += (end - start) * 1000.0
            by_kind[inst.task][1] += len(ids)
        speed.measure()

        if tracer is not None:
            tracer.windows.extend(res.ops)
        res.scale(speed)
        res.items_per_s = sum(tokens) / (sum(res.op_ms) / 1000.0) if res.op_ms else 0.0
        res.named["decode_tokens_per_s"] = (res.items_per_s, "tok/s")
        _timing(res, "sentence")
        res.named["prefill_ms_p50"] = (median(res.first_ms), "ms")
        res.info.update(stops, tokens=sum(tokens), checkpoint_load_ms=load_ms,
                        checkpoint_mb=state.checkpoint.stat().st_size / 1e6,
                        decode_raw_ms_per_token={k: (ms / n if n else 0.0)
                                                 for k, (ms, n) in by_kind.items()})
        return res


# ----------------------------------------------------------------------
# corpus: prepare-data then evaluate, in process

@dataclass
class CorpusState:
    workdir: Path
    expected: dict


class CorpusWorkload:
    speed_kind = "python"

    def setup(self, seed: int, workdir: Path) -> CorpusState:
        rng = np.random.default_rng([seed, 3])
        expected = bench_inputs.write_corpus(rng, workdir, CORPUS_SPLITS, CORPUS_REFS,
                                             IOU_THRESHOLD)
        return CorpusState(workdir, expected)

    def _pass(self, state: CorpusState) -> tuple[float, float, float, list[str]]:
        from tinymmt.cli import main

        root = state.workdir
        shutil.rmtree(root / "run", ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            rc_prep = main(["prepare-data", "--config", str(root / "config.json")])
            t1 = perf_counter()
            rc_eval = main(["evaluate", "--hyp", str(root / "hyp.txt"),
                            "--ref", str(root / "ref.txt"), "--lang", "hi",
                            "--split", "test", "--out", str(root / "run" / "report.json")])
            t2 = perf_counter()
        problems = []
        if rc_prep != 0 or rc_eval != 0:
            problems.append(f"exit codes {rc_prep}, {rc_eval}: {sink.getvalue()[-500:]}")
        return t0, t1, t2, problems

    def _check(self, state: CorpusState) -> list[str]:
        """Instance counts, labels clauses, stats and report against what the
        generator put in."""
        exp = state.expected
        run = state.workdir / "run"
        problems = []
        for split, n in exp["records"].items():
            for task in ("mmt", "text_only", "caption"):
                lines = (run / "instances" / f"{task}.hi.{split}.jsonl").read_text(
                    encoding="utf-8").splitlines()
                if len(lines) != n:
                    problems.append(f"{task}.{split}: {len(lines)} instances, expected {n}")
                if task == "mmt":
                    tagged = sum("labels of the objects" in json.loads(line)["prompt"]
                                 for line in lines)
                    if tagged != exp["tagged"][split]:
                        problems.append(f"mmt.{split}: {tagged} tagged prompts, "
                                        f"expected {exp['tagged'][split]}")
        stats = json.loads((run / "stats.json").read_text(encoding="utf-8"))
        counts = {split: s["count"] for split, s in stats["hi"].items()}
        if counts != exp["records"]:
            problems.append(f"stats counts {counts}, expected {exp['records']}")
        report = json.loads((run / "report.json").read_text(encoding="utf-8"))
        want = {"n_sentences": exp["n_refs"], "hyp_tokens": exp["hyp_tokens"],
                "ref_tokens": exp["ref_tokens"]}
        got = {k: report[k] for k in want}
        if got != want:
            problems.append(f"report {got}, expected {want}")
        if not (0.0 < report["bleu"] < 100.0 and 0.0 < report["ribes"] < 1.0):
            problems.append(f"report scores out of range: {report}")
        return problems

    def run(self, state: CorpusState, seconds: float, tracer=None) -> Result:
        res = Result()
        speed = SpeedReference(self.speed_kind, state.workdir)
        *_, problems = self._pass(state)  # warm-up
        problems += self._check(state)
        report_path = state.workdir / "run" / "report.json"
        reference = report_path.read_text(encoding="utf-8")
        if problems:
            res.attempted += 1
            res.fail("warm-up pass: " + "; ".join(problems))

        score_spans = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            speed.tick()
            res.attempted += 1
            try:
                t0, t1, t2, problems = self._pass(state)
                problems += self._check(state)
                if report_path.read_text(encoding="utf-8") != reference:
                    problems.append("report differs from the warm-up pass")
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                problems = [traceback.format_exc(limit=3)]
            if problems:
                res.fail("; ".join(problems))
                continue
            res.ops.append((t0, t2))
            res.firsts.append((t0, t1))
            score_spans.append((t1, t2))
        speed.measure()

        if tracer is not None:
            tracer.windows.extend(res.ops)
        res.scale(speed)
        records = sum(state.expected["records"].values())
        prep_s = sum(res.first_ms) / 1000.0
        score_s = sum(op - prep for op, prep in zip(res.op_ms, res.first_ms)) / 1000.0
        res.items_per_s = records * len(res.op_ms) / prep_s if prep_s else 0.0
        res.named["prepare_records_per_s"] = (res.items_per_s, "records/s")
        res.named["score_sentences_per_s"] = (
            state.expected["n_refs"] * len(res.op_ms) / score_s if score_s else 0.0,
            "sentences/s")
        _timing(res, "pass")
        res.named["prepare_ms_p50"] = (median(res.first_ms), "ms")
        res.info.update(records_per_pass=records, sentences_per_pass=state.expected["n_refs"],
                        detection_files=state.expected["det_files"])
        return res


WORKLOADS = {
    "train_mmt": TrainWorkload("mmt", stage=2, mode="full"),
    "train_text_lora": TrainWorkload("text_only", stage=3, mode="lora"),
    "translate": TranslateWorkload(),
    "corpus": CorpusWorkload(),
}
