"""The traced names of every tinymmt layer and the per-layer metrics taken
from their spans."""

from __future__ import annotations

import contextlib
from pathlib import Path

from bench_trace import Spec, tape_size
from bench_workloads import BATCH, Result, median


def layer_specs() -> list[Spec]:
    """Every traced name, where its callers look it up."""
    import tinymmt.cli as cli
    import tinymmt.datapipe as datapipe
    import tinymmt.datapipe.images as images
    import tinymmt.metrics.report as report
    import tinymmt.model.components as components
    import tinymmt.model.multimodal as multimodal
    import tinymmt.training as training
    import tinymmt.training.loop as loop
    from tinymmt.model.components import Block, DecoderLM, LayerNorm, Linear, SelfAttention
    from tinymmt.model.multimodal import MultimodalModel

    def trainable_size(args, _):
        store = args[0]
        return sum(store[n].data.size for n in store.trainable)

    def file_bytes(args, _):
        return Path(args[0]).stat().st_size

    return [
        Spec(loop, "backward", "numerics.backward"),
        Spec(loop, "adam_step", "numerics.adam", count=trainable_size),
        Spec(MultimodalModel, "encode_image", "model.vision", opaque=True),
        Spec(MultimodalModel, "project", "model.adapter", opaque=True),
        Spec(MultimodalModel, "_assemble", "model.assemble"),
        Spec(MultimodalModel, "forward", "model.forward", metric="model.llm.head",
             count=lambda args, _: len(args[1].ids)),
        Spec(MultimodalModel, "generate", "model.generate"),
        Spec(DecoderLM, "forward_embedded", "model.llm.head"),
        Spec(Block, "__call__", "model.llm.residual"),
        Spec(SelfAttention, "__call__", "model.llm.attn"),
        Spec(Linear, "__call__", "model.llm.linear"),
        Spec(LayerNorm, "__call__", "model.llm.ln", inline_under=frozenset({"model.llm.head"})),
        Spec(components, "gelu", "model.gelu"),
        Spec(multimodal, "cross_entropy_masked", "model.loss.ce"),
        Spec(images, "synth_image", "datapipe.images"),
        Spec(training, "save_checkpoint", "training.checkpoint.save",
             count=lambda args, _: Path(args[1]).stat().st_size),
        Spec(training, "load_checkpoint", "training.checkpoint.load",
             count=lambda args, _: Path(args[0]).stat().st_size),
        Spec(datapipe, "read_instances", "datapipe.read_instances"),
        Spec(cli, "load_config", "config.load"),
        Spec(cli, "cmd_prepare_data", "cli.prepare_data"),
        Spec(cli, "cmd_evaluate", "cli.evaluate"),
        Spec(cli, "parse_vg_tsv", "datapipe.parse", count=lambda _, r: len(r.records)),
        Spec(cli, "load_detections", "datapipe.detections"),
        Spec(cli, "select_tag", "datapipe.select_tag"),
        Spec(cli, "render_prompt", "datapipe.render"),
        Spec(cli, "write_instances", "datapipe.write", count=file_bytes),
        Spec(cli, "corpus_stats", "datapipe.stats"),
        Spec(report, "tokenize", "metrics.tokenize"),
        Spec(report, "bleu", "metrics.bleu"),
        Spec(report, "ribes", "metrics.ribes"),
    ]


@contextlib.contextmanager
def tape_walk(tracer):
    """Count tape nodes by walking the loss graph before each backward; the
    walk is its own span so its time is not charged to backward."""
    import tinymmt.training.loop as loop

    backward = loop.backward

    def walked(loss):
        with tracer.span("trace.tape_walk") as idx:
            tracer.counts[idx] = tape_size(loss)
        return backward(loss)

    loop.backward = walked
    try:
        yield
    finally:
        loop.backward = backward


# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [
    ("numerics.backward.ms", "ms/op", "lower"),
    ("numerics.tape_nodes", "nodes/op", "lower"),
    ("numerics.adam.ms", "ms/op", "lower"),
    ("numerics.adam.params", "params/op", "lower"),
    ("model.vision.ms", "ms/op", "lower"),
    ("model.adapter.ms", "ms/op", "lower"),
    ("model.llm.attn.ms", "ms/op", "lower"),
    ("model.llm.linear.ms", "ms/op", "lower"),
    ("model.llm.ln.ms", "ms/op", "lower"),
    ("model.gelu.ms", "ms/op", "lower"),
    ("model.llm.residual.ms", "ms/op", "lower"),
    ("model.llm.head.ms", "ms/op", "lower"),
    ("model.loss.ce.ms", "ms/op", "lower"),
    ("model.assemble.ms", "ms/op", "lower"),
    ("model.generate.ms", "ms/op", "lower"),
    ("model.forward.calls", "calls/op", "lower"),
    ("model.forward.positions", "positions/op", "lower"),
    ("model.decode.positions_per_token", "positions/tok", "lower"),
    ("model.generate.stop_eos", "count", "higher"),
    ("model.generate.stop_budget", "count", "lower"),
    ("training.checkpoint.save.ms", "ms", "lower"),
    ("training.checkpoint.save.mb_per_s", "MB/s", "higher"),
    ("training.checkpoint.load.ms", "ms", "lower"),
    ("training.checkpoint.load.mb_per_s", "MB/s", "higher"),
    ("datapipe.images.ms", "ms/op", "lower"),
    ("datapipe.read_instances.ms", "ms", "lower"),
    ("datapipe.parse.ms", "ms/op", "lower"),
    ("datapipe.detections.ms", "ms/op", "lower"),
    ("datapipe.detections.reads_per_record", "reads/record", "lower"),
    ("datapipe.select_tag.ms", "ms/op", "lower"),
    ("datapipe.render.ms", "ms/op", "lower"),
    ("datapipe.write.ms", "ms/op", "lower"),
    ("datapipe.write.bytes", "bytes/op", "lower"),
    ("datapipe.stats.ms", "ms/op", "lower"),
    ("metrics.tokenize.ms", "ms/op", "lower"),
    ("metrics.bleu.ms", "ms/op", "lower"),
    ("metrics.ribes.ms", "ms/op", "lower"),
    ("cli.prepare_data.ms", "ms/op", "lower"),
    ("cli.evaluate.ms", "ms/op", "lower"),
    ("config.load.ms", "ms/op", "lower"),
    ("trace.tape_walk.ms", "ms/op", "lower"),
    ("trace.accounted_share", "share", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]


def per_layer(summary: dict, traced: Result, untraced: Result) -> dict[str, float]:
    """Per-op per-layer figures from a trace summary."""
    ops = max(summary["windows"], 1)
    win = summary["in_windows"]
    every = summary["all"]
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, ms in summary["self_ms"].items():
        key = metric + ".ms"
        if key in out:
            out[key] = ms / ops

    def calls(name):
        return win.get(name, {}).get("calls", 0)

    def count(name):
        return win.get(name, {}).get("count", 0.0)

    out["numerics.tape_nodes"] = count("trace.tape_walk") / ops
    out["numerics.adam.params"] = count("numerics.adam") / ops
    out["model.forward.calls"] = calls("model.forward") / ops
    out["model.forward.positions"] = count("model.forward") / ops
    tokens = traced.info.get("tokens", 0)
    if tokens:
        out["model.decode.positions_per_token"] = count("model.forward") / tokens
    out["model.generate.stop_eos"] = traced.info.get("stop_eos", 0)
    out["model.generate.stop_budget"] = traced.info.get("stop_budget", 0)
    for io_name in ("save", "load"):
        rec = every.get(f"training.checkpoint.{io_name}")
        if rec:
            out[f"training.checkpoint.{io_name}.ms"] = rec["ms"] / rec["calls"]
            out[f"training.checkpoint.{io_name}.mb_per_s"] = rec["count"] / 1e6 / (rec["ms"] / 1000.0)
    rec = every.get("datapipe.read_instances")
    if rec:
        out["datapipe.read_instances.ms"] = rec["ms"] / rec["calls"]
    records = count("datapipe.parse")
    if records:
        out["datapipe.detections.reads_per_record"] = calls("datapipe.detections") / records
    out["datapipe.write.bytes"] = count("datapipe.write") / ops
    if summary["window_ms"]:
        out["trace.accounted_share"] = sum(summary["self_ms"].values()) / summary["window_ms"]
    base = median(untraced.op_ms)
    if base and traced.op_ms:
        out["trace.overhead_pct"] = 100.0 * (median(traced.op_ms) - base) / base
    return out


FORWARD_METRICS = ("model.vision", "model.adapter", "model.assemble", "model.llm.head",
                   "model.llm.residual", "model.llm.attn", "model.llm.linear", "model.llm.ln",
                   "model.gelu", "model.loss.ce")


def baseline_table(workload: str, summary: dict, traced: Result) -> dict:
    """The ROADMAP baseline figures (per grounded sample / per decoded token)
    as far as this workload's trace gives them."""
    if workload == "translate":
        return {"decode_raw_ms_per_token": traced.info["decode_raw_ms_per_token"]}
    if workload != "train_mmt":
        return {}
    ops = max(summary["windows"], 1)
    per_sample = {m: summary["self_ms"].get(m, 0.0) / ops / BATCH for m in FORWARD_METRICS}
    forward = sum(per_sample.values())
    backward = summary["self_ms"].get("numerics.backward", 0.0) / ops / BATCH
    return {
        "positions_per_sample": traced.info["positions_per_sample"],
        "forward_ms_per_sample": forward,
        "forward_backward_ms_per_sample": forward + backward,
        "vision_ms_per_sample": per_sample["model.vision"],
        "vision_share_of_forward": per_sample["model.vision"] / forward if forward else 0.0,
    }
