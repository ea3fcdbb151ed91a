"""perfbench's trace table names product functions where their callers look
them up, and its workloads call the product's functions; a rename or a
changed signature in src/ fails here instead of in a benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_SECONDS = 0.3


def test_every_traced_name_resolves_where_the_tracer_patches_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_layers

    specs = bench_layers.layer_specs()
    assert specs
    for spec in specs:
        # what bench_trace.installed reads before it patches the name
        assert callable(spec.owner.__dict__.get(spec.attr)), \
            f"{spec.name}: {spec.owner.__name__} has no {spec.attr}"


@pytest.mark.parametrize("name", ["train_mmt", "train_text_lora", "translate", "corpus"])
def test_each_workload_runs_traced_with_no_failed_op(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_layers
    import bench_workloads
    from bench_trace import Tracer, installed

    workload = bench_workloads.WORKLOADS[name]
    tracer = Tracer()
    with installed(tracer, bench_layers.layer_specs()), bench_layers.tape_walk(tracer):
        traced = workload.run(workload.setup(1, tmp_path), TRACED_SECONDS, tracer)
    assert traced.problems == []
    assert traced.failed == 0 and traced.attempted > 0
    layers = bench_layers.per_layer(tracer.summary(), traced, traced)
    assert {metric for metric, _, _ in bench_layers.PER_LAYER} <= set(layers)
