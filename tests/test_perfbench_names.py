"""perfbench's trace table names product functions where their callers look
them up; a rename in src/ fails here instead of in a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves_where_the_tracer_patches_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench_layers

    specs = bench_layers.layer_specs()
    assert specs
    for spec in specs:
        # what bench_trace.installed reads before it patches the name
        assert callable(spec.owner.__dict__.get(spec.attr)), \
            f"{spec.name}: {spec.owner.__name__} has no {spec.attr}"
