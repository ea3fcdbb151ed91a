"""tinymmt benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload train_mmt --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 measures half the time untraced and half with spans installed, and
reports per-layer metrics plus the tracing overhead between the two halves.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines above it name each
workload-specific figure with its unit. A fuller record, including the
environment, goes to .perfbench_out/. The exit code is 0 only when every
check on the program's outputs passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1   # fixed and at most nproc, so runs on any machine match
SETUPS = 15        # setup_s is the median of this many set-ups
OUT_DIR = Path(".perfbench_out")

# (name, unit) of every end-to-end metric, in output order
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ok/attempted"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("items_per_s", "items/s"),
]


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads_in_use():
    """OpenBLAS's own thread count when it can be asked, else None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, read without git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = Path(".git") / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads_in_use(),
        "dtype": "float64",
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed: int, scratch: Path):
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    started = perf_counter()
    state = workload.setup(seed, workdir)
    ended = perf_counter()
    return state, ended - started, (started + ended) / 2, workdir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    try:
        import tinymmt
    except ImportError as exc:
        tinymmt = exc
    if not Path(getattr(tinymmt, "__file__", "")).resolve().is_relative_to(src):
        print(f"perfbench: cannot import tinymmt from {src} ({tinymmt}); "
              "run from the root of a tinymmt checkout", file=sys.stderr)
        return 2

    import bench_layers as bl
    import bench_workloads as bw
    from bench_speed import SpeedReference
    from bench_trace import Tracer, installed

    if args.workload not in bw.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bw.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = bw.WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        speed = SpeedReference(workload.speed_kind, scratch)
        setup_times = []
        workdir = None
        for _ in range(SETUPS):
            speed.measure()
            if workdir is not None:  # unwritten data left behind would slow the next set-up
                shutil.rmtree(workdir)
            state, took, at, workdir = _setup(workload, args.seed, scratch)
            setup_times.append((took, at))
        speed.measure()
        setup_times = [took * speed.scale(at) for took, at in setup_times]

        if args.trace == 0:
            res = workload.run(state, args.seconds)
            traced = layers = None
        else:
            res = workload.run(state, args.seconds / 2)
            tracer = Tracer()
            with installed(tracer, bl.layer_specs()), bl.tape_walk(tracer):
                traced_state, *_ = _setup(workload, args.seed, scratch)
                traced = workload.run(traced_state, args.seconds / 2, tracer)
            summary = tracer.summary()
            layers = bl.per_layer(summary, traced, res)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = [res] if traced is None else [res, traced]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = failed == 0 and attempted > 0

    p, _, _ = bw.tail(res.op_ms)
    end_to_end = {
        "setup_s": bw.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        "op_ms_p50": bw.median(res.op_ms),
        "op_ms_tail": p,
        "items_per_s": res.items_per_s,
    }
    units = dict(END_TO_END)
    if layers is None:
        metrics = {k: {"value": end_to_end[k], "unit": units[k]} for k, _ in END_TO_END}
    else:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in bl.PER_LAYER}

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in runs for p in r.problems],
        "setup_s_all": setup_times,
        "end_to_end": end_to_end,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res.named.items()},
        "info": res.info,
    }
    if traced is not None:
        record["per_layer"] = layers
        record["traced_named"] = {k: {"value": v, "unit": u}
                                  for k, (v, u) in traced.named.items()}
        record["trace_summary"] = {k: summary[k] for k in ("windows", "window_ms", "self_ms")}
        record["baseline"] = bl.baseline_table(args.workload, summary, traced)
        traced_tail, _, _ = bw.tail(traced.op_ms)
        record["trace_overhead"] = {
            "op_ms_p50": bw.median(traced.op_ms) - bw.median(res.op_ms),
            "op_ms_tail": traced_tail - p,
            "items_per_s": traced.items_per_s - res.items_per_s,
        }
    out_file = OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} -> {out_file}")
    for key, (value, unit) in res.named.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    for key, value in sorted(res.info.items()):
        print(f"{args.workload} {key} = {value}")
    if traced is not None:
        for key, value in record["baseline"].items():
            print(f"{args.workload} baseline {key} = {value}")
        for key, value in record["trace_overhead"].items():
            print(f"{args.workload} tracing overhead {key} = {value:+.6g} {units[key]}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
