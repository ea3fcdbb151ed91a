"""Machine-speed reference kernels, measured during a run.

On a shared machine the speed of the same code drifts by 10-20% over tens of
seconds (measured on a 2-vCPU VM: a fixed decode call and a fixed numpy
kernel slowed and sped up together; the ratio of the two moved by under 4%
over 25 s windows while each alone moved by about 10%). A run therefore
times a fixed reference kernel about twice a second, between ops, and scales
each op's time by NOMINAL_MS / (the kernel's local time). The result reads as
milliseconds at the reference speed; the raw wall times are kept beside it.

Two kernels, because the drift hits numpy and interpreter-bound code
differently: 'numpy' mirrors an LM block on a few hundred positions, 'python'
mirrors tokenizing, counting, JSON encoding and a small file write and read.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

PERIOD_S = 0.5      # at most one kernel call per PERIOD_S of run time
WINDOW_S = 5.0      # an op is scaled by the median kernel time within +-WINDOW_S


class _NumpyKernel:
    nominal_ms = 15.0

    def __init__(self, workdir: Path):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((352, 64))
        self.w1 = rng.standard_normal((64, 256)) * 0.1
        self.w2 = rng.standard_normal((256, 64)) * 0.1
        self.s = rng.standard_normal((2, 352, 352))

    def __call__(self) -> None:
        h = self.x @ self.w1
        g = 0.5 * h * (1.0 + np.tanh(0.79788 * (h + 0.044715 * h ** 3)))
        y = g @ self.w2
        e = np.exp(self.s - self.s.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        (p @ y[None, :, :]).sum()


class _PythonKernel:
    nominal_ms = 11.0

    def __init__(self, workdir: Path):
        rng = np.random.default_rng(0)
        words = [f"w{int(i)}" for i in rng.integers(0, 300, size=4800)]
        self.lines = [" ".join(words[i: i + 8]) for i in range(0, len(words), 8)]
        self.path = workdir / "speed-reference.jsonl"

    def __call__(self) -> None:
        counts: Counter = Counter()
        records = []
        for line in self.lines:
            toks = line.lower().split()
            counts.update(zip(toks, toks[1:]))
            records.append(json.dumps({"t": toks, "n": len(toks)}) + "\n")
        sorted(counts.items())
        self.path.write_text("".join(records), encoding="utf-8")
        self.path.read_text(encoding="utf-8")
        self.path.unlink()


KERNELS = {"numpy": _NumpyKernel, "python": _PythonKernel}


class SpeedReference:
    def __init__(self, kind: str, workdir: Path):
        self.kernel = KERNELS[kind](workdir)
        self.samples: list[tuple[float, float]] = []   # (midpoint, ms)
        self._last = float("-inf")

    def measure(self) -> None:
        t0 = perf_counter()
        self.kernel()
        t1 = perf_counter()
        self.samples.append(((t0 + t1) / 2, (t1 - t0) * 1000.0))
        self._last = t1

    def tick(self) -> None:
        """Measure if PERIOD_S has passed since the last measurement."""
        if perf_counter() - self._last >= PERIOD_S:
            self.measure()

    def scale(self, at: float) -> float:
        """NOMINAL_MS over the local kernel time around perf_counter() time `at`."""
        times = np.array([s[0] for s in self.samples])
        ms = np.array([s[1] for s in self.samples])
        near = np.abs(times - at) <= WINDOW_S
        if not near.any():
            near = np.abs(times - at) == np.abs(times - at).min()
        return self.kernel.nominal_ms / float(np.median(ms[near]))

    def median_ms(self) -> float:
        return float(np.median([s[1] for s in self.samples]))
