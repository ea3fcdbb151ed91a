"""Corpus mixing for the pre-training data blend."""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def mix_samples(corpora: Sequence[Sequence[T]], cap: int, seed: int) -> list[T]:
    """Draw an equal-ratio blend across corpora, capped at `cap` items total.

    Each corpus contributes cap // k items (k corpora), with the remainder
    going to the earliest corpora, one extra each. Sampling is without
    replacement when the corpus is large enough, with replacement otherwise;
    empty corpora contribute nothing. Deterministic under `seed`. The config
    loader guarantees at least one corpus and a cap of at least 1.
    """
    k = len(corpora)
    base, remainder = divmod(cap, k)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x31B1]))
    out: list[T] = []
    for index, records in enumerate(corpora):
        quota = base + (1 if index < remainder else 0)
        n = len(records)
        if quota == 0 or n == 0:
            continue
        if n >= quota:
            picks = rng.choice(n, size=quota, replace=False)
        else:
            picks = rng.integers(0, n, size=quota)
        for i in sorted(int(p) for p in picks):
            out.append(records[i])
    return out
