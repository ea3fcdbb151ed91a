"""Corpus BLEU: clipped n-gram precisions pooled over the corpus, then a
brevity penalty (Papineni et al., 2002). Single reference per hypothesis.

score = BP * exp(mean over n of ln p_n) * 100, BP = min(1, e^{1 - r/c}).

Unsmoothed by default: any pooled p_n of zero gives a score of 0. Orders
with an empty pooled denominator (no hypothesis provides an n-gram that
long) drop out of the mean, so a one-token corpus is scored on unigrams
alone. The optional epsilon smoothing floors zero precisions instead, which
keeps tiny desk corpora comparable.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from tinymmt.errors import DataError

MAX_N = 4  # BLEU-4
SMOOTH_EPS = 1e-9


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def bleu(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]],
         smooth: bool = False) -> float:
    """Corpus BLEU in [0, 100] over tokenized sentence pairs."""
    if len(hyps) != len(refs):
        raise DataError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DataError("empty corpus")

    matches = [0] * (MAX_N + 1)
    totals = [0] * (MAX_N + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        hg, rg = hyp, ref
        for n in range(1, MAX_N + 1):
            if n > 1:
                # order n's grams are order n-1's, each zipped with its next token
                hg = list(zip(hg, hyp[n - 1:]))
                rg = list(zip(rg, ref[n - 1:]))
            if not hg:
                break
            totals[n] += len(hg)
            distinct = set(hg)
            if len(distinct) == len(hg):
                # each hypothesis n-gram occurs once, so its clipped count
                # min(1, ref count) is 1 exactly when the reference holds it
                matches[n] += len(distinct.intersection(rg))
            else:
                matches[n] += sum((ngram_counts(hyp, n) & ngram_counts(ref, n)).values())

    orders = [n for n in range(1, MAX_N + 1) if totals[n] > 0]
    if not orders or hyp_len == 0:
        return 0.0

    log_sum = 0.0
    for n in orders:
        p = matches[n] / totals[n]
        if p == 0.0:
            if not smooth:
                return 0.0
            p = SMOOTH_EPS
        log_sum += math.log(p)
    geo_mean = math.exp(log_sum / len(orders))
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * geo_mean
