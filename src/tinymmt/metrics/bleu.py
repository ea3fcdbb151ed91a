"""Corpus BLEU: clipped n-gram precisions pooled over the corpus, then a
brevity penalty (Papineni et al., 2002). Single reference per hypothesis.

score = BP * exp(mean over n of ln p_n) * 100, BP = min(1, e^{1 - r/c}).

Unsmoothed, any pooled p_n of zero gives a score of 0. Orders with an
empty pooled denominator (no hypothesis provides an n-gram that long) drop
out of the mean, so a one-token corpus is scored on unigrams alone.
Epsilon smoothing, which every caller chooses on or off, floors zero
precisions instead, which keeps tiny desk corpora comparable.

The counts are integers, taken for the whole corpus in one pass per order.
The hypothesis tokens, then the reference tokens, lie in one flat array of
token ids. An n-gram's id is the rank of the pair (id of the (n-1)-gram at
the same start, id of its next token) among its order's pairs, and order
0's id is the sentence index, so two n-grams share an id exactly when they
are equal and lie in the same sentence pair. An order's clipped matches are
the sum over its ids of min(hypothesis count, reference count), and its
total is the number of hypothesis n-grams.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np

from tinymmt.errors import DataError

MAX_N = 4  # BLEU-4
SMOOTH_EPS = 1e-9


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """One sentence's n-grams with their counts, the textbook form of what
    bleu counts."""
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def _rank(keys: np.ndarray) -> int:
    """Replace each key, in place, by its rank among the distinct keys, and
    return how many distinct keys there are."""
    order = np.argsort(keys)
    rank = np.cumsum(np.diff(keys[order]) != 0)
    keys[order[0]] = 0
    keys[order[1:]] = rank
    return int(keys[order[-1]]) + 1


def bleu(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]],
         smooth: bool) -> float:
    """Corpus BLEU in [0, 100] over tokenized sentence pairs."""
    if len(hyps) != len(refs):
        raise DataError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DataError("empty corpus")

    sentences = [*hyps, *refs]  # the hypothesis tokens come first in the flat arrays
    lengths = np.fromiter(map(len, sentences), np.int64, count=len(sentences))
    hyp_len = int(lengths[:len(hyps)].sum())
    ref_len = int(lengths[len(hyps):].sum())
    if hyp_len == 0:
        return 0.0

    size = hyp_len + ref_len
    first = {}  # a token's id is the flat position of its first occurrence
    ids = np.fromiter(map(first.setdefault, itertools.chain.from_iterable(sentences),
                          itertools.count()), np.int64, count=size)
    # per position: the number of tokens from it to its sentence's end
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(size)

    starts = np.arange(size)  # the start of every n-gram of the current order
    grams = np.repeat(np.tile(np.arange(len(hyps)), 2), lengths)  # order 0: the sentence
    precisions = []
    for n in range(1, MAX_N + 1):
        if n > 1:
            keep = left[starts] >= n
            starts, grams = starts[keep], grams[keep]
        n_hyp = int(np.searchsorted(starts, hyp_len))  # hypothesis n-grams in the order
        if n_hyp == 0:
            break
        # the pair (id of the (n-1)-gram, id of the next token) as one integer,
        # below max(len(hyps), size) * size, which int64 holds up to ~3e9 tokens
        grams *= size
        grams += ids[starts + n - 1]
        n_distinct = _rank(grams)
        matches = np.minimum(np.bincount(grams[:n_hyp], minlength=n_distinct),
                             np.bincount(grams[n_hyp:], minlength=n_distinct)).sum()
        precisions.append(int(matches) / n_hyp)

    log_sum = 0.0
    for p in precisions:
        if p == 0.0:
            if not smooth:
                return 0.0
            p = SMOOTH_EPS
        log_sum += math.log(p)
    geo_mean = math.exp(log_sum / len(precisions))
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * geo_mean
