"""RIBES: rank-based evaluation built on word alignment and Kendall's tau
(Isozaki et al., 2010). Suited to language pairs with heavy reordering.

Per sentence, hypothesis tokens align one-to-one to reference positions:

  (i)  a token occurring exactly once in both sides aligns directly;
  (ii) otherwise a one-sided bigram context (previous+current or
       current+next) that occurs exactly once in the reference pins the
       position.

Unmatched tokens are skipped and each reference position is used at most
once. The aligned reference positions, read in hypothesis order, give the
rank list; the sentence score is

    NKT * P^ALPHA * BP^BETA

with NKT = (tau + 1) / 2 over the rank pairs, P = aligned / |hyp|, and
BP = min(1, e^{1 - |ref|/|hyp|}). Fewer than two aligned tokens score 0.
The corpus score is the plain mean over sentences.
"""

from __future__ import annotations

import math
from typing import Sequence

from tinymmt.errors import DataError

ALPHA = 0.25
BETA = 0.10


def align_words(hyp: Sequence[str], ref: Sequence[str]) -> list[tuple[int, int]]:
    """One-to-one (hyp index, ref index) pairs, sorted by hyp index."""
    # sentences are a few tokens long, so list scans beat building counters
    ref_bigrams = list(zip(ref, ref[1:]))

    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for i, tok in enumerate(hyp):
        candidates: list[int] = []
        if hyp.count(tok) == 1 and ref.count(tok) == 1:
            candidates.append(ref.index(tok))
        else:
            if i > 0:
                left = (hyp[i - 1], tok)
                if ref_bigrams.count(left) == 1:
                    candidates.append(ref_bigrams.index(left) + 1)
            if i + 1 < len(hyp):
                right = (tok, hyp[i + 1])
                if ref_bigrams.count(right) == 1:
                    candidates.append(ref_bigrams.index(right))
        for j in candidates:
            if j not in used:
                pairs.append((i, j))
                used.add(j)
                break
    return pairs


def kendall_tau(ranks: Sequence[int]) -> float:
    """Kendall correlation of a rank list against its index order.

    Ranks must be distinct (alignment guarantees it); needs >= 2 entries.
    """
    m = len(ranks)
    if m < 2:
        raise ValueError(f"kendall_tau needs at least 2 ranks, got {m}")
    concordant = 0
    for i in range(m):
        for j in range(i + 1, m):
            if ranks[j] > ranks[i]:
                concordant += 1
    total = m * (m - 1) // 2
    return 2.0 * concordant / total - 1.0


def sentence_ribes(hyp: Sequence[str], ref: Sequence[str]) -> float:
    if not hyp:
        return 0.0
    pairs = align_words(hyp, ref)
    if len(pairs) < 2:
        return 0.0
    ranks = [j for _, j in pairs]
    nkt = (kendall_tau(ranks) + 1.0) / 2.0
    precision = len(pairs) / len(hyp)
    bp = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    return nkt * precision ** ALPHA * bp ** BETA


def ribes(hyps: Sequence[Sequence[str]], refs: Sequence[Sequence[str]]) -> float:
    """Mean sentence score over the corpus, in [0, 1]."""
    if len(hyps) != len(refs):
        raise DataError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DataError("empty corpus")
    return sum(sentence_ribes(h, r) for h, r in zip(hyps, refs)) / len(hyps)
