"""Corpus statistics: instance counts and mean token counts per split."""

from __future__ import annotations

from typing import Iterable

from tinymmt.datapipe.records import VgRecord
from tinymmt.metrics.tokenizer import tokenize


def corpus_stats(records: Iterable[VgRecord]) -> dict[str, dict]:
    """Per split, in sorted order: {"count": records, "avg_tokens": {lang: mean}},
    the dict stats.json holds for one language.

    English averages come from the source utterance, target-language averages
    from the translated text of records in that language, both over the
    evaluation tokenizer's tokens. Averages are rounded to 2 decimals; a split
    with no records is absent.
    """
    token_totals: dict[str, dict[str, tuple[int, int]]] = {}
    for rec in records:
        per_split = token_totals.setdefault(rec.split, {})
        for lang, text in (("en", rec.english), (rec.target_lang, rec.target_text)):
            total, n = per_split.get(lang, (0, 0))
            per_split[lang] = (total + len(tokenize(text)), n + 1)
    return {  # each record adds one English text, so the English n is the count
        split: {"count": totals["en"][1],
                "avg_tokens": {lang: round(total / n, 2)
                               for lang, (total, n) in sorted(totals.items())}}
        for split, totals in sorted(token_totals.items())
    }
