"""Scoring line-aligned hypothesis/reference files and leaderboard tables."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from tinymmt.atomic import NUMBER, atomic_write, json_fields, parse_json, read_lines, read_text
from tinymmt.errors import DataError
from tinymmt.metrics.bleu import bleu
from tinymmt.metrics.ribes import ribes
from tinymmt.metrics.tokenizer import tokenize

# leaderboard column order: challenge then test, per language
TABLE_COLUMNS = [
    ("hi", "challenge", "Hi-Ch"),
    ("hi", "test", "Hi-Test"),
    ("bn", "challenge", "Bn-Ch"),
    ("bn", "test", "Bn-Test"),
    ("ml", "challenge", "Ml-Ch"),
    ("ml", "test", "Ml-Test"),
]


@dataclass(frozen=True)
class MetricReport:
    lang: str
    split: str
    bleu: float      # [0, 100]
    ribes: float     # [0, 1]
    n_sentences: int
    hyp_tokens: int
    ref_tokens: int

    def to_dict(self) -> dict:
        """JSON view; scores rounded the way tables print them (BLEU to one
        decimal, RIBES to three)."""
        return {
            "lang": self.lang,
            "split": self.split,
            "bleu": round(self.bleu, 1),
            "ribes": round(self.ribes, 3),
            "n_sentences": self.n_sentences,
            "hyp_tokens": self.hyp_tokens,
            "ref_tokens": self.ref_tokens,
        }


def evaluate_lines(hyp_lines: Sequence[str], ref_lines: Sequence[str], lang: str,
                   split: str, smooth: bool) -> MetricReport:
    if len(hyp_lines) != len(ref_lines):
        raise DataError(
            f"hypothesis file has {len(hyp_lines)} lines but reference file has "
            f"{len(ref_lines)}; they must be line-aligned"
        )
    if not hyp_lines:
        raise DataError("empty corpus")
    hyps = [tokenize(line) for line in hyp_lines]
    refs = [tokenize(line) for line in ref_lines]
    return MetricReport(
        lang=lang,
        split=split,
        bleu=bleu(hyps, refs, smooth=smooth),
        ribes=ribes(hyps, refs),
        n_sentences=len(hyps),
        hyp_tokens=sum(len(h) for h in hyps),
        ref_tokens=sum(len(r) for r in refs),
    )


def evaluate_files(hyp_path, ref_path, lang: str, split: str, smooth: bool) -> MetricReport:
    """Score one hypothesis file against one reference file (UTF-8, one
    sentence per line)."""
    return evaluate_lines(read_lines(hyp_path), read_lines(ref_path), lang, split, smooth)


def write_report(report: MetricReport, path) -> None:
    atomic_write(path, json.dumps(report.to_dict(), ensure_ascii=False, sort_keys=True) + "\n")


_REPORT_FIELDS = {"lang": str, "split": str, "bleu": NUMBER, "ribes": NUMBER,
                  "n_sentences": int, "hyp_tokens": int, "ref_tokens": int}


def read_reports(paths: Sequence) -> list[MetricReport]:
    """Read the reports of one leaderboard row; a malformed one, one for a cell
    outside TABLE_COLUMNS or two for one cell raise DataError naming the files."""
    reports, by_cell = [], {}
    for path in paths:
        d = json_fields(parse_json(read_text(path), path, DataError), _REPORT_FIELDS, path,
                        DataError, _REPORT_FIELDS)
        cell = (d["lang"], d["split"])
        if cell not in {column[:2] for column in TABLE_COLUMNS}:
            raise DataError(f"{path}: no leaderboard column for (lang, split) {cell}")
        if cell in by_cell:
            raise DataError(f"{by_cell[cell]} and {path} both report (lang, split) {cell}")
        by_cell[cell] = path
        reports.append(MetricReport(**d))
    return reports


def format_leaderboard(reports: Sequence[MetricReport], label: str) -> str:
    """One leaderboard-style row: challenge and test columns per language,
    '-' where a cell has no report."""
    by_cell = {(r.lang, r.split): r for r in reports}
    header_1 = [""]
    header_2 = ["system"]
    values = [label]
    for lang, split, title in TABLE_COLUMNS:
        header_1.extend([title, ""])
        header_2.extend(["BLEU", "RIBES"])
        report = by_cell.get((lang, split))
        if report is None:
            values.extend(["-", "-"])
        else:
            values.extend([f"{report.bleu:.1f}", f"{report.ribes:.3f}"])
    widths = [max(len(a), len(b), len(c)) for a, b, c in zip(header_1, header_2, values)]
    lines = []
    for row in (header_1, header_2, values):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
