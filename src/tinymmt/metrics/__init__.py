from tinymmt.metrics.tokenizer import PUNCTUATION, tokenize
from tinymmt.metrics.bleu import bleu, ngram_counts
from tinymmt.metrics.ribes import align_words, kendall_tau, ribes, sentence_ribes
from tinymmt.metrics.report import (
    MetricReport,
    TABLE_COLUMNS,
    evaluate_files,
    evaluate_lines,
    format_leaderboard,
    read_reports,
    write_report,
)

__all__ = [
    "MetricReport",
    "PUNCTUATION",
    "TABLE_COLUMNS",
    "align_words",
    "bleu",
    "evaluate_files",
    "evaluate_lines",
    "format_leaderboard",
    "kendall_tau",
    "ngram_counts",
    "read_reports",
    "ribes",
    "sentence_ribes",
    "tokenize",
    "write_report",
]
