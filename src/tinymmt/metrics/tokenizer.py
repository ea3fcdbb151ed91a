"""Rule-based tokenizer for evaluation.

Rules, in order: NFC-normalize, lowercase ASCII letters (other scripts are
left alone), detach punctuation as separate single-character tokens (ASCII
punctuation plus danda U+0964 and double danda U+0965), split on Unicode
whitespace. Lowercasing and detaching run as one regex substitution.
Idempotent: re-tokenizing the joined tokens changes nothing.
"""

from __future__ import annotations

import re
import string
import unicodedata

PUNCTUATION = frozenset(string.punctuation) | {"।", "॥"}

# each character a rule rewrites -> what it becomes
_REWRITE = {c: c.lower() for c in string.ascii_uppercase} | {p: f" {p} " for p in PUNCTUATION}
_REWRITTEN = re.compile("[" + "".join(re.escape(c) for c in sorted(_REWRITE)) + "]")


def tokenize(text: str) -> list[str]:
    text = unicodedata.normalize("NFC", text)
    return _REWRITTEN.sub(lambda m: _REWRITE[m.group()], text).split()
