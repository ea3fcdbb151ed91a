"""Character-level vocabulary harvested from the training corpus.

Character granularity covers Devanagari/Bengali/Malayalam scripts without a
subword trainer. Six control tokens occupy the low ids; text encoding never
produces them, they are only inserted by sequence assembly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from tinymmt.errors import VocabularyError

N_SPECIALS = 6
PAD, BOS, EOS, IMG, HUM, SYS = range(N_SPECIALS)  # <pad> <bos> <eos> <img> <hum> <sys>


class Vocabulary:
    def __init__(self, symbols: Iterable[str]):
        symbols = list(symbols)
        for s in symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise VocabularyError(f"vocabulary symbols must be single characters, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise VocabularyError("duplicate symbols in vocabulary")
        self.symbols = symbols
        self._to_id = {ch: N_SPECIALS + i for i, ch in enumerate(symbols)}

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        """Every character of texts, sorted; the readers give NFC text."""
        chars: set[str] = set()
        for text in texts:
            chars.update(text)
        return cls(sorted(chars))

    def __len__(self) -> int:
        return N_SPECIALS + len(self.symbols)

    def encode(self, text: str) -> np.ndarray:
        missing = sorted({ch for ch in text if ch not in self._to_id})
        if missing:
            raise VocabularyError(
                "text contains characters outside the vocabulary: "
                + ", ".join(repr(ch) for ch in missing)
            )
        return np.array([self._to_id[ch] for ch in text], dtype=np.int64)

    def decode(self, ids) -> str:
        """Inverse of encode; control ids, as a raw generated sequence may
        hold, are dropped."""
        out: list[str] = []
        for i in np.asarray(ids, dtype=np.int64):
            i = int(i)
            if i < 0 or i >= len(self):
                raise VocabularyError(f"token id {i} out of range [0, {len(self)})")
            if i >= N_SPECIALS:
                out.append(self.symbols[i - N_SPECIALS])
        return "".join(out)

    def to_dict(self) -> dict:
        return {"symbols": self.symbols}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        return cls(d["symbols"])
