import os

# one BLAS thread, set before numpy loads: the time-bound tests then measure
# the code, not contention between BLAS threads and whatever else is running
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import re  # noqa: E402
import unicodedata  # noqa: E402

import numpy as np  # noqa: E402
import pytest

from tinymmt.datapipe import BoundingBox, VgRecord, render_prompt
from tinymmt.model import ModelConfig, MultimodalModel, Vocabulary
from tinymmt.numerics import Tensor
from tinymmt.numerics.tensor import _accumulate, _make

WORDS = ["red", "blue", "green", "cat", "dog", "bird", "sun", "moon",
         "tree", "fish", "hat", "cup"]
HINDI = {
    "red": "लाल", "blue": "नीला", "green": "हरा", "cat": "बिल्ली",
    "dog": "कुत्ता", "bird": "चिड़िया", "sun": "सूरज", "moon": "चाँद",
    "tree": "पेड़", "fish": "मछली", "hat": "टोपी", "cup": "प्याला",
}


# main's generic `except Exception` branch prints `error: <exception class>: ...`;
# a structured error's message names no exception class anywhere
_EXCEPTION_NAME = re.compile(r"\b[A-Z]\w*(Error|Exception)\b")


def assert_structured(err: str) -> None:
    """A failed command's stderr came from a structured error (exit 2, 3, or 4
    from a TinymmtError), never from `main`'s generic branch."""
    assert not _EXCEPTION_NAME.search(err), err


def make_records(n, seed=0, split="train", lang="hi", words_per=2):
    """Distinct synthetic translation records over a tiny lexicon."""
    rng = np.random.default_rng(seed)
    seen = set()
    records = []
    i = 0
    while len(records) < n:
        sel = tuple(rng.choice(WORDS, size=words_per, replace=False))
        if sel in seen:
            continue
        seen.add(sel)
        records.append(VgRecord(
            image_id=f"{split}{i:03d}",
            box=BoundingBox(int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                            int(rng.integers(4, 20)), int(rng.integers(4, 20))),
            english=unicodedata.normalize("NFC", " ".join(sel)),
            target_lang=lang,
            target_text=unicodedata.normalize("NFC", " ".join(HINDI[w] for w in sel)),
            split=split,
        ))
        i += 1
    return records


def make_instances(records, task, tag="object"):
    if task == "text_only":
        return [render_prompt(r, task) for r in records]
    return [render_prompt(r, task, tag) for r in records]


def build_model(instances, seed=0, c_total=512):
    """Vocabulary harvested from the instances, model built around it."""
    texts = [i.prompt for i in instances] + [i.response for i in instances]
    vocab = Vocabulary.from_texts(texts)
    cfg = ModelConfig(vocab_size=len(vocab), c_total=c_total)
    return MultimodalModel(cfg, vocab, seed=seed)


@pytest.fixture
def tiny_text_setup():
    records = make_records(6, seed=1)
    instances = make_instances(records, "text_only")
    model = build_model(instances, seed=7, c_total=256)
    return model, instances


@pytest.fixture
def tiny_mm_setup():
    records = make_records(6, seed=2)
    instances = make_instances(records, "mmt")
    model = build_model(instances, seed=8, c_total=512)
    return model, instances


def tape_sum(x: Tensor) -> Tensor:
    """Sum of every element of x as a tape node, so a test can reduce to a scalar loss."""
    def fn(g, x):
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g, x.shape))

    return _make(np.asarray(x.data.sum()), (x,), fn)
