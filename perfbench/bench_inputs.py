"""Seeded input generation for every workload.

The program under test only ever sees what these functions produce: Visual
Genome style records, rendered instruction instances, TSV and detection
files, and line-aligned hypothesis/reference files. The same seed gives the
same inputs byte for byte.

Sentence lengths cycle through every length from 2 to 8 words in a fixed
interleaved order, so prompt length varies within a workload while any
run of consecutive inputs, whatever the seed, has nearly the same mix of
lengths. The seed picks the words, boxes and images.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ENGLISH = (
    "red blue green black white small big old new tall short round "
    "cat dog bird horse cow fish tree flower sun moon cloud river "
    "man woman boy girl car bus bike boat house door window table "
    "chair cup plate hat shirt shoe ball kite road wall sign lamp"
).split()

_CONSONANTS = "कखगघचछजझटठडढतथदधनपफबभमयरलवशसह"
_VOWEL_SIGNS = ("", "ा", "ि", "ी", "ु", "ू", "े", "ै", "ो", "ौ")


def _hindi_lexicon() -> dict[str, str]:
    rng = np.random.default_rng(20240601)
    lex = {}
    for word in ENGLISH:
        syllables = int(rng.integers(2, 4))
        lex[word] = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWEL_SIGNS[int(rng.integers(len(_VOWEL_SIGNS)))]
            for _ in range(syllables)
        )
    return lex


HINDI = _hindi_lexicon()
LEXICON_TEXT = " ".join(ENGLISH) + " " + " ".join(HINDI.values())
LENGTH_CYCLE = (5, 2, 8, 4, 7, 3, 6)  # every length from 2 to 8 words, interleaved


def sentence_pairs(rng: np.random.Generator, n: int) -> list[tuple[list[str], list[str]]]:
    """n (english words, hindi words) pairs, lengths following LENGTH_CYCLE."""
    out = []
    for i in range(n):
        k = LENGTH_CYCLE[i % len(LENGTH_CYCLE)]
        words = [ENGLISH[int(j)] for j in rng.integers(len(ENGLISH), size=k)]
        out.append((words, [HINDI[w] for w in words]))
    return out


def make_records(rng: np.random.Generator, n: int, split: str, image_prefix: str,
                 records_per_image: int = 3):
    """(image_id, (x, y, w, h), english, hindi) tuples; several records share
    one image id, as Visual Genome regions do."""
    n_images = max(1, n // records_per_image)
    out = []
    for en, hi in sentence_pairs(rng, n):
        image_id = f"{image_prefix}{int(rng.integers(n_images)):05d}"
        box = (int(rng.integers(0, 48)), int(rng.integers(0, 48)),
               int(rng.integers(6, 40)), int(rng.integers(6, 40)))
        out.append((image_id, box, " ".join(en), " ".join(hi)))
    return out


def make_instances(rng: np.random.Generator, n: int, task: str, split: str):
    """Rendered instruction instances via the program's own prompt renderer.

    Grounded ('mmt') instances carry an object label on every other record,
    so prompts with and without the labels clause both occur.
    """
    from tinymmt.datapipe import BoundingBox, VgRecord, render_prompt

    instances = []
    for i, (image_id, box, en, hi) in enumerate(make_records(rng, n, split, f"{split}-")):
        rec = VgRecord(image_id=image_id, box=BoundingBox(*box), english=en,
                       target_lang="hi", target_text=hi, split=split)
        tag = en.split()[0] if (task != "text_only" and i % 2 == 0) else None
        instances.append(render_prompt(rec, task, tag))
    return instances


# ----------------------------------------------------------------------
# corpus workload files

def _iou(a, b) -> float:
    """Exact IoU of integer (x, y, w, h) boxes; the benchmark's own oracle."""
    ix = min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0])
    iy = min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def write_corpus(rng: np.random.Generator, root: Path, split_sizes: dict[str, int],
                 n_refs: int, iou_threshold: float) -> dict:
    """Write TSVs, detection files, hypothesis/reference files and a config.

    Per image: a third have no detection file, a third hold a detection on
    one of the image's record boxes, and a third hold only detections that
    fall below the IoU threshold for every record. Returns what the outputs
    must contain.
    """
    det_dir = root / "detections"
    det_dir.mkdir(parents=True, exist_ok=True)
    expected = {"records": {}, "tagged": {}, "det_files": 0}
    boxes_by_image: dict[str, list] = {}
    tsv_paths = {}
    for split, n in split_sizes.items():
        recs = make_records(rng, n, split, "vg", records_per_image=6)
        lines = [f"{img}\t{x}\t{y}\t{w}\t{h}\t{en}\t{hi}\n"
                 for img, (x, y, w, h), en, hi in recs]
        path = root / f"hi_{split}.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        tsv_paths[split] = path.name
        expected["records"][split] = n
        for img, box, _, _ in recs:
            boxes_by_image.setdefault(img, []).append((split, box))

    detections = {}
    for img in sorted(boxes_by_image):
        kind = int(rng.integers(3))
        if kind == 0:
            continue
        if kind == 1:
            _, box = boxes_by_image[img][int(rng.integers(len(boxes_by_image[img])))]
            dets = [(ENGLISH[int(rng.integers(len(ENGLISH)))], box, 0.9),
                    ("sky", (200, 200, 10, 10), 0.5)]
        else:
            dets = [("grass", (300 + int(rng.integers(50)), 300, 12, 12), 0.8)]
        detections[img] = dets
        (det_dir / f"{img}.json").write_text(json.dumps(
            [{"label": lab, "box": list(b), "confidence": c} for lab, b, c in dets]),
            encoding="utf-8")
    expected["det_files"] = len(detections)

    tagged = {split: 0 for split in split_sizes}
    for img, entries in boxes_by_image.items():
        for split, box in entries:
            if any(_iou(box, b) >= iou_threshold for _, b, _ in detections.get(img, ())):
                tagged[split] += 1
    expected["tagged"] = tagged

    refs, hyps, hyp_tokens = [], [], 0
    for _, hi in sentence_pairs(rng, n_refs):
        hyp = list(hi)
        roll = rng.random()
        if roll < 0.25 and len(hyp) > 2:
            del hyp[int(rng.integers(len(hyp)))]
        elif roll < 0.5:
            j = int(rng.integers(len(hyp) - 1))
            hyp[j], hyp[j + 1] = hyp[j + 1], hyp[j]
        refs.append(" ".join(hi) + "\n")
        hyps.append(" ".join(hyp) + "\n")
        hyp_tokens += len(hyp)
    (root / "ref.txt").write_text("".join(refs), encoding="utf-8")
    (root / "hyp.txt").write_text("".join(hyps), encoding="utf-8")
    expected["ref_tokens"] = sum(len(r.split()) for r in refs)
    expected["hyp_tokens"] = hyp_tokens
    expected["n_refs"] = n_refs

    config = {
        "seed": 1,
        "out_dir": "run",
        "data": {
            "tsv": {"hi": tsv_paths},
            "detections_dir": "detections",
            "tasks": ["mmt", "text_only", "caption"],
            "iou_threshold": iou_threshold,
            "instances_dir": "instances",
        },
    }
    (root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return expected
