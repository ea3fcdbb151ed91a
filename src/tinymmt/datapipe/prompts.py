"""Instruction prompt rendering.

The three task templates are fixed strings; rendering is pure placeholder
substitution, so output is byte-reproducible (golden files in the test suite
pin every template). Box corners render as x2 = x + w, y2 = y + h. The
object-labels sentence appears only when a tag is supplied; by default that
is the single best-IoU detector label, with a multi-label variant available
for ablation.
"""

from __future__ import annotations

from typing import Sequence

from tinymmt.errors import DataError
from tinymmt.datapipe.records import LANG_NAMES, PromptInstance, VgRecord

TEXT_ONLY_TEMPLATE = (
    "Translate the following sentence from {src} into {tgt} language. "
    "{src} sentence is: {sentence}."
)

_BOX_CLAUSE = (
    "You are given an image and coordinates of a bounding box as: "
    "x1={x1}, y1={y1}, x2={x2}, y2={y2}. "
)

_LABELS_CLAUSE = "You are also provided labels of the objects in the image as: {labels}. "

MMT_TEMPLATE = (
    _BOX_CLAUSE
    + "Using the context of the objects or items available in the bounding box "
    "translate the following sentence from English into {tgt} language. "
    + "{labels_clause}"
    + "English sentence is: {sentence}."
)

CAPTION_TEMPLATE = (
    _BOX_CLAUSE
    + "{labels_clause}"
    + "Provide a short caption of the object in {tgt} language."
)

def _labels_value(tag: str | Sequence[str] | None) -> str | None:
    if tag is None:
        return None
    if isinstance(tag, str):
        return tag
    tags = list(tag)
    if not tags:
        return None
    return ", ".join(tags)


def render_prompt(record: VgRecord, task: str, tag: str | Sequence[str] | None = None) -> PromptInstance:
    """Render one record into an instruction instance.

    task 'mmt' and 'caption' ground the prompt in the record's bounding box
    (and image); 'text_only' uses just the sentence. The response is the
    record's target-language text in every task.
    """
    lang_name = LANG_NAMES[record.target_lang]
    try:
        if task == "text_only":
            prompt = TEXT_ONLY_TEMPLATE.format(
                src="English", tgt=lang_name, sentence=record.english
            )
            image_id = None
        elif task in ("mmt", "caption"):
            x1, y1, x2, y2 = record.box.corners
            labels = _labels_value(tag)
            labels_clause = "" if labels is None else _LABELS_CLAUSE.format(labels=labels)
            template = MMT_TEMPLATE if task == "mmt" else CAPTION_TEMPLATE
            prompt = template.format(
                x1=x1, y1=y1, x2=x2, y2=y2,
                tgt=lang_name,
                labels_clause=labels_clause,
                sentence=record.english,
            )
            image_id = record.image_id
        else:
            raise DataError(f"unknown task {task!r}")
    except (KeyError, IndexError) as exc:
        raise DataError(f"template placeholder left unfilled: {exc}") from exc
    return PromptInstance(
        task=task,
        prompt=prompt,
        response=record.target_text,
        lang=record.target_lang,
        source_id=record.image_id and f"{record.target_lang}/{record.split}/{record.image_id}",
        image_id=image_id,
    )

