"""Instruction prompt rendering.

Each of the three task templates is one f-string below; rendering fills its
fields and nothing else, so output is byte-reproducible (golden files in the
test suite pin every template). Box corners render as x2 = x + w,
y2 = y + h. The object-labels sentence appears only when a tag is supplied;
by default that is the single best-IoU detector label, with a multi-label
variant available for ablation.
"""

from __future__ import annotations

from typing import Sequence

from tinymmt.errors import DataError
from tinymmt.datapipe.records import LANG_NAMES, BoundingBox, PromptInstance, VgRecord


def text_only_prompt(lang: str, sentence: str) -> str:
    """The text_only template: translate an English sentence into `lang`."""
    return (f"Translate the following sentence from English into {LANG_NAMES[lang]} language. "
            f"English sentence is: {sentence}.")


def _box_clause(box: BoundingBox) -> str:
    return ("You are given an image and coordinates of a bounding box as: "
            f"x1={box.x}, y1={box.y}, x2={box.x + box.w}, y2={box.y + box.h}. ")


def _labels_clause(tag: str | Sequence[str] | None) -> str:
    """The object-labels sentence, or "" when there is no tag (None or no labels)."""
    if tag is not None and not isinstance(tag, str):
        tags = list(tag)
        tag = ", ".join(tags) if tags else None
    if tag is None:
        return ""
    return f"You are also provided labels of the objects in the image as: {tag}. "


def _mmt_prompt(box: BoundingBox, lang: str, tag, sentence: str) -> str:
    """The mmt template: translate a sentence in the context of a box."""
    return (f"{_box_clause(box)}Using the context of the objects or items available in the "
            f"bounding box translate the following sentence from English into "
            f"{LANG_NAMES[lang]} language. {_labels_clause(tag)}English sentence is: {sentence}.")


def _caption_prompt(box: BoundingBox, lang: str, tag) -> str:
    """The caption template: caption the object in a box."""
    return (f"{_box_clause(box)}{_labels_clause(tag)}Provide a short caption of the object "
            f"in {LANG_NAMES[lang]} language.")


def render_prompt(record: VgRecord, task: str, tag: str | Sequence[str] | None) -> PromptInstance:
    """Render one record into an instruction instance.

    task 'mmt' and 'caption' ground the prompt in the record's bounding box
    (and image); 'text_only' uses just the sentence. The response is the
    record's target-language text in every task.
    """
    lang = record.target_lang
    if task == "mmt":
        prompt = _mmt_prompt(record.box, lang, tag, record.english)
    elif task == "caption":
        prompt = _caption_prompt(record.box, lang, tag)
    elif task == "text_only":
        prompt = text_only_prompt(lang, record.english)
    else:
        raise DataError(f"unknown task {task!r}")
    return PromptInstance(
        task=task,
        prompt=prompt,
        response=record.target_text,
        lang=lang,
        source_id=f"{lang}/{record.split}/{record.image_id}",
        image_id=None if task == "text_only" else record.image_id,
    )
