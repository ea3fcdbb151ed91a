from tinymmt.datapipe.records import (
    LANG_NAMES,
    LANGS,
    SPLITS,
    TASKS,
    BoundingBox,
    DetectedObject,
    ParseIssue,
    ParseResult,
    PromptInstance,
    VgRecord,
    load_detections,
    parse_vg_tsv,
    read_detection_file,
    read_instances,
    write_instances,
)
from tinymmt.datapipe.boxes import iou, select_tag
from tinymmt.datapipe.prompts import render_prompt, text_only_prompt
from tinymmt.datapipe.sampling import mix_samples
from tinymmt.datapipe.stats import corpus_stats
from tinymmt.datapipe.images import make_synth_loader, synth_image

__all__ = [
    "BoundingBox",
    "DetectedObject",
    "LANGS",
    "LANG_NAMES",
    "ParseIssue",
    "ParseResult",
    "PromptInstance",
    "SPLITS",
    "TASKS",
    "VgRecord",
    "corpus_stats",
    "iou",
    "load_detections",
    "make_synth_loader",
    "mix_samples",
    "parse_vg_tsv",
    "read_detection_file",
    "read_instances",
    "render_prompt",
    "select_tag",
    "synth_image",
    "text_only_prompt",
    "write_instances",
]
