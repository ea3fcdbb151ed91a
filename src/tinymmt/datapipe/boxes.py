"""Box overlap and detector-tag selection.

IoU on integer pixel boxes is exact: intersection and union are integer
areas, so the quotient matches a brute-force pixel-membership count
bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

from tinymmt.datapipe.records import BoundingBox, DetectedObject


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; symmetric, in [0, 1], 0 for disjoint boxes."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union


def select_tag(record_box: BoundingBox, detections: Sequence[DetectedObject],
               threshold: float) -> str | None:
    """Label of the detection with the highest IoU against record_box.

    Returns None when there are no detections or the best IoU falls below
    threshold. Exact IoU ties break toward higher confidence, then input
    order. threshold is data.iou_threshold, which load_config bounds to [0, 1].
    """
    best: tuple[float, float, int] | None = None  # (iou, confidence, -index)
    best_label: str | None = None
    for index, det in enumerate(detections):
        score = iou(record_box, det.box)
        if score < threshold:
            continue
        key = (score, det.confidence, -index)
        if best is None or key > best:
            best = key
            best_label = det.label
    return best_label
