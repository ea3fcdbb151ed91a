"""Core data records and file formats.

Input TSV rows (7 tab-separated fields): image_id, x, y, w, h, english
utterance, translated utterance. Boxes are top-left plus extent, pixels.
Detector output is one JSON file per image: a list of
{"label": str, "box": [x, y, w, h], "confidence": float}.
Instruction data is JSON-lines, one instance per line with fields
{task, prompt, response, lang, image_id?, source_id}.

Records are plain immutable values (named tuples, whose construction costs
half a frozen dataclass's): the reader that builds one from outside input
(parse_vg_tsv, read_detection_file, read_instances) is its one check.
BoundingBox alone checks itself, for the two readers that build boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_str  # the C encoder json.dumps uses
from pathlib import Path
from typing import Iterable, NamedTuple
from unicodedata import normalize

from tinymmt.atomic import NUMBER, atomic_write, json_fields, parse_json, read_text
from tinymmt.errors import DataError, TsvParseError

LANGS = ("hi", "bn", "ml")
LANG_NAMES = {"hi": "Hindi", "bn": "Bengali", "ml": "Malayalam", "en": "English"}
SPLITS = ("train", "valid", "test", "challenge")
TASKS = ("mmt", "text_only", "caption")


@dataclass(frozen=True)
class BoundingBox:
    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise DataError(f"box extent must be positive, got w={self.w}, h={self.h}")
        if self.x < 0 or self.y < 0:
            raise DataError(f"box origin must be non-negative, got x={self.x}, y={self.y}")

    @property
    def area(self) -> int:
        return self.w * self.h


class VgRecord(NamedTuple):
    image_id: str
    box: BoundingBox
    english: str
    target_lang: str
    target_text: str
    split: str


class DetectedObject(NamedTuple):
    label: str
    box: BoundingBox
    confidence: float


class PromptInstance(NamedTuple):
    task: str
    prompt: str
    response: str
    lang: str
    source_id: str
    image_id: str | None = None


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    reason: str


@dataclass
class ParseResult:
    records: list[VgRecord] = field(default_factory=list)
    issues: list[ParseIssue] = field(default_factory=list)


def parse_vg_tsv(path, lang: str, split: str, strict: bool) -> ParseResult:
    """Parse one TSV split. strict: abort on the first bad line; lenient:
    skip bad lines and report them (line numbers are 1-based)."""
    path = Path(path)
    result = ParseResult()
    records = result.records
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        try:
            records.append(_parse_line(line, lang, split))
        except DataError as exc:
            if strict:
                raise TsvParseError(f"{path}:{line_no}: {exc}") from exc
            result.issues.append(ParseIssue(line_no=line_no, reason=str(exc)))
    return result


def _parse_line(line: str, lang: str, split: str) -> VgRecord:
    fields = line.split("\t")
    if len(fields) != 7:
        raise DataError(f"expected 7 tab-separated fields, got {len(fields)}")
    image_id, xs, ys, ws, hs, english, target = fields
    try:
        box = BoundingBox(int(xs), int(ys), int(ws), int(hs))
    except ValueError:  # name the first field that is not an integer
        for name, raw in zip("xywh", (xs, ys, ws, hs)):
            try:
                int(raw)
            except ValueError:
                raise DataError(f"box field {name} is not an integer: {raw!r}") from None
    image_id = image_id.strip()
    # the id names a file inside detections_dir, so it must stay one path
    # component of printable characters (no NUL, BOM or line separator)
    if "/" in image_id or image_id in (".", ".."):
        raise DataError(f"image_id must be a single path component, got {image_id!r}")
    if not image_id.isprintable():
        code = next(ord(c) for c in image_id if not c.isprintable())
        raise DataError(f"image_id holds U+{code:04X}, which cannot name a file, "
                        f"got {image_id!r}")
    if not image_id:
        raise DataError("image_id must be non-empty")
    if not english or not target:
        raise DataError("english and target text must be non-empty")
    return VgRecord(
        image_id=image_id,
        box=box,
        english=normalize("NFC", english),
        target_lang=lang,
        target_text=normalize("NFC", target),
        split=split,
    )


# ----------------------------------------------------------------------
# detector output

_DETECTION_FIELDS = {"label": str, "box": list, "confidence": NUMBER}


def read_detection_file(path) -> list[DetectedObject]:
    raw = parse_json(read_text(path), path, DataError)
    if not isinstance(raw, list):
        raise DataError(f"{path}: detector file must hold a JSON array")
    try:
        return [_detection(i, entry) for i, entry in enumerate(raw)]
    except DataError as exc:  # the file is named once, when an entry is bad
        raise DataError(f"{path}: bad detection entry {exc}") from None


def _detection(i: int, entry) -> DetectedObject:
    """Entry i of a detector file; a DataError's message starts with i."""
    d = json_fields(entry, _DETECTION_FIELDS, i, DataError, _DETECTION_FIELDS)
    if list(map(type, d["box"])) != [int] * 4:
        raise DataError(f"{i}: 'box' must be 4 integers [x, y, w, h]")
    try:
        box = BoundingBox(*d["box"])
    except DataError as exc:
        raise DataError(f"{i}: {exc}") from None
    if not 0.0 <= d["confidence"] <= 1.0:
        raise DataError(f"{i}: confidence must be in [0, 1], got {d['confidence']}")
    return DetectedObject(d["label"], box, d["confidence"])


def load_detections(detections_dir, image_id: str) -> list[DetectedObject]:
    """Detections for one image; missing file means no detections."""
    if detections_dir is None:
        return []
    path = Path(detections_dir) / f"{image_id}.json"
    if not path.exists():
        return []
    return read_detection_file(path)


# ----------------------------------------------------------------------
# instruction-data files (JSON-lines)

def instance_to_json(inst: PromptInstance) -> str:
    """json.dumps of the instance's fields with ensure_ascii=False and sort_keys=True,
    framed here in that key order around the string encoder json.dumps uses;
    image_id is left out when it is None."""
    head = "{" if inst.image_id is None else f'{{"image_id": {_json_str(inst.image_id)}, '
    return (f'{head}"lang": {_json_str(inst.lang)}, "prompt": {_json_str(inst.prompt)}, '
            f'"response": {_json_str(inst.response)}, "source_id": {_json_str(inst.source_id)}, '
            f'"task": {_json_str(inst.task)}}}')


def write_instances(path, instances: Iterable[PromptInstance]) -> None:
    atomic_write(path, "".join([f"{instance_to_json(inst)}\n" for inst in instances]))


# an instance's field table; an absent image_id reads as null
_INSTANCE_FIELDS = {"task": str, "prompt": str, "response": str, "lang": str, "source_id": str,
                    "image_id": (str, type(None))}
_INSTANCE_REQUIRED = ("task", "prompt", "response", "lang", "source_id")


def read_instances(path) -> list[PromptInstance]:
    """Read a JSON-lines instance file, prompt and response NFC-normalized;
    a record that fails the field table, names a task outside TASKS, or whose
    image_id does not match its task (text_only has none, every other task
    one), raises DataError naming path:line and the key or task."""
    out = []
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{line_no}"
        d = json_fields(parse_json(line, where, DataError), _INSTANCE_FIELDS, where, DataError,
                        _INSTANCE_REQUIRED)
        if d["task"] not in TASKS:
            raise DataError(f"{where}: bad instance record: task must be one of {TASKS}, "
                            f"got {d['task']!r}")
        # NFC, as parse_vg_tsv and --raw-sentences normalize every sentence
        d["prompt"], d["response"] = normalize("NFC", d["prompt"]), normalize("NFC", d["response"])
        inst = PromptInstance(**d)
        if (inst.image_id is None) != (inst.task == "text_only"):
            need = "has no" if inst.task == "text_only" else "needs an"
            raise DataError(f"{where}: a {inst.task!r} instance {need} 'image_id'")
        out.append(inst)
    return out
