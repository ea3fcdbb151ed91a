import codecs
import json
import re
import tempfile
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinymmt.datapipe import (
    BoundingBox,
    DetectedObject,
    PromptInstance,
    corpus_stats,
    iou,
    load_detections,
    mix_samples,
    parse_vg_tsv,
    read_detection_file,
    read_instances,
    select_tag,
    synth_image,
    write_instances,
)
from tinymmt.datapipe.records import instance_to_json
from tinymmt.errors import DataError, TsvParseError

from conftest import make_instances, make_records


# ----------------------------------------------------------------------
# TSV parsing

GOOD_LINE = "img1\t5\t10\t20\t30\ta cat\tएक बिल्ली"


def write_tsv(tmp_path, lines):
    path = tmp_path / "split.tsv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestParseTsv:
    def test_good_file(self, tmp_path):
        path = write_tsv(tmp_path, [GOOD_LINE, "img2\t0\t0\t4\t4\ta dog\tकुत्ता"])
        result = parse_vg_tsv(path, "hi", "train", strict=True)
        assert len(result.records) == 2
        rec = result.records[0]
        assert rec.image_id == "img1"
        assert rec.box == BoundingBox(5, 10, 20, 30)
        assert rec.english == "a cat"
        assert rec.split == "train"
        assert not result.issues

    def test_text_is_nfc_normalized(self, tmp_path):
        decomposed = "café"  # e + combining acute
        path = write_tsv(tmp_path, [f"img1\t0\t0\t4\t4\t{decomposed}\tकाफ़े"])
        rec = parse_vg_tsv(path, "hi", "train", strict=True).records[0]
        assert rec.english == unicodedata.normalize("NFC", decomposed)
        assert rec.english.endswith("café"[-1])

    def test_zero_width_box_rejected_with_line_number(self, tmp_path):
        path = write_tsv(tmp_path, [GOOD_LINE, "img2\t0\t0\t0\t4\tdog\tकुत्ता"])
        with pytest.raises(TsvParseError, match=":2:"):
            parse_vg_tsv(path, "hi", "train", strict=True)

    def test_wrong_arity_reported(self, tmp_path):
        path = write_tsv(tmp_path, ["img1\t1\t2\t3\tcat"])
        with pytest.raises(TsvParseError, match="7 tab-separated"):
            parse_vg_tsv(path, "hi", "train", strict=True)

    def test_non_numeric_box_field(self, tmp_path):
        path = write_tsv(tmp_path, ["img1\t5\tten\t20\t30\tcat\tबिल्ली"])
        with pytest.raises(TsvParseError, match="not an integer"):
            parse_vg_tsv(path, "hi", "train", strict=True)

    def test_lenient_mode_skips_and_reports(self, tmp_path):
        path = write_tsv(tmp_path, [GOOD_LINE,
                                    "bad line",
                                    "img3\t1\t1\t2\t2\tsun\tसूरज"])
        result = parse_vg_tsv(path, "hi", "train", strict=False)
        assert len(result.records) == 2
        assert [issue.line_no for issue in result.issues] == [2]

    @pytest.mark.parametrize("image_id", ["../outside/x", "/abs/path/x", "a/b", ".", ".."])
    def test_image_id_must_be_one_path_component(self, tmp_path, image_id):
        # load_detections joins the id onto detections_dir
        path = write_tsv(tmp_path, [GOOD_LINE, f"{image_id}\t1\t1\t2\t2\tsun\tसूरज"])
        with pytest.raises(TsvParseError, match=":2: image_id must be a single path component"):
            parse_vg_tsv(path, "hi", "train", strict=True)
        result = parse_vg_tsv(path, "hi", "train", strict=False)
        assert [rec.image_id for rec in result.records] == ["img1"]
        assert [(i.line_no, i.reason) for i in result.issues] == [
            (2, f"image_id must be a single path component, got {image_id!r}")]

    @pytest.mark.parametrize("image_id, code", [("tr\x00ain0", "U+0000"),
                                                ("img\u2028x", "U+2028")],
                             ids=["nul", "line-separator"])
    def test_image_id_must_be_printable(self, tmp_path, image_id, code):
        # such an id names no detector file: accepted, its record would lose
        # its labels clause under a warning that blames the IoU threshold
        path = write_tsv(tmp_path, [GOOD_LINE, f"{image_id}\t1\t1\t2\t2\tsun\tसूरज"])
        with pytest.raises(TsvParseError, match=f":2: image_id holds {re.escape(code)}, which"):
            parse_vg_tsv(path, "hi", "train", strict=True)
        result = parse_vg_tsv(path, "hi", "train", strict=False)
        assert [rec.image_id for rec in result.records] == ["img1"]
        assert [i.line_no for i in result.issues] == [2]

    def test_a_leading_byte_order_mark_is_rejected_on_line_1(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_bytes(codecs.BOM_UTF8 + (GOOD_LINE + "\n").encode("utf-8"))
        with pytest.raises(TsvParseError, match=r"split\.tsv:1: image_id holds U\+FEFF"):
            parse_vg_tsv(path, "hi", "train", strict=True)

    @pytest.mark.parametrize("line, reason", [
        (" \t1\t1\t2\t2\tsun\tसूरज", "image_id must be non-empty"),
        ("img2\t1\t1\t2\t2\t\tसूरज", "english and target text must be non-empty"),
        ("img2\t1\t1\t2\t2\tsun\t", "english and target text must be non-empty"),
    ], ids=["blank-image-id", "empty-english", "empty-target"])
    def test_an_empty_field_is_a_bad_line(self, tmp_path, line, reason):
        path = write_tsv(tmp_path, [GOOD_LINE, line])
        with pytest.raises(TsvParseError) as raised:
            parse_vg_tsv(path, "hi", "train", strict=True)
        assert str(raised.value) == f"{path}:2: {reason}"
        result = parse_vg_tsv(path, "hi", "train", strict=False)
        assert [rec.image_id for rec in result.records] == ["img1"]
        assert [(i.line_no, i.reason) for i in result.issues] == [(2, reason)]


# ----------------------------------------------------------------------
# IoU

def pixel_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Brute force: count integer pixel membership in each box."""
    inter = 0
    union = 0
    for x in range(min(a.x, b.x), max(a.x + a.w, b.x + b.w)):
        for y in range(min(a.y, b.y), max(a.y + a.h, b.y + b.h)):
            in_a = a.x <= x < a.x + a.w and a.y <= y < a.y + a.h
            in_b = b.x <= x < b.x + b.w and b.y <= y < b.y + b.h
            inter += in_a and in_b
            union += in_a or in_b
    return inter / union


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(3, 4, 5, 6)
        assert iou(box, box) == 1.0

    def test_half_overlap_hand_value(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0

    boxes = st.builds(BoundingBox,
                      x=st.integers(0, 15), y=st.integers(0, 15),
                      w=st.integers(1, 15), h=st.integers(1, 15))

    @given(boxes, boxes)
    @settings(max_examples=150, deadline=None)
    def test_matches_pixel_membership_exactly(self, a, b):
        assert iou(a, b) == pixel_iou(a, b)

    @given(boxes, boxes)
    @settings(max_examples=150, deadline=None)
    def test_symmetric_bounded_identity(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0
        if v == 1.0:
            assert a == b


class TestSelectTag:
    def test_empty_detections(self):
        assert select_tag(BoundingBox(0, 0, 10, 10), [], 0.1) is None

    def test_highest_iou_wins_above_threshold(self):
        record = BoundingBox(0, 0, 10, 10)
        dets = [
            DetectedObject("far", BoundingBox(8, 8, 10, 10), 0.99),   # iou ~ 0.02
            DetectedObject("near", BoundingBox(0, 0, 10, 12), 0.10),  # iou ~ 0.83
        ]
        assert select_tag(record, dets, 0.5) == "near"

    def test_all_below_threshold(self):
        record = BoundingBox(0, 0, 10, 10)
        dets = [DetectedObject("weak", BoundingBox(9, 9, 10, 10), 0.9)]
        assert select_tag(record, dets, 0.5) is None

    def test_tie_breaks_by_confidence_then_order(self):
        record = BoundingBox(0, 0, 10, 10)
        same = BoundingBox(0, 0, 10, 10)
        dets = [DetectedObject("low", same, 0.4), DetectedObject("high", same, 0.9)]
        assert select_tag(record, dets, 0.1) == "high"
        dets = [DetectedObject("first", same, 0.7), DetectedObject("second", same, 0.7)]
        assert select_tag(record, dets, 0.1) == "first"


# ----------------------------------------------------------------------
# detector files

class TestDetections:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "im1.json"
        path.write_text(json.dumps([
            {"label": "cat", "box": [1, 2, 3, 4], "confidence": 0.75},
        ]))
        dets = read_detection_file(path)
        assert dets == [DetectedObject("cat", BoundingBox(1, 2, 3, 4), 0.75)]
        assert load_detections(tmp_path, "im1") == dets

    def test_missing_file_means_no_detections(self, tmp_path):
        assert load_detections(tmp_path, "absent") == []
        assert load_detections(None, "absent") == []

    def test_bad_entry_reported(self, tmp_path):
        path = tmp_path / "im2.json"
        path.write_text(json.dumps([{"label": "x", "box": [1, 2], "confidence": 0.5}]))
        with pytest.raises(DataError, match="entry 0"):
            read_detection_file(path)

    def test_confidence_range_enforced(self, tmp_path):
        path = tmp_path / "im3.json"
        path.write_text(json.dumps([{"label": "x", "box": [0, 0, 1, 1], "confidence": 1.5}]))
        with pytest.raises(DataError) as raised:
            read_detection_file(path)
        assert str(raised.value) == (f"{path}: bad detection entry 0: "
                                     "confidence must be in [0, 1], got 1.5")


# ----------------------------------------------------------------------
# instance files

# any text an instance can carry: no lone surrogates (UTF-8 cannot write them),
# with the characters JSON escapes or passes through drawn often
TEXT = st.text(st.characters(blacklist_categories=("Cs",))
               | st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80\u2028\u2029\U0001f600'),
               max_size=30)


@st.composite
def instances(draw):
    task = draw(st.sampled_from(("mmt", "text_only", "caption")))
    image_id = None if task == "text_only" else draw(TEXT)
    return PromptInstance(task=task, prompt=draw(TEXT), response=draw(TEXT), lang=draw(TEXT),
                          source_id=draw(TEXT), image_id=image_id)


@pytest.mark.parametrize("image_id", ["img7", None])
def test_instance_json_equals_json_dumps(image_id):
    inst = PromptInstance(task="mmt", prompt="Translate: a red cat",
                          response="एक लाल बिल्ली", lang="hi", source_id="hi/train/3",
                          image_id=image_id)
    d = {"task": "mmt", "prompt": inst.prompt, "response": inst.response, "lang": "hi",
         "source_id": "hi/train/3"}
    if image_id is not None:
        d["image_id"] = image_id
    assert instance_to_json(inst) == json.dumps(d, ensure_ascii=False, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(inst=instances(), image_id=st.none() | TEXT)
def test_instance_json_equals_json_dumps_for_any_text(inst, image_id):
    inst = inst._replace(image_id=image_id)
    d = {"task": inst.task, "prompt": inst.prompt, "response": inst.response,
         "lang": inst.lang, "source_id": inst.source_id}
    if image_id is not None:
        d["image_id"] = image_id
    assert instance_to_json(inst) == json.dumps(d, ensure_ascii=False, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(written=st.lists(instances(), max_size=5))
def test_read_instances_returns_what_write_instances_wrote(written):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "i.jsonl"
        write_instances(path, written)
        assert read_instances(path) == written


# ----------------------------------------------------------------------
# mixing

class TestMixSamples:
    def test_equal_split(self):
        corpora = [list(range(50)), list(range(100, 150))]
        out = mix_samples(corpora, 10, seed=0)
        assert len(out) == 10
        assert sum(1 for x in out if x < 100) == 5

    def test_remainder_to_earliest(self):
        corpora = [list(range(50)), list(range(100, 150)), list(range(200, 250))]
        out = mix_samples(corpora, 10, seed=0)
        counts = [sum(1 for x in out if lo <= x < lo + 50) for lo in (0, 100, 200)]
        assert counts == [4, 3, 3]

    def test_with_replacement_when_too_small(self):
        out = mix_samples([[7]], 5, seed=0)
        assert out == [7, 7, 7, 7, 7]

    def test_without_replacement_when_possible(self):
        out = mix_samples([list(range(10))], 10, seed=3)
        assert sorted(out) == list(range(10))

    def test_deterministic_under_seed(self):
        corpora = [list(range(100)), list(range(100, 200))]
        assert mix_samples(corpora, 20, seed=4) == mix_samples(corpora, 20, seed=4)
        assert mix_samples(corpora, 20, seed=4) != mix_samples(corpora, 20, seed=5)

    def test_counts_differ_by_at_most_one(self):
        corpora = [list(range(i * 100, i * 100 + 60)) for i in range(1, 8)]
        out = mix_samples(corpora, 100, seed=1)
        counts = [sum(1 for x in out if i * 100 <= x < i * 100 + 60) for i in range(1, 8)]
        assert len(out) == 100
        assert max(counts) - min(counts) <= 1

    def test_pretraining_scale_cap(self):
        # the pre-training blend caps at 1.2M items split equally
        corpora = [range(500_000)] * 3  # en, hi, bn
        out = mix_samples(corpora, 1_200_000, seed=0)
        assert len(out) == 1_200_000

    def test_empty_corpus_contributes_nothing(self):
        corpora = [list(range(10)), []]
        out = mix_samples(corpora, 10, seed=0)
        assert len(out) == 5  # min(cap, achievable)


# ----------------------------------------------------------------------
# stats and images

class TestStats:
    def test_two_record_average(self):
        # known token counts: 3 and 5 tokens
        from tinymmt.datapipe import VgRecord
        records = [
            VgRecord(image_id="a", box=BoundingBox(0, 0, 1, 1), english="one two three",
                     target_lang="hi", target_text="एक दो तीन", split="train"),
            VgRecord(image_id="b", box=BoundingBox(0, 0, 1, 1),
                     english="one two three four five", target_lang="hi",
                     target_text="एक दो तीन चार पाँच", split="train"),
        ]
        assert corpus_stats(records) == {"train": {"count": 2,
                                                   "avg_tokens": {"en": 4.00, "hi": 4.00}}}

    def test_empty_split_omitted(self):
        assert corpus_stats([]) == {}

    def test_counts_by_split(self):
        records = make_records(3, seed=5, split="train") + make_records(2, seed=6, split="valid")
        stats = corpus_stats(records)
        assert list(stats) == ["train", "valid"]
        assert stats["train"]["count"] == 3
        assert stats["valid"]["count"] == 2


class TestSynthImages:
    def test_deterministic_and_in_range(self):
        a = synth_image("img1", 12)
        b = synth_image("img1", 12)
        assert np.array_equal(a, b)
        assert a.shape == (12, 12)
        assert (a >= 0).all() and (a <= 1).all()

    def test_distinct_ids_distinct_pixels(self):
        assert not np.array_equal(synth_image("img1", 12), synth_image("img2", 12))
