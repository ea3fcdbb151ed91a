from pathlib import Path

import pytest

from tinymmt.datapipe import (
    BoundingBox,
    PromptInstance,
    VgRecord,
    read_instances,
    render_prompt,
    write_instances,
)
from tinymmt.errors import DataError

GOLDEN = Path(__file__).parent / "golden"

RECORD = VgRecord(
    image_id="im042",
    box=BoundingBox(5, 10, 20, 30),
    english="a cat sits on the mat",
    target_lang="hi",
    target_text="एक बिल्ली चटाई पर बैठी है",
    split="train",
)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestGoldenTemplates:
    def test_mmt_with_tag(self):
        inst = render_prompt(RECORD, "mmt", tag="cat")
        assert inst.prompt + "\n" == golden("mmt_tagged.txt")

    def test_mmt_without_tag_drops_labels_sentence(self):
        inst = render_prompt(RECORD, "mmt")
        assert inst.prompt + "\n" == golden("mmt_untagged.txt")
        assert "labels" not in inst.prompt

    def test_text_only(self):
        inst = render_prompt(RECORD, "text_only")
        assert inst.prompt + "\n" == golden("text_only.txt")

    def test_caption(self):
        inst = render_prompt(RECORD, "caption", tag="cat")
        assert inst.prompt + "\n" == golden("caption.txt")


class TestRendering:
    def test_text_only_hand_example(self):
        record = VgRecord(image_id="x", box=BoundingBox(0, 0, 1, 1), english="a cat",
                          target_lang="hi", target_text="एक बिल्ली", split="train")
        inst = render_prompt(record, "text_only")
        assert inst.prompt == ("Translate the following sentence from English into "
                               "Hindi language. English sentence is: a cat.")

    def test_corner_arithmetic(self):
        inst = render_prompt(RECORD, "mmt", tag="cat")
        assert "x1=5, y1=10, x2=25, y2=40" in inst.prompt

    def test_caption_has_no_english_sentence_clause(self):
        inst = render_prompt(RECORD, "caption", tag="cat")
        assert "English sentence is" not in inst.prompt
        assert RECORD.english not in inst.prompt

    def test_response_is_target_text_in_all_tasks(self):
        for task in ("mmt", "text_only", "caption"):
            inst = render_prompt(RECORD, task, tag="cat" if task != "text_only" else None)
            assert inst.response == RECORD.target_text

    def test_image_id_absent_for_text_only(self):
        assert render_prompt(RECORD, "text_only").image_id is None
        assert render_prompt(RECORD, "mmt", tag="x").image_id == "im042"

    def test_multi_label_variant_joins_with_commas(self):
        inst = render_prompt(RECORD, "mmt", tag=["cat", "mat", "rug"])
        assert "labels of the objects in the image as: cat, mat, rug." in inst.prompt

    def test_empty_label_list_same_as_none(self):
        assert render_prompt(RECORD, "mmt", tag=[]).prompt == render_prompt(RECORD, "mmt").prompt

    def test_bengali_language_name(self):
        record = VgRecord(image_id="y", box=BoundingBox(0, 0, 1, 1), english="a dog",
                          target_lang="bn", target_text="একটি কুকুর", split="test")
        inst = render_prompt(record, "text_only")
        assert "into Bengali language" in inst.prompt

    def test_unknown_task_rejected(self):
        with pytest.raises(DataError):
            render_prompt(RECORD, "summarize")


class TestInstanceFiles:
    def test_serialization_round_trip_lossless(self, tmp_path):
        instances = [
            render_prompt(RECORD, "mmt", tag="cat"),
            render_prompt(RECORD, "text_only"),
            PromptInstance(task="text_only",
                           prompt="Translate the following sentence from Hindi into English "
                                  "language. Hindi sentence is: एक बिल्ली चटाई पर बैठी है.",
                           response="a cat sits on the mat", lang="en",
                           source_id="hi/train/im042#rev", image_id=None),
        ]
        path = tmp_path / "instances.jsonl"
        write_instances(path, instances)
        assert read_instances(path) == instances
        # a second parse -> write cycle is byte-stable
        again = tmp_path / "again.jsonl"
        write_instances(again, read_instances(path))
        assert again.read_bytes() == path.read_bytes()

    def test_bad_instance_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"task": "mmt"}\n', encoding="utf-8")
        with pytest.raises(DataError, match=":1:"):
            read_instances(path)
