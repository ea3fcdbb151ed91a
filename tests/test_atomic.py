import os
from pathlib import Path

import pytest

import tinymmt
from tinymmt.atomic import atomic_write

SRC = Path(tinymmt.__file__).resolve().parent


def test_str_and_bytes_round_trip_and_parent_is_created(tmp_path):
    text = tmp_path / "new" / "dir" / "a.txt"
    atomic_write(text, "नमस्ते\nline two\n")
    assert text.read_text(encoding="utf-8") == "नमस्ते\nline two\n"
    blob = tmp_path / "b.bin"
    atomic_write(blob, b"\x00\xff\x10")
    atomic_write(blob, b"second")  # replaces an existing file
    assert blob.read_bytes() == b"second"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.bin", "new"]


def test_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        atomic_write(tmp_path / "a.txt", 123)
    target = tmp_path / "occupied"  # os.replace cannot put a file over a non-empty directory
    target.mkdir()
    (target / "keep").write_text("x")
    with pytest.raises(OSError):
        atomic_write(target, "data")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["occupied"]
    assert [p.name for p in target.iterdir()] == ["keep"]


def test_two_writes_to_one_path_use_different_temp_names(tmp_path, monkeypatch):
    sources = []
    replace = os.replace

    def recording_replace(src, dst):
        sources.append(Path(src).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    atomic_write(tmp_path / "a.txt", "one")
    atomic_write(tmp_path / "a.txt", "two")
    assert len(sources) == 2 and sources[0] != sources[1]
    assert all(name.startswith(".a.txt.") and name.endswith(".tmp") for name in sources)
    assert (tmp_path / "a.txt").read_text() == "two"


def test_mode_bits_match_a_plain_write(tmp_path):
    saved = os.umask(0o027)
    try:
        atomic_write(tmp_path / "atomic.txt", "x")
        (tmp_path / "plain.txt").write_text("x")
    finally:
        os.umask(saved)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"atomic.txt": 0o640, "plain.txt": 0o640}


def test_one_module_renames_files_into_place():
    users = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
                   if "os.replace" in p.read_text(encoding="utf-8"))
    assert users == ["atomic.py"]
