import functools
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinymmt.errors import CheckpointError
from tinymmt.model import (
    ModelConfig,
    MultimodalModel,
    Vocabulary,
    default_lora_targets,
    lora_attach,
    lora_targets,
)
import tinymmt.numerics.tensor as tensor_module
from tinymmt.training import (
    FORMAT_VERSION,
    MAGIC,
    StageConfig,
    load_checkpoint,
    run_stage,
    save_checkpoint,
)

from conftest import assert_structured, build_model, make_instances, make_records


def trained_model(seed=5):
    records = make_records(3, seed=seed)
    instances = make_instances(records, "text_only")
    model = build_model(instances, seed=seed, c_total=256)
    run_stage(model, instances, StageConfig(stage=3, seed=seed, max_steps=2, batch_size=2))
    model.provenance.append(StageConfig(stage=3, seed=seed).summary())
    return model


def test_round_trip_reproduces_parameters_and_config(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.vocab.symbols == model.vocab.symbols
    assert loaded.seed == model.seed
    assert loaded.provenance == model.provenance
    for name in model.params.names():
        assert np.array_equal(loaded.params[name].data, model.params[name].data)


def test_save_load_save_is_byte_identical(tmp_path):
    model = trained_model()
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(model, first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_magic_and_version_fields(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert struct.unpack("<I", blob[4:8])[0] == FORMAT_VERSION


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_tampered_length_field_is_structured_error(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    # corrupt the header length so every downstream offset is nonsense
    blob[8:16] = struct.pack("<Q", 7)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(CheckpointError, match="truncated|missing"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    model = trained_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_lora_model_round_trips(tmp_path):
    records = make_records(3, seed=9)
    instances = make_instances(records, "mmt")
    model = build_model(instances, seed=9, c_total=512)
    lora_attach(model)
    run_stage(model, instances, StageConfig(stage=3, mode="lora", seed=1, max_steps=2,
                                            batch_size=2))
    path = tmp_path / "lora.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert lora_targets(loaded) == lora_targets(model)
    for name in model.params.names():
        assert np.array_equal(loaded.params[name].data, model.params[name].data)


# written by save_checkpoint before ModelConfig lost its adapter_mode and dtype
# fields and lora_attach its targets: format v1, as golden_lora_model builds it
GOLDEN_LORA = Path(__file__).parent / "golden" / "lora_v1.ckpt"


def golden_lora_model():
    """A tiny model, LoRA attached on the default targets, with non-zero B."""
    vocab = Vocabulary.from_texts(["a red cat", "एक लाल बिल्ली"])
    cfg = ModelConfig(vocab_size=len(vocab), d_vis=2, d_model=4, n_layers_vis=1,
                      n_layers_lm=1, n_heads=1, c_total=8, image_size=4, patch_size=2)
    model = MultimodalModel(cfg, vocab, seed=5)
    lora_attach(model, seed=1)
    rng = np.random.default_rng(2)
    for target in lora_targets(model):
        b = model.params[f"lora.{target}.B"]
        b.data = rng.normal(0.0, 0.01, size=b.data.shape)
    model.provenance = [{"stage": 3, "mode": "lora"}]
    return model


def test_an_older_lora_checkpoint_loads_and_resaves_byte_for_byte(tmp_path):
    golden = GOLDEN_LORA.read_bytes()
    loaded = load_checkpoint(GOLDEN_LORA)
    assert lora_targets(loaded) == sorted(default_lora_targets(loaded))
    for model in (loaded, golden_lora_model()):
        path = tmp_path / "again.ckpt"
        save_checkpoint(model, path)
        assert path.read_bytes() == golden


def test_provenance_records_full_pipeline(tmp_path):
    from tinymmt.training import run_pipeline
    records = make_records(4, seed=2)
    caption = make_instances(records, "caption")
    mmt = make_instances(records, "mmt")
    model = build_model(caption + mmt, seed=2, c_total=512)
    cfgs = [StageConfig(stage=s, seed=s, max_steps=1, batch_size=2) for s in (1, 2, 3)]
    run_pipeline(model, cfgs, {1: caption, 2: mmt, 3: mmt}, tmp_path, ())
    loaded = load_checkpoint(tmp_path / "stage3.ckpt")
    assert [p["stage"] for p in loaded.provenance] == [1, 2, 3]


# ----------------------------------------------------------------------
# malformed input: every defect is a CheckpointError, never a raw exception

def tensor_record(name: bytes, data: np.ndarray) -> bytes:
    """One float64 tensor record in the checkpoint layout."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<BB", 0, data.ndim)
            + struct.pack(f"<{data.ndim}I", *data.shape) + struct.pack("<Q", data.nbytes)
            + data.tobytes())


def split_blob(blob: bytes) -> tuple[dict, bytes]:
    """(header, tensor section starting at n_tensors) of a checkpoint."""
    (header_len,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + header_len]), blob[16 + header_len:]


def join_blob(blob: bytes, header: dict, tensors: bytes) -> bytes:
    raw = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + tensors


def _rename(table: dict, old: str, new: str) -> None:
    table[new] = table.pop(old)


@pytest.mark.parametrize("edit, problem", [
    (lambda h: h["config"].pop("d_model"), "config: missing required key 'd_model'"),
    (lambda h: _rename(h["config"], "d_model", "d_modle"), "config: unknown key 'd_modle'"),
    (lambda h: h["config"].pop("c_vis"), "config: missing required key 'c_vis'"),
    (lambda h: h["config"].pop("dtype"), "config: missing required key 'dtype'"),
    (lambda h: h["config"].update(n_heads=1.0), "config: 'n_heads' must be an integer"),
    (lambda h: h["config"].update(adapter_mode=None), "config: 'adapter_mode' must be a string"),
    (lambda h: h["config"].update(c_vis=99), "config: c_vis=99, but this model has c_vis=4"),
    (lambda h: h["config"].update(adapter_mode="mlp1"),
     "config: adapter_mode='mlp1', but this model has adapter_mode='mlp2'"),
    (lambda h: h["config"].update(dtype="float32"),
     "config: dtype='float32', but this model has dtype='float64'"),
    (lambda h: h["vocab"].pop("symbols"), "vocab: missing required key 'symbols'"),
    (lambda h: _rename(h["vocab"], "symbols", "symbol"), "vocab: unknown key 'symbol'"),
    (lambda h: h["vocab"].update(symbols="abc"), "vocab: 'symbols' must be an array"),
    (lambda h: h["vocab"]["symbols"].__setitem__(0, 1),
     "vocabulary symbols must be single characters, got 1"),
    (lambda h: h["vocab"]["symbols"].__setitem__(0, None),
     "vocabulary symbols must be single characters, got None"),
], ids=["no-d_model", "d_modle", "no-c_vis", "no-dtype", "float-n_heads", "null-adapter",
         "c_vis-99", "adapter-mlp1", "dtype-float32",
        "no-symbols", "symbol", "symbols-string", "symbol-int", "symbol-null"])
def test_a_header_config_or_vocab_off_its_field_table_is_exit_4_naming_the_key(
        tmp_path, capsys, edit, problem):
    from tinymmt.cli import main

    blob = GOLDEN_LORA.read_bytes()
    header, tensors = split_blob(blob)
    edit(header)
    path = tmp_path / "m.ckpt"
    path.write_bytes(join_blob(blob, header, tensors))
    assert main(["generate", "--checkpoint", str(path), "--input", str(tmp_path / "s.txt"),
                 "--out", str(tmp_path / "h.txt"), "--raw-sentences", "--lang", "hi"]) == 4
    err = capsys.readouterr().err
    assert f"error: {path}: invalid header: {problem}" in err
    assert_structured(err)


@pytest.fixture
def lora_checkpoint(tmp_path):
    records = make_records(3, seed=9)
    model = build_model(make_instances(records, "text_only"), seed=9, c_total=256)
    lora_attach(model)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    return path


def test_non_utf8_tensor_name_rejected(lora_checkpoint):
    blob = lora_checkpoint.read_bytes()
    at = blob.index(b"adapter.fc1.bias")
    lora_checkpoint.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(lora_checkpoint)


def test_duplicate_tensor_rejected(lora_checkpoint):
    blob = lora_checkpoint.read_bytes()
    header, tensors = split_blob(blob)
    (n_tensors,) = struct.unpack("<I", tensors[:4])
    bias = np.zeros(header["config"]["d_model"])
    tensors = (struct.pack("<I", n_tensors + 1) + tensors[4:]
               + tensor_record(b"adapter.fc1.bias", bias))
    lora_checkpoint.write_bytes(join_blob(blob, header, tensors))
    with pytest.raises(CheckpointError, match="duplicate tensor 'adapter.fc1.bias'"):
        load_checkpoint(lora_checkpoint)


@pytest.mark.parametrize("edit", [
    lambda lora: lora.pop("targets"),
    lambda lora: lora.update(r="two"),
    lambda lora: lora.update(r=2.5),
    lambda lora: lora.update(alpha=8.0),
    lambda lora: lora.update(targets=["llm.nope.weight"]),
    # the header lists every attention projection, sorted by name
    lambda lora: lora.update(targets=[f"llm.blocks.{i}.attn.{proj}.weight" for i in range(2)
                                      for proj in ("wq", "wk", "wv", "wo")]),
    lambda lora: lora.update(targets=lora["targets"][:1]),
], ids=["no-targets", "r-string", "r-float", "alpha", "unknown-target", "block-order",
        "subset"])
def test_bad_lora_header_rejected(lora_checkpoint, edit):
    blob = lora_checkpoint.read_bytes()
    header, tensors = split_blob(blob)
    edit(header["lora"])
    lora_checkpoint.write_bytes(join_blob(blob, header, tensors))
    with pytest.raises(CheckpointError, match="invalid header"):
        load_checkpoint(lora_checkpoint)


def test_rejected_context_length_leaves_no_causal_mask(tmp_path, monkeypatch):
    vocab = Vocabulary("abcdefg")
    model = MultimodalModel(ModelConfig(vocab_size=len(vocab), d_vis=8, d_model=8,
                                        n_layers_vis=1, n_layers_lm=1, c_total=32), vocab, seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    header, tensors = split_blob(blob)
    monkeypatch.setattr(tensor_module, "_CAUSAL_MASK", None)
    header["config"]["c_total"] = 932  # one stray digit in front of 32
    path.write_bytes(join_blob(blob, header, tensors))
    with pytest.raises(CheckpointError, match="llm.pos_emb"):
        load_checkpoint(path)
    assert tensor_module._CAUSAL_MASK is None


def test_corrupt_checkpoint_is_exit_4_with_structured_message(lora_checkpoint, tmp_path, capsys):
    from tinymmt.cli import main

    blob = lora_checkpoint.read_bytes()
    at = blob.index(b"adapter.fc1.bias")
    lora_checkpoint.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    sentences = tmp_path / "s.txt"
    sentences.write_text("red cat\n", encoding="utf-8")
    assert main(["generate", "--checkpoint", str(lora_checkpoint), "--input", str(sentences),
                 "--out", str(tmp_path / "h.txt"), "--raw-sentences", "--lang", "hi"]) == 4
    err = capsys.readouterr().err
    assert "not UTF-8" in err
    assert_structured(err)


@pytest.mark.parametrize("command, target", [("generate", "missing.ckpt"),
                                             ("sweep", "missing.ckpt"), ("generate", "")],
                         ids=["generate-missing", "sweep-missing", "generate-directory"])
def test_an_unreadable_checkpoint_is_exit_4_naming_its_path(tmp_path, capsys, command, target):
    from tinymmt.cli import main

    path = tmp_path / target
    if command == "generate":
        argv = ["generate", "--checkpoint", str(path), "--input", str(tmp_path / "s.txt"),
                "--out", str(tmp_path / "h.txt"), "--raw-sentences", "--lang", "hi"]
    else:  # a config whose stage 3 and validation files are never reached
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": "run", "train": {
            "stages": [{"stage": 3, "data": ["a.jsonl"]}], "val": ["v.jsonl"]}}))
        argv = ["sweep", "--config", str(config), "--checkpoint", target]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"error: cannot read {path}: " in err
    assert_structured(err)


@functools.lru_cache(maxsize=1)
def fuzz_checkpoint() -> tuple[bytes, dict[str, bytes], dict[str, range]]:
    """A small LoRA checkpoint with provenance, each tensor's raw bytes, and
    where each tensor's raw bytes sit in the file."""
    vocab = Vocabulary("abcdefg")
    config = ModelConfig(vocab_size=len(vocab), d_vis=8, d_model=8, n_layers_vis=1,
                         n_layers_lm=1, c_total=32)
    model = MultimodalModel(config, vocab, seed=3)
    lora_attach(model)
    model.provenance.append(StageConfig(stage=3, mode="lora", seed=3).summary())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
    raw = {name: t.data.tobytes() for name, t in model.params.items()}
    payload = {}
    (header_len,) = struct.unpack("<Q", blob[8:16])
    pos = 16 + header_len + 4
    for name, data in raw.items():  # records are written sorted by name
        pos += 4 + len(name.encode("utf-8")) + 2 + 4 * model.params[name].ndim + 8
        payload[name] = range(pos, pos + len(data))
        assert blob[pos:pos + len(data)] == data
        pos += len(data)
    assert pos == len(blob)
    return blob, raw, payload


def load_blob(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(blob)
        return load_checkpoint(path)


@functools.lru_cache(maxsize=1)
def structural_positions() -> list[int]:
    """Offsets of every checkpoint byte outside the tensors' raw data."""
    blob, _, payload = fuzz_checkpoint()
    data = set().union(*payload.values())
    return [i for i in range(len(blob)) if i not in data]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_byte_mutation_is_error_or_same_model(data):
    """The format carries no checksum, so a changed tensor byte loads as that
    value; any other changed byte is a CheckpointError or loads the same model."""
    blob, raw, payload = fuzz_checkpoint()
    pos = data.draw(st.one_of(st.sampled_from(structural_positions()),
                              st.integers(0, len(blob) - 1)), label="position")
    value = data.draw(st.integers(0, 255).filter(lambda v: v != blob[pos]), label="value")
    mutated = blob[:pos] + bytes([value]) + blob[pos + 1:]
    try:
        loaded = load_blob(mutated)
    except CheckpointError:
        assert not any(pos in r for r in payload.values())
        return
    assert loaded.params.names() == sorted(raw)
    for name, r in payload.items():
        assert loaded.params[name].data.tobytes() == mutated[r.start:r.stop], name


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_truncation_is_error(data):
    blob, _, _ = fuzz_checkpoint()
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    with pytest.raises(CheckpointError):
        load_blob(blob[:cut])
