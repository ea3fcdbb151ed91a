"""Binary checkpoints: magic "CNVD", version, JSON header, named tensors.

Layout (all integers little-endian):

    magic      4 bytes  b"CNVD"
    version    u32      currently 1
    header_len u64      followed by that many bytes of UTF-8 JSON
    n_tensors  u32
    per tensor:
        name_len u32, name (UTF-8)
        dtype    u8   0 = float64, the one type a model holds
        ndim     u8
        dims     u32 * ndim
        nbytes   u64, raw row-major data

The header carries config, vocabulary, stage provenance, the init seed, and
any attached low-rank adapter metadata. The config records the fixed adapter
("mlp2") and dtype ("float64"), the adapter metadata the fixed rank, scale
and sorted targets, and the loader refuses any other value. Tensors are
written sorted by name and floats round-trip exactly, so save -> load -> save
is byte-identical.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from tinymmt.atomic import NUMBER, atomic_write, json_fields, parse_json
from tinymmt.errors import CheckpointError, TinymmtError
from tinymmt.model.config import ModelConfig
from tinymmt.model.lora import default_lora_targets, lora_attach, lora_targets
from tinymmt.model.multimodal import MultimodalModel
from tinymmt.model.vocab import Vocabulary
from tinymmt.numerics.tensor import LORA_ALPHA, LORA_R

MAGIC = b"CNVD"
FORMAT_VERSION = 1
FLOAT64 = 0  # the tensor dtype code
_HEADER_FIELDS = {"config": dict, "vocab": dict, "provenance": list, "seed": int,
                  "lora": (dict, type(None))}
_LORA_FIELDS = {"targets": list, "r": int, "alpha": NUMBER}
# the one adapter (LLaVA-1.5's two-layer GELU projector) and the one float type,
# which the header's config records beside ModelConfig's fields and c_vis
FIXED_SHAPE = {"adapter_mode": "mlp2", "dtype": "float64"}
_MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig))
# every key _header writes into config, each required
_CONFIG_FIELDS = {**dict.fromkeys(_MODEL_KEYS, int), **dict.fromkeys(FIXED_SHAPE, str),
                  "c_vis": int}
_VOCAB_FIELDS = {"symbols": list}


def _header(model: MultimodalModel) -> dict:
    targets = lora_targets(model)
    lora = {"targets": targets, "r": LORA_R, "alpha": LORA_ALPHA} if targets else None
    config = model.config
    return {
        "config": {**dataclasses.asdict(config), **FIXED_SHAPE, "c_vis": config.c_vis},
        "vocab": model.vocab.to_dict(),
        "provenance": model.provenance,
        "seed": model.seed,
        "lora": lora,
    }


def save_checkpoint(model: MultimodalModel, path) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    header = json.dumps(_header(model), ensure_ascii=False, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<Q", len(header)))
    buf.write(header)
    names = model.params.names()
    buf.write(struct.pack("<I", len(names)))
    for name in names:
        data = np.ascontiguousarray(model.params[name].data, dtype=np.float64)
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<BB", FLOAT64, data.ndim))
        buf.write(struct.pack(f"<{data.ndim}I", *data.shape))
        raw = data.tobytes()
        buf.write(struct.pack("<Q", len(raw)))
        buf.write(raw)
    atomic_write(path, buf.getvalue())


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated or corrupt checkpoint")
        out = self.blob[self.pos: self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> MultimodalModel:
    """Rebuild a model from a checkpoint; any corruption raises before a
    partially loaded model can escape."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc.strerror or exc}") from exc
    reader = _Reader(blob, path)
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = reader.unpack("<I")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    (header_len,) = reader.unpack("<Q")
    where = f"{path}: invalid header"
    try:
        text = reader.take(header_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{where}: not UTF-8 text: {exc}") from exc
    header = json_fields(parse_json(text, where, CheckpointError), _HEADER_FIELDS, where,
                         CheckpointError, _HEADER_FIELDS)
    json_fields(header["config"], _CONFIG_FIELDS, f"{where}: config", CheckpointError,
                _CONFIG_FIELDS)
    json_fields(header["vocab"], _VOCAB_FIELDS, f"{where}: vocab", CheckpointError, _VOCAB_FIELDS)
    lora = header["lora"]
    if lora is not None:
        json_fields(lora, _LORA_FIELDS, f"{where}: lora", CheckpointError, _LORA_FIELDS)
        if (lora["r"], lora["alpha"]) != (LORA_R, LORA_ALPHA):
            raise CheckpointError(f"{where}: lora r and alpha must be {LORA_R} and {LORA_ALPHA}")

    fields = header["config"]
    try:
        config = ModelConfig(**{key: fields[key] for key in _MODEL_KEYS})
        model = MultimodalModel(config, Vocabulary.from_dict(header["vocab"]),
                                seed=header["seed"])
    except (TinymmtError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{where}: {exc}") from exc
    for key, value in {**FIXED_SHAPE, "c_vis": config.c_vis}.items():
        if fields[key] != value:
            raise CheckpointError(f"{where}: config: {key}={fields[key]!r}, but this model "
                                  f"has {key}={value!r}")
    if lora is not None:
        targets = sorted(default_lora_targets(model))
        if lora["targets"] != targets:
            raise CheckpointError(f"{where}: lora targets must be {targets}, "
                                  f"got {lora['targets']}")
        lora_attach(model)
    model.provenance = header["provenance"]

    (n_tensors,) = reader.unpack("<I")
    expected = set(model.params.names())
    seen: set[str] = set()
    for _ in range(n_tensors):
        (name_len,) = reader.unpack("<I")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8: {exc}") from exc
        if name in seen:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        dtype_code, ndim = reader.unpack("<BB")
        if dtype_code != FLOAT64:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype code {dtype_code}")
        dims = reader.unpack(f"<{ndim}I")
        (nbytes,) = reader.unpack("<Q")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected tensor {name!r} for this config")
        shape = model.params[name].data.shape
        if dims != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} shape {dims} conflicts with the "
                f"embedded config (expected {shape})"
            )
        if nbytes != math.prod(dims) * 8:
            raise CheckpointError(
                f"{path}: tensor {name!r} length field {nbytes} does not match "
                f"shape {dims} ({math.prod(dims) * 8} bytes expected)"
            )
        data = np.frombuffer(reader.take(nbytes), dtype=np.float64).reshape(dims)
        model.params[name].data = data.copy()  # writable
        seen.add(name)
    if reader.pos != len(reader.blob):
        raise CheckpointError(f"{path}: trailing bytes after the last tensor")
    missing = expected - seen
    if missing:
        raise CheckpointError(f"{path}: missing tensors: {sorted(missing)[:5]}")
    return model
