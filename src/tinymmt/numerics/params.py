"""Named parameter registry with a trainable subset and digest helpers.

Parameter names are dotted paths; the first segment is the component
("vision", "adapter", "llm", "lora"). A parameter trains exactly when its
tensor's requires_grad flag is set: the optimizer only ever touches those
entries, and SHA-256 digests prove frozen components bit-identical across
a training stage.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from tinymmt.numerics.tensor import Tensor


class ParameterStore:
    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        # weight name -> the layer that applies it; each Linear adds itself
        self.linears: dict[str, object] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._entries:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._entries[name] = tensor
        tensor.requires_grad = True
        return tensor

    def remove(self, name: str) -> None:
        del self._entries[name]

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def names(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for name in sorted(self._entries):
            yield name, self._entries[name]

    @property
    def trainable(self) -> frozenset[str]:
        return frozenset(name for name, tensor in self._entries.items() if tensor.requires_grad)

    def set_trainable(self, names: Iterable[str]) -> None:
        names = set(names)
        unknown = names - set(self._entries)
        if unknown:
            raise KeyError(f"unknown parameter names: {sorted(unknown)}")
        for name, tensor in self._entries.items():
            tensor.requires_grad = name in names

    def components(self) -> list[str]:
        return sorted({name.split(".", 1)[0] for name in self._entries})

    def digest(self, prefix: str) -> str:
        """SHA-256 over (name, shape, dtype, raw bytes) of the parameters under prefix."""
        h = hashlib.sha256()
        for name, tensor in self.items():
            if not name.startswith(prefix):
                continue
            h.update(name.encode("utf-8"))
            h.update(str(tensor.data.shape).encode("ascii"))
            h.update(str(tensor.data.dtype).encode("ascii"))
            h.update(np.ascontiguousarray(tensor.data).tobytes())
        return h.hexdigest()

    def component_digests(self) -> dict[str, str]:
        return {comp: self.digest(comp + ".") for comp in self.components()}
