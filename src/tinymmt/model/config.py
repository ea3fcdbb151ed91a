"""Model hyperparameters and their consistency rules."""

from __future__ import annotations

from dataclasses import dataclass

from tinymmt.errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the full stack; defaults are the desk-scale configuration.

    The context budget splits into a fixed number of visual slots (one per
    image patch) plus text. c_vis is derived: (image_size / patch_size)^2.
    """

    vocab_size: int
    d_vis: int = 32
    d_model: int = 64
    n_layers_vis: int = 2
    n_layers_lm: int = 2
    n_heads: int = 2
    c_total: int = 256
    image_size: int = 12
    patch_size: int = 4

    def __post_init__(self):
        for field in ("vocab_size", "d_vis", "d_model", "n_layers_vis",
                      "n_layers_lm", "n_heads", "c_total", "image_size", "patch_size"):
            value = getattr(self, field)
            # JSON true/false are bools, not numbers, though bool subclasses int
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ConfigError(f"model.{field} must be a positive integer, got {value!r}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"patch_size {self.patch_size} must divide image_size {self.image_size}"
            )
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_vis % self.n_heads != 0:
            raise ConfigError(f"d_vis {self.d_vis} not divisible by n_heads {self.n_heads}")
        if self.c_vis >= self.c_total:
            raise ConfigError(
                f"visual token budget c_vis={self.c_vis} must be below c_total={self.c_total}"
            )

    @property
    def c_vis(self) -> int:
        return (self.image_size // self.patch_size) ** 2
