"""Model hyperparameters and their consistency rules."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from tinymmt.errors import ConfigError

# the one adapter (LLaVA-1.5's two-layer GELU projector) and the one float type;
# a checkpoint header records both so that a reader can check them
FIXED_SHAPE = {"adapter_mode": "mlp2", "dtype": "float64"}


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

    def to_dict(self) -> dict:
        return {**asdict(self), **FIXED_SHAPE, "c_vis": self.c_vis}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        for key, value in FIXED_SHAPE.items():
            got = d.pop(key, value)
            if got != value:
                raise ConfigError(f"{key}={got!r}: every model has {key}={value!r}")
        c_vis = d.pop("c_vis", None)
        cfg = cls(**d)  # an unknown or missing key raises TypeError
        if c_vis is not None and c_vis != cfg.c_vis:
            raise ConfigError(
                f"c_vis={c_vis} inconsistent with (image_size/patch_size)^2={cfg.c_vis}"
            )
        return cfg
