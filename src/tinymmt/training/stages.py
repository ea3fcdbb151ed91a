"""Stage configuration and the per-stage freezing plan.

The three-stage schedule trains progressively more of the stack while the
vision encoder stays frozen throughout:

    stage 1: adapter only (feature alignment on image-text pairs)
    stage 2: adapter + LM (instruction tuning)
    stage 3: adapter + LM (task finetuning), full or low-rank

In low-rank mode the base LM weights are excluded and the adapter plus the
A/B matrices train instead; the projector always trains fully.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from tinymmt.errors import ConfigError
from tinymmt.model.lora import lora_targets

STAGE_COMPONENTS = {1: ("adapter",), 2: ("adapter", "llm"), 3: ("adapter", "llm")}
STAGE_MODES = ("full", "lora")

# stage 3 default is the grid winner (lr 1e-4, one epoch); stages 1-2 are
# desk-scale choices, not established values
DEFAULT_STAGE_LRS = {1: 1e-3, 2: 2e-4, 3: 1e-4}

SWEEP_LRS = (1e-3, 1e-4, 1e-5)
SWEEP_EPOCHS = (1, 2, 3, 5)


def derive_stage_seed(master_seed: int, stage: int) -> int:
    """Stable per-stage seed so ablation pipelines share earlier trajectories."""
    import numpy as np

    ss = np.random.SeedSequence([int(master_seed), int(stage)])
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2 ** 63))


@dataclass
class StageConfig:
    """One training stage: the only record of its settings, their defaults
    and their checks. lr defaults by stage."""

    stage: int
    lr: float | None = None
    epochs: int = 1
    batch_size: int = 8
    seed: int = 0
    mode: str = "full"
    max_steps: int | None = None

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ConfigError(f"stage must be 1, 2 or 3, got {self.stage!r}")
        self.lr = float(DEFAULT_STAGE_LRS[self.stage] if self.lr is None else self.lr)
        if self.mode not in STAGE_MODES:
            raise ConfigError(f"mode must be {' or '.join(map(repr, STAGE_MODES))}, "
                              f"got {self.mode!r}")
        if self.mode == "lora" and self.stage != 3:
            raise ConfigError("lora mode is only valid for stage 3")
        if not 0 < self.lr < float("inf"):  # NaN fails every comparison
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def summary(self) -> dict:
        return asdict(self)


def freeze_plan(model, cfg: StageConfig) -> frozenset[str]:
    """Expand a stage config into the exact set of trainable parameter names:
    every parameter of the stage's STAGE_COMPONENTS, with the low-rank
    matrices ("lora") standing in for the base LM ("llm") in lora mode."""
    components = STAGE_COMPONENTS[cfg.stage]
    if cfg.mode == "lora":
        if not lora_targets(model):
            raise ConfigError("stage 3 lora mode requires adapters to be attached")
        components = tuple("lora" if c == "llm" else c for c in components)
    prefixes = tuple(c + "." for c in components)
    return frozenset(name for name in model.params.names() if name.startswith(prefixes))
