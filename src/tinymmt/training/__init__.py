from tinymmt.training.stages import (
    DEFAULT_STAGE_EPOCHS,
    DEFAULT_STAGE_LRS,
    STAGE_COMPONENTS,
    SWEEP_EPOCHS,
    SWEEP_LRS,
    StageConfig,
    derive_stage_seed,
    freeze_plan,
)
from tinymmt.training.loop import TrainLog, run_pipeline, run_stage
from tinymmt.training.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from tinymmt.training.sweep import evaluate_bleu, generate_hypotheses, hyperparameter_sweep

__all__ = [
    "DEFAULT_STAGE_EPOCHS",
    "DEFAULT_STAGE_LRS",
    "FORMAT_VERSION",
    "MAGIC",
    "STAGE_COMPONENTS",
    "SWEEP_EPOCHS",
    "SWEEP_LRS",
    "StageConfig",
    "TrainLog",
    "derive_stage_seed",
    "evaluate_bleu",
    "freeze_plan",
    "generate_hypotheses",
    "hyperparameter_sweep",
    "load_checkpoint",
    "run_pipeline",
    "run_stage",
    "save_checkpoint",
]
