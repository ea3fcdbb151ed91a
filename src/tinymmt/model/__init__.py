from tinymmt.model.config import ModelConfig
from tinymmt.model.vocab import BOS, EOS, HUM, IMG, PAD, SYS, Vocabulary
from tinymmt.model.multimodal import Assembled, MultimodalModel
from tinymmt.model.lora import (
    default_lora_targets,
    lora_attach,
    lora_merge,
    lora_targets,
)
from tinymmt.numerics.tensor import LORA_ALPHA, LORA_R

__all__ = [
    "Assembled",
    "BOS",
    "EOS",
    "HUM",
    "IMG",
    "LORA_ALPHA",
    "LORA_R",
    "ModelConfig",
    "MultimodalModel",
    "PAD",
    "SYS",
    "Vocabulary",
    "default_lora_targets",
    "lora_attach",
    "lora_merge",
    "lora_targets",
]
