from tinymmt.numerics.tensor import (
    Tensor,
    add,
    attention,
    backward,
    concat,
    cross_entropy_masked,
    embedding,
    gelu,
    gelu_mlp,
    layer_norm,
    linear,
    lora_linear,
    mul,
    no_grad,
)
from tinymmt.numerics.params import ParameterStore
from tinymmt.numerics.optim import AdamState, adam_step
from tinymmt.numerics.gradcheck import grad_check_params

__all__ = [
    "AdamState",
    "ParameterStore",
    "Tensor",
    "adam_step",
    "add",
    "attention",
    "backward",
    "concat",
    "cross_entropy_masked",
    "embedding",
    "gelu",
    "gelu_mlp",
    "grad_check_params",
    "layer_norm",
    "linear",
    "lora_linear",
    "mul",
    "no_grad",
]
