"""Low-rank adapters: freeze a weight W and learn a delta LORA_SCALE * B @ A.

An adapter is its (A, B) pair, registered as parameters "lora.<weight>.A"
and "lora.<weight>.B" and held on the weight's Linear. Rank and scale are
fixed (LoRA's r = 4, alpha = 16). B starts at zero, so attaching is an exact
identity; merging folds the delta back into W, so a merged model reproduces
the adapted model's logits.
"""

from __future__ import annotations

import numpy as np

from tinymmt.numerics.tensor import Tensor

LORA_R = 4
LORA_ALPHA = 16.0
LORA_SCALE = LORA_ALPHA / LORA_R
LORA_INIT_STD = 0.01


def default_lora_targets(model) -> list[str]:
    """All attention projection weights of the decoder LM."""
    return [
        f"llm.blocks.{i}.attn.{proj}.weight"
        for i in range(model.config.n_layers_lm)
        for proj in ("wq", "wk", "wv", "wo")
    ]


def lora_targets(model) -> list[str]:
    """The weight names, sorted, whose Linear carries an adapter."""
    return sorted(name for name, layer in model.params.linears.items()
                  if layer.lora is not None)


def lora_attach(model, seed: int = 0) -> None:
    """Attach an adapter to every default_lora_targets weight and freeze that weight.

    A is small random, B is zero, so the model's behavior is unchanged until
    the adapters train.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10AA]))
    for target in default_lora_targets(model):
        layer = model.params.linears[target]  # a second attach meets a duplicate name
        d_out, d_in = layer.weight.data.shape
        a = Tensor(rng.normal(0.0, LORA_INIT_STD, size=(LORA_R, d_in)))
        b = Tensor(np.zeros((d_out, LORA_R)))
        layer.lora = (model.params.add(f"lora.{target}.A", a),
                      model.params.add(f"lora.{target}.B", b))
        layer.weight.requires_grad = False


def lora_merge(model) -> None:
    """Fold every adapter's delta into its base weight and detach the adapters."""
    targets = lora_targets(model)
    if not targets:
        raise ValueError("no lora adapters attached")
    for target in targets:
        layer = model.params.linears[target]
        a, b = layer.lora
        layer.weight.data += LORA_SCALE * (b.data @ a.data)
        layer.lora = None
        model.params.remove(f"lora.{target}.A")
        model.params.remove(f"lora.{target}.B")
