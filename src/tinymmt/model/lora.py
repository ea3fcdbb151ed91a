"""Low-rank adapters: freeze a weight W and learn a delta (alpha/r) * B @ A.

B starts at zero, so attaching is an exact identity; merging folds the delta
back into W, so a merged model reproduces the adapted model's logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tinymmt.numerics.tensor import Tensor, linear

LORA_DEFAULT_R = 4
LORA_DEFAULT_ALPHA = 16.0
LORA_INIT_STD = 0.01


@dataclass
class LoraAdapter:
    target: str      # base weight parameter name, shape (d_out, d_in)
    r: int
    alpha: float
    A: Tensor        # (r, d_in)
    B: Tensor        # (d_out, r)

    def delta(self, x: Tensor) -> Tensor:
        """Low-rank contribution to y = x @ W.T, i.e. (alpha/r) * x @ (B A).T."""
        return linear(linear(x, self.A), self.B) * (self.alpha / self.r)


def default_lora_targets(model) -> list[str]:
    """All attention projection weights of the decoder LM."""
    return [
        f"llm.blocks.{i}.attn.{proj}.weight"
        for i in range(model.config.n_layers_lm)
        for proj in ("wq", "wk", "wv", "wo")
    ]


def lora_attach(model, targets: list[str] | None = None,
                r: int = LORA_DEFAULT_R, alpha: float = LORA_DEFAULT_ALPHA,
                seed: int = 0) -> None:
    """Attach adapters to the named linear weights and freeze those base weights.

    A is small random, B is zero, so the model's behavior is unchanged until
    the adapters train.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"lora rank must be a positive integer, got {r!r}")
    if targets is None:
        targets = default_lora_targets(model)
    if not targets:
        raise ValueError("no lora targets given")
    # clone() and the checkpoint header keep one rank and scale per model
    first = next(iter(model.lora_adapters.values()), None)
    if first is not None and (first.r, first.alpha) != (r, float(alpha)):
        raise ValueError(f"lora adapters with r={first.r}, alpha={first.alpha} are already "
                         f"attached; cannot add r={r}, alpha={alpha}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10AA]))
    for target in targets:
        if target not in model.params:
            raise KeyError(f"unknown lora target parameter {target!r}")
        if target in model.lora_adapters:
            raise ValueError(f"lora already attached to {target!r}")
        if target not in model.params.linears:
            raise ValueError(f"lora target {target!r} is not a linear weight")
        w = model.params[target]
        d_out, d_in = w.data.shape
        dtype = w.data.dtype
        a = Tensor(rng.normal(0.0, LORA_INIT_STD, size=(r, d_in)).astype(dtype))
        b = Tensor(np.zeros((d_out, r), dtype=dtype))
        model.params.add(f"lora.{target}.A", a)
        model.params.add(f"lora.{target}.B", b)
        adapter = LoraAdapter(target=target, r=r, alpha=float(alpha), A=a, B=b)
        model.lora_adapters[target] = adapter
        model.params.linears[target].lora = adapter
        model.params.freeze([target])


def lora_merge(model) -> None:
    """Fold every adapter's delta into its base weight and detach the adapters."""
    if not model.lora_adapters:
        raise ValueError("no lora adapters attached")
    for target in sorted(model.lora_adapters):
        adapter = model.lora_adapters[target]
        w = model.params[target]
        w.data += (adapter.alpha / adapter.r) * (adapter.B.data @ adapter.A.data)
        model.params.linears[target].lora = None
        model.params.remove(f"lora.{target}.A")
        model.params.remove(f"lora.{target}.B")
    model.lora_adapters.clear()
