"""Transformer building blocks plus the three model components.

All parameters are registered in a shared ParameterStore under dotted names;
the first segment ("vision", "adapter", "llm") is the unit of freezing.
Each Linear also records itself in the store under its weight name, which is
where low-rank adapters find the layer to attach to.
Weight convention follows the usual (d_out, d_in) layout, y = x @ W.T + b.
"""

from __future__ import annotations

import numpy as np

from tinymmt.errors import ShapeError
from tinymmt.model.config import ModelConfig
from tinymmt.model.lora import LORA_SCALE
from tinymmt.numerics.params import ParameterStore
from tinymmt.numerics.tensor import (
    Segments,
    Tensor,
    attention,
    embedding,
    gelu,
    gelu_mlp,
    layer_norm,
    linear,
    lora_linear,
)

INIT_STD = 0.02


class Linear:
    def __init__(self, store: ParameterStore, name: str, d_in: int, d_out: int,
                 rng: np.random.Generator):
        self.weight = store.add(name + ".weight",
                                Tensor(rng.normal(0.0, INIT_STD, size=(d_out, d_in))))
        self.bias = store.add(name + ".bias", Tensor(np.zeros(d_out)))
        self.lora = None  # (A, B), set by lora_attach
        store.linears[name + ".weight"] = self

    def __call__(self, x: Tensor) -> Tensor:
        if self.lora is None:
            return linear(x, self.weight, self.bias)
        return lora_linear(x, self.weight, self.bias, *self.lora, LORA_SCALE)


class LayerNorm:
    def __init__(self, store: ParameterStore, name: str, d: int):
        self.gamma = store.add(name + ".gamma", Tensor(np.ones(d)))
        self.beta = store.add(name + ".beta", Tensor(np.zeros(d)))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class KVCache:
    """Keys and values of one attention layer for the positions fed so far.

    k and v are (n, d) buffers allocated once, one row per position and the
    heads side by side in its columns, as attention reads them; rows
    [:filled] hold the sequence so far. For no-grad decoding only: attention
    reads the cached keys and values as constants.
    """

    def __init__(self, n: int, d: int):
        self.k = np.empty((n, d))
        self.v = np.empty((n, d))
        self.filled = 0


class SelfAttention:
    """Multi-head self-attention over a (T, d) sequence, causal or bidirectional.

    q, k and v stay (T, d) rows; the attention node splits them into heads
    by columns itself. With a KVCache the T rows are positions
    filled..filled+T-1 of a longer sequence: their keys and values are
    appended to the cache and the rows attend over everything cached. With
    a Segments table the rows pack the table's sequences; every row still
    gives a key and a value but only the rows the table selects query, so
    the output has one row per query.
    """

    def __init__(self, store: ParameterStore, name: str, d: int, n_heads: int,
                 rng: np.random.Generator, causal: bool):
        self.n_heads = n_heads
        self.scale = 1.0 / np.sqrt(d // n_heads)
        self.causal = causal
        self.wq = Linear(store, name + ".wq", d, d, rng)
        self.wk = Linear(store, name + ".wk", d, d, rng)
        self.wv = Linear(store, name + ".wv", d, d, rng)
        self.wo = Linear(store, name + ".wo", d, d, rng)

    def __call__(self, x: Tensor, cache: KVCache | None,
                 segments: Segments | None) -> Tensor:
        q = self.wq(x if segments is None else segments.select(x))
        k, v = self.wk(x), self.wv(x)
        if cache is not None:
            start, end = cache.filled, cache.filled + x.shape[0]
            cache.k[start:end] = k.data
            cache.v[start:end] = v.data
            cache.filled = end
            k, v = Tensor(cache.k[:end]), Tensor(cache.v[:end])
        return self.wo(attention(q, k, v, self.n_heads, self.scale, self.causal, segments))


class Block:
    """Pre-norm transformer block: x + attn(ln(x)), then x + mlp(ln(x)).

    The MLP, fc2(gelu(fc1(·))), is one gelu_mlp node; its layers carry no
    adapter (default_lora_targets holds attention projections only). With a
    Segments table, the block returns only the rows that query: the other
    rows supply keys and values and nothing else.
    """

    def __init__(self, store: ParameterStore, name: str, d: int, n_heads: int,
                 rng: np.random.Generator, causal: bool = False):
        self.ln1 = LayerNorm(store, name + ".ln1", d)
        self.attn = SelfAttention(store, name + ".attn", d, n_heads, rng, causal)
        self.ln2 = LayerNorm(store, name + ".ln2", d)
        self.fc1 = Linear(store, name + ".mlp.fc1", d, 4 * d, rng)
        self.fc2 = Linear(store, name + ".mlp.fc2", 4 * d, d, rng)

    def __call__(self, x: Tensor, cache: KVCache | None = None,
                 segments: Segments | None = None) -> Tensor:
        h = self.attn(self.ln1(x), cache, segments)
        x = (x if segments is None else segments.select(x)) + h
        fc1, fc2 = self.fc1, self.fc2
        return x + gelu_mlp(self.ln2(x), fc1.weight, fc1.bias, fc2.weight, fc2.bias)


class VisionEncoder:
    """Patch embedding + bidirectional transformer; (S, S) image -> (c_vis, d_vis)."""

    def __init__(self, store: ParameterStore, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.patch_proj = Linear(store, "vision.patch_emb", cfg.patch_size ** 2, cfg.d_vis, rng)
        self.pos_emb = store.add(
            "vision.pos_emb", Tensor(rng.normal(0.0, INIT_STD, size=(cfg.c_vis, cfg.d_vis))))
        self.blocks = [Block(store, f"vision.blocks.{i}", cfg.d_vis, cfg.n_heads, rng)
                       for i in range(cfg.n_layers_vis)]
        self.ln_f = LayerNorm(store, "vision.ln_f", cfg.d_vis)

    def patchify(self, image: np.ndarray) -> np.ndarray:
        s, p = self.cfg.image_size, self.cfg.patch_size
        g = s // p
        return (
            image.reshape(g, p, g, p).transpose(0, 2, 1, 3).reshape(g * g, p * p)
        )

    def __call__(self, image: np.ndarray) -> Tensor:
        image = np.asarray(image, dtype=np.float64)
        s = self.cfg.image_size
        if image.shape != (s, s):
            raise ShapeError(f"expected a ({s}, {s}) image, got {image.shape}")
        x = self.patch_proj(Tensor(self.patchify(image)))
        x = x + self.pos_emb
        for block in self.blocks:
            x = block(x)
        return self.ln_f(x)


class AdapterProjector:
    """Maps vision embeddings into the LM embedding space: fc2(gelu(fc1(x))).

    The two-layer GELU projector of LLaVA-1.5; a checkpoint header records it
    as adapter_mode "mlp2".
    """

    def __init__(self, store: ParameterStore, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.fc1 = Linear(store, "adapter.fc1", cfg.d_vis, cfg.d_model, rng)
        self.fc2 = Linear(store, "adapter.fc2", cfg.d_model, cfg.d_model, rng)

    def __call__(self, vis: Tensor) -> Tensor:
        if vis.ndim != 2 or vis.shape[1] != self.cfg.d_vis:
            raise ShapeError(
                f"adapter expects (n, {self.cfg.d_vis}) vision embeddings, got {vis.shape}"
            )
        return self.fc2(gelu(self.fc1(vis)))


class DecoderLM:
    """Causal decoder over merged visual + text embeddings, tied output head."""

    def __init__(self, store: ParameterStore, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.tok_emb = store.add(
            "llm.tok_emb", Tensor(rng.normal(0.0, INIT_STD, size=(cfg.vocab_size, cfg.d_model))))
        self.pos_emb = store.add(
            "llm.pos_emb", Tensor(rng.normal(0.0, INIT_STD, size=(cfg.c_total, cfg.d_model))))
        self.blocks = [Block(store, f"llm.blocks.{i}", cfg.d_model, cfg.n_heads, rng, causal=True)
                       for i in range(cfg.n_layers_lm)]
        self.ln_f = LayerNorm(store, "llm.ln_f", cfg.d_model)

    def embed_tokens(self, ids: np.ndarray) -> Tensor:
        return embedding(self.tok_emb, ids)

    def new_cache(self, n: int) -> list[KVCache]:
        """One empty KVCache per block, each room for n positions."""
        return [KVCache(n, self.cfg.d_model) for _ in self.blocks]

    def forward_embedded(self, embeds: Tensor, positions: np.ndarray,
                         cache: list[KVCache] | None,
                         segments: Segments | None) -> Tensor:
        """(T, d_model) embeddings -> (T, vocab_size) logits.

        With a cache (from new_cache) the T rows continue the positions
        already cached, and their keys and values are added to it. With a
        Segments table the rows pack its sequences, and only the rows its
        queries select get logits: every block but the last still runs on
        all T rows, whose keys and values those rows attend over.
        """
        if segments is not None and segments.ends[-1] != embeds.shape[0]:
            raise ShapeError(f"segments pack {segments.ends[-1]} rows, got {embeds.shape[0]}")
        x = embeds + embedding(self.pos_emb, positions)
        layers = cache if cache is not None else [None] * len(self.blocks)
        inner = None if segments is None else segments.every_row()
        for i, (block, layer) in enumerate(zip(self.blocks, layers)):
            x = block(x, layer, segments if i == len(self.blocks) - 1 else inner)
        x = self.ln_f(x)
        return linear(x, self.tok_emb)
