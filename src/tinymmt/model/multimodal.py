"""The full model: vision encoder -> adapter -> decoder LM.

Sequence layout (token ids; <img> slots carry projected patch embeddings):

    <bos> [<img> x c_vis, image only] <hum> prompt <sys> response <eos>

The loss mask is True exactly on the response tokens and the closing <eos>.
Several sequences can run as one packed group (see MultimodalModel.loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tinymmt.errors import BudgetError, ShapeError
from tinymmt.model.components import AdapterProjector, DecoderLM, KVCache, VisionEncoder
from tinymmt.model.config import ModelConfig
from tinymmt.model.vocab import BOS, EOS, HUM, IMG, SYS, Vocabulary
from tinymmt.numerics.params import ParameterStore
from tinymmt.numerics.tensor import Segments, Tensor, concat, cross_entropy_masked, no_grad


@dataclass
class Assembled:
    """One model-ready sequence."""

    ids: np.ndarray         # (T,) token ids, <img> at visual slots
    embeds: Tensor          # (T, d_model)
    loss_mask: np.ndarray   # (T,) bool
    positions: np.ndarray   # (T,) contiguous position ids


def _shared_rows(members, cap: int) -> int:
    """How many leading rows, at most cap, every member has equal to the first's
    in id, position and embedding."""
    head = members[0]
    shared = cap
    for asm in members[1:]:
        same = ((asm.ids[:shared] == head.ids[:shared])
                & (asm.positions[:shared] == head.positions[:shared])
                & (asm.embeds.data[:shared] == head.embeds.data[:shared]).all(axis=1))
        if not same.all():
            shared = int(np.argmin(same))
    return shared


class MultimodalModel:
    def __init__(self, config: ModelConfig, vocab: Vocabulary, seed: int = 0):
        if len(vocab) != config.vocab_size:
            raise ShapeError(
                f"vocab has {len(vocab)} entries but config.vocab_size={config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        self.seed = int(seed)
        self.params = ParameterStore()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        self.vision = VisionEncoder(self.params, config, rng)
        self.adapter = AdapterProjector(self.params, config, rng)
        self.llm = DecoderLM(self.params, config, rng)
        self.lora_adapters: dict[str, "LoraAdapter"] = {}  # target weight name -> adapter
        self.provenance: list[dict] = []

    # ------------------------------------------------------------------
    # forward pieces

    def encode_image(self, image: np.ndarray) -> Tensor:
        return self.vision(image)

    def project(self, vis: Tensor) -> Tensor:
        return self.adapter(vis)

    def visual_tokens(self, image: np.ndarray) -> Tensor:
        return self.project(self.encode_image(image))

    def _assemble(self, prompt_ids, visual_tokens, response_ids, append_eos: bool) -> Assembled:
        cfg = self.config
        prompt_ids = np.asarray(prompt_ids, dtype=np.int64)
        response_ids = (
            np.zeros(0, dtype=np.int64) if response_ids is None
            else np.asarray(response_ids, dtype=np.int64)
        )
        has_image = visual_tokens is not None
        if has_image and visual_tokens.shape != (cfg.c_vis, cfg.d_model):
            raise ShapeError(
                f"visual tokens must have shape ({cfg.c_vis}, {cfg.d_model}), "
                f"got {visual_tokens.shape}"
            )
        n_vis = cfg.c_vis if has_image else 0
        total = 1 + n_vis + 1 + len(prompt_ids) + 1 + len(response_ids) + (1 if append_eos else 0)
        if total > cfg.c_total:
            raise BudgetError(
                f"assembled sequence length {total} exceeds context budget c_total={cfg.c_total}"
            )

        ids = np.concatenate([
            [BOS],
            np.full(n_vis, IMG, dtype=np.int64),
            [HUM],
            prompt_ids,
            [SYS],
            response_ids,
            [EOS] if append_eos else np.zeros(0, dtype=np.int64),
        ]).astype(np.int64)

        head = self.llm.embed_tokens(ids[: 1])
        tail = self.llm.embed_tokens(ids[1 + n_vis:])
        if has_image:
            embeds = concat([head, visual_tokens, tail])
        else:
            embeds = concat([head, tail])

        loss_mask = np.zeros(total, dtype=bool)
        if append_eos:
            resp_start = 1 + n_vis + 1 + len(prompt_ids) + 1
            loss_mask[resp_start: resp_start + len(response_ids) + 1] = True

        return Assembled(
            ids=ids,
            embeds=embeds,
            loss_mask=loss_mask,
            positions=np.arange(total, dtype=np.int64),
        )

    def assemble_sequence(self, prompt_ids, visual_tokens: Tensor | None = None,
                          response_ids=None) -> Assembled:
        """Merge prompt, optional visual tokens, and optional response.

        With a response present, a closing <eos> is appended and the loss mask
        covers the response plus that <eos> (so it sums to |response| + 1).
        Overflowing c_total raises; nothing is ever silently truncated.
        """
        return self._assemble(prompt_ids, visual_tokens, response_ids,
                              append_eos=response_ids is not None)

    def forward(self, assembled: Assembled, cache: list[KVCache] | None = None,
                last: int | Segments | None = None) -> Tensor:
        """Logits (T, vocab_size); strictly causal over the merged sequence.

        With a cache, `assembled` continues the sequence already cached.
        With `last`, only the last `last` rows of logits, (last, vocab_size).
        With a Segments table instead, `assembled` packs the table's
        sequences and only the rows its queries select get logits.
        """
        if last is not None and not isinstance(last, Segments):
            last = Segments((len(assembled.ids),), queries=(last,))
        return self.llm.forward_embedded(assembled.embeds, assembled.positions, cache, last)

    def loss(self, *members: Assembled) -> tuple[Tensor, int]:
        """Next-token loss over the masked positions of one or more sequences,
        pooled. Returns (scalar mean, n_masked).

        The sequences run as one packed group. The longest prefix of rows
        they all share (ids, positions and embeddings), up to the first row
        any of them scores, runs once; each sequence then runs only its own
        rows, which attend over the prefix's keys and values, and the
        prefix's nodes receive every sequence's gradient. Rows equal in
        value must be the same function of the parameters, as token rows
        and the visual rows of one projected image are. Logits are computed
        from each sequence's first scored row on; the rows before it are
        scored by no target. One sequence is a group with no shared prefix.
        """
        firsts = []
        for asm in members:
            shifted = asm.loss_mask[1:]
            if not shifted.any():
                raise ValueError("loss: a sequence's mask selects no positions; "
                                 "the mean is undefined")
            firsts.append(int(np.argmax(shifted)))
        head, rest = members[0], members[1:]
        prefix = _shared_rows(members, min(firsts)) if rest else 0
        packed = head if not rest else Assembled(
            ids=np.concatenate([head.ids] + [a.ids[prefix:] for a in rest]),
            embeds=concat([head.embeds] + [a.embeds[prefix:] for a in rest]),
            loss_mask=np.concatenate([head.loss_mask] + [a.loss_mask[prefix:] for a in rest]),
            positions=np.concatenate([head.positions] + [a.positions[prefix:] for a in rest]),
        )
        lengths = [len(a.ids) for a in members]
        ends = np.cumsum([lengths[0]] + [n - prefix for n in lengths[1:]])
        table = Segments(ends, prefix, [n - first for n, first in zip(lengths, firsts)])
        logits = self.forward(packed, None, table)
        # each sequence's last row predicts nothing: a masked placeholder target
        targets = np.concatenate([np.append(a.ids[first + 1:], 0)
                                  for a, first in zip(members, firsts)])
        mask = np.concatenate([np.append(a.loss_mask[first + 1:], False)
                               for a, first in zip(members, firsts)])
        ce = cross_entropy_masked(logits, targets, mask)
        return ce, int(mask.sum())

    # ------------------------------------------------------------------
    # inference

    def context_room(self, prompt_ids, has_image: bool) -> int:
        """Positions left in c_total after the prompt's prefix; negative if it overflows."""
        n_vis = self.config.c_vis if has_image else 0
        return self.config.c_total - (3 + n_vis + len(prompt_ids))

    def _next_step(self, token: int, position: int) -> Assembled:
        """The one-position sequence that feeds a generated token back in."""
        ids = np.array([token], dtype=np.int64)
        return Assembled(ids=ids, embeds=self.llm.embed_tokens(ids),
                         loss_mask=np.zeros(1, dtype=bool),
                         positions=np.array([position], dtype=np.int64))

    def generate(self, prompt_ids, image: np.ndarray | None,
                 max_new_tokens: int) -> np.ndarray:
        """Greedy decoding; stops at <eos> or after max_new_tokens. Deterministic.

        The prefix is fed once, its keys and values cached per layer and
        only its last row of logits computed; each generated token is then
        fed as one position. A budget that does not fit in the context left
        after the prefix (context_room) raises BudgetError.
        """
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        generated: list[int] = []
        with no_grad():
            visual = self.visual_tokens(image) if image is not None else None
            prefix = self._assemble(prompt_ids, visual, None, append_eos=False)
            n_prefix = len(prefix.ids)
            if max_new_tokens > self.config.c_total - n_prefix:
                raise BudgetError(
                    f"prompt length {n_prefix} + max_new_tokens {max_new_tokens} "
                    f"exceeds context budget c_total={self.config.c_total}"
                )
            if max_new_tokens == 0:
                return np.zeros(0, dtype=np.int64)
            cache = self.llm.new_cache(n_prefix + max_new_tokens)
            logits = self.forward(prefix, cache, last=1)
            while True:
                next_id = int(np.argmax(logits.data[-1]))
                if next_id == EOS:
                    break
                generated.append(next_id)
                if len(generated) == max_new_tokens:
                    break
                step = self._next_step(next_id, n_prefix + len(generated) - 1)
                logits = self.forward(step, cache)
        return np.array(generated, dtype=np.int64)

    # ------------------------------------------------------------------
    # copying (used by the hyperparameter sweep)

    def clone(self) -> "MultimodalModel":
        """Deep copy: same config/vocab, parameter values, adapters, provenance."""
        from tinymmt.model.lora import lora_attach

        other = MultimodalModel(self.config, self.vocab, seed=self.seed)
        if self.lora_adapters:
            first = next(iter(self.lora_adapters.values()))
            lora_attach(other, targets=sorted(self.lora_adapters),
                        r=first.r, alpha=first.alpha)
        for name, tensor in self.params.items():
            other.params[name].data = tensor.data.copy()
        other.params.set_trainable(self.params.trainable)
        other.provenance = [dict(p) for p in self.provenance]
        return other
