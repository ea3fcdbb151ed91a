"""The full model: vision encoder -> adapter -> decoder LM.

Sequence layout (token ids; <img> slots carry projected patch embeddings):

    <bos> [<img> x c_vis, image only] <hum> prompt <sys> response <eos>

A sequence is its ids and its image's projected rows; the model derives its
rows, positions and scored targets (the response and the closing <eos>).
Sequences of one image, or of none, run as one packed group (see loss).
"""

from __future__ import annotations

import copy
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
    visual: Tensor | None   # (c_vis, d_model) rows for positions 1..c_vis, or no image


def _shared_rows(members, cap: int) -> int:
    """How many leading ids, at most cap, every member has equal to the first's."""
    head = members[0].ids
    shared = cap
    for asm in members[1:]:
        same = asm.ids[:shared] == head[:shared]
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
        response_ids = np.asarray([] if response_ids is None else response_ids, dtype=np.int64)
        has_image = visual_tokens is not None
        if has_image and visual_tokens.shape != (cfg.c_vis, cfg.d_model):
            raise ShapeError(
                f"visual tokens must have shape ({cfg.c_vis}, {cfg.d_model}), "
                f"got {visual_tokens.shape}"
            )
        ids = np.concatenate([
            [BOS],
            np.full(cfg.c_vis if has_image else 0, IMG, dtype=np.int64),
            [HUM],
            prompt_ids,
            [SYS],
            response_ids,
            [EOS] if append_eos else np.zeros(0, dtype=np.int64),
        ]).astype(np.int64)
        if len(ids) > cfg.c_total:
            raise BudgetError(f"assembled sequence length {len(ids)} exceeds context budget "
                              f"c_total={cfg.c_total}")
        return Assembled(ids, visual_tokens)

    def assemble_sequence(self, prompt_ids, visual_tokens: Tensor | None = None,
                          response_ids=None) -> Assembled:
        """Merge prompt, optional visual tokens, and optional response.

        With a response present, a closing <eos> is appended, and the loss
        scores the response plus that <eos>. Overflowing c_total raises;
        nothing is ever silently truncated.
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

        Positions 1..c_vis take the visual rows when the sequence has an
        image and is fed from position 0; every other row is its id's token
        row, an <img> id included. Feeding a grounded sequence from a
        position inside 1..c_vis raises ShapeError.
        """
        ids, visual = assembled.ids, assembled.visual
        if last is not None and not isinstance(last, Segments):
            last = Segments((len(ids),), queries=(last,))
        start = 0 if cache is None else cache[0].filled
        positions = start + (np.arange(len(ids)) if last is None else last.positions())
        n_vis = self.config.c_vis
        if visual is None or start > n_vis:
            rows = self.llm.embed_tokens(ids)
        elif start == 0 and len(ids) > n_vis:
            rows = concat([self.llm.embed_tokens(ids[:1]), visual,
                           self.llm.embed_tokens(ids[1 + n_vis:])])
        else:
            raise ShapeError(f"a grounded sequence is fed from 0 through its image slots or "
                             f"from past them, got rows [{start}, {start + len(ids)})")
        return self.llm.forward_embedded(rows, positions, cache, last)

    def loss(self, *members: Assembled) -> tuple[Tensor, int]:
        """Next-token loss over the response and closing <eos> of one or more
        sequences, pooled. Returns (scalar mean, n_scored).

        Every sequence must end in <eos>; the targets after its <sys> are
        scored. The sequences share one visual (the same projected image, or
        none) and run as one packed group: the longest prefix of ids they
        all share, up to the first row any of them scores, is embedded and
        run once; each sequence then runs only its own rows, which attend
        over the prefix's keys and values, and the prefix's nodes receive
        every sequence's gradient. Logits are computed from each sequence's
        <sys> row on. One sequence is a group with no shared prefix.
        """
        head, rest = members[0], members[1:]
        if any(asm.visual is not head.visual for asm in rest):
            raise ValueError("loss: the sequences of one group must share one visual, "
                             "the same projected image or none")
        firsts = []
        for asm in members:
            sys_at = np.flatnonzero(asm.ids == SYS)
            if asm.ids[-1] != EOS or not sys_at.size:
                raise ValueError("loss: a sequence without a response and <eos> "
                                 "scores no positions; the mean is undefined")
            firsts.append(int(sys_at[0]))
        prefix = _shared_rows(members, min(firsts)) if rest else 0
        packed = Assembled(np.concatenate([head.ids] + [a.ids[prefix:] for a in rest]),
                           head.visual)
        lengths = [len(a.ids) for a in members]
        ends = np.cumsum([lengths[0]] + [n - prefix for n in lengths[1:]])
        queries = [n - first for n, first in zip(lengths, firsts)]
        logits = self.forward(packed, None, Segments(ends, prefix, queries))
        # each sequence's last row predicts nothing: a masked placeholder target
        targets = np.concatenate([np.append(a.ids[first + 1:], 0)
                                  for a, first in zip(members, firsts)])
        mask = np.ones(len(targets), dtype=bool)
        mask[np.cumsum(queries) - 1] = False
        ce = cross_entropy_masked(logits, targets, mask)
        return ce, len(targets) - len(members)

    # ------------------------------------------------------------------
    # inference

    def context_room(self, prompt_ids, has_image: bool) -> int:
        """Positions left in c_total after the prompt's prefix; negative if it overflows."""
        n_vis = self.config.c_vis if has_image else 0
        return self.config.c_total - (3 + n_vis + len(prompt_ids))

    def generate(self, prompt_ids, image: np.ndarray | None,
                 max_new_tokens: int) -> np.ndarray:
        """Greedy decoding; stops at <eos> or after max_new_tokens. Deterministic.

        The budget is checked first, before the image is encoded: one that
        does not fit in the context left after the prompt's prefix
        (context_room) raises BudgetError, and a zero budget returns no
        tokens. The prefix is then fed once, its keys and values cached per
        layer and only its last row of logits computed; each generated token
        is then fed as one position.
        """
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        room = self.context_room(prompt_ids, image is not None)
        if max_new_tokens > room:
            raise BudgetError(f"prompt length {self.config.c_total - room} + max_new_tokens "
                              f"{max_new_tokens} exceeds context budget "
                              f"c_total={self.config.c_total}")
        if max_new_tokens == 0:
            return np.zeros(0, dtype=np.int64)
        generated: list[int] = []
        with no_grad():
            visual = self.visual_tokens(image) if image is not None else None
            prefix = self._assemble(prompt_ids, visual, None, append_eos=False)
            n_prefix = len(prefix.ids)
            cache = self.llm.new_cache(n_prefix + max_new_tokens)
            logits = self.forward(prefix, cache, last=1)
            while True:
                next_id = int(np.argmax(logits.data[-1]))
                if next_id == EOS:
                    break
                generated.append(next_id)
                if len(generated) == max_new_tokens:
                    break
                logits = self.forward(Assembled(np.array([next_id]), None), cache)
        return np.array(generated, dtype=np.int64)

    # ------------------------------------------------------------------
    # copying (used by the hyperparameter sweep)

    def clone(self) -> "MultimodalModel":
        """Deep copy: same config/vocab, parameter values, adapters, trainable
        set and provenance, sharing no state with this model."""
        return copy.deepcopy(self)
