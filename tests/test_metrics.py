import itertools
import math
import string
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinymmt.errors import DataError
from tinymmt.metrics import (
    PUNCTUATION,
    MetricReport,
    align_words,
    bleu,
    evaluate_files,
    evaluate_lines,
    format_leaderboard,
    kendall_tau,
    ribes,
    sentence_ribes,
    tokenize,
)


class TestTokenizer:
    def test_punctuation_detached_and_ascii_lowercased(self):
        assert tokenize("A cat.") == ["a", "cat", "."]

    def test_danda_detached(self):
        assert tokenize("नमस्ते।") == ["नमस्ते", "।"]

    def test_double_danda(self):
        assert tokenize("रुको॥") == ["रुको", "॥"]

    def test_empty(self):
        assert tokenize("") == []

    def test_non_ascii_case_untouched(self):
        assert tokenize("Übung") == ["Übung".replace("Ü", "Ü")]
        assert tokenize("Cat Übung")[0] == "cat"

    def test_consecutive_punctuation_split(self):
        assert tokenize("what?!") == ["what", "?", "!"]

    @given(st.text(alphabet=sorted(set("abc XY.?! नमस्ते। १२")), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once
        assert all(tok and not any(c.isspace() for c in tok) for tok in once)


class TestBleu:
    def test_perfect_match_scores_100(self):
        hyps = [["the", "cat"], ["a", "dog", "runs"]]
        assert bleu(hyps, [list(h) for h in hyps]) == pytest.approx(100.0, abs=1e-9)

    def test_any_token_change_drops_below_maximum(self):
        hyps = [["the", "cat", "sat"], ["a", "dog"]]
        refs = [["the", "cat", "sat"], ["a", "dog"]]
        damaged = [["the", "rat", "sat"], ["a", "dog"]]
        assert bleu(hyps, refs) == pytest.approx(100.0)
        assert bleu(damaged, refs, smooth=True) < 100.0
        assert ribes(damaged, refs) < 1.0

    def test_clipped_unigram_hand_example(self):
        # "the the the the" vs "the cat": clip at 1 -> p1 = 1/4, p2 = 0 -> score 0
        hyp = [["the", "the", "the", "the"]]
        ref = [["the", "cat"]]
        assert bleu(hyp, ref) == 0.0
        # with smoothing the unigram component survives as 1/4
        smoothed = bleu(hyp, ref, smooth=True)
        assert smoothed > 0.0

    def test_four_orders_hand_example(self):
        # the last token differs: p1..p4 = 4/5, 3/4, 2/3, 1/2 and BP = 1, so
        # BLEU-4 is 100 * 0.2^(1/4); BLEU-3 would be higher, BLEU-5 zero
        hyp = [["a", "b", "c", "d", "e"]]
        ref = [["a", "b", "c", "d", "f"]]
        assert bleu(hyp, ref) == pytest.approx(100.0 * 0.2 ** 0.25, abs=1e-9)

    def test_clipped_unigram_precision_value(self):
        from tinymmt.metrics import ngram_counts
        hyp = ["the", "the", "the", "the"]
        ref = ["the", "cat"]
        counts = ngram_counts(hyp, 1)
        ref_counts = ngram_counts(ref, 1)
        clipped = sum(min(c, ref_counts[g]) for g, c in counts.items())
        assert clipped / sum(counts.values()) == pytest.approx(0.25)

    def test_single_token_corpus_falls_back_to_short_orders(self):
        # no bigrams exist anywhere, so only the unigram order counts
        score = bleu([["hi"]], [["hi"]])
        assert score == pytest.approx(100.0, abs=1e-9)

    def test_short_corpus_brevity_penalty(self):
        # hyp shorter than ref: BP = exp(1 - r/c) with r=2, c=1
        score = bleu([["hi"]], [["hi", "there"]])
        assert score == pytest.approx(100.0 * math.exp(1 - 2), abs=1e-6)

    def test_corpus_order_permutation_invariant(self):
        hyps = [["a", "b"], ["c"], ["d", "e", "f"]]
        refs = [["a", "x"], ["c"], ["d", "f", "e"]]
        forward = bleu(hyps, refs, smooth=True)
        backward = bleu(hyps[::-1], refs[::-1], smooth=True)
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="mismatch"):
            bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="empty"):
            bleu([], [])

    @given(st.lists(st.sampled_from("abcde"), min_size=2, max_size=8),
           st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
           st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_deleting_a_token_never_raises_match_count(self, hyp, ref, drop):
        from tinymmt.metrics import ngram_counts
        ref_counts = ngram_counts(ref, 1)

        def matches(tokens):
            counts = ngram_counts(tokens, 1)
            return sum(min(c, ref_counts[g]) for g, c in counts.items())

        damaged = hyp[:drop % len(hyp)] + hyp[drop % len(hyp) + 1:]
        assert matches(damaged) <= matches(hyp)


class TestAlignWords:
    def test_identity_on_distinct_tokens(self):
        tokens = ["a", "b", "c", "d"]
        assert align_words(tokens, tokens) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_reversed_distinct_tokens(self):
        ref = ["a", "b", "c", "d"]
        hyp = ref[::-1]
        assert align_words(hyp, ref) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_token_absent_from_reference_skipped(self):
        assert align_words(["a", "zzz", "b"], ["a", "b"]) == [(0, 0), (2, 1)]

    def test_repeated_token_resolved_by_bigram_context(self):
        ref = ["the", "cat", "saw", "the", "dog"]
        hyp = ["the", "dog", "saw", "the", "cat"]
        pairs = dict(align_words(hyp, ref))
        # "dog" and "cat" are unique; the "the" before each resolves via bigram
        assert pairs[1] == 4   # dog
        assert pairs[4] == 1   # cat
        assert pairs[0] == 3   # "the dog" bigram is unique in ref
        assert pairs[3] == 0   # "the cat" likewise

    def test_ref_positions_used_at_most_once(self):
        pairs = align_words(["a", "a"], ["a"])
        assert len(pairs) <= 1


class TestKendallTau:
    def test_monotone_is_one(self):
        assert kendall_tau([0, 1, 2, 3]) == 1.0

    def test_reversed_is_minus_one(self):
        assert kendall_tau([3, 2, 1, 0]) == -1.0

    def test_exhaustive_against_pair_enumeration(self):
        for n in range(2, 7):
            for perm in itertools.permutations(range(n)):
                concordant = sum(
                    1 for i, j in itertools.combinations(range(n), 2)
                    if perm[j] > perm[i]
                )
                discordant = n * (n - 1) // 2 - concordant
                expected = (concordant - discordant) / (n * (n - 1) / 2)
                assert kendall_tau(list(perm)) == pytest.approx(expected, abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1])


class TestRibes:
    def test_identical_sentences_score_one(self):
        hyps = [["a", "b", "c"], ["x", "y"]]
        assert ribes(hyps, [list(h) for h in hyps]) == pytest.approx(1.0, abs=1e-9)

    def test_fully_reversed_distinct_tokens_score_zero(self):
        ref = [["a", "b", "c", "d"]]
        hyp = [["d", "c", "b", "a"]]
        assert ribes(hyp, ref) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_alignment_scores_zero(self):
        assert sentence_ribes(["zzz", "qqq"], ["a", "b"]) == 0.0
        assert sentence_ribes(["a"], ["a", "b"]) == 0.0  # single aligned token
        assert sentence_ribes([], ["a", "b"]) == 0.0

    def test_precision_and_brevity_factors(self):
        # hyp has one stray token: alignment 2 of 3, |ref|=2 < |hyp|=3 so BP=1
        score = sentence_ribes(["a", "zzz", "b"], ["a", "b"])
        assert score == pytest.approx(1.0 * (2 / 3) ** 0.25, abs=1e-9)

    def test_brevity_applied_when_hyp_short(self):
        score = sentence_ribes(["a", "b"], ["a", "b", "c", "d"])
        assert score == pytest.approx(1.0 * math.exp(1 - 2) ** 0.10, abs=1e-9)

    def test_corpus_mean_permutation_invariant(self):
        hyps = [["a", "b"], ["c", "d"], ["e", "f", "g"]]
        refs = [["b", "a"], ["c", "d"], ["e", "g", "f"]]
        assert ribes(hyps, refs) == pytest.approx(ribes(hyps[::-1], refs[::-1]), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            ribes([["a"]], [])


class TestEvaluate:
    def test_identical_files(self, tmp_path):
        lines = ["एक बिल्ली चटाई पर", "कुत्ता दौड़ता है"]
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        for path in (hyp, ref):
            path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        report = evaluate_files(hyp, ref, "hi", "test", False)
        assert report.bleu == pytest.approx(100.0, abs=1e-9)
        assert report.ribes == pytest.approx(1.0, abs=1e-9)
        assert report.n_sentences == 2
        assert report.hyp_tokens == report.ref_tokens

    def test_line_count_mismatch_reports_both_counts(self):
        with pytest.raises(DataError, match="2.*3|3.*2"):
            evaluate_lines(["a", "b"], ["a", "b", "c"], "hi", "test", False)

    def test_report_rounding(self):
        report = MetricReport(lang="hi", split="test", bleu=53.4321, ribes=0.84211,
                              n_sentences=5, hyp_tokens=10, ref_tokens=11)
        d = report.to_dict()
        assert d["bleu"] == 53.4
        assert d["ribes"] == 0.842


class TestLeaderboard:
    def test_column_order_and_missing_cells(self):
        reports = [
            MetricReport("hi", "challenge", 53.4, 0.842, 10, 100, 100),
            MetricReport("ml", "test", 51.9, 0.78, 10, 100, 100),
        ]
        table = format_leaderboard(reports, "ours")
        lines = table.splitlines()
        header = lines[0]
        assert header.index("Hi-Ch") < header.index("Hi-Test") < header.index("Bn-Ch")
        assert header.index("Bn-Test") < header.index("Ml-Ch") < header.index("Ml-Test")
        row = lines[2]
        assert "53.4" in row and "0.842" in row and "51.9" in row
        assert row.count("-") == 8  # four empty cells x two metrics

    def test_identical_corpus_row(self, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("एक बिल्ली\n", encoding="utf-8")
        report = evaluate_files(hyp, hyp, "hi", "challenge", False)
        table = format_leaderboard([report], "ours")
        assert "100.0" in table and "1.000" in table


# ----------------------------------------------------------------------
# the scoring functions against plain reference implementations of the same
# rules: one loop per character, per n-gram order and per counter

def _reference_tokenize(text):
    text = unicodedata.normalize("NFC", text)
    text = text.translate({ord(c): ord(c) + 32 for c in string.ascii_uppercase})
    return "".join(f" {ch} " if ch in PUNCTUATION else ch for ch in text).split()


def _reference_ngram_counts(tokens, n):
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def _reference_bleu(hyps, refs, smooth):
    matches, totals = [0] * 5, [0] * 5
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, 5):
            hyp_counts = _reference_ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _reference_ngram_counts(ref, n)
            totals[n] += sum(hyp_counts.values())
            matches[n] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    orders = [n for n in range(1, 5) if totals[n] > 0]
    if not orders or hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for n in orders:
        p = matches[n] / totals[n]
        if p == 0.0:
            if not smooth:
                return 0.0
            p = 1e-9
        log_sum += math.log(p)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / len(orders))


def _reference_align_words(hyp, ref):
    hyp_counts, ref_counts = Counter(hyp), Counter(ref)
    ref_positions = {tok: i for i, tok in enumerate(ref)}
    ref_bigrams = Counter(zip(ref, ref[1:]))
    bigram_pos = {bg: i for i, bg in enumerate(zip(ref, ref[1:])) if ref_bigrams[bg] == 1}
    pairs, used = [], set()
    for i, tok in enumerate(hyp):
        candidates = []
        if hyp_counts[tok] == 1 and ref_counts[tok] == 1:
            candidates.append(ref_positions[tok])
        else:
            if i > 0 and (hyp[i - 1], tok) in bigram_pos:
                candidates.append(bigram_pos[(hyp[i - 1], tok)] + 1)
            if i + 1 < len(hyp) and (tok, hyp[i + 1]) in bigram_pos:
                candidates.append(bigram_pos[(tok, hyp[i + 1])])
        for j in candidates:
            if j not in used:
                pairs.append((i, j))
                used.add(j)
                break
    return pairs


# ASCII capitals, every punctuation mark, Devanagari with combining marks,
# a decomposed é and Unicode whitespace
_MIXED_PIECES = (list(string.ascii_uppercase) + sorted(PUNCTUATION)
                 + ["a", "z", "क", "\u093f", "\u094d", "\u0902", "\u093c", "नमस्ते",
                    "e\u0301", "E\u0301", "\u0301",
                    " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u2028", "\x1c"])
# three letters, so n-grams repeat inside a sentence and clipping matters
_SMALL_ALPHABET = st.lists(st.sampled_from("abc"), max_size=9)


class TestMatchesReferenceImplementations:
    @given(st.lists(st.sampled_from(_MIXED_PIECES), max_size=24).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_tokenize(self, text):
        assert tokenize(text) == _reference_tokenize(text)

    @given(st.lists(st.tuples(_SMALL_ALPHABET, _SMALL_ALPHABET), min_size=1, max_size=5),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bleu(self, pairs, smooth):
        hyps, refs = [h for h, _ in pairs], [r for _, r in pairs]
        assert bleu(hyps, refs, smooth=smooth) == _reference_bleu(hyps, refs, smooth)

    @given(st.lists(st.tuples(_SMALL_ALPHABET, _SMALL_ALPHABET), min_size=1, max_size=60),
           st.integers(0, 59), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_bleu_on_a_corpus(self, pairs, shift, smooth):
        # empty sentences on either side; with a shift, sentence i's reference
        # is sentence i+shift's, so most n-grams occur in another pair
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        refs = refs[shift % len(refs):] + refs[:shift % len(refs)]
        assert bleu(hyps, refs, smooth=smooth) == _reference_bleu(hyps, refs, smooth)

    def test_bleu_matches_no_n_gram_across_sentences(self):
        # each hypothesis n-gram occurs in the other pair's reference only
        hyps = [["a", "b", "c", "d"], ["e", "f", "g", "h"]]
        refs = [["e", "f", "g", "h"], ["a", "b", "c", "d"]]
        assert bleu(hyps, refs) == _reference_bleu(hyps, refs, False) == 0.0
        assert bleu(hyps, refs, smooth=True) == _reference_bleu(hyps, refs, True)

    def test_bleu_on_a_large_vocabulary(self):
        # 60 pairs over 20,400 token types: a key that spelled a 4-gram out
        # positionally, sentence * V**4 + ..., would pass 2**63
        width = 340
        hyps = [[f"w{k}" for k in range(width * s, width * (s + 1))] for s in range(60)]
        # each reference swaps a run of its hypothesis for the same run of the
        # next hypothesis, whose n-grams then occur in no reference of their own pair
        refs = [h[:100] + hyps[(s + 1) % 60][100:150] + h[150:] for s, h in enumerate(hyps)]
        vocab = {tok for sent in hyps + refs for tok in sent}
        assert len(vocab) ** 4 * len(hyps) > 2 ** 63
        for smooth in (False, True):
            score = bleu(hyps, refs, smooth=smooth)
            assert score == _reference_bleu(hyps, refs, smooth)
            assert 0.0 < score < 100.0

    @given(_SMALL_ALPHABET, _SMALL_ALPHABET)
    @settings(max_examples=200, deadline=None)
    def test_align_words_and_sentence_ribes(self, hyp, ref):
        expected = _reference_align_words(hyp, ref)
        assert align_words(hyp, ref) == expected
        if len(expected) >= 2:
            ranks = [j for _, j in expected]
            expected_score = ((kendall_tau(ranks) + 1.0) / 2.0 * (len(expected) / len(hyp)) ** 0.25
                              * min(1.0, math.exp(1.0 - len(ref) / len(hyp))) ** 0.10)
        else:
            expected_score = 0.0
        assert sentence_ribes(hyp, ref) == expected_score
