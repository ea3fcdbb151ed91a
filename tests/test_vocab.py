import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinymmt.errors import VocabularyError
from tinymmt.model.vocab import BOS, EOS, HUM, IMG, N_SPECIALS, PAD, SYS, Vocabulary


def test_special_ids_are_dense_and_low():
    assert (PAD, BOS, EOS, IMG, HUM, SYS) == (0, 1, 2, 3, 4, 5)
    assert N_SPECIALS == 6


def test_harvest_is_sorted_and_deterministic():
    a = Vocabulary.from_texts(["ba", "c"])
    b = Vocabulary.from_texts(["cab"])
    assert a.symbols == b.symbols == ["a", "b", "c"]
    assert len(a) == 6 + 3


def test_round_trip_identity():
    vocab = Vocabulary.from_texts(["नमस्ते दुनिया hello"])
    text = "नमस्ते hello"
    assert vocab.decode(vocab.encode(text)) == text


def test_encoding_never_emits_specials():
    vocab = Vocabulary.from_texts(["abc"])
    ids = vocab.encode("abcabc")
    assert (ids >= N_SPECIALS).all()


def test_oov_error_lists_missing_characters():
    vocab = Vocabulary.from_texts(["abc"])
    with pytest.raises(VocabularyError) as excinfo:
        vocab.encode("axbyz")
    message = str(excinfo.value)
    for ch in ("'x'", "'y'", "'z'"):
        assert ch in message
    assert "'a'" not in message


def test_decode_drops_specials():
    vocab = Vocabulary.from_texts(["ab"])
    assert vocab.decode([EOS]) == ""
    assert vocab.decode([BOS, 6, EOS, IMG, 7, SYS]) == "ab"


def test_decode_range_check():
    vocab = Vocabulary.from_texts(["ab"])
    with pytest.raises(VocabularyError, match="out of range"):
        vocab.decode([99])


def test_serialization_round_trip():
    vocab = Vocabulary.from_texts(["xyz"])
    again = Vocabulary.from_dict(vocab.to_dict())
    assert again.symbols == vocab.symbols


ALPHABET = sorted(set("abc हिन्दी xyz .,!"))


@given(st.text(alphabet=ALPHABET, max_size=40))
@settings(max_examples=100, deadline=None)
def test_round_trip_property(text):
    vocab = Vocabulary.from_texts(["".join(ALPHABET)])
    assert vocab.decode(vocab.encode(text)) == text
