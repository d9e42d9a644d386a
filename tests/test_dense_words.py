"""The committed dense words: Markov-moved corpus braids on 4 and 5
strings that reduce_closure cannot shorten, each checked against its
corpus record, which does not come from the state model."""

from pathlib import Path

import pytest

from linksgould.braid import parse, reduce_closure
from linksgould.engine import evaluate_raw
from linksgould.invariant import from_compact, q_inverted, to_invariant
from linksgould.knotdata import load_corpus

CORPUS = {e.name: e for e in load_corpus()}
DENSE_WORDS = Path(__file__).resolve().parent / "data" / "dense_words.txt"
LINES = [
    line.split(None, 1)
    for line in DENSE_WORDS.read_text().splitlines()
    if line.strip() and not line.startswith("#")
]


def test_the_file_holds_six_words_on_four_or_five_strings():
    assert len(LINES) == 6
    assert {parse(word).n_strings for _, word in LINES} == {4, 5}


@pytest.mark.parametrize("name, word", LINES, ids=[name for name, _ in LINES])
def test_a_dense_word_gives_its_corpus_value(name, word):
    base = name.removesuffix(".mirror")
    braid = parse(word)
    reduced = reduce_closure(braid)  # it may slide letters, but drops none
    assert reduced.expanded_length() == braid.expanded_length()
    assert reduced.n_strings == braid.n_strings
    expected = from_compact(CORPUS[base].compact)
    if name != base:
        expected = q_inverted(expected)
    assert to_invariant(evaluate_raw(braid)) == expected
