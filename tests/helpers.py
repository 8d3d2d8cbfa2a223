"""Shared helpers for the test suite."""

from pathlib import Path

from chronus.model import full_vocabulary, train_mle

TESTS_DATA = Path(__file__).parent / "data"


def train_full(sentences, artifacts, k=0.001):
    vocab = full_vocabulary(artifacts.lexicon, sentences)
    return train_mle(sentences, artifacts.dictionary, vocab, k)


def assert_rows_normalized(model, tol=1e-9):
    for name, row in model.rows():
        total = sum(row.values())
        assert abs(total - 1.0) <= tol, f"row {name} sums to {total!r}"


def per_word_accuracy(pairs):
    """Fraction of matching labels over (gold_labels, hyp_labels) pairs."""
    hit = total = 0
    for gold, hyp in pairs:
        assert len(gold) == len(hyp)
        hit += sum(1 for g, h in zip(gold, hyp) if g == h)
        total += len(gold)
    return 100.0 * hit / total
