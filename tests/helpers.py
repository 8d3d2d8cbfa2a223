"""Shared helpers for the test suite."""

from pathlib import Path

from chronus.concepts import Concept, ConceptDictionary
from chronus.gen import random_trained_model
from chronus.model import (ConceptHmm, _round12, canonical_row,
                           full_vocabulary, train_mle)

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


def uniform_rows_model(n_concepts, vocab, initial, transition, bigram):
    """Concepts c0.. (plus the two specials) whose rows are uniform over
    the columns given: ``initial`` and ``transition[row]`` list concepts
    or "</s>", ``bigram[concept][context]`` lists words."""
    names = [f"c{i}" for i in range(n_concepts)]
    dictionary = ConceptDictionary(
        [Concept(c, "restriction", rank=2) for c in names]
        + [Concept("dummy", "special"), Concept("and", "special")])
    trans_cols = dict.fromkeys(dictionary.names + ["</s>"])
    vocab_cols = dict.fromkeys(vocab)

    def uniform(support, columns):
        return canonical_row(dict.fromkeys(support, _round12(1 / len(support))),
                             0.0, columns)

    return ConceptHmm(
        dictionary, vocab, 0.0, uniform(initial, trans_cols),
        {r: uniform(cols, trans_cols) for r, cols in transition.items()},
        {c: {ctx: uniform(cols, vocab_cols) for ctx, cols in table.items()}
         for c, table in bigram.items()})


def tie_heavy_model(rng):
    """k = 0 on one or two words, or uniform rows: every transition row is
    uniform over the same number of targets and every bigram row over the
    whole vocabulary, so all possible labelings of a path tie exactly."""
    n_concepts = rng.randint(1, 3)
    vocab = [f"w{i}" for i in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        return random_trained_model(rng, n_concepts, len(vocab), k=0.0,
                                    n_sentences=rng.randint(1, 4))
    names = [f"c{i}" for i in range(n_concepts)]
    targets = names + ["dummy", "</s>"]   # dummy: a dead end, no bigrams
    width = rng.randint(1, len(targets))
    return uniform_rows_model(
        n_concepts, vocab, rng.sample(names, rng.randint(1, n_concepts)),
        {c: rng.sample(targets, width) for c in names},
        {c: dict.fromkeys(["<s>", *vocab], vocab) for c in names})
