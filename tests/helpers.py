"""Shared helpers for the test suite: fixtures' builders, random
instances for the oracle checks and the baselines of the acceptance
criteria."""

import random
from collections import Counter
from pathlib import Path

from chronus.concepts import Concept, ConceptDictionary
from chronus.gen import synthetic_dictionary
from chronus.lexicon import Arc, Lattice, Superword
from chronus.model import (ConceptHmm, SegmentedSentence, _smooth_row,
                           canonical_row, count_events, full_vocabulary,
                           round12, train_mle)
from chronus.template import Template, TemplateToken

TESTS_DATA = Path(__file__).parent / "data"


def make_sentence(word_syms, labels) -> SegmentedSentence:
    """A segmented sentence from plain symbol strings."""
    return SegmentedSentence(tuple(Superword(s) for s in word_syms), tuple(labels))


def count_full(sentences, artifacts):
    """The counts of ``sentences`` over the lexicon's full vocabulary."""
    vocab = full_vocabulary(artifacts.lexicon, sentences)
    return count_events(sentences, artifacts.dictionary, vocab)


def train_full(sentences, artifacts, k=0.001):
    return train_mle(count_full(sentences, artifacts), k)


def assert_rows_normalized(model, tol=1e-9):
    for name, row in model.rows():
        total = sum(row.values())
        assert abs(total - 1.0) <= tol, f"row {name} sums to {total!r}"


def counted(model, concept, ctx, sym):
    """Whether the add-k model (k > 0) was estimated from a count of
    ``sym`` after ``ctx`` in ``concept``: every column that had count 0
    shares the smallest value of the row, and a counted column has more.
    Holds for a row with a column of count 0."""
    row = model.bigram_row(concept, ctx)
    return row.prob(sym) > min(row.prob(w) for w in model.vocab)


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
    dictionary = synthetic_dictionary([f"c{i}" for i in range(n_concepts)])
    trans_cols = dict.fromkeys(dictionary.names + ["</s>"])
    vocab_cols = dict.fromkeys(vocab)

    def uniform(support, columns):
        return canonical_row(dict.fromkeys(support, round12(1 / len(support))),
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


# ---------------------------------------------------------------------------
# Random instances for decoder oracle checks

def random_trained_model(rng: random.Random, n_concepts=3, n_words=6,
                         k=0.001, n_sentences=5) -> ConceptHmm:
    """Train a model from a small random corpus (sparse when k=0)."""
    corpus = random_corpus(rng, n_concepts, n_words, n_sentences)
    return train_mle(count_events(*corpus), k)


def random_corpus(rng: random.Random, n_concepts=3, n_words=6,
                  n_sentences=5):
    """(sentences, dictionary, vocabulary) of the small random corpus that
    ``random_trained_model`` trains on."""
    names = [f"c{i}" for i in range(n_concepts)]
    dictionary = synthetic_dictionary(names)
    vocab = [f"w{i}" for i in range(n_words)]
    corpus = []
    for _ in range(n_sentences):
        length = rng.randint(1, 6)
        words = tuple(Superword(rng.choice(vocab)) for _ in range(length))
        labels = tuple(rng.choice(dictionary.names) for _ in range(length))
        corpus.append(SegmentedSentence(words, labels))
    return corpus, dictionary, vocab


def random_lattice(rng: random.Random, model: ConceptHmm,
                   max_positions=5) -> Lattice:
    """A small random lattice over the model's vocabulary.

    A spine of unit arcs guarantees completeness; extra longer arcs add
    path ambiguity.
    """
    n = rng.randint(1, max_positions)
    vocab = list(model.vocab)
    arcs = []
    seen = set()

    def add(start, end, sym):
        key = (start, end, sym)
        if key not in seen:
            seen.add(key)
            arcs.append(Arc(start, end, sym))

    for i in range(n):
        add(i, i + 1, rng.choice(vocab))
    for _ in range(rng.randint(0, 4)):
        start = rng.randrange(n)
        end = rng.randint(start + 1, n)
        add(start, end, rng.choice(vocab))
    return Lattice(n, arcs)


# ---------------------------------------------------------------------------
# Baselines and fixtures of the acceptance criteria

def unigram_baseline(corpus, dictionary, vocabulary, k: float) -> ConceptHmm:
    """Context-free emission baseline: the same trained transition
    structure, but every bigram context row is the concept's unigram
    word distribution."""
    model = train_mle(count_events(corpus, dictionary, vocabulary), k)
    unigram_counts = {}
    for sent in corpus:
        for word, label in zip(sent.words, sent.labels):
            row = unigram_counts.setdefault(label, Counter())
            row[word.sym] += 1
    bigram = {}
    for c in dictionary.names:
        row = _smooth_row(unigram_counts.get(c, Counter()),
                          dict.fromkeys(model.vocab), k)
        bigram[c] = {} if row is None else dict.fromkeys(
            ("<s>",) + model.vocab, row)
    return ConceptHmm(dictionary, model.vocab, k, model.initial,
                      model.transition, bigram)


def superword_dictionary() -> ConceptDictionary:
    return ConceptDictionary([
        Concept("subject", "subject", rank=1),
        Concept("origin", "restriction", rank=0),
        Concept("destin", "restriction", rank=0),
        Concept("fltnum", "restriction", rank=2),
        Concept("dummy", "special"),
        Concept("and", "special"),
    ])


def template_by_definition(segmentation, tables, dictionary) -> Template:
    """``generate_template`` as defined, pattern-major: for each segment,
    every pattern of its concept's list in ``tables`` (concept -> patterns,
    in file order), and for each pattern every offset; the first match
    gives the token."""
    template = Template()
    for label, start, end in segmentation.segments():
        keyword = dictionary[label].keyword
        if keyword is None:
            continue
        words = segmentation.words[start:end]
        found = next((v for p in tables.get(keyword, ())
                      for i in range(len(words))
                      if (v := p.matches_at(words, i)) is not None), None)
        if found is None:
            template.unmatched += 1
        else:
            template.tokens.append(TemplateToken(keyword, found))
    return template


def expand_labels(fused_labels, span_map):
    """Project fused-token labels back onto the raw word positions."""
    out = []
    for label, width in zip(fused_labels, span_map):
        out.extend([label] * width)
    return tuple(out)
