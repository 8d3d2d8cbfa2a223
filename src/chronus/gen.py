"""Synthetic corpus and model generators behind ``chronus gen``.

Everything here is seed-deterministic: the same random.Random seed yields
byte-identical corpora, so generated fixtures behave like golden files.
"""

from __future__ import annotations

import random

from .concepts import AND, DUMMY, Concept, ConceptDictionary
from .errors import ChronusError
from .lexicon import Superword
from .model import (BEGIN, FINAL, ConceptHmm, SegmentedSentence,
                    canonical_row, round12)


# ---------------------------------------------------------------------------
# Sampling from a model

def sample_from(row, rng: random.Random):
    """Draw a key from a {key: prob} row (renormalized cumulative draw)."""
    items = sorted(row.items())
    total = sum(p for _, p in items)
    x = rng.random() * total
    acc = 0.0
    for key, p in items:
        acc += p
        if x < acc:
            return key
    return items[-1][0]


def sample_sentence(model: ConceptHmm, rng: random.Random,
                    max_len: int = 24) -> SegmentedSentence:
    """Sample one labeled sentence from the generative model."""
    start_row = {c: p for c, p in model.initial.items() if c != FINAL}
    if not start_row:
        raise ChronusError("model cannot start any sentence")
    words, labels = [], []
    concept = sample_from(start_row, rng)
    ctx = BEGIN
    while True:
        row = model.bigram_row(concept, ctx)
        if not row.total():
            raise ChronusError(f"concept {concept!r} has no word to emit "
                               f"after context {ctx!r}")
        word = sample_from(row, rng)
        words.append(Superword(word))
        labels.append(concept)
        if len(words) >= max_len:
            break
        nxt = sample_from(model.transition[concept], rng)
        if nxt == FINAL:
            break
        ctx = word if nxt == concept else BEGIN
        concept = nxt
    return SegmentedSentence(tuple(words), tuple(labels))


# ---------------------------------------------------------------------------
# Known-model recovery (held-out labeling accuracy)

def synthetic_dictionary(names):
    """Restriction concepts ``names`` of rank 2, then ``dummy`` and ``and``."""
    concepts = [Concept(n, "restriction", rank=2) for n in names]
    concepts.append(Concept(DUMMY, "special"))
    concepts.append(Concept(AND, "special"))
    return ConceptDictionary(concepts)


RECOVERY_CONCEPTS = 5
RECOVERY_WORDS = 30
RECOVERY_K = 0.001


def make_recovery_model() -> ConceptHmm:
    """A 5-concept, 30-word reference model with overlapping vocabularies.

    All concepts share the full vocabulary; they differ in which start
    words they prefer and in a concept-specific successor permutation, so
    word order carries most of the label information.
    """
    names = [f"c{i}" for i in range(RECOVERY_CONCEPTS)]
    dictionary = synthetic_dictionary(names)
    vocab = [f"w{i:02d}" for i in range(RECOVERY_WORDS)]

    trans_cols = dict.fromkeys(dictionary.names + [FINAL])
    vocab_cols = dict.fromkeys(vocab)
    initial = canonical_row({c: round12(1.0 / RECOVERY_CONCEPTS) for c in names},
                            0.0, trans_cols)
    transition = {}
    for c in names:
        row = {d: round12(0.15 / (RECOVERY_CONCEPTS - 1))
               for d in names if d != c}
        row[c] = round12(0.80)
        row[FINAL] = round12(0.05)
        transition[c] = canonical_row(row, 0.0, trans_cols)

    per = RECOVERY_WORDS // RECOVERY_CONCEPTS
    bigram = {}
    for i, c in enumerate(names):
        preferred = {w: round12(0.8 / per) for w in vocab[i * per:(i + 1) * per]}
        table = {BEGIN: canonical_row(
            preferred, round12(0.2 / (RECOVERY_WORDS - per)), vocab_cols)}
        for j, w in enumerate(vocab):
            succ = vocab[(j + 7 * i + 1) % RECOVERY_WORDS]
            table[w] = canonical_row({succ: round12(0.95)}, round12(
                0.05 / (RECOVERY_WORDS - 1)), vocab_cols)
        bigram[c] = table
    return ConceptHmm(dictionary, vocab, RECOVERY_K, initial, transition,
                      bigram)


# ---------------------------------------------------------------------------
# Superword effect corpus

_GEN_CITIES = {
    ("BOSTON",): "BBOS", ("DALLAS",): "DDFW", ("DENVER",): "DDEN",
    ("ATLANTA",): "MATL", ("OAKLAND",): "OOAK", ("PHILADELPHIA",): "PPHL",
    ("PITTSBURGH",): "PPIT", ("SAN", "FRANCISCO"): "SSFO",
    ("NEW", "YORK"): "NNYC", ("WASHINGTON", "D", "C"): "WWAS",
}

_GEN_NUMBERS = [("TWENTY", "ONE"), ("THIRTY", "SEVEN"), ("ONE", "HUNDRED"),
                ("FORTY",), ("NINETEEN",), ("SIXTY", "FIVE")]


def superword_effect_corpus(rng: random.Random, n: int, cities=None):
    """Labeled sentences with multiword city and numeral spans.

    Returns (raw_corpus, fused_corpus, span_maps): the same sentences with
    phrase spans either left as plain words or fused into one superword,
    plus, per sentence, the fused-index -> raw-span-length map needed to
    project fused labels back onto raw words.  ``cities`` restricts the
    city inventory (a list of word tuples), e.g. to hold some names out
    of a training split.
    """
    raw_corpus, fused_corpus, span_maps = [], [], []
    cities = sorted(_GEN_CITIES) if cities is None else sorted(cities)
    for _ in range(n):
        raw, fused, spans = [], [], []

        def plain(word, concept):
            raw.append((word, concept))
            fused.append((Superword(word), concept))
            spans.append(1)

        def phrase(words, sym, value, concept):
            for w in words:
                raw.append((w, concept))
            fused.append((Superword(sym, value), concept))
            spans.append(len(words))

        for w in ("SHOW", "ME"):
            plain(w, DUMMY)
        if rng.random() < 0.5:
            plain("FLIGHTS", "subject")
        plain("FROM", "origin")
        c1 = rng.choice(cities)
        phrase(c1, "((city))", "".join(c1), "origin")
        plain("TO", "destin")
        c2 = rng.choice(cities)
        phrase(c2, "((city))", "".join(c2), "destin")
        if rng.random() < 0.6:
            plain("FLIGHT", "fltnum")
            plain("NUMBER", "fltnum")
            num = rng.choice(_GEN_NUMBERS)
            phrase(num, "((number))", "".join(num), "fltnum")
        raw_corpus.append(SegmentedSentence(
            tuple(Superword(w) for w, _ in raw), tuple(c for _, c in raw)))
        fused_corpus.append(SegmentedSentence(
            tuple(w for w, _ in fused), tuple(c for _, c in fused)))
        span_maps.append(tuple(spans))
    return raw_corpus, fused_corpus, span_maps


# ---------------------------------------------------------------------------
# Alignment corpus

def alignment_corpus(model: ConceptHmm, rng: random.Random, n: int,
                     max_len: int = 8):
    """(sentence, shuffled win keywords, gold segmentation) triples.

    Win keywords are the keywords of the gold labeling's segments, in
    randomized order.  Sentences where a keyword occurs in more than one
    segment are skipped: with duplicate keywords the split between the
    repeats is not recoverable from the keyword multiset, so such
    instances have no unique gold alignment.
    """
    out = []
    while len(out) < n:
        sent = sample_sentence(model, rng, max_len=max_len)
        win = model.dictionary.keywords(sent.labels)
        if not win or len(set(win)) != len(win):
            continue
        rng.shuffle(win)
        out.append((sent.words, win, sent))
    return out
