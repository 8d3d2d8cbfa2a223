#!/usr/bin/env python3
"""Write the pinned digests tests/data/decode_digest.txt and turn_digest.txt.

The decode digest has one line per sentence: its id, the decoded path as
word:label pairs and ``repr(log_prob)``, tab-separated.  The turn digest
has one line per sentence too: its id, whether the turn was accepted or
rejected, the template's ``render()`` and the answer's ``render_lines()``
(as a Python list) or the planning error, tab-separated; a sentence the
lexer refuses reads ``error: <message>`` in either.  The model is the
demo model (the demo
and seed golds over the lexicon's full vocabulary, k = 0.001).  The
sentences are the 62 distinct texts of the demo and semi corpora, under
the id of their first entry, then 40 sentences j01..j40 joined from 3-15
of those texts with a fixed seed, some with AND between them and some
with an out-of-lexicon word.  These reach lengths the brute-force oracle
cannot (it stops at 6 concepts and 8 positions), so the test that reads
the files pin every later decoder rewrite bit for bit to this one, and
every rewrite of the lexer, template, planner or database to the answers
they give.

Regenerate only when the decoder's or a turn's output is meant to change:
run from the repository root, python tools/decode_digest.py
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronus.decoder import viterbi_decode_lattice
from chronus.errors import ChronusError
from chronus.lexicon import lex_parse
from chronus.model import count_events, full_vocabulary, train_mle
from chronus.pipeline import Artifacts, data_path, run_turn
from chronus.training import FeedbackCorpus

DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
DIGEST = os.path.join(DATA, "decode_digest.txt")
TURN_DIGEST = os.path.join(DATA, "turn_digest.txt")
SEED = 2718
JOINED = 40
JOINS = range(3, 16)     # corpus texts per joined sentence
JOIN_AND = 0.3           # share of joints that say AND
ODD_WORD = 0.1           # share of joined sentences with an unknown word


def demo_model(artifacts):
    golds = []
    for name in ("demo_corpus.txt", "seed_corpus.txt"):
        golds += FeedbackCorpus.load(data_path(name)).seed_segmentations()
    vocab = full_vocabulary(artifacts.lexicon, golds)
    return train_mle(count_events(golds, artifacts.dictionary, vocab), 0.001)


def sentences():
    """(id, text) pairs: the distinct corpus texts, then the joined ones."""
    first = {}
    for name in ("demo_corpus.txt", "semi_corpus.txt"):
        for entry in FeedbackCorpus.load(data_path(name)).entries:
            first.setdefault(entry.text, entry.ident)
    texts = sorted(first)
    pairs = [(first[t], t) for t in texts]
    rng = random.Random(SEED)
    for n in range(1, JOINED + 1):
        words = [rng.choice(texts)]
        for _ in range(rng.choice(JOINS) - 1):
            if rng.random() < JOIN_AND:
                words.append("AND")
            words.append(rng.choice(texts))
        words = " ".join(words).split()
        if rng.random() < ODD_WORD:
            odd = "".join(rng.choice("QXZJV") for _ in range(6))
            words.insert(rng.randrange(len(words) + 1), odd)
        pairs.append((f"j{n:02d}", " ".join(words)))
    return pairs


def digest_lines(model, artifacts):
    lines = []
    for ident, text in sentences():
        try:
            result = viterbi_decode_lattice(model,
                                            lex_parse(text, artifacts.lexicon))
        except ChronusError as exc:
            lines.append(f"{ident}\terror: {exc}")
            continue
        path = " ".join(f"{w.render()}:{c}"
                        for w, c in zip(result.words, result.labels))
        lines.append(f"{ident}\t{path}\t{result.log_prob!r}")
    return lines


def turn_digest_lines(model, artifacts):
    lines = []
    for ident, text in sentences():
        try:
            turn = run_turn(text, model, artifacts)
        except ChronusError as exc:
            lines.append(f"{ident}\terror: {exc}")
            continue
        if turn.rejected:
            outcome = "-"
        elif turn.error is not None:
            outcome = f"error: {turn.error}"
        else:
            outcome = repr(turn.answer.render_lines())
        lines.append(f"{ident}\t{'rejected' if turn.rejected else 'accepted'}"
                     f"\t{turn.template.render()}\t{outcome}")
    return lines


def main():
    artifacts = Artifacts.load_bundled()
    model = demo_model(artifacts)
    for path, lines in ((DIGEST, digest_lines(model, artifacts)),
                        (TURN_DIGEST, turn_digest_lines(model, artifacts))):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"{len(lines)} sentences -> {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
