#!/usr/bin/env python3
"""Write the three pinned digests under tests/data, tab-separated lines.

``decode_digest.txt`` has one line per sentence: its id, the decoded path
as word:label pairs and ``repr(log_prob)``.  ``turn_digest.txt`` has one
too: the id, ``accepted`` or ``rejected``, the template's ``render()`` and
the answer's ``render_lines()`` (as a Python list) or the planning error.
A sentence the lexer refuses reads ``error: <message>`` in either.  Both
use the demo model, which ``chronus train --corpus demo_corpus.txt
--corpus seed_corpus.txt`` writes, read back with ``load_model``.  The
sentences are the 62 distinct texts of the demo and semi corpora, under
the id of their first entry, then 40 sentences j01..j40 joined from 3-15
of those texts with a fixed seed, some with AND between them and some with
an out-of-lexicon word.  These reach lengths the brute-force oracle cannot
(it stops at 6 concepts and 8 positions), so the tests pin every later
rewrite of the decoder, lexer, template, planner or database bit for bit.

``cycle_digest.txt`` pins the training cycle, one line per result:

* ``train``, the corpora, ``plain`` or ``synonyms``, and the SHA-256 of the
  model ``chronus train`` writes from the demo corpus, the seed corpus and
  both, without and with ``--synonyms synonyms.txt``;
* ``loop`` and each line of the report of ``chronus loop --corpus
  semi_corpus.txt`` (iterations with snapshot ids, then how it ended),
  then ``loop-out`` and the SHA-256 of its ``--out`` model;
* ``align``, an instance number and the labels ``align_win`` returns (or
  ``infeasible``) for instances ``gen.alignment_corpus`` draws from the
  recovery model with a fixed seed: 100 of at most 8 words, 20 of 14;
* the same report and ``-out`` lines under ``loop-model`` for ``loop
  --model`` on the semi corpus, from the model ``train --synonyms`` writes
  from the demo and seed corpora (the train-cycle benchmark's set-up, where
  one decode of the second iteration changes); under ``loop-demo`` for
  ``loop --corpus demo_corpus.txt``; and under ``loop-k`` for the semi
  corpus with ``--k 0.1``, so the start model is pinned at another ``k``.

So every rewrite of training, synonym smoothing, the model's text and
reader, the feedback loop and constrained alignment is pinned bit for bit.

Regenerate only when a decode, a turn, a trained model or an alignment is
meant to change: run from the repository root, python tools/digests.py
"""

import hashlib
import io
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronus import cli
from chronus.decoder import viterbi_decode_lattice
from chronus.errors import ChronusError
from chronus.gen import alignment_corpus, make_recovery_model
from chronus.lexicon import lex_parse
from chronus.model import load_model
from chronus.pipeline import Artifacts, data_path, run_turn
from chronus.training import (AlignmentInfeasibleError, FeedbackCorpus,
                              align_win)

DATA = os.path.join(os.path.dirname(__file__), "..", "tests", "data")
SEED = 2718
JOINED = 40
JOINS = range(3, 16)     # corpus texts per joined sentence
JOIN_AND = 0.3           # share of joints that say AND
ODD_WORD = 0.1           # share of joined sentences with an unknown word
CORPORA = (("demo",), ("seed",), ("demo", "seed"))
ALIGNMENTS = ((100, 8), (20, 14))   # (instances, most words)
SYNONYMS = ("--synonyms", str(data_path("synonyms.txt")))


def _corpora(names):
    return [arg for name in names
            for arg in ("--corpus", str(data_path(f"{name}_corpus.txt")))]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv):
    out = io.StringIO()
    code = cli.main(argv, out)
    if code != 0:
        raise RuntimeError(f"chronus {argv[0]} exited with {code}")
    return out.getvalue()


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


def _train_lines(workdir):
    lines = []
    path = os.path.join(workdir, "model.txt")
    for corpora in CORPORA:
        for smoothing, options in (("plain", ()), ("synonyms", SYNONYMS)):
            _run(["train", "--out", path, *_corpora(corpora), *options])
            lines.append(f"train\t{'+'.join(corpora)}\t{smoothing}"
                         f"\t{_sha256(path)}")
    return lines


def _loop_lines(workdir, tag="loop", corpus="semi", options=()):
    path = os.path.join(workdir, "loop-model.txt")
    report = _run(["loop", *_corpora([corpus]), "--out", path, *options])
    return ([f"{tag}\t{line}" for line in report.splitlines()]
            + [f"{tag}-out\t{_sha256(path)}"])


def _loop_from_model_lines(workdir):
    path = os.path.join(workdir, "start-model.txt")
    _run(["train", "--out", path, *SYNONYMS, *_corpora(["demo", "seed"])])
    return _loop_lines(workdir, "loop-model", options=("--model", path))


def _align_lines():
    model = make_recovery_model()
    rng = random.Random(SEED)
    lines = []
    for n, max_len in ALIGNMENTS:
        for words, win, _gold in alignment_corpus(model, rng, n, max_len):
            try:
                labels = " ".join(align_win(words, win, model).labels)
            except AlignmentInfeasibleError:
                labels = "infeasible"
            lines.append(f"align\t{len(lines) + 1}\t{labels}")
    return lines


def cycle_digest_lines():
    with tempfile.TemporaryDirectory() as workdir:
        return (_train_lines(workdir) + _loop_lines(workdir) + _align_lines()
                + _loop_from_model_lines(workdir)
                + _loop_lines(workdir, "loop-demo", "demo")
                + _loop_lines(workdir, "loop-k", options=("--k", "0.1")))


def main():
    artifacts = Artifacts.load_bundled()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "demo-model.txt")
        _run(["train", "--out", path, *_corpora(["demo", "seed"])])
        model = load_model(path)
    for name, lines in (("decode_digest.txt", digest_lines(model, artifacts)),
                        ("turn_digest.txt", turn_digest_lines(model, artifacts)),
                        ("cycle_digest.txt", cycle_digest_lines())):
        path = os.path.join(DATA, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"{len(lines)} lines -> {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
