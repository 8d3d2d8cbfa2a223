#!/usr/bin/env python3
"""Write the pinned digest tests/data/cycle_digest.txt of the training cycle.

One tab-separated line per result, in this order:

* ``train``, the corpora and ``plain`` or ``synonyms``, and the SHA-256 of
  the model text ``chronus train`` writes from the bundled demo corpus,
  the seed corpus and both, without and with ``--synonyms synonyms.txt``;
* ``loop`` and one line of the report ``chronus loop --corpus
  semi_corpus.txt`` prints (its iterations with their snapshot ids, then
  how it terminated), then ``loop-out`` and the SHA-256 of its ``--out``
  model;
* ``align``, an instance number and the labels ``align_win`` returns (or
  ``infeasible``) for alignment instances drawn by ``gen.alignment_corpus``
  from the recovery model with a fixed seed: 100 of at most 8 words, then
  20 of at most 14;
* ``loop-model`` and the report of ``chronus loop --model`` on the semi
  corpus, starting from the model ``train`` writes from the demo and seed
  corpora with ``--synonyms`` (the train-cycle benchmark's set-up, where
  one decode of the second iteration changes), then ``loop-model-out`` and
  the SHA-256 of its ``--out`` model;
* ``loop-demo`` and the report of ``chronus loop --corpus demo_corpus.txt``
  (50 feedback sentences), then ``loop-demo-out`` and the SHA-256 of its
  ``--out`` model;
* ``loop-k`` and the report of ``chronus loop --corpus semi_corpus.txt
  --k 0.1``, then ``loop-k-out`` and the SHA-256 of its ``--out`` model,
  so the loop's start model is pinned at a ``k`` other than the default.

So the test that reads the file pins every rewrite of training, synonym
smoothing, the model's text and reader, the feedback loop and constrained
alignment to the models and labels this one gives, bit for bit.

Regenerate only when a trained model or an alignment is meant to change:
run from the repository root, python tools/cycle_digest.py
"""

import hashlib
import io
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronus import cli
from chronus.gen import alignment_corpus, make_recovery_model
from chronus.pipeline import data_path
from chronus.training import AlignmentInfeasibleError, align_win

DIGEST = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                      "cycle_digest.txt")
SEED = 2718
CORPORA = (("demo",), ("seed",), ("demo", "seed"))
ALIGNMENTS = ((100, 8), (20, 14))   # (instances, most words)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv):
    out = io.StringIO()
    code = cli.main(argv, out)
    if code != 0:
        raise RuntimeError(f"chronus {argv[0]} exited with {code}")
    return out.getvalue()


def train_lines(workdir):
    lines = []
    path = os.path.join(workdir, "model.txt")
    for corpora in CORPORA:
        argv = ["train", "--out", path]
        for name in corpora:
            argv += ["--corpus", str(data_path(f"{name}_corpus.txt"))]
        for smoothing in ("plain", "synonyms"):
            if smoothing == "synonyms":
                argv += ["--synonyms", str(data_path("synonyms.txt"))]
            _run(argv)
            lines.append(f"train\t{'+'.join(corpora)}\t{smoothing}"
                         f"\t{_sha256(path)}")
    return lines


def loop_lines(workdir, tag="loop", corpus="semi", options=()):
    path = os.path.join(workdir, "loop-model.txt")
    report = _run(["loop", "--corpus", str(data_path(f"{corpus}_corpus.txt")),
                   "--out", path, *options])
    return ([f"{tag}\t{line}" for line in report.splitlines()]
            + [f"{tag}-out\t{_sha256(path)}"])


def loop_from_model_lines(workdir):
    path = os.path.join(workdir, "start-model.txt")
    argv = ["train", "--out", path, "--synonyms", str(data_path("synonyms.txt"))]
    for name in ("demo", "seed"):
        argv += ["--corpus", str(data_path(f"{name}_corpus.txt"))]
    _run(argv)
    return loop_lines(workdir, "loop-model", options=("--model", path))


def align_lines():
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


def digest_lines():
    with tempfile.TemporaryDirectory() as workdir:
        return (train_lines(workdir) + loop_lines(workdir) + align_lines()
                + loop_from_model_lines(workdir)
                + loop_lines(workdir, "loop-demo", "demo")
                + loop_lines(workdir, "loop-k", options=("--k", "0.1")))


def main():
    lines = digest_lines()
    with open(DIGEST, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} lines -> {os.path.normpath(DIGEST)}")


if __name__ == "__main__":
    main()
