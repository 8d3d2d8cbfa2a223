#!/usr/bin/env python3
"""Refresh the reference answers of the bundled corpora (demo/seed/semi).

The corpus files are the one copy of every sentence and gold segmentation.
For each entry with references, this tool executes its gold's template on
the bundled database and writes the answer back as both refmin and refmax;
nothing else changes.  Run from the repository root: python tools/build_corpora.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronus.model import SegmentedSentence
from chronus.pipeline import Artifacts, answer
from chronus.query import Answer
from chronus.template import generate_template
from chronus.training import FeedbackCorpus

# the files are rewritten here, never in an installed package
DATA = os.path.join(os.path.dirname(__file__), "..", "src", "chronus", "data")
CORPORA = ("demo_corpus.txt", "seed_corpus.txt", "semi_corpus.txt")

# Golds the semi corpus leaves out, so that the training loop sees these
# sentences as answer feedback.  None marks a sentence with no gold, which
# the system can never answer: its references are empty rows.
FEEDBACK_GOLDS = {
    "m08": "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin IN:depart-time MORNING:depart-time",
    "m09": "LIST:question FLIGHT(S):subject FROM:origin ((city)SANFRANCISCO):origin IN:depart-time MORNING:depart-time",
    "m10": "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)WASHINGTON):origin TO:destin ((city)PHILADELPHIA):destin IN:depart-time MORNING:depart-time",
    "m11": "WHAT:question ARE:question FLIGHT(S):subject FROM:origin ((city)ATLANTA):origin TO:destin ((city)BOSTON):destin IN:depart-time MORNING:depart-time",
    "m12": "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)DENVER):origin IN:depart-time MORNING:depart-time",
    "m13": None,
}


def refresh(corpus, artifacts):
    """Recompute the references of every entry that has them."""
    for entry in corpus.feedback_entries():
        gold = entry.gold
        if gold is None:
            if entry.ident not in FEEDBACK_GOLDS:
                sys.exit(f"sentence {entry.ident}: references but no gold, "
                         "in the corpus or in FEEDBACK_GOLDS")
            spec = FEEDBACK_GOLDS[entry.ident]
            if spec is None:
                entry.refmin = entry.refmax = Answer(kind="rows")
                continue
            gold = SegmentedSentence.parse("\t".join(spec.split()))
        template = generate_template(gold, artifacts.tables,
                                     artifacts.dictionary)
        entry.refmin = entry.refmax = answer(template, artifacts)


def main():
    artifacts = Artifacts.load_bundled()
    paths = [os.path.join(DATA, name) for name in CORPORA]
    corpora = [FeedbackCorpus.load(path) for path in paths]
    for corpus in corpora:   # every check passes before any file is written
        refresh(corpus, artifacts)
    for name, path, corpus in zip(CORPORA, paths, corpora):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(corpus.to_text())
        print(f"{name}: {len(corpus.entries)} entries, "
              f"{len(corpus.feedback_entries())} with references")


if __name__ == "__main__":
    main()
