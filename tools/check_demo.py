#!/usr/bin/env python3
"""End-to-end sanity check: train on the bundled golds, decode every demo
sentence, and report any divergence from the gold segmentation or answer."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronus.model import full_vocabulary, render_segments, train_mle
from chronus.pipeline import Artifacts, data_path, run_turn, verdict
from chronus.training import FeedbackCorpus

artifacts = Artifacts.load_bundled()
demo = FeedbackCorpus.load(data_path("demo_corpus.txt"))
seed = FeedbackCorpus.load(data_path("seed_corpus.txt"))
golds = demo.seed_segmentations() + seed.seed_segmentations()
vocab = full_vocabulary(artifacts.lexicon, golds)
model = train_mle(golds, artifacts.dictionary, vocab, 0.001)

bad = 0
for entry in demo.entries:
    turn = run_turn(entry.text, model, artifacts)
    seg = turn.decode.segmentation()
    seg_ok = set(seg.segments()) == set(entry.gold.segments())
    outcome = verdict(turn, entry)
    if not seg_ok or outcome != "correct":
        bad += 1
        print(f"{entry.ident}: seg_ok={seg_ok} verdict={outcome} "
              f"error={turn.error}")
        print(f"  text: {entry.text}")
        print(f"  gold: {render_segments(entry.gold)}")
        print(f"  hyp:  {render_segments(seg)}")
        print(f"  tmpl: {turn.template.render()}")
print(f"{len(demo.entries) - bad}/{len(demo.entries)} fully correct")
