"""The benchmark's span tracer (perfbench/spans.py) still wraps the turn.

The tracer wraps layer functions at the module attributes their callers
look them up on; a rename or a moved call site would leave a layer
untimed and its counters at zero."""

import importlib.util
from pathlib import Path

from chronus import pipeline, training

from helpers import train_full

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_times_and_counts_every_layer_of_one_turn(demo_model,
                                                         artifacts):
    spans = _spans_module()
    text = "SHOW ME THE FLIGHTS FROM BOSTON TO DALLAS IN THE MORNING"
    plain = pipeline.run_turn(text, demo_model, artifacts)
    tracer = spans.Tracer()
    originals = {(m, a): getattr(m, a)
                 for _, sites, _ in spans.WRAPPED for m, a in sites}
    with tracer.installed():
        tracer.begin_root("turn")
        traced = pipeline.run_turn(text, demo_model, artifacts)
        tracer.end_root()
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    assert [s[3] for s in tracer.spans] == [
        "lexicon.lex_parse", "decoder.viterbi_decode_lattice",
        "template.generate_template", "template.should_reject",
        "query.plan_query", "query.execute", "turn"]
    assert all(s[6] is None for s in tracer.spans)
    lattice = pipeline.lex_parse(text, artifacts.lexicon)
    assert tracer.counts == {
        "turns": 1,
        "lexicon.arcs": len(lattice.arcs),
        "lexicon.positions": lattice.n_positions,
        "decoder.calls": 1,
        "decoder.positions": lattice.n_positions,
        "decoder.relaxations": plain.decode.relaxations,
        "decoder.degenerate": 0,
        "template.matched": plain.template.matched,
        "template.unmatched": plain.template.unmatched,
        "template.reject_calls": 1,
        "template.rejects": 0,
    }
    assert traced.template.render() == plain.template.render()
    assert traced.answer.render_lines() == plain.answer.render_lines()


def test_tracer_counts_each_loop_snapshot_as_one_model_text(artifacts,
                                                            semi_corpus):
    # _snapshot_id reaches model_to_text through the training module's
    # attribute, so each iteration's snapshot id is one traced model text
    spans = _spans_module()
    seed_model = train_full(semi_corpus.seed_segmentations(), artifacts)
    tracer = spans.Tracer()
    with tracer.installed():
        tracer.begin_root("cycle")
        _, report = training.run_training_loop(semi_corpus, seed_model,
                                               artifacts, 20)
        tracer.end_root()
    iterations = len(report.rows)
    assert iterations == 2
    assert tracer.counts["training.loop_iterations"] == iterations
    assert tracer.counts["model.to_text_calls"] == iterations
    assert [s[3] for s in tracer.spans].count("model.model_to_text") \
        == iterations
