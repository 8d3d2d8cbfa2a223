"""The benchmark's span tracer (perfbench/spans.py) still wraps the turn.

The tracer wraps layer functions at the module attributes their callers
look them up on; a rename or a moved call site would leave a layer
untimed and its counters at zero."""

import importlib.util
from pathlib import Path

from chronus import pipeline

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
