"""Span tracing of chronus layers from outside the package.

Each public layer function is wrapped at the module attribute its caller
looks it up on (``run_turn`` calls ``pipeline.lex_parse``, ``cmd_repl``
calls ``cli.merge_context``, and so on), so the package itself is never
edited.  A wrapped call records a span ``(id, parent, turn, name, start,
end, error)``; spans stay in memory and are written out when the run ends.
Root spans (one per turn or cycle) are opened by the workload, and every
span recorded inside one carries that root's turn id.

Counters are taken at the same boundaries.  ``first_round`` holds them as
they stood at the end of a run's first round, whose inputs the seed fixes,
so ratios built from it repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter, defaultdict

from chronus import cli, model, pipeline, training


def _lexicon(tr, args, kwargs, lattice):
    tr.counts["lexicon.arcs"] += len(lattice.arcs)
    tr.counts["lexicon.positions"] += lattice.n_positions


def _decoder(tr, args, kwargs, result):
    tr.counts["decoder.calls"] += 1
    tr.counts["decoder.positions"] += args[1].n_positions
    tr.counts["decoder.relaxations"] += result.relaxations
    tr.counts["decoder.degenerate"] += result.degenerate


def _template(tr, args, kwargs, template):
    tr.counts["template.matched"] += template.matched
    tr.counts["template.unmatched"] += template.unmatched


def _reject(tr, args, kwargs, rejected):
    tr.counts["template.reject_calls"] += 1
    tr.counts["template.rejects"] += rejected


def _saved(tr, args, kwargs, result):
    tr.last_model = (str(args[1]), os.path.getsize(args[1]))


def _loaded(tr, args, kwargs, loaded):
    tr.last_model = (str(args[0]), os.path.getsize(args[0]))


# Sections of a model file that hold names, not probabilities.
NAME_SECTIONS = ("[concepts]", "[vocab]")


def stored_probabilities(path):
    """Probability lines a model file stores: the non-blank, non-comment
    lines of its sections other than the name sections."""
    count = 0
    counting = False     # the lines before the first section are settings
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                counting = line not in NAME_SECTIONS
            elif counting and line and not line.startswith("#"):
                count += 1
    return count


def _to_text(tr, args, kwargs, text):
    tr.counts["model.to_text_calls"] += 1


def _turn(tr, args, kwargs, result):
    tr.counts["turns"] += 1


def _loop(tr, args, kwargs, result):
    tr.counts["training.loop_iterations"] += len(result[1].rows)


# (span name, [(module, attribute), ...], counter hook or None).  Every
# attribute through which chronus code or the workloads reach a layer
# function is listed, so no call escapes the trace.  The workloads' own
# output checks bind their functions at import, before wrapping, and so
# stay out of the trace.
WRAPPED = [
    ("lexicon.lex_parse", [(pipeline, "lex_parse")], _lexicon),
    ("decoder.viterbi_decode_lattice",
     [(pipeline, "viterbi_decode_lattice")], _decoder),
    ("template.generate_template", [(pipeline, "generate_template")],
     _template),
    ("template.should_reject", [(pipeline, "should_reject")], _reject),
    ("dialog.merge_context", [(cli, "merge_context")], None),
    ("query.plan_query", [(pipeline, "plan_query")], None),
    ("query.execute", [(pipeline, "execute")], None),
    ("model.train_mle", [(cli, "train_mle"), (training, "train_mle")], None),
    ("model.apply_synonym_smoothing", [(cli, "apply_synonym_smoothing")],
     None),
    ("model.save_model", [(cli, "save_model")], _saved),
    ("model.load_model", [(cli, "load_model"), (model, "load_model")],
     _loaded),
    ("model.model_to_text", [(model, "model_to_text"),
                             (training, "model_to_text")], _to_text),
    ("training.run_training_loop", [(training, "run_training_loop")], _loop),
    ("training.align_win", [(training, "align_win")], None),
    # composition only: counted as turns, its self time is pipeline glue
    ("pipeline.run_turn", [(training, "run_turn")], _turn),
]


class NullTracer:
    """Tracer interface with every hook a no-op: the untraced runs."""

    def installed(self):
        return contextlib.nullcontext()

    def begin_root(self, name):
        pass

    def end_root(self):
        pass

    def end_round(self):
        pass

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer(NullTracer):
    def __init__(self):
        self.spans = []      # (id, parent, turn, name, start_ns, end_ns, error)
        self.stack = []
        self.turn = 0        # 0 = outside any root span (set-up)
        self.counts = Counter()
        self.first_round = None
        self.last_model = None   # (path, file bytes) last saved or loaded
        self._next_id = 1

    # -- wrapping -----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every WRAPPED attribute for the duration of the block."""
        saved = []
        try:
            for name, sites, hook in WRAPPED:
                for module, attr in sites:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append((sid, parent, self.turn, name, start, end,
                                   error))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    # -- root spans ---------------------------------------------------------

    def begin_root(self, name):
        self.counts[name + "s"] += 1
        sid = self._next_id
        self._next_id += 1
        self.turn = sid
        self.stack.append(sid)
        self._root = (sid, name, time.perf_counter_ns())

    def end_root(self):
        end = time.perf_counter_ns()
        sid, name, start = self._root
        self.stack.pop()
        self.spans.append((sid, None, sid, name, start, end, None))
        self.turn = 0

    def call(self, name, fn, *args):
        """Call ``fn`` under a span of its own, e.g. benchmark work that
        happens inside a root span."""
        return self._wrap(fn, name, None)(*args)

    def end_round(self):
        if self.first_round is None:
            self.first_round = Counter(self.counts)

    # -- analysis -----------------------------------------------------------

    def self_times(self, in_roots=False):
        """Per span name: [calls, inclusive ns, self ns, calls that raised].

        With ``in_roots``, only spans recorded inside a turn or cycle.
        """
        covered = defaultdict(int)
        for sid, parent, _turn, _name, start, end, _err in self.spans:
            if parent is not None:
                covered[parent] += end - start
        stats = defaultdict(lambda: [0, 0, 0, 0])
        for sid, _parent, turn, name, start, end, err in self.spans:
            if in_roots and not turn:
                continue
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - covered[sid]
            s[3] += err is not None
        return dict(stats)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, turn, name, start, end, err in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "turn": turn,
                                     "name": name, "start_ns": start,
                                     "end_ns": end, "error": err}) + "\n")
