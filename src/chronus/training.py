"""Semi-supervised training from answer feedback, and constrained
alignment of unordered meaning annotations to sentences.

The training loop decodes every feedback sentence end to end, keeps the
segmentations of the sentences whose answers score correct against their
min/max references, retrains from the hand-labeled seed plus the kept
segmentations, and repeats until the correct set stops changing.

Constrained alignment is a Viterbi search over dense integer states, a
concept and a code for how many segments of each required keyword have
begun, held in flat lists.  It reads the model's concept-indexed tables,
like the lattice decoder, and keeps its first-maximum tie rule.  Its
search plan is built once per model and win multiset.  Its brute-force
oracle runs the decoder oracle's enumerator on the sentence's chain
lattice, whose tie key states that rule, so the two return one labeling.
"""

from __future__ import annotations

import weakref
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .concepts import ConceptDictionary
from .decoder import chain_lattice, exhaustive_search
from .errors import ChronusError, DataFormatError
from .model import (BEGIN, NEG_INF, ConceptHmm, SegmentedSentence,
                    count_events, model_to_text, train_mle)
from .pipeline import Artifacts, run_turn, verdict
from .query import Answer
from .textfile import read_lines, records, section_name


class AlignmentInfeasibleError(ChronusError):
    """No labeling satisfies the required concept multiset."""


INFEASIBLE = "no labeling satisfies the win concept multiset"


# ---------------------------------------------------------------------------
# Feedback corpus

@dataclass
class FeedbackEntry:
    ident: str
    text: str
    gold: SegmentedSentence | None = None
    refmin: Answer | None = None
    refmax: Answer | None = None
    line: int | None = field(default=None, compare=False)  # of its header

    @property
    def has_references(self) -> bool:
        return self.refmin is not None and self.refmax is not None


_ONCE = ("text", "gold", "refs", "refvalue")   # keys an entry gives once


def _check_entry(entry, path=None, ln=None):
    if entry.gold is None and not entry.has_references:
        raise DataFormatError(f"sentence {entry.ident}: needs references "
                              "or a gold segmentation", path, ln)
    if entry.has_references and entry.refmin.kind != "rows" and None in (
            entry.refmin.value, entry.refmax.value):
        raise DataFormatError(f"sentence {entry.ident}: refs "
                              f"{entry.refmin.kind} needs a refvalue line",
                              path, ln)


@dataclass
class FeedbackCorpus:
    """Feedback entries, each with a gold segmentation or references, and a
    ``refvalue`` for ``number`` and ``boolean`` references.  The reader
    checks an entry when it ends, naming its header line, and a sentence id
    at its header.  It also needs a ``text`` line in every entry, and names
    at its line a repeated ``text``, ``gold``, ``refs`` or ``refvalue``
    line."""

    entries: list = field(default_factory=list)

    def __post_init__(self):
        for e in self.entries:
            _check_entry(e)

    def seed_segmentations(self):
        return [e.gold for e in self.entries if e.gold is not None]

    def feedback_entries(self):
        return [e for e in self.entries if e.has_references]

    @classmethod
    def load(cls, path):
        return cls.from_lines(read_lines(path), path=str(path))

    @classmethod
    def from_lines(cls, lines, path=None):
        entries, idents = [], set()
        given = set()   # the keys of _ONCE the current entry has given

        def finish():
            entry = entries[-1]
            if "text" not in given:
                raise DataFormatError(
                    f"sentence {entry.ident}: needs a text line",
                    path, entry.line)
            _check_entry(entry, path, entry.line)

        for ln, section, line in records(lines, path):
            if line is None:
                if entries:
                    finish()
                ident = section_name(section, "sentence", path, ln)
                if ident in idents:
                    raise DataFormatError(f"repeated sentence id {ident!r}", path, ln)
                idents.add(ident)
                entries.append(FeedbackEntry(ident, text="", line=ln))
                given.clear()
                continue
            if not entries:
                raise DataFormatError("line before any [sentence] header", path, ln)
            entry = entries[-1]
            kind = entry.refmin.kind if entry.refmin is not None else None
            key, _, rest = line.partition("\t")
            if key in _ONCE:
                if key in given:
                    raise DataFormatError(
                        f"sentence {entry.ident}: repeated {key} line", path, ln)
                given.add(key)
            if key == "text":
                entry.text = rest
            elif key == "gold":
                try:
                    entry.gold = SegmentedSentence.parse(rest)
                except ChronusError as exc:
                    raise DataFormatError(str(exc), path, ln) from None
            elif key == "refs":
                if rest not in ("rows", "number", "boolean"):
                    raise DataFormatError(f"unknown reference kind {rest!r}",
                                          path, ln)
                entry.refmin, entry.refmax = Answer(kind=rest), Answer(kind=rest)
            elif key in ("refmin", "refmax") and kind == "rows":
                getattr(entry, key).rows.append(tuple(rest.split("\t")))
            elif key == "refvalue" and kind in ("number", "boolean"):
                value = rest if kind == "number" else rest == "YES"
                entry.refmin.value = entry.refmax.value = value
            elif key in ("refmin", "refmax", "refvalue"):
                raise DataFormatError(f"{key} needs a matching refs line before it",
                                      path, ln)
            else:
                raise DataFormatError(f"unknown record key {key!r}", path, ln)
        if entries:
            finish()
        return cls(entries)

    def to_text(self) -> str:
        out = []
        for e in self.entries:
            out.append(f"[sentence {e.ident}]")
            out.append(f"text\t{e.text}")
            if e.gold is not None:
                out.append(f"gold\t{e.gold.render()}")
            if e.has_references:
                out.append(f"refs\t{e.refmin.kind}")
                if e.refmin.kind == "rows":
                    for row in e.refmin.rows:
                        out.append("refmin\t" + "\t".join(str(v) for v in row))
                    for row in e.refmax.rows:
                        out.append("refmax\t" + "\t".join(str(v) for v in row))
                else:
                    value = e.refmin.value
                    if e.refmin.kind == "boolean":
                        value = "YES" if value else "NO"
                    out.append(f"refvalue\t{value}")
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Training loop

@dataclass
class IterationRow:
    iteration: int
    correct: int
    problem: int
    snapshot: str


@dataclass
class LoopReport:
    rows: list = field(default_factory=list)
    termination: str = ""

    def to_text(self) -> str:
        out = ["iteration\tcorrect\tproblem\tsnapshot"]
        out.extend(f"{r.iteration}\t{r.correct}\t{r.problem}\t{r.snapshot}"
                   for r in self.rows)
        out.append(f"# terminated: {self.termination}")
        return "\n".join(out) + "\n"


def _snapshot_id(model: ConceptHmm) -> str:
    """Hash of the model's text, which holds its probabilities only: the
    first 12 hex digits of its SHA-256.

    The digest comes from CPython's built-in SHA-256 module (``_sha2``
    from 3.12, ``_sha256`` before), not from ``hashlib``, which loads
    OpenSSL, about 3.5 MB resident, for one hash per loop iteration.
    SHA-256 is one function, so the ids are those ``hashlib`` gives;
    ``hashlib`` remains the fallback for an interpreter built without
    either module."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(model_to_text(model).encode()).hexdigest()[:12]


def run_training_loop(corpus: FeedbackCorpus, seed_model: ConceptHmm,
                      artifacts: Artifacts, max_iters: int):
    """Answer-feedback self-training; returns (final model, LoopReport)."""
    if max_iters < 1:
        raise ChronusError("max_iters must be >= 1")
    seed = corpus.seed_segmentations()
    if not seed:
        raise ChronusError("corpus has no seed segmentations")
    feedback = corpus.feedback_entries()

    model = seed_model
    report = LoopReport()
    prev_correct_ids = None
    for iteration in range(1, max_iters + 1):
        correct_ids = set()
        kept = {}
        for entry in feedback:
            try:
                turn = run_turn(entry.text, model, artifacts)
            except ChronusError:
                turn = None  # unparseable sentence: problem sentence
            if verdict(turn, entry) == "correct":
                correct_ids.add(entry.ident)
                kept[entry.ident] = turn.decode.segmentation()
        report.rows.append(IterationRow(
            iteration=iteration, correct=len(correct_ids),
            problem=len(feedback) - len(correct_ids),
            snapshot=_snapshot_id(model)))
        if correct_ids == prev_correct_ids:
            report.termination = "converged"
            return model, report
        prev_correct_ids = correct_ids
        retrain = seed + [kept[i] for i in sorted(kept)]
        model = train_mle(count_events(retrain, model.dictionary, model.vocab),
                          model.k)
    report.termination = "max_iters"
    return model, report


# ---------------------------------------------------------------------------
# Constrained alignment

def required_concepts(win_tokens: Iterable[str], dictionary: ConceptDictionary):
    """Multiset of concept keywords a labeling must realize; token order
    is deliberately ignored.  Segments are compared by their keywords
    (``Concept.keyword``), so a special or attribute concept, whose
    keyword is not its own name, could never be realized and is refused
    up front."""
    keywords = list(win_tokens)
    for k in keywords:
        if k not in dictionary:
            raise ChronusError(f"win keyword {k!r} is not a concept")
        if (concept := dictionary[k]).keyword != k:
            raise ChronusError(f"win keyword {k!r} names a concept of role "
                               f"{concept.role}; a win lists folded, "
                               "non-special concepts")
    return Counter(keywords)


_plans = weakref.WeakKeyDictionary()   # model -> win multiset -> plan


def _align_plan(model: ConceptHmm, required: Counter):
    """align_win's search plan ``(n_codes, allowed, labels, enter, moves)``
    for one model and win multiset, built on first use and read, never
    changed, by every later call."""
    plans = _plans.get(model)
    if plans is None:
        plans = _plans[model] = {}
    multiset = frozenset(required.items())
    plan = plans.get(multiset)
    if plan is not None:
        return plan
    dictionary, init_vec, enter_max = (model.dictionary, model.init_vec,
                                       model.enter_max)
    place, n_codes = {}, 1   # keyword -> digit weight; number of codes
    for key in sorted(required, reverse=True):
        place[key] = n_codes
        n_codes *= required[key] + 1
    # allowed concept ids and names; per allowed concept, the (code, state)
    # moves that begin a segment of it and those that continue one
    allowed, labels, enter, keep = [], [], [], []
    for c, concept in enumerate(dictionary.concepts):
        if init_vec[c] == NEG_INF and enter_max[c] == NEG_INF:
            continue   # no labeling can enter c
        first = len(allowed) * n_codes
        same = [(code, first + code) for code in range(n_codes)]
        if (key := concept.keyword) is None:   # special: keeps the counts
            enter.append(same)
        elif key in required:
            step, need = place[key], required[key]
            enter.append([(code, first + code + step) for code in range(n_codes)
                          if code // step % (need + 1) < need])
        else:
            continue
        allowed.append(c)
        labels.append(concept.name)
        keep.append(same)
    # per predecessor: (allowed index, concept id, transition, moves) of
    # every concept it can go on to
    into = [(a, c, model.trans_into[c]) for a, c in enumerate(allowed)]
    moves = [[(a, c, trans, keep[a] if a == a_p else enter[a])
              for a, c, row in into if (trans := row[cp]) > NEG_INF]
             for a_p, cp in enumerate(allowed)]
    plan = plans[multiset] = n_codes, allowed, labels, enter, moves
    return plan


def align_win(sentence, win_tokens: Iterable[str],
              model: ConceptHmm) -> SegmentedSentence:
    """Viterbi decoding constrained to emit exactly the win concept multiset.

    Segment concepts (after attribute folding) must match the required
    multiset; special concepts (dummy, and) are unconstrained.  The order
    of win tokens is irrelevant: the constraint is the reordering device.
    Raises AlignmentInfeasibleError when no finite-probability labeling
    satisfies the constraint.

    The search runs over dense integer states.  A state's counts say how
    many segments of each required keyword have begun so far; they are one
    mixed-radix code whose most significant digit is the first keyword in
    sorted order, so code order is count tuple order.  State ``allowed
    index * n_codes + code`` indexes flat lists, and index order is
    (concept id, counts) order.  Concepts that no labeling can enter (-inf
    initial log probability and ``enter_max``, the largest transition in
    from another concept) are left out.  Scores come from the same
    concept-indexed tables and memoised emission vectors
    (``model.emissions``) as the lattice decoder, each candidate summed as
    ``cell + transition + emission``.  A state's candidates are examined
    in predecessor state order and the first strict maximum wins, also in
    the final sweep over the states whose counts are complete.

    The search plan (digit weights, allowed concepts and their names, the
    moves that begin or continue a segment, the per-predecessor move
    table) depends only on the model's fixed tables and the win multiset.
    It is built on the first call for that model and multiset and kept
    while the model lives, in a memo keyed weakly by the model; later calls
    read it and never change it.  The checks of the sentence and the win
    run on every call, before the plan is looked up.  The memo has no
    bound: a model keeps one plan per distinct multiset it has aligned,
    each about ``2 * len(allowed) * n_codes`` (code, state) pairs plus
    ``len(allowed) ** 2`` move entries that share them, where ``n_codes``
    is the product of (count + 1) over the win's keywords.  The 24 plans
    of 100 generated instances against the recovery model take about
    70 KiB.

    The result is the labeling brute_force_align returns, also when two
    prefixes that meet in one state an ulp apart reach one total: this
    search keeps the larger prefix, and the oracle's tie key prefers it.
    """
    dictionary = model.dictionary
    words = tuple(sentence)
    if not words:
        raise ChronusError("cannot align an empty sequence")
    required = required_concepts(win_tokens, dictionary)
    if not model.vocab_set.issuperset(w.sym for w in words):
        raise AlignmentInfeasibleError(INFEASIBLE)   # no row gives it mass
    n_codes, allowed, labels, enter, moves = _align_plan(model, required)
    n_states = len(allowed) * n_codes
    full = n_codes - 1   # the largest code: every keyword complete

    sym = words[0].sym
    begin = model.emissions(BEGIN, sym)
    cells = [NEG_INF] * n_states   # best score of a prefix ending there
    for a, c in enumerate(allowed):
        _, state = enter[a][0]   # code 0: no segment begun yet
        cells[state] = model.init_vec[c] + begin[c]
    back = []   # per later word: state -> predecessor state
    for i in range(1, len(words)):
        prev_sym, sym = sym, words[i].sym
        nxt, bp = [NEG_INF] * n_states, [0] * n_states
        back.append(bp)
        # per concept id: emissions that begin a segment or continue one
        begin = model.emissions(BEGIN, sym)
        stay = model.emissions(prev_sym, sym)
        # a state gets at most one candidate per predecessor concept, so
        # predecessor concept order is predecessor state order
        for a_p, to in enumerate(moves):
            src = a_p * n_codes
            row = cells[src:src + n_codes]
            for a, c, trans, pairs in to:
                emit = stay[c] if a == a_p else begin[c]
                for code_p, state in pairs:
                    score = row[code_p] + trans + emit
                    if score > nxt[state]:
                        nxt[state] = score
                        bp[state] = src + code_p
        cells = nxt

    best, state = NEG_INF, None
    for a, c in enumerate(allowed):
        score = cells[a * n_codes + full] + model.final_vec[c]
        if score > best:
            best, state = score, a * n_codes + full
    if state is None:
        raise AlignmentInfeasibleError(INFEASIBLE)
    path = [labels[state // n_codes]]
    for bp in reversed(back):
        state = bp[state]
        path.append(labels[state // n_codes])
    path.reverse()
    return SegmentedSentence(words, tuple(path))


def brute_force_align(sentence, win_tokens: Iterable[str],
                      model: ConceptHmm) -> SegmentedSentence:
    """Exhaustive reference for align_win at small sizes.

    Runs the decoder oracle's enumerator on the sentence's chain lattice,
    admitting only labelings whose folded non-special segment concepts
    equal the required multiset; the best must have a finite score.
    """
    dictionary = model.dictionary
    words = tuple(sentence)
    required = required_concepts(win_tokens, dictionary)

    def admit(labels):
        return required == Counter(dictionary.keywords(labels))

    best = exhaustive_search(model, chain_lattice(words), admit)
    if best is None or best[0] == NEG_INF:
        raise AlignmentInfeasibleError(INFEASIBLE)
    return SegmentedSentence(words, best[2])
