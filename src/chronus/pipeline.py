"""End-to-end composition of the understanding pipeline.

``understand`` lexes, decodes, templates and rejects one sentence, and
``answer`` plans and executes a template.  ``run_turn`` chains the two for
the CLI, the evaluation harness and the training loop; the REPL merges the
dialog context in between.  Given a sentence's earlier turn, ``run_turn``
decodes its lattice again and re-answers only a decode that changed.
``verdict`` judges a turn's answer against a corpus entry's references for
all of them.  The rejection threshold has one home, the conventions'
``reject_threshold``, which the CLI's ``--threshold`` overwrites when it
loads the artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .concepts import ConceptDictionary
from .decoder import DecodeResult, viterbi_decode_lattice
from .errors import ChronusError
from .lexicon import Lattice, SuperwordLexicon, lex_parse
from .model import ConceptHmm
from .query import (Answer, Conventions, MiniDb, execute, plan_query,
                    score_answer)
from .template import Template, ValueTable, generate_template, should_reject


_DATA = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    """Path of a bundled data file."""
    return _DATA / name


@dataclass
class Artifacts:
    """Static pipeline inputs (everything except the trained model)."""

    # the artifact files in ``load``'s order, each bundled as <name>.txt
    FILES = ("lexicon", "concepts", "values", "db", "conventions")

    lexicon: SuperwordLexicon
    dictionary: ConceptDictionary
    tables: ValueTable
    db: MiniDb

    @classmethod
    def load(cls, lexicon_path, dictionary_path, tables_path, db_path,
             conventions_path):
        conventions = Conventions.load(conventions_path)
        lexicon = SuperwordLexicon.load(lexicon_path)
        dictionary = ConceptDictionary.load(dictionary_path)
        return cls(
            lexicon=lexicon,
            dictionary=dictionary,
            tables=ValueTable.load(tables_path, dictionary),
            db=MiniDb.load(db_path, conventions),
        )

    @classmethod
    def load_bundled(cls):
        return cls.load(*(data_path(f"{name}.txt") for name in cls.FILES))


@dataclass
class TurnResult:
    """One sentence's turn: the lattice it was decoded on, the decode, its
    template and rejection, and, once answered, the answer or the planning
    error.  Passed back to ``run_turn`` as ``previous``, it lets a later
    model decode the same lattice and reuse what the decode decides."""

    lattice: Lattice
    decode: DecodeResult
    template: Template
    rejected: bool
    answer: Answer | None = None
    error: str | None = None   # query planning failure, if any


def _interpret(lattice: Lattice, decode: DecodeResult,
               artifacts: Artifacts) -> TurnResult:
    """Template a decode and decide whether to reject it by the
    conventions' threshold; the result carries no answer yet."""
    template = generate_template(decode.segmentation(), artifacts.tables,
                                 artifacts.dictionary)
    threshold = artifacts.db.conventions.reject_threshold
    rejected = should_reject(template, threshold) or decode.degenerate
    return TurnResult(lattice, decode, template, rejected)


def understand(text: str, model: ConceptHmm,
               artifacts: Artifacts) -> TurnResult:
    """Lex, decode and template one sentence, and decide whether to reject
    it by the conventions' threshold; the result carries no answer yet."""
    lattice = lex_parse(text, artifacts.lexicon)
    return _interpret(lattice, viterbi_decode_lattice(model, lattice),
                      artifacts)


def answer(template: Template, artifacts: Artifacts) -> Answer:
    """Plan a template and execute it against the database; raises
    ChronusError when no plan rule applies."""
    return execute(plan_query(template, artifacts.db), artifacts.db)


def run_turn(text: str, model: ConceptHmm, artifacts: Artifacts,
             previous: TurnResult | None = None) -> TurnResult:
    """Understand one sentence and, unless rejected, answer it on its own
    (no dialog context); a planning error is stored in ``error``.

    ``previous``, when given, is this text's turn under an earlier model
    with the same artifacts.  The text is then not lexed again: the new
    model decodes ``previous.lattice``.  A decode with the same words,
    labels and ``degenerate`` flag as ``previous.decode`` gets the earlier
    template, rejection, answer and error, the same objects, since the
    template, rejection and plan read nothing else of a decode; any other
    decode is templated and answered as a new one."""
    if previous is None:
        turn = understand(text, model, artifacts)
    else:
        lattice, old = previous.lattice, previous.decode
        decode = viterbi_decode_lattice(model, lattice)
        if (decode.labels == old.labels and decode.words == old.words
                and decode.degenerate == old.degenerate):
            return TurnResult(lattice, decode, previous.template,
                              previous.rejected, previous.answer,
                              previous.error)
        turn = _interpret(lattice, decode, artifacts)
    if not turn.rejected:
        try:
            turn.answer = answer(turn.template, artifacts)
        except ChronusError as exc:  # planning errors are data, not crashes
            turn.error = str(exc)
    return turn


def verdict(turn: TurnResult | None, entry) -> str:
    """How a turn fared on a corpus entry with references: 'correct',
    'wrong' or 'rejected'.  ``turn`` is None for a sentence that could not
    be understood at all (e.g. only stop words), which counts as rejected."""
    if turn is None or turn.rejected:
        return "rejected"
    if turn.answer is not None and score_answer(
            turn.answer, entry.refmin, entry.refmax) == "correct":
        return "correct"
    return "wrong"


@dataclass
class EvalReport:
    concept_accuracy: float
    sentence_accuracy: float
    answers_correct: float
    answers_wrong: float
    answers_rejected: float
    errors: dict

    def render(self) -> str:
        lines = [
            f"concept_accuracy\t{self.concept_accuracy:.1f}",
            f"sentence_accuracy\t{self.sentence_accuracy:.1f}",
            f"answers_correct\t{self.answers_correct:.1f}",
            f"answers_wrong\t{self.answers_wrong:.1f}",
            f"answers_rejected\t{self.answers_rejected:.1f}",
        ]
        for cat in ("decoding", "template", "translator"):
            lines.append(f"errors_{cat}\t{self.errors.get(cat, 0)}")
        return "\n".join(lines)


def evaluate_corpus(corpus, model: ConceptHmm,
                    artifacts: Artifacts) -> EvalReport:
    """Score a feedback corpus: segment accuracy against its golds, answer
    accuracy against its references, and wrong answers by first divergent
    stage.  A sentence that cannot be understood at all counts as rejected.
    First, as ``eval``'s one label check, a gold label that is not a
    concept raises DataFormatError, at its line of a corpus file."""
    corpus.check_labels(artifacts.dictionary)
    gold_segments = hyp_segments = 0
    gold_sentences = correct_sentences = 0
    tally = dict.fromkeys(("correct", "wrong", "rejected"), 0)
    errors = {"decoding": 0, "template": 0, "translator": 0}
    for entry in corpus.entries:
        try:
            turn = run_turn(entry.text, model, artifacts)
        except ChronusError:
            turn = None
        seg_match = None
        if entry.gold is not None:
            gold_sentences += 1
            gold = set(entry.gold.segments())
            hyp = set(turn.decode.segmentation().segments()) if turn else set()
            gold_segments += len(gold)
            hyp_segments += len(gold & hyp)
            seg_match = gold == hyp
            if seg_match:
                correct_sentences += 1
        if not entry.has_references:
            continue
        outcome = verdict(turn, entry)
        tally[outcome] += 1
        if outcome != "wrong":
            continue
        # classify by the first stage that diverges from gold artifacts
        if seg_match is False:
            errors["decoding"] += 1
        elif entry.gold is not None:
            gold_template = generate_template(entry.gold, artifacts.tables,
                                              artifacts.dictionary)
            if gold_template.render() != turn.template.render():
                errors["template"] += 1
            else:
                errors["translator"] += 1
        else:
            errors["translator"] += 1

    def pct(a, b):
        return 100.0 * a / b if b else 0.0

    answered = sum(tally.values())
    return EvalReport(
        concept_accuracy=pct(hyp_segments, gold_segments),
        sentence_accuracy=pct(correct_sentences, gold_sentences),
        answers_correct=pct(tally["correct"], answered),
        answers_wrong=pct(tally["wrong"], answered),
        answers_rejected=pct(tally["rejected"], answered) if answered else 100.0,
        errors=errors,
    )

