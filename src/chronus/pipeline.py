"""End-to-end composition of the understanding pipeline.

One place that chains lexical parsing, lattice decoding, template
generation, rejection and query evaluation, shared by the CLI, the
evaluation harness and the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .concepts import ConceptDictionary
from .decoder import DecodeResult, viterbi_decode_lattice
from .errors import ChronusError
from .lexicon import SuperwordLexicon, lex_parse
from .model import ConceptHmm
from .query import (Answer, Conventions, MiniDb, execute, plan_query,
                    score_answer)
from .template import Template, ValueTable, generate_template, should_reject


def data_path(name: str):
    """Path of a bundled data file."""
    return resources.files("chronus.data") / name


@dataclass
class Artifacts:
    """Static pipeline inputs (everything except the trained model)."""

    lexicon: SuperwordLexicon
    dictionary: ConceptDictionary
    tables: ValueTable
    db: MiniDb

    @classmethod
    def load(cls, lexicon_path, dictionary_path, tables_path, db_path,
             conventions_path):
        conventions = Conventions.load(conventions_path)
        return cls(
            lexicon=SuperwordLexicon.load(lexicon_path),
            dictionary=ConceptDictionary.load(dictionary_path),
            tables=ValueTable.load(tables_path),
            db=MiniDb.load(db_path, conventions),
        )

    @classmethod
    def load_bundled(cls):
        return cls.load(data_path("lexicon.txt"), data_path("concepts.txt"),
                        data_path("values.txt"), data_path("db.txt"),
                        data_path("conventions.txt"))


@dataclass
class TurnResult:
    decode: DecodeResult
    template: Template
    rejected: bool
    merged: Template | None = None
    answer: Answer | None = None
    error: str | None = None   # query planning failure, if any


def run_turn(text: str, model: ConceptHmm, artifacts: Artifacts,
             context_template: Template | None = None,
             threshold: float | None = None) -> TurnResult:
    """Decode one sentence and, unless rejected, answer it.

    ``context_template`` (from the dialog manager) is what actually gets
    planned when provided; the caller owns merging.
    """
    if threshold is None:
        threshold = artifacts.db.conventions.reject_threshold
    lattice = lex_parse(text, artifacts.lexicon)
    decode = viterbi_decode_lattice(model, lattice)
    template = generate_template(decode.segmentation(), artifacts.tables,
                                 artifacts.dictionary)
    rejected = should_reject(template, threshold) or decode.degenerate
    result = TurnResult(decode=decode, template=template, rejected=rejected)
    if rejected:
        return result
    basis = context_template if context_template is not None else template
    result.merged = basis
    try:
        plan = plan_query(basis, artifacts.db)
        result.answer = execute(plan, artifacts.db)
    except ChronusError as exc:  # planning errors are data, not crashes
        result.error = str(exc)
    return result


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
        for cat in ("decoding", "template", "dialog", "translator"):
            lines.append(f"errors_{cat}\t{self.errors.get(cat, 0)}")
        return "\n".join(lines)


def evaluate_corpus(corpus, model: ConceptHmm, artifacts: Artifacts,
                    threshold=None) -> EvalReport:
    """Score a feedback corpus: segment accuracy against its golds, answer
    accuracy against its references, and wrong answers by first divergent
    stage."""
    gold_segments = hyp_segments = 0
    gold_sentences = correct_sentences = 0
    answered = correct = wrong = rejected = 0
    errors = {"decoding": 0, "template": 0, "dialog": 0, "translator": 0}
    for entry in corpus.entries:
        turn = run_turn(entry.text, model, artifacts, threshold=threshold)
        seg = turn.decode.segmentation()
        seg_match = None
        if entry.gold is not None:
            gold_sentences += 1
            gold = set(entry.gold.segments())
            hyp = set(seg.segments())
            gold_segments += len(gold)
            hyp_segments += len(gold & hyp)
            seg_match = gold == hyp
            if seg_match:
                correct_sentences += 1
        if not entry.has_references:
            continue
        answered += 1
        if turn.rejected:
            rejected += 1
            continue
        if turn.answer is not None and score_answer(
                turn.answer, entry.refmin, entry.refmax) == "correct":
            correct += 1
            continue
        wrong += 1
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

    return EvalReport(
        concept_accuracy=pct(hyp_segments, gold_segments),
        sentence_accuracy=pct(correct_sentences, gold_sentences),
        answers_correct=pct(correct, answered),
        answers_wrong=pct(wrong, answered),
        answers_rejected=pct(rejected, answered) if answered else 100.0,
        errors=errors,
    )

