"""Command-line surface: train, decode, eval, repl, loop, gen.

Exit codes: 0 success, 1 usage error, 2 data error.  A command imports
``training`` or ``gen`` in its own body if it runs them, so ``decode`` and
``repl`` load neither.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from itertools import zip_longest

from .concepts import ConceptDictionary
from .dialog import merge_context
from .errors import ChronusError, DataFormatError
from .lexicon import SuperwordLexicon
from .model import (ConceptHmm, apply_synonym_smoothing, count_events,
                    full_vocabulary, load_model, load_synonyms,
                    render_segments, save_model, train_mle)
from .pipeline import (Artifacts, answer, data_path, evaluate_corpus,
                       run_turn, understand)
from .query import plan_query
from .template import Template, matched_fraction
from .textfile import number, read_lines


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _number(kind, lo, hi=math.inf):
    """An argparse type: a finite ``kind`` number in [lo, hi], checked as
    the data files check theirs; a bad one is a usage error."""
    def parse(text):
        try:
            return number(kind, text, "value", None, None, lo, hi)
        except DataFormatError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _add_artifact_args(p):
    for name in Artifacts.FILES:
        p.add_argument(f"--{name}", default=None,
                       help=f"{name} file (default: bundled demo {name})")
    p.add_argument("--threshold", type=_number(float, 0.0, 1.0), default=None,
                   help="rejection threshold (default: the conventions')")


def _given(path, name):
    """A path option's value, or the bundled ``name`` file when the option
    is absent; a given path is always opened, even an empty one."""
    return path if path is not None else data_path(f"{name}.txt")


def _load_artifacts(args) -> Artifacts:
    """The artifacts the arguments name; a given ``--threshold`` replaces
    the conventions' rejection threshold."""
    artifacts = Artifacts.load(*(_given(getattr(args, name), name)
                                 for name in Artifacts.FILES))
    if args.threshold is not None:
        artifacts.db.conventions.reject_threshold = args.threshold
    return artifacts


def _load_model(path, artifacts: Artifacts) -> ConceptHmm:
    """The model at ``path``, which must score every symbol that the
    artifacts' lexicon can emit: any other symbol would decode at -inf.
    Its ``[concepts]`` must equal the artifacts' concepts line for line,
    since order, roles, ranks and counterparts all change the answers."""
    model = load_model(path)
    missing = artifacts.lexicon.superwords - model.vocab_set
    if missing:
        raise ChronusError(f"{path}: lexicon symbol {min(missing)!r} "
                           "is not in the model's [vocab]")
    for ours, theirs in zip_longest(model.dictionary.to_lines(),
                                    artifacts.dictionary.to_lines()):
        if ours != theirs:
            raise ChronusError(f"{path}: [concepts] has {ours!r} where "
                               f"the concepts file has {theirs!r}")
    return model


def _load_corpus(path, dictionary: ConceptDictionary):
    """The feedback corpus at ``path``, each of whose gold labels must be a
    concept of ``dictionary``; an entry with another is a data error at
    its ``[sentence]`` line."""
    from .training import FeedbackCorpus

    corpus = FeedbackCorpus.load(path)
    corpus.check_labels(dictionary)
    return corpus


# ---------------------------------------------------------------------------
# train

def _fit(golds, dictionary, lexicon, k, synonyms):
    """The training step of ``train`` and ``loop``: (model, counts), add-k
    from the golds over the lexicon's vocabulary, then, given a ``synonyms``
    path, synonym-smoothed and checked normalized.  In ``cli`` since the
    benchmark wraps ``train_mle`` and ``apply_synonym_smoothing`` here."""
    counts = count_events(golds, dictionary, full_vocabulary(lexicon, golds))
    model = train_mle(counts, k)
    if synonyms is not None:
        model = apply_synonym_smoothing(model, load_synonyms(
            synonyms, model.dictionary, model.vocab), counts)
        for name, row in model.rows():
            if not row.normalized():
                raise ChronusError(f"row {name} is no longer normalized")
    return model, counts


def cmd_train(args, out) -> int:
    dictionary = ConceptDictionary.load(_given(args.concepts, "concepts"))
    lexicon = SuperwordLexicon.load(_given(args.lexicon, "lexicon"))
    golds = [gold for path in args.corpus
             for gold in _load_corpus(path, dictionary).seed_segmentations()]
    model, counts = _fit(golds, dictionary, lexicon, args.k, args.synonyms)
    save_model(model, args.out)   # before any output: a failed save prints none
    if args.synonyms is not None:
        print("synonyms applied; all rows normalized", file=out)
    print(f"rows\t{model.row_count()}", file=out)
    print(f"nonzero\t{counts.nonzero_bigrams()}", file=out)
    return 0


# ---------------------------------------------------------------------------
# decode

def cmd_decode(args, out) -> int:
    artifacts = _load_artifacts(args)
    model = _load_model(args.model, artifacts)
    result = run_turn(args.sentence, model, artifacts)
    if not (args.segments or args.template or args.answer or args.emit_sql):
        args.template = True
    if args.segments:
        print(render_segments(result.decode.segmentation()), file=out)
    if result.rejected:
        print(f"REJECT {matched_fraction(result.template):.3f}", file=out)
        return 0
    if args.template:
        print(result.template.render(), file=out)
    if result.error is not None and (args.emit_sql or args.answer):
        print(f"ERROR {result.error}", file=out)
        return 0
    if args.emit_sql:
        print(plan_query(result.template, artifacts.db).render_sql(), file=out)
    if args.answer:
        for line in result.answer.render_lines():
            print(line, file=out)
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args, out) -> int:
    from .training import FeedbackCorpus

    artifacts = _load_artifacts(args)
    model = _load_model(args.model, artifacts)
    corpus = FeedbackCorpus.load(args.corpus)   # evaluate_corpus checks it
    report = evaluate_corpus(corpus, model, artifacts)
    print(report.render(), file=out)
    return 0


# ---------------------------------------------------------------------------
# repl

def cmd_repl(args, out) -> int:
    artifacts = _load_artifacts(args)
    model = _load_model(args.model, artifacts)
    context = Template()
    if args.script is not None:
        lines = read_lines(args.script)
        echo = True
    else:
        lines = (line.rstrip("\n") for line in sys.stdin)
        echo = False
    for line in lines:
        text = line.strip()
        if not text:
            continue
        if echo:
            print(f"> {text}", file=out)
        if text == ":quit":
            break
        if text == ":reset":
            context = Template()
            print("context cleared", file=out)
            continue
        try:
            turn = understand(text, model, artifacts)
            if turn.rejected:
                print(f"REJECT {matched_fraction(turn.template):.3f}", file=out)
                continue
            context = merge_context(context, turn.template,
                                    artifacts.dictionary)
            print(context.render(), file=out)
            for ans_line in answer(context, artifacts).render_lines():
                print(ans_line, file=out)
        except ChronusError as exc:
            print(f"ERROR {exc}", file=out)
    return 0


# ---------------------------------------------------------------------------
# loop

def cmd_loop(args, out) -> int:
    from .training import run_training_loop

    artifacts = _load_artifacts(args)
    corpus = _load_corpus(args.corpus, artifacts.dictionary)
    if args.model is not None:
        model = _load_model(args.model, artifacts)
    else:
        model, _ = _fit(corpus.seed_segmentations(), artifacts.dictionary,
                        artifacts.lexicon, args.k, None)
    model, report = run_training_loop(corpus, model, artifacts, args.max_iters)
    if args.out is not None:
        save_model(model, args.out)
    print(report.to_text(), end="", file=out)
    return 0


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args, out) -> int:
    import os

    from . import gen as genmod

    rng = random.Random(args.seed)
    os.makedirs(args.out, exist_ok=True)

    def write(name, lines):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")

    if args.kind == "recovery":
        model = genmod.make_recovery_model()
        save_model(model, os.path.join(args.out, "model.txt"))
        train = [genmod.sample_sentence(model, rng) for _ in range(args.train)]
        test = [genmod.sample_sentence(model, rng) for _ in range(args.test)]
        write("train.txt", [s.render() for s in train])
        write("test.txt", [s.render() for s in test])
        print(f"wrote {len(train)} train and {len(test)} test sentences",
              file=out)
    elif args.kind == "superword":
        raw, fused, spans = genmod.superword_effect_corpus(rng, args.train + args.test)
        write("raw.txt", [s.render() for s in raw])
        write("fused.txt", [s.render() for s in fused])
        write("spans.txt", [" ".join(str(w) for w in sp) for sp in spans])
        print(f"wrote {len(raw)} sentence pairs", file=out)
    else:  # alignment; argparse restricts the choices
        model = genmod.make_recovery_model()
        triples = genmod.alignment_corpus(model, rng, args.test)
        write("alignment.txt",
              [" ".join(win) + "\t" + sent.render()
               for _, win, sent in triples])
        print(f"wrote {len(triples)} alignment instances", file=out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="chronus",
                     description="concept-decoding language understanding pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="estimate a model from gold segmentations")
    p.add_argument("--corpus", required=True, action="append",
                   help="corpus with gold segmentations (repeatable)")
    p.add_argument("--concepts", default=None)
    p.add_argument("--lexicon", default=None,
                   help="lexicon whose symbols define the model vocabulary")
    p.add_argument("--k", type=_number(float, 0.0), default=0.001)
    p.add_argument("--synonyms", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="decode one sentence")
    p.add_argument("--model", required=True)
    _add_artifact_args(p)
    p.add_argument("--segments", action="store_true")
    p.add_argument("--template", action="store_true")
    p.add_argument("--answer", action="store_true")
    p.add_argument("--emit-sql", dest="emit_sql", action="store_true")
    p.add_argument("sentence")

    p = sub.add_parser("eval", help="score a corpus with gold and references")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    _add_artifact_args(p)

    p = sub.add_parser("repl", help="interactive multi-turn dialog")
    p.add_argument("--model", required=True)
    p.add_argument("--script", default=None)
    _add_artifact_args(p)

    p = sub.add_parser("loop", help="semi-supervised training from answers")
    p.add_argument("--corpus", required=True)
    seed = p.add_mutually_exclusive_group()   # a seed model has its own k
    seed.add_argument("--model", default=None,
                      help="seed model (default: train from corpus golds)")
    seed.add_argument("--k", type=_number(float, 0.0), default=0.001)
    p.add_argument("--max-iters", dest="max_iters", type=_number(int, 1),
                   default=20)
    p.add_argument("--out", default=None)
    _add_artifact_args(p)

    p = sub.add_parser("gen", help="generate synthetic test corpora")
    p.add_argument("kind", choices=["recovery", "superword", "alignment"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train", type=_number(int, 0), default=2000)
    p.add_argument("--test", type=_number(int, 0), default=500)
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "train": cmd_train,
    "decode": cmd_decode,
    "eval": cmd_eval,
    "repl": cmd_repl,
    "loop": cmd_loop,
    "gen": cmd_gen,
}


_parser = None   # built by the first main call; parsing leaves it unchanged
# what str.splitlines() breaks at, as Python escapes: one line per error
_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None, out=None) -> int:
    global _parser
    out = out if out is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}".translate(_BREAKS), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args, out)
    except (OSError, ChronusError) as exc:
        print(f"data error: {exc}".translate(_BREAKS), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
