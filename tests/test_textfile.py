"""The shared data-file syntax: every reader reports bad input as
``path:line: message``, and the writers' output reads back unchanged."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chronus.cli import main
from chronus.errors import DataFormatError
from chronus.gen import make_recovery_model, random_trained_model
from chronus.model import SegmentedSentence, model_from_text, model_to_text
from chronus.pipeline import data_path
from chronus.query import Answer
from chronus.textfile import records
from chronus.training import FeedbackCorpus, FeedbackEntry

from helpers import TESTS_DATA


def test_records_skips_comments_and_numbers_lines():
    lines = ["# note", "", "top", "[a b]", "  # indented note", "x\ty", "[c]"]
    assert list(records(lines)) == [
        (3, None, "top"), (4, "a b", None), (6, "a b", "x\ty"), (7, "c", None)]


def test_records_checks_the_magic_line():
    assert list(records(["v1", "x"], magic="v1")) == [(2, None, "x")]
    with pytest.raises(DataFormatError) as info:
        list(records(["v2"], "f.txt", magic="v1"))
    assert str(info.value) == "f.txt:1: missing v1 header"


def _with_line(text, anchor, line):
    """``text`` with ``line`` inserted after the first line equal to
    ``anchor``, and the inserted line's number."""
    lines = text.splitlines()
    at = lines.index(anchor) + 1
    lines.insert(at, line)
    return "\n".join(lines) + "\n", at + 1


RECOVERY_TEXT = model_to_text(make_recovery_model())


def _model(anchor, line):
    return _with_line(RECOVERY_TEXT, anchor, line)


def _repeated(text, section, offset):
    """``text`` with the line ``offset`` lines below ``section`` given twice,
    and the second copy's line number."""
    lines = text.splitlines()
    line = lines[lines.index(section) + offset]
    return _with_line(text, line, line)


def _bundled(name, anchor, line):
    return _with_line(data_path(name).read_text(encoding="utf-8"), anchor, line)


FIRST_BIGRAM = f"[bigram {make_recovery_model().dictionary.names[0]}]"
CORPUS = "[sentence x01]\ntext\tSHOW\ngold\tSHOW:question\n"

# (name, option naming the bad file, (bad text, its bad line), message)
MALFORMED = [
    ("model-probability", "--model",
     _model("[initial]", "<s>\t</s>\tabc"), "probability 'abc' is not a number"),
    ("model-k", "--model",
     _model("chronus-model v2", "k\tsmall"), "k 'small' is not a number"),
    ("model-bigram-concept", "--model",
     _model("[initial]", "[bigram zzz]"), "unknown concept 'zzz'"),
    ("model-transition-row", "--model",
     _model("[transition]", "zzz\t</s>\t0.5"), "unknown transition row 'zzz'"),
    ("model-bigram-symbol", "--model",
     _model(FIRST_BIGRAM, "<s>\tZZZ\t0.5"), "symbol 'ZZZ' is not in [vocab]"),
    ("model-repeated-default", "--model",
     _repeated(RECOVERY_TEXT, "[initial]", 1),
     "row '<s>' has a second default line"),
    ("model-repeated-exception", "--model",
     _repeated(RECOVERY_TEXT, "[initial]", 2),
     "row '<s>' repeats column '</s>'"),
    ("model-repeated-count", "--model",
     _repeated(model_to_text(random_trained_model(random.Random(1))),
               "[counts initial]", 1),
     "row '<s>' repeats column 'and'"),
    ("model-repeated-vocab", "--model",
     _repeated(RECOVERY_TEXT, "[vocab]", 1), "repeated [vocab] symbol 'w00'"),
    ("model-repeated-concept", "--model",
     _repeated(RECOVERY_TEXT, "[concepts]", 1), "repeated concept 'c0'"),
    ("model-v1-probability", "--model",
     _with_line((TESTS_DATA / "model_v1_small.txt").read_text(encoding="utf-8"),
                "[initial]", "<s>\tsubject\t1.5"),
     "probability 1.5 is not in [0.0, 1.0]"),
    ("db-cell", "--db",
     _bundled("db.txt", "[table flight]",
              "f99\tAA\tabc\tBBOS\tDDFW\t480\t720\tDC10\tNONE"),
     "flight.number 'abc' is not a number"),
    ("values-header", "--values",
     _bundled("values.txt", "[concept subject]", "[concept origin"),
     "unterminated section header"),
    ("conventions-key", "--conventions",
     _bundled("conventions.txt", "[defaults]", "reject-treshold\t0.2"),
     "unknown default 'reject-treshold'"),
    ("conventions-subject", "--conventions",
     _bundled("conventions.txt", "[defaults]", "subject\tflgiht"),
     "no table rule for subject 'flgiht'"),
    ("corpus-header", "--corpus",
     (CORPUS + "[sentence d01\n", 4), "unterminated section header"),
    ("corpus-gold", "--corpus",
     ("[sentence x01]\ntext\tSHOW\ngold\tSHOW\n", 3),
     "bad word:concept pair 'SHOW'"),
    ("corpus-refs", "--corpus",
     ("[sentence x01]\ntext\tSHOW\nrefmin\tAA\n", 3),
     "refmin needs a matching refs line before it"),
    ("concepts-rank", "--concepts",
     _bundled("concepts.txt", "subject\tsubject\t1", "extra\tsubject\tmany"),
     "rank 'many' is not a number"),
    ("synonyms", "--synonyms",
     ("# concept<TAB>word<TAB>word...\norigin\tLEAVE(S)\n", 2),
     "synonym line needs a concept and two or more words"),
]


@pytest.mark.parametrize("option,bad,message",
                         [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_file_is_a_data_error_naming_path_and_line(
        tmp_path, capsys, demo_model_path, option, bad, message):
    text, line = bad
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    if option == "--synonyms":
        argv = ["train", "--corpus", str(data_path("demo_corpus.txt")),
                "--synonyms", str(path), "--out", str(tmp_path / "model.txt")]
    elif option == "--corpus":
        argv = ["eval", "--model", demo_model_path, "--corpus", str(path)]
    else:
        argv = ["decode", "--model", demo_model_path, option, str(path),
                "SHOW ME THE FLIGHTS"]
        if option == "--model":
            argv[2] = str(path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {path}:{line}: {message}\n"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from([0.0, 0.001]),
       n_concepts=st.integers(1, 5), n_words=st.integers(1, 8))
def test_model_text_is_a_fixed_point(seed, k, n_concepts, n_words):
    model = random_trained_model(random.Random(seed), n_concepts, n_words, k)
    text = model_to_text(model)
    assert model_to_text(model_from_text(text)) == text


def _v1_text(model):
    """The model as the v1 writer wrote it: a ``floor`` header and every
    nonzero column of every row, without counts."""
    lines = ["chronus-model v1", f"k\t{model.k!r}", "floor\t0", "[concepts]",
             *model.dictionary.to_lines(), "[vocab]", *model.vocab]
    tables = [("initial", {"<s>": model.initial}),
              ("transition", model.transition)]
    tables += [(f"bigram {c}", t) for c, t in model.bigram.items()]
    for header, table in tables:
        lines.append(f"[{header}]")
        lines.extend(f"{r}\t{c}\t{p:.11e}" for r in sorted(table)
                     for c, p in sorted(table[r].items()))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from([0.0, 0.001]),
       n_concepts=st.integers(1, 5), n_words=st.integers(1, 8))
def test_v1_text_reads_as_the_same_model(seed, k, n_concepts, n_words):
    model = random_trained_model(random.Random(seed), n_concepts, n_words, k)
    model.counts = None   # v1 files hold no counts
    assert model_to_text(model_from_text(_v1_text(model))) \
        == model_to_text(model)


_FIELD = st.text(st.characters(whitelist_categories=("Lu", "Nd"),
                               whitelist_characters="()'"),
                 min_size=1, max_size=8)
_ROW = st.lists(_FIELD, min_size=1, max_size=4).map(tuple)


@st.composite
def _references(draw):
    kind = draw(st.sampled_from(["rows", "number", "boolean"]))
    if kind == "rows":
        return (Answer(kind="rows", rows=draw(st.lists(_ROW, max_size=3))),
                Answer(kind="rows", rows=draw(st.lists(_ROW, max_size=3))))
    value = (draw(st.integers(0, 999).map(str)) if kind == "number"
             else draw(st.booleans()))
    return Answer(kind=kind, value=value), Answer(kind=kind, value=value)


_GOLD = st.lists(st.tuples(
    st.sampled_from(["SHOW", "FLIGHT(S)", "((city)BOSTON)", "((number)37)"]),
    st.sampled_from(["question", "origin", "depart-time"])),
    min_size=1, max_size=5).map(
        lambda pairs: SegmentedSentence.parse(
            "\t".join(f"{w}:{c}" for w, c in pairs)))


@st.composite
def _entries(draw):
    entries = []
    for i in range(draw(st.integers(1, 4))):
        gold = draw(st.none() | _GOLD)
        refs = draw(_references() if gold is None else st.none() | _references())
        refmin, refmax = refs if refs is not None else (None, None)
        entries.append(FeedbackEntry(
            ident=f"s{i}", text=" ".join(draw(st.lists(_FIELD, max_size=5))),
            win=draw(st.none() | _FIELD), gold=gold,
            refmin=refmin, refmax=refmax))
    return entries


@settings(max_examples=100, deadline=None)
@given(_entries())
def test_feedback_corpus_text_round_trips(entries):
    corpus = FeedbackCorpus(entries)
    again = FeedbackCorpus.from_lines(corpus.to_text().splitlines())
    assert again.entries == corpus.entries
    assert again.to_text() == corpus.to_text()
