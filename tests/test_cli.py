import io
import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chronus import cli, pipeline
from chronus.cli import main
from chronus.errors import ChronusError, DataFormatError
from chronus.model import (ConceptHmm, apply_synonym_smoothing, canonical_row,
                           load_model, load_synonyms, model_to_text,
                           render_segments, train_mle)
from chronus.pipeline import (TurnResult, answer, data_path, evaluate_corpus,
                              run_turn)
from chronus.query import Answer
from chronus.template import Template
from chronus.training import FeedbackCorpus, FeedbackEntry

from helpers import TESTS_DATA, count_full, train_full


def run_cli(argv):
    buf = io.StringIO()
    rc = main(argv, out=buf)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# train

def test_train_writes_model_and_reports_sizes(tmp_path, artifacts):
    out = tmp_path / "model.txt"
    rc, text = run_cli(["train", "--corpus", str(data_path("semi_corpus.txt")),
                        "--out", str(out)])
    assert rc == 0
    corpus = FeedbackCorpus.load(data_path("semi_corpus.txt"))
    counts = count_full(corpus.seed_segmentations(), artifacts)
    expected = train_mle(counts, 0.001)
    assert text == (f"rows\t{expected.row_count()}\n"
                    f"nonzero\t{counts.nonzero_bigrams()}\n")
    assert model_to_text(load_model(out)) == model_to_text(expected)


def test_train_accepts_multiple_corpora(tmp_path, demo_model):
    out = tmp_path / "model.txt"
    rc, text = run_cli(["train",
                        "--corpus", str(data_path("demo_corpus.txt")),
                        "--corpus", str(data_path("seed_corpus.txt")),
                        "--out", str(out)])
    assert rc == 0
    # 15 concepts x 76 contexts + 15 transition rows + the initial row,
    # whether a bigram row is stored or reads the unseen row
    assert text == "rows\t1156\nnonzero\t100\n"
    assert model_to_text(load_model(out)) == model_to_text(demo_model)


def test_train_applies_synonyms_and_checks_normalization(tmp_path):
    out = tmp_path / "model.txt"
    rc, text = run_cli(["train",
                        "--corpus", str(data_path("demo_corpus.txt")),
                        "--corpus", str(data_path("seed_corpus.txt")),
                        "--synonyms", str(data_path("synonyms.txt")),
                        "--out", str(out)])
    assert rc == 0
    assert text == ("synonyms applied; all rows normalized\n"
                    "rows\t1156\nnonzero\t100\n")
    model = load_model(out)
    table = model.bigram["origin"]
    assert table["DEPART(S)"] == table["LEAVE(S)"]


def test_train_refuses_a_smoothed_row_that_is_not_normalized(
        tmp_path, capsys, monkeypatch):
    # a fault injected into the smoothing: the initial row loses half its mass
    def halve_initial(model, groups, counts):
        initial = canonical_row({c: p / 2 for c, p in model.initial.items()},
                                0.0, model.initial.columns)
        return ConceptHmm(model.dictionary, model.vocab, model.k, initial,
                          model.transition, model.bigram)

    monkeypatch.setattr(cli, "apply_synonym_smoothing", halve_initial)
    out = tmp_path / "model.txt"
    rc, text = run_cli(["train", "--corpus", DEMO_CORPUS,
                        "--synonyms", str(data_path("synonyms.txt")),
                        "--out", str(out)])
    assert (rc, text) == (2, "")
    assert capsys.readouterr().err == \
        "data error: row initial is no longer normalized\n"
    assert not out.exists()


def test_train_needs_gold_segmentations(tmp_path, demo_model_path, capsys):
    # train, loop and loop --model refuse a corpus without gold one way
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[sentence x]\ntext\tSHOW ME\nrefs\trows\n")
    for argv in (["train", "--out", str(tmp_path / "m.txt")], ["loop"],
                 ["loop", "--model", demo_model_path]):
        rc, text = run_cli(argv + ["--corpus", str(corpus)])
        assert (rc, text) == (2, "")
        assert capsys.readouterr().err == (
            "data error: training corpus has no gold segmentations\n")


# ---------------------------------------------------------------------------
# decode

def test_decode_default_prints_template(demo_model_path):
    rc, text = run_cli(["decode", "--model", demo_model_path,
                        "SHOW ME THE FLIGHTS TO BOSTON"])
    assert rc == 0
    assert text == "(question,display) (subject,flight) (destin,BBOS)\n"


def test_decode_segments_flag(demo_model_path):
    rc, text = run_cli(["decode", "--model", demo_model_path, "--segments",
                        "SHOW ME THE FLIGHTS FROM SAN FRANCISCO"])
    assert rc == 0
    assert text.splitlines()[0] == \
        "question:[SHOW ME] subject:[FLIGHT(S)] origin:[FROM ((city)SANFRANCISCO)]"


def test_decode_answer_matches_pipeline(demo_model_path, demo_model, artifacts):
    sentence = "WHAT ARE THE FARES FROM BOSTON TO DALLAS"
    rc, text = run_cli(["decode", "--model", demo_model_path,
                        "--template", "--answer", sentence])
    assert rc == 0
    turn = run_turn(sentence, demo_model, artifacts)
    expected = [turn.template.render()] + turn.answer.render_lines()
    assert text.splitlines() == expected


def test_decode_emit_sql_is_rendering_only(demo_model_path):
    rc, text = run_cli(["decode", "--model", demo_model_path, "--emit-sql",
                        "SHOW ME THE FLIGHTS TO BOSTON"])
    assert rc == 0
    assert text.startswith("SELECT ") and "to_city" in text


@pytest.mark.parametrize("flags", [["--emit-sql"], ["--answer"],
                                   ["--emit-sql", "--answer"]])
def test_decode_reports_plan_error_once_for_sql_and_answer(
        demo_model_path, tmp_path, flags):
    conventions = tmp_path / "conventions.txt"
    conventions.write_text("[time]\nmorning\t0\t720\n[defaults]\n"
                           "subject\tflight\n")
    rc, text = run_cli(["decode", "--model", demo_model_path, "--conventions",
                        str(conventions)] + flags
                       + ["SHOW ME THE FLIGHTS FROM BOSTON IN THE EVENING"])
    assert rc == 0
    assert text == "ERROR no time convention for 'evening'\n"


def test_decode_rejects_contentless_sentence(demo_model_path):
    rc, text = run_cli(["decode", "--model", demo_model_path,
                        "CONCERNING INFORMATION PLEASE"])
    assert rc == 0
    assert text == "REJECT 0.000\n"


def test_decode_all_stop_words_is_data_error(demo_model_path):
    rc, _ = run_cli(["decode", "--model", demo_model_path, "THE A AN"])
    assert rc == 2


def test_missing_model_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "nope.txt"
    rc, _ = run_cli(["decode", "--model", str(path), "SHOW"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"data error: [Errno 2] No such file or directory: '{path}'\n")


@pytest.mark.parametrize("command", [
    ["decode", "SHOW ME GIZMO FLIGHTS FROM BOSTON TO DALLAS"],
    ["eval", "--corpus", str(data_path("demo_corpus.txt"))],
    ["repl", "--script", str(TESTS_DATA / "repl_script1.txt")],
    ["loop", "--corpus", str(data_path("semi_corpus.txt"))],
], ids=["decode", "eval", "repl", "loop"])
def test_model_missing_a_lexicon_symbol_is_data_error(
        command, demo_model_path, tmp_path, capsys):
    bundled = data_path("lexicon.txt").read_text(encoding="utf-8")
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text(bundled.replace("[words]\n", "[words]\nGIZMO\n", 1),
                       encoding="utf-8")
    argv = command[:1] + ["--model", demo_model_path,
                          "--lexicon", str(lexicon)] + command[1:]
    assert main(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err == (
        f"data error: {demo_model_path}: lexicon symbol 'GIZMO' "
        "is not in the model's [vocab]\n")


@pytest.mark.parametrize("command", [
    ["decode", "SHOW ME THE FLIGHTS TO BOSTON"],
    ["eval", "--corpus", str(data_path("demo_corpus.txt"))],
], ids=["decode", "eval"])
def test_model_with_other_concepts_is_data_error(
        command, demo_model_path, tmp_path, capsys):
    # the model calls destin "dest"; without the check, decode fails on a
    # template label and eval silently rejects every trip to a destination
    text = Path(demo_model_path).read_text(encoding="utf-8")
    model = tmp_path / "model.txt"
    model.write_text(re.sub(r"\bdestin\b", "dest", text), encoding="utf-8")
    argv = command[:1] + ["--model", str(model)] + command[1:]
    assert main(argv, out=io.StringIO()) == 2
    assert capsys.readouterr().err == (
        f"data error: {model}: [concepts] has 'dest\\trestriction\\t0' "
        "where the concepts file has 'destin\\trestriction\\t0'\n")


# A sentence whose only segment matches no value pattern: the bundled
# conventions' threshold rejects it, and ``--threshold 0`` lets it through.
UNMATCHED = "CONCERNING INFORMATION PLEASE"


def test_decode_threshold_overrides_the_conventions(demo_model_path):
    argv = ["decode", "--model", demo_model_path, UNMATCHED]
    assert run_cli(argv) == (0, "REJECT 0.000\n")
    rc, text = run_cli(argv[:3] + ["--threshold", "0"] + argv[3:])
    assert rc == 0 and text == "\n"   # the empty template, not REJECT


def test_usage_errors_exit_1():
    assert main(["decode"], out=io.StringIO()) == 1
    assert main(["frobnicate"], out=io.StringIO()) == 1


@pytest.mark.parametrize("command", [
    ["decode", "--model", "m.txt", "SHOW ME"],
    ["eval", "--model", "m.txt", "--corpus", "c.txt"],
    ["repl", "--model", "m.txt"],
    ["loop", "--corpus", "c.txt"],
])
@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "high"])
def test_threshold_outside_unit_interval_is_usage_error(command, value,
                                                        capsys):
    argv = command[:1] + ["--threshold", value] + command[1:]
    assert main(argv, out=io.StringIO()) == 1
    assert capsys.readouterr().err.startswith("usage error: argument --threshold")


DEMO_CORPUS = str(data_path("demo_corpus.txt"))
SEMI_CORPUS = str(data_path("semi_corpus.txt"))

# (id, argv, exit code, the one stderr line); {dir} is an existing
# directory and {file} an existing file
BAD_INVOCATIONS = [
    ("train-k-negative",
     ["train", "--corpus", DEMO_CORPUS, "--k", "-0.001", "--out", "{dir}/m"],
     1, "usage error: argument --k: value -0.001 is not in [0.0, inf]"),
    ("train-k-inf",
     ["train", "--corpus", DEMO_CORPUS, "--k", "inf", "--out", "{dir}/m"],
     1, "usage error: argument --k: value inf is not finite"),
    ("train-k-minus-one",
     ["train", "--corpus", DEMO_CORPUS, "--k", "-1", "--out", "{dir}/m"],
     1, "usage error: argument --k: value -1 is not in [0.0, inf]"),
    ("loop-k-negative", ["loop", "--corpus", SEMI_CORPUS, "--k", "-0.5"],
     1, "usage error: argument --k: value -0.5 is not in [0.0, inf]"),
    ("loop-k-nan", ["loop", "--corpus", SEMI_CORPUS, "--k", "nan"],
     1, "usage error: argument --k: value nan is not in [0.0, inf]"),
    ("loop-model-and-k",
     ["loop", "--corpus", SEMI_CORPUS, "--model", "{file}", "--k", "0.5"],
     1, "usage error: argument --k: not allowed with argument --model"),
    ("loop-max-iters-zero",
     ["loop", "--corpus", SEMI_CORPUS, "--max-iters", "0"],
     1, "usage error: argument --max-iters: value 0 is not in [1, inf]"),
    ("loop-max-iters-word",
     ["loop", "--corpus", SEMI_CORPUS, "--max-iters", "many"],
     1, "usage error: argument --max-iters: value 'many' is not a number"),
    ("gen-train-negative",
     ["gen", "recovery", "--train", "-3", "--out", "{dir}/g"],
     1, "usage error: argument --train: value -3 is not in [0, inf]"),
    ("gen-test-negative",
     ["gen", "alignment", "--test", "-1", "--out", "{dir}/g"],
     1, "usage error: argument --test: value -1 is not in [0, inf]"),
    ("train-out-directory",
     ["train", "--corpus", DEMO_CORPUS, "--out", "{dir}"],
     2, "data error: [Errno 21] Is a directory: '{dir}'"),
    ("decode-model-directory", ["decode", "--model", "{dir}", "SHOW"],
     2, "data error: [Errno 21] Is a directory: '{dir}'"),
    ("loop-out-in-missing-directory",
     ["loop", "--corpus", SEMI_CORPUS, "--out", "{dir}/missing/m.txt"],
     2, "data error: [Errno 2] No such file or directory: "
        "'{dir}/missing/m.txt'"),
    ("gen-out-existing-file", ["gen", "recovery", "--out", "{file}"],
     2, "data error: [Errno 17] File exists: '{file}'"),
]


@pytest.mark.parametrize("argv,code,err",
                         [case[1:] for case in BAD_INVOCATIONS],
                         ids=[case[0] for case in BAD_INVOCATIONS])
def test_bad_invocation_exits_with_one_error_line_and_no_output(
        tmp_path, capsys, argv, code, err):
    (tmp_path / "file.txt").write_text("kept\n", encoding="utf-8")
    names = {"dir": str(tmp_path), "file": str(tmp_path / "file.txt")}
    rc, out = run_cli([arg.format(**names) for arg in argv])
    assert (rc, out) == (code, "")
    assert capsys.readouterr().err == err.format(**names) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", "{corpus}", "--out", "{dir}/m.txt"],
    ["loop", "--corpus", "{corpus}", "--out", "{dir}/m.txt"],
    ["eval", "--model", "{model}", "--corpus", "{corpus}"],
], ids=["train", "loop", "eval"])
def test_gold_label_that_is_not_a_concept_is_a_data_error_at_its_entry(
        argv, tmp_path, capsys, demo_model_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[sentence x01]\ntext\tSHOW\ngold\tSHOW:question\n"
                      "[sentence x02]\ntext\tSHOW\ngold\tSHOW:bogus\n",
                      encoding="utf-8")
    names = {"corpus": str(corpus), "dir": str(tmp_path),
             "model": demo_model_path}
    rc, out = run_cli([arg.format(**names) for arg in argv])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == (
        f"data error: {corpus}:4: sentence x02: segmentation label not in "
        "concept dictionary: 'bogus'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]


@pytest.mark.parametrize("refs,line,message", [
    ("refs\tnumber\nrefvalue\t3\n", 6, "unknown reference kind 'number'"),
    ("refs\tboolean\nrefvalue\tyes\n", 7,
     "refvalue 'yes' is not YES or NO"),
], ids=["refs-number", "refvalue-yes"])
@pytest.mark.parametrize("command", ["train", "loop"])
def test_a_reference_no_answer_can_meet_is_a_data_error_at_its_line(
        command, refs, line, message, tmp_path, capsys):
    # eval's refusals are MALFORMED cases in test_textfile.py
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[sentence x01]\ntext\tSHOW\ngold\tSHOW:question\n"
                      "[sentence x02]\ntext\tIS BREAKFAST SERVED\n" + refs,
                      encoding="utf-8")
    rc, out = run_cli([command, "--corpus", str(corpus),
                       "--out", str(tmp_path / "m.txt")])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == \
        f"data error: {corpus}:{line}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.txt"]


def test_eval_checks_each_gold_label_once(monkeypatch, demo_model_path):
    calls = []
    check = FeedbackCorpus.check_labels
    monkeypatch.setattr(FeedbackCorpus, "check_labels",
                        lambda self, dictionary: calls.append(self.path) or
                        check(self, dictionary))
    rc, _ = run_cli(["eval", "--model", demo_model_path, "--corpus", DEMO_CORPUS])
    assert rc == 0
    assert calls == [DEMO_CORPUS]


def test_evaluate_corpus_names_the_file_and_line_of_a_bad_gold_label(
        tmp_path, demo_model, artifacts):
    path = tmp_path / "corpus.txt"
    path.write_text("[sentence x01]\ntext\tSHOW\ngold\tSHOW:question\n"
                    "[sentence x02]\ntext\tSHOW\ngold\tSHOW:bogus\n",
                    encoding="utf-8")
    corpus = FeedbackCorpus.load(path)
    assert corpus.path == str(path)
    with pytest.raises(DataFormatError) as info:
        evaluate_corpus(corpus, demo_model, artifacts)
    assert str(info.value) == (f"{path}:4: sentence x02: segmentation label "
                               "not in concept dictionary: 'bogus'")


@pytest.mark.parametrize("argv", [
    ["decode", "--model", "{model}", "--concepts", "{bad}", "SHOW"],
    ["decode", "--model", "{model}", "--lexicon", "{bad}", "SHOW"],
    ["decode", "--model", "{model}", "--values", "{bad}", "SHOW"],
    ["decode", "--model", "{model}", "--db", "{bad}", "SHOW"],
    ["decode", "--model", "{model}", "--conventions", "{bad}", "SHOW"],
    ["decode", "--model", "{bad}", "SHOW"],
    ["eval", "--model", "{model}", "--corpus", "{bad}"],
    ["train", "--corpus", "{bad}", "--out", "{dir}/m.txt"],
    ["train", "--corpus", DEMO_CORPUS, "--synonyms", "{bad}",
     "--out", "{dir}/m.txt"],
    ["repl", "--model", "{model}", "--script", "{bad}"],
], ids=["concepts", "lexicon", "values", "db", "conventions", "model",
        "eval-corpus", "train-corpus", "synonyms", "script"])
def test_file_that_is_not_utf8_is_a_data_error_naming_it(
        argv, tmp_path, capsys, demo_model_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# \xff\n")
    names = {"model": demo_model_path, "bad": str(bad), "dir": str(tmp_path)}
    rc, out = run_cli([arg.format(**names) for arg in argv])
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == (
        f"data error: {bad}: not UTF-8 text (invalid start byte)\n")


@pytest.mark.parametrize("argv", [
    ["train", "--corpus", DEMO_CORPUS, "--concepts", "", "--out", "{dir}/m"],
    ["train", "--corpus", DEMO_CORPUS, "--lexicon", "", "--out", "{dir}/m"],
    ["train", "--corpus", DEMO_CORPUS, "--synonyms", "", "--out", "{dir}/m"],
    ["loop", "--corpus", SEMI_CORPUS, "--model", ""],
    ["loop", "--corpus", SEMI_CORPUS, "--out", ""],
    ["repl", "--model", "{model}", "--script", ""],
], ids=["train-concepts", "train-lexicon", "train-synonyms", "loop-model",
        "loop-out", "repl-script"])
def test_an_empty_path_option_is_opened_not_ignored(
        argv, tmp_path, capsys, demo_model_path):
    names = {"model": demo_model_path, "dir": str(tmp_path)}
    rc, _ = run_cli([arg.format(**names) for arg in argv])
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error: [Errno 2] No such file or directory: ''\n")
    assert not any(tmp_path.iterdir())


def test_calls_in_one_process_share_one_parser_and_no_state(
        demo_model_path, tmp_path, monkeypatch, capsys):
    model = ["--model", demo_model_path]
    calls = [
        ["frobnicate"],
        ["decode", *model, "--threshold", "1.5", UNMATCHED],
        ["train", "--corpus", DEMO_CORPUS,
         "--corpus", str(data_path("seed_corpus.txt")),
         "--out", str(tmp_path / "two.txt")],
        ["train", "--corpus", SEMI_CORPUS, "--out", str(tmp_path / "one.txt")],
        ["decode", *model, "--threshold", "1.0", "SHOW ME THE FLIGHTS"],
        ["decode", *model, "SHOW ME THE FLIGHTS"],
        ["decode", *model, "--threshold", "0", UNMATCHED],
        ["decode", *model, UNMATCHED],
        ["eval", *model, "--corpus", DEMO_CORPUS],
        ["--help"],
    ]

    def run(argv):
        buf = io.StringIO()
        try:
            rc = main(argv, out=buf)
        except SystemExit as exc:   # --help
            rc = exc.code
        std = capsys.readouterr()
        return rc, buf.getvalue(), std.out, std.err

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert fresh[6] != fresh[7]   # the threshold given once does not stay

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(argv) for argv in calls] == fresh
    assert len(built) == 1


# ---------------------------------------------------------------------------
# eval

def test_eval_demo_corpus_is_clean(demo_model_path):
    rc, text = run_cli(["eval", "--model", demo_model_path,
                        "--corpus", str(data_path("demo_corpus.txt"))])
    assert rc == 0
    report = dict(line.split("\t") for line in text.splitlines())
    assert report["concept_accuracy"] == "100.0"
    assert report["sentence_accuracy"] == "100.0"
    assert report["answers_correct"] == "100.0"
    assert report["answers_wrong"] == "0.0"
    assert report["answers_rejected"] == "0.0"
    for cat in ("decoding", "template", "translator"):
        assert report[f"errors_{cat}"] == "0"
    assert "errors_dialog" not in report


def test_eval_threshold_overrides_the_conventions(demo_model_path):
    argv = ["eval", "--model", demo_model_path,
            "--corpus", str(data_path("semi_corpus.txt"))]
    reports = [dict(line.split("\t") for line in run_cli(a)[1].splitlines())
               for a in (argv, argv + ["--threshold", "0"])]
    # the one referenced sentence rejected by default is answered, wrongly
    assert [r["answers_rejected"] for r in reports] == ["16.7", "0.0"]
    assert [r["answers_wrong"] for r in reports] == ["0.0", "16.7"]


def test_eval_breakdown_sums_to_hundred(demo_model, demo_corpus, artifacts):
    report = evaluate_corpus(demo_corpus, demo_model, artifacts)
    for value in (report.concept_accuracy, report.sentence_accuracy,
                  report.answers_correct, report.answers_wrong,
                  report.answers_rejected):
        assert 0.0 <= value <= 100.0
    total = (report.answers_correct + report.answers_wrong
             + report.answers_rejected)
    assert total == pytest.approx(100.0, abs=0.1)


def test_eval_counts_stop_word_only_sentence_as_rejected(demo_model,
                                                        artifacts):
    refs = Answer(kind="rows", rows=[])
    entries = [FeedbackEntry(ident="s", text="THE A AN", refmin=refs,
                             refmax=refs),
               FeedbackEntry(ident="d", text="SHOW ME THE FLIGHTS TO BOSTON",
                             refmin=refs, refmax=refs)]
    report = evaluate_corpus(FeedbackCorpus(entries), demo_model, artifacts)
    assert report.answers_rejected == 50.0
    assert report.answers_wrong == 50.0
    assert report.answers_correct == 0.0


def test_eval_refuses_a_gold_label_that_is_not_a_concept(
        demo_model, demo_corpus, artifacts):
    # the check eval, train and loop make when they read a corpus file,
    # without the file's path and line
    first, *rest = demo_corpus.entries
    assert first.ident == "d01"
    gold = replace(first.gold, labels=("bogus", *first.gold.labels[1:]))
    corpus = FeedbackCorpus([replace(first, gold=gold), *rest])
    with pytest.raises(ChronusError, match="^sentence d01: segmentation label "
                       "not in concept dictionary: 'bogus'$"):
        evaluate_corpus(corpus, demo_model, artifacts)


def test_eval_accuracy_arithmetic_for_one_flipped_label(demo_model, artifacts):
    pairs = [("BOSTON", "DALLAS"), ("BOSTON", "DENVER"), ("DALLAS", "ATLANTA"),
             ("DENVER", "OAKLAND"), ("ATLANTA", "PITTSBURGH"),
             ("OAKLAND", "BOSTON"), ("PHILADELPHIA", "BALTIMORE"),
             ("PITTSBURGH", "DALLAS"), ("BALTIMORE", "DENVER"),
             ("DENVER", "ATLANTA")]
    entries = []
    for i, (a, b) in enumerate(pairs):
        text = f"SHOW ME THE FLIGHTS FROM {a} TO {b}"
        turn = run_turn(text, demo_model, artifacts)
        gold = turn.decode.segmentation()
        assert len(gold.segments()) == 4
        if i == 0:
            # flip the final segment's label: one of forty segments disagrees
            labels = list(gold.labels)
            labels = ["airline" if l == "destin" else l for l in labels]
            gold = type(gold)(gold.words, tuple(labels))
        entries.append(FeedbackEntry(ident=f"e{i}", text=text, gold=gold))
    report = evaluate_corpus(FeedbackCorpus(entries), demo_model, artifacts)
    assert report.concept_accuracy == pytest.approx(100.0 * 39 / 40)
    assert report.sentence_accuracy == pytest.approx(90.0)
    # nothing carries references: the answer breakdown defaults to rejected
    assert report.answers_correct == 0.0
    assert report.answers_rejected == 100.0


def _wrong_answer_entry(kind, demo_model, artifacts):
    """A sentence answered wrongly, with a gold that makes ``kind`` the
    first stage to diverge from it."""
    text = "SHOW ME THE FLIGHTS FROM BOSTON TO DALLAS"
    gold = run_turn(text, demo_model, artifacts).decode.segmentation()
    if kind == "decoding":
        gold = replace(gold, labels=tuple(
            "airline" if label == "destin" else label for label in gold.labels))
    elif kind == "template":
        # same segments, but the gold heard DENVER where the text says DALLAS
        other = run_turn(text.replace("DALLAS", "DENVER"), demo_model,
                         artifacts).decode.segmentation()
        assert other.segments() == gold.segments()
        gold = other
    elif kind == "translator-no-gold":
        gold = None
    # references no plan of the decoded template can meet
    refs = Answer(kind="rows", rows=[("XX", "0", "XXXX", "XXXX", "0", "0")])
    return FeedbackEntry(ident=kind, text=text, gold=gold, refmin=refs,
                         refmax=refs)


@pytest.mark.parametrize("kind,error", [
    ("decoding", "decoding"), ("template", "template"),
    ("translator", "translator"), ("translator-no-gold", "translator")])
def test_eval_classifies_a_wrong_answer_by_its_first_divergent_stage(
        demo_model, artifacts, kind, error):
    entry = _wrong_answer_entry(kind, demo_model, artifacts)
    report = evaluate_corpus(FeedbackCorpus([entry]), demo_model, artifacts)
    assert report.answers_wrong == 100.0
    assert report.errors == {"decoding": 0, "template": 0, "translator": 0,
                             error: 1}


# ---------------------------------------------------------------------------
# repl

@pytest.mark.parametrize("script,golden", [
    ("repl_script1.txt", "repl_golden1.txt"),
    ("repl_script2.txt", "repl_golden2.txt"),
])
def test_repl_matches_golden_transcript(demo_model_path, script, golden):
    rc, text = run_cli(["repl", "--model", demo_model_path,
                        "--script", str(TESTS_DATA / script)])
    assert rc == 0
    assert text == (TESTS_DATA / golden).read_text()


def test_repl_decodes_each_sentence_once(demo_model_path, monkeypatch):
    calls = []
    decode = pipeline.viterbi_decode_lattice

    def counted(model, lattice):
        calls.append(lattice.n_positions)
        return decode(model, lattice)

    monkeypatch.setattr(pipeline, "viterbi_decode_lattice", counted)
    script = TESTS_DATA / "repl_script1.txt"
    rc, text = run_cli(["repl", "--model", demo_model_path,
                        "--script", str(script)])
    assert rc == 0
    assert text == (TESTS_DATA / "repl_golden1.txt").read_text()
    sentences = [l for l in script.read_text().splitlines()
                 if l.strip() and not l.startswith(":")]
    assert len(calls) == len(sentences) == 4


def test_repl_reports_plan_error_after_merged_template(demo_model_path,
                                                       tmp_path, monkeypatch):
    plan = pipeline.plan_query
    failures = ["no rule for this test"]

    def fails_once(template, db):
        if failures:
            raise ChronusError(failures.pop())
        return plan(template, db)

    monkeypatch.setattr(pipeline, "plan_query", fails_once)
    script = tmp_path / "script.txt"
    script.write_text("SHOW ME THE FLIGHTS FROM BOSTON\n"
                      "SHOW ME THE FLIGHTS FROM DENVER\n:quit\n")
    rc, text = run_cli(["repl", "--model", demo_model_path,
                        "--script", str(script)])
    assert rc == 0
    assert text.splitlines() == [
        "> SHOW ME THE FLIGHTS FROM BOSTON",
        "(question,display) (subject,flight) (origin,BBOS)",
        "ERROR no rule for this test",
        "> SHOW ME THE FLIGHTS FROM DENVER",
        "(question,display) (subject,flight) (origin,DDEN)",
        "UA\t202\tDDEN\tSSFO\t1140\t1380",
        "> :quit",
    ]


def test_repl_threshold_overrides_the_conventions(demo_model_path, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text(UNMATCHED + "\n")
    argv = ["repl", "--model", demo_model_path, "--script", str(script)]
    assert run_cli(argv)[1].splitlines() == ["> " + UNMATCHED, "REJECT 0.000"]
    rc, text = run_cli(argv + ["--threshold", "0"])
    lines = text.splitlines()
    assert rc == 0 and lines[1] == "" and len(lines) > 2   # answered


def test_repl_gives_one_template_for_a_sentence_sent_twice(demo_model_path,
                                                           tmp_path):
    # d26's template mentions question twice, from its q_attr and question
    # segments; the merged template keeps the first place
    text = ("WHAT TYPE OF ECONOMY FARE COULD I GET FROM SAN FRANCISCO "
            "TO DENVER")
    script = tmp_path / "script.txt"
    script.write_text(f"{text}\n{text}\n")
    rc, out = run_cli(["repl", "--model", demo_model_path,
                       "--script", str(script)])
    assert rc == 0
    first, second = out.split(f"> {text}\n")[1:]
    assert first == second
    assert first.splitlines()[0] == ("(question,display) (fare,ECONOMY) "
                                     "(subject,fare) (origin,SSFO) "
                                     "(destin,DDEN)")


def test_repl_recovers_from_errors(demo_model_path, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("THE A AN\nSHOW ME THE FLIGHTS FROM DENVER\n:quit\n")
    rc, text = run_cli(["repl", "--model", demo_model_path,
                        "--script", str(script)])
    assert rc == 0
    lines = text.splitlines()
    assert lines[1].startswith("ERROR ")
    assert lines[3] == "(question,display) (subject,flight) (origin,DDEN)"


def test_repl_sends_a_line_with_a_unicode_line_break_as_one_turn(
        demo_model_path, tmp_path, monkeypatch):
    # str.splitlines() breaks at U+2028; a file or stdin line does not
    joined = "SHOW ME THE FLIGHTS FROM BOSTON\u2028TO DALLAS"
    spaced = "SHOW ME THE FLIGHTS FROM BOSTON TO DALLAS"
    argv = ["repl", "--model", demo_model_path]

    def by_stdin(line):
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        return run_cli(argv)

    script = tmp_path / "script.txt"
    script.write_text(joined + "\n", encoding="utf-8")
    rc, turn = by_stdin(spaced)
    assert rc == 0
    assert turn.splitlines()[0] == ("(question,display) (subject,flight) "
                                    "(origin,BBOS) (destin,DDFW)")
    assert by_stdin(joined) == (0, turn)
    assert run_cli(argv + ["--script", str(script)]) == (0, f"> {joined}\n"
                                                          + turn)


def test_repl_skips_blank_lines(demo_model_path, tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("\n\n:quit\n")
    rc, text = run_cli(["repl", "--model", demo_model_path,
                        "--script", str(script)])
    assert rc == 0
    assert text == "> :quit\n"


# ---------------------------------------------------------------------------
# loop

def test_loop_threshold_overrides_the_conventions(tmp_path, artifacts):
    # m13 of the semi corpus is rejected by default; given the answer it
    # gets under threshold 0 as its reference, the loop counts it correct
    refs = "".join(f"refmin\t{r}\nrefmax\t{r}\n" for r in
                   answer(Template([]), artifacts).render_lines())
    entry = f"text\t{UNMATCHED}\nrefs\trows\n"
    semi = data_path("semi_corpus.txt").read_text(encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(semi.replace(entry, entry + refs), encoding="utf-8")
    argv = ["loop", "--corpus", str(corpus)]
    first = [run_cli(a)[1].splitlines()[1].split("\t")[1]
             for a in (argv, argv + ["--threshold", "0"])]
    assert first == ["5", "6"]


def test_loop_command_reports_and_saves(tmp_path):
    out = tmp_path / "model.txt"
    rc, text = run_cli(["loop", "--corpus", str(data_path("semi_corpus.txt")),
                        "--out", str(out)])
    assert rc == 0
    lines = text.splitlines()
    assert lines[0] == "iteration\tcorrect\tproblem\tsnapshot"
    assert lines[-1] == "# terminated: converged"
    correct = [int(l.split("\t")[1]) for l in lines[1:-1]]
    assert correct[-1] >= correct[0]
    assert load_model(out) is not None


@pytest.mark.parametrize("k", ["0.001", "0.1"])
def test_loop_starts_from_the_model_train_writes(tmp_path, k):
    corpus = str(data_path("semi_corpus.txt"))
    a, m, b = (str(tmp_path / name) for name in ("a.txt", "m.txt", "b.txt"))
    rc, direct = run_cli(["loop", "--corpus", corpus, "--k", k, "--out", a])
    assert rc == 0
    assert run_cli(["train", "--corpus", corpus, "--k", k, "--out", m])[0] == 0
    rc, seeded = run_cli(["loop", "--model", m, "--corpus", corpus,
                          "--out", b])
    assert rc == 0
    assert seeded == direct
    assert Path(b).read_bytes() == Path(a).read_bytes()


# ---------------------------------------------------------------------------
# gen

def test_gen_recovery_writes_deterministic_files(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc, text = run_cli(["gen", "recovery", "--seed", "3",
                            "--train", "20", "--test", "5", "--out", str(out)])
        assert rc == 0
        assert text == "wrote 20 train and 5 test sentences\n"
    for name in ("model.txt", "train.txt", "test.txt"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_gen_superword_files(tmp_path):
    rc, text = run_cli(["gen", "superword", "--seed", "1", "--train", "5",
                        "--test", "5", "--out", str(tmp_path)])
    assert rc == 0
    raw = (tmp_path / "raw.txt").read_text().splitlines()
    fused = (tmp_path / "fused.txt").read_text().splitlines()
    spans = (tmp_path / "spans.txt").read_text().splitlines()
    assert len(raw) == len(fused) == len(spans) == 10


def test_gen_alignment_files(tmp_path):
    rc, text = run_cli(["gen", "alignment", "--seed", "2", "--test", "7",
                        "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "alignment.txt").read_text().splitlines()
    assert len(lines) == 7
    assert all("\t" in l for l in lines)


# ---------------------------------------------------------------------------
# pipeline errors

def test_plan_error_is_reported_on_the_turn(demo_model, artifacts,
                                            monkeypatch):
    turn = run_turn("SHOW ME THE FLIGHTS TO BOSTON", demo_model, artifacts)
    tokens = [replace(t, value="ATLANTIS") if t.keyword == "destin" else t
              for t in turn.template.tokens]
    bad = replace(turn.template, tokens=tokens)
    with pytest.raises(ChronusError) as info:
        answer(bad, artifacts)
    assert str(info.value) == "unknown city 'ATLANTIS'"
    monkeypatch.setattr(pipeline, "generate_template", lambda *args: bad)
    turn = run_turn("SHOW ME THE FLIGHTS TO BOSTON", demo_model, artifacts)
    assert turn.answer is None
    assert turn.error == "unknown city 'ATLANTIS'"


def test_programming_error_in_execute_propagates(demo_model, artifacts,
                                                 monkeypatch):
    def broken(plan, db):
        raise KeyError("column")

    monkeypatch.setattr(pipeline, "execute", broken)
    with pytest.raises(KeyError):
        run_turn("SHOW ME THE FLIGHTS TO BOSTON", demo_model, artifacts)


# words of the demo corpus, so that some drawn texts decode and answer
DEMO_WORDS = sorted({w for e in FeedbackCorpus.load(
    data_path("demo_corpus.txt")).entries for w in e.text.split()})


@settings(max_examples=150, deadline=None)
@given(text=st.lists(st.one_of(st.sampled_from(DEMO_WORDS),
                               st.text(max_size=6)), max_size=16)
       .map(" ".join))
def test_any_text_gives_a_turn_or_a_chronus_error(demo_model, artifacts,
                                                   text):
    # st.text draws control and non-ASCII characters too
    try:
        turn = run_turn(text, demo_model, artifacts)
    except ChronusError:
        return
    assert isinstance(turn, TurnResult)


# ---------------------------------------------------------------------------
# a turn after an earlier model's turn of the same text

def _turn_fields(turn):
    answer = turn.answer.render_lines() if turn.answer is not None else None
    return (turn.decode.labels, turn.decode.words, repr(turn.decode.log_prob),
            turn.decode.degenerate, turn.template.render(), turn.rejected,
            answer, turn.error)


def test_a_turn_from_an_earlier_turn_equals_a_turn_from_the_text(artifacts):
    # every ordered pair of twelve models: the demo, seed and semi golds,
    # plain and with synonyms, at k 0.001 and 0.1
    synonyms = data_path("synonyms.txt")
    models = []
    for name in ("demo", "seed", "semi"):
        corpus = FeedbackCorpus.load(data_path(f"{name}_corpus.txt"))
        counts = count_full(corpus.seed_segmentations(), artifacts)
        for k in (0.001, 0.1):
            model = train_mle(counts, k)
            models += [model, apply_synonym_smoothing(model, load_synonyms(
                synonyms, model.dictionary, model.vocab), counts)]
    texts = list(dict.fromkeys(   # the distinct corpus texts
        e.text for name in ("demo", "semi") for e in
        FeedbackCorpus.load(data_path(f"{name}_corpus.txt")).entries))
    assert len(texts) == 62
    rng = random.Random(30)
    texts += [" AND ".join(rng.sample(texts[:62], rng.randint(2, 4)))
              for _ in range(8)]
    fresh = [{t: run_turn(t, m, artifacts) for t in texts} for m in models]
    changed = same = 0
    for i, earlier in enumerate(fresh):
        for j, model in enumerate(models):
            if i == j:
                continue
            for text, previous in earlier.items():
                turn = run_turn(text, model, artifacts, previous=previous)
                assert turn.lattice is previous.lattice
                assert _turn_fields(turn) == _turn_fields(fresh[j][text])
                moved = (turn.decode.labels, turn.decode.words) != (
                    previous.decode.labels, previous.decode.words)
                changed += moved
                same += not moved
    assert changed > 0 and same > 0


def test_a_turn_from_an_earlier_turn_re_answers_only_a_changed_decode(
        demo_model, artifacts, monkeypatch):
    text = "SHOW ME THE MORNING FLIGHTS FROM BOSTON"
    seed_corpus = FeedbackCorpus.load(data_path("seed_corpus.txt"))
    seed_model = train_full(seed_corpus.seed_segmentations(), artifacts)
    previous = run_turn(text, seed_model, artifacts)
    calls = []
    for name in ("lex_parse", "viterbi_decode_lattice", "generate_template",
                 "should_reject", "plan_query", "execute"):
        monkeypatch.setattr(pipeline, name, lambda *args, _f=getattr(
            pipeline, name), _n=name: calls.append(_n) or _f(*args))
    turn = run_turn(text, seed_model, artifacts, previous=previous)
    assert calls == ["viterbi_decode_lattice"]   # the same decode
    assert turn.template is previous.template
    assert turn.answer is previous.answer
    calls.clear()
    turn = run_turn(text, demo_model, artifacts, previous=previous)
    assert turn.decode.labels != previous.decode.labels
    assert calls == ["viterbi_decode_lattice", "generate_template",
                     "should_reject", "plan_query", "execute"]
    assert _turn_fields(turn) == _turn_fields(
        run_turn(text, demo_model, artifacts))


# ---------------------------------------------------------------------------
# rendering helpers

def test_render_segments(demo_model, artifacts):
    turn = run_turn("SHOW ME THE FLIGHTS TO BOSTON", demo_model, artifacts)
    assert render_segments(turn.decode.segmentation()) == \
        "question:[SHOW ME] subject:[FLIGHT(S)] destin:[TO ((city)BOSTON)]"
