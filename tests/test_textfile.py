"""The shared data-file syntax: every reader reports bad input as
``path:line: message``, and the writers' output reads back unchanged."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from chronus.cli import main
from chronus.errors import DataFormatError
from chronus.gen import make_recovery_model
from chronus.decoder import viterbi_decode
from chronus.model import (SegmentedSentence, apply_synonym_smoothing,
                           count_events, load_model, model_from_text,
                           model_to_text, train_mle)
from chronus.pipeline import data_path
from chronus.query import Answer
from chronus.textfile import records
from chronus.training import FeedbackCorpus, FeedbackEntry

from helpers import random_corpus


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


def _without(text, line, anchor):
    """``text`` without the line ``line``, and the line number of
    ``anchor`` in what is left."""
    lines = text.splitlines()
    lines.remove(line)
    return "\n".join(lines) + "\n", lines.index(anchor) + 1


def _without_section(text, header):
    """``text`` without the section ``header`` and its lines."""
    lines = text.splitlines()
    at = lines.index(header)
    end = next(i for i in range(at + 1, len(lines)) if lines[i].startswith("["))
    return "\n".join(lines[:at] + lines[end:]) + "\n"


def _repeated(text, section, offset):
    """``text`` with the line ``offset`` lines below ``section`` given twice,
    and the second copy's line number."""
    lines = text.splitlines()
    line = lines[lines.index(section) + offset]
    return _with_line(text, line, line)


def _bundled(name, anchor, line):
    return _with_line(data_path(name).read_text(encoding="utf-8"), anchor, line)


def _and_later(bad, anchor, line):
    """``bad``, a (text, bad line) pair, with a second bad line inserted
    further down as by ``_with_line``; the first one's line number stays."""
    text, first = bad
    return _with_line(text, anchor, line)[0], first


def _two_faults(name, first, second):
    """Bundled file ``name`` with two bad lines inserted, ``first`` and,
    further down, ``second``, each an ``(anchor, line)`` pair as for
    ``_with_line``; and the first one's line number."""
    return _and_later(_bundled(name, *first), *second)


def _at(text, line):
    """``text`` and the number of its line ``line``."""
    return text, text.splitlines().index(line) + 1


def _break_in_field(name, line, new):
    """Bundled file ``name`` with its line ``line`` replaced by ``new``,
    which holds a line-break character other than newline inside a field,
    and its line number: a reader that split ``new`` there would report
    another line or message."""
    lines = data_path(name).read_text(encoding="utf-8").split("\n")
    at = lines.index(line)
    lines[at] = new
    return "\n".join(lines), at + 1


FIRST_BIGRAM = f"[bigram {make_recovery_model().dictionary.names[0]}]"
CORPUS = "[sentence x01]\ntext\tSHOW\ngold\tSHOW:question\n"

# (name, option naming the bad file, (bad text, its bad line), message)
MALFORMED = [
    ("model-probability", "--model",
     _model("[initial]", "<s>\t</s>\tabc"), "probability 'abc' is not a number"),
    ("model-k", "--model",
     _model("chronus-model v3", "k\tsmall"), "k 'small' is not a number"),
    ("model-k-inf", "--model",
     _model("chronus-model v3", "k\tinf"), "k inf is not finite"),
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
    ("model-v1-header", "--model",
     (RECOVERY_TEXT.replace("chronus-model v3", "chronus-model v1", 1), 1),
     "chronus-model v1 is no longer read; retrain with chronus train"),
    ("model-v2-header", "--model",
     (RECOVERY_TEXT.replace("chronus-model v3", "chronus-model v2", 1), 1),
     "chronus-model v2 is no longer read; retrain with chronus train"),
    ("model-counts-section", "--model",
     _at(RECOVERY_TEXT + "[counts initial]\n<s>\tc0\t3\n", "[counts initial]"),
     "unknown section [counts initial]"),
    ("model-missing-k", "--model",
     _without(RECOVERY_TEXT, RECOVERY_TEXT.split("\n")[1], "chronus-model v3"),
     "model has no k line"),
    ("model-repeated-vocab", "--model",
     _repeated(RECOVERY_TEXT, "[vocab]", 1), "repeated [vocab] symbol 'w00'"),
    ("model-repeated-k", "--model",
     _repeated(RECOVERY_TEXT, "chronus-model v3", 1), "repeated k line"),
    ("model-repeated-concept", "--model",
     _repeated(RECOVERY_TEXT, "[concepts]", 1), "repeated concept 'c0'"),
    ("model-first-repeated-concept", "--model",
     _and_later(_repeated(RECOVERY_TEXT, "[concepts]", 1),
                "[initial]", "<s>\t</s>\tabc"), "repeated concept 'c0'"),
    ("model-section", "--model",
     _model("[initial]", "[bogus]"), "unknown section [bogus]"),
    ("model-unnormalized-row", "--model",
     _model("[initial]", "<s>\tc0\t0.5"), "row '<s>' sums to 1.3, not 1"),
    ("model-missing-bigram-table", "--model",
     _without(RECOVERY_TEXT, "[bigram dummy]", "dummy\tspecial\t9"),
     "concept 'dummy' has no [bigram dummy] section"),
    ("model-missing-initial", "--model",
     (_without_section(RECOVERY_TEXT, "[initial]"), 1),
     "model has no [initial] row"),
    ("model-field-count", "--model",
     _model("[initial]", "<s>\tc0\t0.5\t0.5"), "expected ROW<TAB>COL<TAB>PROB"),
    ("model-header-line", "--model",
     _model("chronus-model v3", "kk\t0.1"), "unexpected header line"),
    ("model-concept-counterpart", "--model",
     _model("[concepts]", "a_x\tattribute\t2\tzzz"),
     "attribute concept a_x has no valid counterpart"),
    ("model-probability-range", "--model",
     _model("[initial]", "<s>\tc0\t1.5"),
     "probability 1.5 is not in [0.0, 1.0]"),
    ("db-cell", "--db",
     _bundled("db.txt", "[table flight]",
              "f99\tAA\tabc\tBBOS\tDDFW\t480\t720\tDC10\tNONE"),
     "flight.number 'abc' is not a number"),
    ("db-fare-flight", "--db",
     _bundled("db.txt", "[table fare]", "g99\tf99\t100\tECONOMY"),
     "fare g99 references unknown flight"),
    ("db-airport-city", "--db",
     _bundled("db.txt", "[table airport]", "XXX\tZZZZ"),
     "airport XXX references unknown city"),
    ("db-time", "--db",
     _bundled("db.txt", "[table flight]",
              "f99\tAA\t999\tBBOS\tDDFW\t480\t1440\tDC10\tNONE"),
     "flight f99: arrive_min out of [0,1440)"),
    ("db-repeated-key", "--db",
     _bundled("db.txt", "f01\tAA\t101\tBBOS\tDDFW\t480\t720\tDC10\tBREAKFAST",
              "f01\tUA\t999\tDDFW\tBBOS\t500\t700\tDC9\tNONE"),
     "table flight repeats flight_id 'f01'"),
    ("db-unknown-table", "--db",
     _bundled("db.txt", "[table flight]", "[table plane]"),
     "unknown table 'plane'"),
    ("db-row-before-table", "--db",
     _bundled("db.txt", "chronus-db v1",
              "f99\tAA\t999\tBBOS\tDDFW\t480\t720\tDC10\tNONE"),
     "row before any [table] header"),
    ("db-line-break-in-a-field", "--db",
     _break_in_field("db.txt", "[table fare]", "[table fa\x0cre]"),
     "unknown table 'fa\\x0cre'"),
    ("db-column-count", "--db",
     _bundled("db.txt", "[table flight]", "f99\tAA\t999"),
     "expected 9 columns in flight"),
    ("db-first-bad-line", "--db",
     _two_faults("db.txt", ("[table flight]",
                            "f99\tAA\t999\tBBOS\tDDFW\t480\t1440\tDC10\tNONE"),
                 ("[table fare]", "g01\tf01\t250\tECONOMY")),
     "flight f99: arrive_min out of [0,1440)"),
    ("values-empty-pattern", "--values",
     _bundled("values.txt", "[concept origin]", "\tMATL\titem"),
     "empty pattern under origin"),
    ("values-shadowed-pattern", "--values",
     _bundled("values.txt", "((city)ATLANTA)\tMATL\titem",
              "((city)ATLANTA) ((city)BOSTON)\tMATL\titem"),
     "origin: pattern ((city)ATLANTA) listed before the longer "
     "((city)ATLANTA) ((city)BOSTON)"),
    ("values-repeated-pattern", "--values",
     _bundled("values.txt", "AMERICAN AIRLINES\tAA\titem",
              "AMERICAN AIRLINES\tXX\titem"),
     "airline: pattern AMERICAN AIRLINES listed twice"),
    ("values-first-bad-line", "--values",
     _two_faults("values.txt", ("((city)ATLANTA)\tMATL\titem",
                                "((city)ATLANTA) ((city)BOSTON)\tMATL\titem"),
                 ("((city)BOSTON)\tBBOS\titem", "\tMATL\titem")),
     "origin: pattern ((city)ATLANTA) listed before the longer "
     "((city)ATLANTA) ((city)BOSTON)"),
    ("values-unknown-concept", "--values",
     _at(data_path("values.txt").read_text(encoding="utf-8").replace(
         "[concept origin]", "[concept orign]"), "[concept orign]"),
     "unknown concept 'orign'"),
    ("values-attribute-concept", "--values",
     _at(data_path("values.txt").read_text(encoding="utf-8").replace(
         "[concept fare]", "[concept a_fare]"), "[concept a_fare]"),
     "concept 'a_fare' has role attribute; segments read the patterns of "
     "folded, non-special concepts"),
    ("values-special-concept", "--values",
     _bundled("values.txt", "EARLY\tmorning\tattribute", "[concept dummy]"),
     "concept 'dummy' has role special; segments read the patterns of "
     "folded, non-special concepts"),
    ("values-take-without-slot", "--values",
     _bundled("values.txt", "CONTINENTAL\tCO\titem", "AMERICAN\t*\titem"),
     "airline: pattern AMERICAN takes its slot's value (*) but has no "
     "grammar slot"),
    ("values-line-break-in-a-field", "--values",
     _break_in_field("values.txt", "CONTINENTAL\tCO\titem",
                     "CONTINENTAL\tCO\tit\x0cem"),
     "unknown category 'it\\x0cem'"),
    ("values-field-count", "--values",
     _bundled("values.txt", "[concept question]", "HOW MUCH\tdisplay"),
     "expected PATTERN<TAB>value<TAB>category"),
    ("values-section-kind", "--values",
     _bundled("values.txt", "[concept question]", "[question]"),
     "expected [concept <name>]"),
    ("values-header", "--values",
     _bundled("values.txt", "[concept subject]", "[concept origin"),
     "unterminated section header"),
    ("conventions-key", "--conventions",
     _bundled("conventions.txt", "[defaults]", "reject-treshold\t0.2"),
     "unknown default 'reject-treshold'"),
    ("conventions-subject", "--conventions",
     _bundled("conventions.txt", "[defaults]", "subject\tflgiht"),
     "no table rule for subject 'flgiht'"),
    ("conventions-repeated-time", "--conventions",
     _bundled("conventions.txt", "late-evening\t1200\t1440", "morning\t0\t60"),
     "repeated time word 'morning'"),
    ("conventions-repeated-default", "--conventions",
     _bundled("conventions.txt", "reject-threshold\t0.75", "subject\tfare"),
     "repeated default 'subject'"),
    ("conventions-line-break-in-a-field", "--conventions",
     _break_in_field("conventions.txt", "subject\tflight",
                     "subject\tfl\u2028ight"),
     "no table rule for subject 'fl\\u2028ight'"),
    ("conventions-line", "--conventions",
     _bundled("conventions.txt", "[time]", "noon\t720"),
     "bad conventions line"),
    ("corpus-header", "--corpus",
     (CORPUS + "[sentence d01\n", 4), "unterminated section header"),
    ("corpus-gold", "--corpus",
     ("[sentence x01]\ntext\tSHOW\ngold\tSHOW\n", 3),
     "bad word:concept pair 'SHOW'"),
    ("corpus-refs", "--corpus",
     ("[sentence x01]\ntext\tSHOW\nrefmin\tAA\n", 3),
     "refmin needs a matching refs line before it"),
    ("corpus-no-gold-or-refs", "--corpus",
     (CORPUS + "[sentence x02]\ntext\tSHOW\n", 4),
     "sentence x02: needs references or a gold segmentation"),
    ("corpus-first-bad-line", "--corpus",
     ("[sentence x02]\ntext\tSHOW\n" + CORPUS + "bogus\tv\n", 1),
     "sentence x02: needs references or a gold segmentation"),
    ("corpus-repeated-id", "--corpus",
     (CORPUS + CORPUS, 4), "repeated sentence id 'x01'"),
    ("corpus-repeated-line", "--corpus",
     (CORPUS + "text\tSHOW ME\n", 4), "sentence x01: repeated text line"),
    ("corpus-repeated-refs", "--corpus",
     ("[sentence x01]\ntext\tSHOW\nrefs\trows\nrefmin\tf01\nrefs\trows\n", 5),
     "sentence x01: repeated refs line"),
    ("corpus-win-line", "--corpus",
     ("[sentence x01]\ntext\tSHOW\nwin\tList flights\ngold\tSHOW:question\n", 3),
     "unknown record key 'win'"),
    ("corpus-line-breaks-inside-a-line", "--corpus",
     ("[sentence x01]\ntext\tSHOW \x0c\x85\u2028 ME\ngold\tSHOW:question\n"
      "bogus\tv\n", 4), "unknown record key 'bogus'"),
    ("corpus-missing-text", "--corpus",
     (CORPUS + "[sentence x02]\ngold\tSHOW:question\n", 4),
     "sentence x02: needs a text line"),
    ("corpus-refs-without-refvalue", "--corpus",
     (CORPUS + "[sentence x02]\ntext\tIS IT\nrefs\tboolean\n", 4),
     "sentence x02: refs boolean needs a refvalue line"),
    ("corpus-refs-number", "--corpus",
     (CORPUS + "[sentence x02]\ntext\tHOW MANY\nrefs\tnumber\n", 6),
     "unknown reference kind 'number'"),
    ("corpus-refvalue-not-yes-or-no", "--corpus",
     (CORPUS + "[sentence x02]\ntext\tIS IT\nrefs\tboolean\n"
      "refvalue\tyes\n", 7), "refvalue 'yes' is not YES or NO"),
    ("corpus-gold-label-not-a-concept", "--corpus",
     (CORPUS + "[sentence x02]\ntext\tSHOW\ngold\tSHOW:bogus\n", 4),
     "sentence x02: segmentation label not in concept dictionary: 'bogus'"),
    ("concepts-rank", "--concepts",
     _bundled("concepts.txt", "subject\tsubject\t1", "extra\tsubject\tmany"),
     "rank 'many' is not a number"),
    ("concepts-role", "--concepts",
     _bundled("concepts.txt", "subject\tsubject\t1", "extra\tverb\t1"),
     "unknown role 'verb' for concept extra"),
    ("concepts-counterpart", "--concepts",
     _bundled("concepts.txt", "subject\tsubject\t1",
              "a_x\tattribute\t1\tdummy"),
     "attribute a_x folds into non-foldable dummy"),
    ("concepts-field-count", "--concepts",
     _bundled("concepts.txt", "subject\tsubject\t1", "extra\tsubject"),
     "expected name<TAB>role<TAB>rank[<TAB>counterpart]"),
    ("concepts-line-break-in-a-field", "--concepts",
     _break_in_field("concepts.txt", "subject\tsubject\t1",
                     "subject\tsub\x0cject\t1"),
     "unknown role 'sub\\x0cject' for concept subject"),
    ("concepts-section", "--concepts",
     _bundled("concepts.txt", "subject\tsubject\t1", "[x]"),
     "unknown section [x]"),
    ("concepts-first-repeat", "--concepts",
     _two_faults("concepts.txt", ("subject\tsubject\t1", "subject\tsubject\t1"),
                 ("and\tspecial\t9", "extra\tverb\t1")),
     "repeated concept 'subject'"),
    ("lexicon-grammar-id", "--lexicon",
     _bundled("lexicon.txt", "accept\tw0", "[grammar city]"),
     "duplicate grammar id city"),
    ("lexicon-first-repeated-grammar", "--lexicon",
     _two_faults("lexicon.txt", ("accept\tw0", "[grammar city]"),
                 ("[grammar aircraft]", "0\tDC")),
     "duplicate grammar id city"),
    ("lexicon-grammar-header", "--lexicon",
     _bundled("lexicon.txt", "accept\tw0", "[grammar a b]"),
     "expected [grammar <id>]"),
    ("lexicon-inflect-line", "--lexicon",
     _bundled("lexicon.txt", "[inflect]", "FLIGHTZ"),
     "expected SURFACE<TAB>SUPERWORD"),
    ("lexicon-grammar-line", "--lexicon",
     _bundled("lexicon.txt", "normalize\tjoin", "0\tBOSTON"),
     "bad grammar line"),
    ("lexicon-before-header", "--lexicon",
     _bundled("lexicon.txt", "# finite-state grammars (city names, compound "
              "numerals, aircraft codes)", "SHOW"),
     "content before first section header"),
    ("lexicon-section", "--lexicon",
     _bundled("lexicon.txt", "[stop]", "[wrods]"), "unknown section [wrods]"),
    ("lexicon-stop-word-in-grammar", "--lexicon",
     _at(_bundled("lexicon.txt", "THE A AN", "TWO")[0], "[grammar number]"),
     "stop words ['TWO'] appear in grammar number"),
    ("lexicon-normalizer", "--lexicon",
     _at(data_path("lexicon.txt").read_text(encoding="utf-8").replace(
         "normalize\tjoin", "normalize\tnope"), "normalize\tnope"),
     "grammar city: unknown normalizer 'nope'"),
    ("lexicon-line-break-in-a-field", "--lexicon",
     _break_in_field("lexicon.txt", "normalize\tjoin", "normalize\tjo\u2028in"),
     "grammar city: unknown normalizer 'jo\\u2028in'"),
    ("lexicon-normalize-twice", "--lexicon",
     _bundled("lexicon.txt", "normalize\tjoin", "normalize\tdigits"),
     "grammar city: normalize given twice"),
    ("lexicon-plain-and-inflected", "--lexicon",
     _at(_bundled("lexicon.txt", "[words]", "FLIGHTS")[0],
         "FLIGHTS\tFLIGHT(S)"),
     "FLIGHTS is both a plain word and an inflection-group member"),
    ("lexicon-unknown-marker", "--lexicon",
     _bundled("lexicon.txt", "[words]", "<UNK>"),
     "unknown marker must not be a surface word"),
    ("lexicon-unknown-marker-inflected", "--lexicon",
     _bundled("lexicon.txt", "[inflect]", "<UNK>\tFLIGHT(S)"),
     "unknown marker must not be a surface word"),
    ("synonyms", "--synonyms",
     ("# concept<TAB>word<TAB>word...\norigin\tLEAVE(S)\n", 2),
     "synonym line needs a concept and two or more words"),
    ("synonyms-unknown-word", "--synonyms",
     ("origin\tDEPART(S)\tLEAVE(S)\n# next\norigin\tFROM\tNOSUCHWORD\n", 3),
     "word not in vocabulary: 'NOSUCHWORD'"),
    ("synonyms-unknown-concept", "--synonyms",
     ("origin\tDEPART(S)\tLEAVE(S)\nnosuch\tDEPART(S)\tLEAVE(S)\n", 2),
     "unknown concept 'nosuch'"),
    ("synonyms-line-break-in-a-field", "--synonyms",
     ("origin\tDEPART(S)\tLEA\u2028VE(S)\n", 1),
     "word not in vocabulary: 'LEA\\u2028VE(S)'"),
    ("synonyms-section", "--synonyms",
     ("origin\tDEPART(S)\tLEAVE(S)\n[groups]\n", 2),
     "unknown section [groups]"),
    ("synonyms-first-bad-line", "--synonyms",
     ("origin\tDEPART(S)\tLEAVE(S)\nnosuch\tDEPART(S)\tLEAVE(S)\n"
      "origin\tFROM\tNOSUCHWORD\n", 2),
     "unknown concept 'nosuch'"),
    ("synonyms-word-in-two-groups", "--synonyms",
     ("origin\tDEPART(S)\tLEAVE(S)\ndestin\tTO\tARRIVE(S)\n"
      "origin\tFROM\tLEAVE(S)\n", 3),
     "word 'LEAVE(S)' in two synonym groups under origin"),
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


def test_model_comment_with_a_line_break_character_is_skipped_whole(
        tmp_path, demo_model_path):
    # str.splitlines() would break this comment and read its tail as a line
    with open(demo_model_path, encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "model.txt"
    path.write_text(_with_line(text, "chronus-model v3",
                               "# note \x0c\x85\u2028 here")[0],
                    encoding="utf-8")
    assert model_to_text(load_model(path)) == model_to_text(
        load_model(demo_model_path))
    for sentence in ("SHOW ME THE FLIGHTS FROM BOSTON TO DALLAS",
                     "WHAT TYPE OF ECONOMY FARE COULD I GET FROM SAN "
                     "FRANCISCO TO DENVER"):
        outputs = []
        for model in (str(path), demo_model_path):
            out = io.StringIO()
            assert main(["decode", "--model", model, "--segments",
                         "--answer", sentence], out=out) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.sampled_from([0.0, 0.001]),
       n_concepts=st.integers(1, 5), n_words=st.integers(1, 8),
       data=st.data())
def test_model_text_is_a_fixed_point(seed, k, n_concepts, n_words, data):
    # a model and the model its text reads as are the same model, smoothed
    # with synonyms by its own counts or not
    corpus, dictionary, vocab = random_corpus(random.Random(seed),
                                              n_concepts, n_words)
    counts = count_events(corpus, dictionary, vocab)
    model = train_mle(counts, k)
    group = data.draw(st.none() | st.lists(st.sampled_from(model.vocab),
                                           min_size=1, unique=True))
    if group is not None:
        concept = data.draw(st.sampled_from(sorted(counts.bigram)))
        model = apply_synonym_smoothing(model, {concept: [group]}, counts)
    text = model_to_text(model)
    loaded = model_from_text(text)
    assert model_to_text(loaded) == text
    for sentence in corpus:
        ours = viterbi_decode(model, sentence.words)
        theirs = viterbi_decode(loaded, sentence.words)
        assert (ours.labels, ours.log_prob) == (theirs.labels, theirs.log_prob)


_FIELD = st.text(st.characters(whitelist_categories=("Lu", "Nd"),
                               whitelist_characters="()'"),
                 min_size=1, max_size=8)
_ROW = st.lists(_FIELD, min_size=1, max_size=4).map(tuple)


@st.composite
def _references(draw):
    kind = draw(st.sampled_from(["rows", "boolean"]))
    if kind == "rows":
        return (Answer(kind="rows", rows=draw(st.lists(_ROW, max_size=3))),
                Answer(kind="rows", rows=draw(st.lists(_ROW, max_size=3))))
    value = draw(st.booleans())
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
            gold=gold, refmin=refmin, refmax=refmax))
    return entries


@settings(max_examples=100, deadline=None)
@given(_entries())
def test_feedback_corpus_text_round_trips(entries):
    corpus = FeedbackCorpus(entries)
    again = FeedbackCorpus.from_lines(corpus.to_text().splitlines())
    assert again.entries == corpus.entries
    assert again.to_text() == corpus.to_text()
