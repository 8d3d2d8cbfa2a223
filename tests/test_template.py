import pytest
from hypothesis import example, given, settings, strategies as st

from chronus.gen import synthetic_dictionary
from chronus.lexicon import Superword, is_grammar_sym, parse_superword
from chronus.model import SegmentedSentence
from chronus.errors import ChronusError, DataFormatError
from chronus.template import (TAKE_VALUE, Pattern, Template, TemplateToken,
                              ValueTable, generate_template, matched_fraction,
                              should_reject)

from helpers import make_sentence, template_by_definition


def _segmentation(spec):
    """'SHOW:question ME:question ...' -> SegmentedSentence."""
    words, labels = [], []
    for pair in spec.split():
        token, _, label = pair.rpartition(":")
        words.append(parse_superword(token))
        labels.append(label)
    return SegmentedSentence(tuple(words), tuple(labels))


# ---------------------------------------------------------------------------
# Template generation

def test_display_request_template(artifacts):
    seg = _segmentation("SHOW:question ME:question FLIGHT(S):subject "
                        "TO:destin ((city)BOSTON):destin")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == \
        "(question,display) (subject,flight) (destin,BBOS)"
    assert template.unmatched == 0


def test_special_segments_are_skipped(artifacts):
    seg = _segmentation("PLEASE:dummy SHOW:question ME:dummy "
                        "FLIGHT(S):subject")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == "(question,display) (subject,flight)"


def test_attribute_segments_fold_into_counterpart(artifacts):
    seg = _segmentation("SHOW:question FARE(S):subject ECONOMY:a_fare")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == \
        "(question,display) (subject,fare) (fare,ECONOMY)"


def test_unmatched_segments_are_counted_not_emitted(artifacts):
    seg = _segmentation("SHOW:question FLIGHT(S):subject FROM:origin")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == "(question,display) (subject,flight)"
    assert template.unmatched == 1
    assert matched_fraction(template) == pytest.approx(2 / 3)


def test_pattern_can_match_anywhere_inside_segment(artifacts):
    seg = _segmentation("FROM:origin ((city)DENVER):origin")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == "(origin,DDEN)"


def test_unknown_segment_label_rejected(artifacts):
    seg = make_sentence(["SHOW"], ["bogus"])
    with pytest.raises(ChronusError,
                       match="^segment label 'bogus' not in dictionary$"):
        generate_template(seg, artifacts.tables, artifacts.dictionary)


def test_yes_no_question_value(artifacts):
    seg = _segmentation("IS:question BREAKFAST:subject SERVED:dummy")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == "(question,yes-no) (subject,breakfast)"


def test_grammar_slot_copies_matched_value(artifacts):
    seg = _segmentation("ON:dummy ((aircraft)DC10):aircraft")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == "(aircraft,DC10)"


# ---------------------------------------------------------------------------
# Patterns and value tables

def test_pattern_value_slot_matching():
    p = Pattern((Superword("((city))", "BOSTON"),), "BBOS")
    assert p.matches_at([Superword("((city))", "BOSTON")], 0) == "BBOS"
    assert p.matches_at([Superword("((city))", "DALLAS")], 0) is None


def test_pattern_take_value():
    p = Pattern((Superword("((number))"),), "*")
    assert p.matches_at([Superword("((number))", "37")], 0) == "37"


def test_pattern_multiword():
    p = Pattern((Superword("MOST"), Superword("EXPENSIVE")), "maximum")
    seg = [Superword("MOST"), Superword("EXPENSIVE")]
    assert p.matches_at(seg, 0) == "maximum"
    assert p.matches_at(seg[:1], 0) is None


def test_first_match_wins_within_concept():
    table = ValueTable({"airline": [
        Pattern((Superword("AMERICAN"), Superword("AIRLINES")), "AA"),
        Pattern((Superword("AMERICAN"),), "AA-short"),
    ]})
    seg = make_sentence(["AMERICAN", "AIRLINES"], ["airline"] * 2)
    template = generate_template(seg, table, synthetic_dictionary(["airline"]))
    assert template.render() == "(airline,AA)"


def test_file_order_beats_a_match_further_left():
    # patterns [B, A] on segment A B: B is listed first, so it wins
    # although A matches at an earlier offset
    table = ValueTable({"x": [Pattern((Superword("B"),), "b"),
                              Pattern((Superword("A"),), "a")]})
    seg = make_sentence(["A", "B"], ["x", "x"])
    template = generate_template(seg, table, synthetic_dictionary(["x"]))
    assert template.render() == "(x,b)"


def test_winning_pattern_takes_its_leftmost_match():
    table = ValueTable({"x": [Pattern((Superword("((city))"),), TAKE_VALUE)]})
    seg = _segmentation("((city)BOSTON):x ((city)DALLAS):x")
    template = generate_template(seg, table, synthetic_dictionary(["x"]))
    assert template.render() == "(x,BOSTON)"


_PATTERN_WORDS = [Superword("A"), Superword("B"), Superword("C"),
                  Superword("((city))"), Superword("((city))", "BOSTON"),
                  Superword("((city))", "DALLAS"), Superword("((number))")]
_SEGMENT_WORDS = [Superword("A"), Superword("B"), Superword("C"),
                  Superword("D"), Superword("((city))"),
                  Superword("((city))", "BOSTON"),
                  Superword("((city))", "DALLAS"),
                  Superword("((number))", "37")]


@st.composite
def _pattern_list(draw):
    """Up to 6 patterns in file order, without any that repeats or extends
    an earlier pattern and without a TAKE_VALUE pattern that has no grammar
    slot (ValueTable rejects both)."""
    patterns = []
    for order in range(draw(st.integers(0, 6))):
        tokens = tuple(draw(st.lists(st.sampled_from(_PATTERN_WORDS),
                                     min_size=1, max_size=3)))
        if any(tokens[:len(p.tokens)] == p.tokens for p in patterns):
            continue
        value = f"p{order}"
        if any(is_grammar_sym(t.sym) for t in tokens):   # it has a slot
            value = draw(st.sampled_from([value, TAKE_VALUE]))
        patterns.append(Pattern(tokens, value))
    return patterns


_CITY = Superword("((city))")
_BOSTON = Superword("((city))", "BOSTON")
_DALLAS = Superword("((city))", "DALLAS")
# valued and wildcard first tokens of one symbol, interleaved in file order
_INTERLEAVED = [Pattern((_DALLAS,), "p0"),
                Pattern((_CITY, Superword("A")), "p1"),
                Pattern((_BOSTON, Superword("B")), "p2"),
                Pattern((_CITY, Superword("C")), "p3"),
                Pattern((_BOSTON,), "p4"),
                Pattern((_CITY,), TAKE_VALUE)]


@settings(max_examples=300, deadline=None)
@given(tables=st.fixed_dictionaries({"x": _pattern_list(),
                                     "y": _pattern_list()}),
       pairs=st.lists(st.tuples(st.sampled_from(_SEGMENT_WORDS),
                                st.sampled_from(["x", "y", "dummy"])),
                      min_size=1, max_size=10))
@example(tables={"x": _INTERLEAVED,
                 "y": [_INTERLEAVED[i] for i in (4, 3, 0, 5)]},
         pairs=[(_BOSTON, "x"), (Superword("A"), "x"), (_BOSTON, "x"),
                (Superword("B"), "x"), (_DALLAS, "y"),
                (Superword("((city))", "DENVER"), "y"), (Superword("C"), "y")])
@example(tables={"x": _INTERLEAVED, "y": []},
         pairs=[(_BOSTON, "x"), (Superword("C"), "x")])
def test_indexed_template_equals_pattern_major_definition(tables, pairs):
    dictionary = synthetic_dictionary(["x", "y"])
    seg = SegmentedSentence(tuple(w for w, _ in pairs),
                            tuple(c for _, c in pairs))
    assert generate_template(seg, ValueTable(tables), dictionary) \
        == template_by_definition(seg, tables, dictionary)


def test_valued_words_list_their_symbols_wildcards_in_file_order():
    index = ValueTable({"x": _INTERLEAVED}).by_word["x"]
    assert [order for order, _ in index[_BOSTON]] == [1, 2, 3, 4, 5]
    assert [order for order, _ in index[_DALLAS]] == [0, 1, 3, 5]
    assert [order for order, _ in index[_CITY]] == [1, 3, 5]
    # a value no pattern names reads the wildcard list
    seg = SegmentedSentence((Superword("((city))", "DENVER"),), ("x",))
    template = generate_template(seg, ValueTable({"x": _INTERLEAVED}),
                                 synthetic_dictionary(["x"]))
    assert template.render() == "(x,DENVER)"


def test_template_tries_only_patterns_listed_under_the_word(
        artifacts, monkeypatch):
    # origin lists eleven ((city)) patterns; the exact (symbol, value)
    # index tries only the one that names WASHINGTON
    calls = []
    real = Pattern.matches_at

    def counted(self, segment, i):
        calls.append(i)
        return real(self, segment, i)

    monkeypatch.setattr(Pattern, "matches_at", counted)
    seg = _segmentation("FROM:origin ((city)WASHINGTON):origin")
    template = generate_template(seg, artifacts.tables, artifacts.dictionary)
    assert template.render() == "(origin,WWAS)"
    assert calls == [1]


def test_prefix_pattern_must_come_after_longer_one():
    with pytest.raises(DataFormatError, match="^airline: pattern AMERICAN "
                       "listed before the longer AMERICAN AIRLINES$"):
        ValueTable({"airline": [
            Pattern((Superword("AMERICAN"),), "AA"),
            Pattern((Superword("AMERICAN"), Superword("AIRLINES")), "AA"),
        ]})


def test_empty_pattern_rejected():
    with pytest.raises(DataFormatError, match="^empty pattern under airline$"):
        ValueTable({"airline": [Pattern((), "AA")]})


def test_from_lines_validates_category(artifacts):
    with pytest.raises(DataFormatError, match="^2: unknown category 'bogus'$"):
        ValueTable.from_lines(["[concept origin]", "WORD\tvalue\tbogus"],
                              artifacts.dictionary)


def test_from_lines_requires_concept_header(artifacts):
    with pytest.raises(DataFormatError,
                       match=r"^1: pattern before any \[concept\] header$"):
        ValueTable.from_lines(["WORD\tvalue\titem"], artifacts.dictionary)


# ---------------------------------------------------------------------------
# Rejection

def _template(matched, unmatched):
    tokens = [TemplateToken("origin", "BBOS") for _ in range(matched)]
    return Template(tokens=tokens, unmatched=unmatched)


def test_rejection_threshold_boundaries():
    assert not should_reject(_template(3, 1), 0.75)   # exactly at threshold
    assert should_reject(_template(2, 1), 0.75)
    assert not should_reject(_template(1, 0), 1.0)
    assert should_reject(_template(0, 2), 0.0) is False  # 0/2 under zero bar


def test_no_concepts_at_all_is_rejected():
    assert should_reject(_template(0, 0), 0.75)
    assert matched_fraction(_template(0, 0)) == 0.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        should_reject(_template(1, 0), -0.1)
    with pytest.raises(ValueError):
        should_reject(_template(1, 0), 1.1)


def test_template_accessors():
    t = _template(2, 0)
    assert t.matched == 2
    assert t.get("origin") is t.tokens[0]
    assert t.get("destin") is None
