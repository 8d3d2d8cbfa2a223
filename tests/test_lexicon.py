import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chronus.errors import ChronusError, DataFormatError
from chronus.lexicon import (UNKNOWN, Arc, FsaGrammar, Lattice, Superword,
                             SuperwordLexicon, compound_number_value,
                             enumerate_path_arcs, is_grammar_sym, lex_parse,
                             parse_superword, tokenize)
from chronus.pipeline import data_path

BUNDLED = SuperwordLexicon.load(data_path("lexicon.txt"))
GRAMMAR_WORDS = sorted(set().union(*(g.words for g in BUNDLED.grammars)))
ANY_WORD = sorted(BUNDLED.words | set(BUNDLED.inflect) | BUNDLED.stop
                  | set(GRAMMAR_WORDS) | {"XYZZY"})


# ---------------------------------------------------------------------------
# Tokenization

def test_tokenize_uppercases_and_strips_punctuation():
    assert tokenize("Show me, the flights!") == ["SHOW", "ME", "THE", "FLIGHTS"]


def test_tokenize_keeps_apostrophes_and_digits():
    assert tokenize("o'hare at 10") == ["O'HARE", "AT", "10"]


def test_tokenize_empty_input():
    assert tokenize("  ... !! ") == []


# ---------------------------------------------------------------------------
# Superwords

def test_parse_superword_plain_word():
    assert parse_superword("BOSTON") == Superword("BOSTON")


def test_parse_superword_grammar_match():
    sw = parse_superword("((city)BOSTON)")
    assert sw == Superword("((city))", "BOSTON")
    assert sw.render() == "((city)BOSTON)"


def test_is_grammar_sym_accepts_only_a_bare_grammar_symbol():
    assert is_grammar_sym("((city))")
    assert is_grammar_sym(parse_superword("((number)37)").sym)
    for sym in ["BOSTON", "FLIGHT(S)", "((city)BOSTON)", "((city)"]:
        assert not is_grammar_sym(sym)


_GRAMMAR_MATCH = re.compile(r"^\(\((\w[\w-]*)\)(.*)\)$")


def _parse_superword_by_regex(text):
    """parse_superword as the grammar-match regex alone states it."""
    m = _GRAMMAR_MATCH.match(text)
    if m:
        return Superword(f"(({m.group(1)}))", m.group(2) or None)
    return Superword(text)


@settings(max_examples=300, deadline=None)
@given(st.builds(str.__add__, st.sampled_from(["", "(", "((", "((("]),
                 st.text(alphabet="ABCxyz019()-_", max_size=16)))
@example("((city)")
@example("((city))")
@example("((city)BOSTON)")
@example("(X)")
@example("(((city)X))")
def test_parse_superword_equals_the_regex_reference(text):
    parsed = parse_superword(text)
    assert parsed == _parse_superword_by_regex(text)
    assert type(parsed) is Superword
    if _GRAMMAR_MATCH.match(text):   # a grammar match renders back
        assert parsed.render() == text


def test_superword_render_parse_round_trip():
    for text in ["FLIGHT(S)", "((number)37)", "((aircraft)DC10)", "TO"]:
        assert parse_superword(text).render() == text


# ---------------------------------------------------------------------------
# Lexical parsing into lattices

def test_stop_words_are_deleted(artifacts):
    lattice = lex_parse("SHOW ME THE FLIGHTS", artifacts.lexicon)
    assert lattice.n_positions == 3
    syms = {a.sym for a in lattice.arcs}
    assert syms == {"SHOW", "ME", "FLIGHT(S)"}


def test_inflection_groups_collapse(artifacts):
    for text, sym in [("FLIGHTS", "FLIGHT(S)"), ("FLIGHT", "FLIGHT(S)"),
                      ("FARES", "FARE(S)"), ("AIRFARE", "FARE(S)"),
                      ("LEAVES", "LEAVE(S)")]:
        lattice = lex_parse(text, artifacts.lexicon)
        assert [a.sym for a in lattice.arcs] == [sym]


def test_unknown_words_map_to_marker(artifacts):
    lattice = lex_parse("GOBBLEDYGOOK", artifacts.lexicon)
    assert [a.sym for a in lattice.arcs] == ["<UNK>"]


def test_all_stop_words_is_an_error(artifacts):
    with pytest.raises(ChronusError, match="^all tokens are stop words$"):
        lex_parse("THE A AN", artifacts.lexicon)


def test_empty_sentence_is_an_error(artifacts):
    with pytest.raises(ChronusError,
                       match="^sentence is empty after tokenization$"):
        lex_parse("...", artifacts.lexicon)


def test_compound_numeral_becomes_parallel_arc(artifacts):
    lattice = lex_parse("FLIGHT THIRTY SEVEN", artifacts.lexicon)
    number_arcs = [a for a in lattice.arcs if a.sym == "((number))"]
    # only the maximal match survives: THIRTY SEVEN, not THIRTY or SEVEN
    assert number_arcs == [Arc(1, 3, "((number))", "37")]
    # the per-token arcs remain as a parallel path
    unit = [(a.start, a.end, a.sym) for a in lattice.arcs if a.end - a.start == 1]
    assert unit == [(0, 1, "FLIGHT(S)"), (1, 2, "<UNK>"), (2, 3, "<UNK>")]


def test_multiword_city_is_fused_with_joined_value(artifacts):
    lattice = lex_parse("FROM SAN FRANCISCO", artifacts.lexicon)
    city = [a for a in lattice.arcs if a.sym == "((city))"]
    assert city == [Arc(1, 3, "((city))", "SANFRANCISCO")]


def test_city_prefix_not_kept_when_longer_match_exists(artifacts):
    # WASHINGTON alone is accepted, but inside WASHINGTON D C only the
    # maximal span becomes an arc
    lattice = lex_parse("FROM WASHINGTON D C", artifacts.lexicon)
    city = [a for a in lattice.arcs if a.sym == "((city))"]
    assert city == [Arc(1, 4, "((city))", "WASHINGTONDC")]
    short = lex_parse("FROM WASHINGTON", artifacts.lexicon)
    assert [a for a in short.arcs if a.sym == "((city))"] == \
        [Arc(1, 2, "((city))", "WASHINGTON")]


def test_overlapping_grammars_contribute_independent_arcs(artifacts):
    # D C TEN matches the aircraft grammar as a whole and the number
    # grammar on TEN; containment pruning is per grammar
    lattice = lex_parse("D C TEN", artifacts.lexicon)
    assert Arc(0, 3, "((aircraft))", "DC10") in lattice.arcs
    assert Arc(2, 3, "((number))", "10") in lattice.arcs
    paths = enumerate_path_arcs(lattice)
    rendered = {" ".join(a.superword.render() for a in p) for p in paths}
    assert rendered == {
        "((aircraft)DC10)",
        "<UNK> <UNK> ((number)10)",
        "<UNK> <UNK> <UNK>",
    }


def _arcs_by_all_pairs(kept, lexicon):
    """Word arcs plus every grammar match not strictly contained in another
    match of the same grammar, by comparing all pairs of matches."""
    arcs = [Arc(i, i + 1, lexicon.inflect.get(
                t, t if t in lexicon.words else UNKNOWN))
            for i, t in enumerate(kept)]
    for g in lexicon.grammars:
        matches = [(s, e) for s in range(len(kept))
                   for e in g.match_ends(kept, s)]
        for s, e in matches:
            if not any(s2 <= s and e <= e2 and (s2, e2) != (s, e)
                       for s2, e2 in matches):
                arcs.append(Arc(s, e, f"(({g.gid}))",
                                g.normalize(kept[s:e])))
    return tuple(sorted(arcs, key=Arc.key))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(GRAMMAR_WORDS),
                          st.sampled_from(ANY_WORD)),
                min_size=1, max_size=14))
def test_maximal_match_sweep_equals_all_pairs_definition(tokens):
    kept = [t for t in tokens if t not in BUNDLED.stop]
    assume(kept)
    lattice = lex_parse(" ".join(tokens), BUNDLED)
    assert lattice.arcs == _arcs_by_all_pairs(kept, BUNDLED)


def _match_ends_calls(monkeypatch, sentence):
    """How many times lex_parse calls FsaGrammar.match_ends on ``sentence``."""
    calls = []
    real = FsaGrammar.match_ends

    def counted(self, tokens, start_idx):
        calls.append(start_idx)
        return real(self, tokens, start_idx)

    monkeypatch.setattr(FsaGrammar, "match_ends", counted)
    lex_parse(sentence, BUNDLED)
    return len(calls)


def test_lexer_tries_grammars_only_at_their_start_words(monkeypatch):
    plain = ["SHOW", "ME", "FLIGHTS", "XYZZY"]
    assert not set(plain) & set(GRAMMAR_WORDS)
    assert _match_ends_calls(monkeypatch, " ".join(plain)) == 0
    tokens = ["FROM", "BOSTON", "TO", "DENVER"]
    starts = sum(t in g.start_words for g in BUNDLED.grammars for t in tokens)
    assert starts == 2
    assert _match_ends_calls(monkeypatch, " ".join(tokens)) == starts


# ---------------------------------------------------------------------------
# Lattice invariants

def test_lattice_rejects_out_of_bounds_arc():
    with pytest.raises(ChronusError, match=r"^arc Arc\(start=1, end=3, "
                       r"sym='B', value=None\) out of bounds for n=2$"):
        Lattice(2, [Arc(0, 1, "A"), Arc(1, 3, "B")])


def test_lattice_rejects_duplicate_arc():
    with pytest.raises(ChronusError, match=r"^duplicate arc \(0, 1, 'A'\)$"):
        Lattice(1, [Arc(0, 1, "A"), Arc(0, 1, "A", "x")])


@pytest.mark.parametrize("first,second", [(None, "X"), ("X", None)])
def test_lattice_rejects_arcs_that_differ_only_in_value(first, second):
    # the lattice sorts on (start, end, sym) alone, so the values of a
    # repeat are never compared
    with pytest.raises(ChronusError, match=r"^duplicate arc \(0, 1, 'A'\)$"):
        Lattice(1, [Arc(0, 1, "A", first), Arc(0, 1, "A", second)])


def test_lattice_requires_complete_path():
    with pytest.raises(ChronusError, match="^no complete path from position 0 "
                       "to the end$"):
        Lattice(3, [Arc(0, 1, "A"), Arc(2, 3, "B")])


def test_lattice_requires_positions():
    with pytest.raises(ChronusError,
                       match="^lattice needs at least one token position$"):
        Lattice(0, [])


def _reached(arcs):
    """Positions a path from 0 reaches, by fixpoint over unordered arcs."""
    reach = {0}
    while True:
        more = {a.end for a in arcs if a.start in reach} - reach
        if not more:
            return reach
        reach |= more


@st.composite
def _arc_sets(draw):
    n = draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    keys = draw(st.lists(st.tuples(ends, ends, st.sampled_from("ab")),
                         max_size=10))
    # a pair of positions i, j in [0, n) spans min(i, j) .. max(i, j) + 1
    arcs = {(min(i, j), max(i, j) + 1, sym) for i, j, sym in keys}
    return n, [Arc(*key) for key in arcs]


@settings(max_examples=100, deadline=None)
@given(_arc_sets())
def test_lattice_incoming_holds_the_reachable_arcs(case):
    n, arcs = case
    reach = _reached(arcs)
    if n not in reach:
        with pytest.raises(ChronusError, match="^no complete path from "
                           "position 0 to the end$"):
            Lattice(n, arcs)
        return
    lattice = Lattice(n, arcs)
    expected = {}
    for a in sorted(arcs, key=Arc.key):
        if a.start in reach:
            expected.setdefault(a.end, []).append(a)
    assert {p: [lattice.arcs[i] for i in ids]
            for p, ids in lattice.incoming.items()} == expected


def test_enumerate_path_arcs_order():
    lattice = Lattice(2, [Arc(0, 1, "A"), Arc(0, 1, "B"),
                          Arc(1, 2, "C"), Arc(0, 2, "D")])
    arc_paths = enumerate_path_arcs(lattice)
    assert [[a.sym for a in p] for p in arc_paths] == \
        [["A", "C"], ["B", "C"], ["D"]]


# ---------------------------------------------------------------------------
# Numeral normalization

@pytest.mark.parametrize("words,value", [
    (["THIRTY", "SEVEN"], 37),
    (["ONE", "HUNDRED"], 100),
    (["ONE", "HUNDRED", "TWENTY", "ONE"], 121),
    (["TWO", "THOUSAND"], 2000),
    (["NINETEEN"], 19),
    (["FORTY"], 40),
])
def test_compound_number_values(words, value):
    assert compound_number_value(words) == value


@pytest.mark.parametrize("words", [
    [], ["HUNDRED"], ["SEVEN", "THIRTY"], ["TWENTY", "TWELVE"],
    ["ONE", "ONE"], ["BOSTON"],
])
def test_compound_number_rejects_invalid(words):
    assert compound_number_value(words) is None


def _number_words(n):
    units = {1: "ONE", 2: "TWO", 3: "THREE", 4: "FOUR", 5: "FIVE",
             6: "SIX", 7: "SEVEN", 8: "EIGHT", 9: "NINE"}
    teens = {10: "TEN", 11: "ELEVEN", 12: "TWELVE", 13: "THIRTEEN",
             14: "FOURTEEN", 15: "FIFTEEN", 16: "SIXTEEN",
             17: "SEVENTEEN", 18: "EIGHTEEN", 19: "NINETEEN"}
    tens = {2: "TWENTY", 3: "THIRTY", 4: "FORTY", 5: "FIFTY",
            6: "SIXTY", 7: "SEVENTY", 8: "EIGHTY", 9: "NINETY"}
    words = []
    if n >= 100:
        words += [units[n // 100], "HUNDRED"]
        n %= 100
    if n in teens:
        words.append(teens[n])
    else:
        if n >= 20:
            words.append(tens[n // 10])
            n %= 10
        if n in units:
            words.append(units[n])
    return words


@given(st.integers(min_value=1, max_value=999))
def test_compound_number_round_trip(n):
    words = _number_words(n)
    assert compound_number_value(words) == n


# ---------------------------------------------------------------------------
# Grammars

def test_city_normalizer_joins_without_spaces(artifacts):
    city = next(g for g in artifacts.lexicon.grammars if g.gid == "city")
    assert city.normalize(["SAN", "FRANCISCO"]) == "SANFRANCISCO"
    assert city.normalize(["WASHINGTON", "D", "C"]) == "WASHINGTONDC"


def test_digit_normalizer_renders_numerals(artifacts):
    aircraft = next(g for g in artifacts.lexicon.grammars if g.gid == "aircraft")
    assert aircraft.normalize(["D", "C", "TEN"]) == "DC10"
    assert aircraft.normalize(["B", "SEVEN", "FORTY", "SEVEN"]) == "B747"
    # a number word that starts no compound passes through as a word
    assert aircraft.normalize(["HUNDRED", "SEVEN"]) == "HUNDRED7"
    assert aircraft.normalize(["B", "THOUSAND"]) == "BTHOUSAND"


def test_nondeterministic_grammar_is_determinized():
    trans = {("0", "A"): {"x", "y"}, ("x", "B"): {"accB"}, ("y", "C"): {"accC"}}
    g = FsaGrammar("g", trans, {"accB", "accC"})
    assert g.match_ends(["A", "B"], 0) == [2]
    assert g.match_ends(["A", "C"], 0) == [2]
    assert g.match_ends(["A"], 0) == []


def test_grammar_rejects_unknown_normalizer():
    with pytest.raises(ChronusError,
                       match="^grammar g: unknown normalizer 'nope'$"):
        FsaGrammar("g", {("0", "A"): {"acc"}}, {"acc"}, normalizer="nope")


# ---------------------------------------------------------------------------
# Lexicon validation

def test_word_cannot_be_both_plain_and_inflected():
    with pytest.raises(DataFormatError, match="^FLIGHT is both a plain word "
                       "and an inflection-group member$"):
        SuperwordLexicon({"FLIGHT"}, {"FLIGHT": "FLIGHT(S)"}, set(), [])


def test_unknown_marker_cannot_be_a_surface_word():
    with pytest.raises(DataFormatError,
                       match="^unknown marker must not be a surface word$"):
        SuperwordLexicon({"<UNK>"}, {}, set(), [])


def test_stop_words_may_not_appear_in_grammars():
    g = FsaGrammar("g", {("0", "THE"): {"acc"}}, {"acc"})
    with pytest.raises(DataFormatError, match=r"^stop words \['THE'\] appear "
                       "in grammar g$"):
        SuperwordLexicon(set(), {}, {"THE"}, [g])


def test_duplicate_grammar_ids_rejected():
    g1 = FsaGrammar("g", {("0", "A"): {"acc"}}, {"acc"})
    g2 = FsaGrammar("g", {("0", "B"): {"acc"}}, {"acc"})
    with pytest.raises(DataFormatError, match="^duplicate grammar id g$"):
        SuperwordLexicon(set(), {}, set(), [g1, g2])


def test_from_lines_rejects_conflicting_inflection():
    lines = ["[inflect]", "FLIGHTS\tFLIGHT(S)", "FLIGHTS\tFARE(S)"]
    with pytest.raises(DataFormatError,
                       match="^3: FLIGHTS in two inflection groups$"):
        SuperwordLexicon.from_lines(lines)


def test_superwords_inventory(artifacts):
    sws = set(artifacts.lexicon.superwords)
    assert "<UNK>" in sws
    assert "FLIGHT(S)" in sws
    assert "((city))" in sws and "((number))" in sws and "((aircraft))" in sws
    assert "THE" not in sws  # stop words never reach the model
    assert "FLIGHTS" not in sws  # surface forms collapse to the group symbol
