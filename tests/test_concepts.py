import pytest

from chronus.concepts import Concept, ConceptDictionary, parse_concept
from chronus.errors import ChronusError


def _specials():
    return [Concept("dummy", "special"), Concept("and", "special")]


def test_bundled_dictionary_shape(artifacts):
    d = artifacts.dictionary
    assert len(d) == 15
    assert d.names[0] == "question"
    assert d["dummy"].keyword is None and d["and"].keyword is None
    assert d["origin"].rank == 0 and d["destin"].rank == 0
    assert d["meal"].rank == 3


def test_attribute_folding(artifacts):
    d = artifacts.dictionary
    assert d["a_fare"].keyword == "fare"
    assert d["a_time"].keyword == "depart-time"
    assert d["q_attr"].keyword == "question"
    assert d["origin"].keyword == "origin"  # non-attributes fold to themselves


def test_keywords_of_a_labeling_are_one_per_non_special_segment(artifacts):
    d = artifacts.dictionary
    labels = ["question", "question", "dummy", "a_fare", "fare", "fare",
              "and", "origin", "origin"]
    assert d.keywords(labels) == ["question", "fare", "fare", "origin"]
    assert d.keywords(["dummy", "and"]) == [] == d.keywords([])


def test_index_is_declaration_order(artifacts):
    d = artifacts.dictionary
    assert [d.index(n) for n in d.names] == list(range(len(d)))


def test_duplicate_names_rejected():
    with pytest.raises(ChronusError):
        ConceptDictionary([Concept("x", "subject"), Concept("x", "subject")]
                          + _specials())


def test_unknown_role_rejected():
    with pytest.raises(ChronusError, match="^f.txt:2: unknown role 'verb'"):
        ConceptDictionary.from_lines(["dummy\tspecial\t9", "x\tverb\t1"],
                                     path="f.txt")


def test_attribute_needs_valid_counterpart():
    with pytest.raises(ChronusError):
        ConceptDictionary([Concept("a", "attribute", counterpart="missing")]
                          + _specials())
    with pytest.raises(ChronusError):
        # an attribute may not fold into another attribute
        ConceptDictionary([Concept("x", "restriction"),
                           Concept("a", "attribute", counterpart="b"),
                           Concept("b", "attribute", counterpart="x")]
                          + _specials())


def test_attribute_naming_itself_as_counterpart_is_refused():
    with pytest.raises(ChronusError,
                       match="^attribute a_x folds into non-foldable a_x$"):
        ConceptDictionary([Concept("x", "restriction"),
                           Concept("a_x", "attribute", counterpart="a_x")]
                          + _specials())


def test_special_concepts_required():
    with pytest.raises(ChronusError):
        ConceptDictionary([Concept("x", "subject"), Concept("and", "special")])


def test_lines_round_trip(artifacts):
    d = artifacts.dictionary
    again = ConceptDictionary.from_lines(d.to_lines())
    assert again.names == d.names
    assert again.to_lines() == d.to_lines()


def test_from_lines_rejects_bad_rank():
    with pytest.raises(ChronusError):
        ConceptDictionary.from_lines(["x\tsubject\tmany"])
    with pytest.raises(ChronusError):
        ConceptDictionary.from_lines(["x\tsubject\t-1"])


def test_line_read_is_not_part_of_a_concepts_identity(artifacts):
    d = artifacts.dictionary
    for c, text in zip(d, d.to_lines()):
        again = parse_concept(text)
        assert c.line is not None and again.line is None
        assert again == c and hash(again) == hash(c)
