from hypothesis import given, settings, strategies as st

from chronus.concepts import ConceptDictionary
from chronus.dialog import merge_context
from chronus.pipeline import data_path
from chronus.template import Template, TemplateToken


def _t(*pairs):
    return Template(tokens=[TemplateToken(k, v) for k, v in pairs])


def _merge(context, pairs, artifacts):
    return merge_context(context, _t(*pairs), artifacts.dictionary)


def test_first_turn_merges_to_itself(artifacts):
    merged = _merge(Template(), [("question", "display"),
                                 ("origin", "BBOS")], artifacts)
    assert merged.render() == "(question,display) (origin,BBOS)"


def test_refinement_overlays_context(artifacts):
    context = _merge(Template(), [("question", "display"),
                                  ("subject", "flight"),
                                  ("origin", "BBOS")], artifacts)
    merged = _merge(context, [("meal", "DINNER")], artifacts)
    assert merged.render() == ("(question,display) (subject,flight) "
                               "(origin,BBOS) (meal,DINNER)")


def test_endpoint_change_clears_context(artifacts):
    context = _merge(Template(), [("origin", "BBOS"),
                                  ("airline", "AA"),
                                  ("meal", "DINNER")], artifacts)
    merged = _merge(context, [("origin", "DDEN")], artifacts)
    assert merged.render() == "(origin,DDEN)"


def test_same_endpoint_value_does_not_clear(artifacts):
    context = _merge(Template(), [("origin", "BBOS"),
                                  ("meal", "DINNER")], artifacts)
    merged = _merge(context, [("origin", "BBOS")], artifacts)
    assert merged.render() == "(origin,BBOS) (meal,DINNER)"


def test_changed_value_deletes_strictly_lower_levels(artifacts):
    # meal (rank 3) hangs below airline (rank 2); origin (rank 0) and
    # question/subject (rank 1) sit above it
    context = _merge(Template(), [("question", "display"),
                                  ("subject", "flight"),
                                  ("origin", "BBOS"),
                                  ("airline", "DL"),
                                  ("meal", "DINNER")], artifacts)
    merged = _merge(context, [("airline", "AA")], artifacts)
    assert merged.render() == ("(question,display) (subject,flight) "
                               "(origin,BBOS) (airline,AA)")


def test_equal_rank_survives_a_change(artifacts):
    # fare and airline are both rank 2: changing one keeps the other
    context = _merge(Template(), [("airline", "DL"),
                                  ("fare", "ECONOMY")], artifacts)
    merged = _merge(context, [("airline", "AA")], artifacts)
    assert merged.render() == "(airline,AA) (fare,ECONOMY)"


def test_new_keyword_never_triggers_deletion(artifacts):
    context = _merge(Template(), [("origin", "BBOS"),
                                  ("meal", "DINNER")], artifacts)
    merged = _merge(context, [("airline", "UA")], artifacts)
    assert merged.render() == "(origin,BBOS) (meal,DINNER) (airline,UA)"


def test_repeated_keyword_in_one_template_is_deduplicated(artifacts):
    merged = _merge(Template(), [("question", "display"),
                                 ("question", "yes-no")], artifacts)
    assert [t.keyword for t in merged.tokens] == ["question"]
    # the overlay keeps the template's last mention
    assert merged.get("question").value == "yes-no"


def test_repeated_keyword_keeps_its_first_place(artifacts):
    merged = _merge(Template(), [("question", "display"),
                                 ("fare", "ECONOMY"),
                                 ("question", "display"),
                                 ("origin", "SSFO")], artifacts)
    assert [t.keyword for t in merged.tokens] == ["question", "fare", "origin"]


def test_merge_is_deterministic(artifacts):
    context = _merge(Template(), [("question", "display"),
                                  ("origin", "BBOS")], artifacts)
    a = _merge(context, [("destin", "DDFW"), ("meal", "LUNCH")], artifacts)
    b = _merge(context, [("destin", "DDFW"), ("meal", "LUNCH")], artifacts)
    assert a.tokens == b.tokens


KEYWORDS = ConceptDictionary.load(data_path("concepts.txt")).names
VALUES = ["A", "B", "C"]


@st.composite
def _context_and_template(draw):
    """A context, and a template that gives no keyword two values."""
    context = draw(st.dictionaries(st.sampled_from(KEYWORDS),
                                   st.sampled_from(VALUES), max_size=8))
    values = draw(st.dictionaries(st.sampled_from(KEYWORDS),
                                  st.sampled_from(VALUES), min_size=1,
                                  max_size=6))
    keywords = draw(st.lists(st.sampled_from(sorted(values)), max_size=10))
    return (Template([TemplateToken(k, v) for k, v in context.items()]),
            _t(*[(k, values[k]) for k in keywords]))


@settings(max_examples=200, deadline=None)
@given(case=_context_and_template())
def test_merging_a_template_again_changes_nothing(artifacts, case):
    context, template = case
    once = merge_context(context, template, artifacts.dictionary)
    twice = merge_context(once, template, artifacts.dictionary)
    assert twice.tokens == once.tokens
