import math
import random

import pytest

from chronus.concepts import Concept, ConceptDictionary
from chronus.decoder import (brute_force_decode, path_score, viterbi_decode,
                             viterbi_decode_lattice)
from chronus.errors import ChronusError
from chronus.lexicon import Arc, Lattice, Superword, lex_parse
from chronus.model import (NEG_INF, count_events, model_from_text,
                           model_to_text, round12, train_mle)

from helpers import (make_sentence, random_lattice, random_trained_model,
                     tie_heavy_model, uniform_rows_model)


# ---------------------------------------------------------------------------
# Chain decoding

def test_recovers_training_labels_exactly(artifacts):
    corpus = [make_sentence(["SHOW", "ME", "FLIGHT(S)", "TO", "((city))"],
                            ["question", "question", "subject",
                             "destin", "destin"])]
    vocab = ["SHOW", "ME", "FLIGHT(S)", "TO", "((city))"]
    model = train_mle(count_events(corpus, artifacts.dictionary, vocab),
                      k=0.0)
    result = viterbi_decode(model, ["SHOW", "ME", "FLIGHT(S)", "TO", "((city))"])
    assert result.labels == ("question", "question", "subject",
                             "destin", "destin")
    assert not result.degenerate
    assert result.log_prob == pytest.approx(
        path_score(model, result.words, result.labels), abs=1e-12)


def test_chain_decode_equals_single_path_lattice():
    model = random_trained_model(random.Random(5))
    words = [Superword("w0"), Superword("w1"), Superword("w2")]
    chain = Lattice(3, [Arc(i, i + 1, w.sym) for i, w in enumerate(words)])
    a = viterbi_decode(model, words)
    b = viterbi_decode_lattice(model, chain)
    assert a.labels == b.labels and a.log_prob == b.log_prob


def test_empty_sequence_rejected():
    model = random_trained_model(random.Random(0))
    with pytest.raises(ChronusError):
        viterbi_decode(model, [])


def test_log_prob_is_path_score_of_returned_labeling():
    rng = random.Random(99)
    for _ in range(20):
        model = random_trained_model(rng)
        lattice = random_lattice(rng, model)
        result = viterbi_decode_lattice(model, lattice)
        arcs = [a for a in sorted(lattice.arcs, key=Arc.key)]
        # reconstruct the chosen path by matching the returned superwords
        path = []
        pos = 0
        for w in result.words:
            nxt = next(a for a in arcs
                       if a.start == pos and a.superword == w)
            path.append(nxt)
            pos = nxt.end
        assert pos == lattice.n_positions
        assert result.log_prob == pytest.approx(
            path_score(model, path, result.labels), abs=1e-12)


def test_log_prob_is_exactly_path_score_on_long_demo_sentences(
        demo_model, artifacts, demo_corpus, semi_corpus):
    texts = [e.text for e in demo_corpus.entries + semi_corpus.entries]
    rng = random.Random(2718)
    for _ in range(50):
        text = " ".join(rng.choice(texts) for _ in range(rng.randint(3, 15)))
        result = viterbi_decode_lattice(demo_model,
                                        lex_parse(text, artifacts.lexicon))
        assert result.log_prob == path_score(demo_model, result.words,
                                             result.labels)


# ---------------------------------------------------------------------------
# Oracle agreement

def test_viterbi_matches_brute_force_on_random_instances():
    rng = random.Random(4242)
    for _ in range(100):
        model = random_trained_model(rng)
        lattice = random_lattice(rng, model)
        fast = viterbi_decode_lattice(model, lattice)
        slow = brute_force_decode(model, lattice)
        assert fast.labels == slow.labels
        assert fast.words == slow.words
        assert repr(fast.log_prob) == repr(slow.log_prob)
        assert fast.degenerate == slow.degenerate


def test_viterbi_matches_brute_force_exactly_under_heavy_ties():
    # degenerate inputs (every labeling -inf) included: the decoder then
    # returns the oracle's first labeling
    rng = random.Random(31337)
    degenerate = 0
    for _ in range(400):
        model = tie_heavy_model(rng)
        lattice = random_lattice(rng, model, max_positions=5)
        fast = viterbi_decode_lattice(model, lattice)
        slow = brute_force_decode(model, lattice)
        assert repr(fast.log_prob) == repr(slow.log_prob)
        assert fast.degenerate == slow.degenerate
        assert fast.labels == slow.labels
        assert fast.words == slow.words
        degenerate += slow.degenerate
    assert 100 <= degenerate <= 200


def _bound_models():
    """Two models over c0, c1, dummy, and: in the first, c1's self-loop is
    its largest incoming transition; in the second, it is its only finite
    one, so the walk's bound into c1 is -inf."""
    emit = {"c0": dict.fromkeys(["<s>", "a", "b"], ["a", "b"]),
            "c1": dict.fromkeys(["<s>", "a", "b"], ["a"]),
            "dummy": dict.fromkeys(["<s>", "a", "b"], ["a", "b", "c"])}
    vocab = ["a", "b", "c"]
    self_largest = uniform_rows_model(
        2, vocab, ["c0", "dummy"],
        {"c0": ["c0", "c1", "dummy", "</s>"], "c1": ["c1", "</s>"],
         "dummy": ["c0", "c1", "</s>"]}, emit)
    self_only = uniform_rows_model(
        2, vocab, ["c0", "c1"],
        {"c0": ["c0", "dummy", "</s>"], "c1": ["c1", "</s>"],
         "dummy": ["c0", "</s>"]}, emit)
    return self_largest, self_only


def test_walk_bound_is_the_largest_transition_from_another_concept():
    self_largest, self_only = _bound_models()
    third, quarter = math.log(round12(1 / 3)), math.log(0.25)
    # into c0: c0 1/4 (self), dummy 1/3; into c1: c0 1/4, c1 1/2 (self),
    # dummy 1/3; into dummy: c0 1/4; nothing enters and
    assert self_largest.enter_max == [third, third, quarter, NEG_INF]
    c1 = self_largest.dictionary.index("c1")
    assert self_largest.trans_into[c1][c1] == math.log(0.5) > third
    # into c0: dummy 1/2; c1 starts a sentence or follows itself, never
    # another concept; into dummy: c0 1/3
    assert self_only.enter_max == [math.log(0.5), NEG_INF, third, NEG_INF]
    assert self_only.trans_into[c1][c1] == math.log(0.5)


def test_decoder_matches_brute_force_where_the_self_loop_is_excluded():
    rng = random.Random(2024)
    degenerate = 0
    for model in _bound_models():
        for _ in range(150):
            lattice = random_lattice(rng, model, max_positions=5)
            fast = viterbi_decode_lattice(model, lattice)
            slow = brute_force_decode(model, lattice)
            assert repr(fast.log_prob) == repr(slow.log_prob)
            assert fast.labels == slow.labels
            assert fast.words == slow.words
            assert fast.degenerate == slow.degenerate
            degenerate += slow.degenerate
    assert degenerate < 100   # most draws have a finite best labeling


def test_tie_between_stay_and_change_goes_to_the_smaller_index():
    # into (b, c1), staying from (a, c1) and changing from (a, c0) score
    # exactly alike; only c1 may end, so the tie decides the labels
    ab = dict.fromkeys(["<s>", "a", "b"], ["a", "b"])
    model = uniform_rows_model(
        2, ["a", "b"], ["c0", "c1"],
        {"c0": ["c0", "c1"], "c1": ["c1", "</s>"]}, {"c0": ab, "c1": ab})
    lattice = Lattice(2, [Arc(0, 1, "a"), Arc(1, 2, "b")])
    fast = viterbi_decode_lattice(model, lattice)
    slow = brute_force_decode(model, lattice)
    assert fast.labels == slow.labels == ("c0", "c1")
    assert repr(fast.log_prob) == repr(slow.log_prob)
    assert fast.log_prob == path_score(model, lattice.arcs, ("c1", "c1"))


def test_ties_across_incoming_arcs_go_to_the_smaller_concept_then_arc():
    # two arcs a, b into position 1, in key order; into (a, c2) the
    # candidates (c1, arc a) and (c0, arc b) tie, so the later arc wins on
    # its smaller concept; into (a, c0) of the second model the stay
    # candidates from arcs a and b tie, so the earlier arc wins
    lattice = Lattice(2, [Arc(0, 1, "a"), Arc(0, 1, "b"), Arc(1, 2, "a")])
    change = uniform_rows_model(
        3, ["a", "b"], ["c0", "c1"],
        {"c0": ["c2"], "c1": ["c2"], "c2": ["</s>"]},
        {"c0": {"<s>": ["b"]}, "c1": {"<s>": ["a"]},
         "c2": {"<s>": ["a", "b"]}})
    stay = uniform_rows_model(
        1, ["a", "b"], ["c0"], {"c0": ["c0", "</s>"]},
        {"c0": dict.fromkeys(["<s>", "a", "b"], ["a", "b"])})
    for model, labels, first in ((change, ("c0", "c2"), "b"),
                                 (stay, ("c0", "c0"), "a")):
        fast = viterbi_decode_lattice(model, lattice)
        slow = brute_force_decode(model, lattice)
        assert fast.labels == slow.labels == labels
        assert [w.sym for w in fast.words] == [w.sym for w in slow.words] \
            == [first, "a"]
        assert repr(fast.log_prob) == repr(slow.log_prob)


def test_degenerate_lattices_give_the_oracles_first_labeling():
    # k = 0 models make many lattices degenerate; on them the per-cell
    # back pointers alone would disagree with the oracle's global order
    rng = random.Random(4242)
    degenerate = 0
    for _ in range(200):
        model = random_trained_model(rng, k=0.0)
        lattice = random_lattice(rng, model)
        fast = viterbi_decode_lattice(model, lattice)
        if fast.degenerate:
            slow = brute_force_decode(model, lattice)
            assert slow.degenerate
            assert (fast.labels, fast.words) == (slow.labels, slow.words)
            degenerate += 1
    assert degenerate >= 50


def test_rounding_ties_go_to_the_larger_prefix_in_decoder_and_oracle():
    # two prefixes that meet in one cell an ulp apart reach one total; the
    # decoder keeps the strictly larger prefix, and so does the oracle's key
    rng = random.Random(4242)
    labels = {}
    for n in range(1564):
        model = random_trained_model(rng, k=0.0)
        lattice = random_lattice(rng, model)
        if n in (1241, 1563):
            fast = viterbi_decode_lattice(model, lattice)
            slow = brute_force_decode(model, lattice)
            assert (fast.labels, fast.words, repr(fast.log_prob)) == (
                slow.labels, slow.words, repr(slow.log_prob))
            assert not fast.degenerate
            labels[n] = fast.labels
    assert labels == {1241: ("c2", "dummy", "c0"),
                      1563: ("c2", "and", "c2", "c0")}


def test_degenerate_flag_when_nothing_has_probability(artifacts):
    corpus = [make_sentence(["SHOW", "ME"], ["question", "question"])]
    model = train_mle(
        count_events(corpus, artifacts.dictionary, ["SHOW", "ME"]), k=0.0)
    # reversed word order was never observed; every labeling scores -inf
    result = viterbi_decode(model, ["ME", "SHOW"])
    assert result.degenerate
    assert result.log_prob == NEG_INF


def test_decoding_an_unknown_symbol_leaves_the_emission_memo_alone(
        demo_model):
    model = model_from_text(model_to_text(demo_model))   # an empty memo
    # GIZMO is in no vocabulary; it is a context on the way to FLIGHT(S)
    lattice = Lattice(3, [Arc(0, 1, "SHOW"), Arc(1, 2, "ME"),
                          Arc(1, 2, "GIZMO"), Arc(2, 3, "FLIGHT(S)"),
                          Arc(1, 3, "GIZMO")])
    first = viterbi_decode_lattice(model, lattice)
    size = len(model._emissions)
    again = viterbi_decode_lattice(model, lattice)
    assert len(model._emissions) == size
    assert not any("GIZMO" in key for key in model._emissions)
    assert (first.labels, first.words, repr(first.log_prob),
            first.degenerate, first.relaxations) == (
        again.labels, again.words, repr(again.log_prob),
        again.degenerate, again.relaxations)
    assert [w.sym for w in first.words] == ["SHOW", "ME", "FLIGHT(S)"]


def test_lattice_prefers_trained_fused_arc(demo_model, artifacts):
    lattice = lex_parse("SHOW ME THE FLIGHTS FROM SAN FRANCISCO",
                        artifacts.lexicon)
    result = viterbi_decode_lattice(demo_model, lattice)
    rendered = [w.render() for w in result.words]
    assert rendered == ["SHOW", "ME", "FLIGHT(S)", "FROM", "((city)SANFRANCISCO)"]
    assert result.labels == ("question", "question", "subject",
                             "origin", "origin")


def test_lattice_avoids_zero_probability_path():
    names = ["c0"]
    dictionary = ConceptDictionary(
        [Concept("c0", "restriction", rank=2),
         Concept("dummy", "special"), Concept("and", "special")])
    corpus = [make_sentence(["a", "b"], ["c0", "c0"])]
    model = train_mle(count_events(corpus, dictionary, ["a", "b", "x"]),
                      k=0.0)
    # two paths: the trained bigram a b, and a single arc x with no counts
    lattice = Lattice(2, [Arc(0, 1, "a"), Arc(1, 2, "b"), Arc(0, 2, "x")])
    result = viterbi_decode_lattice(model, lattice)
    assert [w.sym for w in result.words] == ["a", "b"]
    assert not result.degenerate


# ---------------------------------------------------------------------------
# Complexity contract

def test_chain_relaxation_count_is_quadratic_in_concepts():
    rng = random.Random(11)
    model = random_trained_model(rng, k=0.001)
    n_concepts = len(model.dictionary.names)
    for n in (1, 3, 6):
        words = [Superword(f"w{i % 3}") for i in range(n)]
        result = viterbi_decode(model, words)
        # first position relaxes once per concept, every later position
        # once per concept pair, plus the final transition sweep
        expected = n_concepts + (n - 1) * n_concepts ** 2 + n_concepts
        assert result.relaxations == expected


def _expected_lattice_relaxations(lattice, n_concepts):
    """|C| per arc leaving 0, |C|^2 per live predecessor of every arc, and
    |C| per live arc into the last position; live = reachable from 0."""
    reach = {0}
    live_preds = 0
    for a in lattice.arcs:  # sorted by start
        if a.start in reach:
            live_preds += sum(1 for b in lattice.arcs
                              if b.end == a.start and b.start in reach)
            reach.add(a.end)
    starts = sum(1 for a in lattice.arcs if a.start == 0)
    ends = sum(1 for a in lattice.arcs
               if a.end == lattice.n_positions and a.start in reach)
    return (n_concepts * starts + n_concepts ** 2 * live_preds
            + n_concepts * ends)


def test_lattice_relaxation_count_sums_live_predecessors():
    model = random_trained_model(random.Random(11), k=0.001)
    n_concepts = len(model.dictionary.names)
    # nothing ends at position 1, so the two arcs leaving it are dead; the
    # two arcs over 2..4 are parallel grammar matches
    lattice = Lattice(4, [
        Arc(0, 2, "w0"), Arc(0, 2, "w2"),
        Arc(1, 2, "w1"), Arc(1, 3, "w2"),
        Arc(2, 3, "w1"), Arc(2, 4, "((number))", "7"),
        Arc(2, 4, "((city))", "BOSTON"), Arc(3, 4, "w2")])
    result = viterbi_decode_lattice(model, lattice)
    # live predecessors: 2 for each arc leaving 2, 1 for (3, 4, w2)
    expected = n_concepts * 2 + n_concepts ** 2 * 7 + n_concepts * 3
    assert _expected_lattice_relaxations(lattice, n_concepts) == expected
    assert result.relaxations == expected
    assert result.log_prob == path_score(model, result.words, result.labels)


def test_demo_lattice_relaxation_count(demo_model, artifacts):
    lattice = lex_parse("SHOW ME THE FLIGHTS FROM SAN FRANCISCO TO BOSTON "
                        "ON FLIGHT THIRTY SEVEN", artifacts.lexicon)
    assert len(lattice.arcs) > lattice.n_positions  # parallel grammar arcs
    result = viterbi_decode_lattice(demo_model, lattice)
    assert result.relaxations == _expected_lattice_relaxations(
        lattice, len(demo_model.dictionary.names))


# ---------------------------------------------------------------------------
# Oracle guards

def test_brute_force_guard_on_concept_count():
    names = [Concept(f"c{i}", "restriction", rank=2) for i in range(7)]
    dictionary = ConceptDictionary(
        names + [Concept("dummy", "special"), Concept("and", "special")])
    corpus = [make_sentence(["a"], ["c0"])]
    model = train_mle(count_events(corpus, dictionary, ["a"]), k=0.001)
    with pytest.raises(ChronusError, match="^more than 6 concepts$"):
        brute_force_decode(model, Lattice(1, [Arc(0, 1, "a")]))


def test_brute_force_guard_on_path_length():
    model = random_trained_model(random.Random(3))
    arcs = [Arc(i, i + 1, "w0") for i in range(9)]
    with pytest.raises(ChronusError, match="^path longer than 8$"):
        brute_force_decode(model, Lattice(9, arcs))
