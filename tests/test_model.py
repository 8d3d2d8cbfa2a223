import math
import random

import pytest

from chronus.concepts import Concept, ConceptDictionary
from chronus.errors import ChronusError, DataFormatError
from chronus.gen import sample_from, sample_sentence
from chronus.model import (BEGIN, NEG_INF, SegmentedSentence,
                           apply_synonym_smoothing, canonical_row,
                           count_events, model_from_text, model_to_text,
                           path_score, round12, train_mle)

from helpers import (assert_rows_normalized, make_sentence, random_corpus,
                     random_trained_model, uniform_rows_model)


def _mk(corpus_specs, dictionary, vocab, k):
    corpus = [make_sentence(words, labels) for words, labels in corpus_specs]
    return train_mle(count_events(corpus, dictionary, vocab), k)


# ---------------------------------------------------------------------------
# Segmented sentences

def test_sentence_render_parse_round_trip():
    text = "SHOW:question\tME:question\t((city)BOSTON):origin"
    sent = SegmentedSentence.parse(text)
    assert sent.render() == text
    assert sent.words[2].value == "BOSTON"


def test_sentence_length_mismatch_rejected():
    with pytest.raises(ChronusError,
                       match="^words and labels must have equal length$"):
        make_sentence(["A", "B"], ["question"])


def test_empty_sentence_rejected():
    with pytest.raises(ChronusError,
                       match="^segmented sentence must be non-empty$"):
        SegmentedSentence((), ())


def test_segments_group_adjacent_equal_labels():
    sent = make_sentence(["A", "B", "C", "D", "E"],
                         ["question", "question", "subject", "origin", "origin"])
    assert sent.segments() == [("question", 0, 2), ("subject", 2, 3),
                               ("origin", 3, 5)]


def test_segments_split_repeated_concept_only_at_label_change():
    sent = make_sentence(["A", "B", "A"], ["origin", "destin", "origin"])
    assert sent.segments() == [("origin", 0, 1), ("destin", 1, 2),
                               ("origin", 2, 3)]


# ---------------------------------------------------------------------------
# Maximum-likelihood estimation

def test_unsmoothed_counts_give_exact_ratios(artifacts):
    model = _mk([ (["SHOW", "ME"], ["question", "question"]) ],
                artifacts.dictionary, ["SHOW", "ME"], k=0.0)
    assert model.initial == {"question": 1.0}
    # label-per-word: one question->question event, one question->final
    assert model.transition["question"] == {"question": 0.5, "</s>": 0.5}
    assert model.bigram["question"]["<s>"] == {"SHOW": 1.0}
    assert model.bigram["question"]["SHOW"] == {"ME": 1.0}
    sent = make_sentence(["SHOW", "ME"], ["question", "question"])
    assert path_score(model, sent.words, sent.labels) == pytest.approx(
        math.log(0.25))


def test_unsmoothed_initial_splits_between_first_concepts(artifacts):
    model = _mk([ (["SHOW"], ["question"]), (["FLIGHT(S)"], ["subject"]) ],
                artifacts.dictionary, ["SHOW", "FLIGHT(S)"], k=0.0)
    assert model.initial == {"question": 0.5, "subject": 0.5}


def test_unsmoothed_absent_rows_are_impossible(artifacts):
    model = _mk([ (["SHOW", "ME"], ["question", "question"]) ],
                artifacts.dictionary, ["SHOW", "ME"], k=0.0)
    # no counts under context ME: the row is absent, not uniform
    assert "ME" not in model.bigram["question"]
    assert model.init_vec[artifacts.dictionary.index("subject")] == NEG_INF
    bad = make_sentence(["ME", "SHOW"], ["question", "question"])
    assert path_score(model, bad.words, bad.labels) == NEG_INF
    # SHOW after ME continues the segment from the absent ME row
    unseen = make_sentence(["SHOW", "ME", "SHOW"], ["question"] * 3)
    assert path_score(model, unseen.words, unseen.labels) == NEG_INF


def test_add_k_smoothing_values(artifacts):
    k = 0.001
    model = _mk([ (["SHOW", "ME"], ["question", "question"]) ],
                artifacts.dictionary, ["SHOW", "ME"], k=k)
    n_cols = len(artifacts.dictionary) + 1  # concepts plus the final column
    assert model.initial["question"] == pytest.approx(
        round12((1 + k) / (1 + k * n_cols)), rel=1e-11)
    assert model.initial["subject"] == pytest.approx(
        round12(k / (1 + k * n_cols)), rel=1e-11)
    assert model.bigram["question"]["SHOW"]["ME"] == pytest.approx(
        round12((1 + k) / (1 + 2 * k)), rel=1e-11)
    assert model.bigram["question"]["SHOW"]["SHOW"] == pytest.approx(
        round12(k / (1 + 2 * k)), rel=1e-11)
    assert_rows_normalized(model)


def test_smoothed_zero_count_context_row_is_uniform(artifacts):
    model = _mk([ (["SHOW", "ME"], ["question", "question"]) ],
                artifacts.dictionary, ["SHOW", "ME"], k=0.001)
    assert "ME" not in model.bigram["question"]  # never observed as a context
    assert model.bigram_row("question", "ME") == {"SHOW": 0.5, "ME": 0.5}
    assert model.bigram_row("origin", BEGIN) == {"SHOW": 0.5, "ME": 0.5}


def _elision_models(demo_counts):
    """(counts, model estimated from them) pairs: the demo model and
    random models."""
    rng = random.Random(7)
    counted = [(demo_counts, 0.001)] + [
        (count_events(*random_corpus(rng, 3, 6)), k)
        for k in (0.0, 0.001) for _ in range(20)]
    return [(counts, train_mle(counts, k)) for counts, k in counted]


def test_no_stored_bigram_row_equals_the_unseen_row(demo_counts, demo_model):
    for _, model in _elision_models(demo_counts):
        unseen = (model.unseen.exc, model.unseen.default)
        for table in model.bigram.values():
            assert all((row.exc, row.default) != unseen
                       for row in table.values())
    # the demo model keeps only the contexts its golds saw
    assert sum(map(len, demo_model.bigram.values())) == 52


def test_emissions_are_the_add_k_estimates_of_the_counts(demo_counts):
    for counts, model in _elision_models(demo_counts):
        k, vocab = model.k, model.vocab
        for c, name in enumerate(model.dictionary.names):
            for ctx in (BEGIN, *vocab):
                row = counts.bigram.get(name, {}).get(ctx, {})
                total = sum(row.values()) + k * len(vocab)
                for sym in vocab:
                    p = round12((row.get(sym, 0) + k) / total) if total else 0.0
                    assert model.emission_vectors[ctx, sym][c] == (
                        math.log(p) if p > 0.0 else NEG_INF)


def test_emission_vectors_hold_the_table_values_bit_for_bit(demo_model):
    # a vector starts from the unseen row and overwrites the concepts with
    # a stored row after its context; at k = 0 the unseen row has no mass,
    # so the concepts without one read -inf
    rng = random.Random(30)
    models = [model_from_text(model_to_text(demo_model))]   # an empty memo
    models += [random_trained_model(rng, n_concepts=4, k=k)
               for k in (0.001, 0.0, 0.5) for _ in range(3)]
    for model in models:
        vocab = model.vocab
        for ctx in (BEGIN, *vocab, "NOT-A-WORD"):   # the last is unseen
            for sym in vocab:
                vec = model.emission_vectors[ctx, sym]
                assert len(vec) == len(model.dictionary)
                for c, name in enumerate(model.dictionary.names):
                    p = model.bigram_row(name, ctx).prob(sym)
                    assert vec[c].hex() == (
                        math.log(p) if p > 0.0 else NEG_INF).hex()
        # the vectors after a context outside the vocabulary are not kept
        assert len(model.emission_vectors) == (len(vocab) + 1) * len(vocab)
    assert any(NEG_INF in vec for model in models[4:7]
               for vec in model.emission_vectors.values())


def test_compiled_transition_tables_hold_the_row_values_bit_for_bit(
        demo_model):
    def log_hex(row, col):   # no row: no mass
        p = row.prob(col) if row is not None else 0.0
        return (math.log(p) if p > 0.0 else NEG_INF).hex()

    rng = random.Random(29)
    models = [demo_model] + [random_trained_model(rng, n_concepts=4, k=k)
                             for k in (0.001, 0.0, 0.5) for _ in range(3)]
    for model in models:
        names = model.dictionary.names
        rows = [model.transition.get(name) for name in names]
        for c, name in enumerate(names):
            assert model.init_vec[c].hex() == log_hex(model.initial, name)
            assert model.final_vec[c].hex() == log_hex(rows[c], "</s>")
            for cp, row in enumerate(rows):
                assert model.trans_into[c][cp].hex() == log_hex(row, name)
    # the sparse models hold impossible events as well as possible ones
    assert any(NEG_INF in row for model in models for row in model.trans_into)


def test_a_memo_subscript_returns_the_vector_emissions_returns(demo_model):
    model = model_from_text(model_to_text(demo_model))   # an empty memo
    memo = model.emission_vectors
    ctx, sym = "SHOW", "ME"
    vec = memo[ctx, sym]   # computed and stored
    assert (ctx, sym) in memo
    assert memo[ctx, sym] is vec
    missing = memo[BEGIN, "FLIGHT(S)"]   # computed by the subscript
    assert memo[BEGIN, "FLIGHT(S)"] is missing
    # a symbol outside the vocabulary reads one shared vector, not stored
    assert memo[BEGIN, "GIZMO"] is memo[BEGIN, "SPROCKET"]
    assert (BEGIN, "GIZMO") not in memo
    assert len(memo) == 2


def test_train_rejects_unknown_label(artifacts):
    with pytest.raises(ChronusError, match="^segmentation label not in "
                       "concept dictionary: 'bogus'$"):
        _mk([ (["SHOW"], ["bogus"]) ], artifacts.dictionary, ["SHOW"], 0.001)


def test_train_rejects_word_outside_vocabulary(artifacts):
    with pytest.raises(ChronusError,
                       match="^word not in vocabulary: 'SHOW'$"):
        _mk([ (["SHOW"], ["question"]) ], artifacts.dictionary, ["ME"], 0.001)


def test_train_rejects_empty_corpus(artifacts):
    with pytest.raises(ChronusError,
                       match="^training corpus has no gold segmentations$"):
        count_events([], artifacts.dictionary, ["SHOW"])


@pytest.mark.parametrize("k", [-0.001, -1.0, math.inf, math.nan])
def test_train_rejects_a_negative_or_non_finite_k(artifacts, k):
    with pytest.raises(ChronusError, match="is not a finite number >= 0"):
        _mk([(["SHOW"], ["question"])], artifacts.dictionary, ["SHOW"], k)


def test_all_rows_normalized_on_real_model(demo_model):
    assert_rows_normalized(demo_model)


def test_sequence_log_prob_matches_hand_product(artifacts):
    model = _mk([ (["SHOW", "FLIGHT(S)"], ["question", "subject"]),
                  (["SHOW", "ME"], ["question", "question"]) ],
                artifacts.dictionary, ["SHOW", "ME", "FLIGHT(S)"], k=0.0)
    sent = make_sentence(["SHOW", "FLIGHT(S)"], ["question", "subject"])
    # initial(question)=1, emit SHOW|<s>=1, trans question->subject=1/3
    # (the question row saw ->subject, ->question and ->final once each),
    # emit FLIGHT(S)|<s> under subject=1 (segment change resets context),
    # final(subject)=1
    assert path_score(model, sent.words, sent.labels) == pytest.approx(
        math.log(1 / 3))


# ---------------------------------------------------------------------------
# Serialization

def test_model_text_round_trip(demo_model):
    text = model_to_text(demo_model)
    again = model_from_text(text)
    assert model_to_text(again) == text
    assert again.k == demo_model.k
    assert again.vocab == demo_model.vocab
    assert again.row_count() == demo_model.row_count()
    sent = SegmentedSentence.parse(
        "SHOW:question\tME:question\tFLIGHT(S):subject")
    assert (path_score(again, sent.words, sent.labels)
            == path_score(demo_model, sent.words, sent.labels))


def test_model_text_header_required():
    with pytest.raises(DataFormatError,
                       match="^1: missing chronus-model v3 header$"):
        model_from_text("not a model\n")


def test_canonical_probabilities_are_12_digit_stable(demo_model):
    # every stored probability survives the decimal rendering unchanged
    for _, row in demo_model.rows():
        for p in row.values():
            assert float(f"{p:.11e}") == p


# ---------------------------------------------------------------------------
# Synonym smoothing

def _synonym_counts(artifacts):
    vocab = ["DEPART(S)", "LEAVE(S)", "FROM", "((city))"]
    corpus = [
        make_sentence(["DEPART(S)", "FROM", "((city))"],
                      ["origin", "origin", "origin"]),
        make_sentence(["LEAVE(S)", "((city))"], ["origin", "origin"]),
    ]
    return count_events(corpus, artifacts.dictionary, vocab)


def test_synonym_rows_become_identical(artifacts):
    counts = _synonym_counts(artifacts)
    model = train_mle(counts, 0.001)
    groups = {"origin": [["DEPART(S)", "LEAVE(S)"]]}
    before = model.bigram["origin"]
    assert before["DEPART(S)"] != before["LEAVE(S)"]
    smoothed = apply_synonym_smoothing(model, groups, counts)
    table = smoothed.bigram["origin"]
    assert table["DEPART(S)"] == table["LEAVE(S)"]
    # member columns share their mass in every row of the concept table
    for row in table.values():
        assert row.get("DEPART(S)", 0.0) == row.get("LEAVE(S)", 0.0)
    assert_rows_normalized(smoothed)


def test_synonym_smoothing_is_idempotent(artifacts):
    counts = _synonym_counts(artifacts)
    groups = {"origin": [["DEPART(S)", "LEAVE(S)"]]}
    once = apply_synonym_smoothing(train_mle(counts, 0.001), groups, counts)
    twice = apply_synonym_smoothing(once, groups, counts)
    assert model_to_text(twice) == model_to_text(once)


def test_synonym_smoothing_leaves_other_tables_alone(artifacts):
    counts = _synonym_counts(artifacts)
    model = train_mle(counts, 0.001)
    smoothed = apply_synonym_smoothing(
        model, {"origin": [["DEPART(S)", "LEAVE(S)"]]}, counts)
    assert smoothed.transition == model.transition
    assert smoothed.initial == model.initial
    assert smoothed.bigram["destin"] == model.bigram["destin"]


def test_empty_and_singleton_groups_are_identity(artifacts):
    counts = _synonym_counts(artifacts)
    model = train_mle(counts, 0.001)
    assert apply_synonym_smoothing(model, {}, counts) is model
    same = apply_synonym_smoothing(model, {"origin": [["DEPART(S)"]]}, counts)
    assert model_to_text(same) == model_to_text(model)


def test_synonym_smoothing_input_validation(artifacts):
    counts = _synonym_counts(artifacts)
    model = train_mle(counts, 0.001)
    with pytest.raises(ChronusError, match="^unknown concept 'bogus'$"):
        apply_synonym_smoothing(model, {"bogus": [["FROM", "((city))"]]},
                                counts)
    with pytest.raises(ChronusError,
                       match="^word not in vocabulary: 'NOPE'$"):
        apply_synonym_smoothing(model, {"origin": [["FROM", "NOPE"]]}, counts)
    with pytest.raises(ChronusError, match="^word 'FROM' in two synonym "
                       "groups under origin$"):
        apply_synonym_smoothing(
            model, {"origin": [["FROM", "((city))"], ["FROM", "DEPART(S)"]]},
            counts)


def test_canonical_row_default_is_the_most_common_value():
    cols = dict.fromkeys("abcd")
    # 0.4 twice, 0.2 once, the absent column 0 once
    row = canonical_row({"a": 0.4, "b": 0.4, "c": 0.2}, 0.0, cols)
    assert (row.exc, row.default) == ({"c": 0.2, "d": 0.0}, 0.4)
    assert row == {"a": 0.4, "b": 0.4, "c": 0.2}
    assert len(row) == 3 and row.total() == pytest.approx(1.0)
    # a tie goes to the smaller value, however the row was written
    tie = canonical_row({"a": 0.3, "b": 0.3}, 0.2, cols)
    same = canonical_row({"c": 0.2, "d": 0.2}, 0.3, cols)
    assert (tie.exc, tie.default) == (same.exc, same.default) \
        == ({"a": 0.3, "b": 0.3}, 0.2)


def test_a_zero_column_is_no_key_of_its_row():
    row = canonical_row({"a": 1.0}, 0.0, dict.fromkeys("abc"))
    assert row["a"] == 1.0 and row.prob("b") == 0.0
    with pytest.raises(KeyError):
        row["b"]
    with pytest.raises(KeyError):
        row["z"]


def test_synonym_rows_average_equally_when_no_member_was_counted(artifacts):
    # counts in which origin never saw either member as a context, as when
    # a model is smoothed with counts other than its own
    model = train_mle(_synonym_counts(artifacts), 0.001)
    other = count_events([make_sentence(["FROM"], ["origin"])],
                         artifacts.dictionary, model.vocab)
    before = model.bigram["origin"]
    depart, leave = before["DEPART(S)"], before["LEAVE(S)"]
    assert depart != leave
    smoothed = apply_synonym_smoothing(
        model, {"origin": [["DEPART(S)", "LEAVE(S)"]]}, other)
    row = smoothed.bigram["origin"]["DEPART(S)"]
    assert row is smoothed.bigram["origin"]["LEAVE(S)"]
    for col in ("FROM", "((city))", "SHOW"):
        assert row.prob(col) == round12((depart.prob(col)
                                         + leave.prob(col)) / 2)


def test_path_score_refuses_a_label_that_is_not_a_concept(artifacts):
    model = train_mle(_synonym_counts(artifacts), 0.001)
    sent = make_sentence(["FROM", "((city))"], ["origin", "bogus"])
    with pytest.raises(ChronusError, match="^segmentation label not in "
                       "concept dictionary: 'bogus'$"):
        path_score(model, sent.words, sent.labels)


def test_v3_model_text_is_a_fixed_point(artifacts):
    counts = _synonym_counts(artifacts)
    smoothed = apply_synonym_smoothing(train_mle(counts, 0.001),
                                       {"origin": [["DEPART(S)", "LEAVE(S)"]]},
                                       counts)
    text = model_to_text(smoothed)
    assert text.startswith("chronus-model v3\n")
    assert model_to_text(model_from_text(text)) == text


def test_sampling_a_row_without_mass_names_concept_and_context():
    # with k = 0 the context B, never followed by a word inside c0, has the
    # empty unseen row; staying in c0 after B has nothing to emit
    dictionary = ConceptDictionary([Concept("c0", "restriction", rank=2),
                                    Concept("dummy", "special"),
                                    Concept("and", "special")])
    model = _mk([(["A", "B"], ["c0", "c0"]), (["B"], ["c0"])], dictionary,
                ["A", "B"], k=0.0)
    rng = random.Random(0)
    for _ in range(5):
        sample_sentence(model, rng)
    with pytest.raises(ChronusError,
                       match="concept 'c0' has no word to emit after "
                             "context 'B'"):
        sample_sentence(model, rng)


class _TopRng:
    """An rng whose every draw is the top of [0, 1]."""

    def random(self):
        return 1.0


def test_sampling_a_draw_past_every_cumulative_bound_takes_the_last_key():
    # x = total is not below the last cumulative sum, so no key is chosen
    # in the loop and the last key, in sorted order, is returned
    assert sample_from({"b": 0.5, "a": 0.5}, _TopRng()) == "b"
    assert sample_from({"a": 0.1, "c": 0.7, "b": 0.2}, _TopRng()) == "c"


def test_sampling_from_a_model_that_can_start_no_sentence_is_refused():
    model = uniform_rows_model(1, ["w"], ["</s>"], {"c0": ["</s>"]},
                               {"c0": {BEGIN: ["w"]}})
    with pytest.raises(ChronusError,
                       match="^model cannot start any sentence$"):
        sample_sentence(model, random.Random(0))
