"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line for its criterion; all margins
and tolerances are pinned in the assertions.
"""

import io
import random
import time

from chronus.cli import main
from chronus.decoder import brute_force_decode, viterbi_decode, \
    viterbi_decode_lattice
from chronus.gen import (_GEN_CITIES, alignment_corpus, make_recovery_model,
                         superword_effect_corpus)
from chronus.model import (SegmentedSentence, apply_synonym_smoothing,
                           count_events, load_model, model_to_text, train_mle)
from chronus.pipeline import evaluate_corpus, run_turn
from chronus.training import run_training_loop

from helpers import (TESTS_DATA, counted, expand_labels, per_word_accuracy,
                     random_lattice, random_trained_model,
                     superword_dictionary, train_full, unigram_baseline)


def _verdict(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_decoder_matches_exhaustive_search():
    started = time.monotonic()
    rng = random.Random(12345)
    mismatches = 0
    for _ in range(1000):
        model = random_trained_model(rng)
        lattice = random_lattice(rng, model)
        fast = viterbi_decode_lattice(model, lattice)
        slow = brute_force_decode(model, lattice)
        same = (fast.labels == slow.labels and fast.words == slow.words
                and repr(fast.log_prob) == repr(slow.log_prob))
        mismatches += 0 if same else 1
    elapsed = time.monotonic() - started
    _verdict(1, "decoder oracle equivalence",
             mismatches == 0 and elapsed < 30.0)


def test_criterion_2_every_distribution_stays_normalized(artifacts,
                                                         demo_counts,
                                                         demo_model,
                                                         semi_corpus):
    def normalized(model):
        return all(abs(sum(row.values()) - 1.0) <= 1e-9
                   for _, row in model.rows())

    models = [
        demo_model,
        train_full(semi_corpus.seed_segmentations(), artifacts),
        make_recovery_model(),
        random_trained_model(random.Random(2), k=0.001),
    ]
    ok = all(normalized(m) for m in models)
    groups = {"origin": [["DEPART(S)", "LEAVE(S)"]]}
    smoothed = apply_synonym_smoothing(demo_model, groups, demo_counts)
    ok = ok and normalized(smoothed)
    again = apply_synonym_smoothing(smoothed, groups, demo_counts)
    ok = ok and model_to_text(again) == model_to_text(smoothed)
    _verdict(2, "probability normalization", ok)


def test_criterion_3_training_recovers_generating_model(tmp_path):
    started = time.monotonic()
    rc = main(["gen", "recovery", "--seed", "0", "--train", "200",
               "--test", "100", "--out", str(tmp_path)], out=io.StringIO())
    assert rc == 0

    def load_corpus(name):
        lines = (tmp_path / name).read_text().splitlines()
        return [SegmentedSentence.parse(l) for l in lines]

    reference = load_model(tmp_path / "model.txt")
    train = load_corpus("train.txt")
    test = load_corpus("test.txt")
    trained = train_mle(count_events(train, reference.dictionary,
                                     reference.vocab), reference.k)
    baseline = unigram_baseline(train, reference.dictionary, reference.vocab,
                                reference.k)

    def accuracy(model):
        return per_word_accuracy(
            [(s.labels, viterbi_decode(model, s.words).labels) for s in test])

    trained_acc = accuracy(trained)
    baseline_acc = accuracy(baseline)
    elapsed = time.monotonic() - started
    _verdict(3, "label recovery beats context-free baseline",
             trained_acc >= 85.0
             and trained_acc >= baseline_acc + 10.0
             and elapsed < 60.0)


def test_criterion_4_superwords_help_with_fewer_parameters():
    rng = random.Random(7)
    single_word = [c for c in _GEN_CITIES if len(c) == 1]
    # multiword city names are held out of training: the raw model must
    # cross unseen word boundaries that the fused model never sees
    raw_train, fused_train, _ = superword_effect_corpus(rng, 120,
                                                        cities=single_word)
    raw_test, fused_test, spans = superword_effect_corpus(rng, 80)
    dictionary = superword_dictionary()
    raw_vocab = sorted({w.sym for s in raw_train + raw_test for w in s.words})
    fused_vocab = sorted({w.sym for s in fused_train + fused_test
                          for w in s.words})
    raw_counts = count_events(raw_train, dictionary, raw_vocab)
    fused_counts = count_events(fused_train, dictionary, fused_vocab)
    raw_model = train_mle(raw_counts, 0.001)
    fused_model = train_mle(fused_counts, 0.001)

    raw_acc = per_word_accuracy(
        [(s.labels, viterbi_decode(raw_model, s.words).labels)
         for s in raw_test])
    fused_acc = per_word_accuracy(
        [(raw.labels,
          expand_labels(viterbi_decode(fused_model, fused.words).labels, span))
         for raw, fused, span in zip(raw_test, fused_test, spans)])
    raw_params = raw_counts.nonzero_bigrams()
    fused_params = fused_counts.nonzero_bigrams()
    _verdict(4, "superword fusion",
             fused_acc >= raw_acc and fused_params < raw_params)


def test_criterion_5_answer_feedback_training_improves(artifacts,
                                                       semi_corpus):
    seed_model = train_full(semi_corpus.seed_segmentations(), artifacts)
    model, report = run_training_loop(semi_corpus, seed_model, artifacts,
                                      max_iters=20)
    seed_saw = counted(seed_model, "depart-time", "IN", "MORNING")
    learned_saw = counted(model, "depart-time", "IN", "MORNING")
    _verdict(5, "semi-supervised loop",
             report.termination == "converged"
             and len(report.rows) <= 20
             and report.rows[-1].correct >= report.rows[0].correct
             and report.rows[-1].correct >= 5
             and not seed_saw and learned_saw)


def test_criterion_6_win_alignment():
    model = make_recovery_model()
    triples = alignment_corpus(model, random.Random(1), 200, max_len=8)
    from chronus.training import align_win, brute_force_align

    exact = 0
    for words, win, gold in triples:
        hypothesis = align_win(words, win, model)
        exact += set(hypothesis.segments()) == set(gold.segments())

    rng = random.Random(12345)
    oracle_ok = True
    checked = 0
    while checked < 40:
        small = random_trained_model(rng, k=0.001)
        for words, win, _gold in alignment_corpus(small, rng, 2, max_len=6):
            fast = align_win(words, win, small)
            slow = brute_force_align(words, win, small)
            oracle_ok = oracle_ok and fast.labels == slow.labels
            checked += 1
    _verdict(6, "constrained alignment",
             exact / len(triples) >= 0.90 and oracle_ok)


def test_criterion_7_end_to_end_answers(demo_model, demo_corpus, artifacts):
    started = time.monotonic()
    report = evaluate_corpus(demo_corpus, demo_model, artifacts)
    expected_templates = {
        "SHOW ME THE FLIGHTS TO BOSTON":
            "(question,display) (subject,flight) (destin,BBOS)",
        "WHAT ARE THE FARES FROM ATLANTA":
            "(question,display) (subject,fare) (origin,MATL)",
        "IS BREAKFAST SERVED":
            "(question,yes-no) (subject,breakfast)",
    }
    templates_ok = all(
        run_turn(text, demo_model, artifacts).template.render() == expected
        for text, expected in expected_templates.items())
    elapsed = time.monotonic() - started
    _verdict(7, "end-to-end question answering",
             report.answers_correct >= 90.0
             and templates_ok
             and elapsed < 10.0)


def test_criterion_8_dialog_transcripts_are_stable(demo_model_path):
    ok = True
    for script, golden in [("repl_script1.txt", "repl_golden1.txt"),
                           ("repl_script2.txt", "repl_golden2.txt")]:
        buf = io.StringIO()
        rc = main(["repl", "--model", demo_model_path,
                   "--script", str(TESTS_DATA / script)], out=buf)
        ok = ok and rc == 0
        ok = ok and buf.getvalue() == (TESTS_DATA / golden).read_text()
    _verdict(8, "dialog transcript stability", ok)
