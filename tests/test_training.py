import gc
import hashlib
import importlib.util
import random
import sys
import weakref

import pytest

from chronus import pipeline, training
from chronus.decoder import brute_force_decode
from chronus.errors import ChronusError, DataFormatError
from chronus.gen import (alignment_corpus, make_recovery_model,
                         synthetic_dictionary)
from chronus.lexicon import Arc, Lattice, parse_superword
from chronus.model import (SegmentedSentence, apply_synonym_smoothing,
                           count_events, load_synonyms, model_from_text,
                           model_to_text, path_score, train_mle)
from chronus.pipeline import data_path
from chronus.query import Answer
from chronus.training import (AlignmentInfeasibleError, FeedbackCorpus,
                              FeedbackEntry, _snapshot_id, align_win,
                              brute_force_align, required_concepts,
                              run_training_loop)

from helpers import (TESTS_DATA, count_full, counted, random_trained_model,
                     tie_heavy_model, train_full, uniform_rows_model)


# ---------------------------------------------------------------------------
# Feedback corpus format

def test_corpus_round_trip(semi_corpus):
    text = semi_corpus.to_text()
    again = FeedbackCorpus.from_lines(text.splitlines())
    assert again.to_text() == text
    assert [e.ident for e in again.entries] == \
        [e.ident for e in semi_corpus.entries]


def test_entry_needs_gold_or_references():
    with pytest.raises(ChronusError):
        FeedbackCorpus([FeedbackEntry(ident="x", text="SHOW ME")])


@pytest.mark.parametrize("kind", ["boolean"])
def test_scalar_references_need_their_value(kind):
    with pytest.raises(DataFormatError,
                       match=f"^sentence x: refs {kind} needs a refvalue line$"):
        FeedbackCorpus([FeedbackEntry(ident="x", text="SHOW ME",
                                      refmin=Answer(kind=kind),
                                      refmax=Answer(kind=kind))])


def test_reader_checks_each_entry_once(monkeypatch):
    calls = []
    check = training._check_entry
    monkeypatch.setattr(training, "_check_entry",
                        lambda *args: calls.append(args[0].ident) or
                        check(*args))
    entries = 0
    for name in ("demo", "seed", "semi"):
        entries += len(FeedbackCorpus.load(
            data_path(f"{name}_corpus.txt")).entries)
    assert len(calls) == len(set(calls)) == entries


def test_entry_with_references_only_is_valid():
    refs = Answer(kind="rows", rows=[("AA", "101")])
    corpus = FeedbackCorpus([FeedbackEntry(ident="x", text="SHOW ME",
                                           refmin=refs, refmax=refs)])
    assert corpus.feedback_entries() == corpus.entries
    assert corpus.seed_segmentations() == []


def test_from_lines_rejects_unknown_keys():
    with pytest.raises(ChronusError):
        FeedbackCorpus.from_lines(["[sentence x]", "text\tSHOW", "bogus\tv"])
    with pytest.raises(ChronusError):
        FeedbackCorpus.from_lines(["text\tno header first"])
    with pytest.raises(ChronusError):
        FeedbackCorpus.from_lines(["[sentence x]", "text\tSHOW",
                                   "refs\tpictures"])


def test_boolean_references_parse():
    corpus = FeedbackCorpus.from_lines([
        "[sentence x]", "text\tIS BREAKFAST SERVED", "refs\tboolean",
        "refvalue\tYES"])
    entry = corpus.entries[0]
    assert entry.refmin.kind == "boolean" and entry.refmin.value is True


def test_bundled_semi_corpus_split(semi_corpus):
    assert len(semi_corpus.seed_segmentations()) == 7
    assert len(semi_corpus.feedback_entries()) == 6


# ---------------------------------------------------------------------------
# Training loop

def test_loop_reaches_fixed_point_when_feedback_mirrors_seed(artifacts,
                                                             semi_corpus):
    # feedback sentences identical to seed golds: the kept segmentations
    # merely double every count, so with unsmoothed estimation the model
    # is unchanged and the loop converges at the second iteration
    from chronus.query import execute, plan_query
    from chronus.template import generate_template

    entries = []
    for e in semi_corpus.entries[:3]:
        template = generate_template(e.gold, artifacts.tables,
                                     artifacts.dictionary)
        answer = execute(plan_query(template, artifacts.db), artifacts.db)
        entries.append(FeedbackEntry(ident=e.ident, text=e.text, gold=e.gold,
                                     refmin=answer, refmax=answer))
    corpus = FeedbackCorpus(entries)
    seed_model = train_full(corpus.seed_segmentations(), artifacts, k=0.0)
    model, report = run_training_loop(corpus, seed_model, artifacts,
                                      max_iters=10)
    assert report.termination == "converged"
    assert [r.correct for r in report.rows] == [3, 3]
    # doubling every count leaves the unsmoothed ratios untouched
    assert report.rows[0].snapshot == report.rows[1].snapshot


def test_loop_improves_and_converges_on_bundled_corpus(artifacts, semi_corpus):
    seed_model = train_full(semi_corpus.seed_segmentations(), artifacts)
    model, report = run_training_loop(semi_corpus, seed_model, artifacts,
                                      max_iters=20)
    assert report.termination == "converged"
    assert report.rows[-1].correct >= report.rows[0].correct
    assert report.rows[-1].correct >= 5
    # retraining folded the feedback segmentations into the counts
    assert not counted(seed_model, "depart-time", "IN", "MORNING")
    assert counted(model, "depart-time", "IN", "MORNING")
    # the seed knowledge is not forgotten
    for gold in semi_corpus.seed_segmentations():
        assert path_score(model, gold.words, gold.labels) > float("-inf")


def test_loop_counts_an_unparseable_sentence_as_a_problem(artifacts,
                                                          semi_corpus):
    refs = Answer(kind="rows", rows=[])
    entries = [e for e in semi_corpus.entries if e.gold is not None]
    entries.append(FeedbackEntry(ident="s", text="THE A AN", refmin=refs,
                                 refmax=refs))   # stop words only
    seed_model = train_full(semi_corpus.seed_segmentations(), artifacts)
    _, report = run_training_loop(FeedbackCorpus(entries), seed_model,
                                  artifacts, max_iters=5)
    assert [(r.correct, r.problem) for r in report.rows] == [(0, 1), (0, 1)]
    assert report.termination == "converged"


def test_loop_lexes_each_sentence_once_and_re_templates_changed_decodes(
        artifacts, demo_corpus, seed_corpus, semi_corpus, monkeypatch):
    # the train-cycle benchmark's loop: from the demo and seed golds with
    # synonyms, the semi corpus converges in two iterations
    counts = count_full(demo_corpus.seed_segmentations()
                        + seed_corpus.seed_segmentations(), artifacts)
    model = train_mle(counts, 0.001)
    model = apply_synonym_smoothing(model, load_synonyms(
        data_path("synonyms.txt"), model.dictionary, model.vocab), counts)
    calls, decodes = [], []
    for name in ("lex_parse", "viterbi_decode_lattice", "generate_template"):
        def traced(*args, _f=getattr(pipeline, name), _n=name):
            result = _f(*args)
            calls.append(_n)
            if _n == "viterbi_decode_lattice":
                decodes.append((result.labels, result.words))
            return result
        monkeypatch.setattr(pipeline, name, traced)
    _, report = run_training_loop(semi_corpus, model, artifacts, max_iters=2)
    n = len(semi_corpus.feedback_entries())
    assert len(report.rows) == 2 and len(decodes) == 2 * n
    changed = sum(a != b for a, b in zip(decodes[:n], decodes[n:]))
    assert changed >= 1
    assert calls.count("lex_parse") == n
    assert calls.count("generate_template") == n + changed


def test_snapshot_id_hashes_the_model_text():
    trained = random_trained_model(random.Random(5))
    built = uniform_rows_model(1, ["a"], ["c0"], {"c0": ["c0", "</s>"]},
                               {"c0": {"<s>": ["a"], "a": ["a"]}})
    for model in (trained, built):
        assert _snapshot_id(model) == hashlib.sha256(
            model_to_text(model).encode()).hexdigest()[:12]


class _RecordingFinder:
    """A ``sys.meta_path`` finder that records every module name it is
    asked for and finds none."""

    def __init__(self):
        self.asked = []

    def find_spec(self, name, path=None, target=None):
        self.asked.append(name)
        return None


def test_snapshot_id_looks_up_no_hash_module_per_call():
    # the SHA-256 constructor is resolved when training is imported; a
    # per-call import would ask the finders again (on 3.11, where _sha2
    # is missing, a failed import walks sys.path every time).  The hash
    # modules leave sys.modules for the calls, so that an import of one
    # that loaded before would ask too.
    model = random_trained_model(random.Random(5))
    hashing = {"_sha2", "_sha256", "hashlib"}
    loaded = {name: sys.modules.pop(name) for name in hashing
              if name in sys.modules}
    finder = _RecordingFinder()
    sys.meta_path.insert(0, finder)
    try:
        _snapshot_id(model)
        _snapshot_id(model)
    finally:
        sys.meta_path.remove(finder)
        sys.modules.update(loaded)
    assert not hashing & set(finder.asked)


def test_loop_report_rendering(artifacts, semi_corpus):
    seed_model = train_full(semi_corpus.seed_segmentations(), artifacts)
    _, report = run_training_loop(semi_corpus, seed_model, artifacts,
                                  max_iters=1)
    lines = report.to_text().splitlines()
    assert lines[0] == "iteration\tcorrect\tproblem\tsnapshot"
    first = lines[1].split("\t")
    assert first[0] == "1" and len(first[3]) == 12
    assert lines[-1] == "# terminated: max_iters"


def test_loop_input_validation(artifacts, semi_corpus):
    seed_model = train_full(semi_corpus.seed_segmentations(), artifacts)
    with pytest.raises(ChronusError):
        run_training_loop(semi_corpus, seed_model, artifacts, max_iters=0)
    refs = Answer(kind="rows", rows=[])
    no_seed = FeedbackCorpus([FeedbackEntry(ident="x", text="SHOW ME",
                                            refmin=refs, refmax=refs)])
    with pytest.raises(ChronusError, match="^training corpus has no gold "
                       "segmentations$"):
        run_training_loop(no_seed, seed_model, artifacts, max_iters=5)


def test_training_cycle_matches_the_pinned_digest():
    # tools/cycle_digest.py wrote the file before the cycle's fixed costs
    # were cut: train (with and without synonyms), the loop's report, its
    # snapshot ids and --out model, and align_win's labels must stay
    # bit for bit
    tool = TESTS_DATA.parent.parent / "tools" / "cycle_digest.py"
    spec = importlib.util.spec_from_file_location("cycle_digest", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    pinned = (TESTS_DATA / "cycle_digest.txt").read_text(encoding="utf-8")
    assert module.digest_lines() == pinned.splitlines()


# ---------------------------------------------------------------------------
# Required concepts

def test_required_concepts_accepts_keywords(artifacts):
    req = required_concepts(["origin", "destin", "origin"],
                            artifacts.dictionary)
    assert req == {"origin": 2, "destin": 1}


def test_required_concepts_rejects_unknown_keyword(artifacts):
    with pytest.raises(ChronusError,
                       match="^win keyword 'frobnicate' is not a concept$"):
        required_concepts(["frobnicate"], artifacts.dictionary)


def test_required_concepts_ignores_order(artifacts):
    a = required_concepts(["origin", "subject"], artifacts.dictionary)
    b = required_concepts(["subject", "origin"], artifacts.dictionary)
    assert a == b


# ---------------------------------------------------------------------------
# Constrained alignment

def test_alignment_recovers_annotated_example(demo_model, seed_corpus):
    entry = next(e for e in seed_corpus.entries if e.ident == "x01")
    win = ["operator", "depart-time", "subject", "origin", "destin",
           "airline", "question"]
    aligned = align_win(entry.gold.words, win, demo_model)
    dictionary = demo_model.dictionary
    segs = {(label, start, end) for label, start, end in aligned.segments()
            if dictionary[label].keyword is not None}
    gold = {(label, start, end) for label, start, end in entry.gold.segments()
            if dictionary[label].keyword is not None}
    assert segs == gold


def test_alignment_matches_unconstrained_decode_when_compatible():
    model = make_recovery_model()
    rng = random.Random(31)
    for words, win, _gold in alignment_corpus(model, rng, 20, max_len=6):
        from chronus.decoder import viterbi_decode
        free = viterbi_decode(model, words)
        folded = model.dictionary.keywords(free.labels)
        if sorted(folded) != sorted(win):
            continue  # the free optimum violates the constraint here
        aligned = align_win(words, win, model)
        assert aligned.labels == free.labels


def test_alignment_satisfies_constraint_even_when_decode_does_not():
    model = make_recovery_model()
    rng = random.Random(7)
    count = 0
    for words, win, _gold in alignment_corpus(model, rng, 50, max_len=8):
        aligned = align_win(words, win, model)
        folded = model.dictionary.keywords(aligned.labels)
        assert sorted(folded) == sorted(win)
        count += 1
    assert count == 50


def test_alignment_score_optimal_against_brute_force():
    rng = random.Random(12345)
    checked = 0
    while checked < 40:
        model = random_trained_model(rng, k=0.001)
        for words, win, _gold in alignment_corpus(model, rng, 2, max_len=6):
            fast = align_win(words, win, model)
            slow = brute_force_align(words, win, model)
            assert fast.labels == slow.labels   # on the same words
            checked += 1


def test_alignment_infeasibility_matches_brute_force():
    rng = random.Random(2024)
    infeasible = 0
    for i in range(100):
        model = random_trained_model(rng, k=(0.0, 0.001)[i % 2])
        concepts = [c.name for c in model.dictionary
                    if c.keyword is not None]
        words = tuple(parse_superword(rng.choice(model.vocab))
                      for _ in range(rng.randint(1, 5)))
        win = [rng.choice(concepts) for _ in range(rng.randint(1, 4))]
        try:
            slow = brute_force_align(words, win, model)
        except AlignmentInfeasibleError:
            infeasible += 1
            with pytest.raises(AlignmentInfeasibleError):
                align_win(words, win, model)
            continue
        fast = align_win(words, win, model)
        assert fast.labels == slow.labels   # on the same words
    assert 0 < infeasible < 100


def test_align_win_matches_brute_force_exactly_under_heavy_ties():
    # the seed's draw 30 is a rounding tie: two prefixes that meet in one
    # state an ulp apart reach one total, and both keep the larger prefix
    rng = random.Random(8080)
    compared = 0
    for _ in range(300):
        model = tie_heavy_model(rng)
        concepts = [c.name for c in model.dictionary
                    if c.keyword is not None]
        words = tuple(parse_superword(rng.choice(model.vocab))
                      for _ in range(rng.randint(1, 5)))
        win = [rng.choice(concepts) for _ in range(rng.randint(1, 3))]
        try:
            slow = brute_force_align(words, win, model)
        except AlignmentInfeasibleError:
            with pytest.raises(AlignmentInfeasibleError):
                align_win(words, win, model)
            continue
        fast = align_win(words, win, model)
        assert fast.labels == slow.labels   # on the same words
        compared += 1
    assert compared >= 60


def test_alignment_oracle_breaks_ties_like_decode_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        model = random_trained_model(rng, k=rng.choice([0.0, 0.001]))
        words = tuple(parse_superword(rng.choice(model.vocab))
                      for _ in range(rng.randint(1, 5)))
        chain = Lattice(len(words), [Arc(i, i + 1, w.sym)
                                     for i, w in enumerate(words)])
        decoded = brute_force_decode(model, chain)
        if decoded.degenerate:
            continue
        win = model.dictionary.keywords(decoded.labels)
        aligned = brute_force_align(words, win, model)
        assert aligned.labels == decoded.labels
        checked += 1


def test_infeasible_constraint_raises():
    model = make_recovery_model()
    words = tuple(parse_superword(w) for w in ["w00", "w01"])
    # more required concepts than words
    with pytest.raises(AlignmentInfeasibleError):
        align_win(words, ["c0", "c1", "c2"], model)


def test_infeasible_under_sparse_model(artifacts):
    corpus = [SegmentedSentence.parse("SHOW:question\tME:question")]
    model = train_mle(
        count_events(corpus, artifacts.dictionary, ["SHOW", "ME"]), k=0.0)
    words = corpus[0].words
    # origin was never seen: no finite-probability labeling emits it
    with pytest.raises(AlignmentInfeasibleError):
        align_win(words, ["origin"], model)


@pytest.mark.parametrize("align", [align_win, brute_force_align])
def test_word_outside_the_vocabulary_is_infeasible(align):
    # "w0 w0" aligns to c0; no row gives a symbol outside [vocab] mass
    model = random_trained_model(random.Random(5))
    words = tuple(parse_superword(w) for w in ["w0", "ZZZ"])
    with pytest.raises(AlignmentInfeasibleError):
        align(words, ["c0"], model)


@pytest.mark.parametrize("align", [align_win, brute_force_align])
@pytest.mark.parametrize("win,keyword", [
    (["dummy"], "dummy"),
    (["c0", "and"], "and"),
])
def test_special_win_keyword_is_refused_not_infeasible(align, win, keyword):
    # the small random model keeps the brute-force oracle within its bounds
    model = random_trained_model(random.Random(5))
    words = tuple(parse_superword(w) for w in ["w0", "w1"])
    with pytest.raises(ChronusError, match=repr(keyword)) as info:
        align(words, win, model)
    assert not isinstance(info.value, AlignmentInfeasibleError)


@pytest.mark.parametrize("align", [align_win, brute_force_align])
def test_attribute_win_keyword_is_refused_not_infeasible(align, demo_model):
    words = tuple(parse_superword(w) for w in ["FARE(S)", "FROM"])
    with pytest.raises(ChronusError,
                       match="'a_fare' names a concept of role attribute") \
            as info:
        align(words, ["a_fare"], demo_model)
    assert not isinstance(info.value, AlignmentInfeasibleError)


def test_alignment_rejects_empty_sentence():
    model = make_recovery_model()
    with pytest.raises(ChronusError):
        align_win((), ["c0"], model)


def test_brute_force_align_guards():
    rng = random.Random(1)
    model = make_recovery_model()  # 7 concept names: over the oracle bound
    words = tuple(parse_superword(w) for w in ["w00", "w01"])
    with pytest.raises(ChronusError):
        brute_force_align(words, ["c0"], model)
    small = random_trained_model(rng)
    long_words = tuple(parse_superword("w0") for _ in range(9))
    with pytest.raises(ChronusError):
        brute_force_align(long_words, ["c0"], small)


# ---------------------------------------------------------------------------
# The per-model search plan

def _aligned_or_error(words, win, model):
    try:
        return align_win(words, win, model).labels
    except ChronusError as exc:
        return type(exc), str(exc)


def test_shared_plans_align_like_a_fresh_model_per_call():
    # one model aligns the interleaved instances of three seeds, reusing
    # its plan per win multiset; a fresh copy per call builds every plan.
    # Each win also comes with its first keyword twice, so multisets that
    # share their keywords differ in a count
    text = model_to_text(make_recovery_model())
    shared = model_from_text(text)
    corpora = [alignment_corpus(shared, random.Random(seed), 100, max_len=8)
               for seed in (1, 2, 3)]
    multisets = set()
    for instances in zip(*corpora):
        for words, win, _gold in instances:
            for keywords in (win, win + win[:1]):
                multisets.add(tuple(sorted(keywords)))
                assert _aligned_or_error(words, keywords, shared) \
                    == _aligned_or_error(words, keywords,
                                         model_from_text(text))
    assert len(multisets) > 40


def _sparse_model(rng, dictionary, vocab):
    corpus = [SegmentedSentence(
        tuple(parse_superword(rng.choice(vocab)) for _ in range(n)),
        tuple(rng.choice(dictionary.names[:3]) for _ in range(n)))
        for n in [rng.randint(1, 6) for _ in range(6)]]
    return train_mle(count_events(corpus, dictionary, vocab), 0.0)


def test_models_of_one_dictionary_keep_their_own_plans():
    # same dictionary, vocabulary and win, different transitions: each
    # model's alignment must be its own oracle's, whichever aligned first
    dictionary = synthetic_dictionary(["c0", "c1", "c2"])
    vocab = [f"w{i}" for i in range(4)]
    rng = random.Random(31)
    differ = 0
    for _ in range(60):
        models = [_sparse_model(rng, dictionary, vocab) for _ in range(2)]
        words = tuple(parse_superword(rng.choice(vocab))
                      for _ in range(rng.randint(1, 5)))
        win = [rng.choice(["c0", "c1", "c2"]) for _ in range(rng.randint(1, 2))]
        results = []
        for model in models + models[::-1]:
            try:
                slow = brute_force_align(words, win, model).labels
            except AlignmentInfeasibleError:
                slow = None
            fast = _aligned_or_error(words, win, model)
            assert fast == slow or slow is None \
                and fast[0] is AlignmentInfeasibleError
            results.append(slow)
        differ += results[0] != results[1]
    assert differ >= 5


def test_a_model_with_plans_is_still_collected():
    model = random_trained_model(random.Random(5))
    words = tuple(parse_superword(w) for w in ["w0", "w1"])
    align_win(words, ["c0"], model)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
