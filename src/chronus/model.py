"""Concept HMM: transition probabilities over concepts plus per-concept
word bigrams, with maximum-likelihood estimation, add-k smoothing and
supervised synonym smoothing.

Segmentations are encoded one label per word, so a segment boundary is
simply a label change and self-transitions are real, estimated events.
Segment-initial words are conditioned on a per-concept begin marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .concepts import ConceptDictionary, parse_concept
from .errors import ChronusError, DataFormatError
from .lexicon import Superword, parse_superword
from .textfile import number, records

BEGIN = "<s>"    # begin-of-segment marker / initial-state row
FINAL = "</s>"   # final-state column
NEG_INF = float("-inf")


class TrainingError(ChronusError):
    pass


class UnknownLabelError(TrainingError):
    def __init__(self, label):
        super().__init__(f"segmentation label not in concept dictionary: {label!r}")
        self.label = label


class UnknownWordError(TrainingError):
    def __init__(self, word):
        super().__init__(f"word not in vocabulary: {word!r}")
        self.word = word


def _round12(p: float) -> float:
    """Canonical 12-significant-digit value; keeps serialization lossless."""
    return float(f"{p:.11e}")


@dataclass(frozen=True)
class SegmentedSentence:
    """A superword sequence with one concept label per word."""

    words: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.words) != len(self.labels):
            raise ChronusError("words and labels must have equal length")
        if not self.words:
            raise ChronusError("segmented sentence must be non-empty")

    def segments(self):
        """Maximal equal-label runs as (label, start, end) triples."""
        runs = []
        start = 0
        for i in range(1, len(self.labels) + 1):
            if i == len(self.labels) or self.labels[i] != self.labels[i - 1]:
                runs.append((self.labels[start], start, i))
                start = i
        return runs

    def render(self) -> str:
        return "\t".join(f"{w.render()}:{c}" for w, c in zip(self.words, self.labels))

    @classmethod
    def parse(cls, text: str) -> "SegmentedSentence":
        words, labels = [], []
        for pair in text.split("\t"):
            token, _, label = pair.rpartition(":")
            if not token or not label:
                raise ChronusError(f"bad word:concept pair {pair!r}")
            words.append(parse_superword(token))
            labels.append(label)
        return cls(tuple(words), tuple(labels))


def render_segments(segmentation: SegmentedSentence) -> str:
    parts = []
    for label, start, end in segmentation.segments():
        words = " ".join(w.render() for w in segmentation.words[start:end])
        parts.append(f"{label}:[{words}]")
    return " ".join(parts)


@dataclass
class TrainingCounts:
    """Raw event counts kept alongside a trained model (not serialized)."""

    transition: dict = field(default_factory=dict)   # row -> col -> count
    bigram: dict = field(default_factory=dict)       # concept -> prev -> word -> count

    def bigram_row_total(self, concept, prev):
        return sum(self.bigram.get(concept, {}).get(prev, {}).values())

    def nonzero_bigrams(self):
        return sum(len(row)
                   for table in self.bigram.values()
                   for row in table.values())


class ConceptHmm:
    """First-order concept HMM with concept-conditional word bigrams.

    Probabilities are held in linear space rounded to 12 significant digits
    (the on-disk canonical form).  Construction compiles them into log
    tables indexed by concept, with a minus-infinity sentinel for impossible
    events; every scorer reads these: ``init_vec``, ``trans_into``
    (``[next][previous]``), ``final_vec``, and per concept its bigram table
    (context -> symbol -> log p) in ``bigram_tables`` and that table's
    begin-marker row in ``begin_rows``.
    """

    def __init__(self, dictionary: ConceptDictionary, vocab, k: float,
                 initial, transition, bigram, counts: TrainingCounts | None = None):
        self.dictionary = dictionary
        self.vocab = tuple(sorted(vocab))
        self._vocab_set = frozenset(self.vocab)
        self.k = k
        self.initial = initial        # col (concept or FINAL) -> prob
        self.transition = transition  # row concept -> col (concept or FINAL) -> prob
        self.bigram = bigram          # concept -> prev (word or BEGIN) -> word -> prob
        self.counts = counts
        names = dictionary.names
        rows = [transition.get(r, {}) for r in names]
        self.init_vec = [_safe_log(initial.get(c, 0.0)) for c in names]
        self.trans_into = [[_safe_log(row.get(c, 0.0)) for row in rows]
                           for c in names]  # next concept -> previous -> log p
        self.final_vec = [_safe_log(row.get(FINAL, 0.0)) for row in rows]
        self.bigram_tables = [
            {r: {w: _safe_log(p) for w, p in row.items()}
             for r, row in bigram.get(c, {}).items()} for c in names]
        self.begin_rows = [t.get(BEGIN, {}) for t in self.bigram_tables]

    def in_vocab(self, sym) -> bool:
        return sym in self._vocab_set

    def rows(self):
        """All (name, row-dict) probability rows, for normalization checks."""
        yield ("initial", self.initial)
        for r, row in self.transition.items():
            yield (f"transition[{r}]", row)
        for g, table in self.bigram.items():
            for r, row in table.items():
                yield (f"bigram[{g}][{r}]", row)

    def parameter_counts(self):
        """(probability rows, count-backed bigram entries)."""
        nrows = sum(1 for _ in self.rows())
        nonzero = self.counts.nonzero_bigrams() if self.counts else sum(
            len(row) for _, _, row in
            ((g, r, row) for g, t in self.bigram.items() for r, row in t.items()))
        return nrows, nonzero


def _safe_log(p):
    return math.log(p) if p > 0.0 else NEG_INF


def _smooth_row(counts_row, columns, k):
    """Add-k relative frequencies over the full column space, 12-digit canonical.

    Returns None when the row has no support and k == 0 (no distribution is
    estimable; downstream lookups see the minus-infinity sentinel).
    """
    total = sum(counts_row.values()) + k * len(columns)
    if total <= 0.0:
        return None
    row = {}
    for col in columns:
        p = (counts_row.get(col, 0) + k) / total
        if p > 0.0:
            row[col] = _round12(p)
    return row


def full_vocabulary(lexicon, sentences):
    """Every symbol the lexicon can emit, plus anything seen in training."""
    syms = set(lexicon.superwords)
    syms.update(w.sym for s in sentences for w in s.words)
    return sorted(syms)


def train_mle(corpus, dictionary: ConceptDictionary, vocabulary, k: float) -> ConceptHmm:
    """Relative-frequency estimation with add-k smoothing.

    Transitions are estimated over (concepts + initial) x (concepts + final);
    bigrams per concept over (vocabulary + begin marker) x vocabulary.
    """
    corpus = list(corpus)
    if not corpus:
        raise TrainingError("training corpus is empty")
    vocab = sorted(set(vocabulary))
    vocab_set = set(vocab)
    names = dictionary.names

    trans_counts = {r: {} for r in [BEGIN] + names}
    bigram_counts = {}
    for sent in corpus:
        prev_label = BEGIN
        prev_sym = BEGIN
        for word, label in zip(sent.words, sent.labels):
            if label not in dictionary:
                raise UnknownLabelError(label)
            if word.sym not in vocab_set:
                raise UnknownWordError(word.sym)
            row = trans_counts[prev_label]
            row[label] = row.get(label, 0) + 1
            ctx = BEGIN if label != prev_label else prev_sym
            brow = bigram_counts.setdefault(label, {}).setdefault(ctx, {})
            brow[word.sym] = brow.get(word.sym, 0) + 1
            prev_label, prev_sym = label, word.sym
        row = trans_counts[prev_label]
        row[FINAL] = row.get(FINAL, 0) + 1

    trans_cols = names + [FINAL]
    initial = _smooth_row(trans_counts[BEGIN], trans_cols, k) or {}
    transition = {}
    for c in names:
        row = _smooth_row(trans_counts[c], trans_cols, k)
        if row is not None:
            transition[c] = row
    bigram = {}
    for c in names:
        table = {}
        ctx_rows = bigram_counts.get(c, {})
        for ctx in [BEGIN] + vocab:
            row = _smooth_row(ctx_rows.get(ctx, {}), vocab, k)
            if row is not None:
                table[ctx] = row
        bigram[c] = table

    counts = TrainingCounts(transition=trans_counts, bigram=bigram_counts)
    return ConceptHmm(dictionary, vocab, k, initial, transition, bigram, counts)


def apply_synonym_smoothing(model: ConceptHmm, groups) -> ConceptHmm:
    """Tie bigram statistics of synonym groups.

    ``groups`` maps a concept name to word groups.  For each group the
    context rows of the member words are replaced by their count-weighted
    average, and in every row of that concept's table the member columns
    share their summed mass uniformly.
    """
    if not groups:
        return model
    bigram = {g: {r: dict(row) for r, row in table.items()}
              for g, table in model.bigram.items()}
    for concept, concept_groups in groups.items():
        if concept not in model.dictionary:
            raise UnknownLabelError(concept)
        seen = set()
        for group in concept_groups:
            for w in group:
                if not model.in_vocab(w):
                    raise UnknownWordError(w)
                if w in seen:
                    raise TrainingError(
                        f"word {w!r} in two synonym groups under {concept}")
                seen.add(w)
        table = bigram.setdefault(concept, {})
        for group in concept_groups:
            if len(group) < 2:
                continue
            members = list(group)
            _average_rows(table, members, model, concept)
            _share_columns(table, members)
    return ConceptHmm(model.dictionary, model.vocab, model.k,
                      model.initial, model.transition, bigram, model.counts)


def load_synonyms(path):
    """Synonym groups for ``apply_synonym_smoothing`` from a file of
    ``concept<TAB>word<TAB>word...`` lines, one group per line."""
    groups = {}
    with open(path, encoding="utf-8") as fh:
        for ln, section, line in records(fh, path):
            if line is None:
                raise DataFormatError(f"unknown section [{section}]", path, ln)
            fields = line.split("\t")
            if len(fields) < 3:
                raise DataFormatError(
                    "synonym line needs a concept and two or more words",
                    path, ln)
            groups.setdefault(fields[0], []).append(fields[1:])
    return groups


def _average_rows(table, members, model, concept):
    rows = [table.get(w, {}) for w in members]
    if all(r == rows[0] for r in rows):
        return  # already tied; keep exact values (idempotence)
    if model.counts is not None:
        weights = [model.counts.bigram_row_total(concept, w) for w in members]
    else:
        weights = [1] * len(members)
    if sum(weights) == 0:
        weights = [1] * len(members)
    total_w = sum(weights)
    cols = set()
    for r in rows:
        cols.update(r)
    avg = {}
    for col in sorted(cols):
        p = sum(w * r.get(col, 0.0) for w, r in zip(weights, rows)) / total_w
        if p > 0.0:
            avg[col] = _round12(p)
    for w in members:
        if avg:
            table[w] = dict(avg)
        else:
            table.pop(w, None)


def _share_columns(table, members):
    for row in table.values():
        vals = [row.get(w, 0.0) for w in members]
        if all(v == vals[0] for v in vals):
            continue
        share = sum(vals) / len(members)
        for w in members:
            if share > 0.0:
                row[w] = _round12(share)
            else:
                row.pop(w, None)


def path_score(model: ConceptHmm, arcs_or_superwords, labels) -> float:
    """log P(W, C) of one symbol sequence (arcs or superwords) under one
    labeling; -inf for impossible events."""
    logp = 0.0
    prev = None
    prev_sym = BEGIN
    for word, label in zip(arcs_or_superwords, labels):
        if label not in model.dictionary:
            raise UnknownLabelError(label)
        c = model.dictionary.index(label)
        if prev is None:
            logp += model.init_vec[c]
        else:
            logp += model.trans_into[c][prev]
        row = (model.bigram_tables[c].get(prev_sym, {}) if c == prev
               else model.begin_rows[c])
        logp += row.get(word.sym, NEG_INF)
        prev, prev_sym = c, word.sym
    return logp + (NEG_INF if prev is None else model.final_vec[prev])


def sequence_log_prob(model: ConceptHmm, sentence: SegmentedSentence) -> float:
    """path_score of a segmented sentence's words and labels."""
    return path_score(model, sentence.words, sentence.labels)


# ---------------------------------------------------------------------------
# Serialization: line-oriented `chronus-model v1` format

def model_to_text(model: ConceptHmm) -> str:
    out = ["chronus-model v1", f"k\t{model.k!r}", "floor\t0"]
    out.append("[concepts]")
    out.extend(model.dictionary.to_lines())
    out.append("[vocab]")
    out.extend(model.vocab)
    out.append("[initial]")
    for col in sorted(model.initial):
        out.append(f"{BEGIN}\t{col}\t{model.initial[col]:.11e}")
    out.append("[transition]")
    for row in model.dictionary.names:
        cols = model.transition.get(row, {})
        for col in sorted(cols):
            out.append(f"{row}\t{col}\t{cols[col]:.11e}")
    for concept in model.dictionary.names:
        out.append(f"[bigram {concept}]")
        table = model.bigram.get(concept, {})
        for row in sorted(table):
            for col in sorted(table[row]):
                out.append(f"{row}\t{col}\t{table[row][col]:.11e}")
    return "\n".join(out) + "\n"


def save_model(model: ConceptHmm, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


def model_from_text(text: str, path=None) -> ConceptHmm:
    """Parse a ``chronus-model v1`` text.  Transitions may name only concepts
    of ``[concepts]`` (and ``</s>``), bigrams only symbols of ``[vocab]``
    (and ``<s>``, ``</s>``); both sections must come first."""
    k = 0.0
    concepts, vocab = [], []
    names, symbols = set(), {BEGIN, FINAL}
    initial, transition, bigram = {}, {}, {}
    table = row_name = None    # the current [bigram <concept>] table and row
    for ln, section, line in records(text.splitlines(), path, "chronus-model v1"):
        if line is None:
            table = row_name = None
            if section.startswith("bigram "):
                concept = section.split(None, 1)[1]
                if concept not in names:
                    raise DataFormatError(f"unknown concept {concept!r}", path, ln)
                table = bigram.setdefault(concept, {})
            elif section not in ("concepts", "vocab", "initial", "transition"):
                raise DataFormatError(f"unknown section [{section}]", path, ln)
            continue
        parts = line.split("\t")
        if table is not None:   # the bulk of a model: rows come grouped
            if len(parts) != 3:
                raise DataFormatError("expected ROW<TAB>COL<TAB>PROB", path, ln)
            row, col, prob = parts
            if row != row_name:
                if row not in symbols:
                    raise DataFormatError(f"symbol {row!r} is not in [vocab]",
                                          path, ln)
                row_name, probs = row, table.setdefault(row, {})
            if col not in symbols:
                raise DataFormatError(f"symbol {col!r} is not in [vocab]", path, ln)
            probs[col] = number(float, prob, "probability", path, ln, 0.0, 1.0)
        elif section is None:
            if parts[0] == "k" and len(parts) == 2:
                k = number(float, parts[1], "k", path, ln, 0.0, math.inf)
            elif parts[0] != "floor" or len(parts) != 2:  # floor: ignored
                raise DataFormatError("unexpected header line", path, ln)
        elif section == "concepts":
            concepts.append(parse_concept(line, path, ln))
            names.add(concepts[-1].name)
        elif section == "vocab":
            vocab.append(line.strip())
            symbols.add(vocab[-1])
        else:
            if len(parts) != 3:
                raise DataFormatError("expected ROW<TAB>COL<TAB>PROB", path, ln)
            row, col, prob = parts
            known = row == BEGIN if section == "initial" else row in names
            if not known:
                raise DataFormatError(f"unknown {section} row {row!r}", path, ln)
            if col not in names and col != FINAL:
                raise DataFormatError(f"unknown concept {col!r}", path, ln)
            prob = number(float, prob, "probability", path, ln, 0.0, 1.0)
            if section == "initial":
                initial[col] = prob
            else:
                transition.setdefault(row, {})[col] = prob
    return ConceptHmm(ConceptDictionary(concepts), vocab, k, initial, transition,
                      bigram)


def load_model(path) -> ConceptHmm:
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read(), path=str(path))


def make_sentence(word_syms, labels) -> SegmentedSentence:
    """Convenience constructor from plain symbol strings."""
    return SegmentedSentence(tuple(Superword(s) for s in word_syms), tuple(labels))
