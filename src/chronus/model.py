"""Concept HMM: transition probabilities over concepts plus per-concept
word bigrams, with maximum-likelihood estimation, add-k smoothing and
supervised synonym smoothing.

Segmentations are encoded one label per word, so a segment boundary is
simply a label change and self-transitions are real, estimated events.
Segment-initial words are conditioned on a per-concept begin marker.

Add-k smoothing gives every unseen event of a row one shared value, so a
row is held exactly as its exceptions plus one default, from estimation
through synonym smoothing and the model file to the decoder's tables.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
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
    """Raw event counts kept alongside a trained model and saved with it."""

    transition: dict = field(default_factory=dict)   # row -> col -> count
    bigram: dict = field(default_factory=dict)       # concept -> prev -> word -> count

    def bigram_row_total(self, concept, prev):
        return sum(self.bigram.get(concept, {}).get(prev, {}).values())

    def nonzero_bigrams(self):
        return sum(len(row)
                   for table in self.bigram.values()
                   for row in table.values())


class Row(Mapping):
    """A probability row over a known column space: the columns in ``exc``
    have their own value, every other one of ``columns`` has ``default``.
    As a mapping it is the full row without its zero entries, computed on
    access.  Rows come from ``canonical_row`` and are never changed."""

    __slots__ = ("exc", "default", "columns")

    def __init__(self, exc, default, columns):
        self.exc, self.default, self.columns = exc, default, columns

    def prob(self, col):
        return self.exc.get(col, self.default)

    def total(self):
        """The row's probability mass, without visiting every column."""
        return (sum(self.exc.values())
                + self.default * (len(self.columns) - len(self.exc)))

    def __getitem__(self, col):
        if col in self.columns and self.prob(col) > 0.0:
            return self.prob(col)
        raise KeyError(col)

    def __iter__(self):
        return (col for col in self.columns if self.prob(col) > 0.0)

    def __len__(self):
        return sum(1 for _ in self)


EMPTY_ROW = Row({}, 0.0, {})   # a missing row: no mass anywhere


def canonical_row(values, default, columns) -> Row:
    """The row whose columns in ``values`` have those values and whose other
    columns have ``default``, in canonical form: the default is the most
    common value over the whole column space, the smaller one on a tie, so
    equal rows have equal forms and equal text."""
    if 2 * len(values) >= len(columns):   # else ``default`` is the mode
        values = {**dict.fromkeys(columns, default), **values}
        tally = Counter(values.values())
        default = min(tally, key=lambda p: (-tally[p], p))
    return Row({c: p for c, p in values.items() if p != default}, default,
               columns)


NO_ROW = ({}, NEG_INF)   # the compiled form of a missing row


class ConceptHmm:
    """First-order concept HMM with concept-conditional word bigrams.

    Probabilities are ``Row``s in linear space rounded to 12 significant
    digits (the on-disk canonical form).  Construction compiles them into
    log tables indexed by concept, with a minus-infinity sentinel for
    impossible events; every scorer reads these: ``init_vec``,
    ``trans_into`` (``[next][previous]``) and its per-row maximum
    ``trans_max`` (the decoder's bound), ``final_vec``, and per concept
    its bigram table (context -> (log exceptions, log default); a missing
    context reads as ``NO_ROW``) in ``bigram_tables`` and that table's
    begin-marker row in ``begin_rows``.  A symbol outside ``vocab_set`` has
    no mass in any row.
    """

    def __init__(self, dictionary: ConceptDictionary, vocab, k: float,
                 initial, transition, bigram, counts: TrainingCounts | None = None):
        self.dictionary = dictionary
        self.vocab = tuple(sorted(vocab))
        self.vocab_set = frozenset(self.vocab)
        self.k = k
        self.initial = initial        # Row over concepts + FINAL
        self.transition = transition  # row concept -> Row over concepts + FINAL
        self.bigram = bigram          # concept -> prev (word or BEGIN) -> Row
        self.counts = counts
        names = dictionary.names
        rows = [transition.get(r, EMPTY_ROW) for r in names]
        self.init_vec = [_safe_log(initial.prob(c)) for c in names]
        self.trans_into = [[_safe_log(row.prob(c)) for row in rows]
                           for c in names]  # next concept -> previous -> log p
        self.trans_max = [max(col) for col in self.trans_into]
        self.final_vec = [_safe_log(row.prob(FINAL)) for row in rows]
        self.bigram_tables = [
            {r: ({w: _safe_log(p) for w, p in row.exc.items()},
                 _safe_log(row.default))
             for r, row in bigram.get(c, {}).items()} for c in names]
        self.begin_rows = [t.get(BEGIN, NO_ROW) for t in self.bigram_tables]

    def emission(self, c, ctx, sym) -> float:
        """log P(sym | concept id c, bigram context ctx)."""
        if sym not in self.vocab_set:
            return NEG_INF
        exc, default = self.bigram_tables[c].get(ctx, NO_ROW)
        return exc.get(sym, default)

    def rows(self):
        """All (name, row) probability rows, for normalization checks."""
        yield ("initial", self.initial)
        for r, row in self.transition.items():
            yield (f"transition[{r}]", row)
        for g, table in self.bigram.items():
            for r, row in table.items():
                yield (f"bigram[{g}][{r}]", row)

    def parameter_counts(self):
        """(probability rows, count-backed bigram entries)."""
        tables = self.bigram.values()
        nrows = 1 + len(self.transition) + sum(len(t) for t in tables)
        nonzero = self.counts.nonzero_bigrams() if self.counts else sum(
            len(row) for t in tables for row in t.values())
        return nrows, nonzero


def _safe_log(p):
    return math.log(p) if p > 0.0 else NEG_INF


def _smooth_row(counts_row, columns, k):
    """Add-k relative frequencies over the column space, 12-digit canonical:
    every unseen column shares the one value k / total.

    Returns None when the row has no support and k == 0 (no distribution is
    estimable; downstream lookups see the minus-infinity sentinel).
    """
    total = sum(counts_row.values()) + k * len(columns)
    if total <= 0.0:
        return None
    return canonical_row(
        {col: _round12((n + k) / total) for col, n in counts_row.items()},
        _round12(k / total), columns)


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
    vocab_cols = dict.fromkeys(vocab)
    names = dictionary.names

    trans_counts = {r: {} for r in [BEGIN] + names}
    bigram_counts = {}
    for sent in corpus:
        prev_label = BEGIN
        prev_sym = BEGIN
        for word, label in zip(sent.words, sent.labels):
            if label not in dictionary:
                raise UnknownLabelError(label)
            if word.sym not in vocab_cols:
                raise UnknownWordError(word.sym)
            row = trans_counts[prev_label]
            row[label] = row.get(label, 0) + 1
            ctx = BEGIN if label != prev_label else prev_sym
            brow = bigram_counts.setdefault(label, {}).setdefault(ctx, {})
            brow[word.sym] = brow.get(word.sym, 0) + 1
            prev_label, prev_sym = label, word.sym
        row = trans_counts[prev_label]
        row[FINAL] = row.get(FINAL, 0) + 1

    trans_cols = dict.fromkeys(names + [FINAL])
    initial = _smooth_row(trans_counts[BEGIN], trans_cols, k)
    transition = {}
    for c in names:
        row = _smooth_row(trans_counts[c], trans_cols, k)
        if row is not None:
            transition[c] = row
    unseen = _smooth_row({}, vocab_cols, k)   # any context never seen
    bigram = {}
    for c in names:
        table = {}
        ctx_rows = bigram_counts.get(c, {})
        for ctx in [BEGIN] + vocab:
            row = (_smooth_row(ctx_rows[ctx], vocab_cols, k) if ctx in ctx_rows
                   else unseen)
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
    columns = dict.fromkeys(model.vocab)
    bigram = {g: dict(table) for g, table in model.bigram.items()}
    for concept, concept_groups in groups.items():
        if concept not in model.dictionary:
            raise UnknownLabelError(concept)
        seen = set()
        for group in concept_groups:
            for w in group:
                if w not in columns:
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
            _average_rows(table, members, model, concept, columns)
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


def _average_rows(table, members, model, concept, columns):
    rows = [table.get(w, EMPTY_ROW) for w in members]
    if all((r.exc, r.default) == (rows[0].exc, rows[0].default) for r in rows):
        return  # already tied; keep exact values (idempotence)
    if model.counts is not None:
        weights = [model.counts.bigram_row_total(concept, w) for w in members]
    else:
        weights = [1] * len(members)
    if sum(weights) == 0:
        weights = [1] * len(members)
    total_w = sum(weights)

    def mean(values):
        return sum(w * p for w, p in zip(weights, values)) / total_w

    cols = set().union(*(r.exc for r in rows))
    avg = canonical_row(
        {col: _round12(mean([r.prob(col) for r in rows])) for col in cols},
        _round12(mean([r.default for r in rows])), columns)
    for w in members:
        if avg:
            table[w] = avg
        else:
            table.pop(w, None)


def _share_columns(table, members):
    for ctx, row in table.items():
        vals = [row.prob(w) for w in members]
        if all(v == vals[0] for v in vals):
            continue
        share = _round12(sum(vals) / len(members))
        table[ctx] = canonical_row({**row.exc, **dict.fromkeys(members, share)},
                                   row.default, row.columns)


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
        logp += model.emission(c, prev_sym if c == prev else BEGIN, word.sym)
        prev, prev_sym = c, word.sym
    return logp + (NEG_INF if prev is None else model.final_vec[prev])


# ---------------------------------------------------------------------------
# Serialization: line-oriented `chronus-model v2` format

MAGIC = "chronus-model v2"


def model_to_text(model: ConceptHmm) -> str:
    """``chronus-model v2`` text: ``k``, the name sections, every row as its
    default line ``ROW<TAB>PROB`` and exception lines ``ROW<TAB>COL<TAB>PROB``,
    then the training counts, if any, as ``ROW<TAB>COL<TAB>COUNT`` lines.
    Rows and columns are sorted, so equal models give equal text."""
    names = model.dictionary.names
    out = [MAGIC, f"k\t{model.k!r}", "[concepts]",
           *model.dictionary.to_lines(), "[vocab]", *model.vocab]
    for header, table in _tables(model.initial, model.transition,
                                 model.bigram, names):
        out.append(f"[{header}]")
        for name in sorted(table):
            row = table[name]
            out.append(f"{name}\t{row.default:.11e}")
            out.extend(f"{name}\t{col}\t{p:.11e}"
                       for col, p in sorted(row.exc.items()))
    counts = model.counts
    if counts is not None:
        for header, table in _tables(counts.transition.get(BEGIN, {}),
                                     counts.transition, counts.bigram, names):
            out.append(f"[counts {header}]")
            for name in sorted(table):
                out.extend(f"{name}\t{col}\t{n}"
                           for col, n in sorted(table[name].items()))
    return "\n".join(out) + "\n"


def _tables(initial, transition, bigram, names):
    """(section header, row name -> row) of a model's tables, in file order."""
    yield "initial", {BEGIN: initial}
    yield "transition", {r: transition[r] for r in names if r in transition}
    for c in names:
        if c in bigram:
            yield f"bigram {c}", bigram[c]


def save_model(model: ConceptHmm, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


def model_from_text(text: str, path=None) -> ConceptHmm:
    """Parse a ``chronus-model`` text, v2 or v1.  Transitions may name only
    concepts of ``[concepts]`` (and ``</s>``), bigrams only symbols of
    ``[vocab]`` (and ``<s>``, ``</s>``); both sections must come first.  A
    row without a default line, as every v1 row, has default 0; each row is
    brought to canonical form, so a v1 text reads as the same model."""
    lines = text.splitlines()
    magic = lines[0].strip() if lines else ""
    if magic not in (MAGIC, "chronus-model v1"):
        raise DataFormatError(f"missing {MAGIC} header", path, 1)
    k = 0.0
    concepts, vocab = [], {}   # vocab: the [vocab] symbols in file order
    names, symbols = set(), {BEGIN, FINAL}
    transition, bigram, counts = {}, {}, None   # rows: [values, default]
    table = row_name = None    # the current table and row
    for ln, section, line in records(lines, path, magic):
        if line is None:
            table = row_name = None
            counting = section.startswith("counts ")
            if counting and counts is None:
                counts = TrainingCounts()
            kind, _, concept = section.removeprefix("counts ").partition(" ")
            if kind == "bigram":
                if concept not in names:
                    raise DataFormatError(f"unknown concept {concept!r}", path, ln)
                rows_ok = cols_ok = symbols
                row_msg = col_msg = "symbol {!r} is not in [vocab]"
                table = (counts.bigram if counting else bigram).setdefault(
                    concept, {})
            elif kind in ("initial", "transition") and not concept:
                rows_ok = {BEGIN} if kind == "initial" else names
                cols_ok = names | {FINAL}
                row_msg = f"unknown {kind} row {{!r}}"
                col_msg = "unknown concept {!r}"
                table = counts.transition if counting else transition
            elif section not in ("concepts", "vocab"):
                raise DataFormatError(f"unknown section [{section}]", path, ln)
            continue
        parts = line.split("\t")
        if table is not None:   # the bulk of a model: rows come grouped
            if parts[0] != row_name:
                if parts[0] not in rows_ok:
                    raise DataFormatError(row_msg.format(parts[0]), path, ln)
                row_name = parts[0]
                row = table.setdefault(row_name,
                                       {} if counting else [{}, None])
                entries = row if counting else row[0]
            if len(parts) == 2 and not counting:
                if row[1] is not None:
                    raise DataFormatError(
                        f"row {row_name!r} has a second default line", path, ln)
                row[1] = number(float, parts[1], "probability", path, ln, 0.0, 1.0)
            elif len(parts) != 3:
                raise DataFormatError("expected ROW<TAB>COL<TAB>"
                                      + ("COUNT" if counting else "PROB"), path, ln)
            elif parts[1] not in cols_ok:
                raise DataFormatError(col_msg.format(parts[1]), path, ln)
            elif parts[1] in entries:
                raise DataFormatError(
                    f"row {row_name!r} repeats column {parts[1]!r}", path, ln)
            else:
                entries[parts[1]] = (
                    number(int, parts[2], "count", path, ln, 1, math.inf)
                    if counting else
                    number(float, parts[2], "probability", path, ln, 0.0, 1.0))
        elif section is None:
            if parts[0] == "k" and len(parts) == 2:
                k = number(float, parts[1], "k", path, ln, 0.0, math.inf)
            elif parts[0] != "floor" or len(parts) != 2:  # v1 floor: ignored
                raise DataFormatError("unexpected header line", path, ln)
        elif section == "concepts":
            concepts.append(parse_concept(line, path, ln))
            if concepts[-1].name in names:
                raise DataFormatError(
                    f"repeated concept {concepts[-1].name!r}", path, ln)
            names.add(concepts[-1].name)
        else:
            sym = line.strip()
            if sym in vocab:
                raise DataFormatError(f"repeated [vocab] symbol {sym!r}",
                                      path, ln)
            vocab[sym] = None
            symbols.add(sym)

    dictionary = ConceptDictionary(concepts)
    trans_cols = dict.fromkeys(dictionary.names + [FINAL])
    vocab_cols = dict.fromkeys(sorted(vocab))

    def canonical(rows, columns):   # a row without a default line: 0
        return {r: canonical_row(values, default or 0.0, columns)
                for r, (values, default) in rows.items()}

    transition = canonical(transition, trans_cols)
    initial = transition.pop(BEGIN, EMPTY_ROW)   # the [initial] row
    bigram = {c: canonical(rows, vocab_cols) for c, rows in bigram.items()}
    return ConceptHmm(dictionary, vocab, k, initial, transition, bigram, counts)


def load_model(path) -> ConceptHmm:
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read(), path=str(path))


def make_sentence(word_syms, labels) -> SegmentedSentence:
    """Convenience constructor from plain symbol strings."""
    return SegmentedSentence(tuple(Superword(s) for s in word_syms), tuple(labels))
