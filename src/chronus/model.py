"""Concept HMM: transition probabilities over concepts plus per-concept
word bigrams, with maximum-likelihood estimation, add-k smoothing and
supervised synonym smoothing.

Training counts the events of a corpus (``count_events``) and estimates
a model from the counts (``train_mle``); a model holds probabilities
only, exactly what its file holds.

Segmentations are encoded one label per word, so a segment boundary is
simply a label change and self-transitions are real, estimated events.
Segment-initial words are conditioned on a per-concept begin marker.

Add-k smoothing gives every unseen event of a row one shared value, so a
row is held exactly as its exceptions plus one default, from estimation
through synonym smoothing and the model file to the decoder.
It also gives every bigram context never seen in training one row, the
model's unseen row (uniform over the vocabulary, or no mass when k = 0),
so a bigram table holds only the context rows that differ from it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from .concepts import ConceptDictionary, parse_concept
from .errors import ChronusError, DataFormatError
from .lexicon import parse_superword
from .textfile import number, read_lines, read_text, records

BEGIN = "<s>"    # begin-of-segment marker / initial-state row
FINAL = "</s>"   # final-state column
NEG_INF = float("-inf")


def round12(p: float) -> float:
    """Canonical 12-significant-digit value, the model file's rounding;
    keeps serialization lossless."""
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
    """Raw event counts of a corpus over a dictionary and a sorted
    vocabulary; models and model files do not hold them."""

    dictionary: ConceptDictionary
    vocab: tuple
    transition: dict   # row -> col -> count
    bigram: dict       # concept -> prev -> word -> count

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

    def normalized(self):
        """Whether the row's mass is 1 within 1e-9; a row without mass is not."""
        return abs(self.total() - 1.0) <= 1e-9

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


class ConceptHmm:
    """First-order concept HMM with concept-conditional word bigrams.

    Probabilities are ``Row``s in linear space rounded to 12 significant
    digits (the on-disk canonical form).  A bigram table holds only the
    context rows that differ from ``unseen``, the row add-k smoothing gives
    a context never seen in training: construction drops every row equal
    to it, and ``bigram_row`` reads a missing context as it.  Construction
    compiles the transition rows into log tables indexed by concept, with
    a minus-infinity sentinel for impossible events: ``init_vec``,
    ``trans_into`` (``[next][previous]``), ``enter_max`` and
    ``final_vec``.  ``enter_max[c]`` is the largest transition into ``c``
    from another concept, -inf when there is none; the self-loop is left
    out because it stays in ``c`` rather than entering it.  It bounds the
    decoder's concept-changing candidates and tells constrained alignment
    which concepts no labeling can enter.  The tables are read from each
    row's default and exceptions.  A symbol outside ``vocab_set`` has no
    mass in any row.

    Every scorer reads emissions as per-concept vectors from
    ``emissions(ctx, sym)``: the begin-marker emissions of ``sym`` (``ctx``
    = ``BEGIN``) and its stay emissions after ``ctx``.  They are the logs
    of the bigram rows' values, taken on first use, never at
    construction, and memoised on the instance for a context in ``BEGIN``
    + vocabulary and a symbol in the vocabulary, so the memo holds at most
    (|V| + 1) * |V| vectors; any other symbol reads one shared all -inf
    vector.
    """

    def __init__(self, dictionary: ConceptDictionary, vocab, k: float,
                 initial, transition, bigram):
        self.dictionary = dictionary
        self.vocab = tuple(sorted(vocab))
        self.vocab_set = frozenset(self.vocab)
        self.k = k
        self.initial = initial        # Row over concepts + FINAL
        self.transition = transition  # row concept -> Row over concepts + FINAL
        unseen = _smooth_row({}, dict.fromkeys(self.vocab), k)
        self.unseen = EMPTY_ROW if unseen is None else unseen
        names = dictionary.names
        # concept -> prev (word or BEGIN) -> Row, for every concept; the
        # unseen row has no exceptions, so a row equals it when it has none
        # and the same default
        self.bigram = {c: {r: row for r, row in bigram.get(c, {}).items()
                           if row.exc or row.default != self.unseen.default}
                       for c in names}
        rows = [transition.get(r, EMPTY_ROW) for r in names]
        self.init_vec = [_safe_log(initial.prob(c)) for c in names]
        index = {c: i for i, c in enumerate(names)}
        out_of = []   # previous concept -> next -> log p
        for row in rows:
            logs = [_safe_log(row.default)] * len(names)
            for col, p in row.exc.items():
                if col in index:
                    logs[index[col]] = _safe_log(p)
            out_of.append(logs)
        # next concept -> previous -> log p
        self.trans_into = [list(col) for col in zip(*out_of)]
        self.enter_max = [max(col[:c] + col[c + 1:], default=NEG_INF)
                          for c, col in enumerate(self.trans_into)]
        self.final_vec = [_safe_log(row.prob(FINAL)) for row in rows]
        self._emissions = {}   # (ctx, sym) -> per-concept vector, on use
        self._no_mass = (NEG_INF,) * len(names)

    def bigram_row(self, concept, ctx) -> Row:
        """The bigram row of a concept name after context ``ctx``, stored
        or unseen."""
        return self.bigram[concept].get(ctx, self.unseen)

    def emissions(self, ctx, sym) -> tuple:
        """log P(sym | concept id c, bigram context ctx) for every c, as
        one read-only vector."""
        vec = self._emissions.get((ctx, sym))
        if vec is None:
            if sym not in self.vocab_set:
                return self._no_mass
            vec = tuple([_safe_log(table.get(ctx, self.unseen).prob(sym))
                         for table in self.bigram.values()])
            if ctx == BEGIN or ctx in self.vocab_set:
                self._emissions[ctx, sym] = vec
        return vec

    def rows(self):
        """All stored (name, row) probability rows, for normalization
        checks; the unseen row is not one of them."""
        yield ("initial", self.initial)
        for r, row in self.transition.items():
            yield (f"transition[{r}]", row)
        for g, table in self.bigram.items():
            for r, row in table.items():
                yield (f"bigram[{g}][{r}]", row)

    def row_count(self):
        """The number of probability rows; every context of ``<s>`` +
        vocabulary that reads the unseen row counts as a row when that row
        has mass."""
        contexts = {BEGIN, *self.vocab} if self.unseen.default else set()
        return 1 + len(self.transition) + sum(
            len(table.keys() | contexts) for table in self.bigram.values())


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
        {col: round12((n + k) / total) for col, n in counts_row.items()},
        round12(k / total), columns)


def full_vocabulary(lexicon, sentences):
    """Every symbol the lexicon can emit, plus anything seen in training."""
    syms = set(lexicon.superwords)
    syms.update(w.sym for s in sentences for w in s.words)
    return sorted(syms)


def count_events(corpus, dictionary: ConceptDictionary,
                 vocabulary) -> TrainingCounts:
    """The transition events over (concepts + initial) x (concepts +
    final) and the bigram events per concept over (vocabulary + begin
    marker) x vocabulary of a non-empty corpus of segmented sentences."""
    corpus = list(corpus)
    if not corpus:
        raise ChronusError("training corpus is empty")
    vocab = tuple(sorted(set(vocabulary)))
    vocab_set = frozenset(vocab)
    trans_counts = {r: {} for r in [BEGIN] + dictionary.names}
    bigram_counts = {}
    for sent in corpus:
        prev_label = BEGIN
        prev_sym = BEGIN
        for word, label in zip(sent.words, sent.labels):
            if label not in dictionary:
                raise ChronusError(
                    f"segmentation label not in concept dictionary: {label!r}")
            if word.sym not in vocab_set:
                raise ChronusError(f"word not in vocabulary: {word.sym!r}")
            row = trans_counts[prev_label]
            row[label] = row.get(label, 0) + 1
            ctx = BEGIN if label != prev_label else prev_sym
            brow = bigram_counts.setdefault(label, {}).setdefault(ctx, {})
            brow[word.sym] = brow.get(word.sym, 0) + 1
            prev_label, prev_sym = label, word.sym
        row = trans_counts[prev_label]
        row[FINAL] = row.get(FINAL, 0) + 1
    return TrainingCounts(dictionary, vocab, trans_counts, bigram_counts)


def train_mle(counts: TrainingCounts, k: float) -> ConceptHmm:
    """Relative-frequency estimation with add-k smoothing from ``counts``;
    every bigram context never seen reads the model's unseen row.  ``k``
    must be finite and >= 0.
    """
    if not 0.0 <= k < math.inf:
        raise ChronusError(f"k {k!r} is not a finite number >= 0")
    names = counts.dictionary.names
    trans_cols = dict.fromkeys(names + [FINAL])
    vocab_cols = dict.fromkeys(counts.vocab)
    initial = _smooth_row(counts.transition[BEGIN], trans_cols, k)
    transition = {}
    for c in names:
        row = _smooth_row(counts.transition[c], trans_cols, k)
        if row is not None:
            transition[c] = row
    bigram = {c: {ctx: _smooth_row(row, vocab_cols, k)
                  for ctx, row in table.items()}
              for c, table in counts.bigram.items()}   # seen contexts only
    return ConceptHmm(counts.dictionary, counts.vocab, k, initial, transition,
                      bigram)


def apply_synonym_smoothing(model: ConceptHmm, groups,
                            counts: TrainingCounts) -> ConceptHmm:
    """Tie bigram statistics of synonym groups.

    ``groups`` maps a concept name to word groups.  For each group the
    context rows of the member words are replaced by their average,
    weighted by the rows' totals in ``counts``, the counts the model was
    estimated from (equally when every total is 0), and in every row of
    that concept's table the member columns share their summed mass
    uniformly.
    """
    if not groups:
        return model
    columns = dict.fromkeys(model.vocab)
    bigram = {g: dict(table) for g, table in model.bigram.items()}
    for concept, concept_groups in groups.items():
        if concept not in model.dictionary:
            raise ChronusError(
                f"segmentation label not in concept dictionary: {concept!r}")
        seen = set()
        for group in concept_groups:
            for w in group:
                if w not in columns:
                    raise ChronusError(f"word not in vocabulary: {w!r}")
                if w in seen:
                    raise ChronusError(
                        f"word {w!r} in two synonym groups under {concept}")
                seen.add(w)
        table = bigram.setdefault(concept, {})
        counted = counts.bigram.get(concept, {})
        for group in concept_groups:
            if len(group) < 2:
                continue
            members = list(group)
            _average_rows(table, members, model, counted, columns)
            _share_columns(table, members)
    return ConceptHmm(model.dictionary, model.vocab, model.k,
                      model.initial, model.transition, bigram)


def load_synonyms(path, dictionary: ConceptDictionary, vocab):
    """Synonym groups for ``apply_synonym_smoothing`` from a file of
    ``concept<TAB>word<TAB>word...`` lines, one group per line.

    Lines are checked in file order against the model's ``dictionary`` and
    ``vocab``: an unknown concept, a word outside the vocabulary, or a word
    that an earlier group of the same concept holds is a data error at
    its line."""
    vocab = set(vocab)
    groups, seen = {}, {}   # concept -> word groups; -> words so far
    for ln, section, line in records(read_lines(path), path):
        if line is None:
            raise DataFormatError(f"unknown section [{section}]", path, ln)
        fields = line.split("\t")
        if len(fields) < 3:
            raise DataFormatError(
                "synonym line needs a concept and two or more words",
                path, ln)
        concept, words = fields[0], fields[1:]
        if concept not in dictionary:
            raise DataFormatError(f"unknown concept {concept!r}", path, ln)
        held = seen.setdefault(concept, set())
        for w in words:
            if w not in vocab:
                raise DataFormatError(f"word not in vocabulary: {w!r}",
                                      path, ln)
            if w in held:
                raise DataFormatError(
                    f"word {w!r} in two synonym groups under {concept}",
                    path, ln)
            held.add(w)
        groups.setdefault(concept, []).append(words)
    return groups


def _average_rows(table, members, model, counted, columns):
    rows = [table.get(w, model.unseen) for w in members]
    if all((r.exc, r.default) == (rows[0].exc, rows[0].default) for r in rows):
        return  # already tied; keep exact values (idempotence)
    weights = [sum(counted.get(w, {}).values()) for w in members]
    if sum(weights) == 0:
        weights = [1] * len(members)
    total_w = sum(weights)

    def mean(values):
        return sum(w * p for w, p in zip(weights, values)) / total_w

    cols = set().union(*(r.exc for r in rows))
    avg = canonical_row(
        {col: round12(mean([r.prob(col) for r in rows])) for col in cols},
        round12(mean([r.default for r in rows])), columns)
    for w in members:
        table[w] = avg   # the model drops it if it equals the unseen row


def _share_columns(table, members):
    for ctx, row in table.items():
        vals = [row.prob(w) for w in members]
        if all(v == vals[0] for v in vals):
            continue
        share = round12(sum(vals) / len(members))
        table[ctx] = canonical_row({**row.exc, **dict.fromkeys(members, share)},
                                   row.default, row.columns)


def prefix_scores(model: ConceptHmm, arcs_or_superwords, labels) -> list:
    """The running log P(W, C) of one symbol sequence (arcs or superwords)
    under one labeling: after each step, its init or transition term and
    then its emission, and last after the final transition, so the last
    entry is the total (the only one, -inf, for an empty sequence); -inf
    once an event is impossible."""
    scores, logp = [], 0.0
    prev = None
    prev_sym = BEGIN
    for word, label in zip(arcs_or_superwords, labels):
        if label not in model.dictionary:
            raise ChronusError(
                f"segmentation label not in concept dictionary: {label!r}")
        c = model.dictionary.index(label)
        if prev is None:
            logp += model.init_vec[c]
        else:
            logp += model.trans_into[c][prev]
        logp += model.emissions(prev_sym if c == prev else BEGIN, word.sym)[c]
        scores.append(logp)
        prev, prev_sym = c, word.sym
    scores.append(NEG_INF if prev is None else logp + model.final_vec[prev])
    return scores


def path_score(model: ConceptHmm, arcs_or_superwords, labels) -> float:
    """log P(W, C) of one symbol sequence (arcs or superwords) under one
    labeling; -inf for impossible events."""
    return prefix_scores(model, arcs_or_superwords, labels)[-1]


# ---------------------------------------------------------------------------
# Serialization: line-oriented `chronus-model v3` format

MAGIC = "chronus-model v3"


def model_to_text(model: ConceptHmm) -> str:
    """``chronus-model v3`` text: ``k``, the name sections, and every stored
    row as its default line ``ROW<TAB>PROB`` and exception lines
    ``ROW<TAB>COL<TAB>PROB``, with one ``[bigram c]`` section per concept
    that leaves out the contexts reading the unseen row.  Rows and columns
    are sorted, so equal models give equal text."""
    out = [MAGIC, f"k\t{model.k!r}", "[concepts]",
           *model.dictionary.to_lines(), "[vocab]", *model.vocab]
    tables = [("initial", {BEGIN: model.initial}),
              ("transition", model.transition)]
    tables += [(f"bigram {c}", model.bigram[c]) for c in model.dictionary.names]
    for header, table in tables:
        out.append(f"[{header}]")
        for name in sorted(table):
            row = table[name]
            out.append(f"{name}\t{row.default:.11e}")
            out.extend(f"{name}\t{col}\t{p:.11e}"
                       for col, p in sorted(row.exc.items()))
    return "\n".join(out) + "\n"


def save_model(model: ConceptHmm, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(model))


def model_from_text(text: str, path=None) -> ConceptHmm:
    """Parse a ``chronus-model v3`` text; a v1 or v2 text is refused at its
    header.  The header holds exactly one ``k`` line.  Transitions may
    name only concepts of ``[concepts]`` (and ``</s>``), bigrams only
    symbols of ``[vocab]`` (and ``<s>``, ``</s>``); both sections must come
    first.  A row without a default line has default 0; each row is
    brought to canonical form and must be normalized.  The ``[initial]``
    row is required, every concept needs a ``[bigram c]`` section, and a
    context without a row there has the unseen row."""
    lines = text.split("\n")
    if (magic := lines[0].strip()) in ("chronus-model v1", "chronus-model v2"):
        raise DataFormatError(
            f"{magic} is no longer read; retrain with chronus train", path, 1)
    k = None
    concepts = []
    vocab = {}   # the [vocab] symbols in file order
    names, symbols = set(), {BEGIN, FINAL}
    transition, bigram = {}, {}   # rows: [values, default, ln]
    table = row_name = None    # the current table and row
    for ln, section, line in records(lines, path, MAGIC):
        if line is None:
            table = row_name = None
            kind, _, concept = section.partition(" ")
            if kind == "bigram":
                if concept not in names:
                    raise DataFormatError(f"unknown concept {concept!r}", path, ln)
                rows_ok = cols_ok = symbols
                row_msg = col_msg = "symbol {!r} is not in [vocab]"
                table = bigram.setdefault(concept, {})
            elif kind in ("initial", "transition") and not concept:
                rows_ok = {BEGIN} if kind == "initial" else names
                cols_ok = names | {FINAL}
                row_msg = f"unknown {kind} row {{!r}}"
                col_msg = "unknown concept {!r}"
                table = transition
            elif section not in ("concepts", "vocab"):
                raise DataFormatError(f"unknown section [{section}]", path, ln)
            continue
        parts = line.split("\t")
        if table is not None:   # the bulk of a model: rows come grouped
            if parts[0] != row_name:
                if parts[0] not in rows_ok:
                    raise DataFormatError(row_msg.format(parts[0]), path, ln)
                row_name = parts[0]
                row = table.setdefault(row_name, [{}, None, ln])
            if len(parts) == 2:
                if row[1] is not None:
                    raise DataFormatError(
                        f"row {row_name!r} has a second default line", path, ln)
                row[1] = number(float, parts[1], "probability", path, ln, 0.0, 1.0)
            elif len(parts) != 3:
                raise DataFormatError("expected ROW<TAB>COL<TAB>PROB", path, ln)
            elif parts[1] not in cols_ok:
                raise DataFormatError(col_msg.format(parts[1]), path, ln)
            elif parts[1] in row[0]:
                raise DataFormatError(
                    f"row {row_name!r} repeats column {parts[1]!r}", path, ln)
            else:
                row[0][parts[1]] = number(float, parts[2], "probability",
                                          path, ln, 0.0, 1.0)
        elif section is None:
            if parts[0] != "k" or len(parts) != 2:
                raise DataFormatError("unexpected header line", path, ln)
            if k is not None:
                raise DataFormatError("repeated k line", path, ln)
            k = number(float, parts[1], "k", path, ln, 0.0, math.inf)
        elif section == "concepts":
            concepts.append(parse_concept(line, path, ln))
            name = concepts[-1].name
            if name in names:
                raise DataFormatError(f"repeated concept {name!r}", path, ln)
            names.add(name)
        else:
            sym = line.strip()
            if sym in vocab:
                raise DataFormatError(f"repeated [vocab] symbol {sym!r}",
                                      path, ln)
            vocab[sym] = None
            symbols.add(sym)

    if k is None:
        raise DataFormatError("model has no k line", path, 1)
    dictionary = ConceptDictionary(concepts, path)
    for c in dictionary:
        if c.name not in bigram:
            raise DataFormatError(f"concept {c.name!r} has no [bigram {c.name}] "
                                  "section", path, c.line)
    trans_cols = dict.fromkeys(dictionary.names + [FINAL])
    vocab_cols = dict.fromkeys(sorted(vocab))

    def canonical(rows, columns):   # a row without a default line: 0
        out = {}
        for r, (values, default, ln) in rows.items():
            row = out[r] = canonical_row(values, default or 0.0, columns)
            if not row.normalized():
                raise DataFormatError(
                    f"row {r!r} sums to {row.total()!r}, not 1", path, ln)
        return out

    transition = canonical(transition, trans_cols)
    if BEGIN not in transition:
        raise DataFormatError("model has no [initial] row", path, 1)
    initial = transition.pop(BEGIN)
    bigram = {c: canonical(rows, vocab_cols) for c, rows in bigram.items()}
    return ConceptHmm(dictionary, vocab, k, initial, transition, bigram)


def load_model(path) -> ConceptHmm:
    return model_from_text(read_text(path), path=str(path))
