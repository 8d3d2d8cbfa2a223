"""MAP decoding of concept sequences.

Sequence decoding maximizes P(W, C) over labelings; lattice decoding
jointly maximizes over lattice paths and labelings.  Because the word
bigram context of an arc is the superword of the incoming arc, the
dynamic program is indexed by (arc, concept) rather than (position,
concept).  It runs on integer ids: arcs by their position in the sorted
``lattice.arcs``, concepts by dictionary index, scores from the model's
concept-indexed log tables (a bigram row is its log exceptions plus a log
default), one list of per-concept scores per arc.

A new segment's first word is emitted from the begin-marker row whatever
the previous concept was, so that emission is looked up once per (arc,
concept); only staying in the same concept reads the predecessor's row.

Each cell maximizes over the candidates (previous concept, live incoming
arc), each scored as ``cell + transition + emission``, without scoring
them all.  It scores the candidates that stay in its concept first, then
walks those that change concept from the highest predecessor cell down
(a stable sort, so equal cells keep index order), and stops at the first
one whose bound ``cell + trans_max + begin emission`` is strictly below
the best score so far; ``trans_max`` is the model's largest transition
into the concept.  The result is exact: IEEE round-to-nearest addition is
monotone in each operand, so no candidate after the stop can reach or tie
the best score.  While the best score is -inf the bound never fires, so
a degenerate cell scores every candidate.

Tie-breaking is fully deterministic: among the candidates that score the
best, the one first in order of (concept index, incoming-arc key) wins,
as if every candidate were examined in that order and only strictly
better scores replaced the incumbent.  The brute-force oracle reproduces
the same rule globally, so the two decoders agree bit-for-bit whenever the
best score is finite.  On a degenerate input, where every labeling scores
-inf, both report -inf but may pick different labelings: each cell keeps
its own best predecessor, while the oracle takes the first labeling in
its global order.  Rounding could split them the same way: two prefixes
that meet in one cell an ulp apart may add up to one total, and the
decoder keeps the strictly better prefix where the oracle takes its
global first.  Constrained alignment shows this; for the decoder it is
possible but has not been observed.  The oracle's enumerator,
``exhaustive_search``, also backs the alignment oracle
``training.brute_force_align``; constrained alignment itself
(``training.align_win``) reads the same tables with the same
first-maximum rule, over dense integer (concept, count code) states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import ChronusError
from .lexicon import Arc, Lattice, Superword, enumerate_path_arcs
from .model import NEG_INF, NO_ROW, ConceptHmm, SegmentedSentence, path_score


class DecodeSizeError(ChronusError):
    """Brute-force oracle guard tripped."""


@dataclass
class DecodeResult:
    labels: tuple
    words: tuple              # chosen path's superwords
    log_prob: float
    degenerate: bool = False  # no labeling had nonzero probability
    # candidates the maximization covers, scored or excluded by the bound:
    # |C| per arc leaving 0 or entering the end, |C|^2 per live predecessor
    # of every other arc (complexity contract)
    relaxations: int = 0

    def segmentation(self) -> SegmentedSentence:
        return SegmentedSentence(self.words, self.labels)


def chain_lattice(words) -> Lattice:
    arcs = [Arc(i, i + 1, w.sym, w.value) for i, w in enumerate(words)]
    return Lattice(len(words), arcs)


def viterbi_decode(model: ConceptHmm, words) -> DecodeResult:
    """MAP labeling of a superword sequence; O(N * |concepts|^2) relaxations."""
    words = tuple(w if isinstance(w, Superword) else Superword(w) for w in words)
    if not words:
        raise ChronusError("cannot decode an empty sequence")
    return viterbi_decode_lattice(model, chain_lattice(words))


_cell = itemgetter(0)   # a ranked candidate's predecessor cell score


def _interleave(rows):
    """Per-arc lists indexed by concept, flattened concept-major: the
    (concept, arc) candidate order in which ties are broken."""
    return [x for per_concept in zip(*rows) for x in per_concept]


def viterbi_decode_lattice(model: ConceptHmm, lattice: Lattice) -> DecodeResult:
    """Joint MAP over lattice paths and concept labelings."""
    n_concepts = len(model.dictionary)
    arcs = lattice.arcs  # sorted by Arc.key: start-major, predecessors first
    incoming = {}        # end position -> ids of arcs ending there
    for i, a in enumerate(arcs):
        incoming.setdefault(a.end, []).append(i)

    delta = [None] * len(arcs)  # arc id -> score per concept; None: unreachable
    back = [None] * len(arcs)   # arc id -> (prev arc id, prev concept) per concept
    relax = 0
    trans_into, trans_max = model.trans_into, model.trans_max
    bigram_tables = model.bigram_tables

    for i, a in enumerate(arcs):
        known = a.sym in model.vocab_set  # else no row gives the symbol mass
        begin = ([e.get(a.sym, d) for e, d in model.begin_rows] if known
                 else [NEG_INF] * n_concepts)
        if a.start == 0:
            relax += n_concepts
            delta[i] = [s + e for s, e in zip(model.init_vec, begin)]
            back[i] = [(None, None)] * n_concepts
            continue
        live = [j for j in incoming.get(a.start, ()) if delta[j] is not None]
        if not live:
            continue
        m = len(live)
        relax += n_concepts * n_concepts * m
        # candidate d = cp * m + k extends live[k] from previous concept cp;
        # ranked by predecessor cell, highest first, ties in index order
        ranked = sorted([(delta[j][cp], cp, cp * m + k)
                         for cp in range(n_concepts)
                         for k, j in enumerate(live)], key=_cell, reverse=True)
        contexts = [arcs[j].sym for j in live]
        cells, bps = [], []
        for c, trans in enumerate(trans_into):
            # staying in concept c continues the segment, so the bigram
            # context is the predecessor's symbol instead of the begin marker
            table, stay = bigram_tables[c], trans[c]
            best = d = None
            for k, j in enumerate(live):
                exc, default = table.get(contexts[k], NO_ROW)
                s = delta[j][c] + stay + (exc.get(a.sym, default) if known
                                          else NEG_INF)
                if d is None or s > best:
                    best, d = s, c * m + k
            # changing concept: once the bound is strictly below best, no
            # later candidate in the ranking can reach or tie it
            emit, bound = begin[c], trans_max[c]
            for cell, cp, e in ranked:
                if cp == c:
                    continue
                if cell + bound + emit < best:
                    break
                s = cell + trans[cp] + emit
                if s > best or (s == best and e < d):
                    best, d = s, e
            cp, k = divmod(d, m)
            cells.append(best)
            bps.append((live[k], cp))
        delta[i], back[i] = cells, bps

    ends = [j for j in incoming.get(lattice.n_positions, ())
            if delta[j] is not None]
    if not ends:
        raise ChronusError("lattice has no decodable complete path")
    relax += n_concepts * len(ends)
    scores = _interleave([[s + f for s, f in zip(delta[j], model.final_vec)]
                          for j in ends])
    log_prob = max(scores)
    c, k = divmod(scores.index(log_prob), len(ends))

    names = model.dictionary.names
    path = []
    j = ends[k]
    while j is not None:
        path.append((arcs[j].superword, names[c]))
        j, c = back[j][c]
    words, labels = zip(*reversed(path))
    return DecodeResult(labels=labels, words=words, log_prob=log_prob,
                        degenerate=(log_prob == NEG_INF), relaxations=relax)


MAX_ORACLE_CONCEPTS = 6
MAX_ORACLE_PATH_LEN = 8


def exhaustive_search(model: ConceptHmm, lattice: Lattice, admit=None):
    """Best (score, path, labels) over every path x labeling; the one
    enumerator behind both brute-force oracles, independent of the DP.

    Guarded against blowup: at most 6 concepts and path length 8.  Only
    labelings for which ``admit(labels)`` holds compete (all when
    ``admit`` is None); returns None when none does.  Tie-breaking matches
    viterbi_decode_lattice exactly: among equal scores, the candidate
    minimizing the back-to-front sequence of (concept index, arc key)
    pairs wins.
    """
    names = model.dictionary.names
    if len(names) > MAX_ORACLE_CONCEPTS:
        raise DecodeSizeError(f"more than {MAX_ORACLE_CONCEPTS} concepts")
    paths = enumerate_path_arcs(lattice)
    for p in paths:
        if len(p) > MAX_ORACLE_PATH_LEN:
            raise DecodeSizeError(f"path longer than {MAX_ORACLE_PATH_LEN}")

    best = best_key = None
    for path in paths:
        for labels in itertools.product(names, repeat=len(path)):
            if admit is not None and not admit(labels):
                continue
            score = path_score(model, path, labels)
            if best is not None and score < best[0]:
                continue
            key = tuple((model.dictionary.index(c), a.key())
                        for a, c in zip(reversed(path), reversed(labels)))
            if best is None or score > best[0] or key < best_key:
                best, best_key = (score, path, labels), key
    return best


def brute_force_decode(model: ConceptHmm, lattice: Lattice) -> DecodeResult:
    """Exhaustive maximization over paths x labelings; verification oracle."""
    score, path, labels = exhaustive_search(model, lattice)
    words = tuple(a.superword for a in path)
    return DecodeResult(labels=tuple(labels), words=words, log_prob=score,
                        degenerate=(score == NEG_INF))
