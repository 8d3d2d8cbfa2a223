"""MAP decoding of concept sequences.

Sequence decoding maximizes P(W, C) over labelings; lattice decoding
jointly maximizes over lattice paths and labelings.  Because the word
bigram context of an arc is the superword of the incoming arc, the
dynamic program is indexed by (arc, concept) rather than (position,
concept).  It runs on integer ids: arcs by their position in the sorted
``lattice.arcs``, concepts by dictionary index, scores from the model's
concept-indexed log transition vectors, one list of per-concept scores
per arc.  Its predecessors come from the lattice's own index,
``lattice.incoming``: per position, the arcs into it that a path from
position 0 reaches (the live arcs), built once with the lattice, so the
decoder derives no reachability of its own.  Emissions come as
per-concept vectors that the model takes from its bigram rows and
memoises, read by subscripting the memo
(``ConceptHmm.emission_vectors``): a new segment's first word is
emitted from the begin-marker row whatever the previous concept was, so
that vector is read once per arc; only staying in the same concept reads
the vector of the predecessor's symbol as context, once per (arc, live
predecessor).

Each cell maximizes over the candidates (previous concept, live incoming
arc), each scored as ``cell + transition + emission``, without scoring
them all.  The search makes one pass per live incoming arc, in arc-key
order.  The first pass starts each cell from its stay candidate, with no
incumbent to test; most arcs have one live predecessor, so this is the
only pass they make.  Each carried pass after it compares against the
best score and winner the passes before it left in the cell.  The back
pointers are two per-concept lists per arc: the winning predecessor arc,
the first pass's arc until a carried pass wins the cell, and the winning
previous concept; the backtrack stops at an arc that leaves position 0.
A pass ranks the predecessor's cells, highest first (a stable sort, so
equal cells keep concept order).  Per target concept it scores the
candidate that stays in the concept, then walks the ranking, skipping the
concept itself, and stops at the first previous concept whose bound
``cell + enter_max + begin emission`` is strictly below the best score
so far; ``enter_max`` is the model's largest transition into the concept
from another concept, so the self-loop, scored as the stay candidate,
does not loosen it.  The result is exact: every walked candidate changes
concept, so its transition is at most the bound's, and IEEE
round-to-nearest addition is monotone in each operand, so no candidate
after the stop can reach or tie the best score, whichever pass set it.
While the best score is -inf the bound never fires, so a degenerate cell
scores every candidate.

Tie-breaking is fully deterministic: among the candidates that score the
best, the one first in order of (concept index, incoming-arc key) wins,
as if every candidate were examined in that order and only strictly
better scores replaced the incumbent.  Passes run in arc-key order, so a
tie replaces the incumbent exactly when its previous concept is smaller.
The final sweep takes the first maximum in the same (concept, arc key)
order.  So when two prefixes that meet in one cell an ulp apart reach one
total, the larger prefix wins, as the cell kept it.  The brute-force
oracle states this rule as a key over whole labelings and agrees with the
decoder on labels, path and score, with no exception.  On a degenerate
input, where every labeling scores -inf, the decoder returns the oracle's
first labeling: every arc gets the dictionary's first concept, on the
path that starts from the first live arc into the end position, in
arc-key order, and steps back each time to the first live arc into the
current arc's start.  The oracle's enumerator, ``exhaustive_search``,
also backs the alignment oracle ``training.brute_force_align``;
constrained alignment itself (``training.align_win``) reads the same
transition and emission vectors with the same first-maximum rule, over
dense integer (concept, count code) states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ChronusError
from .lexicon import (Arc, Lattice, Superword, enumerate_path_arcs,
                      superword_of)
from .model import BEGIN, NEG_INF, ConceptHmm, SegmentedSentence, prefix_scores
from .model import path_score  # noqa: F401  (callers import it from here)


@dataclass
class DecodeResult:
    labels: tuple
    words: tuple              # chosen path's superwords
    log_prob: float
    degenerate: bool = False  # no labeling had nonzero probability
    # candidates the maximization covers, scored or excluded by the bound:
    # |C| per arc leaving 0 or entering the end, |C|^2 per live predecessor
    # of every other arc, one pass of |C| targets by |C| previous concepts
    # (complexity contract)
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


def viterbi_decode_lattice(model: ConceptHmm, lattice: Lattice) -> DecodeResult:
    """Joint MAP over lattice paths and concept labelings."""
    n_concepts = len(model.dictionary)
    concepts = range(n_concepts)
    arcs = lattice.arcs  # sorted by Arc.key: start-major, predecessors first
    incoming = lattice.incoming  # position -> ids of the live arcs ending there

    delta = [None] * len(arcs)  # arc id -> score per concept; None: unreachable
    # arc id -> per concept, the winning predecessor arc and its concept;
    # None for the arcs leaving 0, where the backtrack stops
    back_arc = [None] * len(arcs)
    back_concept = [None] * len(arcs)
    relax = 0
    # per target concept: its transitions in and its walk bound; built
    # once, as unpacking a fresh zip per pass measured slower
    targets = list(enumerate(zip(model.trans_into, model.enter_max)))
    emissions = model.emission_vectors   # (ctx, sym) -> vector, memoised

    for i, (start, _, sym, _) in enumerate(arcs):
        begin = emissions[BEGIN, sym]
        if start == 0:
            relax += n_concepts
            delta[i] = [s + e for s, e in zip(model.init_vec, begin)]
            continue
        live = incoming.get(start)
        if not live:
            continue
        relax += n_concepts * n_concepts * len(live)
        # The first pass (the only one on most arcs) starts each cell at
        # its stay candidate, which beats the empty -inf cell whatever it
        # scores; the carried passes compare against the cells so far.  A
        # helper per cell costs more than it saves, so the ranked walk is
        # written out in both.
        j = live[0]
        row = delta[j]
        # previous concepts by cell, highest first, ties in index order
        ranked = sorted(concepts, key=row.__getitem__, reverse=True)
        # staying in concept c continues the segment, so the bigram
        # context is the predecessor's symbol instead of the begin marker
        stay = emissions[arcs[j][2], sym]
        # every target sets its entry of both
        cells, prev = [NEG_INF] * n_concepts, [0] * n_concepts
        for c, (trans, bound) in targets:
            best = row[c] + trans[c] + stay[c]
            d = c
            # changing concept: once the bound is strictly below best,
            # no later candidate in the ranking can reach or tie it
            emit = begin[c]
            for cp in ranked:
                if cp == c:
                    continue
                cell = row[cp]
                if cell + bound + emit < best:
                    break
                s = cell + trans[cp] + emit
                if s > best or (s == best and cp < d):
                    best, d = s, cp
            cells[c] = best
            prev[c] = d
        src = [j] * n_concepts
        for j in live[1:]:
            row = delta[j]
            ranked = sorted(concepts, key=row.__getitem__, reverse=True)
            stay = emissions[arcs[j][2], sym]
            for c, (trans, bound) in targets:
                best = old = cells[c]
                d = prev[c]
                s = row[c] + trans[c] + stay[c]
                if s > best or (s == best and c < d):
                    best, d = s, c
                emit = begin[c]
                for cp in ranked:
                    if cp == c:
                        continue
                    cell = row[cp]
                    if cell + bound + emit < best:
                        break
                    s = cell + trans[cp] + emit
                    if s > best or (s == best and cp < d):
                        best, d = s, cp
                if best != old or d != prev[c]:
                    cells[c], prev[c], src[c] = best, d, j
        delta[i], back_arc[i], back_concept[i] = cells, src, prev

    ends = incoming[lattice.n_positions]
    relax += n_concepts * len(ends)
    # the first maximum in (concept, arc key) order; (0, first end) if -inf
    log_prob, c, j = NEG_INF, 0, ends[0]
    for cf, final in enumerate(model.final_vec):
        for e in ends:
            s = delta[e][cf] + final
            if s > log_prob:
                log_prob, c, j = s, cf, e
    degenerate = log_prob == NEG_INF

    names = model.dictionary.names
    arc = arcs[j]
    path = [(superword_of(arc[2:]), names[c])]
    while arc[0]:
        if degenerate:   # the first live arc in, concept 0 throughout
            j = incoming[arc[0]][0]
        else:
            j, c = back_arc[j][c], back_concept[j][c]
        arc = arcs[j]
        path.append((superword_of(arc[2:]), names[c]))
    words, labels = zip(*reversed(path))
    return DecodeResult(labels=labels, words=words, log_prob=log_prob,
                        degenerate=degenerate, relaxations=relax)


MAX_ORACLE_CONCEPTS = 6
MAX_ORACLE_PATH_LEN = 8


def exhaustive_search(model: ConceptHmm, lattice: Lattice, admit=None):
    """Best (score, path, labels) over every path x labeling; the one
    enumerator behind both brute-force oracles, independent of the DP.

    Guarded against blowup: at most 6 concepts and path length 8.  Only
    labelings for which ``admit(labels)`` holds compete (all when
    ``admit`` is None); returns None when none does.  Tie-breaking states
    viterbi_decode_lattice's rule exactly: the candidate minimizing a
    back-to-front key wins.  The last step is keyed (-total, concept
    index, arc key), each earlier step (-prefix score through the later
    cell, concept index, arc key), as the final sweep and then each
    cell's back pointer choose.  When the total is -inf every step is
    keyed by -inf, leaving the (concept, arc key) order of the decoder's
    degenerate path.
    """
    names = model.dictionary.names
    if len(names) > MAX_ORACLE_CONCEPTS:
        raise ChronusError(f"more than {MAX_ORACLE_CONCEPTS} concepts")
    paths = enumerate_path_arcs(lattice)
    for p in paths:
        if len(p) > MAX_ORACLE_PATH_LEN:
            raise ChronusError(f"path longer than {MAX_ORACLE_PATH_LEN}")

    best = best_key = None
    for path in paths:
        for labels in itertools.product(names, repeat=len(path)):
            if admit is not None and not admit(labels):
                continue
            scores = prefix_scores(model, path, labels)
            score = scores[-1]
            if best is not None and score < best[0]:
                continue
            # per step, the score through the next cell (the total last)
            later = scores[1:] if score > NEG_INF else scores[-1:] * len(path)
            key = tuple((-s, model.dictionary.index(c), a.key())
                        for s, c, a in zip(reversed(later), reversed(labels),
                                           reversed(path)))
            if best is None or key < best_key:
                best, best_key = (score, path, labels), key
    return best


def brute_force_decode(model: ConceptHmm, lattice: Lattice) -> DecodeResult:
    """Exhaustive maximization over paths x labelings; verification oracle."""
    score, path, labels = exhaustive_search(model, lattice)
    words = tuple(a.superword for a in path)
    return DecodeResult(labels=tuple(labels), words=words, log_prob=score,
                        degenerate=(score == NEG_INF))
