"""Surface-to-superword lexical analysis.

Turns a raw sentence into a lattice of superwords: plain words, inflection
groups (AIRFARES -> AIRFARE(S)) and finite-state grammar matches such as
((number)37).  Articles are deleted up front, so they never reach the
statistical models downstream, and out-of-vocabulary words are mapped to a
reserved unknown marker instead of failing.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple

from .errors import ChronusError, DataFormatError
from .textfile import read_lines, records

UNKNOWN = "<UNK>"

_TOKEN_RE = re.compile(r"[A-Z0-9']+")
_SUPERWORD_RE = re.compile(r"^\(\((\w[\w-]*)\)(.*)\)$")


def tokenize(sentence: str):
    """Uppercase and split on whitespace, stripping punctuation except apostrophes."""
    return _TOKEN_RE.findall(sentence.upper())


class Superword(NamedTuple):
    """A lexical unit: either a word/inflection-group symbol or a grammar match.

    For grammar matches ``sym`` is the bracketed grammar identifier
    (e.g. ``((number))``) and ``value`` the normalized form (e.g. ``37``);
    other superwords carry no value.  The stochastic model only ever sees
    ``sym``.  A named tuple: as cheap to build as a tuple, and compared,
    ordered and hashed as its fields.
    """

    sym: str
    value: str | None = None

    def render(self) -> str:
        if self.value is None:
            return self.sym
        return f"{self.sym[:-1]}{self.value})"


def parse_superword(text: str) -> Superword:
    """Inverse of Superword.render: ((city)BOSTON) -> sym ((city)), value BOSTON."""
    m = _SUPERWORD_RE.match(text)
    if m:
        gid, value = m.group(1), m.group(2)
        return Superword(f"(({gid}))", value or None)
    return Superword(text)


def is_grammar_sym(sym: str) -> bool:
    """Whether ``sym`` is the symbol of a grammar superword, ((gid))."""
    m = _SUPERWORD_RE.match(sym)
    return m is not None and not m.group(2)


class Arc(NamedTuple):
    """A superword spanning token positions ``start`` to ``end``; a named
    tuple, like ``Superword``."""

    start: int
    end: int
    sym: str
    value: str | None = None

    @property
    def superword(self) -> Superword:
        return Superword(self.sym, self.value)

    def key(self):
        return (self.start, self.end, self.sym, self.value or "")


_SPAN_SYM = itemgetter(0, 1, 2)   # an arc's (start, end, sym)


class Lattice:
    """DAG of superword arcs over token positions 0..n_positions, with
    ``arcs`` sorted by ``Arc.key`` (start-major), the one arc order.  No two
    arcs share ``(start, end, sym)``, so sorting on that triple alone gives
    the order.

    ``incoming`` maps each position that a path from 0 reaches, other
    than 0, to the ids (indices into ``arcs``, in arc-key order) of the
    arcs that end there and start at 0 or at a reached position; the
    lattice is complete exactly when the end position is among its keys.
    """

    def __init__(self, n_positions: int, arcs):
        arcs = tuple(sorted(arcs, key=_SPAN_SYM))
        if n_positions < 1:
            raise ChronusError("lattice needs at least one token position")
        last = None   # sorted, so a repeated triple follows its first
        incoming = {}
        for i, a in enumerate(arcs):  # start-major: a single pass suffices
            start, end, sym, _ = a
            if not (0 <= start < end <= n_positions):
                raise ChronusError(f"arc {a} out of bounds for n={n_positions}")
            if (start, end, sym) == last:
                raise ChronusError(f"duplicate arc {last}")
            last = start, end, sym
            if start == 0 or start in incoming:
                incoming.setdefault(end, []).append(i)
        if n_positions not in incoming:
            raise ChronusError("no complete path from position 0 to the end")
        self.n_positions = n_positions
        self.arcs = arcs
        self.incoming = incoming


# ---------------------------------------------------------------------------
# Normalizers

_UNITS = {"ONE": 1, "TWO": 2, "THREE": 3, "FOUR": 4, "FIVE": 5,
          "SIX": 6, "SEVEN": 7, "EIGHT": 8, "NINE": 9}
_TEENS = {"TEN": 10, "ELEVEN": 11, "TWELVE": 12, "THIRTEEN": 13,
          "FOURTEEN": 14, "FIFTEEN": 15, "SIXTEEN": 16, "SEVENTEEN": 17,
          "EIGHTEEN": 18, "NINETEEN": 19}
_TENS = {"TWENTY": 20, "THIRTY": 30, "FORTY": 40, "FIFTY": 50,
         "SIXTY": 60, "SEVENTY": 70, "EIGHTY": 80, "NINETY": 90}
_NUMBER_WORDS = set(_UNITS) | set(_TEENS) | set(_TENS) | {"HUNDRED", "THOUSAND"}


def compound_number_value(words) -> int | None:
    """Value of a compound numeral (THIRTY SEVEN -> 37), or None if invalid."""
    total, i, n = 0, 0, len(words)
    if i + 1 < n and words[i] in _UNITS and words[i + 1] == "THOUSAND":
        total += _UNITS[words[i]] * 1000
        i += 2
    if i + 1 < n and words[i] in _UNITS and words[i + 1] == "HUNDRED":
        total += _UNITS[words[i]] * 100
        i += 2
    if i < n:
        w = words[i]
        if w in _TEENS:
            total += _TEENS[w]
            i += 1
        elif w in _TENS:
            total += _TENS[w]
            i += 1
            if i < n and words[i] in _UNITS:
                total += _UNITS[words[i]]
                i += 1
        elif w in _UNITS:
            total += _UNITS[w]
            i += 1
    return total if i == n and total > 0 else None


def _normalize_digits(words) -> str:
    """Render numeral groups as digits, pass everything else through.

    D C TEN -> DC10; THIRTY SEVEN -> 37.  Numeral runs are consumed
    greedily, longest compound first.
    """
    out, i, n = [], 0, len(words)
    while i < n:
        if words[i] in _NUMBER_WORDS:
            for j in range(n, i, -1):
                value = compound_number_value(words[i:j])
                if value is not None:
                    out.append(str(value))
                    i = j
                    break
            else:
                out.append(words[i])
                i += 1
        else:
            out.append(words[i])
            i += 1
    return "".join(out)


NORMALIZERS = {
    "identity": lambda words: " ".join(words),
    "join": lambda words: "".join(words),
    "digits": _normalize_digits,
}


# ---------------------------------------------------------------------------
# FSA grammars

class FsaGrammar:
    """Finite-state acceptor over surface words plus a value normalizer.

    Transitions may be nondeterministic as written; the acceptor is
    determinized by subset construction at load time, so matching is
    linear in input length.  ``start_words`` holds the words that can
    begin a match, the keys of the determinized start state's row.
    """

    START = "0"

    def __init__(self, gid, transitions, accepting, normalizer="identity", line=None):
        if normalizer not in NORMALIZERS:
            raise ChronusError(f"grammar {gid}: unknown normalizer {normalizer!r}")
        self.gid = gid
        self.line = line   # of the [grammar] header it was read from
        self.normalizer = normalizer
        self.words = {w for (_, w) in transitions}
        nfa = {}
        for (state, word), targets in transitions.items():
            nfa.setdefault(state, {}).setdefault(word, set()).update(targets)
        accepting = set(accepting)
        # subset construction
        start = frozenset({self.START})
        self._dfa = {}
        self._accept = set()
        stack = [start]
        seen = {start}
        while stack:
            cur = stack.pop()
            if cur & accepting:
                self._accept.add(cur)
            row = {}
            words_here = set()
            for s in cur:
                words_here.update(nfa.get(s, ()))
            for w in words_here:
                nxt = frozenset(t for s in cur for t in nfa.get(s, {}).get(w, ()))
                row[w] = nxt
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
            self._dfa[cur] = row
        self._start = start
        self.start_words = frozenset(self._dfa[start])

    def match_ends(self, tokens, start_idx):
        """End indices (exclusive) of all accepted prefixes starting at start_idx."""
        ends = []
        state = self._start
        for i in range(start_idx, len(tokens)):
            state = self._dfa.get(state, {}).get(tokens[i])
            if state is None:
                break
            if state in self._accept:
                ends.append(i + 1)
        return ends

    def normalize(self, words) -> str:
        return NORMALIZERS[self.normalizer](list(words))


# ---------------------------------------------------------------------------
# Lexicon

class SuperwordLexicon:
    """Plain words, inflection groups, stop words and grammars.

    The reader checks each surface word and each grammar id at its line.
    The checks across grammars run here too, since ``lex_parse`` relies on
    them (``[stop]`` may follow the grammars); errors name ``path`` and the
    grammar's ``line``."""

    def __init__(self, words, inflect, stop, grammars, path=None):
        self.words = frozenset(words)
        self.inflect = dict(inflect)
        self.stop = frozenset(stop)
        self.grammars = list(grammars)
        self._validate(path)

    def _validate(self, path):
        for surface in self.inflect:
            _check_surface(surface, self.words, path)
        if UNKNOWN in self.words:
            _check_surface(UNKNOWN, (), path)
        gids = set()
        for g in self.grammars:
            if g.gid in gids:
                raise DataFormatError(f"duplicate grammar id {g.gid}", path, g.line)
            gids.add(g.gid)
            overlap = g.words & self.stop
            if overlap:
                raise DataFormatError(
                    f"stop words {sorted(overlap)} appear in grammar {g.gid}",
                    path, g.line)

    def word_sym(self, token: str) -> str:
        if token in self.inflect:
            return self.inflect[token]
        if token in self.words:
            return token
        return UNKNOWN

    @property
    def superwords(self):
        """All model-visible symbols this lexicon can emit (incl. unknown)."""
        syms = set(self.words)
        syms.update(self.inflect.values())
        syms.update(f"(({g.gid}))" for g in self.grammars)
        syms.add(UNKNOWN)
        return syms

    @classmethod
    def load(cls, path):
        return cls.from_lines(read_lines(path), path=str(path))

    @classmethod
    def from_lines(cls, lines, path=None):
        words, inflect, stop = set(), {}, set()
        grammars = []   # FsaGrammar arguments, one dict per [grammar] section
        for ln, section, line in records(lines, path):
            if line is None:
                if section in ("words", "inflect", "stop"):
                    continue
                if not section.startswith("grammar"):
                    raise DataFormatError(f"unknown section [{section}]", path, ln)
                parts = section.split()
                if len(parts) != 2:
                    raise DataFormatError("expected [grammar <id>]", path, ln)
                if any(g["gid"] == parts[1] for g in grammars):
                    raise DataFormatError(f"duplicate grammar id {parts[1]}",
                                          path, ln)
                grammars.append({"gid": parts[1], "transitions": {},
                                 "accepting": set(), "line": ln})
            elif section == "words":
                for word in line.split():
                    _check_surface(word, inflect, path, ln)
                    words.add(word)
            elif section == "inflect":
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataFormatError("expected SURFACE<TAB>SUPERWORD", path, ln)
                if parts[0] in inflect and inflect[parts[0]] != parts[1]:
                    raise DataFormatError(f"{parts[0]} in two inflection groups", path, ln)
                _check_surface(parts[0], words, path, ln)
                inflect[parts[0]] = parts[1]
            elif section == "stop":
                stop.update(line.split())
            elif section is not None:
                grammar = grammars[-1]
                parts = line.split("\t")
                if parts[0] == "accept" and len(parts) == 2:
                    grammar["accepting"].add(parts[1])
                elif parts[0] == "normalize" and len(parts) == 2:
                    if "normalizer" in grammar:
                        raise DataFormatError(f"grammar {grammar['gid']}: "
                                              "normalize given twice", path, ln)
                    if parts[1] not in NORMALIZERS:
                        raise DataFormatError(
                            f"grammar {grammar['gid']}: unknown normalizer "
                            f"{parts[1]!r}", path, ln)
                    grammar["normalizer"] = parts[1]
                elif len(parts) == 3:
                    grammar["transitions"].setdefault(
                        (parts[0], parts[1]), set()).add(parts[2])
                else:
                    raise DataFormatError("bad grammar line", path, ln)
            else:
                raise DataFormatError("content before first section header", path, ln)
        return cls(words, inflect, stop, [FsaGrammar(**g) for g in grammars],
                   path)


def _check_surface(surface, other_kind, path, ln=None):
    """``surface`` is not the unknown marker, nor in ``other_kind``, the
    surface words of the other kind (plain or inflected)."""
    if surface == UNKNOWN:
        raise DataFormatError("unknown marker must not be a surface word",
                              path, ln)
    if surface in other_kind:
        raise DataFormatError(
            f"{surface} is both a plain word and an inflection-group member",
            path, ln)


def lex_parse(sentence: str, lexicon: SuperwordLexicon) -> Lattice:
    """Parse a raw sentence into a superword lattice.

    Stop words are deleted, inflection groups collapse to their canonical
    superword, every maximal grammar match becomes a parallel arc carrying
    its normalized value, and anything left over becomes a plain-word or
    unknown-marker arc.
    """
    tokens = tokenize(sentence)
    if not tokens:
        raise ChronusError("sentence is empty after tokenization")
    kept = [t for t in tokens if t not in lexicon.stop]
    if not kept:
        raise ChronusError("all tokens are stop words")

    arcs = [Arc(i, i + 1, lexicon.word_sym(tok)) for i, tok in enumerate(kept)]
    for grammar in lexicon.grammars:
        # keep only maximal matches (not strictly contained in another match
        # of the same grammar).  In (start, -end) order a match is contained
        # exactly when an earlier one reaches at least its end; match_ends
        # ascends, so at each start only the longest match can be maximal.
        # A match can only start at one of the grammar's start words.
        reach = 0
        start_words = grammar.start_words
        for s, tok in enumerate(kept):
            if tok not in start_words:
                continue
            ends = grammar.match_ends(kept, s)
            if ends and ends[-1] > reach:
                e = reach = ends[-1]
                arcs.append(Arc(s, e, f"(({grammar.gid}))",
                                grammar.normalize(kept[s:e])))
    return Lattice(len(kept), arcs)


def enumerate_path_arcs(lattice: Lattice):
    """All complete paths as arc tuples, lexicographic by the arc keys of
    their arcs (the lattice's one arc order)."""
    by_start = {}
    for a in lattice.arcs:
        by_start.setdefault(a.start, []).append(a)
    paths = []

    def walk(pos, prefix):
        if pos == lattice.n_positions:
            paths.append(tuple(prefix))
            return
        for a in by_start.get(pos, ()):
            walk(a.end, prefix + [a])

    walk(0, [])
    return paths
