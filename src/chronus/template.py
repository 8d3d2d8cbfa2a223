"""Meaning templates: keyword/value tokens produced from a segmentation.

Each concept has an ordered list of phrase patterns; the first pattern,
in file order, found anywhere inside a segment supplies the token value,
taken at its leftmost match.  So a pattern listed first wins even where a
later one matches further left.  The value table indexes each concept's
patterns by the words their first token can match, keyed by a word's
exact (symbol, value), and matching walks the segment's words once,
looking each word up and trying only the patterns listed under it.
Grammar-typed slots (e.g. ((city))) either match a specific normalized
value or take the value of whatever grammar arc they matched.  Attribute
concepts fold into their restriction counterpart, so ECONOMY under a_fare
yields the same token as under fare.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .concepts import ConceptDictionary
from .errors import ChronusError, DataFormatError
from .lexicon import is_grammar_sym, parse_superword
from .model import SegmentedSentence
from .textfile import read_lines, records

CATEGORIES = ("item", "attribute", "logic", "operator")
TAKE_VALUE = "*"
SECTIONS = {"concept": True}   # a value file: [concept <name>] sections


@dataclass(frozen=True)
class Pattern:
    tokens: tuple       # Superword tokens; grammar slots have value None ("any")
    value: str          # token value, or TAKE_VALUE to copy the matched slot's

    def matches_at(self, segment, i) -> str | None:
        """Value produced if the pattern matches segment words at offset i.

        Only grammar superwords carry values, so a token without one
        matches any word of its symbol, and the first word with a value
        is the first matched slot's."""
        if i + len(self.tokens) > len(segment):
            return None
        slot_value = None
        for p, w in zip(self.tokens, segment[i:]):
            if p.sym != w.sym or p.value is not None and p.value != w.value:
                return None
            if slot_value is None:
                slot_value = w.value
        if self.value == TAKE_VALUE:
            return slot_value
        return self.value


@dataclass(frozen=True)
class TemplateToken:
    keyword: str
    value: str


@dataclass
class Template:
    tokens: list = field(default_factory=list)
    unmatched: int = 0

    @property
    def matched(self) -> int:
        return len(self.tokens)

    def get(self, keyword) -> TemplateToken | None:
        for t in self.tokens:
            if t.keyword == keyword:
                return t
        return None

    def render(self) -> str:
        return " ".join(f"({t.keyword},{t.value})" for t in self.tokens)


class ValueTable:
    """Per-concept ordered pattern lists, held as ``by_word``: per concept,
    each word ``(sym, value)`` that a pattern's first token can match maps
    to the ``(file order, pattern)`` pairs of those patterns, in file order.
    A first token without a value (a wildcard) matches every word of its
    symbol: it is listed under ``(sym, None)`` and under each ``(sym,
    value)`` key of its concept, interleaved with the valued patterns.  A
    valued word with no key of its own reads its symbol's wildcard list.
    Each pattern is checked and indexed as it is added, so the reader
    names the first bad line and the index is built in one pass."""

    def __init__(self, tables):
        self.by_word = {}
        self._added = Counter()   # concept -> patterns added so far
        # (concept, grammar symbol) -> the by_word lists of its valued keys
        self._valued = {}
        for concept, pats in tables.items():
            for p in pats:
                self._add(concept, p)

    def _add(self, concept, p, path=None, ln=None):
        """Index ``p`` after the patterns of ``concept`` added so far.  It
        must not be empty, must have a grammar slot if it takes its slot's
        value, and must not repeat or extend an earlier pattern, which
        would always win over it; such a pattern has the same first token,
        so it is listed under the same key."""
        if not p.tokens:
            raise DataFormatError(f"empty pattern under {concept}", path, ln)
        if p.value == TAKE_VALUE and not any(
                is_grammar_sym(t.sym) for t in p.tokens):
            raise DataFormatError(
                f"{concept}: pattern {_render_tokens(p.tokens)} takes its "
                "slot's value (*) but has no grammar slot", path, ln)
        index = self.by_word.setdefault(concept, {})
        first = p.tokens[0]
        same_first = index.get(first)
        if same_first is None:
            same_first = index[first] = []
            if first.value is not None:   # after its symbol's wildcards
                same_first += index.get((first.sym, None), ())
                self._valued.setdefault((concept, first.sym), []).append(
                    same_first)
        for _, q in same_first:
            if p.tokens == q.tokens:
                raise DataFormatError(
                    f"{concept}: pattern {_render_tokens(p.tokens)} listed "
                    "twice", path, ln)
            if p.tokens[:len(q.tokens)] == q.tokens:
                raise DataFormatError(
                    f"{concept}: pattern {_render_tokens(q.tokens)} listed "
                    f"before the longer {_render_tokens(p.tokens)}", path, ln)
        entry = (self._added[concept], p)
        same_first.append(entry)
        if first.value is None:   # every word of the symbol can start it
            for pats in self._valued.get((concept, first.sym), ()):
                pats.append(entry)
        self._added[concept] += 1

    @classmethod
    def load(cls, path, dictionary: ConceptDictionary):
        return cls.from_lines(read_lines(path), dictionary, path=str(path))

    @classmethod
    def from_lines(cls, lines, dictionary: ConceptDictionary, path=None):
        """Read a value file whose ``[concept c]`` headers each name a
        folded, non-special concept of ``dictionary``: the only ones
        ``generate_template`` looks patterns up under."""
        table = cls({})
        for ln, _, concept, line in records(lines, SECTIONS, path):
            if line is None:
                if concept not in dictionary:
                    raise DataFormatError(f"unknown concept {concept!r}",
                                          path, ln)
                if (c := dictionary[concept]).keyword != concept:
                    raise DataFormatError(
                        f"concept {concept!r} has role {c.role}; segments read "
                        "the patterns of folded, non-special concepts", path, ln)
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError("expected PATTERN<TAB>value<TAB>category",
                                      path, ln)
            words, value, category = parts
            if category not in CATEGORIES:
                raise DataFormatError(f"unknown category {category!r}", path, ln)
            tokens = tuple(parse_superword(w) for w in words.split())
            table._add(concept, Pattern(tokens, value), path, ln)
        return table


def _render_tokens(tokens):
    return " ".join(t.render() for t in tokens)


def generate_template(segmentation: SegmentedSentence, tables: ValueTable,
                      dictionary: ConceptDictionary) -> Template:
    """One token per matched segment, in segment order; dummy/and skipped."""
    template = Template()
    keywords = dictionary.keyword_of
    by_word = tables.by_word
    words = segmentation.words
    for label, start, end in segmentation.segments():
        try:
            keyword = keywords[label]
        except KeyError:
            raise ChronusError(
                f"segment label {label!r} not in dictionary") from None
        if keyword is None:
            continue
        token = _match_segment(keyword, words[start:end],
                               by_word.get(keyword, _NO_PATTERNS))
        if token is None:
            template.unmatched += 1
        else:
            template.tokens.append(token)
    return template


_NO_PATTERNS = {}


def _match_segment(keyword, words, index):
    """The first pattern in file order that matches anywhere in ``words``,
    at its leftmost offset.  One walk over the offsets tries, at each, the
    patterns ``index`` (a concept's ``ValueTable.by_word``) lists under its
    word that come before the best match so far; the first of them to
    match is the best at that offset."""
    best = None
    for i, w in enumerate(words):
        pats = index.get(w)
        if pats is None:   # w[0], w[1]: sym, value, read cheaper by index
            if w[1] is None:
                continue
            # a value no pattern names: its symbol's wildcards
            pats = index.get((w[0], None), ())
        for order, pattern in pats:
            if best is not None and order >= best[0]:
                break
            value = pattern.matches_at(words, i)
            if value is not None:
                best = order, value
                break
    if best is None:
        return None
    return TemplateToken(keyword, best[1])


def should_reject(template: Template, threshold: float) -> bool:
    """Reject when too few decoded concepts matched a value (0/0 rejects)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    if not (template.matched or template.unmatched):
        return True
    return matched_fraction(template) < threshold


def matched_fraction(template: Template) -> float:
    total = template.matched + template.unmatched
    return template.matched / total if total else 0.0
