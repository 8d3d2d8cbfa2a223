"""Meaning templates: keyword/value tokens produced from a segmentation.

Each concept has an ordered list of phrase patterns; the first pattern,
in file order, found anywhere inside a segment supplies the token value,
taken at its leftmost match.  So a pattern listed first wins even where a
later one matches further left.  The value table indexes each concept's
patterns by their first symbol, and matching walks the segment's words
once, trying at each word only the patterns that begin with its symbol.
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
from .textfile import read_lines, records, section_name

CATEGORIES = ("item", "attribute", "logic", "operator")
TAKE_VALUE = "*"


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
    """Per-concept ordered pattern lists, held as ``by_first``: per concept,
    each first symbol maps to the ``(file order, pattern)`` pairs of the
    patterns that begin with it, in file order.  Each pattern is checked as
    it is added, so the reader names the first bad line."""

    def __init__(self, tables):
        self.by_first = {}
        self._added = Counter()   # concept -> patterns added so far
        for concept, pats in tables.items():
            for p in pats:
                self._add(concept, p)

    def _add(self, concept, p, path=None, ln=None):
        """Index ``p`` after the patterns of ``concept`` added so far.  It
        must not be empty, must have a grammar slot if it takes its slot's
        value, and must not repeat or extend an earlier pattern, which
        would always win over it; such a pattern has the same first
        symbol."""
        if not p.tokens:
            raise DataFormatError(f"empty pattern under {concept}", path, ln)
        if p.value == TAKE_VALUE and not any(
                is_grammar_sym(t.sym) for t in p.tokens):
            raise DataFormatError(
                f"{concept}: pattern {_render_tokens(p.tokens)} takes its "
                "slot's value (*) but has no grammar slot", path, ln)
        same_first = self.by_first.setdefault(concept, {}).setdefault(
            p.tokens[0].sym, [])
        for _, q in same_first:
            if p.tokens == q.tokens:
                raise DataFormatError(
                    f"{concept}: pattern {_render_tokens(p.tokens)} listed "
                    "twice", path, ln)
            if p.tokens[:len(q.tokens)] == q.tokens:
                raise DataFormatError(
                    f"{concept}: pattern {_render_tokens(q.tokens)} listed "
                    f"before the longer {_render_tokens(p.tokens)}", path, ln)
        same_first.append((self._added[concept], p))
        self._added[concept] += 1

    @classmethod
    def load(cls, path, dictionary: ConceptDictionary):
        return cls.from_lines(read_lines(path), dictionary, path=str(path))

    @classmethod
    def from_lines(cls, lines, dictionary: ConceptDictionary, path=None):
        """Read a value file whose ``[concept c]`` headers each name a
        folded, non-special concept of ``dictionary``: the only ones
        ``generate_template`` looks patterns up under."""
        table, concept = cls({}), None
        for ln, section, line in records(lines, path):
            if line is None:
                concept = section_name(section, "concept", path, ln)
                if concept not in dictionary:
                    raise DataFormatError(f"unknown concept {concept!r}",
                                          path, ln)
                if (c := dictionary[concept]).keyword != concept:
                    raise DataFormatError(
                        f"concept {concept!r} has role {c.role}; segments read "
                        "the patterns of folded, non-special concepts", path, ln)
                continue
            if concept is None:
                raise DataFormatError("pattern before any [concept] header", path, ln)
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
    for label, start, end in segmentation.segments():
        try:
            concept = dictionary[label]
        except KeyError:
            raise ChronusError(
                f"segment label {label!r} not in dictionary") from None
        keyword = concept.keyword
        if keyword is None:
            continue
        words = segmentation.words[start:end]
        token = _match_segment(keyword, words, tables)
        if token is None:
            template.unmatched += 1
        else:
            template.tokens.append(token)
    return template


def _match_segment(keyword, words, tables):
    """The first pattern in file order that matches anywhere in ``words``,
    at its leftmost offset.  One walk over the offsets tries, at each, the
    patterns indexed under its word's symbol that come before the best
    match so far; the first of them to match is the best at that offset."""
    index = tables.by_first.get(keyword, {})
    best = None
    for i, w in enumerate(words):
        for order, pattern in index.get(w.sym, ()):
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
    total = template.matched + template.unmatched
    if total == 0:
        return True
    return template.matched / total < threshold


def matched_fraction(template: Template) -> float:
    total = template.matched + template.unmatched
    return template.matched / total if total else 0.0
