"""Concept inventory: the label set over which conceptual decoding operates."""

from __future__ import annotations

import math
from itertools import groupby
from dataclasses import dataclass, field

from .errors import DataFormatError
from .textfile import number, read_lines, records

ROLES = ("question", "subject", "restriction", "attribute", "special")

DUMMY = "dummy"
AND = "and"
SECTIONS = {None: False}   # a concepts file has no headers


@dataclass(frozen=True)
class Concept:
    name: str
    role: str
    rank: int = 9                   # dialog hierarchy; smaller = higher
    counterpart: str | None = None  # for attributes: the concept they fold into
    line: int | None = field(default=None, compare=False)  # in the file read

    @property
    def keyword(self) -> str | None:
        """The template keyword a segment of this concept reports: None for
        a special concept, the counterpart for an attribute, else the
        concept's own name."""
        if self.role == "special":
            return None
        return self.counterpart if self.role == "attribute" else self.name


def parse_concept(line, path=None, ln=None) -> Concept:
    """One ``name<TAB>role<TAB>rank[<TAB>counterpart]`` line."""
    parts = line.split("\t")
    if len(parts) not in (3, 4):
        raise DataFormatError("expected name<TAB>role<TAB>rank[<TAB>counterpart]",
                              path, ln)
    if parts[0].split() != [parts[0]]:   # a model's [bigram <name>] holds it
        raise DataFormatError(f"concept name {parts[0]!r} is not one word",
                              path, ln)
    if parts[1] not in ROLES:
        raise DataFormatError(f"unknown role {parts[1]!r} for concept {parts[0]}",
                              path, ln)
    rank = number(int, parts[2], "rank", path, ln, 0, math.inf)
    return Concept(parts[0], parts[1], rank, parts[3] if len(parts) == 4 else None, ln)


class ConceptDictionary:
    """Ordered, validated concept set.

    Order is significant: the decoder breaks score ties by concept index,
    so two dictionaries with the same concepts in different order are
    different models.  A repeated name is refused as the concepts arrive,
    so a reader that yields them as it reads names the first repeat.  The
    checks across concepts run once all have arrived, since ``index`` and
    ``Concept.keyword`` rely on them; errors name ``path`` and the
    concept's ``line``.
    """

    def __init__(self, concepts, path=None):
        kept, self._index = [], {}
        for c in concepts:
            if c.name in self._index:
                raise DataFormatError(f"repeated concept {c.name!r}", path, c.line)
            self._index[c.name] = len(kept)
            kept.append(c)
        self.concepts = tuple(kept)
        for c in self.concepts:
            if c.role != "attribute":
                continue
            if c.counterpart not in self._index:
                raise DataFormatError(
                    f"attribute concept {c.name} has no valid counterpart",
                    path, c.line)
            if self[c.counterpart].role in ("attribute", "special"):
                raise DataFormatError(
                    f"attribute {c.name} folds into non-foldable "
                    f"{c.counterpart}", path, c.line)
        for special in (DUMMY, AND):
            if special not in self._index or self[special].role != "special":
                raise DataFormatError(
                    f"dictionary must define special concept {special!r}", path)
        # name -> Concept.keyword, for the per-segment lookups of templates
        # and the win keyword checks of constrained alignment
        self.keyword_of = {c.name: c.keyword for c in self.concepts}

    @property
    def names(self):
        return [c.name for c in self.concepts]

    def __len__(self):
        return len(self.concepts)

    def __contains__(self, name):
        return name in self._index

    def __iter__(self):
        return iter(self.concepts)

    def __getitem__(self, name) -> Concept:
        return self.concepts[self._index[name]]

    def index(self, name) -> int:
        return self._index[name]

    def keywords(self, labels) -> list:
        """The keyword of each segment of a per-word labeling, in order;
        special segments report none."""
        return [kw for label, _ in groupby(labels)
                if (kw := self[label].keyword) is not None]

    def to_lines(self):
        lines = []
        for c in self.concepts:
            parts = [c.name, c.role, str(c.rank)]
            if c.counterpart is not None:
                parts.append(c.counterpart)
            lines.append("\t".join(parts))
        return lines

    @classmethod
    def from_lines(cls, lines, path=None):
        return cls((parse_concept(line, path, ln) for ln, _, _, line
                    in records(lines, SECTIONS, path)), path)

    @classmethod
    def load(cls, path):
        return cls.from_lines(read_lines(path), path=str(path))
