"""Concept inventory: the label set over which conceptual decoding operates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataFormatError
from .textfile import number, records

ROLES = ("question", "subject", "restriction", "attribute", "special")

DUMMY = "dummy"
AND = "and"


@dataclass(frozen=True)
class Concept:
    name: str
    role: str
    rank: int = 9                   # dialog hierarchy; smaller = higher
    counterpart: str | None = None  # for attributes: the concept they fold into
    line: int | None = field(default=None, compare=False)  # in the file read

    @property
    def folded(self) -> str:
        """The concept this one folds into: its counterpart if it is an
        attribute, else itself."""
        return self.counterpart if self.role == "attribute" else self.name


def parse_concept(line, path=None, ln=None) -> Concept:
    """One ``name<TAB>role<TAB>rank[<TAB>counterpart]`` line."""
    parts = line.split("\t")
    if len(parts) not in (3, 4):
        raise DataFormatError("expected name<TAB>role<TAB>rank[<TAB>counterpart]",
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
    different models.  Its reader and the model reader check a repeated
    name at its line.  The checks across concepts run here too, since
    ``index`` and ``fold`` rely on them; errors name ``path`` and the
    concept's ``line``.
    """

    def __init__(self, concepts, path=None):
        self.concepts = tuple(concepts)
        self._index = {}
        for i, c in enumerate(self.concepts):
            if c.name in self._index:
                raise DataFormatError(f"repeated concept {c.name!r}", path, c.line)
            self._index[c.name] = i
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

    def fold(self, name) -> str:
        """Map an attribute concept to the concept it mirrors."""
        return self[name].folded

    def is_special(self, name) -> bool:
        return self[name].role == "special"

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
        concepts, names = [], set()
        for ln, section, line in records(lines, path):
            if line is None:
                raise DataFormatError(f"unknown section [{section}]", path, ln)
            concept = parse_concept(line, path, ln)
            if concept.name in names:
                raise DataFormatError(f"repeated concept {concept.name!r}",
                                      path, ln)
            names.add(concept.name)
            concepts.append(concept)
        return cls(concepts, path)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_lines(fh, path=str(path))
