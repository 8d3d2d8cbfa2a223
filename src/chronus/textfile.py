"""The line syntax shared by every chronus data file.

Blank lines and lines whose first non-blank character is ``#`` carry
nothing.  A line ``[kind]`` or ``[kind name]`` opens a section of a kind
the format names (see ``records``); fields are tab-separated.  Errors name
the file and line as ``path:line: message``.
"""

from __future__ import annotations

import math

from .errors import DataFormatError


def read_text(path):
    """The text of the UTF-8 file at ``path``; bytes that are not UTF-8
    are a DataFormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text ({exc.reason})",
                              str(path)) from None


def read_lines(path):
    """The lines of the UTF-8 file at ``path``, split at newlines only, as
    iterating the open file splits them, so ``records`` numbers them
    alike; ``splitlines()`` would also split at form feeds and Unicode
    line breaks, inside a field."""
    return read_text(path).split("\n")


def records(lines, sections, path=None, magic=None):
    """Yield ``(line number, kind, name, line)`` for each content line.

    ``sections`` maps each header kind of the format to whether it takes
    a name, one word without spaces: ``[kind name]``, else ``[kind]``.  The
    key None lets lines come before the first header, with kind and name
    None.  Any other header, a missing or extra name, and a line outside
    a section are DataFormatErrors at their line.  A header comes as
    ``(ln, kind, name, None)``, so record-based formats can start a new
    record there.  With ``magic``, the first line must be exactly that
    text.  Nothing is collected: the lines stream through.
    """
    lines = iter(lines)
    start = 1
    if magic is not None:
        if next(lines, "").strip() != magic:
            raise DataFormatError(f"missing {magic} header", path, 1)
        start = 2
    kind = name = None
    before = None in sections   # lines may come before the first header
    for ln, raw in enumerate(lines, start):
        line = raw.rstrip("\n")
        text = line.lstrip()
        if not text or text.startswith("#"):
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                raise DataFormatError("unterminated section header", path, ln)
            header = line[1:-1].strip()
            kind, _, name = header.partition(" ")   # not at \x0c or U+2028
            name = name.strip() or None
            named = sections.get(kind)
            if named is None or (name is not None and not named):
                raise DataFormatError(f"unknown section [{header}]", path, ln)
            if named and (name is None or " " in name):
                raise DataFormatError(f"expected [{kind} <name>]", path, ln)
            yield ln, kind, name, None
        elif kind is None and not before:
            raise DataFormatError("line before any section header", path, ln)
        else:
            yield ln, kind, name, line


def number(kind, text, what, path, line, lo=None, hi=None):
    """``kind(text)``, checked to lie in [lo, hi] when bounds are given and
    to be finite; a bad value raises DataFormatError naming path and
    line."""
    try:
        value = kind(text)
    except ValueError:
        raise DataFormatError(f"{what} {text!r} is not a number",
                              path, line) from None
    if lo is not None and not lo <= value <= hi:
        raise DataFormatError(f"{what} {text} is not in [{lo}, {hi}]",
                              path, line)
    if value == math.inf:   # within [lo, inf], yet no number to compute with
        raise DataFormatError(f"{what} {text} is not finite", path, line)
    return value

