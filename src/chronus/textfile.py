"""The line syntax shared by every chronus data file.

Blank lines and lines whose first non-blank character is ``#`` carry
nothing.  A line ``[header]`` opens a section; fields are tab-separated.
Errors name the file and line as ``path:line: message``.
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


def records(lines, path=None, magic=None):
    """Yield ``(line number, section header, line)`` for each content line.

    A header line comes as ``(ln, header, None)``, so record-based formats
    can start a new record there; lines before any header carry header
    None.  With ``magic``, the first line must be exactly that text.
    Nothing is collected: the lines stream through.
    """
    lines = iter(lines)
    start = 1
    if magic is not None:
        if next(lines, "").strip() != magic:
            raise DataFormatError(f"missing {magic} header", path, 1)
        start = 2
    header = None
    for ln, raw in enumerate(lines, start):
        line = raw.rstrip("\n")
        text = line.lstrip()
        if not text or text.startswith("#"):
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                raise DataFormatError("unterminated section header", path, ln)
            header = line[1:-1].strip()
            yield ln, header, None
        else:
            yield ln, header, line


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


def section_name(header, kind, path, line):
    """The name in a ``[kind name]`` header, else DataFormatError."""
    word, _, name = header.partition(" ")
    if word != kind or not name.strip():
        raise DataFormatError(f"expected [{kind} <name>]", path, line)
    return name.strip()
