"""Dialog context: merging each turn's template into the running context.

Rules, in order:
  (a) a rank-0 concept (flight endpoints) mentioned with a value different
      from the context clears the whole context first;
  (b) otherwise, any keyword re-mentioned with a new value deletes every
      context token of strictly larger hierarchy rank;
  (c) the new tokens are overlaid on what survived; the merged template is
      both the answer basis and the next context, which is itself a
      ``Template``.

The merged template is the context in its own order: a surviving keyword
keeps its place, and a new one goes after them at its first mention in
the template, with the value of its last mention.  So when no keyword of
a template has two values, merging it a second time gives the same
context and the same template.

A keyword absent from the context never triggers (a) or (b); only a real
value change does.
"""

from __future__ import annotations

from .concepts import ConceptDictionary
from .template import Template


def merge_context(context: Template, new: Template,
                  dictionary: ConceptDictionary) -> Template:
    """The merged template, which is also the next turn's context."""
    ctx = {t.keyword: t for t in context.tokens}

    def changed(token):
        old = ctx.get(token.keyword)
        return old is not None and old.value != token.value

    endpoint_change = any(changed(t) and dictionary[t.keyword].rank == 0
                          for t in new.tokens)
    if endpoint_change:
        ctx = {}
    else:
        for t in new.tokens:
            if changed(t):
                rank = dictionary[t.keyword].rank
                ctx = {k: v for k, v in ctx.items()
                       if dictionary[k].rank <= rank}

    for t in new.tokens:
        ctx[t.keyword] = t
    return Template(list(ctx.values()))
