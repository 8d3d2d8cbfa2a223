"""chronus: concept-decoding language understanding over a toy flight db.

A sentence is lexically parsed into a superword lattice, decoded into a
conceptual segmentation by a concept-level hidden Markov model, turned
into a keyword/value meaning template, merged with the dialog context and
answered against a small in-memory database.
"""

__version__ = "0.1.0"
