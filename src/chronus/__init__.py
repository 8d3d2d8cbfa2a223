"""chronus: concept-decoding language understanding over a toy flight db.

A sentence is lexically parsed into a superword lattice, decoded into a
conceptual segmentation by a concept-level hidden Markov model, turned
into a keyword/value meaning template, merged with the dialog context and
answered against a small in-memory database.
"""

from .concepts import Concept, ConceptDictionary
from .decoder import (DecodeResult, brute_force_decode, viterbi_decode,
                      viterbi_decode_lattice)
from .dialog import merge_context
from .errors import ChronusError, DataFormatError
from .lexicon import (Arc, Lattice, Superword, SuperwordLexicon, lex_parse,
                      parse_superword, tokenize)
from .model import (ConceptHmm, SegmentedSentence, apply_synonym_smoothing,
                    count_events, load_model, save_model, train_mle)
from .pipeline import (Artifacts, TurnResult, answer, run_turn, understand,
                       verdict)
from .query import (Answer, Conventions, MiniDb, QueryPlan, execute,
                    plan_query, score_answer)
from .template import (Template, ValueTable, generate_template,
                       matched_fraction, should_reject)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
