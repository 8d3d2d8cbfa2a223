#!/usr/bin/env python3
"""Regenerate the bundled demo corpora (demo/seed/semi) from compact specs.

Reference answers are computed by executing each sentence's gold template
against the bundled database, then frozen into the corpus files.  Run from
the repository root:  python tools/build_corpora.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from chronus.model import SegmentedSentence
from chronus.pipeline import Artifacts, answer
from chronus.query import Answer
from chronus.template import generate_template
from chronus.training import FeedbackCorpus, FeedbackEntry

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "chronus", "data")


def gold(spec: str) -> SegmentedSentence:
    return SegmentedSentence.parse("\t".join(spec.split()))


# (id, text, gold spec); gold tokens are post-lexical (stop words removed,
# inflections collapsed, grammar spans fused)
DEMO = [
    ("d01", "SHOW ME THE FLIGHTS FROM BOSTON TO DALLAS",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d02", "SHOW ME THE FLIGHTS TO BOSTON",
     "SHOW:question ME:question FLIGHT(S):subject TO:destin ((city)BOSTON):destin"),
    ("d03", "LIST THE FLIGHTS FROM ATLANTA TO BOSTON",
     "LIST:question FLIGHT(S):subject FROM:origin ((city)ATLANTA):origin TO:destin ((city)BOSTON):destin"),
    ("d04", "GIVE ME THE FLIGHTS FROM DENVER TO SAN FRANCISCO",
     "GIVE:question ME:question FLIGHT(S):subject FROM:origin ((city)DENVER):origin TO:destin ((city)SANFRANCISCO):destin"),
    ("d05", "WHAT ARE THE FLIGHTS FROM WASHINGTON TO PHILADELPHIA",
     "WHAT:question ARE:question FLIGHT(S):subject FROM:origin ((city)WASHINGTON):origin TO:destin ((city)PHILADELPHIA):destin"),
    ("d06", "TELL ME THE FLIGHTS FROM PITTSBURGH TO OAKLAND",
     "TELL:question ME:question FLIGHT(S):subject FROM:origin ((city)PITTSBURGH):origin TO:destin ((city)OAKLAND):destin"),
    ("d07", "SHOW ME ALL FLIGHTS FROM BALTIMORE TO DALLAS",
     "SHOW:question ME:question ALL:question FLIGHT(S):subject FROM:origin ((city)BALTIMORE):origin TO:destin ((city)DALLAS):destin"),
    ("d08", "LIST THE FLIGHTS FROM BOSTON",
     "LIST:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin"),
    ("d09", "WHAT ARE THE FLIGHTS TO DALLAS",
     "WHAT:question ARE:question FLIGHT(S):subject TO:destin ((city)DALLAS):destin"),
    ("d10", "I WOULD LIKE TO SEE THE FLIGHTS FROM PHILADELPHIA TO WASHINGTON",
     "I:dummy WOULD:dummy LIKE:dummy TO:dummy SEE:dummy FLIGHT(S):subject FROM:origin ((city)PHILADELPHIA):origin TO:destin ((city)WASHINGTON):destin"),
    ("d11", "SHOW ME THE MORNING FLIGHTS FROM BOSTON",
     "SHOW:question ME:question MORNING:a_time FLIGHT(S):subject FROM:origin ((city)BOSTON):origin"),
    ("d12", "LIST THE EVENING FLIGHTS FROM DENVER",
     "LIST:question EVENING:a_time FLIGHT(S):subject FROM:origin ((city)DENVER):origin"),
    ("d13", "SHOW ME THE FLIGHTS FROM BOSTON IN THE MORNING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin IN:depart-time MORNING:depart-time"),
    ("d14", "WHAT ARE THE AFTERNOON FLIGHTS FROM BALTIMORE",
     "WHAT:question ARE:question AFTERNOON:a_time FLIGHT(S):subject FROM:origin ((city)BALTIMORE):origin"),
    ("d15", "SHOW ME THE LATE EVENING FLIGHTS FROM PHILADELPHIA",
     "SHOW:question ME:question LATE:a_time EVENING:a_time FLIGHT(S):subject FROM:origin ((city)PHILADELPHIA):origin"),
    ("d16", "LIST THE EARLY FLIGHTS FROM SAN FRANCISCO",
     "LIST:question EARLY:a_time FLIGHT(S):subject FROM:origin ((city)SANFRANCISCO):origin"),
    ("d17", "SHOW ME THE FLIGHTS ON AMERICAN AIRLINES",
     "SHOW:question ME:question FLIGHT(S):subject ON:airline AMERICAN:airline AIRLINES:airline"),
    ("d18", "LIST THE FLIGHTS ON UNITED",
     "LIST:question FLIGHT(S):subject ON:airline UNITED:airline"),
    ("d19", "WHAT ARE THE FLIGHTS ON DELTA",
     "WHAT:question ARE:question FLIGHT(S):subject ON:airline DELTA:airline"),
    ("d20", "SHOW ME THE FLIGHTS FROM BOSTON ON AMERICAN",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin ON:airline AMERICAN:airline"),
    ("d21", "WHICH FLIGHTS GO FROM WASHINGTON TO PHILADELPHIA ON CONTINENTAL",
     "WHICH:question FLIGHT(S):subject GO:dummy FROM:origin ((city)WASHINGTON):origin TO:destin ((city)PHILADELPHIA):destin ON:airline CONTINENTAL:airline"),
    ("d22", "HOW MUCH IS THE PRICE OF THE FLIGHT FROM ATLANTA",
     "HOW:question MUCH:question IS:question PRICE:subject OF:subject FLIGHT(S):subject FROM:origin ((city)ATLANTA):origin"),
    ("d23", "WHAT ARE THE FARES FROM BOSTON TO DALLAS",
     "WHAT:question ARE:question FARE(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d24", "SHOW ME THE ECONOMY FARES FROM BOSTON TO DALLAS",
     "SHOW:question ME:question ECONOMY:a_fare FARE(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d25", "WHAT IS THE FIRST CLASS FARE FROM BOSTON TO DALLAS",
     "WHAT:question IS:question FIRST:a_fare CLASS:a_fare FARE(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d26", "WHAT TYPE OF ECONOMY FARE COULD I GET FROM SAN FRANCISCO TO DENVER",
     "WHAT:q_attr TYPE:q_attr OF:q_attr ECONOMY:a_fare FARE(S):subject COULD:question I:question GET:question FROM:origin ((city)SANFRANCISCO):origin TO:destin ((city)DENVER):destin"),
    ("d27", "SHOW ME THE CHEAPEST FARE FROM BOSTON TO DALLAS",
     "SHOW:question ME:question CHEAPEST:operator FARE(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d28", "WHAT IS THE CHEAPEST FARE FROM ATLANTA TO BOSTON",
     "WHAT:question IS:question CHEAPEST:operator FARE(S):subject FROM:origin ((city)ATLANTA):origin TO:destin ((city)BOSTON):destin"),
    ("d29", "SHOW ME THE EARLIEST FLIGHT FROM BOSTON TO DALLAS",
     "SHOW:question ME:question EARLIEST:operator FLIGHT(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d30", "LIST THE LATEST FLIGHT FROM BOSTON",
     "LIST:question LATEST:operator FLIGHT(S):subject FROM:origin ((city)BOSTON):origin"),
    ("d31", "WHAT IS THE MOST EXPENSIVE FARE FROM BALTIMORE TO DALLAS",
     "WHAT:question IS:question MOST:operator EXPENSIVE:operator FARE(S):subject FROM:origin ((city)BALTIMORE):origin TO:destin ((city)DALLAS):destin"),
    ("d32", "HOW MUCH IS THE ECONOMY FARE FROM PHILADELPHIA TO WASHINGTON",
     "HOW:question MUCH:question IS:question ECONOMY:a_fare FARE(S):subject FROM:origin ((city)PHILADELPHIA):origin TO:destin ((city)WASHINGTON):destin"),
    ("d33", "IS BREAKFAST SERVED ON THE FLIGHT",
     "IS:question BREAKFAST:subject SERVED:dummy ON:dummy FLIGHT(S):dummy"),
    ("d34", "IS DINNER SERVED ON THE FLIGHT FROM BOSTON TO ATLANTA",
     "IS:question DINNER:subject SERVED:dummy ON:dummy FLIGHT(S):dummy FROM:origin ((city)BOSTON):origin TO:destin ((city)ATLANTA):destin"),
    ("d35", "IS LUNCH SERVED ON THE FLIGHT FROM WASHINGTON TO PHILADELPHIA",
     "IS:question LUNCH:subject SERVED:dummy ON:dummy FLIGHT(S):dummy FROM:origin ((city)WASHINGTON):origin TO:destin ((city)PHILADELPHIA):destin"),
    ("d36", "WHAT MEALS ARE SERVED ON THE FLIGHT FROM PITTSBURGH TO OAKLAND",
     "WHAT:question MEAL(S):subject ARE:dummy SERVED:dummy ON:dummy FLIGHT(S):dummy FROM:origin ((city)PITTSBURGH):origin TO:destin ((city)OAKLAND):destin"),
    ("d37", "SHOW ME THE DINNER FLIGHTS FROM DENVER",
     "SHOW:question ME:question DINNER:meal FLIGHT(S):subject FROM:origin ((city)DENVER):origin"),
    ("d38", "SHOW ME THE BREAKFAST FLIGHTS FROM WASHINGTON",
     "SHOW:question ME:question BREAKFAST:meal FLIGHT(S):subject FROM:origin ((city)WASHINGTON):origin"),
    ("d39", "WHAT IS THE AIRCRAFT ON THE FLIGHT FROM DENVER TO SAN FRANCISCO",
     "WHAT:question IS:question AIRCRAFT:subject ON:dummy FLIGHT(S):dummy FROM:origin ((city)DENVER):origin TO:destin ((city)SANFRANCISCO):destin"),
    ("d40", "SHOW ME THE D C TEN FLIGHTS FROM BOSTON",
     "SHOW:question ME:question ((aircraft)DC10):aircraft FLIGHT(S):subject FROM:origin ((city)BOSTON):origin"),
    ("d41", "LIST THE B SEVEN FORTY SEVEN FLIGHTS FROM PITTSBURGH",
     "LIST:question ((aircraft)B747):aircraft FLIGHT(S):subject FROM:origin ((city)PITTSBURGH):origin"),
    ("d42", "WHAT IS THE AIRCRAFT ON THE FLIGHT FROM BALTIMORE TO DALLAS",
     "WHAT:question IS:question AIRCRAFT:subject ON:dummy FLIGHT(S):dummy FROM:origin ((city)BALTIMORE):origin TO:destin ((city)DALLAS):destin"),
    ("d43", "IS THERE A FLIGHT FROM OAKLAND",
     "IS:question THERE:question FLIGHT(S):subject FROM:origin ((city)OAKLAND):origin"),
    ("d44", "IS THERE A FLIGHT FROM BOSTON TO DALLAS",
     "IS:question THERE:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d45", "DOES DELTA FLY FROM ATLANTA TO BOSTON",
     "DOES:question DELTA:airline FLY:dummy FROM:origin ((city)ATLANTA):origin TO:destin ((city)BOSTON):destin"),
    ("d46", "DOES UNITED FLY FROM BOSTON TO DALLAS",
     "DOES:question UNITED:airline FLY:dummy FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin"),
    ("d47", "WHICH FLIGHTS DEPART FROM BOSTON IN THE MORNING",
     "WHICH:question FLIGHT(S):subject DEPART(S):origin FROM:origin ((city)BOSTON):origin IN:depart-time MORNING:depart-time"),
    ("d48", "WHICH FLIGHTS LEAVE FROM DENVER IN THE EVENING",
     "WHICH:question FLIGHT(S):subject LEAVE(S):origin FROM:origin ((city)DENVER):origin IN:depart-time EVENING:depart-time"),
    ("d49", "SHOW ME THE FLIGHTS FROM WASHINGTON D C TO PHILADELPHIA",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)WASHINGTONDC):origin TO:destin ((city)PHILADELPHIA):destin"),
    ("d50", "GIVE ME THE ECONOMY FARES FROM DALLAS TO BOSTON",
     "GIVE:question ME:question ECONOMY:a_fare FARE(S):subject FROM:origin ((city)DALLAS):origin TO:destin ((city)BOSTON):destin"),
]

# extra hand-labeled training sentences (no reference answers)
SEED_EXTRA = [
    ("x01",
     "COULD YOU PLEASE GIVE ME INFORMATION CONCERNING AMERICAN AIRLINES "
     "A FLIGHT FROM WASHINGTON D C TO PHILADELPHIA THE EARLIEST ONE "
     "IN THE MORNING AS POSSIBLE",
     "COULD:question YOU:question PLEASE:question GIVE:dummy ME:dummy "
     "INFORMATION:dummy CONCERNING:dummy AMERICAN:airline AIRLINES:airline "
     "FLIGHT(S):subject FROM:origin ((city)WASHINGTONDC):origin "
     "TO:destin ((city)PHILADELPHIA):destin EARLIEST:operator ONE:dummy "
     "IN:depart-time MORNING:depart-time AS:dummy POSSIBLE:dummy",
     "List earliest morning flights from Washington and to Philadelphia and American"),
    ("x02", "WHICH FLIGHTS LEAVE FROM BOSTON",
     "WHICH:question FLIGHT(S):subject LEAVE(S):origin FROM:origin ((city)BOSTON):origin",
     None),
    ("x03", "WHICH FLIGHTS ARRIVE IN BOSTON",
     "WHICH:question FLIGHT(S):subject ARRIVE(S):destin IN:destin ((city)BOSTON):destin",
     None),
    ("x04", "SHOW ME THE PLANE ON THE FLIGHT FROM BOSTON TO DALLAS",
     "SHOW:question ME:question PLANE:subject ON:dummy FLIGHT(S):dummy FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin",
     None),
    ("x05", "CAN YOU SHOW ME THE FLIGHTS FROM BOSTON",
     "CAN:question YOU:question SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin",
     None),
    ("x06", "WHAT ARE THE PRICES FROM BOSTON TO DALLAS",
     "WHAT:question ARE:question PRICE:subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin",
     None),
]

SEMI_SEED = [
    ("m01", "SHOW ME THE FLIGHTS FROM BOSTON TO DALLAS IN THE EVENING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin TO:destin ((city)DALLAS):destin IN:depart-time EVENING:depart-time"),
    ("m02", "SHOW ME THE FLIGHTS FROM BOSTON IN THE EVENING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin IN:depart-time EVENING:depart-time"),
    ("m03", "LIST THE FLIGHTS FROM DENVER IN THE EVENING",
     "LIST:question FLIGHT(S):subject FROM:origin ((city)DENVER):origin IN:depart-time EVENING:depart-time"),
    ("m04", "WHAT ARE THE FLIGHTS FROM ATLANTA TO BOSTON IN THE EVENING",
     "WHAT:question ARE:question FLIGHT(S):subject FROM:origin ((city)ATLANTA):origin TO:destin ((city)BOSTON):destin IN:depart-time EVENING:depart-time"),
    ("m05", "LIST THE FLIGHTS FROM SAN FRANCISCO IN THE EVENING",
     "LIST:question FLIGHT(S):subject FROM:origin ((city)SANFRANCISCO):origin IN:depart-time EVENING:depart-time"),
    ("m06", "SHOW ME THE FLIGHTS FROM WASHINGTON TO PHILADELPHIA IN THE EVENING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)WASHINGTON):origin TO:destin ((city)PHILADELPHIA):destin IN:depart-time EVENING:depart-time"),
    ("m07", "WHAT ARE THE FLIGHTS FROM BOSTON IN THE EVENING",
     "WHAT:question ARE:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin IN:depart-time EVENING:depart-time"),
]

# answer-feedback sentences: text plus the gold-equivalent segmentation used
# ONLY to derive the reference answers (not stored as gold)
SEMI_FEEDBACK = [
    ("m08", "SHOW ME THE FLIGHTS FROM BOSTON IN THE MORNING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)BOSTON):origin IN:depart-time MORNING:depart-time"),
    ("m09", "LIST THE FLIGHTS FROM SAN FRANCISCO IN THE MORNING",
     "LIST:question FLIGHT(S):subject FROM:origin ((city)SANFRANCISCO):origin IN:depart-time MORNING:depart-time"),
    ("m10", "SHOW ME THE FLIGHTS FROM WASHINGTON TO PHILADELPHIA IN THE MORNING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)WASHINGTON):origin TO:destin ((city)PHILADELPHIA):destin IN:depart-time MORNING:depart-time"),
    ("m11", "WHAT ARE THE FLIGHTS FROM ATLANTA TO BOSTON IN THE MORNING",
     "WHAT:question ARE:question FLIGHT(S):subject FROM:origin ((city)ATLANTA):origin TO:destin ((city)BOSTON):destin IN:depart-time MORNING:depart-time"),
    ("m12", "SHOW ME THE FLIGHTS FROM DENVER IN THE MORNING",
     "SHOW:question ME:question FLIGHT(S):subject FROM:origin ((city)DENVER):origin IN:depart-time MORNING:depart-time"),
    ("m13", "CONCERNING INFORMATION PLEASE", None),
]


def ref_entry(ident, text, gold_sent, artifacts, keep_gold=True):
    entry = FeedbackEntry(ident=ident, text=text,
                          gold=gold_sent if keep_gold else None)
    if gold_sent is not None:
        template = generate_template(gold_sent, artifacts.tables,
                                     artifacts.dictionary)
        entry.refmin = entry.refmax = answer(template, artifacts)
    return entry


def main():
    artifacts = Artifacts.load_bundled()

    demo = FeedbackCorpus([ref_entry(i, t, gold(g), artifacts)
                           for i, t, g in DEMO])
    with open(os.path.join(DATA, "demo_corpus.txt"), "w") as fh:
        fh.write(demo.to_text())

    seed_entries = []
    for i, t, g, win in SEED_EXTRA:
        e = FeedbackEntry(ident=i, text=t, gold=gold(g), win=win)
        seed_entries.append(e)
    seed = FeedbackCorpus(seed_entries)
    with open(os.path.join(DATA, "seed_corpus.txt"), "w") as fh:
        fh.write(seed.to_text())

    semi_entries = [FeedbackEntry(ident=i, text=t, gold=gold(g))
                    for i, t, g in SEMI_SEED]
    for i, t, g in SEMI_FEEDBACK:
        if g is None:
            # sentence the system can never answer: empty reference rows
            e = FeedbackEntry(ident=i, text=t)
            e.refmin = Answer(kind="rows", rows=[])
            e.refmax = Answer(kind="rows", rows=[])
        else:
            e = ref_entry(i, t, gold(g), artifacts, keep_gold=False)
        semi_entries.append(e)
    semi = FeedbackCorpus(semi_entries)
    with open(os.path.join(DATA, "semi_corpus.txt"), "w") as fh:
        fh.write(semi.to_text())

    print(f"demo: {len(demo.entries)} entries")
    print(f"seed extra: {len(seed.entries)} entries")
    print(f"semi: {len(semi.entries)} entries")


if __name__ == "__main__":
    main()
