"""Run every workload and summarize, or compare the results of two commits.

    python3 perfbench/suite.py run --out base.jsonl [--seeds 1 2 ... 10]
    python3 perfbench/suite.py compare base.jsonl new.jsonl

``run`` starts ``run.py`` once per workload of BENCHMARK.json, seed and
trace mode, one at a time, each for BENCHMARK.json's ``run_seconds``.  It
appends each run's meta and result to ``--out`` as a JSON line, and
prints every end-to-end metric by name with its unit as median and
quartiles over the seeds, with ``failed_pct`` and the per-layer medians.

``compare`` prints, per workload and metric, each side's median and
quartiles and the ratio new/base.  End-to-end metrics get a verdict
against the bound in BENCHMARK.json; counters are compared run by run for
exact equality on the seeds both sides ran.  It refuses result files whose
runs measured for different lengths of time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
SEEDS = list(range(1, 11))
# same-seed pairs a gain needs before ``compare`` calls it better
MIN_PAIRS = 10

# Per-layer metrics that count work rather than time it: for one seed they
# repeat exactly, so two commits are compared on them for equality.
COUNTERS = [
    "decoder.relaxations_per_position", "decoder.calls_per_turn",
    "decoder.degenerate_pct", "lexicon.arcs_per_position",
    "template.matched_pct", "template.reject_pct", "query.plan_error_pct",
    "model.bytes", "model.stored_probs", "model.to_text_calls",
    "training.loop_iterations", "training.align_exact_pct",
    "answers_correct_pct",
]


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    meta = next(json.loads(ln[5:]) for ln in lines if ln.startswith("meta "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def grouped(records):
    """(workload, traced) -> metric -> [(seed, value)], plus units."""
    groups = defaultdict(lambda: defaultdict(list))
    units = {}
    for rec in records:
        key = (rec["meta"]["workload"], rec["meta"]["traced"])
        for name, m in rec["result"]["metrics"].items():
            groups[key][name].append((rec["meta"]["seed"], m["value"]))
            units[name] = m["unit"]
    return groups, units


def summarize(records):
    groups, units = grouped(records)
    for workload in sorted({w for w, _ in groups}):
        runs = [r for r in records if r["meta"]["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"\n== {workload}  ({len(runs)} runs)")
        for traced in (False, True):
            for name, pairs in groups.get((workload, traced), {}).items():
                q1, med, q3 = quartiles([v for _, v in pairs])
                print(f"  {name:34s} {med:14.6g} {units[name]:6s} "
                      f"[{q1:.6g} .. {q3:.6g}]  n={len(pairs)}")
        print(f"  {'failed_pct':34s} {100.0 * failed / attempted:14.6g} %")


def verdict(name, base, new):
    """better / worse / same / unresolved for [(seed, value)] per side.

    Unresolved: either side spreads wider than the bound.  Worse: the
    median worsened by more than the metric's bound.  Better: on at least
    MIN_PAIRS same-seed pairs, the new side wins at least 9 in 10 and its
    median improved by more than the base's quartile spread; with fewer
    pairs a gain stays unresolved.
    """
    spec = BOUNDS[name]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    bq1, bmed, bq3 = quartiles([v for _, v in base])
    nq1, nmed, nq3 = quartiles([v for _, v in new])
    base_spread = (bq3 - bq1) / bmed
    worse_by = sign * (nmed - bmed) / bmed
    if max(base_spread, (nq3 - nq1) / nmed) > spec["bound"]:
        return "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    by_seed = dict(new)
    pairs = [(b, by_seed[s]) for s, b in base if s in by_seed]
    wins = sum(sign * n < sign * b for b, n in pairs)
    if wins >= 0.9 * len(pairs) and -worse_by > base_spread:
        if len(pairs) < MIN_PAIRS:
            return f"unresolved ({len(pairs)} < {MIN_PAIRS} seed pairs)"
        return "better"
    return "same"


def compare(base_records, new_records):
    lengths = {rec["meta"]["seconds"] for rec in base_records + new_records}
    if len(lengths) > 1:
        sys.exit(f"runs of different lengths cannot be compared: "
                 f"{sorted(lengths)} s")
    base, units = grouped(base_records)
    new, _ = grouped(new_records)
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        print(f"\n== {workload} ({'traced' if traced else 'untraced'})")
        print(f"  {'metric':34s} {'base median [q1..q3]':>30s} "
              f"{'new median [q1..q3]':>30s} {'new/base':>9s}  verdict")
        for name in base[key]:
            if name not in new[key]:
                continue
            b = [v for _, v in base[key][name]]
            n = [v for _, v in new[key][name]]
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            ratio = f"{nmed / bmed:9.4f}" if bmed else f"{'-':>9s}"
            if name in BOUNDS:
                note = verdict(name, base[key][name], new[key][name])
            elif name in COUNTERS:
                nseed = dict(new[key][name])
                shared = [s for s, _ in base[key][name] if s in nseed]
                same = all(nseed[s] == v for s, v in base[key][name]
                           if s in nseed)
                note = (f"{'equal' if same else 'DIFFERS'} "
                        f"on {len(shared)} shared seeds")
            else:
                note = ""
            print(f"  {name:34s} {bmed:12.6g} [{bq1:.4g}..{bq3:.4g}]"
                  f" {nmed:12.6g} [{nq1:.4g}..{nq3:.4g}] {ratio}  {note}"
                  f"  {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload, untraced and traced")
    p.add_argument("--out", required=True, help="JSON lines file to append to")
    p.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    p = sub.add_parser("compare", help="compare two result files")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        compare(load(args.base), load(args.new))
        return 0
    records = []
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in (w["name"] for w in SPEC["workloads"]):
            for seed in args.seeds:
                for trace in (0, 1):
                    rec = run_one(workload, seed, SPEC["run_seconds"], trace)
                    out.write(json.dumps(rec, sort_keys=True) + "\n")
                    out.flush()
                    records.append(rec)
    summarize(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
