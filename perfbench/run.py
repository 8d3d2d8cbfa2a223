"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload dialog --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it runs each round twice, untraced and then traced, and
reports the per-layer metrics, including the tracing overhead (traced
minus untraced).  The spans of the traced rounds are written to
``perfbench/out/spans-<workload>.jsonl``.

Before the result line the run prints ``meta {...}`` (interpreter, git
SHA, nproc, seed, workload sizes, traced or not) and, when traced, a
self-time table whose rows add up to the traced turn or cycle spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import NullTracer, Tracer, stored_probabilities  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def run_phases(workload, seconds, tracers):
    """Set up, then run whole rounds until ``seconds`` have passed.

    With several tracers, round ``k`` runs once under each in turn, so
    traced and untraced rounds see the same inputs and the same host
    drift.  Returns one Tally per tracer.
    """
    tallies = [Tally() for _ in tracers]
    for tally, tracer in zip(tallies, tracers):
        with tracer.installed():
            workload.setup(tally)
        tally.end_round()
    start = time.perf_counter()
    k = 0
    while True:
        for tally, tracer in zip(tallies, tracers):
            with tracer.installed():
                workload.round(k, tracer, tally)
            tally.end_round()
            tracer.end_round()
            tally.rounds += 1
        k += 1
        if time.perf_counter() - start >= seconds:
            return tallies


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def end_to_end(tally, scaled=True):
    """End-to-end metrics; times host-speed scaled unless ``scaled`` is off."""
    op_ns, setup_ns = ((tally.op_ns, tally.setup_ns) if scaled
                       else (tally.raw_op_ns, tally.raw_setup_ns))
    ms = sorted(ns / 1e6 for ns in op_ns)
    return {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8]
                      if len(ms) > 1 else ms[0], "ms"),
        "ops_per_s": (_ratio(len(ms), sum(ms), 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(tracer, tally, plain, traced):
    """Layer metrics from the traced phase; see README.md for definitions.

    ``plain`` and ``traced`` are the end-to-end metrics of the untraced
    and traced rounds.  Times are host-speed scaled like the
    end-to-end ones, by the traced phase's median factor; counts come from
    its first round.
    """
    st = tracer.self_times()
    first = tracer.first_round
    total = tracer.counts
    turns = total["turns"]
    scale = statistics.median(tally.factors)

    def calls(name):
        return st.get(name, (0, 0, 0, 0))[0]

    def self_ms_per_turn(*names):
        return _ratio(sum(st[n][2] for n in names if n in st), turns,
                      1e-6 * scale)

    def ms_per_call(name):
        return _ratio(st[name][1], st[name][0], 1e-6 * scale) \
            if name in st else 0.0

    def pct(num, den):
        return _ratio(first[num], first[den], 100.0)

    root = st.get("turn") or st.get("cycle")
    calibration = st.get("calibration", (0, 0))[1]
    model_path, model_bytes = tracer.last_model or (None, 0)
    stored = stored_probabilities(model_path) if model_path else 0
    return {
        "decoder.ms_per_turn": (self_ms_per_turn(
            "decoder.viterbi_decode_lattice"), "ms"),
        "decoder.ns_per_relaxation": (_ratio(
            st.get("decoder.viterbi_decode_lattice", (0, 0, 0))[2],
            total["decoder.relaxations"], scale), "ns"),
        "decoder.calls_per_turn": (_ratio(first["decoder.calls"],
                                          first["turns"]), "count"),
        "decoder.relaxations_per_position": (_ratio(
            first["decoder.relaxations"], first["decoder.positions"]), "count"),
        "decoder.degenerate_pct": (pct("decoder.degenerate", "decoder.calls"),
                                   "%"),
        "lexicon.ms_per_turn": (self_ms_per_turn("lexicon.lex_parse"), "ms"),
        "lexicon.arcs_per_position": (_ratio(
            first["lexicon.arcs"], first["lexicon.positions"]), "count"),
        "template.ms_per_turn": (self_ms_per_turn(
            "template.generate_template", "template.should_reject"), "ms"),
        "template.matched_pct": (_ratio(
            first["template.matched"],
            first["template.matched"] + first["template.unmatched"], 100.0),
            "%"),
        "template.reject_pct": (pct("template.rejects",
                                    "template.reject_calls"), "%"),
        "dialog.ms_per_turn": (self_ms_per_turn("dialog.merge_context"), "ms"),
        "query.ms_per_turn": (self_ms_per_turn("query.plan_query",
                                               "query.execute"), "ms"),
        "query.plan_error_pct": (_ratio(
            sum(st[n][3] for n in ("query.plan_query", "query.execute")
                if n in st), calls("query.plan_query"), 100.0), "%"),
        "model.train_ms": (ms_per_call("model.train_mle"), "ms"),
        "model.save_ms": (ms_per_call("model.save_model"), "ms"),
        "model.load_ms": (ms_per_call("model.load_model"), "ms"),
        "model.to_text_calls": (first["model.to_text_calls"], "count"),
        "model.to_text_ms": (ms_per_call("model.model_to_text"), "ms"),
        "model.bytes": (model_bytes, "bytes"),
        "model.stored_probs": (stored, "count"),
        "training.loop_ms": (ms_per_call("training.run_training_loop"), "ms"),
        "training.loop_iterations": (first["training.loop_iterations"],
                                     "count"),
        "training.align_ms_per_instance": (ms_per_call("training.align_win"),
                                           "ms"),
        "training.align_exact_pct": (_ratio(*tally.aligned, 100.0), "%"),
        "answers_correct_pct": (_ratio(*tally.answers, 100.0), "%"),
        "trace.covered_pct": (_ratio(root[1] - root[2] - calibration,
                                     root[1] - calibration, 100.0)
                              if root else 0.0, "%"),
        "trace.overhead_op_p50_ms": (traced["op_p50_ms"][0]
                                     - plain["op_p50_ms"][0], "ms"),
        "trace.overhead_ops_per_s": (traced["ops_per_s"][0]
                                     - plain["ops_per_s"][0], "1/s"),
    }


def self_time_table(tracer):
    """Lines of the self-time table over the traced turn or cycle spans."""
    st = tracer.self_times(in_roots=True)
    root = "turn" if "turn" in st else "cycle"
    calls, total = st[root][0], st[root][1]
    lines = [f"self time inside {calls} {root} spans ({total / 1e6:.1f} ms):"]
    for name, (_c, _incl, ns, _e) in sorted(st.items(), key=lambda kv: -kv[1][2]):
        label = "(glue: pipeline, cli, benchmark)" if name == root else name
        lines.append(f"  {label:40s} {ns / 1e6:12.2f} ms "
                     f"{100 * ns / total:6.2f} %")
    lines.append(f"  {'sum':40s} "
                 f"{sum(s[2] for s in st.values()) / 1e6:12.2f} ms")
    return lines


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        meta = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "traced": bool(args.trace),
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
                "sizes": workload.sizes()}
        if not args.trace:
            counted = run_phases(workload, args.seconds, [NullTracer()])
            tally = counted[0]
            metrics = end_to_end(tally) if tally.op_ns else {}
        else:
            tracer = Tracer()
            counted = run_phases(workload, args.seconds,
                                 [NullTracer(), tracer])
            plain_tally, tally = counted
            metrics = {}
            if plain_tally.op_ns and tally.op_ns:
                metrics = per_layer(tracer, tally, end_to_end(plain_tally),
                                    end_to_end(tally))
            spans_path = OUT / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path)
            meta["spans"] = str(spans_path.relative_to(ROOT))
            print("\n".join(self_time_table(tracer)))
    meta["unscaled"] = [{k: v for k, (v, _) in end_to_end(t, False).items()}
                        for t in counted if t.op_ns]
    meta["host_factor"] = [statistics.median(t.factors) for t in counted]
    meta["rounds"] = [t.rounds for t in counted]
    meta["ops"] = [t.attempted for t in counted]
    print("meta " + json.dumps(meta, sort_keys=True))
    attempted = sum(t.attempted for t in counted)
    failed = sum(t.failed for t in counted)
    # with no op passed there is nothing to time: metrics stay empty
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
