"""The benchmark's three workloads, each a closed loop with one client.

A workload runs in rounds.  Round ``k`` draws its inputs from
``random.Random(f"<workload>:<seed>:<k>")``, so the seed fixes every input,
and a run repeats whole rounds until its time is spent.  Each operation
(op) is timed on its own and checked; it fails when it raises anything
but ``ChronusError`` or when its check fails.

* ``dialog``: one op is one sentence line fed to ``chronus.cli.main(
  ["repl", ...])`` on stdin, timed from when the REPL reads it to when it
  reads the next line.  A round is one REPL process lifetime: scripted
  sessions of 2-6 corpus sentences separated by ``:reset``, then the two
  golden scripts, whose transcripts must match byte for byte.
* ``long-utterances``: one op is ``pipeline.run_turn`` on a fresh sentence
  joined from 3-15 corpus sentences; its ``log_prob`` must equal
  ``decoder.path_score`` of the returned path and labels.
* ``train-cycle``: one op is a developer cycle: ``chronus train`` with
  synonyms, ``load_model``, ``run_training_loop`` on the semi corpus and
  ``align_win`` over a generated alignment set.
"""

from __future__ import annotations

import io
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from chronus import cli, gen, model, pipeline, training
from chronus.decoder import path_score
from chronus.errors import ChronusError
from chronus.pipeline import Artifacts, data_path
from chronus.query import Answer, score_answer
from chronus.training import FeedbackCorpus

# Bound before any wrapping, so the output checks stay out of the trace.
_model_to_text = model.model_to_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = [(ROOT / "tests" / "data" / f"repl_script{i}.txt",
           ROOT / "tests" / "data" / f"repl_golden{i}.txt") for i in (1, 2)]


class BenchError(Exception):
    """A workload could not be prepared; the run prints no result."""


# Host speed calibration.  The shared host this benchmark was built on
# drifts by up to 40% within minutes, and the drift moves every timing of a
# run together.  So a fixed pure-Python kernel (dict lookups and float
# arithmetic, like the decoder's inner loop) is timed between ops, never
# inside one, and each op's time is scaled by REF_NS / (median of the
# WINDOW kernel times before it and WINDOW after it): times read as if the
# host ran at the speed where the kernel takes REF_NS, its median on that
# host when quiet.  Raw times are kept in ``meta``.
REF_NS = 280_000
WINDOW = 8
_KERNEL_TABLE = {i: float(i) for i in range(256)}


def _kernel_ns():
    table = _KERNEL_TABLE
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(4000):
        acc += table.get(i & 255, 0.0) * 0.5
    return time.perf_counter_ns() - start


@dataclass
class Tally:
    """What one phase of a run measured; times in ns, host-speed scaled."""

    op_ns: list = field(default_factory=list)     # each passed op
    setup_ns: list = field(default_factory=list)
    raw_op_ns: list = field(default_factory=list)
    raw_setup_ns: list = field(default_factory=list)
    factors: list = field(default_factory=list)   # per round: REF_NS / kernel
    attempted: int = 0
    failed: int = 0
    answers: list = field(default_factory=lambda: [0, 0])  # correct, scored
    aligned: list = field(default_factory=lambda: [0, 0])  # exact, total
    rounds: int = 0
    _ops: list = field(default_factory=list)      # [(ns, kernel pos), ...]
    _setups: list = field(default_factory=list)
    _kernel: list = field(default_factory=list)

    def calibrate(self, times=1):
        """Time the kernel; call it between ops, never inside one."""
        self._kernel.extend(_kernel_ns() for _ in range(times))

    def kernel_pos(self):
        """How many kernel samples this round has taken so far."""
        return len(self._kernel)

    def record(self, ok, parts):
        """One op, timed as ``parts``: [(ns, kernel samples of the round
        taken before that part)].  An op is one part unless kernel samples
        were taken between its pieces."""
        self.attempted += 1
        if ok:
            self._ops.append(parts)
        else:
            self.failed += 1

    def record_setup(self, elapsed_ns, pos):
        self._setups.append([(elapsed_ns, pos)])

    def end_round(self):
        """Scale the ops and set-ups recorded since the last call."""
        kernel = self._kernel
        if not kernel:
            return
        self.factors.append(REF_NS / statistics.median(kernel))
        for raw, scaled, pending in ((self.raw_op_ns, self.op_ns, self._ops),
                                     (self.raw_setup_ns, self.setup_ns,
                                      self._setups)):
            for parts in pending:
                raw.append(sum(ns for ns, _ in parts))
                scaled.append(sum(
                    ns * REF_NS / statistics.median(
                        kernel[max(0, pos - WINDOW):pos + WINDOW] or kernel)
                    for ns, pos in parts))
            pending.clear()
        kernel.clear()


def _train_model(path, synonyms=False):
    argv = ["train", "--corpus", str(data_path("demo_corpus.txt")),
            "--corpus", str(data_path("seed_corpus.txt")), "--out", str(path)]
    if synonyms:
        argv[-2:-2] = ["--synonyms", str(data_path("synonyms.txt"))]
    return argv


def _run_cli_child(argv):
    """Run ``chronus.cli.main(argv)`` in a child process and wait for it.

    The dialog and long-utterances workloads train their model this way,
    so the peak RSS of the run's own process covers only the workload.
    """
    code = "import sys; from chronus.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise BenchError(f"chronus {argv[0]} exited with {proc.returncode}:"
                         f"\n{proc.stderr}")


def _corpus_entries():
    """Distinct texts of the demo and semi corpora, with references if any."""
    entries = {}
    for name in ("demo_corpus.txt", "semi_corpus.txt"):
        for e in FeedbackCorpus.load(data_path(name)).entries:
            if e.text not in entries or (e.has_references
                                         and not entries[e.text].has_references):
                entries[e.text] = e
    return [entries[t] for t in sorted(entries)]


# ---------------------------------------------------------------------------
# dialog

class _Repl:
    """Scripted stdin and captured stdout of one REPL lifetime."""

    def __init__(self, lines, turns, tracer, tally):
        self.lines = lines
        self.turns = turns        # per line: True for a sentence, not ``:reset``
        self.tracer = tracer
        self.tally = tally
        self.i = 0
        self.stamps = []          # stamps[j]: (line j-1 done, line j read)
        self.marks = []           # marks[j]: output chunks written before it
        self.chunks = []
        self.open_root = False

    def __iter__(self):
        return self

    def __next__(self):
        now = time.perf_counter_ns()
        if self.open_root:
            self.tracer.end_root()
            self.open_root = False
        self.tally.calibrate()
        self.stamps.append((now, time.perf_counter_ns()))
        self.marks.append(len(self.chunks))
        if self.i == len(self.lines):
            raise StopIteration
        line = self.lines[self.i]
        if self.turns[self.i]:
            self.tracer.begin_root("turn")
            self.open_root = True
        self.i += 1
        return line + "\n"

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass

    def output(self, j):
        return "".join(self.chunks[self.marks[j]:self.marks[j + 1]])


def _golden_blocks(script_path, golden_path):
    """(input line, expected transcript block) pairs of one golden script.

    The final ``:quit`` is left out: the REPL's input simply ends instead.
    """
    script = [ln.strip() for ln in script_path.read_text().splitlines()
              if ln.strip()]
    golden = golden_path.read_text()
    blocks = ["> " + b for b in golden.split("\n> ")]
    blocks[0] = blocks[0][2:]
    blocks = [b if b.endswith("\n") else b + "\n" for b in blocks]
    if "".join(blocks) != golden or len(blocks) != len(script) \
            or script[-1] != ":quit" or blocks[-1] != "> :quit\n":
        raise BenchError(f"{golden_path.name} does not follow its script")
    return list(zip(script[:-1], blocks[:-1]))


def _parse_answer(lines, kind):
    if kind == "rows":
        return Answer(kind="rows", rows=[tuple(ln.split("\t")) for ln in lines])
    if len(lines) != 1:
        return None
    if kind == "boolean":
        return Answer(kind="boolean", value=lines[0] == "YES")
    return Answer(kind="number", value=lines[0])


def _answer_correct(output, entry):
    """Whether a first-turn REPL output answers the entry's references."""
    lines = output.splitlines()
    if not lines or lines[0].startswith(("REJECT", "ERROR")):
        return False
    answer_lines = lines[1:]
    if answer_lines and answer_lines[0].startswith("ERROR "):
        return False
    answer = _parse_answer(answer_lines, entry.refmin.kind)
    return answer is not None and score_answer(
        answer, entry.refmin, entry.refmax) == "correct"


class Dialog:
    name = "dialog"
    SESSIONS = 100          # per round, about 400 sentence lines

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model_path = Path(workdir) / "dialog-model.txt"
        _run_cli_child(_train_model(self.model_path))
        self.entries = _corpus_entries()
        self.golden = [_golden_blocks(*paths) for paths in GOLDEN]

    def sizes(self):
        return {"sessions_per_round": self.SESSIONS, "session_turns": [2, 6],
                "distinct_texts": len(self.entries),
                "golden_lines": sum(len(blocks) for blocks in self.golden)}

    def setup(self, tally):
        pass   # the REPL loads its artifacts and model at the start of a round

    def _script(self, k):
        """Per line: (text, corpus entry or None, expected output or None)."""
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        script = []
        for s in range(self.SESSIONS):
            if s:
                script.append((":reset", None, None))
            for _ in range(rng.randint(2, 6)):
                entry = rng.choice(self.entries)
                script.append((entry.text, entry, None))
        for blocks in self.golden:
            script.append((":reset", None, None))
            script.extend((line, None, block) for line, block in blocks)
        return script

    def round(self, k, tracer, tally):
        script = self._script(k)
        lines = [text for text, _, _ in script]
        repl = _Repl(lines, [text != ":reset" for text in lines], tracer,
                     tally)
        crashed = set()
        argv = ["repl", "--model", str(self.model_path)]
        saved_stdin = sys.stdin
        sys.stdin = repl
        started = time.perf_counter_ns()
        try:
            while True:
                try:
                    rc = cli.main(argv, out=repl)
                except Exception:
                    if not repl.stamps:
                        raise
                    crashed.add(repl.i - 1)   # the line in flight
                    continue                  # a fresh REPL takes the rest
                if rc != 0:
                    raise BenchError(f"chronus repl exited with {rc}")
                break
        finally:
            sys.stdin = saved_stdin
        tally.record_setup(repl.stamps[0][0] - started, 0)
        first_turn = True
        for j, (text, entry, block) in enumerate(script):
            if text == ":reset":
                first_turn = True
                continue
            output = repl.output(j)
            ok = j not in crashed and (block is None
                                       or f"> {text}\n{output}" == block)
            # line j was read after j + 1 kernel samples (one per read)
            tally.record(ok, [(repl.stamps[j + 1][0] - repl.stamps[j][1],
                               j + 1)])
            if k == 0 and first_turn and entry is not None \
                    and entry.has_references:
                tally.answers[0] += ok and _answer_correct(output, entry)
                tally.answers[1] += 1
            first_turn = False


# ---------------------------------------------------------------------------
# long-utterances

class LongUtterances:
    name = "long-utterances"
    JOINS = range(3, 16)    # corpus sentences per utterance
    SETUPS = 15
    JOIN_AND = 0.3          # share of joints that say AND
    ODD_WORD = 0.1          # share of sentences with an out-of-lexicon word

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model_path = Path(workdir) / "long-model.txt"
        _run_cli_child(_train_model(self.model_path))
        self.texts = [e.text for e in _corpus_entries()]

    def sizes(self):
        return {"sentences_per_round": 3 * len(self.JOINS),
                "joined_sentences": [self.JOINS[0], self.JOINS[-1]],
                "distinct_texts": len(self.texts)}

    def setup(self, tally):
        for _ in range(self.SETUPS):
            tally.calibrate(WINDOW)
            start = time.perf_counter_ns()
            self.artifacts = Artifacts.load_bundled()
            self.model = model.load_model(self.model_path)
            tally.record_setup(time.perf_counter_ns() - start,
                               tally.kernel_pos())

    def sentence(self, rng, joins):
        words = [rng.choice(self.texts)]
        for _ in range(joins - 1):
            if rng.random() < self.JOIN_AND:
                words.append("AND")
            words.append(rng.choice(self.texts))
        words = " ".join(words).split()
        if rng.random() < self.ODD_WORD:
            odd = "".join(rng.choice("QXZJV") for _ in range(6))
            words.insert(rng.randrange(len(words) + 1), odd)
        return " ".join(words)

    def round(self, k, tracer, tally):
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        # every round holds each length three times, so seeds differ only
        # in which corpus sentences are joined
        joins = list(self.JOINS) * 3
        rng.shuffle(joins)
        for n in joins:
            text = self.sentence(rng, n)
            tally.calibrate()
            tracer.begin_root("turn")
            start = time.perf_counter_ns()
            ok = True
            try:
                decode = pipeline.run_turn(text, self.model, self.artifacts).decode
            except ChronusError:
                decode = None
            except Exception:
                ok = False
            elapsed = time.perf_counter_ns() - start
            tracer.end_root()
            if ok and decode is not None:
                expected = path_score(self.model, decode.words, decode.labels)
                ok = (decode.log_prob == expected
                      or abs(decode.log_prob - expected) <= 1e-9)
            tally.record(ok, [(elapsed, tally.kernel_pos())])


# ---------------------------------------------------------------------------
# train-cycle

class TrainCycle:
    name = "train-cycle"
    ALIGNMENTS = 100        # alignment instances per cycle
    SETUPS = 25
    KERNELS_PER_STEP = WINDOW  # between the steps of a cycle
    MAX_ITERS = 20

    def __init__(self, seed, workdir):
        self.seed = seed
        self.model_path = Path(workdir) / "cycle-model.txt"
        self.argv = _train_model(self.model_path, synonyms=True)
        self.alignments = gen.alignment_corpus(
            gen.make_recovery_model(), random.Random(f"{self.name}:{seed}"),
            self.ALIGNMENTS, max_len=8)

    def sizes(self):
        return {"cycles_per_round": 1, "alignments": self.ALIGNMENTS,
                "loop_max_iters": self.MAX_ITERS}

    def setup(self, tally):
        for _ in range(self.SETUPS):
            tally.calibrate(WINDOW)
            start = time.perf_counter_ns()
            self.artifacts = Artifacts.load_bundled()
            self.semi = FeedbackCorpus.load(data_path("semi_corpus.txt"))
            self.recovery = gen.make_recovery_model()
            tally.record_setup(time.perf_counter_ns() - start,
                               tally.kernel_pos())

    def round(self, k, tracer, tally):
        parts = []

        def step(fn, *args):
            """Time one step; kernel samples go between steps."""
            start = time.perf_counter_ns()
            result = fn(*args)
            parts.append((time.perf_counter_ns() - start, tally.kernel_pos()))
            tracer.call("calibration", tally.calibrate, self.KERNELS_PER_STEP)
            return result

        tally.calibrate(self.KERNELS_PER_STEP)
        tracer.begin_root("cycle")
        try:
            rc = step(cli.main, self.argv, io.StringIO())
            loaded = step(model.load_model, self.model_path)
            _, report = step(training.run_training_loop, self.semi, loaded,
                             self.artifacts, self.MAX_ITERS)
            aligned = step(self._align_all)
        except Exception:
            rc = None
        tracer.end_root()
        ok = (rc == 0 and report.termination == "converged"
              and _model_to_text(loaded) == self.model_path.read_text()
              and None not in aligned)
        tally.record(ok, parts)
        if k == 0 and ok:
            last = report.rows[-1]
            tally.answers = [last.correct, last.correct + last.problem]
            tally.aligned = [sum(a.labels == gold.labels for a, (_w, _win, gold)
                                 in zip(aligned, self.alignments)),
                             len(aligned)]

    def _align_all(self):
        aligned = []
        for words, win, _gold in self.alignments:
            try:
                aligned.append(training.align_win(words, win, self.recovery))
            except ChronusError:
                aligned.append(None)
        return aligned


WORKLOADS = {w.name: w for w in (Dialog, LongUtterances, TrainCycle)}
