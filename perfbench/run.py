"""styleseam benchmark: CLI workloads end to end, or per layer with --trace 1.

Run from the repository root; the package is imported from ./src, so no
install is needed:

    python3 perfbench/run.py --workload pan_medium --seed 1 --seconds 15 --trace 0

--trace 0 runs each command in a fresh ``python -m styleseam.cli``
subprocess and reports the end-to-end metrics. --trace 1 calls
``styleseam.cli.main`` in-process, alternating plain passes with passes
whose module functions are wrapped in spans, and reports the per-layer
metrics. Load is a closed loop with one client: one command at a time,
the next only after the previous has exited. Every output is checked; the
last stdout line is one JSON object with correct/attempted/failed/metrics.
A table of every metric goes to stderr, and a JSON record with the
environment and corpus digest to .perfbench-out/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

import checks as chk
import corpusgen
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 3
MIN_PASSES = 2  # the model.json and macro_f1 determinism checks compare two passes
MIN_TRACED_PASSES = 4  # plain, traced, traced, plain: cancels a linear drift in machine speed
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s; no pass starts that could end later
# Every pass writes into the same directory, so passes after the first
# overwrite their files instead of creating them: file creation latency
# drifts by an order of magnitude on shared disks and would swamp the
# program's own cost. The first pass's outputs are fresh and fully checked.
PASS_OUTPUT = "out"

# name -> (unit, better). Only metrics every workload exercises and that are
# never 0 are bounded end-to-end metrics; the rest go to the stderr table.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "pairs_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "macro_f1": ("score", "higher"),
}
SUMMARY_ONLY = {
    "train_s": ("s", "lower"),
    "predict_s": ("s", "lower"),
    "failed_ops": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Workload:
    corpus: corpusgen.CorpusParams
    strategy: str = "transition"
    budget: int = 512
    members: int = 0  # external prediction files; nonzero selects the ensemble sequence


# Shared by every workload: a 30k-word Zipfian lexicon, 64 authors, and
# change labels about as frequent as in the official medium split.
_CORPUS = corpusgen.CorpusParams(
    difficulty="medium",
    train_docs=4200,
    validation_docs=900,
    lexicon_size=30000,
    zipf_exponent=1.0,
    paragraph_words=(30, 150),
    paragraphs_per_doc=(2, 8),
    change_probability=0.47,
    author_pool=64,
    author_window=400,
    author_window_share=0.25,
)

WORKLOADS = {
    # Half the official split sizes, medium-length paragraphs: featurize and
    # SGD dominate. Half, so that a 30-s run holds three passes and its
    # median is not the mean of two on a host whose speed drifts.
    "pan_medium": Workload(replace(_CORPUS, train_docs=2100, validation_docs=450), strategy="transition", budget=512),
    # Pairs of about 1000 tokens at a 256-token longest_first budget: every
    # pair is cut, so tokenizing and vocabulary fitting dominate and
    # per-paragraph feature reuse is bypassed.
    "long_truncated": Workload(
        replace(_CORPUS, difficulty="hard", train_docs=1000, validation_docs=500, paragraph_words=(200, 600)),
        strategy="longest_first",
        budget=256,
    ),
    # No training: exchange-format I/O, ensembling, solution files and scoring.
    "ensemble_score": Workload(replace(_CORPUS, train_docs=0), members=4),
}


@dataclass
class Inputs:
    """A set-up corpus (and, for ensembling, external prediction files)."""

    data: Path
    difficulty: str
    truth: dict[str, dict[int, list[int]]]
    members: list[Path]
    sha256: str = ""

    def split_dir(self, split: str) -> Path:
        return self.data / self.difficulty / split

    def pairs(self, split: str) -> int:
        return sum(len(changes) for changes in self.truth[split].values())


@dataclass(frozen=True)
class Step:
    name: str
    argv: list[str]
    pairs: int


@dataclass
class Pass:
    """One run of a workload's command sequence."""

    wall_s: float = 0.0
    step_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mib: float = 0.0
    pairs: int = 0
    ok: bool = True
    macro_f1: float = 0.0
    model_sha256: str = ""


Runner = Callable[[list[str], float], tuple[int, float, float]]


def write_members(directory: Path, truth: dict[int, list[int]], count: int, seed: int) -> list[Path]:
    """External predictions of `count` noisy models of differing strength."""
    rng = np.random.default_rng([seed, 1])
    keys = [(doc, i) for doc in sorted(truth) for i in range(len(truth[doc]))]
    sign = np.array([2 * truth[doc][i] - 1 for doc, i in keys], dtype=float)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for m in range(count):
        scores = np.clip(0.5 + (0.08 + 0.04 * m) * sign + rng.normal(0.0, 0.25, len(keys)), 0.0, 1.0)
        path = directory / f"member-{m}.ndjson"
        with open(path, "w", encoding="utf-8") as handle:
            for (doc, i), score in zip(keys, scores.tolist()):
                handle.write(json.dumps({"doc_id": doc, "pair_index": i, "score": score, "source": f"member-{m}"}) + "\n")
        paths.append(path)
    return paths


def set_up(workload: Workload, seed: int, directory: Path) -> Inputs:
    data = directory / "data"
    truth = corpusgen.generate(data, workload.corpus, seed)
    members = []
    if workload.members:
        members = write_members(directory / "members", truth["validation"], workload.members, seed)
    return Inputs(data=data, difficulty=workload.corpus.difficulty, truth=truth, members=members)


def steps(workload: Workload, inputs: Inputs, out: Path, seed: int) -> list[Step]:
    difficulty = inputs.difficulty
    val_pairs = inputs.pairs("validation")
    truth_dir = str(inputs.split_dir("validation"))
    evaluate = Step("evaluate", ["evaluate", str(out / "solutions"), truth_dir, "--difficulty", difficulty, "--out", str(out / "report")], val_pairs)
    if workload.members:
        members = [str(p) for p in inputs.members] + [str(out / "random" / "predictions.ndjson")]
        return [
            Step("random-baseline", ["random-baseline", "--dataset-root", str(inputs.data), "--difficulty", difficulty, "--split", "validation", "--seed", str(seed), "--out", str(out / "random")], val_pairs),
            Step("ensemble-majority", ["ensemble", *members, "--mode", "majority", "--out", str(out / "majority")], val_pairs),
            Step("ensemble-mean", ["ensemble", *members, "--mode", "softmax_mean", "--out", str(out / "mean")], val_pairs),
            Step("solutions", ["solutions", str(out / "majority" / "predictions.ndjson"), "--out", str(out / "solutions")], val_pairs),
            evaluate,
        ]
    data = ["--dataset-root", str(inputs.data), "--difficulty", difficulty]
    truncation = ["--strategy", workload.strategy, "--budget", str(workload.budget)]
    return [
        Step("train", ["train", *data, "--split", "train", *truncation, "--seed", str(seed), "--out", str(out / "model")], inputs.pairs("train")),
        Step("predict", ["predict", *data, "--split", "validation", *truncation, "--model", str(out / "model" / "model.json"), "--out", str(out / "solutions")], val_pairs),
        evaluate,
    ]


def check_pass(checks: chk.Checks, workload: Workload, inputs: Inputs, gold: dict[int, list[int]],
               out: Path, result: Pass, first: Pass | None) -> None:
    """Verify one pass's files; fills result.macro_f1 and result.model_sha256."""
    pairs, docs = inputs.pairs("validation"), len(inputs.truth["validation"])
    if workload.members:
        random_file = out / "random" / "predictions.ndjson"
        checks.expect("random-baseline writes one line per pair", lambda: chk.line_count(random_file) == pairs)
        checks.expect("random-baseline writes one solution file per document",
                      lambda: len(chk.read_solutions(out / "random")) == docs)
        members = [chk.read_scores(p) for p in [*inputs.members, random_file]]
        checks.expect("majority ensemble matches a recomputed vote",
                      lambda: chk.same_scores(chk.majority_vote(members), chk.read_scores(out / "majority" / "predictions.ndjson")))
        checks.expect("softmax_mean ensemble matches a recomputed score mean",
                      lambda: chk.same_scores(chk.score_mean(members), chk.read_scores(out / "mean" / "predictions.ndjson")))
    else:
        model_file = out / "model" / "model.json"
        result.model_sha256 = hashlib.sha256(model_file.read_bytes()).hexdigest() if model_file.is_file() else ""
        if first is not None:
            checks.expect("model.json is byte-identical across passes",
                          lambda: bool(result.model_sha256) and result.model_sha256 == first.model_sha256)
        checks.expect("predictions.ndjson has one line per pair",
                      lambda: chk.line_count(out / "solutions" / "predictions.ndjson") == pairs)
    checks.expect("one solution file per document", lambda: len(chk.read_solutions(out / "solutions")) == docs)

    def f1_matches() -> bool:
        report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
        result.macro_f1 = float(report[inputs.difficulty]["macro_f1"])
        reference = chk.pooled_macro_f1(gold, chk.read_solutions(out / "solutions"))
        return abs(result.macro_f1 - reference) <= chk.TOLERANCE

    checks.expect("report macro_f1 matches a recomputed pooled F1", f1_matches)
    if first is not None:
        checks.expect("macro_f1 is identical across passes", lambda: result.macro_f1 == first.macro_f1)


def run_pass(workload: Workload, inputs: Inputs, gold: dict[int, list[int]], out: Path, seed: int,
             runner: Runner, checks: chk.Checks, first: Pass | None, deadline: float) -> Pass:
    result = Pass()
    start = time.perf_counter()
    for step in steps(workload, inputs, out, seed):
        code, wall, rss = runner(step.argv, deadline)
        checks.expect(f"{step.name} exits 0 (got {code})", lambda: code == 0)
        result.step_s[step.name] = wall
        result.peak_rss_mib = max(result.peak_rss_mib, rss)
        result.pairs += step.pairs
        if code != 0:
            result.ok = False
            return result
    result.wall_s = time.perf_counter() - start
    check_pass(checks, workload, inputs, gold, out, result, first)
    return result


def subprocess_runner(env: dict[str, str], log: Path) -> Runner:
    """Run `python -m styleseam.cli ARGV`; returns (exit code, wall s, peak RSS MiB) of that child."""

    def run(argv: list[str], deadline: float) -> tuple[int, float, float]:
        return run_child([sys.executable, "-m", "styleseam.cli", *argv], env, deadline, log)

    return run


def run_child(command: list[str], env: dict[str, str], deadline: float, log: Path) -> tuple[int, float, float]:
    """Run one child with stderr in `log`; on failure the log's tail goes to stderr."""
    with open(log, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        code, usage = _reap(proc, deadline)
        wall = time.perf_counter() - start
    if code != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
        print("\n".join([f"perfbench: {' '.join(command)} exited {code}:", *tail]), file=sys.stderr)
    return code, wall, usage.ru_maxrss / 1024.0


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for `proc`, killing it at `deadline`; returns (exit code, its rusage)."""
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be a
        # running maximum over every child so far.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def in_process_runner(cli) -> Runner:
    """Call cli.main(ARGV) in this process (through the module attribute, so wrappers apply)."""

    def run(argv: list[str], deadline: float) -> tuple[int, float, float]:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, time.perf_counter() - start, 0.0

    return run


def measure(seconds: float, deadline: float, min_passes: int,
            one_pass: Callable[[int, Pass | None], Pass]) -> list[Pass]:
    """Repeat passes for `seconds` (at least `min_passes`) unless one fails or time runs out.

    After the first `min_passes`, a pass starts only if one as long as the
    last still ends within `seconds`, so a run measures for about `seconds`.
    `one_pass(index, first)` gets the first pass, if any, to compare its
    outputs with.
    """
    passes: list[Pass] = []
    start = time.monotonic()
    last = 0.0
    while len(passes) < min_passes or time.monotonic() + last - start <= seconds:
        if time.monotonic() + last > deadline:
            break
        # Flush what earlier passes wrote, so no pass waits on their writeback.
        os.sync()
        began = time.monotonic()
        passes.append(one_pass(len(passes), passes[0] if passes else None))
        last = time.monotonic() - began
        if not passes[-1].ok:
            break
    return passes


def end_to_end(setup_s: list[float], passes: list[Pass], checks: chk.Checks) -> dict[str, float]:
    """Medians over the passes that completed (none completed: only setup_s and failed_ops)."""
    metrics = {"setup_s": median(setup_s), "failed_ops": len(checks.failures) / checks.attempted}
    good = [p for p in passes if p.ok]
    if not good:
        return metrics
    metrics |= {
        "wall_s": median(p.wall_s for p in good),
        "pairs_per_s": median(p.pairs / p.wall_s for p in good),
        "peak_rss_mib": median(p.peak_rss_mib for p in good),
        "macro_f1": good[0].macro_f1,
    }
    for name, step in (("train_s", "train"), ("predict_s", "predict")):
        if all(step in p.step_s for p in good):
            metrics[name] = median(p.step_s[step] for p in good)
    return metrics


def traced(workload: Workload, inputs: Inputs, gold: dict[int, list[int]], work: Path, seed: int,
           seconds: float, deadline: float, env: dict[str, str], checks: chk.Checks,
           spans_file: Path) -> dict[str, float]:
    sys.path.insert(0, str(SRC))
    import styleseam.cli as cli
    from styleseam import corpus, evaluation, features, model, tokenization

    modules = {"corpus": corpus, "tokenization": tokenization, "features": features,
               "model": model, "evaluation": evaluation, "cli": cli}
    startup = []
    for _ in range(3):
        code, wall, _ = run_child([sys.executable, "-c", "import styleseam.cli"], env, deadline, work / "startup.log")
        checks.expect(f"importing styleseam.cli exits 0 (got {code})", lambda: code == 0)
        startup.append(wall)

    runner = in_process_runner(cli)
    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    per_layer: list[dict[str, float]] = []

    def one_pass(index: int, first: Pass | None) -> Pass:
        # Plain and traced passes in the order ABBA ABBA ...; trace.overhead_s
        # compares their medians.
        out = work / PASS_OUTPUT
        if index % 4 in (0, 3):
            result = run_pass(workload, inputs, gold, out, seed, runner, checks, first, deadline)
            plain.append(result)
            return result
        state = layers.install(modules)
        try:
            result = run_pass(workload, inputs, gold, out, seed, runner, checks, first, deadline)
        finally:
            state.tracer.uninstall()
        traced_passes.append(result)
        per_layer.append(layers.metrics(state))
        state.tracer.write(spans_file)
        return result

    measure(seconds, deadline, MIN_TRACED_PASSES, one_pass)
    metrics = layers.median_metrics(per_layer) if per_layer else {}
    metrics["cli.startup_s"] = median(startup)
    ok_plain = [p.wall_s for p in plain if p.ok]
    ok_traced = [p.wall_s for p in traced_passes if p.ok]
    metrics["trace.overhead_s"] = median(ok_traced) - median(ok_plain) if ok_plain and ok_traced else 0.0
    return metrics


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict[str, object]:
    return {
        "git_sha": git_sha(),
        "src_sha256": corpusgen.tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def print_table(metrics: dict[str, float], units: dict[str, tuple[str, str]]) -> None:
    for name, (unit, _) in units.items():
        if name in metrics:
            print(f"  {name:<32} {metrics[name]:>16.6f} {unit}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the command sequence")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "styleseam" / "cli.py").is_file():
        print(f"perfbench: no styleseam sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{label}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    checks = chk.Checks()
    try:
        # Bytecode is compiled once here, as on any installed system, so no pass pays for it.
        work.mkdir(parents=True)
        code, _, _ = run_child([sys.executable, "-c", "import styleseam.cli"], env, deadline, work / "warmup.log")
        checks.expect(f"importing styleseam.cli exits 0 (got {code})", lambda: code == 0)

        setup_s, digests = [], []
        for i in range(SETUP_REPEATS):
            os.sync()
            start = time.perf_counter()
            candidate = set_up(workload, args.seed, work / f"setup-{i}")
            setup_s.append(time.perf_counter() - start)
            digests.append(corpusgen.tree_sha256(work / f"setup-{i}"))
            if i == 0:
                inputs = candidate
            else:
                shutil.rmtree(work / f"setup-{i}")
        inputs.sha256 = digests[0]
        checks.expect("set-up is byte-identical on every repeat", lambda: len(set(digests)) == 1)
        gold = chk.read_truth(inputs.split_dir("validation"))

        if args.trace:
            metrics = {"setup_s": median(setup_s)}
            metrics.update(traced(workload, inputs, gold, work, args.seed, args.seconds, deadline, env,
                                  checks, results / f"{label}-spans.json"))
            units, reported = layers.METRICS, layers.REPORTED
            passes = []
        else:
            runner = subprocess_runner(env, work / "command.log")

            def one_pass(index: int, first: Pass | None) -> Pass:
                return run_pass(workload, inputs, gold, work / PASS_OUTPUT, args.seed, runner, checks, first, deadline)

            passes = measure(args.seconds, deadline, MIN_PASSES, one_pass)
            metrics = end_to_end(setup_s, passes, checks)
            units, reported = {**END_TO_END, **SUMMARY_ONLY}, list(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # the next run should not wait on this run's deletes

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "corpus": {**asdict(workload.corpus), "sha256": inputs.sha256, "pairs": {s: inputs.pairs(s) for s in inputs.truth}},
        "setup_s": setup_s,
        "passes": [asdict(p) for p in passes],
        "metrics": metrics,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }
    (results / f"{label}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(f"perfbench {label}: {checks.attempted} operations, {len(checks.failures)} failed", file=sys.stderr)
    print_table(metrics, units)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name][0]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
