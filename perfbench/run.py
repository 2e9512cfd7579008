"""Outside-in benchmark of the rareclass CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload svm-pipeline --seed 1 --seconds 20 --trace 0

Set-up writes the workload's inputs from the seed, then times the input
generator as its own process again and again for about two seconds.
Then the workload runs as a closed loop with one client: each round runs
the workload's CLI steps one after another, each as its own
``python -m rareclass.cli`` process with BLAS/OpenMP thread counts set to
1, and rounds repeat until ``--seconds`` have passed (at least two).
``evaluate`` (and, where it is cheap, ``train``) rewrites the same outputs
from the same inputs, so a round runs it several times.  The first
round's outputs are checked against properties of the method (see
checks.py); every later round must reproduce them byte for byte.

This process, its speed probe and every step share one CPU.  Each time is
a step's CPU time corrected by the probe for the speed of that CPU while
the step ran (see speed.py), and each step's time is its median over the
run; peak RSS is a median over rounds.

With ``--trace 1`` untraced and traced rounds alternate.  A traced round
runs the same steps through perfbench/tracer.py, which wraps each layer's
public functions and records spans; per-layer metrics are medians over
traced rounds, and ``trace.overhead_s`` is the traced ``experiment_s``
minus the untraced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one CLI step.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import speed
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SECONDS = 2.0  # set-up repeats until this much time has passed
MIN_SETUP_REPEATS = 5
MIN_ROUNDS = 2
EVALUATE_REPEATS = 3
STEP_TIMEOUT_S = 150.0
SIMILARITY_K = "0.85"
VALIDATION_FRACTION = "0.2"
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    model_check: Callable[[dict, list], list[str]]
    test_fraction: str = "0.2"
    annotate: bool = False  # run `match --annotate-spans` first
    sample: bool = False  # run `sample --method similar` before training
    train_flags: tuple[str, ...] = ()
    # `train` and `evaluate` rewrite the same outputs from the same inputs,
    # so a round can run them several times for more samples; `train` is
    # repeated only where one run is cheap
    train_repeats: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's main experiment: lexicon, normalization, features, the
        # scaler, RBF SVM and the model file do the work; no sampler
        Workload("svm-pipeline", 12_000, checks.check_svm_model, annotate=True),
        # both samplers and the other classifier: the greedy Levenshtein scan
        # over the training split does most of the work, then SMOTE and
        # Gaussian NB; no lexicon, scaler or SMO.  The large test share
        # measures rare-class F1 on many tweets while the quadratic scan
        # sees only the small training split.
        Workload(
            "similar-smote-nb",
            2_400,
            checks.check_smote_gaussian_model,
            test_fraction="0.93",
            sample=True,
            train_flags=("--sampler", "smote", "--classifier", "nb", "--set", "nb.event_model=gaussian"),
            train_repeats=3,
        ),
    )
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


@dataclass
class StepResult:
    name: str
    seconds: float  # CPU time at the reference speed (see speed.py)
    wall_seconds: float
    cpu_seconds: float
    probe_units_per_s: float
    peak_rss_mb: float
    exit_code: int


@dataclass
class Round:
    directory: Path
    traced: bool
    steps: list[StepResult] = field(default_factory=list)

    def times(self, name: str) -> list[float]:
        return [s.seconds for s in self.steps if s.name == name]


def run_process(name: str, argv: list[str], log_prefix: Path) -> StepResult:
    """Run one child to completion next to a speed probe."""
    env = dict(os.environ, **CHILD_ENV)
    with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with speed.SpeedProbe() as probe:  # runs only while the child does
                _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return StepResult(
        name, probe.corrected(cpu), wall, cpu, probe.units_per_s(), usage.ru_maxrss / 1024.0, proc.returncode
    )


def steps_for(workload: Workload, inputs: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    common = [
        "--set", f"paths.name_lexicon={rel(inputs['names'])}",
        "--set", f"paths.clusters={rel(inputs['clusters'])}",
        "--set", f"split.test_fraction={workload.test_fraction}",
        "--set", f"split.validation_fraction={VALIDATION_FRACTION}",
        "--set", f"sampler.k={SIMILARITY_K}",
    ]
    corpus = rel(inputs["corpus"])
    steps: list[tuple[str, list[str]]] = []
    if workload.annotate:
        steps.append((
            "match",
            ["match", "--corpus", corpus, "--lexicon", rel(inputs["lexicon"]),
             "--out", rel(out / "matches.tsv"), "--annotate-spans", rel(out / "annotated.tsv")],
        ))
        corpus = rel(out / "annotated.tsv")
    steps.append(("split", ["split", "--corpus", corpus, "--out-dir", rel(out / "splits")]))
    train_corpus = rel(out / "splits" / "train.tsv")
    if workload.sample:
        steps.append((
            "sample",
            ["sample", "--corpus", train_corpus, "--method", "similar",
             "--out", rel(out / "sampled.tsv"), "--report", rel(out / "sampled.report.txt")],
        ))
        train_corpus = rel(out / "sampled.tsv")
    steps += [(
        "train",
        ["train", "--corpus", train_corpus, "--model", rel(out / "model.json"), *workload.train_flags],
    )] * workload.train_repeats
    steps += [(
        "evaluate",
        ["evaluate", "--corpus", rel(out / "splits" / "test.tsv"), "--model", rel(out / "model.json"),
         "--out", rel(out / "report.tsv")],
    )] * EVALUATE_REPEATS
    return [(name, args + common) for name, args in steps]


def run_round(workload: Workload, inputs: dict[str, Path], out: Path, traced: bool) -> Round:
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    result = Round(out, traced)
    failed = False
    for name, args in steps_for(workload, inputs, out):
        if failed:  # a whole round is always attempted; later steps count as failed
            result.steps.append(StepResult(name, 0.0, 0.0, 0.0, 0.0, 0.0, -1))
            continue
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(out / f"{name}.spans.json"), "--", *args]
        else:
            argv = [sys.executable, "-m", "rareclass.cli", *args]
        result.steps.append(run_process(name, argv, out / name))
        failed = result.steps[-1].exit_code != 0
    return result


# -- output checks -------------------------------------------------------------


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every output the checks read, by file name."""
    names = ["model.json", "report.tsv", "splits/train.tsv", "splits/validation.tsv", "splits/test.tsv",
             "annotated.tsv", "sampled.tsv"]
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in names
        if (out / name).exists()
    }


def check_outputs(workload: Workload, generated, inputs: dict[str, Path], out: Path, seed: int) -> list[str]:
    source = checks.read_corpus(out / "annotated.tsv" if workload.annotate else inputs["corpus"])
    parts = {name: checks.read_corpus(out / "splits" / f"{name}.tsv") for name in ("train", "validation", "test")}
    problems = checks.check_split(source, parts, workload.test_fraction, VALIDATION_FRACTION)
    if workload.annotate:
        planted = {p.tweet_id: (p.span, p.surface) for p in generated.planted}
        problems += checks.check_spans(source, planted)
    train = parts["train"]
    if workload.sample:
        sampled = checks.read_corpus(out / "sampled.tsv")
        problems += checks.check_similar_sample(train, sampled, float(SIMILARITY_K), seed)
        train = sampled
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    problems += workload.model_check(model, train)
    report = checks.read_report(out / "report.tsv")
    problems += checks.check_report(report, parts["test"])
    instances = (out / "evaluate.out").read_text(encoding="utf-8").splitlines()[0]
    if instances != f"instances: {len(parts['test'])}":
        problems.append(f"evaluate: printed {instances!r} for {len(parts['test'])} test tweets")
    return problems


# -- metrics -------------------------------------------------------------------

def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind ("end_to_end" or "per_layer") from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def step_times(rounds: list[Round]) -> dict[str, float]:
    """Each step's median corrected time over all its runs in the rounds."""
    return {s.name: statistics.median(t for r in rounds for t in r.times(s.name)) for s in rounds[0].steps}


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict[str, float]:
    times = step_times(rounds)
    out = rounds[0].directory
    test_docs = len(checks.read_corpus(out / "splits" / "test.tsv"))
    return {
        "setup_s": setup_s,
        "experiment_s": sum(times.values()),
        "train_s": times["train"],
        "predict_docs_per_s": test_docs / times["evaluate"],
        "peak_rss_mb": statistics.median(max(s.peak_rss_mb for s in r.steps) for r in rounds),
        # identical in every round: the rounds are checked byte for byte
        "model_bytes": float((out / "model.json").stat().st_size),
        "rare_f1": checks.rare_f1(checks.read_report(out / "report.tsv")),
    }


def layer_metrics(r: Round) -> dict[str, float]:
    # a repeated step leaves the spans of its last run, so use that run's probe rate
    rates = {s.name: s.probe_units_per_s for s in r.steps}
    docs = [json.loads((r.directory / f"{name}.spans.json").read_text(encoding="utf-8")) for name in rates]
    return tracer.summarize(docs, [speed.scale(rate) for rate in rates.values()])


def run_record(workload: Workload, seed: int, attempted: int, failed: int, rounds: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(rel(path).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "size": workload.size,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


# -- main ----------------------------------------------------------------------


def set_up(workload: Workload, seed: int):
    """Generate and write the inputs, then time the generator as a command.

    The generator runs in this process once, untimed, for the checks.
    Then ``corpus_gen.py`` runs as its own process until SETUP_SECONDS have
    passed, at least MIN_SETUP_REPEATS times, and every copy it writes
    must have the same bytes.  Returns the generated corpus, the written
    paths, and the median corrected time.
    """
    import corpus_gen

    generated = corpus_gen.generate(seed, workload.size)
    inputs = corpus_gen.write_inputs(generated, WORK / "inputs")
    expected = {path.name: path.read_bytes() for path in inputs.values()}
    target = WORK / "setup"
    argv = [sys.executable, str(BENCH_DIR / "corpus_gen.py"), "--seed", str(seed), "--size", str(workload.size),
            "--out-dir", str(target)]
    times = []
    started = time.perf_counter()
    while len(times) < MIN_SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
        if target.exists():
            shutil.rmtree(target)
        target.mkdir()
        step = run_process("setup", argv, WORK / "setup")
        if step.exit_code != 0:
            raise BenchError(f"the input generator exited with {step.exit_code}; see {rel(WORK / 'setup.err')}")
        if {name: (target / name).read_bytes() for name in expected} != expected:
            raise BenchError("the input generator wrote different bytes for the same seed")
        times.append(step.seconds)
    return generated, inputs, statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "rareclass" / "cli.py").is_file():
        raise BenchError(f"no rareclass sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import rareclass

    if Path(rareclass.__file__).resolve().parent != (SRC / "rareclass").resolve():
        raise BenchError(f"imported rareclass from {rareclass.__file__}, not from {SRC}")

    if WORK.exists():  # outputs of an earlier run
        shutil.rmtree(WORK)
    WORK.mkdir()
    # the steps, the speed probe and this process share one CPU, so the
    # probe measures the speed of the CPU each step runs on
    cpu = speed.pin_to_one_cpu()
    generated, inputs, setup_s = set_up(workload, args.seed)

    rounds: list[Round] = []
    problems: list[str] = []
    reference: dict[str, str] | None = None
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        r = run_round(workload, inputs, WORK / f"round{len(rounds)}", traced)
        rounds.append(r)
        if any(s.exit_code != 0 for s in r.steps):
            # counted in `failed`; the checks speak of the steps that succeeded
            print(f"round {len(rounds) - 1}: step exit codes {[s.exit_code for s in r.steps]}", file=sys.stderr)
            continue
        digest = output_digest(r.directory)
        if reference is None:
            reference = digest
            problems += check_outputs(workload, generated, inputs, r.directory, args.seed)
        elif digest != reference:
            changed = sorted(name for name in digest if digest[name] != reference.get(name))
            problems.append(f"round {len(rounds) - 1}: outputs differ from the first round: {changed}")

    attempted = sum(len(r.steps) for r in rounds)
    failed = sum(1 for r in rounds for s in r.steps if s.exit_code != 0)
    complete = [r for r in rounds if all(s.exit_code == 0 for s in r.steps)]
    plain = [r for r in complete if not r.traced]
    traced_rounds = [r for r in complete if r.traced]
    if not plain or (args.trace and not traced_rounds):
        raise BenchError("no complete round to measure; see the step logs under " + rel(WORK))

    end_to_end = end_to_end_metrics(plain, setup_s)

    if args.trace:
        layers = [layer_metrics(r) for r in traced_rounds]
        traced_exp = sum(step_times(traced_rounds).values())
        layers = [dict(layer, **{"trace.overhead_s": traced_exp - end_to_end["experiment_s"]}) for layer in layers]
        units = metric_units("per_layer")
        # a layer that did no work in this workload has no span: it reads 0
        metrics = {name: statistics.median(layer.get(name, 0.0) for layer in layers) for name in units}
    else:
        units = metric_units("end_to_end")
        metrics = {name: end_to_end[name] for name in units}

    record = run_record(workload, args.seed, attempted, failed, len(rounds))
    record["cpu"] = cpu
    record["end_to_end"] = end_to_end
    record["steps"] = [
        [(s.name, s.seconds, s.wall_seconds, s.cpu_seconds, s.probe_units_per_s) for s in r.steps] for r in rounds
    ]
    record["problems"] = problems
    (WORK / f"record-{workload.name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print("run-record " + json.dumps({k: v for k, v in record.items() if k not in ("end_to_end", "steps", "problems")}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
