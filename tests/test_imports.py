"""Import boundaries: each CLI step loads only the modules it runs.

The text-only steps (split, kappa, match, preprocess, the text samplers)
and the benchmark's corpus generator must run without importing numpy,
which costs more start-up time than any of them spends working.  The
SVM `train` and `evaluate` steps import numpy but not `numpy.ma`.  Each
step also loads only the `rareclass` modules it runs: the classifier it
trains or scores with, and a sampler, the lexicon or the evaluation code
only when it runs them.  The layer functions perfbench/tracer.py wraps
are forwarders in `cli` and `pipeline` (see `rareclass.forwarder`), and
a traced step must still reach each wrapper.  No step loads OpenSSL
(`_hashlib`): input digests come from the interpreter's built-in SHA-256,
with `hashlib` only as the fallback for a build without it.  Each check
runs in a fresh interpreter, because this test process has long since
imported everything.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rareclass
from rareclass.demo import packaged_data_path

from conftest import PERFBENCH, perfbench_module

SRC = Path(rareclass.__file__).resolve().parent.parent
CORPUS_GEN = PERFBENCH / "corpus_gen.py"
NUMPY = {"numpy", "numpy.ma"}

# runs its arguments as a CLI step, then prints which of numpy, numpy.ma
# and OpenSSL's _hashlib, and which rareclass modules, were imported
_CLI_CHILD = """
import sys
from rareclass.cli import main
code = main(sys.argv[1:])
print("imported:", *[name for name in sys.modules if name in ("numpy", "numpy.ma", "_hashlib")
                     or name.startswith("rareclass.")])
sys.exit(code)
"""

# logs one input's digest with the built-in SHA-256 modules made unimportable,
# then prints whether hashlib was imported
_FALLBACK_CHILD = """
import logging, sys
from pathlib import Path
sys.modules["_sha2"] = sys.modules["_sha256"] = None
logging.basicConfig(stream=sys.stdout, level=logging.INFO, format="%(message)s")
from rareclass.cli import _log_input
_log_input("corpus", Path(sys.argv[1]))
print("imported:", *[name for name in ("hashlib",) if name in sys.modules])
"""

# runs a script as __main__ with the given arguments, then the same print
_SCRIPT_CHILD = """
import runpy, sys
path, sys.argv = sys.argv[1], sys.argv[1:]
runpy.run_path(path, run_name="__main__")
print("imported:", *[name for name in ("numpy", "numpy.ma") if name in sys.modules])
"""


def _run(child: str, args: list[str], cwd: Path) -> set[str]:
    """Which of numpy and numpy.ma (and, for a CLI step, _hashlib and which
    rareclass modules) were in `sys.modules` when the child finished."""
    return set(_child_stdout(child, args, cwd)[-1].split()[1:])


def _child_stdout(child: str, args: list[str], cwd: Path) -> list[str]:
    """The lines the child printed; it must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c", child, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    pairs = root / "pairs.tsv"
    pairs.write_text("id\tlabel_a\tlabel_b\nt1\tdefect\tdefect\nt2\tdefect\tnon_defect\n")
    return root, pairs


def _steps(root: Path, pairs: Path) -> dict[str, list[str]]:
    corpus = str(packaged_data_path("demo_corpus.tsv"))
    names = f"paths.name_lexicon={packaged_data_path('demo_names.txt')}"
    return {
        "split": ["split", "--corpus", corpus, "--out-dir", str(root / "splits")],
        "kappa": ["kappa", "--pairs", str(pairs)],
        "match": [
            "match", "--corpus", corpus,
            "--lexicon", str(packaged_data_path("demo_lexicon.txt")),
            "--out", str(root / "matches.tsv"),
            "--term-report", str(root / "terms.tsv"),
            "--annotate-spans", str(root / "annotated.tsv"),
        ],
        "preprocess classic": [
            "preprocess", "--corpus", corpus, "--set", names,
            "--pipeline", "classic", "--out", str(root / "classic.tsv"),
        ],
        "preprocess embedding": [
            "preprocess", "--corpus", corpus,
            "--pipeline", "embedding", "--out", str(root / "embedding.tsv"),
        ],
        "sample similar": [
            "sample", "--corpus", corpus, "--method", "similar",
            "--out", str(root / "sampled.tsv"),
        ],
    }


@pytest.mark.parametrize(
    "step",
    ["split", "kappa", "match", "preprocess classic", "preprocess embedding", "sample similar"],
)
def test_text_steps_leave_numpy_unimported(demo_files, step):
    root, pairs = demo_files
    imported = _run(_CLI_CHILD, _steps(root, pairs)[step], root)
    assert "numpy" not in imported, f"{step} imported numpy"


def test_numpy_steps_still_import_it(demo_files):
    """The child really reports an import: `train` needs numpy."""
    root, _ = demo_files
    train = [
        "train", "--corpus", str(packaged_data_path("demo_corpus.tsv")),
        "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
        "--set", "features.use_clusters=false",
        "--classifier", "nb", "--model", str(root / "nb.json"),
    ]
    assert "numpy" in _run(_CLI_CHILD, train, root)


def test_svm_train_and_evaluate_leave_numpy_ma_unimported(demo_files):
    root, _ = demo_files
    corpus = str(packaged_data_path("demo_corpus.tsv"))
    common = [
        "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
        "--set", f"paths.clusters={packaged_data_path('demo_clusters.tsv')}",
        "--model", str(root / "svm.json"),
    ]
    assert _run(_CLI_CHILD, ["train", "--corpus", corpus, *common], root) & NUMPY == {"numpy"}
    evaluate = ["evaluate", "--corpus", corpus, "--out", str(root / "report.tsv"), *common]
    assert _run(_CLI_CHILD, evaluate, root) & NUMPY == {"numpy"}


def test_corpus_generator_leaves_numpy_unimported(tmp_path):
    args = [str(CORPUS_GEN), "--seed", "1", "--size", "300", "--out-dir", str(tmp_path)]
    assert "numpy" not in _run(_SCRIPT_CHILD, args, tmp_path)
    assert (tmp_path / "corpus.tsv").is_file()


def test_exports_resolve_to_their_modules():
    assert rareclass.__all__ == sorted(rareclass._EXPORTS)
    assert set(rareclass.__all__) <= set(dir(rareclass))
    for name, module in rareclass._EXPORTS.items():
        defining = importlib.import_module(f"rareclass.{module}")
        assert getattr(rareclass, name) is getattr(defining, name), name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        rareclass.nope  # noqa: B018


# the rareclass modules each step loads; the package itself is not listed
_TEXT = {"cli", "config", "corpus", "errors", "rng"}
_NUMPY_STEP = _TEXT | {"features", "model_store", "normalize", "pipeline", "porter"}
STEP_MODULES = {
    "split": _TEXT,
    "kappa": _TEXT,
    "match": _TEXT | {"lexicon"},
    "sample similar": _TEXT | {"sampling"},
    "train nb": _NUMPY_STEP | {"naive_bayes"},
    "train svm": _NUMPY_STEP | {"svm"},
    "evaluate nb": _NUMPY_STEP | {"naive_bayes", "evaluation"},
    "evaluate svm": _NUMPY_STEP | {"svm", "evaluation"},
}


# every subcommand: the steps of `STEP_MODULES` and the rest
EVERY_STEP = [
    *STEP_MODULES, "preprocess classic", "preprocess embedding", "featurize",
    "rank-features", "report-errors",
]


@pytest.fixture(scope="module")
def step_modules(demo_files):
    """The rareclass modules, and _hashlib if it was, each step of `EVERY_STEP`
    loaded, each step in a fresh interpreter; the train steps write the models the
    evaluate and report-errors steps read."""
    root, pairs = demo_files
    steps = _steps(root, pairs)
    corpus = str(packaged_data_path("demo_corpus.tsv"))
    common = [
        "--corpus", corpus,
        "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
        "--set", f"paths.clusters={packaged_data_path('demo_clusters.tsv')}",
    ]
    for kind in ("nb", "svm"):
        model = ["--model", str(root / f"modules-{kind}.json")]
        steps[f"train {kind}"] = ["train", *common, *model, "--classifier", kind]
        steps[f"evaluate {kind}"] = ["evaluate", *common, *model]
    steps["featurize"] = ["featurize", *common, "--out", str(root / "features.json")]
    steps["rank-features"] = ["rank-features", *common, "--out", str(root / "ranked.tsv")]
    steps["report-errors"] = [
        "report-errors", *common, "--model", str(root / "modules-svm.json"),
        "--out", str(root / "errors.tsv"),
    ]
    return {
        step: {name.removeprefix("rareclass.") for name in _run(_CLI_CHILD, steps[step], root)} - NUMPY
        for step in EVERY_STEP
    }


@pytest.mark.parametrize("step", list(STEP_MODULES))
def test_each_step_loads_only_the_modules_it_runs(step_modules, step):
    assert step_modules[step] == STEP_MODULES[step]


@pytest.mark.parametrize("step", EVERY_STEP)
def test_no_step_loads_openssl(step_modules, step):
    assert "_hashlib" not in step_modules[step]


def test_digest_falls_back_to_hashlib_without_the_builtin_modules(tmp_path):
    path = tmp_path / "input.tsv"
    path.write_bytes(b"id\tlabel\ttext\n")
    log, imported = _child_stdout(_FALLBACK_CHILD, [str(path)], tmp_path)
    assert log == f"corpus: {path} (sha256:{hashlib.sha256(path.read_bytes()).hexdigest()[:12]})"
    assert imported.split()[1:] == ["hashlib"]


# each traced step, and the wrapped layers it must reach
TRACED_STEPS = {
    "match": {"corpus.load", "lexicon.match", "lexicon.post_filter", "corpus.save"},
    "sample": {"corpus.load", "sampling.similar", "corpus.save"},
    "train svm": {
        "corpus.load", "normalize.classic", "porter.stem", "features.ngrams",
        "features.vocabulary", "features.fit_scaler", "features.apply_scaler", "svm.train",
        "model_store.save",
    },
    "evaluate svm": {
        "corpus.load", "model_store.load", "normalize.classic", "porter.stem",
        "features.ngrams", "features.apply_scaler", "svm.predict", "evaluation.evaluate",
    },
    "train nb": {
        "corpus.load", "normalize.classic", "porter.stem", "features.ngrams",
        "features.vocabulary", "sampling.smote", "naive_bayes.train", "model_store.save",
    },
    "evaluate nb": {
        "corpus.load", "model_store.load", "normalize.classic", "porter.stem",
        "features.ngrams", "naive_bayes.predict", "evaluation.evaluate",
    },
}


@pytest.fixture(scope="module")
def traced_steps(tmp_path_factory):
    """Each step of `TRACED_STEPS` run on the demo corpus through
    perfbench/tracer.py: its spans document, by step."""
    root = tmp_path_factory.mktemp("traced")
    corpus = ["--corpus", str(packaged_data_path("demo_corpus.tsv"))]
    inputs = [
        "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
        "--set", f"paths.clusters={packaged_data_path('demo_clusters.tsv')}",
    ]
    # SMOTE and Gaussian NB, as the benchmark trains them
    nb = ["--sampler", "smote", "--classifier", "nb", "--set", "nb.event_model=gaussian"]
    argv = {
        "match": [
            "match", *corpus, "--lexicon", str(packaged_data_path("demo_lexicon.txt")),
            "--out", "matches.tsv", "--annotate-spans", "annotated.tsv",
        ],
        "sample": ["sample", *corpus, "--method", "similar", "--out", "sampled.tsv"],
        "train svm": ["train", *corpus, *inputs, "--model", "svm.json"],
        "evaluate svm": ["evaluate", *corpus, *inputs, "--model", "svm.json"],
        "train nb": ["train", *corpus, *inputs, "--model", "nb.json", *nb],
        "evaluate nb": ["evaluate", *corpus, *inputs, "--model", "nb.json"],
    }
    docs = {}
    for step in TRACED_STEPS:
        spans = root / f"{step.replace(' ', '-')}.spans.json"
        done = subprocess.run(
            [sys.executable, str(PERFBENCH / "tracer.py"), str(spans), "--", *argv[step]],
            cwd=root,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        docs[step] = json.loads(spans.read_text(encoding="utf-8"))
    return root, docs


@pytest.mark.parametrize("step", list(TRACED_STEPS))
def test_traced_steps_reach_every_wrapper(traced_steps, step):
    _, docs = traced_steps
    doc = docs[step]
    assert {doc["names"][span[0]] for span in doc["spans"]} == TRACED_STEPS[step] | {"cli.main"}


@pytest.mark.parametrize("kind", ["svm", "nb"])
def test_traced_counters_read_the_step(traced_steps, kind):
    root, docs = traced_steps
    tracer = perfbench_module("tracer")
    model = json.loads((root / f"{kind}.json").read_text(encoding="utf-8"))
    iterations = sum(pair["iterations"] for pair in model["svm"]["pairs"]) if kind == "svm" else 0
    assert iterations > 0 or kind == "nb"
    train, evaluate = (tracer.summarize([docs[f"{c} {kind}"]], [1.0]) for c in ("train", "evaluate"))
    assert train["svm.smo_iterations"] == iterations
    assert train["features.vocab_dim"] == len(model["vocabulary"]["names"]) > 0
    assert train["normalize.docs"] == evaluate["normalize.docs"] == 500  # the demo corpus


def test_traced_match_and_sample_counters(traced_steps):
    _, docs = traced_steps
    tracer = perfbench_module("tracer")
    assert tracer.summarize([docs["match"]], [1.0])["lexicon.matches"] > 0
    sample = tracer.summarize([docs["sample"]], [1.0])
    assert 0 < sample["sampling.majority_kept"] < sample["sampling.majority_in"]
