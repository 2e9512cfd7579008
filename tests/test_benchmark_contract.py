"""What the benchmark under perfbench/ relies on in this package.

The benchmark drives the CLI from outside: its tracer wraps layer
functions by module and name and reads counters off their return
values, and its checks read the model files.  These tests load those
perfbench modules as they are and change nothing there.
"""

import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rareclass.cli import main
from rareclass.corpus import Label
from rareclass.demo import packaged_data_path
from rareclass.features import CsrMatrix, build_vocabulary, vectorize
from rareclass.model_store import load_model
from rareclass.sampling import smote

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _perfbench_module("tracer")
checks = _perfbench_module("checks")


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """A demo-corpus split, an SVM model and a SMOTE + Gaussian NB model."""
    root = tmp_path_factory.mktemp("contract")
    common = [
        "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
        "--set", f"paths.clusters={packaged_data_path('demo_clusters.tsv')}",
    ]
    corpus = str(packaged_data_path("demo_corpus.tsv"))
    assert main(["split", "--corpus", corpus, "--out-dir", str(root), *common]) == 0
    train = str(root / "train.tsv")
    assert main(["train", "--corpus", train, "--model", str(root / "svm.json"), *common]) == 0
    nb_flags = ["--sampler", "smote", "--classifier", "nb", "--set", "nb.event_model=gaussian"]
    nb_model = str(root / "nb.json")
    assert main(["train", "--corpus", train, "--model", nb_model, *nb_flags, *common]) == 0
    return root


def test_wrapped_functions_resolve():
    for module, attr, _ in tracer.WRAPPED:
        function = getattr(importlib.import_module(f"rareclass.{module}"), attr)
        assert callable(function), (module, attr)


def test_vectorize_row_has_indices():
    vocab = build_vocabulary([Counter({"a": 1, "b": 1})], min_df=1)
    row = vectorize(Counter({"a": 2, "b": 1, "c": 1}), None, vocab)
    recorder = tracer.Recorder()
    tracer.OBSERVERS["features.vectorize"](recorder, (), row)
    assert recorder.counts["features.nnz"] == len(row.indices) == 2


def test_smote_report_counts_synthetic_rows():
    rng = np.random.default_rng(7)
    labels = [Label.DEFECT] * 3 + [Label.POSSIBLE_DEFECT] * 4 + [Label.NON_DEFECT] * 14
    dense = rng.uniform(-1, 1, (len(labels), 3))
    x = CsrMatrix.from_arrays(np.arange(0, dense.size + 1, 3), np.tile([0, 1, 2], len(labels)),
                              dense.ravel(), 3)
    result = smote(x, labels, k_neighbors=2, seed=1)
    recorder = tracer.Recorder()
    tracer.OBSERVERS["sampling.smote"](recorder, (x, labels), result)
    synthetic = result[0].n_rows - x.n_rows
    assert synthetic == 3 * 3 + 4 * 2
    assert recorder.counts["sampling.synthetic_vectors"] == synthetic


def test_pair_support_counts_support_vectors(demo_run):
    model = load_model(demo_run / "svm.json").classifier
    recorder = tracer.Recorder()
    tracer.OBSERVERS["svm.train"](recorder, (), model)
    for pair in model.pairs:
        assert len(pair.support) == len(pair.alpha) > 0
    assert recorder.counts["svm.support_vectors"] == sum(len(pair.alpha) for pair in model.pairs)


def test_svm_model_passes_benchmark_check(demo_run):
    model = json.loads((demo_run / "svm.json").read_text(encoding="utf-8"))
    train = checks.read_corpus(demo_run / "train.tsv")
    assert checks.check_svm_model(model, train) == []


def test_smote_gaussian_model_passes_benchmark_check(demo_run):
    model = json.loads((demo_run / "nb.json").read_text(encoding="utf-8"))
    train = checks.read_corpus(demo_run / "train.tsv")
    assert checks.check_smote_gaussian_model(model, train) == []
