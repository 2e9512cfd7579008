"""Import boundaries: each CLI step loads only the modules it runs.

The text-only steps (split, kappa, match, preprocess, the text samplers)
and the benchmark's corpus generator must run without importing numpy,
which costs more start-up time than any of them spends working.  The
SVM `train` and `evaluate` steps import numpy but not `numpy.ma`.  Each
check runs in a fresh interpreter, because this test process has long
since imported everything.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rareclass
from rareclass.demo import packaged_data_path

SRC = Path(rareclass.__file__).resolve().parent.parent
CORPUS_GEN = Path(__file__).resolve().parent.parent / "perfbench" / "corpus_gen.py"

# runs its arguments as a CLI step, then prints which of numpy and
# numpy.ma were imported
_CLI_CHILD = """
import sys
from rareclass.cli import main
code = main(sys.argv[1:])
print("imported:", *[name for name in ("numpy", "numpy.ma") if name in sys.modules])
sys.exit(code)
"""

# runs a script as __main__ with the given arguments, then the same print
_SCRIPT_CHILD = """
import runpy, sys
path, sys.argv = sys.argv[1], sys.argv[1:]
runpy.run_path(path, run_name="__main__")
print("imported:", *[name for name in ("numpy", "numpy.ma") if name in sys.modules])
"""


def _run(child: str, args: list[str], cwd: Path) -> set[str]:
    """Which of numpy and numpy.ma were in `sys.modules` when the child finished."""
    done = subprocess.run(
        [sys.executable, "-c", child, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.strip().splitlines()[-1].split()[1:])


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
    assert _run(_CLI_CHILD, ["train", "--corpus", corpus, *common], root) == {"numpy"}
    evaluate = ["evaluate", "--corpus", corpus, "--out", str(root / "report.tsv"), *common]
    assert _run(_CLI_CHILD, evaluate, root) == {"numpy"}


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
