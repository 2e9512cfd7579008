"""Seeded fuzzing of every input file kind through the CLI.

Each case mutates one small, valid input file, either at the byte level
or, for the JSON files, at one leaf or key, and runs the subcommand that
reads it in-process through `main`.  A malformed file may be accepted
(exit 0) or rejected as a usage or data error (exit 1 or 2); an internal
error (exit 3) or an uncaught exception fails the test.
"""

import json
import math
import random

import pytest

from rareclass.cli import main
from rareclass.demo import packaged_data_path

SEED = 20261018
BYTE_CASES = 20  # per input kind
LEAF_CASES = 30  # per JSON kind


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid small inputs: a 40-tweet corpus, the demo lexicons, a config,
    an SVM model and a features file."""
    root = tmp_path_factory.mktemp("fuzz")
    header, *rows = packaged_data_path("demo_corpus.tsv").read_text(encoding="utf-8").splitlines()
    quota = {"defect": 6, "possible_defect": 6, "non_defect": 28}
    kept = []
    for row in rows:
        label = row.split("\t")[2]
        if quota[label]:
            quota[label] -= 1
            kept.append(row)
    files = {"corpus": root / "corpus.tsv"}
    files["corpus"].write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    for kind, name in (
        ("lexicon", "demo_lexicon.txt"),
        ("names", "demo_names.txt"),
        ("clusters", "demo_clusters.tsv"),
    ):
        files[kind] = root / name
        files[kind].write_bytes(packaged_data_path(name).read_bytes())
    files["config"] = root / "run.cfg"
    files["config"].write_text(
        f"paths.name_lexicon = {files['names']}\n"
        f"paths.clusters = {files['clusters']}\n"
        "features.min_df = 1\n",
        encoding="utf-8",
    )
    files["model"] = root / "model.json"
    files["features"] = root / "features.json"
    base = ["--config", str(files["config"]), "--corpus", str(files["corpus"])]
    assert main(["train", *base, "--model", str(files["model"])]) == 0
    assert main(["featurize", *base, "--out", str(files["features"])]) == 0
    return files


def _argv(kind, path, files, out):
    """The subcommand that reads a file of this kind from `path`."""
    config = files["config"] if kind != "config" else path
    base = ["--config", str(config), "--corpus", str(files["corpus"])]
    if kind == "corpus":
        return ["train", "--config", str(config), "--corpus", str(path), "--model", str(out)]
    if kind == "lexicon":
        return ["match", *base, "--lexicon", str(path), "--out", str(out)]
    if kind == "model":
        return ["evaluate", *base, "--model", str(path)]
    if kind == "features":
        return ["rank-features", *base, "--features", str(path), "--out", str(out)]
    override = {"names": "paths.name_lexicon", "clusters": "paths.clusters"}.get(kind)
    extra = ["--set", f"{override}={path}"] if override else []
    return ["featurize", *base, *extra, "--out", str(out)]


def _mutate_bytes(rnd, data: bytes) -> bytes:
    data = bytearray(data)
    at = rnd.randrange(len(data))
    op = rnd.randrange(5)
    if op == 0:
        data[at] = rnd.randrange(256)
    elif op == 1:
        del data[at]
    elif op == 2:
        data.insert(at, rnd.choice(b"\t\n\r 0-9.e\xff\xc3"))
    elif op == 3:
        del data[at:]
    else:  # repeat a stretch
        data[at:at] = data[at : at + rnd.randrange(1, 40)]
    return bytes(data)


REPLACEMENTS = (
    "x", [], {}, None, True, math.nan, math.inf, -math.inf, 1e308, -1, 0, 10**30, 10**400,
)


def _mutate_leaf(rnd, doc):
    """Replace or delete one randomly walked-to value of a JSON document."""
    parent, key, value = None, None, doc
    while isinstance(value, (dict, list)) and value and (parent is None or rnd.random() > 0.2):
        key = rnd.choice(list(value)) if isinstance(value, dict) else rnd.randrange(len(value))
        parent, value = value, value[key]
    if parent is None:
        return REPLACEMENTS[rnd.randrange(len(REPLACEMENTS))]
    if isinstance(parent, dict) and rnd.random() < 0.15:
        del parent[key]
    else:
        parent[key] = REPLACEMENTS[rnd.randrange(len(REPLACEMENTS))]
    return doc


def test_mutated_inputs_never_exit_internal(inputs, tmp_path):
    files = inputs
    rnd = random.Random(SEED)
    cases = []
    for kind, path in files.items():
        original = path.read_bytes()
        cases += [(kind, f"bytes {i}", _mutate_bytes(rnd, original)) for i in range(BYTE_CASES)]
        if path.suffix == ".json":
            for i in range(LEAF_CASES):
                doc = _mutate_leaf(rnd, json.loads(original))
                cases.append((kind, f"leaf {i}", json.dumps(doc).encode()))
    assert len(cases) == 7 * BYTE_CASES + 2 * LEAF_CASES
    failures = []
    for kind, name, data in cases:
        path = tmp_path / f"mutated{files[kind].suffix}"
        path.write_bytes(data)
        argv = _argv(kind, path, files, tmp_path / "out")
        try:
            code = main(argv)
        except Exception as exc:  # main should have turned it into exit 3
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 1, 2):
            failures.append((kind, name, code))
    assert failures == []
