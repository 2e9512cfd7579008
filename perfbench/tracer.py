"""Traced CLI step: runs ``rareclass.cli.main`` with every layer wrapped.

Usage::

    python3 perfbench/tracer.py SPANS_JSON -- <rareclass CLI arguments>

The step runs in this process through ``rareclass.cli.main``, exactly as
``python -m rareclass.cli`` would run it, with the public functions of
each layer replaced, under the names through which ``rareclass.cli``,
``rareclass.pipeline`` and ``rareclass.normalize`` call them, by wrappers
that record a span (name, parent, start, end) and counters taken from
the returned values.  Nothing inside the package is changed.  Spans are
timed in the process's CPU time, so that the benchmark can correct them
for the CPU's speed as it does step times (see speed.py).  They stay in
memory and are written to SPANS_JSON when the step ends.

`summarize` turns the spans of several steps into per-layer self times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); the module is the one whose global the
# caller looks the function up in
WRAPPED = (
    ("cli", "load_corpus", "corpus.load"),
    ("cli", "save_corpus", "corpus.save"),
    ("cli", "three_way_split", "corpus.split"),
    ("cli", "match_corpus", "lexicon.match"),
    ("cli", "post_filter", "lexicon.post_filter"),
    ("cli", "undersample_similar_majority", "sampling.similar"),
    ("cli", "save_model", "model_store.save"),
    ("cli", "load_model", "model_store.load"),
    ("pipeline", "classic_normalize", "normalize.classic"),
    ("normalize", "porter_stem", "porter.stem"),
    ("pipeline", "extract_ngrams", "features.ngrams"),
    ("pipeline", "build_vocabulary", "features.vocabulary"),
    ("pipeline", "vectorize", "features.vectorize"),
    ("pipeline", "fit_scaler", "features.fit_scaler"),
    ("pipeline", "apply_scaler", "features.apply_scaler"),
    ("pipeline", "undersample_similar_majority", "sampling.similar"),
    ("pipeline", "smote", "sampling.smote"),
    ("pipeline", "train_svm", "svm.train"),
    ("pipeline", "predict_svm", "svm.predict"),
    ("pipeline", "train_nb", "naive_bayes.train"),
    ("pipeline", "predict_nb", "naive_bayes.predict"),
    ("pipeline", "evaluate_predictions", "evaluation.evaluate"),
)

ROOT = "cli.main"


class Recorder:
    """Spans and counters of one traced step, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stemmed: set[str] = set()

    def wrap(self, fn, name: str, observe):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.process_time

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name_id, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def dump(self, path: Path, command: str, exit_code: int) -> None:
        doc = {
            "command": command,
            "exit_code": exit_code,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts, **{"porter.distinct_words": len(self.stemmed)}),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _post_filter(rec, args, result):
    rec.counts["lexicon.matches"] += len(result)


def _normalize(rec, args, result):
    rec.counts["normalize.docs"] += 1


def _stem(rec, args, result):
    rec.counts["porter.calls"] += 1
    rec.stemmed.add(args[0])


def _vocabulary(rec, args, result):
    rec.counts["features.vocab_dim"] = result.dim


def _vectorize(rec, args, result):
    rec.counts["features.vectors"] += 1
    rec.counts["features.nnz"] += len(result.indices)


def _similar(rec, args, result):
    _, report = result
    majority = next(label for label in report.input_counts if label.value == "non_defect")
    rec.counts["sampling.majority_in"] += report.input_counts[majority]
    rec.counts["sampling.majority_kept"] += report.output_counts[majority]


def _smote(rec, args, result):
    _, report = result
    rec.counts["sampling.synthetic_vectors"] += sum(report.output_counts.values()) - sum(
        report.input_counts.values()
    )


def _train_svm(rec, args, result):
    rec.counts["svm.smo_iterations"] += sum(pair.iterations for pair in result.pairs)
    rec.counts["svm.support_vectors"] += sum(len(pair.support) for pair in result.pairs)


OBSERVERS = {
    "lexicon.post_filter": _post_filter,
    "normalize.classic": _normalize,
    "porter.stem": _stem,
    "features.vocabulary": _vocabulary,
    "features.vectorize": _vectorize,
    "sampling.similar": _similar,
    "sampling.smote": _smote,
    "svm.train": _train_svm,
}


def run_step(spans_path: Path, argv: list[str]) -> int:
    import importlib

    recorder = Recorder()
    modules = {}
    for module, attr, name in WRAPPED:
        mod = modules.setdefault(module, importlib.import_module(f"rareclass.{module}"))
        setattr(mod, attr, recorder.wrap(getattr(mod, attr), name, OBSERVERS.get(name)))
    main = recorder.wrap(modules["cli"].main, ROOT, None)
    exit_code = main(argv)
    recorder.dump(spans_path, argv[0], exit_code)
    return exit_code


def self_times(doc: dict) -> dict[str, float]:
    """Seconds per span name, minus the time covered by child spans.

    Spans nest strictly (one thread, one stack), so a span's children
    never overlap and its self time is its duration minus theirs.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name_id, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name_id, _parent, start, end), children in zip(spans, child_time):
        out[names[name_id]] += end - start - children
    return out


def summarize(docs: list[dict], scales: list[float]) -> dict[str, float]:
    """Per-layer self times and counters summed over the steps of a round.

    Each step's self times are multiplied by its scale, the speed
    correction of that step.
    """
    totals: dict[str, float] = defaultdict(float)
    for doc, scale in zip(docs, scales, strict=True):
        for name, seconds in self_times(doc).items():
            totals[f"{name}_s"] += seconds * scale
        for name, value in doc["counts"].items():
            if name == "features.vocab_dim":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    vectors = totals.pop("features.vectors", 0.0)
    nnz = totals.pop("features.nnz", 0.0)
    totals["features.nnz_per_doc"] = nnz / vectors if vectors else 0.0
    return totals


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS_JSON -- <rareclass CLI arguments>")
    sys.exit(run_step(Path(sys.argv[1]), sys.argv[3:]))
