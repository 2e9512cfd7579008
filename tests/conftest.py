"""Shared fixtures: small corpora, lexicons, and the bundled demo files."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from rareclass.corpus import AnnotatedTweet, Corpus, Label, Tweet
from rareclass.demo import packaged_data_path
from rareclass.normalize import NameLexicon, NormalizationConfig


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py loaded as it is, the way the benchmark contract
    loads perfbench, without importing perfbench as a package."""
    qualified = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[qualified] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[qualified]
    return module


def make_corpus(rows, provenance="test"):
    """rows: (id, text, label) or (id, text, label, span) tuples."""
    items = []
    for row in rows:
        tid, text, label = row[:3]
        span = row[3] if len(row) > 3 else None
        items.append(AnnotatedTweet(Tweet(tid, f"user-{tid}", text), label, span))
    return Corpus(tuple(items), provenance)


def counted_corpus(n_defect, n_possible, n_non, text="tweet {i}"):
    rows = []
    i = 0
    for label, count in (
        (Label.DEFECT, n_defect),
        (Label.POSSIBLE_DEFECT, n_possible),
        (Label.NON_DEFECT, n_non),
    ):
        for _ in range(count):
            rows.append((f"t{i:05d}", text.format(i=i), label))
            i += 1
    return make_corpus(rows)


@pytest.fixture
def names():
    return NameLexicon(frozenset({"emma", "noah", "grace", "ana", "liam"}))


@pytest.fixture
def norm_config():
    return NormalizationConfig()


@pytest.fixture
def demo_paths():
    return {
        "corpus": packaged_data_path("demo_corpus.tsv"),
        "lexicon": packaged_data_path("demo_lexicon.txt"),
        "names": packaged_data_path("demo_names.txt"),
        "clusters": packaged_data_path("demo_clusters.tsv"),
    }
