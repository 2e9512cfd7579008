"""End-to-end orchestration: corpus in, trained model or report out.

The classifier path always consumes the classic normalizer (the
embedding-style normalizer is exposed through the ``preprocess``
subcommand for corpora destined for sequence models, which are out of
this toolkit's training scope).  Text-level samplers run before
training, in the CLI (``rareclass.cli.apply_text_sampler``), so
`train_from_corpus` receives the corpus they produced together with
their report.  Synthetic vector over-sampling runs here, after
vectorization and before the scaler is fitted, so the scaler sees the
training set the classifier will see.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .config import TEXT_SAMPLER_METHODS, PipelineConfig
from .corpus import Corpus, Label
from .errors import DataError
from .evaluation import EvalReport, evaluate_predictions
from .features import (
    ClusterMap,
    CsrMatrix,
    Scaler,
    Vocabulary,
    apply_scaler,
    build_vocabulary,
    cluster_features,
    extract_ngrams,
    fit_scaler,
    structural_features,
    vectorize,
)
from .model_store import (
    StoredModel,
    VOCABULARY_SCHEMA,
    check_json,
    read_versioned_json,
    vocabulary_from_json,
    vocabulary_to_json,
)
from .naive_bayes import NbModel, predict_nb, train_nb
from .normalize import NameLexicon, NormalizationConfig, classic_normalize
from .sampling import SamplingReport, smote
# not called here: perfbench/tracer.py wraps this name in this module
from .sampling import undersample_similar_majority  # noqa: F401
from .svm import SvmModel, predict_svm, train_svm


@dataclass(frozen=True)
class FeatureSettings:
    n_min: int = 1
    n_max: int = 3
    min_df: int = 2
    binary: bool = True
    use_clusters: bool = True
    use_structural: bool = True

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "FeatureSettings":
        return cls(**cfg.section("features"))

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSettings":
        schema = {key: type(value) for key, value in cls().to_json().items()}
        check_json(obj, schema, "feature settings")
        if obj["min_df"] < 1:
            raise DataError("feature settings: min_df must be >= 1")
        return cls(**{key: obj[key] for key in schema})


def normalization_to_json(cfg: NormalizationConfig) -> dict:
    return {
        "possessive_pronouns": sorted(cfg.possessive_pronouns),
        "child_terms": sorted(cfg.child_terms),
        "third_person_pronouns": sorted(cfg.third_person_pronouns),
    }


def normalization_from_json(obj: dict) -> NormalizationConfig:
    keys = ("possessive_pronouns", "child_terms", "third_person_pronouns")
    check_json(obj, dict.fromkeys(keys, [str]), "normalization settings")
    return NormalizationConfig(**{key: frozenset(obj[key]) for key in keys})


def document_features(
    corpus: Corpus,
    names: NameLexicon,
    clusters: ClusterMap | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
) -> Iterator[tuple[Counter, tuple[int, int] | None]]:
    """Per document, its feature multiset and structural counts, made as
    they are asked for."""
    for item in corpus:
        normalized = classic_normalize(item.tweet, item.match_span, names, norm_config)
        feats = extract_ngrams(normalized.tokens, settings.n_min, settings.n_max)
        if settings.use_clusters and clusters is not None:
            feats.update(cluster_features(normalized.tokens, clusters))
        yield feats, structural_features(item.tweet.text) if settings.use_structural else None


def featurize_corpus(
    corpus: Corpus,
    names: NameLexicon,
    clusters: ClusterMap | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
    vocab: Vocabulary | None = None,
) -> tuple[CsrMatrix, Vocabulary]:
    """Vectorize a corpus, one `vectorize` row per document, into one matrix
    validated once; builds the vocabulary when none is supplied.

    With a vocabulary given, each document's features are dropped once
    its row is made, so they are never all held at once.
    """
    docs = document_features(corpus, names, clusters, norm_config, settings)
    if vocab is None:
        docs = list(docs)
        vocab = build_vocabulary(
            [feats for feats, _ in docs], settings.min_df,
            include_structural=settings.use_structural,
        )
    rows = [
        vectorize(feats, structural, vocab, binary=settings.binary)
        for feats, structural in docs
    ]
    return CsrMatrix.stack(rows, vocab.dim), vocab


@dataclass(frozen=True)
class TrainResult:
    classifier: SvmModel | NbModel
    vocabulary: Vocabulary
    scaler: Scaler | None
    sampling_report: SamplingReport | None
    extras: dict


def train_from_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    names: NameLexicon,
    clusters: ClusterMap | None,
    report: SamplingReport | None = None,
) -> TrainResult:
    """Run featurization, SMOTE, scaling, and classifier training.

    A text-level `sampler.method` must already have run: `corpus` is its
    output and `report` its report.  For ``none`` and ``smote`` the
    report is None.
    """
    method = cfg["sampler.method"]
    text_level = method in TEXT_SAMPLER_METHODS
    if text_level != (report is not None):
        raise ValueError(
            f"sampler.method {method!r} "
            f"{'needs' if text_level else 'takes no'} text-sampler report"
        )
    norm_config = cfg.normalization()
    settings = FeatureSettings.from_config(cfg)
    x, vocab = featurize_corpus(corpus, names, clusters, norm_config, settings)
    labels = corpus.labels()

    if method == "smote":
        k_neighbors, seed = cfg["sampler.k_neighbors"], cfg["sampler.seed"]
        x, report = smote(x, labels, k_neighbors=k_neighbors, seed=seed)
        labels = [label for label, n in report.output_counts.items() for _ in range(n)]

    extras = {
        "features": settings.to_json(),
        "normalize": normalization_to_json(norm_config),
        "sampler": {"method": method},
    }
    if report is not None:
        extras["sampler"].update(
            {k: v for k, v in report.parameters.items() if k != "majority"}
        )

    if cfg["classifier.kind"] == "svm":
        scaler = fit_scaler(x)
        classifier: SvmModel | NbModel = train_svm(
            apply_scaler(scaler, x), labels, cfg.svm_params()
        )
        return TrainResult(classifier, vocab, scaler, report, extras)

    classifier = train_nb(x, labels, event_model=cfg["nb.event_model"])
    return TrainResult(classifier, vocab, None, report, extras)


def predict_corpus(
    stored: StoredModel,
    corpus: Corpus,
    names: NameLexicon,
    clusters: ClusterMap | None,
) -> list[Label]:
    """Predict every item using the featurization saved with the model."""
    try:
        settings = FeatureSettings.from_json(stored.extras["features"])
        norm_config = normalization_from_json(stored.extras["normalize"])
    except KeyError:
        raise DataError(
            "model file lacks featurization settings "
            "(extras.features / extras.normalize)"
        ) from None
    x, _ = featurize_corpus(corpus, names, clusters, norm_config, settings, stored.vocabulary)
    if stored.scaler is not None:
        x = apply_scaler(stored.scaler, x)
    if isinstance(stored.classifier, SvmModel):
        predictions, _ = predict_svm(stored.classifier, x)
    else:
        predictions, _ = predict_nb(stored.classifier, x)
    return predictions


def evaluate_corpus(
    stored: StoredModel,
    corpus: Corpus,
    names: NameLexicon,
    clusters: ClusterMap | None,
    model_id: str = "",
    corpus_id: str = "",
) -> tuple[EvalReport, list[Label]]:
    predictions = predict_corpus(stored, corpus, names, clusters)
    report = evaluate_predictions(
        corpus.labels(), predictions, model_id=model_id, corpus_id=corpus_id
    )
    return report, predictions


FEATURES_FORMAT = "rareclass.features"
FEATURES_VERSION = 1


def save_features(
    path: str | Path,
    vocabulary: Vocabulary,
    x: CsrMatrix,
    ids: Sequence[str],
    labels: Sequence[Label],
    settings: FeatureSettings,
) -> None:
    """Write one doc per row of `x`: its id, label, columns and values."""
    bounds, indices, values = x.indptr.tolist(), x.indices.tolist(), x.data.tolist()
    doc = {
        "format": FEATURES_FORMAT,
        "version": FEATURES_VERSION,
        "settings": settings.to_json(),
        "vocabulary": vocabulary_to_json(vocabulary),
        "docs": [
            {
                "id": doc_id,
                "label": label.value,
                "indices": indices[lo:hi],
                "values": values[lo:hi],
            }
            for doc_id, label, lo, hi in zip(ids, labels, bounds, bounds[1:])
        ],
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_features(
    path: str | Path,
) -> tuple[Vocabulary, CsrMatrix, list[str], list[Label], FeatureSettings]:
    """The vocabulary, matrix, ids, labels and settings of a features file;
    the docs are joined into one matrix and validated as a whole."""
    path = Path(path)
    doc = read_versioned_json(path, FEATURES_FORMAT, FEATURES_VERSION, "features")
    schema = {
        "settings": dict,
        "vocabulary": VOCABULARY_SCHEMA,
        "docs": [{"id": str, "label": str, "indices": [int], "values": [float]}],
    }
    try:
        check_json(doc, schema, "features")
        docs = doc["docs"]
        if any(len(d["indices"]) != len(d["values"]) for d in docs):
            raise DataError("features: a doc's indices and values differ in length")
        vocabulary = vocabulary_from_json(doc["vocabulary"])
        x = CsrMatrix.from_arrays(
            np.cumsum([0] + [len(d["indices"]) for d in docs]),
            [i for d in docs for i in d["indices"]],
            [v for d in docs for v in d["values"]],
            vocabulary.dim,
        )
        labels = [Label(d["label"]) for d in docs]
        settings = FeatureSettings.from_json(doc["settings"])
    except (DataError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return vocabulary, x, [d["id"] for d in docs], labels, settings
