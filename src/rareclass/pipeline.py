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
from typing import Sequence

from .config import PipelineConfig
from .corpus import Corpus, Label, LABELS
from .errors import DataError
from .evaluation import EvalReport, evaluate_predictions
from .features import (
    ClusterMap,
    CsrMatrix,
    Scaler,
    SparseVector,
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
        return cls(
            n_min=cfg.n_min,
            n_max=cfg.n_max,
            min_df=cfg.min_df,
            binary=cfg.binary_features,
            use_clusters=cfg.use_clusters,
            use_structural=cfg.use_structural,
        )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSettings":
        schema = {key: type(value) for key, value in cls().to_json().items()}
        check_json(obj, schema, "feature settings")
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
) -> tuple[list[Counter], list[tuple[int, int] | None]]:
    """Per-document feature multisets plus structural counts."""
    docs: list[Counter] = []
    structurals: list[tuple[int, int] | None] = []
    for item in corpus:
        normalized = classic_normalize(item.tweet, item.match_span, names, norm_config)
        feats = extract_ngrams(normalized.tokens, settings.n_min, settings.n_max)
        if settings.use_clusters and clusters is not None:
            feats.update(cluster_features(normalized.tokens, clusters))
        docs.append(feats)
        structurals.append(
            structural_features(item.tweet.text) if settings.use_structural else None
        )
    return docs, structurals


def featurize_corpus(
    corpus: Corpus,
    names: NameLexicon,
    clusters: ClusterMap | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
    vocab: Vocabulary | None = None,
) -> tuple[list[SparseVector], Vocabulary]:
    """Vectorize a corpus; builds the vocabulary when none is supplied."""
    docs, structurals = document_features(corpus, names, clusters, norm_config, settings)
    if vocab is None:
        vocab = build_vocabulary(
            docs, settings.min_df, include_structural=settings.use_structural
        )
    vectors = [
        vectorize(doc, structural, vocab, binary=settings.binary)
        for doc, structural in zip(docs, structurals)
    ]
    return vectors, vocab


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
    text_level = cfg.sampler_method not in ("none", "smote")
    if text_level != (report is not None):
        raise ValueError(
            f"sampler.method {cfg.sampler_method!r} "
            f"{'needs' if text_level else 'takes no'} text-sampler report"
        )
    norm_config = cfg.normalization()
    settings = FeatureSettings.from_config(cfg)
    vectors, vocab = featurize_corpus(corpus, names, clusters, norm_config, settings)
    labels = corpus.labels()

    if cfg.sampler_method == "smote":
        per_class: dict[Label, list[SparseVector]] = {}
        for vec, label in zip(vectors, labels):
            per_class.setdefault(label, []).append(vec)
        augmented, report = smote(
            per_class, k_neighbors=cfg.sampler_k_neighbors, seed=cfg.sampler_seed
        )
        vectors = [vec for label in LABELS for vec in augmented.get(label, [])]
        labels = [label for label in LABELS for _ in augmented.get(label, [])]

    extras = {
        "features": settings.to_json(),
        "normalize": normalization_to_json(norm_config),
        "sampler": {"method": cfg.sampler_method},
    }
    if report is not None:
        extras["sampler"].update(
            {k: v for k, v in report.parameters.items() if k != "majority"}
        )

    x = CsrMatrix.from_rows(vectors, vocab.dim)
    if cfg.classifier_kind == "svm":
        scaler = fit_scaler(x)
        classifier: SvmModel | NbModel = train_svm(
            apply_scaler(scaler, x), labels, cfg.svm_params()
        )
        return TrainResult(classifier, vocab, scaler, report, extras)

    classifier = train_nb(x, labels, event_model=cfg.nb_event_model)
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
    vectors, vocab = featurize_corpus(
        corpus, names, clusters, norm_config, settings, vocab=stored.vocabulary
    )
    x = CsrMatrix.from_rows(vectors, vocab.dim)
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
    vectors: Sequence[SparseVector],
    ids: Sequence[str],
    labels: Sequence[Label],
    settings: FeatureSettings,
) -> None:
    doc = {
        "format": FEATURES_FORMAT,
        "version": FEATURES_VERSION,
        "settings": settings.to_json(),
        "vocabulary": vocabulary_to_json(vocabulary),
        "docs": [
            {
                "id": doc_id,
                "label": label.value,
                "indices": list(vec.indices),
                "values": list(vec.values),
            }
            for doc_id, label, vec in zip(ids, labels, vectors)
        ],
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )


def load_features(
    path: str | Path,
) -> tuple[Vocabulary, list[SparseVector], list[str], list[Label], FeatureSettings]:
    path = Path(path)
    doc = read_versioned_json(path, FEATURES_FORMAT, FEATURES_VERSION, "features")
    schema = {
        "settings": dict,
        "vocabulary": VOCABULARY_SCHEMA,
        "docs": [{"id": str, "label": str, "indices": [int], "values": [float]}],
    }
    try:
        check_json(doc, schema, "features")
        vocabulary = vocabulary_from_json(doc["vocabulary"])
        vectors = [
            SparseVector(tuple(d["indices"]), tuple(map(float, d["values"])), vocabulary.dim)
            for d in doc["docs"]
        ]
        labels = [Label(d["label"]) for d in doc["docs"]]
        settings = FeatureSettings.from_json(doc["settings"])
    except (DataError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return vocabulary, vectors, [d["id"] for d in doc["docs"]], labels, settings
