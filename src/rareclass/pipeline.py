"""End-to-end orchestration: corpus in, trained model or report out.

The classifier path always consumes the classic normalizer (the
embedding-style normalizer is exposed through the ``preprocess``
subcommand for corpora destined for sequence models, which are out of
this toolkit's training scope).  Text-level samplers run before
featurization; synthetic vector over-sampling runs after vectorization
and before the scaler is fitted, so the scaler sees the training set the
classifier will see.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .config import PipelineConfig
from .corpus import Corpus, Label, LABELS, Tweet
from .errors import ConfigError, DataError
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
from .sampling import (
    SamplingReport,
    oversample_replacement,
    smote,
    undersample_near_fn,
    undersample_random,
    undersample_similar_majority,
)
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


def _apply_text_sampler(
    corpus: Corpus, cfg: PipelineConfig, fn_tweets: Sequence[Tweet] | None
) -> tuple[Corpus, SamplingReport | None]:
    method = cfg.sampler_method
    if method in ("none", "smote"):
        return corpus, None
    if method == "similar":
        return undersample_similar_majority(corpus, cfg.sampler_k)
    if method == "near_fn":
        if fn_tweets is None:
            raise ConfigError("sampler.fn_corpus must be set for the near_fn sampler")
        return undersample_near_fn(corpus, fn_tweets, cfg.sampler_k)
    if method == "random":
        target = cfg.sampler_target_total
        if target <= 0:
            raise ConfigError("sampler.target_total must be positive for random sampling")
        return undersample_random(corpus, target, cfg.sampler_seed)
    if method == "replacement":
        return oversample_replacement(corpus, cfg.sampler_seed)
    raise ConfigError(f"unknown sampler method {method!r}")


def train_from_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    names: NameLexicon,
    clusters: ClusterMap | None,
    fn_tweets: Sequence[Tweet] | None = None,
) -> TrainResult:
    """Run sampling, featurization, scaling, and classifier training."""
    norm_config = cfg.normalization()
    settings = FeatureSettings.from_config(cfg)
    sampled, report = _apply_text_sampler(corpus, cfg, fn_tweets)
    vectors, vocab = featurize_corpus(sampled, names, clusters, norm_config, settings)
    labels = sampled.labels()

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


NORMALIZED_HEADER = ("id", "label", "tokens")


def save_normalized(rows: Sequence[tuple[str, Label, Sequence[str]]], path: str | Path) -> None:
    """Write one ``id<TAB>label<TAB>space-joined-tokens`` row per document."""
    lines = ["\t".join(NORMALIZED_HEADER)]
    for doc_id, label, tokens in rows:
        lines.append(f"{doc_id}\t{label.value}\t{' '.join(tokens)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_normalized(path: str | Path) -> list[tuple[str, Label, tuple[str, ...]]]:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != NORMALIZED_HEADER:
        raise DataError(f"{path}: missing or malformed header line")
    rows: list[tuple[str, Label, tuple[str, ...]]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}: expected 3 columns at line {lineno}")
        doc_id, label_s, tokens = fields
        try:
            label = Label.parse(label_s)
        except ValueError:
            raise DataError(f"{path}: unknown label {label_s!r} at line {lineno}") from None
        rows.append((doc_id, label, tuple(tokens.split())))
    return rows


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
