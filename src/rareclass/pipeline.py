"""End-to-end orchestration: corpus in, trained model or report out.

The classifier path always consumes the classic normalizer (the
embedding-style normalizer is exposed through the ``preprocess``
subcommand for corpora destined for sequence models, which are out of
this toolkit's training scope).  Text-level samplers run before
training, in the CLI (``rareclass.cli.apply_text_sampler``), so
`train_from_corpus` receives the corpus they produced together with
their report.  Synthetic vector over-sampling runs here, after
vectorization and before the scaler is fitted, so the scaler sees the
training set the classifier will see.  `featurize_corpus` makes a corpus's
matrix in one pass, holding flat entry arrays, not a `Counter` per document,
and looks each document's column ids up without a Python call per feature.

`train_from_corpus` returns a `StoredModel`, the record that
`model_store.save_model` writes and `model_store.load_model` reads, and
`predict_corpus` featurizes with the settings that record carries.
File formats live in `model_store`; this module reads and writes none.
"""

from __future__ import annotations

import logging
from array import array
from collections import deque
from itertools import chain, repeat
from typing import TYPE_CHECKING

import numpy as np

from . import forwarder
from .config import TEXT_SAMPLER_METHODS, PipelineConfig
from .corpus import LABELS, Corpus, Label
from .errors import ConfigError
from .features import (
    KIND_CLUSTER,
    STRUCTURAL_FEATURES,
    CsrMatrix,
    FeatureSettings,
    Vocabulary,
    apply_scaler,
    build_vocabulary,
    cluster_features,
    extract_ngrams,
    fit_scaler,
    structural_features,
)
from .model_store import StoredModel
from .normalize import NameLexicon, NormalizationConfig, classic_normalize
# not called here: perfbench/tracer.py wraps this name in this module
from .features import vectorize  # noqa: F401

if TYPE_CHECKING:
    from .evaluation import EvalReport
    from .naive_bayes import NbModel
    from .sampling import SamplingReport
    from .svm import SvmModel

# The classifier, sampler and evaluation layers perfbench/tracer.py wraps
# in this module are forwarders, so a step imports only the ones it runs.
train_svm = forwarder("svm", "train_svm")
predict_svm = forwarder("svm", "predict_svm")
train_nb = forwarder("naive_bayes", "train_nb")
predict_nb = forwarder("naive_bayes", "predict_nb")
smote = forwarder("sampling", "smote")
evaluate_predictions = forwarder("evaluation", "evaluate_predictions")
# not called here either: the tracer wraps it here, as it does `vectorize`
undersample_similar_majority = forwarder("sampling", "undersample_similar_majority")

logger = logging.getLogger(__name__)


class _ProvisionalIds(dict):
    """Feature name -> provisional id; a name not yet seen gets the next id."""

    def __missing__(self, name: str) -> int:
        self[name] = new = len(self)
        return new


def featurize_corpus(
    corpus: Corpus,
    names: NameLexicon,
    clusters: dict[str, str] | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
    vocab: Vocabulary | None = None,
) -> tuple[CsrMatrix, Vocabulary]:
    """Featurize a corpus in one pass into one matrix, validated once; builds the vocabulary
    from each document's key set when none is given.  Held at once: a column id and value
    per document feature, and the feature names (the vocabulary, or all seen while fitting).
    A document's column ids come from one `map` over its feature names: while fitting, a
    dict whose missing names take the next provisional id; when scoring, the vocabulary's
    `get`, with its dim for a name it lacks."""
    fitting = vocab is None
    # a provisional id while fitting; a feature outside a given vocabulary gets its dim
    ids: dict[str, int] = _ProvisionalIds() if fitting else vocab._index
    outside = repeat(len(ids))  # the given vocabulary's dim, for every feature it lacks
    struct = STRUCTURAL_FEATURES if settings.use_structural else ()
    cols, values, lengths = array("i"), array("i"), array("i")  # C ints, 4 bytes an entry

    def key_sets():
        for item in corpus:
            tokens = classic_normalize(item.tweet, item.match_span, names, norm_config)
            feats = extract_ngrams(tokens, settings.n_min, settings.n_max)
            if settings.use_clusters and clusters is not None:
                feats.update(cluster_features(tokens, clusters))
            keys = chain(feats, struct)
            cols.extend(map(ids.__getitem__, keys) if fitting else map(ids.get, keys, outside))
            values.extend([1] * len(feats) if settings.binary else feats.values())
            values.extend(structural_features(item.tweet.text)[: len(struct)])
            lengths.append(len(feats) + len(struct))
            yield feats.keys()

    if fitting:
        vocab = build_vocabulary(key_sets(), settings.min_df, settings.use_structural)
        # provisional id -> vocabulary column, or dim below min_df
        remap = np.fromiter(map(vocab._index.get, ids, repeat(vocab.dim)), np.int32, len(ids))
        del ids  # every distinct feature name, no longer needed
        cols = remap[cols]
    else:
        deque(key_sets(), maxlen=0)  # runs the pass
        cols = np.asarray(cols)
    n_docs, dim = len(lengths), vocab.dim
    keep = (cols < dim) & (np.asarray(values) != 0)
    keys = np.repeat(np.arange(n_docs) * dim, lengths)[keep] + cols[keep]
    values = np.asarray(values)[keep]
    del cols, keep
    x = CsrMatrix.from_entries(keys, values, n_docs, dim)
    logger.info("featurized %d documents: vocabulary %d, nnz %d", n_docs, dim, len(x.data))
    return x, vocab


def train_from_corpus(
    corpus: Corpus,
    cfg: PipelineConfig,
    names: NameLexicon,
    clusters: dict[str, str] | None,
    report: SamplingReport | None = None,
) -> tuple[StoredModel, SamplingReport | None]:
    """Run featurization, SMOTE, scaling, and classifier training; returns
    the model and the sampling report.

    A text-level `sampler.method` must already have run: `corpus` is its
    output and `report` its report.  For ``none`` and ``smote`` the
    report is None on the way in; SMOTE makes its own.
    """
    method = cfg["sampler.method"]
    text_level = method in TEXT_SAMPLER_METHODS
    if text_level != (report is not None):
        raise ValueError(
            f"sampler.method {method!r} "
            f"{'needs' if text_level else 'takes no'} text-sampler report"
        )
    labels = corpus.labels()
    weights = cfg["svm.class_weights"]
    if cfg["classifier.kind"] == "svm" and weights is not None:
        missing = [label.value for label in LABELS if label in labels and label not in weights]
        if missing:
            raise ConfigError(f"svm.class_weights: no weight for {', '.join(missing)}")
    norm_config = cfg.normalization()
    settings = cfg.feature_settings()
    x, vocab = featurize_corpus(corpus, names, clusters, norm_config, settings)

    if method == "smote":
        k_neighbors, seed = cfg["sampler.k_neighbors"], cfg["sampler.seed"]
        x, report = smote(x, labels, k_neighbors=k_neighbors, seed=seed)
        labels = [label for label, n in report.output_counts.items() for _ in range(n)]

    extras = {"sampler": {"method": method}}
    if report is not None:
        extras["sampler"].update(
            {k: v for k, v in report.parameters.items() if k != "majority"}
        )

    scaler = None
    if cfg["classifier.kind"] == "svm":
        scaler = fit_scaler(x)
        x = apply_scaler(scaler, x)  # the unscaled matrix is freed before SMO's cache fills
        classifier: SvmModel | NbModel = train_svm(x, labels, cfg.svm_params())
    else:
        classifier = train_nb(x, labels, event_model=cfg["nb.event_model"])
    return StoredModel(classifier, vocab, scaler, settings, norm_config, extras), report


def predict_corpus(
    stored: StoredModel,
    corpus: Corpus,
    names: NameLexicon,
    clusters: dict[str, str] | None,
) -> list[Label]:
    """Predict every item using the featurization saved with the model; a
    model with cluster columns needs `clusters`."""
    settings = stored.features
    if settings.use_clusters and clusters is None and KIND_CLUSTER in stored.vocabulary.kinds:
        raise ConfigError("paths.clusters must be set: the model has cluster columns")
    x, _ = featurize_corpus(
        corpus, names, clusters, stored.normalization, settings, stored.vocabulary
    )
    if stored.scaler is not None:
        x = apply_scaler(stored.scaler, x)
    if stored.kind == "svm":
        predictions, _ = predict_svm(stored.classifier, x)
    else:
        predictions, _ = predict_nb(stored.classifier, x)
    return predictions


def evaluate_corpus(
    stored: StoredModel,
    corpus: Corpus,
    names: NameLexicon,
    clusters: dict[str, str] | None,
    model_id: str = "",
    corpus_id: str = "",
) -> tuple[EvalReport, list[Label]]:
    predictions = predict_corpus(stored, corpus, names, clusters)
    report = evaluate_predictions(
        corpus.labels(), predictions, model_id=model_id, corpus_id=corpus_id
    )
    return report, predictions

