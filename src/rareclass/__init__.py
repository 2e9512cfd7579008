"""Rare-class short-text classification toolkit.

Lexicon-driven retrieval, tweet normalization, sparse feature
engineering, class-imbalance sampling, Naive Bayes and weighted RBF-SVM
training, and per-class evaluation, with a CLI that composes the pieces
into reproducible experiments.

The public names below are exported lazily (PEP 562): ``from rareclass
import X`` imports only the submodule that defines X, on first use.  So
importing the package, or a text-only module such as `corpus`,
`lexicon`, `normalize` or `sampling`, does not import numpy; `features`,
`svm`, `naive_bayes` and `model_store` do.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "corpus": (
        "AnnotatedTweet",
        "ClassDistribution",
        "Corpus",
        "Label",
        "LABELS",
        "SplitResult",
        "Tweet",
        "class_distribution",
        "cohens_kappa",
        "filter_disagreements",
        "load_corpus",
        "save_corpus",
        "stratified_split",
        "three_way_split",
    ),
    "errors": ("ConfigError", "DataError", "RareclassError"),
    "evaluation": (
        "ConfusionMatrix",
        "EvalReport",
        "TTestResult",
        "confusion_matrix",
        "error_report",
        "evaluate_predictions",
        "overall_f1",
        "paired_t_test",
        "precision_recall_f1",
    ),
    "features": (
        "CsrMatrix",
        "Scaler",
        "Vocabulary",
        "apply_scaler",
        "build_vocabulary",
        "fit_scaler",
        "information_gain",
        "load_clusters",
        "structural_features",
        "vectorize",
    ),
    "lexicon": (
        "Lexicon",
        "MatchCounts",
        "MatchResult",
        "MatcherSet",
        "compile_matchers",
        "load_lexicon",
        "match_corpus",
        "post_filter",
        "term_class_frequency_report",
    ),
    "model_store": ("StoredModel", "load_model", "save_model"),
    "naive_bayes": ("NbModel", "predict_nb", "train_nb"),
    "normalize": (
        "NameLexicon",
        "NormalizationConfig",
        "classic_normalize",
        "embedding_normalize",
        "load_name_lexicon",
    ),
    "porter": ("porter_stem",),
    "sampling": (
        "SamplingReport",
        "levenshtein_distance",
        "levenshtein_ratio",
        "oversample_replacement",
        "smote",
        "undersample_near_fn",
        "undersample_random",
        "undersample_similar_majority",
    ),
    "svm": (
        "SvmModel",
        "SvmParams",
        "inverse_frequency_weights",
        "predict_svm",
        "train_svm",
    ),
}

# public name -> the submodule that defines it
_EXPORTS = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def forwarder(module: str, name: str):
    """A function that calls `name` of ``rareclass.<module>``, which it
    imports on the first call (later calls find it in `sys.modules`).

    perfbench/tracer.py wraps layer functions by their names in `cli` and
    `pipeline`, so those names must exist there before their modules are
    imported; made forwarders, they leave a step that never calls one
    without its module.
    """

    def forward(*args, **kwargs):
        return getattr(import_module(f"{__name__}.{module}"), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = f"Forwards to rareclass.{module}.{name}."
    return forward
