"""Rare-class short-text classification toolkit.

Lexicon-driven retrieval, tweet normalization, sparse feature
engineering, class-imbalance sampling, Naive Bayes and weighted RBF-SVM
training, and per-class evaluation, with a CLI that composes the pieces
into reproducible experiments.
"""

__version__ = "0.1.0"

from .corpus import (
    AnnotatedTweet,
    ClassDistribution,
    Corpus,
    Label,
    LABELS,
    SplitResult,
    Tweet,
    class_distribution,
    cohens_kappa,
    filter_disagreements,
    load_corpus,
    save_corpus,
    stratified_split,
    three_way_split,
)
from .errors import ConfigError, DataError, RareclassError
from .evaluation import (
    ConfusionMatrix,
    EvalReport,
    TTestResult,
    confusion_matrix,
    error_report,
    evaluate_predictions,
    overall_f1,
    paired_t_test,
    precision_recall_f1,
)
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
    information_gain,
    interpolate,
    load_clusters,
    structural_features,
    vectorize,
)
from .lexicon import (
    Lexicon,
    MatchCounts,
    MatchResult,
    MatcherSet,
    compile_matchers,
    load_lexicon,
    match_corpus,
    post_filter,
    term_class_frequency_report,
)
from .model_store import StoredModel, load_model, save_model
from .naive_bayes import NbModel, predict_nb, train_nb
from .normalize import (
    NameLexicon,
    NormalizationConfig,
    NormalizedText,
    classic_normalize,
    embedding_normalize,
    load_name_lexicon,
)
from .porter import porter_stem
from .sampling import (
    SamplingReport,
    SimilarityThreshold,
    levenshtein_distance,
    levenshtein_ratio,
    levenshtein_ratio_bound,
    oversample_replacement,
    smote,
    undersample_near_fn,
    undersample_random,
    undersample_similar_majority,
)
from .svm import (
    SvmModel,
    SvmParams,
    inverse_frequency_weights,
    predict_svm,
    train_svm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
