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

`featurize_corpus` makes a corpus's matrix from token ids, not from a
`Counter` per tweet.  One pass normalizes each tweet and appends its token
ids to one flat int32 array.  Then numpy turns the n-grams of each length
(`extract_ngrams`) and the cluster paths into integer codes for the whole
corpus, keeps each tweet's distinct codes with their counts, and takes a
code's document frequency with one `bincount` (`build_vocabulary`).  Only
the kept codes get a name, to fit a vocabulary, whose names are then
found among the codes.  An n-gram of n contiguous tokens, for n in
[n_min, n_max], is named by its tokens joined by single spaces; a token
in the cluster map adds one to ``cluster:<path>``.  `extract_ngrams` and
`build_vocabulary` carry those names because perfbench/tracer.py times the
two stages under them.

`train_from_corpus` returns a `StoredModel`, the record that
`model_store.save_model` writes and `model_store.load_model` reads, and
`predict_corpus` featurizes with the settings that record carries.
File formats live in `model_store`; this module reads and writes none.
"""

from __future__ import annotations

import logging
from array import array
from functools import partial
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import forwarder
from .config import TEXT_SAMPLER_METHODS, PipelineConfig
from .corpus import LABELS, Corpus, Label
from .errors import ConfigError
from .features import (
    CLUSTER_PREFIX,
    STRUCTURAL_FEATURES,
    CsrMatrix,
    FeatureSettings,
    Vocabulary,
    apply_scaler,
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


class _Ids(dict):
    """Key -> id; a key not yet seen gets the next id."""

    def __missing__(self, key: str) -> int:
        self[key] = new = len(self)
        return new


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted `keys` starts."""
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def _tweets(lengths: np.ndarray) -> np.ndarray:
    """Each token's tweet (int32), for tweets of `lengths` tokens."""
    return np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)


def _renumber(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct `keys`, increasing, and each key's index among them
    (int32), as `np.unique` with ``return_inverse`` gives them."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = _firsts(keys)
    codes = np.empty(len(keys), np.int32)
    codes[order] = np.cumsum(new, dtype=np.int32) - 1
    return keys[new], codes


def _distinct(docs: np.ndarray, codes: np.ndarray, n_codes: int) -> list[np.ndarray]:
    """Each distinct (tweet, code) pair of the tweets `docs` and codes `codes`
    once, in increasing order, and how often it occurs: tweets, codes and
    counts, as int32."""
    keys = docs.astype(np.int64)
    keys *= n_codes
    keys += codes
    keys.sort(kind="stable")
    first = _firsts(keys)
    counts = np.diff(np.flatnonzero(np.append(first, True))).astype(np.int32)
    keys = keys[first]
    return [(keys // n_codes).astype(np.int32), (keys % n_codes).astype(np.int32), counts]


def _gram_names(n: int, codes: np.ndarray, heads: dict, tails: dict, tokens: list) -> list[str]:
    """The names of the n-grams `codes`: their tokens joined by single spaces.
    An n-gram's code c extends the (n-1)-gram ``heads[n][c]`` by the token
    ``tails[n][c]``; a unigram's code is its token id."""
    if n == 1:
        return [tokens[c] for c in codes.tolist()]
    head_codes, at = _renumber(heads[n][codes])
    head_names = _gram_names(n - 1, head_codes, heads, tails, tokens)
    return [head_names[h] + " " + tokens[t] for h, t in zip(at.tolist(), tails[n][codes].tolist())]


def _gram_codes(n: int, split: tuple, heads: dict, tails: dict, tokens: list) -> np.ndarray:
    """The inverse of `_gram_names`: the code of each name of a `_split`
    vocabulary, -1 for a name that is no n-gram of the corpus.  A name's
    code at each length is found among that length's sorted (head code,
    last token) pairs, with one `searchsorted` per length."""
    _, ids, starts, n_words = split
    rows = np.flatnonzero(n_words == n)
    tok = ids[starts[rows, None] + np.arange(n)]
    codes = tok[:, 0]
    for k in range(2, n + 1):
        pairs = heads[k] * np.int64(len(tokens)) + tails[k]
        keys = codes * len(tokens) + tok[:, k - 1]  # < 0 where the head is no code
        found = np.searchsorted(pairs, keys).clip(max=len(pairs) - 1)
        codes = np.where((tok[:, k - 1] >= 0) & (pairs[found] == keys), found, -1)
    out = np.full(len(n_words), -1, np.int64)
    out[rows] = codes
    return out


def _split(names: tuple[str, ...], token_ids: dict[str, int]) -> tuple:
    """Feature names as a group finds their codes: the names, their words'
    token ids (-1 for no token) one name after another, and where each
    name's words start and how many there are."""
    n_words = np.fromiter(map(str.count, names, repeat(" ")), np.intp, len(names)) + 1
    words = chain.from_iterable(map(str.split, names, repeat(" ")))  # one name's at a time
    ids = np.fromiter(map(token_ids.get, words, repeat(-1)), np.int64, int(n_words.sum()))
    return names, ids, np.cumsum(n_words) - n_words, n_words


# A group is one kind of feature code: the n-grams of one length, or the
# cluster paths.  It holds its distinct (tweet, code, count) triples, its
# number of codes, and functions that name given codes and that find the
# code of each name of a `_split` vocabulary (-1 for none).
_Group = tuple[list[np.ndarray], int, Callable[[np.ndarray], list[str]], Callable]


def extract_ngrams(
    tok: np.ndarray, lengths: np.ndarray, tokens: list[str], n_min: int, n_max: int
) -> list[_Group]:
    """The n-gram groups of a corpus, one for each n in [n_min, n_max]; named
    so that perfbench/tracer.py times this stage as ``features.ngrams``.

    `tok` holds the tweets' token ids one tweet after another, `lengths`
    each tweet's number of tokens, and `tokens` each id's token.  The
    n-grams are built one length at a time: an n-gram's code numbers the
    distinct (code of its first n-1 tokens, last token) pairs, so no code
    outgrows the corpus, and a length's arrays are freed once the next one
    is built.  The lengths stop at the longest tweet."""
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    heads: dict[int, np.ndarray] = {}  # per n, each n-gram code's (n-1)-gram code
    tails: dict[int, np.ndarray] = {}  # per n, each n-gram code's last token
    starts = np.arange(len(tok), dtype=np.int32)  # the n-grams' first tokens
    # the tokens after each n-gram's first one in its tweet
    room = np.repeat(np.cumsum(lengths, dtype=np.int32), lengths) - starts - 1
    docs = _tweets(lengths)
    codes, n_codes = tok, len(tokens)
    groups: list[_Group] = []
    for n in range(1, n_max + 1):
        if n > 1:
            longer = room >= n - 1  # an n-gram starts here
            starts, room = starts[longer], room[longer]
            pairs = codes[longer].astype(np.int64) * len(tokens) + tok[starts + n - 1]
            del longer, codes
            pairs, codes = _renumber(pairs)
            heads[n], tails[n] = (a.astype(np.int32) for a in np.divmod(pairs, len(tokens)))
            n_codes = len(pairs)
            if not n_codes:  # longer than every tweet
                break
        if n >= n_min:
            name_of = partial(_gram_names, n, heads=heads, tails=tails, tokens=tokens)
            code_of = partial(_gram_codes, n, heads=heads, tails=tails, tokens=tokens)
            groups.append((_distinct(docs[starts], codes, n_codes), n_codes, name_of, code_of))
    return groups


def _cluster_group(
    tok: np.ndarray, lengths: np.ndarray, tokens: list[str], clusters: dict[str, str]
) -> _Group:
    """The cluster-path group: a token's code comes from one token id ->
    cluster path table."""
    paths = _Ids()  # cluster feature name -> code
    table = [paths[CLUSTER_PREFIX + clusters[t]] if t in clusters else -1 for t in tokens]
    codes = np.array(table, np.int32)[tok]
    hit = codes >= 0
    named = list(paths)
    name_of = lambda codes: [named[c] for c in codes.tolist()]  # noqa: E731
    code_of = lambda split: np.fromiter(map(paths.get, split[0], repeat(-1)), int)  # noqa: E731
    triples = _distinct(_tweets(lengths)[hit], codes[hit], len(named))
    return triples, len(named), name_of, code_of


def build_vocabulary(groups: list[_Group], min_df: int, include_structural: bool) -> Vocabulary:
    """`features.build_vocabulary`'s rule over feature groups: the names of the
    codes in at least `min_df` tweets, sorted, with the structural columns
    when asked for; named so that perfbench/tracer.py times this stage as it
    timed that function."""
    if min_df < 1:
        raise ValueError("min_df must be >= 1")
    # a code's document frequency is one `bincount` of its distinct (tweet, code) pairs
    kept = (
        name_of(np.flatnonzero(np.bincount(triples[1], minlength=n_codes) >= min_df))
        for triples, n_codes, name_of, _ in groups
    )
    struct = STRUCTURAL_FEATURES if include_structural else ()
    return Vocabulary(tuple(sorted(chain(struct, *kept))))


def _entries(group: _Group, vocab: Vocabulary, split: tuple, binary: bool):
    """A group's entries in the vocabulary's columns: keys ``tweet * dim +
    column`` and values.  `split` is the vocabulary's names as `_split`
    gives them, whose codes are looked up among the group's."""
    (docs, codes, counts), n_codes, _, code_of = group
    found = code_of(split)
    columns = np.full(n_codes, vocab.dim, np.int32)  # dim for a code outside the vocabulary
    columns[found[found >= 0]] = np.flatnonzero(found >= 0)
    columns = columns[codes]
    inside = columns < vocab.dim
    keys = docs[inside] * np.int64(vocab.dim) + columns[inside]
    return keys, np.ones(len(keys), np.int32) if binary else counts[inside]


def featurize_corpus(
    corpus: Corpus,
    names: NameLexicon,
    clusters: dict[str, str] | None,
    norm_config: NormalizationConfig,
    settings: FeatureSettings,
    vocab: Vocabulary | None = None,
) -> tuple[CsrMatrix, Vocabulary]:
    """Featurize a corpus into one matrix, validated once; builds the vocabulary
    when none is given.

    Each tweet's tokens become int32 ids in one flat array, and its n-grams
    and cluster paths integer codes, made in numpy for the whole corpus
    (`extract_ngrams`, `_cluster_group`).  A code's document frequency is
    one `bincount` over the tweets' distinct codes.  Only the codes kept for
    a new vocabulary are named; the vocabulary's names are then found among
    the codes (`_gram_codes`).  An n-gram's name is its tokens joined by
    single spaces; as no token is empty or holds whitespace, distinct
    n-grams get distinct names.  The matrix is assembled by
    `CsrMatrix.from_entries`."""
    token_ids = _Ids()
    flat, lengths, struct_values = array("i"), array("i"), array("i")  # C ints, 4 bytes each
    for item in corpus:
        tokens = classic_normalize(item.tweet, item.match_span, names, norm_config)
        flat.extend(map(token_ids.__getitem__, tokens))
        lengths.append(len(tokens))
        if settings.use_structural:
            struct_values.extend(structural_features(item.tweet.text))
    n_docs, tokens = len(lengths), list(token_ids)
    tok, lengths = np.frombuffer(flat, np.int32), np.frombuffer(lengths, np.int32)
    groups = extract_ngrams(tok, lengths, tokens, settings.n_min, settings.n_max)
    if settings.use_clusters and clusters is not None:
        groups.append(_cluster_group(tok, lengths, tokens, clusters))
    del tok, flat, lengths, tokens

    if vocab is None:
        vocab = build_vocabulary(groups, settings.min_df, settings.use_structural)
    split = _split(vocab.names, token_ids)
    del token_ids
    # each group's arrays are freed once its entries are made
    entries = [_entries(groups.pop(), vocab, split, settings.binary) for _ in range(len(groups))]
    if settings.use_structural:
        per_column = np.frombuffer(struct_values, np.int32).reshape(-1, 2).T
        for column, values in zip(map(vocab.index_of, STRUCTURAL_FEATURES), per_column):
            if column is not None:
                nonzero = np.flatnonzero(values)
                entries.append((nonzero * vocab.dim + column, values[nonzero]))
    del struct_values
    keys = np.concatenate([np.zeros(0, np.int64), *(keys for keys, _ in entries)])
    values = np.concatenate([np.zeros(0, np.int32), *(values for _, values in entries)])
    del entries
    x = CsrMatrix.from_entries(keys, values, n_docs, vocab.dim)
    logger.info("featurized %d documents: vocabulary %d, nnz %d", n_docs, vocab.dim, len(x.data))
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
    if settings.use_clusters and clusters is None:
        if any(name.startswith(CLUSTER_PREFIX) for name in stored.vocabulary.names):
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

