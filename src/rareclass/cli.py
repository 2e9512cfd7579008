"""Command-line interface.

Subcommands compose into the full experiment pipeline::

    split -> (sample) -> train -> evaluate -> report-errors

with ``kappa``, ``match``, ``preprocess``, ``featurize``, and
``rank-features`` usable standalone on the documented file formats.
Every run logs its seeds, parameters, and input digests to stderr;
artifacts contain no timestamps, so identical configs and inputs yield
byte-identical outputs.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .config import PipelineConfig
from .corpus import (
    Corpus,
    Label,
    LABELS,
    Tweet,
    cohens_kappa,
    load_corpus,
    save_corpus,
    three_way_split,
)
from .errors import ConfigError, DataError
from .lexicon import (
    MatchCounts,
    compile_matchers,
    load_lexicon,
    match_corpus,
    post_filter,
    term_class_frequency_report,
)
from .normalize import (
    classic_normalize,
    embedding_normalize,
    load_name_lexicon,
    save_normalized,
)
from .sampling import (
    SamplingReport,
    oversample_replacement,
    undersample_near_fn,
    undersample_random,
    undersample_similar_majority,
)

# Modules that need numpy (features, model_store, pipeline) and evaluation
# are imported inside the handlers that run them, so that split, kappa,
# match, preprocess and the text samplers start without numpy.

logger = logging.getLogger("rareclass")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12]


def _log_input(kind: str, path: Path) -> None:
    logger.info("%s: %s (sha256:%s)", kind, path, _digest(path))


def _load_corpus_logged(path: Path) -> Corpus:
    _log_input("corpus", path)
    return load_corpus(path)


def _config(args) -> PipelineConfig:
    overrides = list(args.set or [])
    for key, attr in (
        ("paths.corpus", "corpus"),
        ("paths.lexicon", "lexicon"),
        ("paths.model", "model"),
    ):
        value = getattr(args, attr, None)
        if value:
            overrides.append(f"{key}={value}")
    return PipelineConfig.from_sources(args.config, overrides)


# model_store needs numpy, so these two import it on call; they stay names
# of this module because perfbench/tracer.py wraps them here
def load_model(path: str | Path):
    from . import model_store

    return model_store.load_model(path)


def save_model(path: str | Path, classifier, vocabulary, scaler=None, extras=None) -> None:
    from . import model_store

    model_store.save_model(path, classifier, vocabulary, scaler, extras)


def _names_and_clusters(cfg: PipelineConfig, need_clusters: bool):
    names_path = cfg.path("paths.name_lexicon", required=True)
    _log_input("name lexicon", names_path)
    names = load_name_lexicon(names_path)
    clusters = None
    if need_clusters:
        clusters_path = cfg.path("paths.clusters")
        if clusters_path is not None:
            if not clusters_path.exists():
                raise ConfigError(f"paths.clusters: no such file {clusters_path}")
            _log_input("clusters", clusters_path)
            from .features import load_clusters

            clusters = load_clusters(clusters_path)
    return names, clusters


def _stored_uses_clusters(stored) -> bool:
    features = stored.extras.get("features")
    return bool(features.get("use_clusters", True)) if isinstance(features, dict) else True


def _label_arg(text: str) -> Label:
    try:
        return Label(text)
    except ValueError:
        raise _UsageError(
            f"unknown label {text!r}; expected one of "
            + ", ".join(l.value for l in LABELS)
        ) from None


def _cmd_split(args) -> int:
    cfg = _config(args)
    corpus = _load_corpus_logged(cfg.path("paths.corpus", required=True))
    result = three_way_split(
        corpus, cfg.test_fraction, cfg.validation_fraction, cfg.split_seed
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (
        ("train", result.train),
        ("validation", result.validation),
        ("test", result.test),
    ):
        path = out_dir / f"{name}.tsv"
        save_corpus(part, path)
        print(f"{name}\t{len(part)}\t{path}")
    logger.info(
        "split seed=%d fractions=%s/%s sizes=%d/%d/%d",
        cfg.split_seed,
        cfg.test_fraction,
        cfg.validation_fraction,
        len(result.train),
        len(result.validation),
        len(result.test),
    )
    return EXIT_OK


def _cmd_kappa(args) -> int:
    path = Path(args.pairs)
    _log_input("annotation pairs", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != ("id", "label_a", "label_b"):
        raise DataError(f"{path}: expected header id\\tlabel_a\\tlabel_b")
    seq_a: list[Label] = []
    seq_b: list[Label] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}: expected 3 columns at line {lineno}")
        try:
            seq_a.append(Label.parse(fields[1]))
            seq_b.append(Label.parse(fields[2]))
        except ValueError as exc:
            raise DataError(f"{path}: {exc} at line {lineno}") from None
    kappa = cohens_kappa(seq_a, seq_b)
    agree = sum(1 for a, b in zip(seq_a, seq_b) if a == b)
    print(f"items\t{len(seq_a)}")
    print(f"agreement\t{agree / len(seq_a):.6f}")
    print(f"kappa\t{kappa:.6f}")
    return EXIT_OK


def _cmd_match(args) -> int:
    cfg = _config(args)
    corpus = _load_corpus_logged(cfg.path("paths.corpus", required=True))
    lexicon_path = cfg.path("paths.lexicon", required=True)
    _log_input("lexicon", lexicon_path)
    lexicon = load_lexicon(lexicon_path)
    matchers = compile_matchers(lexicon)
    tweets = corpus.tweets()
    tally = MatchCounts()
    found = match_corpus(tweets, matchers, tally)
    matches = found if args.no_post_filter else post_filter(tweets, found, tally)
    logger.info(
        "match: %d tweets, %d pattern scans run, %d skipped by the literal check, "
        "%d matches found, %d dropped in retweets, %d dropped inside @user/URL tokens",
        tally.tweets, tally.scans_run, tally.scans_skipped, tally.matches,
        tally.dropped_retweets, tally.dropped_in_tokens,
    )
    lines = ["id\tterm\tspan_start\tspan_end\tsurface"]
    lines.extend(
        f"{m.tweet_id}\t{m.term}\t{m.span[0]}\t{m.span[1]}\t{m.surface}"
        for m in matches
    )
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"matches\t{len(matches)}\t{args.out}")
    if args.term_report:
        report = term_class_frequency_report(corpus, lexicon, found)
        rows = ["term\t" + "\t".join(l.value for l in LABELS)]
        rows.extend(
            term + "\t" + "\t".join(str(counts[l]) for l in LABELS)
            for term, counts in report
        )
        Path(args.term_report).write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"term-report\t{len(report)}\t{args.term_report}")
    if args.annotate_spans:
        first = {}
        for m in matches:
            first.setdefault(m.tweet_id, m.span)
        # the spans come from match_text, which only emits valid ones
        save_corpus(corpus, args.annotate_spans, spans=first)
        print(f"annotated\t{len(corpus)}\t{args.annotate_spans}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    cfg = _config(args)
    corpus = _load_corpus_logged(cfg.path("paths.corpus", required=True))
    pipeline = args.pipeline or cfg.normalize_pipeline
    rows = []
    if pipeline == "classic":
        names, _ = _names_and_clusters(cfg, need_clusters=False)
        norm_config = cfg.normalization()
        for item in corpus:
            normalized = classic_normalize(
                item.tweet, item.match_span, names, norm_config
            )
            rows.append((item.tweet.id, item.label, normalized.tokens))
    else:
        for item in corpus:
            normalized = embedding_normalize(item.tweet)
            rows.append((item.tweet.id, item.label, normalized.tokens))
    save_normalized(rows, args.out)
    print(f"normalized\t{len(rows)}\t{args.out}")
    return EXIT_OK


def _cmd_featurize(args) -> int:
    from .pipeline import FeatureSettings, featurize_corpus, save_features

    cfg = _config(args)
    corpus = _load_corpus_logged(cfg.path("paths.corpus", required=True))
    names, clusters = _names_and_clusters(cfg, need_clusters=cfg.use_clusters)
    settings = FeatureSettings.from_config(cfg)
    vectors, vocab = featurize_corpus(
        corpus, names, clusters, cfg.normalization(), settings
    )
    save_features(
        args.out,
        vocab,
        vectors,
        [item.tweet.id for item in corpus],
        corpus.labels(),
        settings,
    )
    print(f"features\t{len(vectors)}x{vocab.dim}\t{args.out}")
    return EXIT_OK


def _fn_tweets(cfg: PipelineConfig):
    """The near_fn sampler's false negatives; None for any other sampler."""
    if cfg.sampler_method != "near_fn":
        return None
    fn_path = cfg.path("sampler.fn_corpus", required=True)
    _log_input("false negatives", fn_path)
    return load_corpus(fn_path).tweets()


def apply_text_sampler(
    corpus: Corpus, cfg: PipelineConfig, fn_tweets: Sequence[Tweet] | None
) -> tuple[Corpus, SamplingReport | None]:
    """Run the text-level sampler `sampler.method` names.

    ``none`` and ``smote`` (which works on vectors) return the corpus
    unchanged and no report.  The samplers are called through this
    module's names, which perfbench/tracer.py wraps.
    """
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


def _cmd_sample(args) -> int:
    cfg = _config(args)
    corpus = _load_corpus_logged(cfg.path("paths.corpus", required=True))
    sampled, report = apply_text_sampler(corpus, cfg, _fn_tweets(cfg))
    if report is None:
        raise ConfigError(
            "sample requires a text-level method: similar, near_fn, random, or "
            "replacement (smote operates on vectors inside `train`)"
        )
    save_corpus(sampled, args.out)
    report_path = Path(args.report) if args.report else Path(args.out).with_suffix(".report.txt")
    report_path.write_text(report.to_text(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    print(f"sampled\t{len(sampled)}\t{args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .pipeline import train_from_corpus

    cfg = _config(args)
    corpus_path = cfg.path("paths.corpus", required=True)
    corpus = _load_corpus_logged(corpus_path)
    names, clusters = _names_and_clusters(cfg, need_clusters=cfg.use_clusters)
    sampled, report = apply_text_sampler(corpus, cfg, _fn_tweets(cfg))
    result = train_from_corpus(sampled, cfg, names, clusters, report)
    model_path = Path(cfg.get("paths.model"))
    extras = dict(result.extras)
    # digest only: embedding the path would break byte-reproducibility of
    # otherwise identical runs in different directories
    extras["training_corpus"] = {"sha256": _digest(corpus_path)}
    save_model(model_path, result.classifier, result.vocabulary, result.scaler, extras)
    print(f"model\t{cfg.classifier_kind}\t{model_path}")
    if result.sampling_report is not None:
        report_path = model_path.with_suffix(".sampling.txt")
        report_path.write_text(result.sampling_report.to_text(), encoding="utf-8")
        sys.stdout.write(result.sampling_report.to_text())
        print(f"sampling-report\t{report_path}")
    logger.info(
        "trained %s on %d items (vocabulary %d, sampler %s, sampler seed %d)",
        cfg.classifier_kind,
        len(corpus),
        result.vocabulary.dim,
        cfg.sampler_method,
        cfg.sampler_seed,
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from .pipeline import evaluate_corpus

    cfg = _config(args)
    corpus_path = cfg.path("paths.corpus", required=True)
    corpus = _load_corpus_logged(corpus_path)
    model_path = cfg.path("paths.model", required=True)
    _log_input("model", model_path)
    stored = load_model(model_path)
    names, clusters = _names_and_clusters(
        cfg, need_clusters=_stored_uses_clusters(stored)
    )
    report, _ = evaluate_corpus(
        stored,
        corpus,
        names,
        clusters,
        model_id=f"{model_path}#{_digest(model_path)}",
        corpus_id=f"{corpus_path}#{_digest(corpus_path)}",
    )
    if args.out:
        Path(args.out).write_text(report.to_tsv(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    return EXIT_OK


def _cmd_rank_features(args) -> int:
    from .features import CsrMatrix, information_gain
    from .pipeline import FeatureSettings, featurize_corpus, load_features

    cfg = _config(args)
    if args.features:
        features_path = Path(args.features)
        _log_input("features", features_path)
        vocab, vectors, _ids, labels, _settings = load_features(features_path)
    else:
        corpus = _load_corpus_logged(cfg.path("paths.corpus", required=True))
        names, clusters = _names_and_clusters(cfg, need_clusters=cfg.use_clusters)
        settings = FeatureSettings.from_config(cfg)
        vectors, vocab = featurize_corpus(
            corpus, names, clusters, cfg.normalization(), settings
        )
        labels = corpus.labels()
    ranked = information_gain(CsrMatrix.from_rows(vectors, vocab.dim), labels, vocab)
    if args.top:
        ranked = ranked[: args.top]
    lines = ["feature\tkind\tinfo_gain_bits"]
    lines.extend(
        f"{name}\t{vocab.kinds[vocab.index_of(name)]}\t{gain:.6f}"
        for name, gain in ranked
    )
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"ranked\t{len(ranked)}\t{args.out}")
    return EXIT_OK


def _cmd_report_errors(args) -> int:
    from .evaluation import error_report
    from .pipeline import predict_corpus

    cfg = _config(args)
    corpus_path = cfg.path("paths.corpus", required=True)
    corpus = _load_corpus_logged(corpus_path)
    model_path = cfg.path("paths.model", required=True)
    _log_input("model", model_path)
    stored = load_model(model_path)
    names, clusters = _names_and_clusters(
        cfg, need_clusters=_stored_uses_clusters(stored)
    )
    predictions = predict_corpus(stored, corpus, names, clusters)
    gold = _label_arg(args.gold)
    predicted_as = _label_arg(args.predicted_as)
    errors = error_report(corpus, predictions, gold, predicted_as)
    save_corpus(Corpus(tuple(errors), provenance="error-report"), args.out)
    print(f"errors\t{len(errors)}\t{args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rareclass",
        description="rare-class short-text classification pipeline",
    )
    parser.add_argument("--version", action="version", version=f"rareclass {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (section.key = value lines)")
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    common.add_argument("-v", "--verbose", action="count", default=0)
    common.add_argument("--corpus", help="override paths.corpus")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[common], help="stratified train/validation/test split")
    p.add_argument("--out-dir", default=".", help="directory for the three TSVs")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("kappa", parents=[common], help="inter-annotator agreement")
    p.add_argument("--pairs", required=True, help="TSV of id, label_a, label_b")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("match", parents=[common], help="scan a corpus with the term lexicon")
    p.add_argument("--lexicon", help="override paths.lexicon")
    p.add_argument("--out", default="matches.tsv")
    p.add_argument("--no-post-filter", action="store_true",
                   help="keep matches in retweets and inside @user/URL tokens")
    p.add_argument("--term-report", help="write per-term class frequencies here")
    p.add_argument("--annotate-spans", help="write the corpus with first-match spans here")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("preprocess", parents=[common], help="normalize tweets to token rows")
    p.add_argument("--pipeline", choices=("classic", "embedding"),
                   help="override normalize.pipeline")
    p.add_argument("--out", default="normalized.tsv")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("featurize", parents=[common], help="build vocabulary and vectors")
    p.add_argument("--out", default="features.json")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("sample", parents=[common], help="rebalance a corpus at the text level")
    p.add_argument("--method", dest="sampler",
                   choices=("similar", "near_fn", "random", "replacement"),
                   help="override sampler.method")
    p.add_argument("--out", default="sampled.tsv")
    p.add_argument("--report", help="sampling report path (default: <out>.report.txt)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", parents=[common], help="train a classifier, persist the model")
    p.add_argument("--model", help="override paths.model (output)")
    p.add_argument("--classifier", dest="classifier", choices=("svm", "nb"),
                   help="override classifier.kind")
    p.add_argument("--sampler", dest="sampler",
                   choices=("none", "similar", "near_fn", "random", "replacement", "smote"),
                   help="override sampler.method")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a model on a corpus")
    p.add_argument("--model", help="override paths.model (input)")
    p.add_argument("--out", help="write the machine-readable report TSV here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank-features", parents=[common],
                       help="rank features by information gain")
    p.add_argument("--features", help="reuse a featurize artifact instead of a corpus")
    p.add_argument("--out", default="ranked_features.tsv")
    p.add_argument("--top", type=int, help="keep only the top N rows")
    p.set_defaults(func=_cmd_rank_features)

    p = sub.add_parser("report-errors", parents=[common],
                       help="list tweets with a given gold/predicted label pair")
    p.add_argument("--model", help="override paths.model (input)")
    p.add_argument("--gold", default=Label.DEFECT.value)
    p.add_argument("--predicted-as", dest="predicted_as", default=Label.NON_DEFECT.value)
    p.add_argument("--out", default="errors.tsv")
    p.set_defaults(func=_cmd_report_errors)

    return parser


def _apply_cli_shortcuts(args) -> None:
    extra = []
    if getattr(args, "classifier", None):
        extra.append(f"classifier.kind={args.classifier}")
    if getattr(args, "sampler", None):
        extra.append(f"sampler.method={args.sampler}")
    if getattr(args, "pipeline", None):
        extra.append(f"normalize.pipeline={args.pipeline}")
    if extra:
        args.set = list(args.set or []) + extra


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(
            stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
        )
        _apply_cli_shortcuts(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit:
        raise
    except Exception as exc:  # anything else is an internal failure
        logging.getLogger("rareclass").exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
