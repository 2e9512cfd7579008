"""Command-line interface.

Subcommands compose into the full experiment pipeline::

    split -> (sample) -> train -> evaluate -> report-errors

with ``kappa``, ``match``, ``preprocess``, ``featurize``, and
``rank-features`` usable standalone on the documented file formats.
Every run logs its seeds, parameters, and input digests to stderr;
artifacts contain no timestamps, so identical configs and inputs yield
byte-identical outputs.  The digests come from the interpreter's built-in
SHA-256 (`_sha2`, `_sha256` before Python 3.12), so no step loads
OpenSSL; `hashlib` is imported only by a build without them.

Each subcommand declares its inputs and outputs once, beside its parser
entry, and `main` checks every output before any input is read: one that
resolves to an input or to another output is a usage error, and one that
exists but is not a regular file, or whose name is too long, a data error.
The handler writes output i to ``.rareclass.<pid>.<i>.tmp`` beside it, and
`main` renames that onto the output only if the step succeeds, so a failed
step leaves no output, partial or replaced (a killed one can leave a .tmp).

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 internal error.

Each step imports only the layers it runs, because start-up is most of a
step's time on a small corpus.  Every step loads this module, `config`,
`corpus`, `errors` and `rng`; `split` and `kappa` load nothing else,
`match` adds `lexicon`, and `sample` adds `sampling`.  `train` and
`evaluate` add numpy, `pipeline`, `features`, `model_store`, `normalize`,
`porter` and the classifier's module (`svm` or `naive_bayes`); `train`
loads `sampling` only when a sampler runs, and only `evaluate` loads
`evaluation`.  The layer functions perfbench/tracer.py wraps by their
names in this module and in `pipeline` are forwarders (`rareclass.forwarder`),
which import their module on the first call.  A handler must call them by
those names: a local import of the function itself would bypass the
tracer's wrapper.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, forwarder
from .config import (
    CLASSIFIER_KINDS,
    NORMALIZE_PIPELINES,
    SAMPLER_METHODS,
    TEXT_SAMPLER_METHODS,
    PipelineConfig,
)
from .corpus import (
    Corpus,
    Label,
    LABELS,
    cohens_kappa,
    escape_field,
    load_corpus,
    read_table,
    save_corpus,
    three_way_split,
)
from .errors import ConfigError, DataError

try:  # the interpreter's built-in SHA-256: hashlib would load OpenSSL
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

if TYPE_CHECKING:
    from .features import FeatureSettings
    from .sampling import SamplingReport

# Every other layer is imported by the handler that runs it; these are the
# layer functions perfbench/tracer.py wraps in this module (see above).
match_corpus = forwarder("lexicon", "match_corpus")
post_filter = forwarder("lexicon", "post_filter")
undersample_similar_majority = forwarder("sampling", "undersample_similar_majority")
load_model = forwarder("model_store", "load_model")
save_model = forwarder("model_store", "save_model")

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


def _log_input(kind: str, path: Path) -> str:
    """Log an input file with its sha256 digest, and return the digest."""
    digest = sha256(path.read_bytes()).hexdigest()[:12]
    logger.info("%s: %s (sha256:%s)", kind, path, digest)
    return digest


def _read_corpus(cfg: PipelineConfig, empty_ok: bool = False) -> tuple[Corpus, Path, str]:
    """`paths.corpus` read, with its path and the sha256 digest logged for it.
    A corpus with no tweets is a data error unless `empty_ok`."""
    path = cfg.path("paths.corpus", required=True)
    digest = _log_input("corpus", path)
    corpus = load_corpus(path)
    if not len(corpus) and not empty_ok:
        raise DataError(f"{path}: no tweets")
    return corpus, path, digest


class _Output(NamedTuple):
    path: str | Path  # as the command line or config gives it
    tmp: Path  # the temporary sibling of `final` the handler writes
    final: Path  # resolved, so an output that is a symlink is written through it


def _stage(args, cfg: PipelineConfig) -> dict[str, _Output]:
    """The step's outputs by name, as its table entry in `build_parser`
    declares them, checked (see above) before any input is read."""
    declared = args.outputs(args, cfg) if callable(args.outputs) else {
        dest: ("--" + dest.replace("_", "-"), getattr(args, dest)) for dest in args.outputs
    }
    taken = {}
    for name in args.inputs:
        path = getattr(args, name[2:]) if name.startswith("--") else cfg[name]
        if path:
            taken[Path(path).resolve()] = name
    out = {}
    for name, (flag, path) in declared.items():
        if path is not None:
            final = Path(path).resolve()
            if final in taken:
                raise _UsageError(f"{flag} {path} is the {taken[final]} path")
            taken[final] = flag
            tmp = final.with_name(f".rareclass.{os.getpid()}.{len(out)}.tmp")
            out[name] = _Output(path, tmp, final)
    for output in out.values():
        try:
            output.final.stat()
        except (FileNotFoundError, NotADirectoryError):
            continue  # writing it names what is missing
        except OSError as exc:  # a name too long for the file system, say
            raise DataError(f"{output.path}: {exc.strerror}") from None
        if not output.final.is_file():
            raise DataError(f"{output.path}: output exists and is not a regular file")
    return out


# the shortcut flags, by argparse dest, and the config key each overrides
_FLAG_KEYS = {
    "corpus": "paths.corpus",
    "lexicon": "paths.lexicon",
    "model": "paths.model",
    "classifier": "classifier.kind",
    "sampler": "sampler.method",
    "pipeline": "normalize.pipeline",
}


def _config(args) -> PipelineConfig:
    """The config file, then --set, then the shortcut flags; later wins."""
    overrides = list(args.set or [])
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value:
            overrides.append(f"{key}={value}")
    return PipelineConfig.from_sources(args.config, overrides)


def _names_and_clusters(
    cfg: PipelineConfig, settings: FeatureSettings | None = None, trained: dict | None = None
):
    """The name lexicon, the clusters if `settings` use them, and each file's path and
    sha256 digest by its key in a model's extras; a file whose digest differs from the
    one `trained` (a model's extras) records is a data error."""
    from .normalize import load_name_lexicon

    names_path = cfg.path("paths.name_lexicon", required=True)
    files = {"name_lexicon": (names_path, _log_input("name lexicon", names_path))}
    names = load_name_lexicon(names_path)
    clusters = None
    if settings is not None and settings.use_clusters:
        clusters_path = cfg.path("paths.clusters")
        if clusters_path is not None:
            files["clusters"] = (clusters_path, _log_input("clusters", clusters_path))
            from .features import load_clusters

            clusters = load_clusters(clusters_path)
    for key, (path, digest) in files.items():
        if key in (trained or {}) and trained[key] != {"sha256": digest}:
            raise DataError(f"{path}: sha256:{digest} is not the {key} the model was trained with")
    return names, clusters, files


def _featurize_configured(cfg: PipelineConfig):
    """`paths.corpus` featurized as the config says: the corpus, its
    matrix and vocabulary, and the settings used."""
    from .pipeline import featurize_corpus

    corpus, _, _ = _read_corpus(cfg)
    settings = cfg.feature_settings()
    names, clusters, _ = _names_and_clusters(cfg, settings)
    x, vocab = featurize_corpus(corpus, names, clusters, cfg.normalization(), settings)
    return corpus, x, vocab, settings


def _cmd_split(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    corpus, _, _ = _read_corpus(cfg)
    result = three_way_split(
        corpus, cfg["split.test_fraction"], cfg["split.validation_fraction"], cfg["split.seed"]
    )
    out["train"].tmp.parent.mkdir(parents=True, exist_ok=True)
    for name, output in out.items():
        part = getattr(result, name)
        save_corpus(part, output.tmp)
        print(f"{name}\t{len(part)}\t{output.path}")
    logger.info(
        "split seed=%d fractions=%s/%s sizes=%d/%d/%d", cfg["split.seed"],
        cfg["split.test_fraction"], cfg["split.validation_fraction"],
        len(result.train), len(result.validation), len(result.test),
    )


def _cmd_kappa(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    path = Path(args.pairs)
    _log_input("annotation pairs", path)
    seq_a: list[Label] = []
    seq_b: list[Label] = []
    seen: set[str] = set()
    for lineno, (tid, label_a, label_b) in read_table(path, ("id", "label_a", "label_b")):
        if not tid:
            raise DataError(f"{path}: empty id at line {lineno}")
        if tid in seen:
            raise DataError(f"{path}: duplicate id {tid!r} at line {lineno}")
        seen.add(tid)
        try:
            seq_a.append(Label.parse(label_a))
            seq_b.append(Label.parse(label_b))
        except ValueError as exc:
            raise DataError(f"{path}: {exc} at line {lineno}") from None
    if not seq_a:
        raise DataError(f"{path}: no annotation pairs")
    kappa = cohens_kappa(seq_a, seq_b)
    agree = sum(1 for a, b in zip(seq_a, seq_b) if a == b)
    print(f"items\t{len(seq_a)}")
    print(f"agreement\t{agree / len(seq_a):.6f}")
    print(f"kappa\t{kappa:.6f}")


def _cmd_match(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .lexicon import MatchCounts, compile_matchers, load_lexicon, term_class_frequency_report

    corpus, _, _ = _read_corpus(cfg)
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
        f"{m.tweet_id}\t{escape_field(m.term)}\t{m.span[0]}\t{m.span[1]}\t"
        f"{escape_field(m.surface)}"
        for m in matches
    )
    out["out"].tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"matches\t{len(matches)}\t{args.out}")
    if "term_report" in out:
        report = term_class_frequency_report(corpus, lexicon, found)
        rows = ["term\t" + "\t".join(l.value for l in LABELS)]
        rows.extend(
            escape_field(term) + "\t" + "\t".join(str(counts[l]) for l in LABELS)
            for term, counts in report
        )
        out["term_report"].tmp.write_text("\n".join(rows) + "\n", encoding="utf-8")
        print(f"term-report\t{len(report)}\t{args.term_report}")
    if "annotate_spans" in out:
        first = {}
        for m in matches:
            first.setdefault(m.tweet_id, m.span)
        # the spans come from match_corpus, which only emits valid ones
        save_corpus(corpus, out["annotate_spans"].tmp, spans=first)
        print(f"annotated\t{len(corpus)}\t{args.annotate_spans}")


def _cmd_preprocess(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .normalize import classic_normalize, embedding_normalize, save_normalized

    corpus, _, _ = _read_corpus(cfg)
    rows = []
    if cfg["normalize.pipeline"] == "classic":
        names, _, _ = _names_and_clusters(cfg)
        norm_config = cfg.normalization()
        for item in corpus:
            tokens = classic_normalize(item.tweet, item.match_span, names, norm_config)
            rows.append((item.tweet.id, item.label, tokens))
    else:
        for item in corpus:
            rows.append((item.tweet.id, item.label, embedding_normalize(item.tweet)))
    save_normalized(rows, out["out"].tmp)
    print(f"normalized\t{len(rows)}\t{args.out}")


def _cmd_featurize(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .model_store import save_features

    corpus, x, vocab, settings = _featurize_configured(cfg)
    save_features(out["out"].tmp, vocab, x, corpus, settings)
    print(f"features\t{x.n_rows}x{vocab.dim}\t{args.out}")


def _check_sampler(cfg: PipelineConfig, text_level: bool = False) -> Path | None:
    """Check the sampler settings, which a handler does before it reads any
    data, and return the near_fn sampler's false-negative corpus (None for
    other samplers).  `text_level` admits only a text-level method."""
    method = cfg["sampler.method"]
    if text_level and method not in TEXT_SAMPLER_METHODS:
        raise ConfigError(
            f"sample requires a text-level method: {', '.join(TEXT_SAMPLER_METHODS)} "
            "(smote operates on vectors inside `train`)"
        )
    if method == "random" and cfg["sampler.target_total"] == 0:
        raise ConfigError("sampler.target_total must be positive for random sampling")
    if method != "near_fn":
        return None
    if not cfg["sampler.fn_corpus"]:
        raise ConfigError("sampler.fn_corpus must be set for the near_fn sampler")
    return cfg.path("sampler.fn_corpus")


def apply_text_sampler(
    corpus: Corpus, cfg: PipelineConfig
) -> tuple[Corpus, SamplingReport | None]:
    """Run the text-level sampler `sampler.method` names.

    ``none`` and ``smote`` (which works on vectors) return the corpus
    unchanged and no report.  ``near_fn`` reads its false negatives from
    `sampler.fn_corpus` and logs that file's digest.  ``similar`` is called
    through this module's forwarder, which perfbench/tracer.py wraps.
    """
    method = cfg["sampler.method"]
    if method not in TEXT_SAMPLER_METHODS:
        return corpus, None
    from .sampling import oversample_replacement, undersample_near_fn, undersample_random

    fn_path = _check_sampler(cfg)
    if method == "similar":
        return undersample_similar_majority(corpus, cfg["sampler.k"])
    if method == "near_fn":
        _log_input("false negatives", fn_path)
        return undersample_near_fn(corpus, load_corpus(fn_path).tweets(), cfg["sampler.k"])
    if method == "random":
        return undersample_random(corpus, cfg["sampler.target_total"], cfg["sampler.seed"])
    return oversample_replacement(corpus)


def _cmd_sample(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    _check_sampler(cfg, text_level=True)
    corpus, _, _ = _read_corpus(cfg)
    sampled, report = apply_text_sampler(corpus, cfg)
    save_corpus(sampled, out["out"].tmp)
    out["report"].tmp.write_text(report.to_text(), encoding="utf-8")
    sys.stdout.write(report.to_text())
    print(f"sampled\t{len(sampled)}\t{args.out}")


def _train_outputs(args, cfg: PipelineConfig) -> dict:
    """The model, and its sampling report when a sampler runs."""
    if not cfg["paths.model"]:
        raise ConfigError("paths.model must be set for this subcommand")
    model = Path(cfg["paths.model"])
    outputs = {"model": ("--model", model)}
    if cfg["sampler.method"] != "none":
        outputs["sampling"] = ("--model (sampling report)", model.with_suffix(".sampling.txt"))
    return outputs


def _cmd_train(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .pipeline import train_from_corpus

    _check_sampler(cfg)
    corpus, corpus_path, corpus_digest = _read_corpus(cfg)
    names, clusters, files = _names_and_clusters(cfg, cfg.feature_settings())
    sampled, report = apply_text_sampler(corpus, cfg)
    model, report = train_from_corpus(sampled, cfg, names, clusters, report)
    # digests only: embedding the paths would break byte-reproducibility of
    # otherwise identical runs in different directories
    files["training_corpus"] = (corpus_path, corpus_digest)
    extras = {**model.extras, **{key: {"sha256": digest} for key, (_, digest) in files.items()}}
    save_model(out["model"].tmp, replace(model, extras=extras))
    print(f"model\t{cfg['classifier.kind']}\t{out['model'].path}")
    if report is not None:
        out["sampling"].tmp.write_text(report.to_text(), encoding="utf-8")
        sys.stdout.write(report.to_text())
        print(f"sampling-report\t{out['sampling'].path}")
    sampler = cfg["sampler.method"]
    if report is not None and "seed" in report.parameters:
        sampler += f", sampler seed {report.parameters['seed']}"
    logger.info(
        "trained %s on %d items (vocabulary %d, sampler %s)", cfg["classifier.kind"],
        len(corpus) if report is None else sum(report.output_counts.values()),
        model.vocabulary.dim, sampler,
    )


def _scoring_inputs(cfg: PipelineConfig, empty_ok: bool):
    """The corpus, the model, and the name lexicon and clusters it was trained
    with, each hashed once; with the ``model_id`` and ``corpus_id`` an
    evaluation report names them by.  A corpus with no tweets is a data
    error unless `empty_ok`."""
    corpus, corpus_path, corpus_digest = _read_corpus(cfg, empty_ok)
    model_path = cfg.path("paths.model", required=True)
    model_digest = _log_input("model", model_path)
    stored = load_model(model_path)
    names, clusters, _ = _names_and_clusters(cfg, stored.features, stored.extras)
    ids = {"model_id": f"{model_path}#{model_digest}", "corpus_id": f"{corpus_path}#{corpus_digest}"}
    return corpus, stored, names, clusters, ids


def _cmd_evaluate(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .pipeline import evaluate_corpus

    corpus, stored, names, clusters, ids = _scoring_inputs(cfg, empty_ok=False)
    report, _ = evaluate_corpus(stored, corpus, names, clusters, **ids)
    if "out" in out:
        out["out"].tmp.write_text(report.to_tsv(), encoding="utf-8")
    sys.stdout.write(report.to_text())


def _cmd_rank_features(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .features import feature_kind, information_gain
    from .model_store import load_features

    if args.top is not None and args.top < 1:
        raise _UsageError(f"--top must be at least 1, got {args.top}")
    if args.features:
        features_path = Path(args.features)
        _log_input("features", features_path)
        vocab, x, _ids, labels, _settings = load_features(features_path)
    else:
        corpus, x, vocab, _settings = _featurize_configured(cfg)
        labels = corpus.labels()
    ranked = information_gain(x, labels, vocab)
    if args.top is not None:
        ranked = ranked[: args.top]
    lines = ["feature\tkind\tinfo_gain_bits"]
    lines.extend(
        f"{name}\t{feature_kind(name)}\t{gain:.6f}"
        for name, gain in ranked
    )
    out["out"].tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"ranked\t{len(ranked)}\t{args.out}")


def _cmd_report_errors(args, cfg: PipelineConfig, out: dict[str, _Output]) -> None:
    from .evaluation import error_report
    from .pipeline import predict_corpus

    corpus, stored, names, clusters, _ = _scoring_inputs(cfg, empty_ok=True)
    predictions = predict_corpus(stored, corpus, names, clusters)
    errors = error_report(corpus, predictions, Label(args.gold), Label(args.predicted_as))
    save_corpus(Corpus(tuple(errors), provenance="error-report"), out["out"].tmp)
    print(f"errors\t{len(errors)}\t{args.out}")


def build_parser() -> _Parser:
    parser = _Parser(prog="rareclass", description="rare-class short-text classification pipeline")
    parser.add_argument("--version", action="version", version=f"rareclass {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config file (section.key = value lines)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("-v", "--verbose", action="count", default=0)
    common.add_argument("--corpus", help="override paths.corpus")

    # Each step's table entry, in `set_defaults`: its handler; its `inputs`, as
    # config path keys and the flags that name an input file; and its `outputs`,
    # as the dests of the flags that name one (unset, it is not written), or a
    # function of the args and config giving {name: (flag, path)}.  The handler
    # writes each output only to the temporary path `main` hands it (`_Output`).
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[common], help="stratified train/validation/test split")
    p.add_argument("--out-dir", default=".", help="directory for the three TSVs")
    p.set_defaults(func=_cmd_split, inputs=("paths.corpus",), outputs=lambda args, cfg: {
        name: ("--out-dir", Path(args.out_dir) / f"{name}.tsv")
        for name in ("train", "validation", "test")
    })

    p = sub.add_parser("kappa", parents=[common], help="inter-annotator agreement")
    p.add_argument("--pairs", required=True, help="TSV of id, label_a, label_b")
    p.set_defaults(func=_cmd_kappa, inputs=("--pairs",), outputs=())

    p = sub.add_parser("match", parents=[common], help="scan a corpus with the term lexicon")
    p.add_argument("--lexicon", help="override paths.lexicon")
    p.add_argument("--out", default="matches.tsv")
    p.add_argument("--no-post-filter", action="store_true",
                   help="keep matches in retweets and inside @user/URL tokens")
    p.add_argument("--term-report", help="write per-term class frequencies here")
    p.add_argument("--annotate-spans", help="write the corpus with first-match spans here")
    p.set_defaults(func=_cmd_match, inputs=("paths.corpus", "paths.lexicon"),
                   outputs=("out", "term_report", "annotate_spans"))

    p = sub.add_parser("preprocess", parents=[common], help="normalize tweets to token rows")
    p.add_argument("--pipeline", choices=NORMALIZE_PIPELINES,
                   help="override normalize.pipeline")
    p.add_argument("--out", default="normalized.tsv")
    p.set_defaults(func=_cmd_preprocess, inputs=("paths.corpus", "paths.name_lexicon"),
                   outputs=("out",))

    p = sub.add_parser("featurize", parents=[common], help="build vocabulary and vectors")
    p.add_argument("--out", default="features.json")
    p.set_defaults(func=_cmd_featurize, outputs=("out",),
                   inputs=("paths.corpus", "paths.name_lexicon", "paths.clusters"))

    p = sub.add_parser("sample", parents=[common], help="rebalance a corpus at the text level")
    p.add_argument("--method", dest="sampler", choices=TEXT_SAMPLER_METHODS,
                   help="override sampler.method")
    p.add_argument("--out", default="sampled.tsv")
    p.add_argument("--report", help="sampling report path (default: <out>.report.txt)")
    p.set_defaults(func=_cmd_sample, inputs=("paths.corpus", "sampler.fn_corpus"),
                   outputs=lambda args, cfg: {"out": ("--out", args.out), "report": (
                       "--report", args.report or Path(args.out).with_suffix(".report.txt"))})

    p = sub.add_parser("train", parents=[common], help="train a classifier, persist the model")
    p.add_argument("--model", help="override paths.model (output)")
    p.add_argument("--classifier", choices=CLASSIFIER_KINDS, help="override classifier.kind")
    p.add_argument("--sampler", choices=SAMPLER_METHODS, help="override sampler.method")
    p.set_defaults(func=_cmd_train, outputs=_train_outputs, inputs=(
        "paths.corpus", "paths.name_lexicon", "paths.clusters", "sampler.fn_corpus"))

    p = sub.add_parser("evaluate", parents=[common], help="score a model on a corpus")
    p.add_argument("--model", help="override paths.model (input)")
    p.add_argument("--out", help="write the machine-readable report TSV here")
    p.set_defaults(func=_cmd_evaluate, outputs=("out",),
                   inputs=("paths.model", "paths.corpus", "paths.name_lexicon", "paths.clusters"))

    p = sub.add_parser("rank-features", parents=[common],
                       help="rank features by information gain")
    p.add_argument("--features", help="reuse a featurize artifact instead of a corpus")
    p.add_argument("--out", default="ranked_features.tsv")
    p.add_argument("--top", type=int, help="keep only the top N rows")
    p.set_defaults(func=_cmd_rank_features, outputs=("out",),
                   inputs=("paths.corpus", "paths.name_lexicon", "paths.clusters", "--features"))

    p = sub.add_parser("report-errors", parents=[common],
                       help="list tweets with a given gold/predicted label pair")
    p.add_argument("--model", help="override paths.model (input)")
    label_names = [label.value for label in LABELS]
    p.add_argument("--gold", choices=label_names, default=Label.DEFECT.value)
    p.add_argument("--predicted-as", choices=label_names, default=Label.NON_DEFECT.value)
    p.add_argument("--out", default="errors.tsv")
    p.set_defaults(func=_cmd_report_errors, outputs=("out",),
                   inputs=("paths.model", "paths.corpus", "paths.name_lexicon", "paths.clusters"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    out: dict[str, _Output] = {}
    try:
        args = parser.parse_args(argv)
        level = logging.WARNING - 10 * min(args.verbose, 2)
        logging.basicConfig(
            stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
        )
        # every key is parsed here, before any work runs, whichever keys
        # the subcommand reads
        cfg = _config(args)
        out = _stage(args, cfg)
        args.func(args, cfg, out)  # a step fails by raising
        unwritten = [str(output.path) for output in out.values() if not output.tmp.is_file()]
        if unwritten:
            raise RuntimeError(f"{args.command} did not write {', '.join(unwritten)}")
        for output in out.values():
            os.replace(output.tmp, output.final)
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit:
        raise
    except Exception as exc:  # anything else is an internal failure
        logging.getLogger("rareclass").exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:  # a failed step's outputs; a committed one's are gone already
        for output in out.values():
            with contextlib.suppress(OSError):
                output.tmp.unlink()


if __name__ == "__main__":
    raise SystemExit(main())
