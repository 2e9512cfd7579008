"""CLI subcommands end to end on the bundled demo files.

Each subcommand runs in-process through `main(argv)`; exit codes follow
the documented contract (0 ok, 1 usage/config, 2 data, 3 internal).
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rareclass.cli import _config, _stage, build_parser, main
from rareclass.corpus import TSV_HEADER, AnnotatedTweet, Corpus, Label, load_corpus, save_corpus
from rareclass.demo import packaged_data_path
from rareclass.lexicon import compile_matchers, load_lexicon

from conftest import make_corpus

# the package's source, for the PYTHONPATH of a step run as its own process
SRC = Path(__file__).resolve().parents[1] / "src"

# small NB models written by the writers of retired model formats, by version
RETIRED_MODELS = {v: Path(__file__).resolve().parent / "data" / f"model_v{v}.json" for v in (2, 3, 4)}


def unescape(field: str) -> str:
    """A field written with the corpus TSV's escapes, decoded."""
    return re.sub(r"\\(.)", lambda m: {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}[m[1]], field)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Demo inputs plus a split, trained model, and evaluation artifacts."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}
    for name in ("demo_corpus.tsv", "demo_lexicon.txt", "demo_names.txt", "demo_clusters.tsv"):
        target = root / name
        shutil.copy(packaged_data_path(name), target)
        paths[name] = target
    cfg = root / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                f"paths.corpus = {paths['demo_corpus.tsv']}",
                f"paths.lexicon = {paths['demo_lexicon.txt']}",
                f"paths.name_lexicon = {paths['demo_names.txt']}",
                f"paths.clusters = {paths['demo_clusters.tsv']}",
                f"paths.model = {root / 'model.json'}",
                "split.seed = 13",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    assert main(["split", "--config", str(cfg), "--out-dir", str(root / "splits")]) == 0
    assert (
        main(
            [
                "train",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "train.tsv"),
            ]
        )
        == 0
    )
    return root, cfg, paths


class TestSplit:
    def test_sizes_follow_ceiling_rule(self, workspace):
        root, _, _ = workspace
        train = load_corpus(root / "splits" / "train.tsv")
        validation = load_corpus(root / "splits" / "validation.tsv")
        test = load_corpus(root / "splits" / "test.tsv")
        assert (len(train), len(validation), len(test)) == (320, 80, 100)
        counts = test.class_counts()
        assert counts[Label.DEFECT] == 5 and counts[Label.POSSIBLE_DEFECT] == 5

    def test_split_deterministic_across_runs(self, workspace, tmp_path):
        root, cfg, _ = workspace
        assert main(["split", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        for name in ("train.tsv", "validation.tsv", "test.tsv"):
            assert (tmp_path / name).read_bytes() == (root / "splits" / name).read_bytes()


class TestKappa:
    def test_pairs_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        rows = ["id\tlabel_a\tlabel_b"]
        rows += [f"t{i}\tdefect\tdefect" for i in range(8)]
        rows += ["t8\tdefect\tnon_defect", "t9\tnon_defect\tnon_defect"]
        pairs.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["kappa", "--pairs", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert "kappa\t" in out and "items\t10" in out

    def test_malformed_pairs_is_data_error(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("id\tlabel_a\tlabel_b\nt1\tdefect\n", encoding="utf-8")
        assert main(["kappa", "--pairs", str(pairs)]) == 2

    def test_header_only_pairs_is_data_error_naming_the_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("id\tlabel_a\tlabel_b\n", encoding="utf-8")
        assert main(["kappa", "--pairs", str(pairs)]) == 2
        captured = capsys.readouterr()
        assert f"data error: {pairs}: no annotation pairs" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "rows,message",
        [
            (["t1\tdefect\tdefect", "t2\tdefect\tnon_defect", "t1\tnon_defect\tnon_defect"],
             "duplicate id 't1' at line 4"),
            (["t1\tdefect\tdefect", "\tdefect\tnon_defect", "t3\tnon_defect\tnon_defect"],
             "empty id at line 3"),
        ],
        ids=["repeated", "empty"],
    )
    def test_bad_id_is_data_error_naming_the_line(self, tmp_path, capsys, rows, message):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("\n".join(["id\tlabel_a\tlabel_b", *rows]) + "\n", encoding="utf-8")
        assert main(["kappa", "--pairs", str(pairs)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


    @pytest.mark.parametrize(
        "text,message",
        [
            ("t1\tdefect\tdefect\n", "expected header id\\tlabel_a\\tlabel_b"),
            ("id\tlabel_b\tlabel_a\nt1\tdefect\tdefect\n", "expected header id\\tlabel_a"),
            ("id\tlabel_a\tlabel_b\nt1\tdefect\tdefect\nt2\tdefect\tdefekt\n",
             "unknown label 'defekt' at line 3"),
        ],
        ids=["no-header", "header-out-of-order", "unknown-label"],
    )
    def test_bad_header_or_label_is_data_error_naming_it(self, tmp_path, capsys, text, message):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(text, encoding="utf-8")
        assert main(["kappa", "--pairs", str(pairs)]) == 2
        captured = capsys.readouterr()
        assert f"data error: {pairs}: {message}" in captured.err and captured.out == ""


class TestMatch:
    def test_match_writes_tsv_and_term_report(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "matches.tsv"
        report = tmp_path / "terms.tsv"
        rc = main(
            [
                "match",
                "--config", str(cfg),
                "--out", str(out),
                "--term-report", str(report),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id\tterm\tspan_start\tspan_end\tsurface"
        assert len(lines) > 400
        term_lines = report.read_text().strip().split("\n")
        assert term_lines[0] == "term\tdefect\tpossible_defect\tnon_defect"

    def test_annotate_spans_round_trips(self, workspace, tmp_path):
        _, cfg, _ = workspace
        annotated = tmp_path / "annotated.tsv"
        rc = main(
            [
                "match",
                "--config", str(cfg),
                "--out", str(tmp_path / "m.tsv"),
                "--annotate-spans", str(annotated),
            ]
        )
        assert rc == 0
        corpus = load_corpus(annotated)
        spanned = sum(1 for item in corpus if item.match_span is not None)
        assert spanned > 450

    def test_annotate_spans_equals_rebuilt_corpus(self, workspace, tmp_path):
        _, cfg, paths = workspace
        annotated, matches = tmp_path / "annotated.tsv", tmp_path / "m.tsv"
        rc = main(
            [
                "match",
                "--config", str(cfg),
                "--out", str(matches),
                "--annotate-spans", str(annotated),
            ]
        )
        assert rc == 0
        first = {}
        for line in matches.read_text(encoding="utf-8").splitlines()[1:]:
            tweet_id, _, start, end, _ = line.split("\t")
            first.setdefault(tweet_id, (int(start), int(end)))
        corpus = load_corpus(paths["demo_corpus.tsv"])
        rebuilt = Corpus(
            tuple(
                AnnotatedTweet(item.tweet, item.label, first.get(item.tweet.id))
                for item in corpus
            )
        )
        expected = tmp_path / "rebuilt.tsv"
        save_corpus(rebuilt, expected)
        assert annotated.read_bytes() == expected.read_bytes()

    def test_logs_scan_counts(self, workspace, tmp_path, caplog):
        _, cfg, _ = workspace
        out = tmp_path / "m.tsv"
        with caplog.at_level("INFO", logger="rareclass"):
            assert main(["match", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("match:")]
        assert len(lines) == 1
        tweets, run, skipped, found, retweets, in_tokens = map(
            int, re.findall(r"\d+", lines[0])
        )
        corpus = load_corpus(packaged_data_path("demo_corpus.tsv"))
        patterns = len(compile_matchers(load_lexicon(packaged_data_path("demo_lexicon.txt"))).patterns)
        assert tweets == len(corpus)
        assert run + skipped == tweets * patterns
        assert 0 < run < skipped
        written = len(out.read_text().strip().split("\n")) - 1
        assert found - retweets - in_tokens == written

    def test_text_fields_are_escaped(self, workspace, tmp_path):
        """`term` and `surface` are escaped as the corpus escapes `text`, so
        a match across a tab or a newline, or a term with a backslash,
        keeps its row whole."""
        _, cfg, _ = workspace
        corpus, lexicon = tmp_path / "corpus.tsv", tmp_path / "lexicon.txt"
        texts = {"t1": "my son has club\tfoot", "t2": "my son has club\nfoot",
                 "t3": "our baby has a\\b today"}
        save_corpus(make_corpus([(tid, text, Label.DEFECT) for tid, text in texts.items()]), corpus)
        lexicon.write_text("club foot\na\\b\n", encoding="utf-8")
        out, report = tmp_path / "matches.tsv", tmp_path / "terms.tsv"
        assert main(["match", "--config", str(cfg), "--corpus", str(corpus), "--lexicon",
                     str(lexicon), "--out", str(out), "--term-report", str(report)]) == 0
        header, *rows = out.read_text(encoding="utf-8").removesuffix("\n").split("\n")
        assert header == "id\tterm\tspan_start\tspan_end\tsurface"
        fields = [row.split("\t") for row in rows]
        assert [len(f) for f in fields] == [5, 5, 5]
        for tid, term, start, end, surface in fields:
            raw = texts[tid].encode("utf-8")[int(start):int(end)]
            assert unescape(surface) == raw.decode("utf-8")
        assert [(tid, unescape(term)) for tid, term, *_ in fields] == [
            ("t1", "club foot"), ("t2", "club foot"), ("t3", "a\\b")
        ]
        assert report.read_text(encoding="utf-8").split("\n")[1:] == [
            "club foot\t2\t0\t0", "a\\\\b\t1\t0\t0", ""
        ]

    def test_empty_canonical_term_is_data_error_naming_the_line(self, workspace, tmp_path, capsys):
        _, cfg, _ = workspace
        lexicon, out = tmp_path / "lexicon.txt", tmp_path / "matches.tsv"
        lexicon.write_text("| variant\n", encoding="utf-8")
        argv = ["match", "--config", str(cfg), "--lexicon", str(lexicon), "--out", str(out)]
        assert main(argv) == 2
        assert f"data error: {lexicon}: empty canonical term at line 1" in capsys.readouterr().err
        assert not out.exists()


class TestPreprocess:
    @pytest.mark.parametrize("pipeline", ["classic", "embedding"])
    def test_writes_normalized_rows(self, workspace, tmp_path, pipeline):
        _, cfg, _ = workspace
        out = tmp_path / f"{pipeline}.tsv"
        rc = main(
            ["preprocess", "--config", str(cfg), "--pipeline", pipeline, "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id\tlabel\ttokens"
        assert len(lines) == 501
        if pipeline == "classic":
            assert "<bdterm>" in out.read_text()


class TestFeaturize:
    def test_features_json(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "features.json"
        assert main(["featurize", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == "rareclass.features"
        assert len(doc["docs"]) == 500


class TestFeaturizeLog:
    LINE = re.compile(r"featurized (\d+) documents: vocabulary (\d+), nnz (\d+)")

    def test_train_and_featurize_log_the_written_counts(self, workspace, tmp_path, caplog):
        from rareclass.model_store import load_features, load_model

        root, cfg, _ = workspace
        train = str(root / "splits" / "train.tsv")
        features, model = tmp_path / "features.json", tmp_path / "model.json"
        with caplog.at_level("INFO", logger="rareclass"):
            assert main(["featurize", "-v", "--config", str(cfg), "--corpus", train,
                         "--out", str(features)]) == 0
            assert main(["train", "-v", "--config", str(cfg), "--corpus", train,
                         "--model", str(model)]) == 0
        logged = [
            tuple(map(int, match.groups()))
            for match in (self.LINE.fullmatch(r.getMessage()) for r in caplog.records)
            if match
        ]
        vocab, x, ids, _, _ = load_features(features)
        assert logged == [(len(ids), vocab.dim, len(x.data))] * 2
        assert len(ids) == 320 and len(x.data) > 0
        assert load_model(model).vocabulary.dim == vocab.dim


class TestTrainLog:
    LINE = re.compile(r"trained svm on (\d+) items \(vocabulary \d+, sampler (.+)\)")

    @pytest.mark.parametrize(
        "sampler,items,named",
        [
            ("none", 320, "none"),
            ("similar", 53, "similar"),
            ("smote", 864, "smote, sampler seed 7"),
        ],
    )
    def test_logs_what_the_classifier_trained_on(
        self, workspace, tmp_path, caplog, sampler, items, named
    ):
        """The sampler's output total (the corpus read when none runs), and
        the seed only for samplers that read it."""
        root, cfg, _ = workspace
        model = tmp_path / "model.json"
        with caplog.at_level("INFO", logger="rareclass"):
            assert main(["train", "-v", "--config", str(cfg), "--corpus",
                         str(root / "splits" / "train.tsv"), "--model", str(model),
                         "--sampler", sampler, "--set", "sampler.seed=7"]) == 0
        logged = [
            match.groups()
            for match in (self.LINE.fullmatch(r.getMessage()) for r in caplog.records)
            if match
        ]
        assert logged == [(str(items), named)]
        if sampler != "none":
            total = model.with_suffix(".sampling.txt").read_text().splitlines()[-1]
            assert total.split() == ["total", "320", str(items)]


class TestMissingClusters:
    @pytest.mark.parametrize("command", ["evaluate", "report-errors"])
    def test_model_with_cluster_columns_needs_the_file(
        self, workspace, tmp_path, capsys, caplog, command
    ):
        from rareclass.features import feature_kind
        from rareclass.model_store import load_model

        root, cfg, _ = workspace
        assert "cluster" in map(feature_kind, load_model(root / "model.json").vocabulary.names)
        out = tmp_path / "out.tsv"
        argv = [command, "--config", str(cfg), "--corpus", str(root / "splits" / "test.tsv"),
                "--out", str(out), "--set", "paths.clusters="]
        with caplog.at_level("INFO", logger="rareclass"):
            assert main(argv) == 1
        message = "config error: paths.clusters must be set: the model has cluster columns"
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert not any(r.getMessage().startswith("featurized") for r in caplog.records)

    def test_model_without_cluster_columns_needs_no_file(self, workspace, tmp_path):
        from rareclass.features import feature_kind
        from rareclass.model_store import load_model

        root, cfg, _ = workspace
        model = tmp_path / "model.json"
        no_clusters = ["--config", str(cfg), "--model", str(model), "--set", "paths.clusters="]
        train = str(root / "splits" / "train.tsv")
        assert main(["train", "--corpus", train, *no_clusters]) == 0
        stored = load_model(model)
        assert stored.features.use_clusters
        assert "cluster" not in map(feature_kind, stored.vocabulary.names)
        test = str(root / "splits" / "test.tsv")
        for command in ("evaluate", "report-errors"):
            out = tmp_path / f"{command}.tsv"
            assert main([command, "--corpus", test, "--out", str(out), *no_clusters]) == 0
            assert out.exists()


class TestModelInputs:
    """`evaluate` and `report-errors` check the name lexicon and the
    clusters against the digests `train` recorded, before featurizing."""

    FILES = [("name_lexicon", "demo_names.txt", "Zelda\n"),
             ("clusters", "demo_clusters.tsv", "0101\tzzzz\t1\n")]

    def _run(self, workspace, tmp_path, command, overrides):
        root, cfg, _ = workspace
        out = tmp_path / "out.tsv"
        argv = [command, "--config", str(cfg), "--corpus", str(root / "splits" / "test.tsv"),
                "--out", str(out)]
        for key, path in overrides.items():
            argv += ["--set", f"paths.{key}={path}"]
        return main(argv), out

    @pytest.mark.parametrize("command", ["evaluate", "report-errors"])
    @pytest.mark.parametrize("key, name, extra", FILES, ids=["name_lexicon", "clusters"])
    def test_changed_file_is_data_error(
        self, workspace, tmp_path, capsys, caplog, command, key, name, extra
    ):
        _, _, paths = workspace
        changed = tmp_path / name
        changed.write_text(paths[name].read_text(encoding="utf-8") + extra, encoding="utf-8")
        with caplog.at_level("INFO", logger="rareclass"):
            code, out = self._run(workspace, tmp_path, command, {key: changed})
        assert code == 2
        err = capsys.readouterr().err
        assert f"data error: {changed}: sha256:" in err
        assert f"is not the {key} the model was trained with" in err
        assert not out.exists()
        assert not any(r.getMessage().startswith("featurized") for r in caplog.records)

    @pytest.mark.parametrize("command", ["evaluate", "report-errors"])
    def test_same_files_at_other_paths_pass(self, workspace, tmp_path, command):
        _, _, paths = workspace
        copies = {}
        for key, name, _ in self.FILES:
            copies[key] = tmp_path / name
            shutil.copy(paths[name], copies[key])
        code, out = self._run(workspace, tmp_path, command, copies)
        assert code == 0 and out.exists()


class TestSample:
    def test_random_undersample(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "sampled.tsv"
        rc = main(
            [
                "sample",
                "--config", str(cfg),
                "--method", "random",
                "--set", "sampler.target_total=200",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(load_corpus(out)) == 200
        assert (tmp_path / "sampled.report.txt").read_text().startswith("method:")

    def test_smote_rejected_at_text_level(self, workspace, tmp_path):
        _, cfg, _ = workspace
        rc = main(
            [
                "sample",
                "--config", str(cfg),
                "--set", "sampler.method=smote",
                "--out", str(tmp_path / "x.tsv"),
            ]
        )
        assert rc == 1


    def test_none_rejected_at_text_level(self, workspace, tmp_path):
        _, cfg, _ = workspace
        rc = main(
            [
                "sample",
                "--config", str(cfg),
                "--set", "sampler.method=none",
                "--out", str(tmp_path / "x.tsv"),
            ]
        )
        assert rc == 1
        assert not (tmp_path / "x.tsv").exists()

    # the config error each sampler setting below raises, by its last argument
    SAMPLER_ERRORS = {
        "sampler.method=smote": "sample requires a text-level method: ",
        "sampler.method=none": "sample requires a text-level method: ",
        "near_fn": "sampler.fn_corpus must be set for the near_fn sampler",
        "random": "sampler.target_total must be positive for random sampling",
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--set", "sampler.method=smote"],
            ["sample", "--set", "sampler.method=none"],
            ["sample", "--method", "near_fn"],
            ["sample", "--method", "random"],
            ["train", "--sampler", "near_fn"],
            ["train", "--sampler", "random"],
        ],
    )
    def test_sampler_config_checked_before_the_corpus(
        self, workspace, tmp_path, capsys, argv, caplog
    ):
        _, cfg, _ = workspace
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\tcorpus\n", encoding="utf-8")
        out = ["--out" if argv[0] == "sample" else "--model", str(tmp_path / "out")]
        with caplog.at_level("INFO"):
            rc = main([*argv, "--config", str(cfg), "--corpus", str(bad), *out])
        assert rc == 1
        assert f"config error: {self.SAMPLER_ERRORS[argv[-1]]}" in capsys.readouterr().err
        assert not any(r.getMessage().startswith("corpus:") for r in caplog.records)
        assert not (tmp_path / "out").exists()

    def test_report_at_the_out_path_is_usage_error_before_the_corpus(
        self, workspace, tmp_path, capsys
    ):
        _, cfg, _ = workspace
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\tcorpus\n", encoding="utf-8")
        out = tmp_path / "sampled.tsv"
        rc = main(
            [
                "sample",
                "--config", str(cfg),
                "--corpus", str(bad),
                "--method", "similar",
                "--out", str(out),
                "--report", str(tmp_path / "sub" / ".." / "sampled.tsv"),
            ]
        )
        assert rc == 1
        assert "usage error: --report" in capsys.readouterr().err
        assert not out.exists()

    def test_method_flag_overrides_config(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "sampled.tsv"
        rc = main(
            [
                "sample",
                "--config", str(cfg),
                "--set", "sampler.method=smote",
                "--method", "replacement",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (tmp_path / "sampled.report.txt").read_text().startswith(
            "method: replacement_oversample"
        )

    @staticmethod
    def without(paths, label, path):
        """The demo corpus less its `label` rows, saved at `path`."""
        corpus = load_corpus(paths["demo_corpus.tsv"])
        save_corpus(corpus.subset([i for i, item in enumerate(corpus) if item.label != label]), path)
        return path

    @pytest.mark.parametrize(
        "case,message",
        [
            ("target above the corpus", "data error: target_total 100000 above corpus size 500"),
            ("no majority rows", "data error: majority class is empty"),
        ],
        ids=["target-above-the-corpus", "no-majority-rows"],
    )
    def test_corpus_the_sampler_cannot_use_is_data_error(
        self, workspace, tmp_path, capsys, case, message
    ):
        _, cfg, paths = workspace
        out = tmp_path / "sampled.tsv"
        argv = ["sample", "--config", str(cfg), "--out", str(out)]
        if case == "target above the corpus":
            argv += ["--method", "random", "--set", "sampler.target_total=100000"]
        else:
            corpus = self.without(paths, Label.NON_DEFECT, tmp_path / "corpus.tsv")
            argv += ["--method", "replacement", "--corpus", str(corpus)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replacement_leaves_an_empty_minority_class_empty(self, workspace, tmp_path, caplog):
        _, cfg, paths = workspace
        corpus = self.without(paths, Label.POSSIBLE_DEFECT, tmp_path / "corpus.tsv")
        out = tmp_path / "sampled.tsv"
        argv = ["sample", "--config", str(cfg), "--corpus", str(corpus), "--method", "replacement",
                "--out", str(out)]
        with caplog.at_level("WARNING"):
            assert main(argv) == 0
        assert "minority class possible_defect is empty; left empty" in caplog.text
        labels = [item.label for item in load_corpus(out)]
        assert Label.POSSIBLE_DEFECT not in labels and Label.DEFECT in labels

    def test_near_fn_reads_fn_corpus(self, workspace, tmp_path):
        root, cfg, _ = workspace
        train = load_corpus(root / "splits" / "train.tsv")
        fn_path = tmp_path / "fn.tsv"
        save_corpus(train.subset(range(10)), fn_path)
        out = tmp_path / "sampled.tsv"
        rc = main(
            [
                "sample",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "train.tsv"),
                "--method", "near_fn",
                "--set", f"sampler.fn_corpus={fn_path}",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert len(load_corpus(out)) < len(train)
        report = (tmp_path / "sampled.report.txt").read_text()
        assert "method: near_fn_undersample" in report
        assert "parameter fn_count: 10" in report


class TestTrainEvaluate:
    def test_model_written(self, workspace):
        root, _, _ = workspace
        doc = json.loads((root / "model.json").read_text())
        assert doc["format"] == "rareclass.model" and doc["kind"] == "svm"

    def test_evaluate_report_format(self, workspace, tmp_path, capsys):
        root, cfg, _ = workspace
        out = tmp_path / "report.tsv"
        rc = main(
            [
                "evaluate",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "test.tsv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "class\tprecision\trecall\tf1"
        assert len(lines) == 5 and lines[-1].startswith("overall\t")
        assert "confusion matrix" in capsys.readouterr().out

    def test_train_with_sampler_writes_report(self, workspace, tmp_path):
        root, cfg, _ = workspace
        model = tmp_path / "sampled_model.json"
        rc = main(
            [
                "train",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "train.tsv"),
                "--model", str(model),
                "--sampler", "smote",
            ]
        )
        assert rc == 0
        assert (tmp_path / "sampled_model.sampling.txt").exists()

    def test_nb_classifier_flag(self, workspace, tmp_path):
        root, cfg, _ = workspace
        model = tmp_path / "nb.json"
        rc = main(
            [
                "train",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "train.tsv"),
                "--model", str(model),
                "--classifier", "nb",
            ]
        )
        assert rc == 0
        assert json.loads(model.read_text())["kind"] == "nb"

    def test_outputs_do_not_depend_on_the_hash_seed(self, workspace, tmp_path):
        """`split`, `train` and `evaluate` write the same files, stdout and
        stderr, byte for byte, under two `PYTHONHASHSEED` values.  Each step
        is its own process, as a hash seed is fixed for a process's life."""
        _, cfg, _ = workspace
        steps = [
            ["split", "--out-dir", "splits"],
            ["train", "--corpus", "splits/train.tsv", "--model", "model.json"],
            ["evaluate", "--corpus", "splits/test.tsv", "--model", "model.json",
             "--out", "report.tsv"],
        ]
        runs = {}
        for seed in ("1", "12345"):
            run_dir = tmp_path / seed
            run_dir.mkdir()
            env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
            logs = []
            for command, *args in steps:
                done = subprocess.run(
                    [sys.executable, "-m", "rareclass.cli", command, "-v", "--config", str(cfg),
                     *args],
                    cwd=run_dir, env=env, capture_output=True, timeout=120,
                )
                assert done.returncode == 0, done.stderr
                logs.append((done.stdout, done.stderr))
            files = {
                str(path.relative_to(run_dir)): path.read_bytes()
                for path in sorted(run_dir.rglob("*")) if path.is_file()
            }
            runs[seed] = logs, files
        written = ["model.json", "report.tsv", "splits/test.tsv", "splits/train.tsv",
                   "splits/validation.tsv"]
        assert sorted(runs["1"][1]) == written
        assert b"svm pair defect/non_defect" in runs["1"][0][1][1]  # the -v log of `train`
        assert runs["1"] == runs["12345"]


class TestInputDigests:
    """Each input file is hashed once per run: `train` hashes the corpus, the
    name lexicon and the clusters, `evaluate` and `report-errors` the model too."""

    @pytest.mark.parametrize(
        "command, split, out_flag, hashed",
        [
            ("train", "train", "--model", 3),
            ("evaluate", "test", "--out", 4),
            ("report-errors", "test", "--out", 4),
        ],
    )
    def test_each_input_hashed_once(
        self, workspace, tmp_path, monkeypatch, command, split, out_flag, hashed
    ):
        root, cfg, _ = workspace
        calls = []

        def counting_sha256(data):
            calls.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr("rareclass.cli.sha256", counting_sha256)
        corpus = root / "splits" / f"{split}.tsv"
        argv = [command, "--config", str(cfg), "--corpus", str(corpus)]
        assert main([*argv, out_flag, str(tmp_path / "out")]) == 0
        assert len(calls) == hashed


class TestModelRecord:
    """A trained model survives the disk: its settings and provenance load
    back equal, and saving the loaded record rewrites the file unchanged."""

    @pytest.mark.parametrize("flags", [("--sampler", "similar"), ("--classifier", "nb")])
    def test_cli_model_round_trips(self, workspace, tmp_path, flags):
        from rareclass.cli import apply_text_sampler
        from rareclass.config import PipelineConfig
        from rareclass.features import load_clusters
        from rareclass.model_store import load_model, save_model
        from rareclass.normalize import load_name_lexicon
        from rareclass.pipeline import train_from_corpus

        root, cfg, paths = workspace
        train = root / "splits" / "train.tsv"
        model = tmp_path / "model.json"
        args = ["--config", str(cfg), "--corpus", str(train), "--model", str(model), *flags]
        assert main(["train", *args]) == 0

        config = PipelineConfig.from_sources(
            cfg, ["sampler.method=similar"] if "--sampler" in flags else ["classifier.kind=nb"]
        )
        sampled, report = apply_text_sampler(load_corpus(train), config, None)
        expected, _ = train_from_corpus(
            sampled,
            config,
            load_name_lexicon(paths["demo_names.txt"]),
            load_clusters(paths["demo_clusters.tsv"]),
            report,
        )
        loaded = load_model(model)
        assert loaded.features == expected.features
        assert loaded.normalization == expected.normalization
        def digest(path):
            return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()[:12]}

        assert loaded.extras == {
            **expected.extras,
            "training_corpus": digest(train),
            "name_lexicon": digest(paths["demo_names.txt"]),
            "clusters": digest(paths["demo_clusters.tsv"]),
        }

        rewritten = tmp_path / "rewritten.json"
        save_model(rewritten, loaded)
        assert rewritten.read_bytes() == model.read_bytes()


class TestRankFeatures:
    def test_sorted_descending(self, workspace, tmp_path):
        _, cfg, _ = workspace
        out = tmp_path / "ranked.tsv"
        assert main(["rank-features", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "feature\tkind\tinfo_gain_bits"
        gains = [float(line.split("\t")[2]) for line in lines[1:]]
        assert gains == sorted(gains, reverse=True)
        assert gains and gains[0] > 0.0

    def test_top_keeps_the_first_rows(self, workspace, tmp_path):
        _, cfg, _ = workspace
        every, top = tmp_path / "every.tsv", tmp_path / "top.tsv"
        assert main(["rank-features", "--config", str(cfg), "--out", str(every)]) == 0
        argv = ["rank-features", "--config", str(cfg), "--top", "3", "--out", str(top)]
        assert main(argv) == 0
        assert top.read_text().splitlines() == every.read_text().splitlines()[:4]

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_top_below_one_is_usage_error(self, workspace, tmp_path, capsys, top):
        _, cfg, _ = workspace
        out = tmp_path / "ranked.tsv"
        argv = ["rank-features", "--config", str(cfg), "--top", top, "--out", str(out)]
        assert main(argv) == 1
        assert "--top must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestFeaturesFileBoundary:
    """`rank-features --features` on files that break the CSR rules."""

    @pytest.fixture(scope="class")
    def features(self, workspace, tmp_path_factory):
        _, cfg, _ = workspace
        path = tmp_path_factory.mktemp("features") / "features.json"
        assert main(["featurize", "--config", str(cfg), "--out", str(path)]) == 0
        return cfg, json.loads(path.read_text())

    def _rank(self, features, tmp_path, mutate):
        cfg, doc = features
        doc = json.loads(json.dumps(doc))
        mutate(doc["docs"], len(doc["vocabulary"]["names"]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ["rank-features", "--config", str(cfg), "--features", str(path)]
        return main([*argv, "--out", str(tmp_path / "ranked.tsv")])

    def test_unchanged_file_ranks(self, features, tmp_path):
        assert self._rank(features, tmp_path, lambda docs, dim: None) == 0

    def test_lengths_that_offset_each_other(self, features, tmp_path, capsys):
        # the totals still match, so only a per-doc check sees it
        def mutate(docs, dim):
            first = next(d for d in docs if d["indices"] and d["indices"][-1] < dim - 1)
            first["indices"].append(dim - 1)
            docs[-1]["values"].append(1.0)
        assert self._rank(features, tmp_path, mutate) == 2
        assert "differ in length" in capsys.readouterr().err

    def test_unsorted_indices(self, features, tmp_path):
        # reversing the gaps keeps their sum, so decode, reverse and re-encode
        def mutate(docs, dim):
            doc = next(d for d in docs if len(d["indices"]) > 1)
            columns = list(itertools.accumulate(doc["indices"]))[::-1]
            doc["indices"] = [columns[0]] + [b - a for a, b in zip(columns, columns[1:])]
        assert self._rank(features, tmp_path, mutate) == 2

    def test_index_at_dim(self, features, tmp_path):
        def mutate(docs, dim):
            next(d for d in docs if d["indices"])["indices"][-1] = dim
        assert self._rank(features, tmp_path, mutate) == 2

    def test_negative_index(self, features, tmp_path):
        def mutate(docs, dim):
            next(d for d in docs if d["indices"])["indices"][0] = -1
        assert self._rank(features, tmp_path, mutate) == 2

    @pytest.mark.parametrize(
        "key, number", [("indices", 10**30), ("values", 10**400)], ids=["indices", "values"]
    )
    def test_number_beyond_the_array_type(self, features, tmp_path, key, number):
        def mutate(docs, dim):
            next(d for d in docs if d["indices"])[key][0] = number
        assert self._rank(features, tmp_path, mutate) == 2

    @pytest.mark.parametrize("gap", [0, -1])
    def test_gap_below_one_after_the_first_column(self, features, tmp_path, capsys, gap):
        def mutate(docs, dim):
            next(d for d in docs if len(d["indices"]) > 1)["indices"][1] = gap
        assert self._rank(features, tmp_path, mutate) == 2
        assert "column indices out of order or range" in capsys.readouterr().err

    def _rank_version(self, features, tmp_path, version):
        cfg, doc = features
        path = tmp_path / "old.json"
        path.write_text(json.dumps(dict(doc, version=version)))
        argv = ["rank-features", "--config", str(cfg), "--features", str(path)]
        return main([*argv, "--out", str(tmp_path / "ranked.tsv")])

    def test_features_format_1_is_data_error(self, features, tmp_path, capsys):
        assert self._rank_version(features, tmp_path, 1) == 2
        assert "unsupported features version 1, not 3; featurize again" in capsys.readouterr().err

    def test_features_format_2_is_data_error(self, features, tmp_path, capsys):
        assert self._rank_version(features, tmp_path, 2) == 2
        assert "unsupported features version 2, not 3; featurize again" in capsys.readouterr().err


class TestReportErrors:
    def test_error_corpus_written(self, workspace, tmp_path):
        root, cfg, _ = workspace
        out = tmp_path / "errors.tsv"
        rc = main(
            [
                "report-errors",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "test.tsv"),
                "--gold", "possible_defect",
                "--predicted-as", "non_defect",
                "--out", str(out),
            ]
        )
        assert rc == 0
        errors = load_corpus(out)
        assert all(item.label is Label.POSSIBLE_DEFECT for item in errors)

    def test_unknown_label_is_usage_error(self, workspace, tmp_path):
        root, cfg, _ = workspace
        rc = main(
            [
                "report-errors",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "test.tsv"),
                "--gold", "bogus",
                "--out", str(tmp_path / "x.tsv"),
            ]
        )
        assert rc == 1


# each step whose output resolves to another of its outputs or to an input; a
# case's own flags follow, and so override, the inputs the test sets
OUTPUT_COLLISIONS = {
    "match out=annotate-spans": ["match", "--out", "same.tsv", "--annotate-spans", "same.tsv"],
    "match out=term-report": ["match", "--out", "same.tsv", "--term-report", "./same.tsv"],
    "match term-report=annotate-spans": [
        "match", "--term-report", "same.tsv", "--annotate-spans", "sub/../same.tsv",
    ],
    "match out=corpus": ["match", "--out", "corpus.tsv"],
    "match annotate-spans=lexicon": ["match", "--annotate-spans", "lexicon.txt"],
    "evaluate out=model": ["evaluate", "--out", "model.json"],
    "evaluate out=corpus": ["evaluate", "--out", "corpus.tsv"],
    "sample out=corpus": ["sample", "--method", "similar", "--out", "corpus.tsv"],
    "split out-dir=corpus": ["split", "--corpus", "sub/train.tsv", "--out-dir", "sub"],
    "train model=corpus": ["train", "--model", "corpus.tsv"],
    "train model=name-lexicon": ["train", "--model", "names.txt"],
    "train model=clusters": ["train", "--model", "clusters.tsv"],
    "train model=fn-corpus": [
        "train", "--sampler", "near_fn", "--set", "sampler.fn_corpus=fn.tsv", "--model", "fn.tsv",
    ],
    "train sampling-report=corpus": [
        "train", "--sampler", "similar", "--corpus", "corpus.sampling.txt", "--model", "corpus.json",
    ],
    "preprocess out=corpus": ["preprocess", "--out", "corpus.tsv"],
    "featurize out=corpus": ["featurize", "--out", "corpus.tsv"],
    "rank-features out=corpus": ["rank-features", "--out", "corpus.tsv"],
    "rank-features out=features": [
        "rank-features", "--features", "features.json", "--out", "features.json",
    ],
    "report-errors out=model": ["report-errors", "--out", "model.json"],
    "report-errors out=corpus": ["report-errors", "--out", "corpus.tsv"],
    "evaluate out=name-lexicon": ["evaluate", "--out", "names.txt"],
    "evaluate out=clusters": ["evaluate", "--out", "clusters.tsv"],
    "sample out=fn-corpus": [
        "sample", "--method", "near_fn", "--set", "sampler.fn_corpus=fn.tsv", "--out", "fn.tsv",
    ],
}


class TestOutputCollisions:
    @pytest.fixture(scope="class")
    def features(self, workspace, tmp_path_factory):
        _, cfg, _ = workspace
        path = tmp_path_factory.mktemp("collisions") / "features.json"
        assert main(["featurize", "--config", str(cfg), "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("argv", list(OUTPUT_COLLISIONS.values()), ids=list(OUTPUT_COLLISIONS))
    def test_usage_error_before_any_file_is_touched(
        self, workspace, features, tmp_path, monkeypatch, capsys, argv
    ):
        root, _, paths = workspace
        (tmp_path / "sub").mkdir()
        for source, name in (
            (paths["demo_corpus.tsv"], "corpus.tsv"),
            (paths["demo_corpus.tsv"], "corpus.sampling.txt"),
            (paths["demo_corpus.tsv"], "fn.tsv"),
            (paths["demo_corpus.tsv"], "sub/train.tsv"),
            (paths["demo_lexicon.txt"], "lexicon.txt"),
            (paths["demo_names.txt"], "names.txt"),
            (paths["demo_clusters.tsv"], "clusters.tsv"),
            (root / "model.json", "model.json"),
            (features, "features.json"),
        ):
            shutil.copy(source, tmp_path / name)
        monkeypatch.chdir(tmp_path)
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        command, *flags = argv
        rc = main(
            [
                command,
                "--corpus", "corpus.tsv",
                "--set", "paths.lexicon=lexicon.txt",
                "--set", "paths.model=model.json",
                "--set", "paths.name_lexicon=names.txt",
                "--set", "paths.clusters=clusters.tsv",
                *flags,
            ]
        )
        assert rc == 1
        assert "usage error: --" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def _tree(root: Path) -> dict:
    """Every path under `root`: a file's bytes, a directory as None."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


# each step with an output that exists and is not a regular file, beside older
# outputs of the same step; `{t}` is the test's directory
OUTPUT_DIRECTORIES = {
    "sample report=directory": (
        ["sample", "--method", "similar", "--out", "{t}/sampled.tsv", "--report", "{t}/report"],
        ["sampled.tsv"], ["report"],
    ),
    "split test=directory": (
        ["split", "--out-dir", "{t}/splits"],
        ["splits/train.tsv", "splits/validation.tsv"], ["splits/test.tsv"],
    ),
    "train sampling-report=directory": (
        ["train", "--sampler", "smote", "--model", "{t}/m.json"], ["m.json"], ["m.sampling.txt"],
    ),
}


class TestStagedOutputs:
    """A failed step leaves no output: its outputs are written to temporary
    siblings, and renamed onto their paths only when the step succeeds."""

    @pytest.mark.parametrize(
        "argv,old_files,directories",
        list(OUTPUT_DIRECTORIES.values()),
        ids=list(OUTPUT_DIRECTORIES),
    )
    def test_output_that_is_a_directory_is_data_error_before_any_write(
        self, workspace, tmp_path, capsys, argv, old_files, directories
    ):
        _, cfg, _ = workspace
        for name in directories:
            (tmp_path / name).mkdir(parents=True)
        for name in old_files:
            (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
        before = _tree(tmp_path)
        command, *flags = argv
        assert main([command, "--config", str(cfg), *(f.format(t=tmp_path) for f in flags)]) == 2
        assert _tree(tmp_path) == before
        assert "output exists and is not a regular file" in capsys.readouterr().err

    def test_handler_failing_after_its_first_output_leaves_none(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        _, cfg, _ = workspace

        def fail(*args):
            assert [path.name for path in tmp_path.iterdir()] == [f".rareclass.{os.getpid()}.0.tmp"]
            raise RuntimeError("term report failed")

        monkeypatch.setattr("rareclass.lexicon.term_class_frequency_report", fail)
        argv = ["match", "--config", str(cfg), "--out", str(tmp_path / "m.tsv")]
        assert main([*argv, "--term-report", str(tmp_path / "r.tsv")]) == 3
        assert "internal error: term report failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("length", [245, 255])
    def test_output_name_up_to_the_limit_is_written(self, workspace, tmp_path, length):
        _, cfg, _ = workspace
        out = tmp_path / ("a" * (length - 4) + ".tsv")
        assert main(["match", "--config", str(cfg), "--out", str(out)]) == 0
        assert [path.name for path in tmp_path.iterdir()] == [out.name]

    def test_output_name_past_the_limit_is_data_error_naming_it(self, workspace, tmp_path, capsys):
        _, cfg, _ = workspace
        out = tmp_path / ("a" * 252 + ".tsv")
        assert main(["match", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {out}: File name too long" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_declared_output_not_written_is_internal_error(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        _, cfg, _ = workspace
        monkeypatch.setattr("rareclass.cli.save_corpus", lambda *args, **kwargs: None)
        assert main(["split", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 3
        assert "internal error: split did not write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_symlinked_output_is_written_through_the_link(self, workspace, tmp_path):
        _, cfg, _ = workspace
        target, link, plain = tmp_path / "target.tsv", tmp_path / "link.tsv", tmp_path / "plain.tsv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        assert main(["match", "--config", str(cfg), "--out", str(link)]) == 0
        assert main(["match", "--config", str(cfg), "--out", str(plain)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == plain.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "link.tsv", "plain.tsv", "target.tsv",
        ]


# every writing step, with each output it can write, and the files it writes in
# an empty directory `{t}`
WRITING_STEPS = {
    "split": (["split", "--out-dir", "{t}"], ["test.tsv", "train.tsv", "validation.tsv"]),
    "match": (
        ["match", "--out", "{t}/m.tsv", "--term-report", "{t}/r.tsv",
         "--annotate-spans", "{t}/a.tsv"],
        ["a.tsv", "m.tsv", "r.tsv"],
    ),
    "preprocess": (["preprocess", "--out", "{t}/n.tsv"], ["n.tsv"]),
    "featurize": (["featurize", "--out", "{t}/f.json"], ["f.json"]),
    "sample": (["sample", "--method", "random", "--set", "sampler.target_total=100",
                "--out", "{t}/s.tsv"], ["s.report.txt", "s.tsv"]),
    "sample report": (["sample", "--method", "similar", "--out", "{t}/s.tsv",
                       "--report", "{t}/report.txt"], ["report.txt", "s.tsv"]),
    "train": (["train", "--model", "{t}/m.json"], ["m.json"]),
    "train sampler": (["train", "--sampler", "similar", "--model", "{t}/m.json"],
                      ["m.json", "m.sampling.txt"]),
    "evaluate": (["evaluate", "--out", "{t}/report.tsv"], ["report.tsv"]),
    "rank-features": (["rank-features", "--out", "{t}/ranked.tsv"], ["ranked.tsv"]),
    "report-errors": (["report-errors", "--out", "{t}/errors.tsv"], ["errors.tsv"]),
}


class TestOutputTable:
    def test_every_subcommand_has_a_table_entry(self):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        for name, parser in subparsers.choices.items():
            assert parser.get_default("func") is not None, name
            assert isinstance(parser.get_default("inputs"), tuple), name
            outputs = parser.get_default("outputs")
            assert isinstance(outputs, tuple) or callable(outputs), name

    @pytest.mark.parametrize("argv,written", list(WRITING_STEPS.values()), ids=list(WRITING_STEPS))
    def test_step_writes_exactly_its_declared_outputs(self, workspace, tmp_path, argv, written):
        root, cfg, _ = workspace
        command, *flags = argv
        argv = [command, "--config", str(cfg), *(f.format(t=tmp_path) for f in flags)]
        if command in ("evaluate", "report-errors"):
            argv += ["--corpus", str(root / "splits" / "test.tsv")]
        args = build_parser().parse_args(argv)
        declared = {output.final for output in _stage(args, _config(args)).values()}
        mask = os.umask(0)
        os.umask(mask)
        assert main(argv) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == written
        assert {path.resolve() for path in tmp_path.iterdir()} == declared
        for path in declared:
            assert path.stat().st_mode & 0o777 == 0o666 & ~mask


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_corpus_is_config_error(self, capsys):
        assert main(["featurize", "--out", "x.json"]) == 1

    def test_nan_gamma_is_config_error_before_training(self, workspace, tmp_path, capsys):
        # parsed at load: a NaN gamma used to keep SMO running to its iteration cap
        root, cfg, _ = workspace
        model = tmp_path / "model.json"
        rc = main(
            [
                "train",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "train.tsv"),
                "--model", str(model),
                "--set", "svm.gamma=nan",
            ]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("which", ["missing", "directory"])
    def test_config_path_not_a_file_is_config_error(self, tmp_path, capsys, which):
        path = tmp_path / "nope.cfg" if which == "missing" else tmp_path
        out = tmp_path / "x.tsv"
        assert main(["split", "--config", str(path), "--out-dir", str(out)]) == 1
        assert f"config error: config file: no such file {path}" in capsys.readouterr().err
        assert not out.exists()

    def test_class_weights_missing_a_class_is_config_error_before_training(
        self, workspace, tmp_path, capsys
    ):
        root, cfg, _ = workspace
        model = tmp_path / "model.json"
        rc = main(
            [
                "train",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "train.tsv"),
                "--model", str(model),
                "--set", "svm.class_weights=defect:4",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert "possible_defect, non_defect" in err
        assert not model.exists()

    def test_nonexistent_corpus_path(self, workspace, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        rc = main(
            [
                "featurize",
                "--corpus", str(missing),
                "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 1  # path existence is validated as configuration
        assert f"config error: paths.corpus: no such file {missing}" in capsys.readouterr().err
        _, cfg, _ = workspace
        lexicon = tmp_path / "nope.txt"
        rc = main(["match", "--config", str(cfg), "--lexicon", str(lexicon),
                   "--out", str(tmp_path / "matches.tsv")])
        assert rc == 1
        assert f"config error: paths.lexicon: no such file {lexicon}" in capsys.readouterr().err

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\tuser_id\tlabel\ttext\tspan_start\tspan_end\nt1\tu\tnope\tx\t\t\n")
        rc = main(
            [
                "featurize",
                "--corpus", str(bad),
                "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
                "--set", "features.use_clusters=false",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2

    def _evaluate_mutated(self, workspace, tmp_path, mutate, model=None):
        root, cfg, _ = workspace
        doc = json.loads((model or root / "model.json").read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return main(
            [
                "evaluate",
                "--config", str(cfg),
                "--corpus", str(root / "splits" / "test.tsv"),
                "--model", str(bad),
            ]
        )

    def test_unknown_model_version_is_data_error(self, workspace, tmp_path):
        for version in (42, 1):
            rc = self._evaluate_mutated(workspace, tmp_path, lambda d: d.update(version=version))
            assert rc == 2

    def test_model_without_vocabulary_is_data_error(self, workspace, tmp_path, capsys):
        rc = self._evaluate_mutated(workspace, tmp_path, lambda d: d.pop("vocabulary"))
        assert rc == 2
        assert "missing key 'vocabulary'" in capsys.readouterr().err

    def test_unknown_classifier_kind_is_data_error(self, workspace, tmp_path, capsys):
        rc = self._evaluate_mutated(workspace, tmp_path, lambda d: d.update(kind="knn"))
        assert rc == 2
        assert "unknown classifier kind 'knn'" in capsys.readouterr().err

    def test_pool_index_out_of_range_is_data_error(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        pool = json.loads((root / "model.json").read_text())["svm"]["support_vectors"]
        pool_size = len(pool["indptr"]) - 1
        for index in (pool_size, 10**6):
            def mutate(doc):
                doc["svm"]["pairs"][0]["support"][0] = index
            rc = self._evaluate_mutated(workspace, tmp_path, mutate)
            assert rc == 2
            message = f"svm: support index out of range for a pool of {pool_size}"
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["empty", "repeated", "positive is negative", "reversed"])
    def test_svm_pairs_not_every_two_labels_in_order_is_data_error(
        self, workspace, tmp_path, capsys, edit
    ):
        def mutate(doc):
            pairs = doc["svm"]["pairs"]
            assert len(pairs) == 3
            if edit == "empty":
                pairs.clear()
            elif edit == "repeated":
                pairs[1] = pairs[0]
            elif edit == "reversed":
                pairs.reverse()
            else:
                pairs[0]["negative"] = pairs[0]["positive"]
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        message = "svm: the pairs must be every two of two or more distinct labels, in order"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, float("inf"), None])
    def test_svm_gamma_not_positive_and_finite_is_data_error(
        self, workspace, tmp_path, capsys, gamma
    ):
        def mutate(doc):
            doc["svm"]["params"]["gamma"] = gamma
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        # `SvmParams` rejects a finite gamma; the file's schema, infinity and null
        expected = "model.svm.params.gamma must be a float"
        if gamma is not None and math.isfinite(gamma):
            expected = "gamma must be positive and finite"
        assert expected in capsys.readouterr().err

    def test_scaler_min_above_max_is_data_error(self, workspace, tmp_path, capsys):
        def mutate(doc):
            doc["scaler"]["mins"][0] = doc["scaler"]["maxs"][0] + 1.0
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert "min is above its max" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["swap", "repeat"])
    def test_vocabulary_names_not_sorted_and_unique_is_data_error(
        self, workspace, tmp_path, capsys, edit
    ):
        def mutate(doc):
            names = doc["vocabulary"]["names"]
            if edit == "swap":
                names[0], names[1] = names[1], names[0]
            else:
                names[1] = names[0]
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert "sorted and unique" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "report-errors"])
    @pytest.mark.parametrize("version", list(RETIRED_MODELS))
    def test_model_format_2_is_data_error(self, workspace, tmp_path, capsys, version, command):
        root, cfg, _ = workspace
        argv = [command, "--config", str(cfg), "--corpus", str(root / "splits" / "test.tsv"),
                "--model", str(RETIRED_MODELS[version]), "--out", str(tmp_path / "out.tsv")]
        assert main(argv) == 2
        expected = f"unsupported model version {version}, not 5; retrain the model"
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    @pytest.mark.parametrize("edit", ["unsorted", "duplicated", "negative", "at dim", "short"])
    def test_scaler_columns_not_increasing_inside_the_dimension_is_data_error(
        self, workspace, tmp_path, capsys, edit
    ):
        def mutate(doc):
            columns = doc["scaler"]["columns"]
            assert len(columns) >= 2
            if edit == "unsorted":
                columns[0], columns[1] = columns[1], columns[0]
            elif edit == "duplicated":
                columns[1] = columns[0]
            elif edit == "negative":
                columns[0] = -1
            elif edit == "at dim":
                columns[-1] = len(doc["vocabulary"]["names"])
            else:
                doc["scaler"]["mins"].pop()
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        reason = "differ in length" if edit == "short" else "columns must increase strictly"
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("gap", [0, -1])
    def test_pool_gap_below_one_is_data_error(self, workspace, tmp_path, capsys, gap):
        def mutate(doc):
            pool = doc["svm"]["support_vectors"]
            start = next(a for a, b in zip(pool["indptr"], pool["indptr"][1:]) if b - a > 1)
            pool["indices"][start + 1] = gap
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert "column indices out of order or range" in capsys.readouterr().err

    def test_pool_index_past_dim_is_data_error(self, workspace, tmp_path, capsys):
        def mutate(doc):
            pool = doc["svm"]["support_vectors"]
            pool["indices"][pool["indptr"][1] - 1] += len(doc["vocabulary"]["names"])
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert "column indices out of order or range" in capsys.readouterr().err

    def test_nb_log_prior_above_zero_is_data_error(self, workspace, tmp_path, capsys):
        root, cfg, _ = workspace
        model = tmp_path / "nb.json"
        train = str(root / "splits" / "train.tsv")
        args = ["--config", str(cfg), "--corpus", train, "--model", str(model)]
        assert main(["train", *args, "--classifier", "nb"]) == 0
        def mutate(doc):
            doc["nb"]["log_priors"][0] = 0.5
        assert self._evaluate_mutated(workspace, tmp_path, mutate, model) == 2
        assert "log priors" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def nb_models(self, workspace, tmp_path_factory):
        """A multinomial and a Gaussian NB model trained on the demo split."""
        root, cfg, _ = workspace
        models = {}
        for event_model in ("multinomial", "gaussian"):
            models[event_model] = tmp_path_factory.mktemp("nb") / "model.json"
            argv = ["train", "--config", str(cfg), "--corpus", str(root / "splits" / "train.tsv"),
                    "--model", str(models[event_model]), "--classifier", "nb",
                    "--set", f"nb.event_model={event_model}"]
            assert main(argv) == 0
        return models

    @pytest.mark.parametrize(
        "event_model,edit,message",
        [
            ("multinomial", "short row", "nb: the tables do not match the labels and dimension"),
            ("multinomial", "short rows", "nb: the tables do not match the labels and dimension"),
            ("multinomial", "extra prior", "nb: the tables do not match the labels and dimension"),
            ("gaussian", "missing row", "nb: the tables do not match the labels and dimension"),
            ("gaussian", "zero variance", "nb: variances must be positive"),
            ("gaussian", "negative variance", "nb: variances must be positive"),
        ],
        ids=["short-row", "short-rows", "extra-prior", "missing-row", "zero-variance",
             "negative-variance"],
    )
    def test_nb_tables_out_of_shape_or_range_is_data_error(
        self, workspace, tmp_path, capsys, nb_models, event_model, edit, message
    ):
        def mutate(doc):
            nb = doc["nb"]
            if edit == "short row":  # one row: the table is ragged
                nb["log_likelihood"][1].pop()
            elif edit == "short rows":
                for row in nb["log_likelihood"]:
                    row.pop()
            elif edit == "extra prior":
                nb["log_priors"].append(-1.0)
            elif edit == "missing row":
                nb["means"].pop()
            else:
                nb["variances"][0][0] = 0.0 if edit == "zero variance" else -1.0
        assert self._evaluate_mutated(workspace, tmp_path, mutate, nb_models[event_model]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,message",
        [
            ("alpha -1", "svm: pairs[0].alpha must lie in (0, c * its y's class weight]"),
            ("alpha 0", "svm: pairs[0].alpha must lie in (0, c * its y's class weight]"),
            ("alpha past its bound", "svm: pairs[1].alpha must lie in (0, c * its y's class"),
            ("support repeated", "svm: pairs[0].support must increase strictly"),
            ("support decreasing", "svm: pairs[2].support must increase strictly"),
            ("iterations 0", "svm: pairs[0].iterations must be >= 1"),
            ("iterations -5", "svm: pairs[0].iterations must be >= 1"),
            ("iterations 1000000000",
             "svm: pairs[0].iterations must not exceed params.max_iterations"),
            ("converged false", "svm: pairs[1].converged may be false only at params.max_iterations"),
            ("class weight missing", "svm: class_weights has no weight for possible_defect"),
            ("lengths differ", "svm: a pair's support, alpha and y differ in length"),
            ("y 0", "svm: a pair's y values must be +1 or -1"),
        ],
        ids=["alpha-negative", "alpha-zero", "alpha-past-its-bound", "support-repeated",
             "support-decreasing", "iterations-zero", "iterations-negative",
             "iterations-past-the-cap", "unconverged-below-the-cap",
             "class-weight-missing", "lengths-differ", "y-zero"],
    )
    def test_svm_pair_unlike_what_training_writes_is_data_error(
        self, workspace, tmp_path, capsys, edit, message
    ):
        def mutate(doc):
            svm = doc["svm"]
            pair = svm["pairs"][0]
            if edit.startswith("alpha"):
                if edit == "alpha past its bound":
                    pair = svm["pairs"][1]
                    label = pair["positive"] if pair["y"][0] > 0 else pair["negative"]
                    bound = svm["params"]["c"] * svm["class_weights"][label]
                    pair["alpha"][0] = math.nextafter(bound, math.inf)
                else:
                    pair["alpha"] = [-1.0 if edit == "alpha -1" else 0.0] * len(pair["alpha"])
            elif edit == "support repeated":
                pair["support"][1] = pair["support"][0]
            elif edit == "support decreasing":
                support = svm["pairs"][2]["support"]
                support[0], support[1] = support[1], support[0]
            elif edit.startswith("iterations"):
                pair["iterations"] = int(edit.split()[1])
            elif edit == "converged false":
                assert svm["pairs"][1]["iterations"] < svm["params"]["max_iterations"]
                svm["pairs"][1]["converged"] = False
            elif edit == "class weight missing":
                del svm["class_weights"]["possible_defect"]
            elif edit == "lengths differ":
                pair["alpha"].pop()
            else:
                pair["y"][0] = 0
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert message in capsys.readouterr().err

    def test_svm_alpha_at_its_bound_scores(self, workspace, tmp_path):
        """The bound is the product `train_svm` gave SMO, from the stored c
        and class weight, so an alpha SMO left at its bound loads."""
        def mutate(doc):
            svm = doc["svm"]
            for pair in svm["pairs"]:
                for k, y in enumerate(pair["y"]):
                    label = pair["positive"] if y > 0 else pair["negative"]
                    pair["alpha"][k] = svm["params"]["c"] * svm["class_weights"][label]
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 0

    def test_svm_pairs_at_the_iteration_cap_score(self, workspace, tmp_path):
        """A pair may use every allowed iteration, converged or not."""
        def mutate(doc):
            svm = doc["svm"]
            cap = max(pair["iterations"] for pair in svm["pairs"])
            svm["params"]["max_iterations"] = cap
            for pair in svm["pairs"]:
                pair["converged"] = pair["iterations"] < cap
            assert not all(pair["converged"] for pair in svm["pairs"])
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 0

    @pytest.mark.parametrize(
        "override,message",
        [
            ("features.binary=maybe", "features.binary: expected a boolean, got 'maybe'"),
            ("svm.class_weights=foo:1", "svm.class_weights: unknown class 'foo'"),
            ("svm.class_weights=,", "svm.class_weights: no weights given"),
        ],
        ids=["binary-not-a-boolean", "weight-of-an-unknown-class", "no-weights"],
    )
    def test_bad_set_value_is_config_error_naming_the_key(
        self, workspace, tmp_path, capsys, override, message
    ):
        root, cfg, _ = workspace
        model = tmp_path / "model.json"
        argv = ["train", "--config", str(cfg), "--corpus", str(root / "splits" / "train.tsv"),
                "--model", str(model), "--set", override]
        assert main(argv) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "n_min,n_max,reason",
        [(0, 3, "n_min must be >= 1"), (3, 2, "n_min must not exceed n_max")],
        ids=["n_min-zero", "n_min-above-n_max"],
    )
    def test_bad_ngram_range_is_data_error_naming_the_model(
        self, workspace, tmp_path, capsys, n_min, n_max, reason
    ):
        def mutate(doc):
            doc["extras"]["features"].update(n_min=n_min, n_max=n_max)
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert f"{tmp_path / 'bad.json'}: feature settings: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("train", []),
            ("train", ["--classifier", "nb"]),
            ("train", ["--sampler", "smote", "--classifier", "nb", "--set", "nb.event_model=gaussian"]),
            ("evaluate", []),
        ],
        ids=["svm", "nb", "smote", "evaluate"],
    )
    def test_corpus_without_tweets_is_data_error_naming_it(
        self, workspace, tmp_path, capsys, command, flags
    ):
        root, cfg, _ = workspace
        empty = tmp_path / "empty.tsv"
        save_corpus(Corpus(()), empty)
        model = root / "model.json" if command == "evaluate" else tmp_path / "model.json"
        argv = [command, "--config", str(cfg), "--corpus", str(empty), "--model", str(model)]
        assert main([*argv, *flags]) == 2
        assert f"data error: {empty}: no tweets" in capsys.readouterr().err
        assert model.exists() == (command == "evaluate")

    @pytest.mark.parametrize(
        "command,out_flag",
        [
            ("split", "--out-dir"),
            ("featurize", "--out"),
            ("rank-features", "--out"),
            ("match", "--out"),
            ("preprocess", "--out"),
            ("sample", "--out"),
        ],
    )
    def test_header_only_corpus_is_data_error_before_any_output(
        self, workspace, tmp_path, capsys, command, out_flag
    ):
        _, cfg, paths = workspace
        empty = tmp_path / "empty.tsv"
        save_corpus(Corpus(()), empty)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--corpus", str(empty), out_flag, str(out)]
        extra = {
            "match": ["--lexicon", str(paths["demo_lexicon.txt"])],
            "sample": ["--method", "similar"],
        }
        assert main([*argv, *extra.get(command, [])]) == 2
        assert f"data error: {empty}: no tweets" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["empty.tsv"]

    def test_unset_model_path_is_config_error_before_the_corpus(self, workspace, tmp_path, capsys):
        _, cfg, _ = workspace
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ta\tcorpus\n", encoding="utf-8")
        argv = ["train", "--config", str(cfg), "--corpus", str(bad), "--set", "paths.model="]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "config error: paths.model must be set for this subcommand" in err

    def test_min_df_below_one_is_data_error(self, workspace, tmp_path, capsys):
        def mutate(doc):
            doc["extras"]["features"]["min_df"] = 0
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 2
        assert "min_df must be >= 1" in capsys.readouterr().err

    def test_scaler_integer_beyond_int64_scores_as_float(self, workspace, tmp_path):
        def mutate(doc):
            doc["scaler"]["maxs"][0] = 10**30
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 0

    def test_huge_n_max_scores_without_empty_passes(self, workspace, tmp_path):
        def mutate(doc):
            doc["extras"]["features"]["n_max"] = 10**30
        assert self._evaluate_mutated(workspace, tmp_path, mutate) == 0

    @pytest.mark.parametrize(
        "command,flag,below",
        [("split", "--out-dir", "sub"), ("split", "--out-dir", ""), ("match", "--out", "sub")],
        ids=["split-under-file", "split-into-file", "match-under-file"],
    )
    def test_output_path_at_or_under_a_regular_file_is_data_error(
        self, workspace, tmp_path, capsys, command, flag, below
    ):
        _, cfg, _ = workspace
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main([command, "--config", str(cfg), flag, str(blocker / below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "internal error" not in err

    def test_directory_as_input_file(self, workspace, tmp_path):
        root, cfg, _ = workspace
        args = ["--config", str(cfg), "--out", str(tmp_path / "x.tsv")]
        assert main(["rank-features", *args, "--features", str(tmp_path)]) == 2
        assert main(["featurize", *args, "--set", f"paths.name_lexicon={tmp_path}"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestUndecodableInputs:
    """A file that is not UTF-8, or JSON nested too deep to decode, is a
    data error naming the file (and the line, for a byte that is not
    UTF-8); a config file that is not UTF-8 is a configuration error
    naming it and the line."""

    @pytest.fixture(scope="class")
    def valid(self, workspace, tmp_path_factory):
        root, cfg, paths = workspace
        features = tmp_path_factory.mktemp("undecodable") / "features.json"
        assert main(["featurize", "--config", str(cfg), "--out", str(features)]) == 0
        pairs = features.with_name("pairs.tsv")
        pairs.write_text("id\tlabel_a\tlabel_b\nt1\tdefect\tdefect\nt2\tdefect\tnon_defect\n")
        return {
            "corpus": paths["demo_corpus.tsv"],
            "lexicon": paths["demo_lexicon.txt"],
            "names": paths["demo_names.txt"],
            "clusters": paths["demo_clusters.tsv"],
            "pairs": pairs,
            "model": root / "model.json",
            "features": features,
        }

    @staticmethod
    def _argv(workspace, kind, path, out):
        """The step that reads a file of this kind from `path`."""
        root, cfg, _ = workspace
        base = ["--config", str(cfg)]
        return {
            "corpus": ["split", *base, "--corpus", str(path), "--out-dir", str(out)],
            "lexicon": ["match", *base, "--lexicon", str(path), "--out", str(out)],
            "names": ["featurize", *base, "--set", f"paths.name_lexicon={path}", "--out", str(out)],
            "clusters": ["featurize", *base, "--set", f"paths.clusters={path}", "--out", str(out)],
            "pairs": ["kappa", "--pairs", str(path)],
            "model": ["evaluate", *base, "--corpus", str(root / "splits" / "test.tsv"),
                      "--model", str(path), "--out", str(out)],
            "features": ["rank-features", *base, "--features", str(path), "--out", str(out)],
        }[kind]

    @pytest.mark.parametrize(
        "kind", ["corpus", "lexicon", "names", "clusters", "pairs", "model", "features"]
    )
    def test_byte_not_utf8_names_the_file(self, workspace, valid, tmp_path, capsys, kind):
        data = valid[kind].read_bytes()
        # at the start of line 3, or amid a one-line JSON file
        at = len(data) // 2
        if data.count(b"\n") > 2:
            at = data.index(b"\n", data.index(b"\n") + 1) + 1
        bad = tmp_path / f"bad{valid[kind].suffix}"
        bad.write_bytes(data[:at] + b"\xff" + data[at:])
        out = tmp_path / "out"
        assert main(self._argv(workspace, kind, bad, out)) == 2
        captured = capsys.readouterr()
        line = 3 if data.count(b"\n") > 2 else 1
        message = f"data error: {bad}: not valid UTF-8 at line {line} ('utf-8' codec can't decode"
        assert message in captured.err
        assert not out.exists() and captured.out == ""

    @pytest.mark.parametrize("kind", ["model", "features"])
    def test_json_nested_too_deep_is_data_error(self, workspace, tmp_path, capsys, kind):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        assert main(self._argv(workspace, kind, deep, out)) == 2
        err = capsys.readouterr().err
        assert f"data error: {deep}: not valid JSON (maximum recursion depth exceeded" in err
        assert not out.exists()

    def test_config_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"split.seed = 3\n# caf\xe9\n")
        out = tmp_path / "splits"
        assert main(["split", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"config error: {cfg}: not valid UTF-8 at line 2 (" in capsys.readouterr().err
        assert not out.exists()


class TestLineRule:
    """Every text input ends a line at \\n, \\r\\n or a lone \\r, and only
    there: the other breaks of `str.splitlines` stay inside their line.
    A byte that is not UTF-8 is reported with its line."""

    # each kind's three lines: {c} stands for a character inside a field,
    # and line 3 is the first one reading must fail on, with this message
    # (so line 2 is read whole: a pairs id "t{c}1" stays one id)
    FILES = {
        "corpus": ("\t".join(TSV_HEADER), "t1\tu\tdefect\ta{c}b\t\t", "t2\tu\tnope\tb\t\t",
                   "{path}: unknown label 'nope' at line {n}"),
        "pairs": ("id\tlabel_a\tlabel_b", "t{c}1\tdefect\tdefect", "t2\tdefect\tnope",
                  "{path}: unknown label 'nope' at line {n}"),
        "lexicon": ("club foot", "cleft{c}palate | cleft lip", "| variant",
                    "{path}: empty canonical term at line {n}"),
        "names": ("Mary", "Ann", "Emma{c}Olivia", "{path}: name with whitespace at line {n}"),
        "clusters": ("0\tfoo\t1", "10{c}bar{c}2", "x\tbaz\t3",
                     "{path}: bad cluster path 'x' at line {n}"),
        "config": ("split.seed = 3", "# a{c}comment", "bogus",
                   "{path} line {n}: expected 'section.key = value', got 'bogus'"),
    }
    # breaks that `str.splitlines` ends a line at, and the line rule does not
    BREAKS = {"x0b": "\x0b", "x0c": "\x0c", "x1c": "\x1c", "x85": "\x85", "u2028": "\u2028"}

    @pytest.mark.parametrize("kind", FILES)
    @pytest.mark.parametrize("case", [*BREAKS, "crlf", "lone-cr", "not-utf-8"])
    def test_lines_end_at_newlines_only(self, workspace, tmp_path, capsys, kind, case):
        *lines, message = self.FILES[kind]
        end = {"crlf": b"\r\n", "lone-cr": b"\r"}.get(case, b"\n")
        data = [line.replace("{c}", self.BREAKS.get(case, " ")).encode("utf-8") for line in lines]
        if case == "not-utf-8":
            data[2] = b"\xff" + data[2]
            message = "{path}: not valid UTF-8 at line {n} ('utf-8' codec can't decode byte 0xff"
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(end.join(data) + end)
        out = tmp_path / "out"
        if kind == "config":
            argv = ["split", "--config", str(path), "--out-dir", str(out)]
            assert main(argv) == 1
        else:
            assert main(TestUndecodableInputs._argv(workspace, kind, path, out)) == 2
        captured = capsys.readouterr()
        error = "config error" if kind == "config" else "data error"
        assert f"{error}: {message.format(path=path, n=3)}" in captured.err
        assert not out.exists() and captured.out == ""
