"""CLI subcommands end to end on the bundled demo files.

Each subcommand runs in-process through `main(argv)`; exit codes follow
the documented contract (0 ok, 1 usage/config, 2 data, 3 internal).
"""

import json
import re
import shutil

import pytest

from rareclass.cli import main
from rareclass.corpus import AnnotatedTweet, Corpus, Label, load_corpus, save_corpus
from rareclass.demo import packaged_data_path
from rareclass.lexicon import compile_matchers, load_lexicon


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


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_corpus_is_config_error(self, capsys):
        assert main(["featurize", "--out", "x.json"]) == 1

    def test_nonexistent_corpus_path(self, tmp_path, capsys):
        rc = main(
            [
                "featurize",
                "--corpus", str(tmp_path / "missing.tsv"),
                "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 1  # path existence is validated as configuration

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

    def _evaluate_mutated(self, workspace, tmp_path, mutate):
        root, cfg, _ = workspace
        doc = json.loads((root / "model.json").read_text())
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

    def test_pool_index_out_of_range_is_data_error(self, workspace, tmp_path, capsys):
        def mutate(doc):
            pool_size = len(doc["svm"]["support_vectors"]["indptr"]) - 1
            doc["svm"]["pairs"][0]["support"][0] = pool_size
        rc = self._evaluate_mutated(workspace, tmp_path, mutate)
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, float("inf")])
    def test_svm_gamma_not_positive_and_finite_is_data_error(
        self, workspace, tmp_path, capsys, gamma
    ):
        rc = self._evaluate_mutated(workspace, tmp_path, lambda d: d["svm"].update(gamma=gamma))
        assert rc == 2
        assert "svm.gamma must be" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
