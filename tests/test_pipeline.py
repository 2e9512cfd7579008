"""Config-driven orchestration over the bundled demo corpus."""

import inspect

import pytest

from rareclass.cli import apply_text_sampler
from rareclass.config import PipelineConfig, render_default_config
from rareclass.corpus import Corpus, Label, load_corpus, save_corpus, three_way_split
from rareclass.errors import ConfigError
from rareclass.features import FeatureSettings, feature_kind, load_clusters
from rareclass.model_store import load_features, load_model, save_features, save_model
from rareclass.naive_bayes import train_nb
from rareclass.normalize import load_name_lexicon, save_normalized
from rareclass.pipeline import (
    evaluate_corpus,
    featurize_corpus,
    predict_corpus,
    train_from_corpus,
)
from rareclass.sampling import undersample_near_fn
from rareclass.svm import SvmParams


@pytest.fixture(scope="module")
def demo(demo_paths_module):
    corpus = load_corpus(demo_paths_module["corpus"])
    names = load_name_lexicon(demo_paths_module["names"])
    clusters = load_clusters(demo_paths_module["clusters"])
    split = three_way_split(corpus, 0.2, 0.2, seed=13)
    return corpus, names, clusters, split


@pytest.fixture(scope="module")
def demo_paths_module():
    from rareclass.demo import packaged_data_path

    return {
        "corpus": packaged_data_path("demo_corpus.tsv"),
        "names": packaged_data_path("demo_names.txt"),
        "clusters": packaged_data_path("demo_clusters.tsv"),
    }


def config(*overrides):
    return PipelineConfig.from_sources(None, list(overrides))


class TestConfig:
    def test_defaults_render_and_parse(self, tmp_path):
        path = tmp_path / "default.cfg"
        path.write_text(render_default_config(), encoding="utf-8")
        cfg = PipelineConfig.from_sources(path, [])
        assert cfg["classifier.kind"] == "svm"
        assert cfg["features.min_df"] == 2
        assert cfg.svm_params().c == 100.0

    def test_rendered_defaults_and_demo_config_parse_to_the_defaults(self, tmp_path):
        from rareclass.demo import write_demo_files

        defaults = PipelineConfig.from_sources(None)
        path = tmp_path / "default.cfg"
        path.write_text(render_default_config(), encoding="utf-8")
        assert PipelineConfig.from_sources(path).values == defaults.values
        write_demo_files(tmp_path / "demo")
        demo = PipelineConfig.from_sources(tmp_path / "demo" / "demo.cfg")
        changed = {key for key in defaults.values if demo[key] != defaults[key]}
        assert changed == {"paths.corpus", "paths.lexicon", "paths.name_lexicon", "paths.clusters"}

    def test_config_defaults_equal_the_parameter_defaults(self):
        # each default is written twice: as a `_KEYS` string and in the code
        defaults = PipelineConfig.from_sources(None)
        assert defaults.feature_settings() == FeatureSettings()
        assert defaults.svm_params() == SvmParams()
        event_model = inspect.signature(train_nb).parameters["event_model"].default
        assert defaults["nb.event_model"] == event_model

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("features.min_fd = 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            PipelineConfig.from_sources(path, [])
        # the classic normalizer's word lists are fixed, not configured
        for key in (
            "normalize.possessive_pronouns", "normalize.child_terms",
            "normalize.third_person_pronouns",
        ):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                PipelineConfig.from_sources(None, [f"{key}=my"])

    def test_override_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("svm.c = 10\n", encoding="utf-8")
        cfg = PipelineConfig.from_sources(path, ["svm.c=25"])
        assert cfg.svm_params().c == 25.0

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config("sampler.method=bogus")
        with pytest.raises(ConfigError):
            config("features.n_min=3", "features.n_max=2")
        with pytest.raises(ConfigError):
            config("svm.kernel=poly")
        for override in (
            "split.test_fraction=1.5",
            "sampler.k=1.5",
            "sampler.k_neighbors=0",
            "svm.c=nan",
            "svm.c=inf",
            "svm.gamma=nan",
            "svm.gamma=0",
            "svm.gamma=",
            "svm.tolerance=nan",
            "svm.max_iterations=0",
            "svm.class_weights=defect:nan",
        ):
            with pytest.raises(ConfigError, match=override.split("=")[0]):
                config(override)
        with pytest.raises(ConfigError, match="svm.class_weights: class 'defect' given twice"):
            config("svm.class_weights=defect:1,defect:2")
        # keys the chosen classifier never reads are checked too
        with pytest.raises(ConfigError, match="svm.c"):
            config("classifier.kind=nb", "svm.c=abc")

    def test_explicit_class_weights(self):
        cfg = config("svm.class_weights=defect:4.0,non_defect:1.0")
        weights = cfg.svm_params().class_weights
        assert weights[Label.DEFECT] == 4.0
        assert weights[Label.NON_DEFECT] == 1.0


class TestTraining:
    def test_svm_pipeline_beats_majority_baseline(self, demo):
        _, names, clusters, split = demo
        cfg = config()
        stored, _ = train_from_corpus(split.train, cfg, names, clusters)
        report, predictions = evaluate_corpus(stored, split.test, names, clusters)
        majority_f1 = evaluate_corpus_baseline(split.test)
        assert report.per_class[Label.DEFECT][2] > 0.0
        assert report.per_class[Label.POSSIBLE_DEFECT][2] > 0.0
        assert report.overall > majority_f1

    def test_nb_pipeline_runs(self, demo):
        _, names, clusters, split = demo
        cfg = config("classifier.kind=nb")
        stored, _ = train_from_corpus(split.train, cfg, names, clusters)
        assert stored.scaler is None
        report, _ = evaluate_corpus(stored, split.test, names, clusters)
        assert 0.0 < report.overall <= 1.0

    @pytest.mark.parametrize(
        "overrides",
        [
            ("sampler.method=similar", "sampler.k=0.8"),
            ("sampler.method=random", "sampler.target_total=200"),
            ("sampler.method=replacement",),
            ("sampler.method=smote", "sampler.seed=5"),
        ],
    )
    def test_samplers_produce_reports(self, demo, overrides):
        _, names, clusters, split = demo
        cfg = config(*overrides)
        sampled, report = apply_text_sampler(split.train, cfg)
        _, report = train_from_corpus(sampled, cfg, names, clusters, report)
        assert report is not None
        assert report.to_text().startswith("method:")

    def test_replacement_records_no_seed(self, demo):
        _, names, clusters, split = demo
        cfg = config("sampler.method=replacement", "sampler.seed=5")
        sampled, report = apply_text_sampler(split.train, cfg)
        stored, report = train_from_corpus(sampled, cfg, names, clusters, report)
        assert "seed" not in report.parameters and "seed" not in report.to_text()
        factors = report.parameters["factors"]
        assert stored.extras["sampler"] == {"method": "replacement", "factors": factors}

    def test_near_fn_requires_fn_corpus(self, demo):
        _, names, clusters, split = demo
        cfg = config("sampler.method=near_fn")
        with pytest.raises(
            ConfigError, match="^sampler.fn_corpus must be set for the near_fn sampler$"
        ):
            apply_text_sampler(split.train, cfg)

    def test_random_requires_a_positive_target_total(self, demo):
        _, _, _, split = demo
        cfg = config("sampler.method=random", "sampler.target_total=0")
        with pytest.raises(
            ConfigError, match="^sampler.target_total must be positive for random sampling$"
        ):
            apply_text_sampler(split.train, cfg)

    def test_sampler_report_must_match_the_method(self, demo):
        _, names, clusters, split = demo
        with pytest.raises(ValueError, match="needs text-sampler report"):
            train_from_corpus(split.train, config("sampler.method=random"), names, clusters)
        cfg = config("sampler.method=replacement")
        _, report = apply_text_sampler(split.train, cfg)
        with pytest.raises(ValueError, match="takes no text-sampler report"):
            train_from_corpus(split.train, config("sampler.method=smote"), names, clusters, report)

    def test_near_fn_with_tweets(self, demo, tmp_path):
        _, names, clusters, split = demo
        fn = [item for item in split.validation if item.label is Label.DEFECT][:5]
        fn_path = tmp_path / "fn.tsv"
        save_corpus(Corpus(tuple(fn)), fn_path)
        cfg = config("sampler.method=near_fn", "sampler.k=0.7", f"sampler.fn_corpus={fn_path}")
        sampled, report = apply_text_sampler(split.train, cfg)
        expected = undersample_near_fn(split.train, [item.tweet for item in fn], 0.7)
        assert (sampled, report) == expected
        _, report = train_from_corpus(sampled, cfg, names, clusters, report)
        assert report.method == "near_fn_undersample"

    def test_training_is_reproducible(self, demo, tmp_path):
        _, names, clusters, split = demo
        cfg = config("sampler.method=smote")
        paths = []
        for name in ("a.json", "b.json"):
            stored, _ = train_from_corpus(split.train, cfg, names, clusters)
            path = tmp_path / name
            save_model(path, stored)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_round_trip_predictions_match(self, demo, tmp_path):
        _, names, clusters, split = demo
        cfg = config()
        stored_live, _ = train_from_corpus(split.train, cfg, names, clusters)
        path = tmp_path / "model.json"
        save_model(path, stored_live)
        stored_disk = load_model(path)
        live = predict_corpus(stored_live, split.test, names, clusters)
        disk = predict_corpus(stored_disk, split.test, names, clusters)
        assert live == disk

    def test_scoring_one_tweet_at_a_time_gives_the_same_labels(self, demo):
        # a decision value's last bits depend on how many rows are scored
        # with it (see `predict_svm`); the labels must not
        _, names, clusters, split = demo
        stored, _ = train_from_corpus(split.train, config(), names, clusters)
        whole = predict_corpus(stored, split.test, names, clusters)
        alone = [predict_corpus(stored, Corpus((item,)), names, clusters)[0] for item in split.test]
        assert alone == whole

    def test_model_without_settings_is_a_data_error(self, demo, tmp_path):
        import json

        from rareclass.errors import DataError

        _, names, clusters, split = demo
        stored, _ = train_from_corpus(split.train, config(), names, clusters)
        path = tmp_path / "model.json"
        save_model(path, stored)
        doc = json.loads(path.read_text())
        del doc["extras"]["features"]
        bare = tmp_path / "no_features.json"
        bare.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="missing key 'features'"):
            load_model(bare)


def evaluate_corpus_baseline(corpus):
    """Overall F1 of always predicting the majority class."""
    from rareclass.evaluation import evaluate_predictions

    gold = corpus.labels()
    pred = [Label.NON_DEFECT] * len(gold)
    return evaluate_predictions(gold, pred).overall


class TestArtifacts:
    def test_normalized_round_trip(self, demo, tmp_path):
        corpus, names, clusters, _ = demo
        rows = [
            (item.tweet.id, item.label, ("tok1", "tok2")) for item in corpus.items[:5]
        ]
        path = tmp_path / "normalized.tsv"
        save_normalized(rows, path)
        assert path.read_text(encoding="utf-8").splitlines() == ["id\tlabel\ttokens"] + [
            f"{i}\t{l.value}\ttok1 tok2" for i, l, _ in rows
        ]

    def test_features_round_trip(self, demo, tmp_path):
        corpus, names, clusters, split = demo
        cfg = config()
        settings = cfg.feature_settings()
        vectors, vocab = featurize_corpus(split.validation, names, clusters, settings)
        path = tmp_path / "features.json"
        ids = [item.tweet.id for item in split.validation]
        save_features(path, vocab, vectors, split.validation, settings)
        vocab2, vectors2, ids2, labels2, settings2 = load_features(path)
        assert vocab2 == vocab and vectors2 == vectors
        assert ids2 == ids and labels2 == split.validation.labels()
        assert settings2 == settings

    def test_cluster_features_present_in_vocab(self, demo):
        corpus, names, clusters, split = demo
        cfg = config("features.min_df=1")
        settings = cfg.feature_settings()
        _, vocab = featurize_corpus(split.train, names, clusters, settings)
        assert any(feature_kind(name) == "cluster" for name in vocab.names)
        assert any(feature_kind(name) == "structural" for name in vocab.names)
