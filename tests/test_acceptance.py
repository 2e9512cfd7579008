"""Acceptance suite: one test per release criterion.

Each criterion runs at its stated tolerance and prints a single
``ACCEPTANCE <id> <name>: PASS`` line (visible with ``pytest -s``); a
failure reads FAIL with pytest's usual diagnostics.  Expected values
were produced by the independent oracles defined alongside the checks
(full-matrix edit-distance dynamic program, brute-force active-set QP
enumeration, nearest-neighbor segment geometry) or worked by hand.
"""

import random
import time

import numpy as np

from rareclass.cli import main
from rareclass.corpus import Label, cohens_kappa, load_corpus, stratified_split
from rareclass.demo import packaged_data_path
from rareclass.evaluation import evaluate_predictions, overall_f1, paired_t_test
from rareclass.features import FeatureSettings, Vocabulary, fit_scaler
from rareclass.model_store import StoredModel, load_model, save_model
from rareclass.normalize import NormalizationConfig
from rareclass.sampling import levenshtein_ratio, oversample_replacement
from rareclass.stats import student_t_two_sided_p
from rareclass.svm import (
    KERNEL_LINEAR,
    KERNEL_RBF,
    SvmParams,
    predict_svm,
    solve_binary,
    train_svm,
)

from conftest import counted_corpus
from qp_oracle import (
    dual_value,
    kernel_matrix,
    kkt_violation,
    random_dataset,
    solve_reference,
)
from sparse_oracle import SparseVector, from_rows, smote_by_class
from test_normalize import (
    CLASSIC_GOLDEN,
    EMBEDDING_GOLDEN,
    run_classic,
    run_embedding,
)
from test_sampling import dense, knn_indices, oracle_distance, segment_residual


def report(criterion, name):
    print(f"ACCEPTANCE {criterion} {name}: PASS")


def test_c01_split_arithmetic():
    corpus = counted_corpus(1192, 1196, 20611)
    start = time.perf_counter()
    remainder, test = stratified_split(corpus, 0.2, seed=20260801)
    train, validation = stratified_split(remainder, 0.2, seed=20260802)
    elapsed = time.perf_counter() - start
    assert len(test) == 4602
    assert len(validation) == 3681
    assert len(train) == 14716
    assert elapsed < 1.0, f"split took {elapsed:.3f}s"
    report("C01", "split-arithmetic")


def test_c02_f1_arithmetic():
    precision, recall = 0.62, 0.68
    f1 = 2 * (precision * recall) / (precision + recall)
    assert round(f1, 2) == 0.65
    overall = overall_f1(
        {Label.DEFECT: 0.62, Label.POSSIBLE_DEFECT: 0.52, Label.NON_DEFECT: 0.96},
        {Label.DEFECT: 1192, Label.POSSIBLE_DEFECT: 1196, Label.NON_DEFECT: 20611},
    )
    assert round(overall, 2) == 0.92
    report("C02", "f1-arithmetic")


def test_c03_levenshtein_oracle():
    rnd = random.Random(20260803)
    alphabet = "abcdefg é\U0001f60a"
    start = time.perf_counter()
    checked_equal = 0
    for _ in range(10_000):
        a = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 50)))
        b = (
            a
            if rnd.random() < 0.02
            else "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 50)))
        )
        lensum = len(a) + len(b)
        expected = 1.0 if lensum == 0 else (lensum - oracle_distance(a, b)) / lensum
        ratio = levenshtein_ratio(a, b)
        assert abs(ratio - expected) <= 1e-12
        assert ratio == levenshtein_ratio(b, a)
        assert (ratio == 1.0) == (a == b)
        if a == b:
            checked_equal += 1
    elapsed = time.perf_counter() - start
    assert checked_equal > 50  # the =1-iff-equal branch was really exercised
    assert elapsed < 30.0, f"levenshtein sweep took {elapsed:.1f}s"
    report("C03", "levenshtein-ratio-oracle")


def test_c04_smo_vs_reference_qp():
    rng = np.random.default_rng(20260804)
    gamma = 0.7
    start = time.perf_counter()
    for trial in range(200):
        points, y = random_dataset(rng, max_points=8, max_dim=3)
        c = 100.0 if trial % 2 else 1.0
        kernel = KERNEL_RBF if trial % 4 < 2 else KERNEL_LINEAR
        box = np.full(len(y), c)
        reference_value, _ = solve_reference(kernel_matrix(points, kernel, gamma), y, box)
        vectors = [SparseVector.from_pairs(enumerate(p), points.shape[1]) for p in points]
        labels_pm = [int(v) for v in y]
        alpha, bias, _, converged = solve_binary(
            from_rows(vectors), labels_pm, box, kernel=kernel, gamma=gamma,
            tolerance=1e-8,
        )
        assert converged
        smo_value = dual_value(
            np.asarray(alpha), y, kernel_matrix(points, kernel, gamma)
        )
        assert abs(smo_value - reference_value) <= 1e-4
        assert kkt_violation(alpha, y, box, bias, kernel_matrix(points, kernel, gamma)) <= 1e-3
        assert abs(sum(a * v for a, v in zip(alpha, labels_pm))) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"reference sweep took {elapsed:.1f}s"
    report("C04", "smo-vs-reference-qp")


def test_c05_smote_geometry():
    rnd = random.Random(20260805)
    total_synthetic = 0
    trial = 0
    while total_synthetic < 1000:
        trial += 1
        dim = rnd.randint(3, 6)
        n_minority = rnd.randint(6, 12)
        n_majority = rnd.randint(n_minority * 3, n_minority * 12)
        make = lambda: SparseVector.from_pairs(
            [(j, round(rnd.uniform(-3, 3), 6)) for j in range(dim)], dim
        )
        minority = [make() for _ in range(n_minority)]
        majority = [make() for _ in range(n_majority)]
        augmented, _ = smote_by_class(
            {Label.DEFECT: minority, Label.NON_DEFECT: majority},
            k_neighbors=5,
            seed=trial,
        )
        out = augmented[Label.DEFECT]
        per_seed = (n_majority - n_minority) // n_minority
        synthetics = out[n_minority:]
        assert len(synthetics) == per_seed * n_minority
        assert abs(n_majority - len(out)) < n_minority
        dense_minority = [dense(v) for v in minority]
        k = min(5, n_minority - 1)
        for idx, synthetic in enumerate(synthetics):
            seed_idx = idx // per_seed
            residual = min(
                segment_residual(
                    dense(synthetic), dense_minority[seed_idx], dense_minority[j]
                )
                for j in knn_indices(dense_minority, seed_idx, k)
            )
            assert residual < 1e-9
        total_synthetic += len(synthetics)
    assert total_synthetic >= 1000
    report("C05", "smote-geometry")


def test_c06_oversampling_factor_rule():
    corpus = counted_corpus(10, 10, 100)
    sampled, _ = oversample_replacement(corpus)
    assert len(sampled) == 300
    balanced = counted_corpus(7, 7, 7)
    identity, _ = oversample_replacement(balanced)
    assert [i.tweet.id for i in identity] == [i.tweet.id for i in balanced]
    uneven = counted_corpus(3, 2, 10)
    oversampled, _ = oversample_replacement(uneven)
    by_text = {}
    for item in oversampled:
        by_text[item.tweet.text] = by_text.get(item.tweet.text, 0) + 1
    for item in uneven:
        factor = {Label.DEFECT: 10 // 3, Label.POSSIBLE_DEFECT: 10 // 2, Label.NON_DEFECT: 1}
        assert by_text[item.tweet.text] == factor[item.label]
    report("C06", "oversampling-factor-rule")


def test_c07_normalization_golden_files():
    assert len(CLASSIC_GOLDEN) + len(EMBEDDING_GOLDEN) >= 25
    required_classic = "<user> <poss> <child> ha <bdterm>"
    required_embedding = "soo <elong> happy ! <repeat>"
    assert any(expected == required_classic for _, _, expected in CLASSIC_GOLDEN)
    assert any(expected == required_embedding for _, expected in EMBEDDING_GOLDEN)
    for text, span, expected in CLASSIC_GOLDEN:
        assert run_classic(text, span) == expected
        assert run_classic(expected) == expected  # idempotent on output
    for text, expected in EMBEDDING_GOLDEN:
        assert run_embedding(text) == expected
        assert run_embedding(expected) == expected
    report("C07", "normalization-golden-files")


def test_c08_paired_t_test():
    result = paired_t_test((0.6, 0.7, 0.8), (0.5, 0.65, 0.7))
    assert abs(result.t_statistic - 5.0) <= 1e-9
    assert result.degrees_of_freedom == 2
    # high-precision two-tailed critical values from standard t tables
    table = [
        (12.70620474, 1, 0.05),
        (4.30265273, 2, 0.05),
        (3.18244631, 3, 0.05),
        (2.77644511, 4, 0.05),
        (2.57058184, 5, 0.05),
        (2.22813885, 10, 0.05),
        (2.08596345, 20, 0.05),
        (2.04227246, 30, 0.05),
        (63.65674116, 1, 0.01),
        (3.16927267, 10, 0.01),
    ]
    for t_ref, df, alpha in table:
        assert abs(student_t_two_sided_p(t_ref, df) - alpha) <= 1e-6
    report("C08", "paired-t-test")


def test_c09_cohens_kappa():
    a, b = [], []
    for count, (la, lb) in (
        (20, (Label.DEFECT, Label.DEFECT)),
        (5, (Label.DEFECT, Label.NON_DEFECT)),
        (10, (Label.NON_DEFECT, Label.DEFECT)),
        (15, (Label.NON_DEFECT, Label.NON_DEFECT)),
    ):
        a.extend([la] * count)
        b.extend([lb] * count)
    assert cohens_kappa(a, b) == 0.4
    assert cohens_kappa(a, a) == 1.0
    report("C09", "cohens-kappa")


def test_c10_end_to_end_demo_pipeline(tmp_path):
    corpus_path = packaged_data_path("demo_corpus.tsv")
    corpus = load_corpus(corpus_path)
    assert len(corpus) == 500
    start = time.perf_counter()
    artifacts = {}
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        base = [
            "--set", f"paths.name_lexicon={packaged_data_path('demo_names.txt')}",
            "--set", f"paths.clusters={packaged_data_path('demo_clusters.tsv')}",
            "--set", "split.seed=13",
        ]
        assert main([
            "split", "--corpus", str(corpus_path),
            "--out-dir", str(run_dir), *base,
        ]) == 0
        model = run_dir / "model.json"
        assert main([
            "train", "--corpus", str(run_dir / "train.tsv"),
            "--model", str(model), *base,
        ]) == 0
        report_tsv = run_dir / "report.tsv"
        assert main([
            "evaluate", "--corpus", str(run_dir / "test.tsv"),
            "--model", str(model), "--out", str(report_tsv), *base,
        ]) == 0
        artifacts[run] = (model.read_bytes(), report_tsv.read_bytes())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    assert artifacts["one"] == artifacts["two"], "artifacts not byte-reproducible"

    rows = artifacts["one"][1].decode().strip().split("\n")
    scores = {line.split("\t")[0]: float(line.split("\t")[3]) for line in rows[1:]}
    assert scores["defect"] > 0.0
    assert scores["possible_defect"] > 0.0
    test_corpus = load_corpus(tmp_path / "one" / "test.tsv")
    baseline = evaluate_predictions(
        test_corpus.labels(), [Label.NON_DEFECT] * len(test_corpus)
    ).overall
    assert scores["overall"] > baseline
    report("C10", "end-to-end-demo-pipeline")


def test_c11_model_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(20260811)
    dim = 8

    def random_vector():
        pairs = [(j, float(rng.uniform(-1, 1))) for j in range(dim) if rng.uniform() < 0.5]
        return SparseVector.from_pairs(pairs, dim)

    vectors = [random_vector() for _ in range(60)]
    labels = [
        (Label.DEFECT, Label.POSSIBLE_DEFECT, Label.NON_DEFECT)[i % 3]
        for i in range(60)
    ]
    model = train_svm(from_rows(vectors), labels, SvmParams(c=10.0, gamma=0.4))
    vocab = Vocabulary(tuple(f"f{i}" for i in range(dim)))
    path = tmp_path / "model.json"
    save_model(path, StoredModel(
        model, vocab, fit_scaler(from_rows(vectors)), FeatureSettings(), NormalizationConfig(), {}
    ))
    stored = load_model(path)
    for _ in range(1000):
        probe = from_rows([random_vector()])
        [live_label], live_decisions = predict_svm(model, probe)
        [disk_label], disk_decisions = predict_svm(stored.classifier, probe)
        assert live_label is disk_label
        assert live_decisions == disk_decisions
    report("C11", "model-serialization-round-trip")
