"""Versioned JSON files: the model file and the features file.

`StoredModel` is the one model record: `pipeline.train_from_corpus`
returns it, `save_model` writes it and `load_model` reads it.  A model
file embeds everything prediction needs: classifier parameters, the
vocabulary's names, the fitted scaler (SVM only), the featurization
settings (``extras.features`` and ``extras.normalize``, required), and
either the Naive Bayes tables or the SVM's support vectors, each stored
once in a CSR pool (``svm.support_vectors``) that each class pair indexes
(``support``) next to its ``alpha``, ``y``, ``bias``, ``iterations`` and
``converged``.  A features file holds a vocabulary, the settings that made
it, and one sparse row per corpus item.

Model format 4 and features format 3 store each fact once: `min_df` in the
feature settings, the dimension as the vocabulary's length, the SVM's
gamma and class weights as the values training used, and no feature kinds
(`feature_kind` derives them).  Each number is in its shortest exact form:
a float that is integral, not -0.0 and below 2**53 in magnitude as a JSON
integer; only the scaler columns whose (min, max) is not (0, 1); and, in
sparse rows, each row's first column as is and each later one as its gap
from the column before.  Any other version is rejected: retrain.  Every
value reads back bit-identical, so a loaded record equals the saved one.
Files are written with sorted keys and fixed separators, so identical
records produce identical bytes.  Loading checks every key and type it
reads and raises `DataError` on a missing key, a wrong type, a bad value
or an index out of range.  An SVM pair must hold what training writes: a
strictly increasing ``support``, each ``alpha`` above 0 and at most ``c``
times the class weight of its ``y``'s label, and ``iterations`` >= 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .corpus import Corpus, Label
from .errors import DataError, read_utf8
from .features import (
    CsrMatrix,
    FeatureSettings,
    Scaler,
    Vocabulary,
)
from .normalize import NormalizationConfig

# a model's codec imports its classifier's module, so that loading or saving
# one kind of model leaves the other unimported
if TYPE_CHECKING:
    from .naive_bayes import NbModel
    from .svm import SvmModel

FORMAT_NAME = "rareclass.model"
FORMAT_VERSION = 4
FEATURES_FORMAT = "rareclass.features"
FEATURES_VERSION = 3


@dataclass(frozen=True)
class StoredModel:
    """A trained classifier plus the featurization it was trained with.

    `extras` holds provenance only (the sampler record and the training
    corpus digest); the settings prediction needs are typed fields.
    """

    classifier: SvmModel | NbModel
    vocabulary: Vocabulary
    scaler: Scaler | None
    features: FeatureSettings
    normalization: NormalizationConfig
    extras: dict

    @property
    def kind(self) -> str:
        """``"svm"`` or ``"nb"``: the classifier's `kind`."""
        return self.classifier.kind


_SCALARS = {bool: {bool}, int: {int}, float: {int, float}, str: {str}}


def check_json(value, schema, where: str) -> None:
    """Raise DataError unless `value`, read from a JSON file, fits `schema`.

    A schema is bool, int, float (an int passes; it must be finite), str,
    list or dict; a one-item list (a list whose items fit that item); a
    dict (an object with at least these keys, whose values fit), where a
    `str` key stands for every key; or ``(schema, None)`` (may be null).
    """
    if isinstance(schema, tuple):
        if value is None:
            return
        schema = schema[0]
    if isinstance(schema, list):
        if type(value) is not list:
            raise DataError(f"{where} must be a list")
        item = schema[0]
        if isinstance(item, type) and item in _SCALARS:  # fast path
            if not all(type(v) in _SCALARS[item] for v in value):
                raise DataError(f"{where} must be a list of {item.__name__}s")
            if item is float and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise DataError(f"{where} must hold finite numbers")
        else:
            for k, v in enumerate(value):
                check_json(v, item, f"{where}[{k}]")
    elif isinstance(schema, dict):
        if type(value) is not dict:
            raise DataError(f"{where} must be an object")
        for key, item in schema.items():
            if key is str:
                for name, v in value.items():
                    check_json(v, item, f"{where}.{name}")
            elif key not in value:
                raise DataError(f"{where}: missing key {key!r}")
            else:
                check_json(value[key], item, f"{where}.{key}")
    elif schema in _SCALARS:
        if type(value) not in _SCALARS[schema] or (schema is float and not math.isfinite(value)):
            raise DataError(f"{where} must be a {schema.__name__}")
    elif type(value) is not schema:
        raise DataError(f"{where} must be a {schema.__name__}")


_VOCABULARY_SCHEMA = {"names": [str]}
_FEATURES_SCHEMA = {key: type(value) for key, value in asdict(FeatureSettings()).items()}
_NORMALIZE_KEYS = tuple(asdict(NormalizationConfig()))
_SCHEMAS = {
    "model": {
        "vocabulary": _VOCABULARY_SCHEMA,
        "scaler": ({"columns": [int], "mins": [float], "maxs": [float]}, None),
        "extras": {"features": dict, "normalize": dict},
    },
    "svm": {
        "labels": [str],
        "class_weights": {str: float},
        "params": {"c": float, "kernel": str, "gamma": float, "tolerance": float,
                   "max_iterations": int},
        "support_vectors": {"indptr": [int], "indices": [int], "values": [float]},
        "pairs": [{
            "positive": str, "negative": str, "bias": float, "alpha": [float], "y": [int],
            "support": [int], "iterations": int, "converged": bool,
        }],
    },
    "nb": {"labels": [str], "log_priors": [float], "event_model": str},
}


def _shortest(value):
    """`value` with every float that is integral, is not -0.0 and is below
    2**53 in magnitude made an int, which JSON spells without ``.0``."""
    if isinstance(value, float):
        exact = value.is_integer() and abs(value) < 2.0**53
        return int(value) if exact and (value or math.copysign(1.0, value) > 0) else value
    if type(value) is dict:
        return {key: _shortest(item) for key, item in value.items()}
    if type(value) is list:
        return [_shortest(item) for item in value]
    return value


def _write_json(path: str | Path, doc: dict) -> None:
    """Write `doc`, its numbers at their shortest, with sorted keys and fixed separators."""
    text = json.dumps(_shortest(doc), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _gaps(x: CsrMatrix) -> np.ndarray:
    """Each row's first column as is, each later one as its gap from the one before."""
    gaps = np.diff(x.indices, prepend=0)
    starts = x.indptr[:-1][np.diff(x.indptr) > 0]
    gaps[starts] = x.indices[starts]
    return gaps


def _csr_from_gaps(indptr, gaps, values, dim: int) -> CsrMatrix:
    """The validated matrix whose columns `_gaps` wrote; `from_arrays` rejects a gap below 1."""
    indptr, columns = np.asarray(indptr, np.intp), np.cumsum(np.asarray(gaps, np.intp))
    lengths = np.diff(indptr)
    if len(indptr) and indptr[0] == 0 and indptr[-1] == len(columns) and (lengths >= 0).all():
        # less, in every row, the sum of the gaps of the rows before it
        columns -= np.repeat(np.concatenate(([0], columns))[indptr[:-1]], lengths)
    return CsrMatrix.from_arrays(indptr, columns, values, dim)


def _scaler_to_json(scaler: Scaler) -> dict:
    mins, maxs = scaler.mins, scaler.maxs
    cols = np.flatnonzero((mins != 0.0) | np.signbit(mins) | (maxs != 1.0))  # not (+0.0, 1.0)
    return {"columns": cols.tolist(), "mins": mins[cols].tolist(), "maxs": maxs[cols].tolist()}


def _scaler_from_json(obj: dict, dim: int) -> Scaler:
    """A dense scaler from the listed columns; every other column is (0, 1)."""
    columns = np.asarray(obj["columns"], np.intp)
    listed_mins, listed_maxs = (np.asarray(obj[key], float) for key in ("mins", "maxs"))
    if not len(columns) == len(listed_mins) == len(listed_maxs):
        raise DataError("scaler: columns, mins and maxs differ in length")
    if not (np.diff(np.concatenate(([-1], columns, [dim]))) > 0).all():
        raise DataError("scaler: columns must increase strictly, from 0 to below the dimension")
    if (listed_mins > listed_maxs).any():
        raise DataError("scaler: a column's min is above its max")
    mins, maxs = np.zeros(dim), np.ones(dim)
    mins[columns], maxs[columns] = listed_mins, listed_maxs
    return Scaler(mins, maxs)


def feature_settings_from_json(obj: dict) -> FeatureSettings:
    check_json(obj, _FEATURES_SCHEMA, "feature settings")
    if obj["min_df"] < 1:
        raise DataError("feature settings: min_df must be >= 1")
    if obj["n_min"] < 1:
        raise DataError("feature settings: n_min must be >= 1")
    if obj["n_min"] > obj["n_max"]:
        raise DataError("feature settings: n_min must not exceed n_max")
    return FeatureSettings(**{key: obj[key] for key in _FEATURES_SCHEMA})


def normalization_to_json(cfg: NormalizationConfig) -> dict:
    return {key: sorted(getattr(cfg, key)) for key in _NORMALIZE_KEYS}


def normalization_from_json(obj: dict) -> NormalizationConfig:
    check_json(obj, dict.fromkeys(_NORMALIZE_KEYS, [str]), "normalization settings")
    return NormalizationConfig(**{key: frozenset(obj[key]) for key in _NORMALIZE_KEYS})


def vocabulary_to_json(vocabulary: Vocabulary) -> dict:
    return {"names": list(vocabulary.names)}


def vocabulary_from_json(obj: dict) -> Vocabulary:
    """A vocabulary from an object that fits `_VOCABULARY_SCHEMA`, with
    sorted unique names (as `build_vocabulary` makes them)."""
    names = obj["names"]
    if any(a >= b for a, b in zip(names, names[1:])):
        raise DataError("vocabulary: names must be sorted and unique")
    return Vocabulary(tuple(names))


def _svm_to_json(model: SvmModel) -> dict:
    pool = model.support_vectors
    return {
        "labels": [lbl.value for lbl in model.labels],
        "class_weights": {lbl.value: w for lbl, w in model.params.class_weights.items()},
        "params": {key: getattr(model.params, key) for key in _SCHEMAS["svm"]["params"]},
        "support_vectors": {
            "indptr": pool.indptr.tolist(),
            "indices": _gaps(pool).tolist(),
            "values": pool.data.tolist(),
        },
        "pairs": [
            {
                "positive": pair.positive_label.value,
                "negative": pair.negative_label.value,
                "bias": pair.bias,
                "alpha": pair.alpha.tolist(),
                "y": pair.y.tolist(),
                "support": pair.support.tolist(),
                "iterations": pair.iterations,
                "converged": pair.converged,
            }
            for pair in model.pairs
        ],
    }


def _svm_from_json(obj: dict, dim: int) -> SvmModel:
    from .svm import PairModel, SvmModel, SvmParams

    labels = tuple(Label(v) for v in obj["labels"])
    raw = obj["params"]
    params = SvmParams(
        c=float(raw["c"]), kernel=raw["kernel"], gamma=float(raw["gamma"]),
        tolerance=float(raw["tolerance"]), max_iterations=raw["max_iterations"],
        class_weights={Label(k): float(w) for k, w in obj["class_weights"].items()},
    )
    pool_obj = obj["support_vectors"]
    pool = _csr_from_gaps(pool_obj["indptr"], pool_obj["indices"], pool_obj["values"], dim)
    # what `train_svm` writes: one pair for every two labels, in label order
    expected = [[pos.value, neg.value] for pos, neg in combinations(labels, 2)]
    found = [[p["positive"], p["negative"]] for p in obj["pairs"]]
    if len(set(labels)) < len(labels) or not expected or found != expected:
        raise DataError("svm: the pairs must be every two of two or more distinct labels, in order")
    weights = params.class_weights
    if missing := [label.value for label in labels if label not in weights]:
        raise DataError(f"svm: class_weights has no weight for {', '.join(missing)}")
    pairs = []
    for k, p in enumerate(obj["pairs"]):
        if not len(p["support"]) == len(p["alpha"]) == len(p["y"]):
            raise DataError("svm: a pair's support, alpha and y differ in length")
        if not all(0 <= i < pool.n_rows for i in p["support"]):
            raise DataError(f"svm: support index out of range for a pool of {pool.n_rows}")
        if not set(p["y"]) <= {-1, 1}:
            raise DataError("svm: a pair's y values must be +1 or -1")
        positive, negative = Label(p["positive"]), Label(p["negative"])
        support = np.asarray(p["support"], np.intp)
        alpha = np.asarray(p["alpha"], float)
        y = np.asarray(p["y"], float)
        if (np.diff(support) <= 0).any():
            raise DataError(f"svm: pairs[{k}].support must increase strictly")
        # the bounds `train_svm` gave SMO, which leaves each support vector's alpha in (0, box]
        box = np.where(y > 0, params.c * weights[positive], params.c * weights[negative])
        if not ((alpha > 0.0) & (alpha <= box)).all():
            raise DataError(f"svm: pairs[{k}].alpha must lie in (0, c * its y's class weight]")
        if p["iterations"] < 1:
            raise DataError(f"svm: pairs[{k}].iterations must be >= 1")
        pairs.append(PairModel(
            positive, negative, support, alpha, y, float(p["bias"]), p["iterations"],
            p["converged"],
        ))
    return SvmModel(labels, tuple(pairs), params, pool)


def _nb_to_json(model: NbModel) -> dict:
    tables = {key: getattr(model, key) for key in ("log_likelihood", "means", "variances")}
    return {
        "labels": [lbl.value for lbl in model.labels],
        "log_priors": model.log_priors.tolist(),
        "event_model": model.event_model,
        **{key: table.tolist() for key, table in tables.items() if table is not None},
    }


def _nb_from_json(obj: dict, dim: int) -> NbModel:
    from .naive_bayes import GAUSSIAN, NbModel

    labels = tuple(Label(v) for v in obj["labels"])
    keys = ("means", "variances") if obj["event_model"] == GAUSSIAN else ("log_likelihood",)
    check_json(obj, dict.fromkeys(keys, [[float]]), "nb")
    if any(len(row) != dim for key in keys for row in obj[key]):  # numpy rejects ragged rows
        raise DataError("nb: the tables do not match the labels and dimension")
    tables = {key: np.asarray(obj[key], dtype=float) for key in keys}
    log_priors = np.asarray(obj["log_priors"], dtype=float)
    if len(log_priors) != len(labels) or any(
        table.shape != (len(labels), dim) for table in tables.values()
    ):
        raise DataError("nb: the tables do not match the labels and dimension")
    if "variances" in tables and not (tables["variances"] > 0.0).all():
        raise DataError("nb: variances must be positive")
    if (log_priors > 0.0).any():
        raise DataError("nb: log priors must not be above 0")
    return NbModel(labels, log_priors, obj["event_model"], dim, **tables)


def save_model(path: str | Path, model: StoredModel) -> None:
    kind = model.kind
    scaler = model.scaler
    _write_json(path, {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "vocabulary": vocabulary_to_json(model.vocabulary),
        "scaler": None if scaler is None else _scaler_to_json(scaler),
        "extras": {
            **model.extras,
            "features": asdict(model.features),
            "normalize": normalization_to_json(model.normalization),
        },
        kind: _svm_to_json(model.classifier) if kind == "svm" else _nb_to_json(model.classifier),
    })


def read_versioned_json(path: Path, format_name: str, version: int, what: str, remedy: str) -> dict:
    """The JSON object in `path`, whose format and version must match; the
    error for another version ends with `remedy`.  A file that is not
    UTF-8, not JSON or nested too deep to decode is a DataError."""
    try:
        doc = json.loads(read_utf8(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != format_name:
        raise DataError(f"{path}: not a rareclass {what} file")
    if (found := doc.get("version")) != version:
        raise DataError(f"{path}: unsupported {what} version {found!r}, not {version}; {remedy}")
    return doc


def load_model(path: str | Path) -> StoredModel:
    path = Path(path)
    doc = read_versioned_json(path, FORMAT_NAME, FORMAT_VERSION, "model", "retrain the model")
    kind = doc.get("kind")
    if kind not in ("svm", "nb"):
        raise DataError(f"{path}: unknown classifier kind {kind!r}")
    try:
        check_json(doc, dict(_SCHEMAS["model"], **{kind: _SCHEMAS[kind]}), "model")
        vocabulary = vocabulary_from_json(doc["vocabulary"])
        scaler = None
        if doc["scaler"] is not None:
            scaler = _scaler_from_json(doc["scaler"], vocabulary.dim)
        classifier = (_svm_from_json if kind == "svm" else _nb_from_json)(doc[kind], vocabulary.dim)
        extras = dict(doc["extras"])
        features = feature_settings_from_json(extras.pop("features"))
        normalization = normalization_from_json(extras.pop("normalize"))
    except (DataError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return StoredModel(classifier, vocabulary, scaler, features, normalization, extras)


def save_features(
    path: str | Path,
    vocabulary: Vocabulary,
    x: CsrMatrix,
    corpus: Corpus,
    settings: FeatureSettings,
) -> None:
    """Write one doc per row of `x`: the id and label of the corpus item it
    was made from, its columns (gap-coded as `_gaps` codes them) and its values."""
    bounds, indices, values = x.indptr.tolist(), _gaps(x).tolist(), x.data.tolist()
    _write_json(path, {
        "format": FEATURES_FORMAT,
        "version": FEATURES_VERSION,
        "settings": asdict(settings),
        "vocabulary": vocabulary_to_json(vocabulary),
        "docs": [
            {
                "id": item.tweet.id,
                "label": item.label.value,
                "indices": indices[lo:hi],
                "values": values[lo:hi],
            }
            for item, lo, hi in zip(corpus, bounds, bounds[1:])
        ],
    })


def load_features(
    path: str | Path,
) -> tuple[Vocabulary, CsrMatrix, list[str], list[Label], FeatureSettings]:
    """The vocabulary, matrix, ids, labels and settings of a features file;
    the docs are joined into one matrix and validated as a whole."""
    path = Path(path)
    remedy = "featurize again"
    doc = read_versioned_json(path, FEATURES_FORMAT, FEATURES_VERSION, "features", remedy)
    schema = {
        "settings": dict,
        "vocabulary": _VOCABULARY_SCHEMA,
        "docs": [{"id": str, "label": str, "indices": [int], "values": [float]}],
    }
    try:
        check_json(doc, schema, "features")
        docs = doc["docs"]
        if any(len(d["indices"]) != len(d["values"]) for d in docs):
            raise DataError("features: a doc's indices and values differ in length")
        vocabulary = vocabulary_from_json(doc["vocabulary"])
        x = _csr_from_gaps(
            np.cumsum([0] + [len(d["indices"]) for d in docs]),
            [i for d in docs for i in d["indices"]],
            [v for d in docs for v in d["values"]],
            vocabulary.dim,
        )
        labels = [Label(d["label"]) for d in docs]
        settings = feature_settings_from_json(doc["settings"])
    except (DataError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return vocabulary, x, [d["id"] for d in docs], labels, settings
