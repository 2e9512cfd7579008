"""Versioned JSON persistence for trained models.

A model file embeds everything prediction needs: classifier parameters,
the vocabulary (names and kinds), the fitted scaler (SVM only), and
either the Naive Bayes tables or the SVM's support vectors.  Format
version 2 stores every support vector once, in a shared pool
(``svm.support_vectors``: CSR ``indptr``/``indices``/``values`` arrays);
each class pair lists its support vectors as pool indices (``support``)
next to its own ``alpha``, ``y``, ``bias``, ``iterations`` and
``converged``.  Version 1 files, which copied the support vectors into
every pair, are rejected like any other unknown version.

Floats round-trip exactly through JSON's repr encoding, so a reloaded
model predicts bit-identically.  Files are written with sorted keys and
fixed separators, so identical models produce identical bytes.  Loading
checks every key and type it reads and raises `DataError` on a missing
key, a wrong type, a bad value or a pool index out of range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Label
from .errors import DataError
from .features import CsrMatrix, Scaler, Vocabulary
from .naive_bayes import GAUSSIAN, NbModel
from .svm import PairModel, SvmModel, SvmParams

FORMAT_NAME = "rareclass.model"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class StoredModel:
    """A deserialized model plus the feature machinery saved with it."""

    classifier: SvmModel | NbModel
    vocabulary: Vocabulary
    scaler: Scaler | None
    extras: dict

    @property
    def kind(self) -> str:
        return "svm" if isinstance(self.classifier, SvmModel) else "nb"


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


VOCABULARY_SCHEMA = {"names": [str], "kinds": [str], "min_df": int}
_SCHEMAS = {
    "model": {
        "vocabulary": VOCABULARY_SCHEMA,
        "scaler": ({"mins": [float], "maxs": [float]}, None),
        "extras": dict,
    },
    "svm": {
        "labels": [str],
        "dim": int,
        "gamma": float,
        "class_weights": {str: float},
        "params": {
            "c": float, "kernel": str, "gamma": (float, None), "tolerance": float,
            "max_iterations": int,
        },
        "support_vectors": {"indptr": [int], "indices": [int], "values": [float]},
        "pairs": [{
            "positive": str, "negative": str, "bias": float, "alpha": [float], "y": [int],
            "support": [int], "iterations": int, "converged": bool,
        }],
    },
    "nb": {"labels": [str], "log_priors": [float], "event_model": str, "dim": int},
}


def vocabulary_to_json(vocabulary: Vocabulary) -> dict:
    return {
        "names": list(vocabulary.names),
        "kinds": list(vocabulary.kinds),
        "min_df": vocabulary.min_df,
    }


def vocabulary_from_json(obj: dict) -> Vocabulary:
    """A vocabulary from an object that fits `VOCABULARY_SCHEMA`."""
    if len(obj["names"]) != len(obj["kinds"]):
        raise DataError("vocabulary: names and kinds differ in length")
    return Vocabulary(tuple(obj["names"]), tuple(obj["kinds"]), obj["min_df"])


def _svm_to_json(model: SvmModel) -> dict:
    pool = model.support_vectors
    return {
        "labels": [lbl.value for lbl in model.labels],
        "dim": model.dim,
        "gamma": model.gamma,
        "class_weights": {lbl.value: w for lbl, w in model.class_weights.items()},
        "params": {key: getattr(model.params, key) for key in _SCHEMAS["svm"]["params"]},
        "support_vectors": {
            "indptr": pool.indptr.tolist(),
            "indices": pool.indices.tolist(),
            "values": pool.data.tolist(),
        },
        "pairs": [
            {
                "positive": pair.positive_label.value,
                "negative": pair.negative_label.value,
                "bias": pair.bias,
                "alpha": list(pair.alpha),
                "y": list(pair.y),
                "support": list(pair.support),
                "iterations": pair.iterations,
                "converged": pair.converged,
            }
            for pair in model.pairs
        ],
    }


def _svm_from_json(obj: dict) -> SvmModel:
    if not 0.0 < obj["gamma"] < math.inf:
        raise DataError("svm.gamma must be positive and finite")
    labels = tuple(Label(v) for v in obj["labels"])
    class_weights = {Label(k): float(w) for k, w in obj["class_weights"].items()}
    params = SvmParams(
        **{key: obj["params"][key] for key in _SCHEMAS["svm"]["params"]},
        class_weights=class_weights,
    )
    pool_obj = obj["support_vectors"]
    pool = CsrMatrix.from_arrays(
        pool_obj["indptr"], pool_obj["indices"], pool_obj["values"], obj["dim"]
    )
    pairs = []
    for p in obj["pairs"]:
        if not len(p["support"]) == len(p["alpha"]) == len(p["y"]):
            raise DataError("svm: a pair's support, alpha and y differ in length")
        if not all(0 <= i < pool.n_rows for i in p["support"]):
            raise DataError(f"svm: support index out of range for a pool of {pool.n_rows}")
        if not set(p["y"]) <= {-1, 1} or not {p["positive"], p["negative"]} <= set(obj["labels"]):
            raise DataError("svm: a pair's y or labels are invalid")
        pairs.append(PairModel(
            Label(p["positive"]), Label(p["negative"]), tuple(p["support"]),
            tuple(map(float, p["alpha"])), tuple(p["y"]), float(p["bias"]), p["iterations"],
            p["converged"],
        ))
    return SvmModel(
        labels, tuple(pairs), params, float(obj["gamma"]), class_weights, obj["dim"], pool
    )


def _nb_to_json(model: NbModel) -> dict:
    tables = {key: getattr(model, key) for key in ("log_likelihood", "means", "variances")}
    return {
        "labels": [lbl.value for lbl in model.labels],
        "log_priors": list(model.log_priors),
        "event_model": model.event_model,
        "dim": model.dim,
        **{key: [list(row) for row in rows] for key, rows in tables.items() if rows is not None},
    }


def _nb_from_json(obj: dict) -> NbModel:
    labels = tuple(Label(v) for v in obj["labels"])
    keys = ("means", "variances") if obj["event_model"] == GAUSSIAN else ("log_likelihood",)
    check_json(obj, dict.fromkeys(keys, [[float]]), "nb")
    tables = {key: np.asarray(obj[key], dtype=float) for key in keys}
    if len(obj["log_priors"]) != len(labels) or any(
        table.shape != (len(labels), obj["dim"]) for table in tables.values()
    ):
        raise DataError("nb: the tables do not match the labels and dimension")
    if "variances" in tables and not (tables["variances"] > 0.0).all():
        raise DataError("nb: variances must be positive")
    return NbModel(
        labels,
        tuple(float(v) for v in obj["log_priors"]),
        obj["event_model"],
        obj["dim"],
        **{key: tuple(map(tuple, table.tolist())) for key, table in tables.items()},
    )


def save_model(
    path: str | Path,
    classifier: SvmModel | NbModel,
    vocabulary: Vocabulary,
    scaler: Scaler | None = None,
    extras: dict | None = None,
) -> None:
    kind = "svm" if isinstance(classifier, SvmModel) else "nb"
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "vocabulary": vocabulary_to_json(vocabulary),
        "scaler": (
            None if scaler is None else {"mins": list(scaler.mins), "maxs": list(scaler.maxs)}
        ),
        "extras": extras or {},
        kind: _svm_to_json(classifier) if kind == "svm" else _nb_to_json(classifier),
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def read_versioned_json(path: Path, format_name: str, version: int, what: str) -> dict:
    """The JSON object in `path`, whose format and version must match."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != format_name:
        raise DataError(f"{path}: not a rareclass {what} file")
    if doc.get("version") != version:
        raise DataError(f"{path}: unsupported {what} version {doc.get('version')!r}")
    return doc


def load_model(path: str | Path) -> StoredModel:
    path = Path(path)
    doc = read_versioned_json(path, FORMAT_NAME, FORMAT_VERSION, "model")
    kind = doc.get("kind")
    if kind not in ("svm", "nb"):
        raise DataError(f"{path}: unknown classifier kind {kind!r}")
    try:
        check_json(doc, dict(_SCHEMAS["model"], **{kind: _SCHEMAS[kind]}), "model")
        vocabulary = vocabulary_from_json(doc["vocabulary"])
        scaler = None
        if doc["scaler"] is not None:
            scaler = Scaler(tuple(doc["scaler"]["mins"]), tuple(doc["scaler"]["maxs"]))
            if scaler.dim != vocabulary.dim or len(scaler.maxs) != scaler.dim:
                raise DataError("scaler: dimension differs from the vocabulary's")
        classifier = _svm_from_json(doc[kind]) if kind == "svm" else _nb_from_json(doc[kind])
        if classifier.dim != vocabulary.dim:
            raise DataError(f"{kind}: dimension differs from the vocabulary's")
    except (DataError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return StoredModel(classifier, vocabulary, scaler, doc["extras"])
