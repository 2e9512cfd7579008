"""Flat key-value pipeline configuration.

The config file holds ``section.key = value`` lines; ``#`` starts a
comment and blank lines are ignored.  Every key mirrors one documented
module parameter, and command-line ``--set section.key=value`` overrides
take precedence over the file.  Unknown keys are rejected so typos fail
loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import Label
from .errors import ConfigError
from .normalize import (
    DEFAULT_CHILD,
    DEFAULT_POSSESSIVE,
    DEFAULT_THIRD_PERSON,
    NormalizationConfig,
)

if TYPE_CHECKING:
    from .svm import SvmParams

# the SVM kernels; defined here so that reading a config needs no numpy
KERNEL_RBF = "rbf"
KERNEL_LINEAR = "linear"

_DEFAULTS: dict[str, str] = {
    "paths.corpus": "",
    "paths.lexicon": "",
    "paths.name_lexicon": "",
    "paths.clusters": "",
    "paths.model": "model.json",
    "split.test_fraction": "0.2",
    "split.validation_fraction": "0.2",
    "split.seed": "13",
    "normalize.pipeline": "classic",
    "normalize.possessive_pronouns": ",".join(sorted(DEFAULT_POSSESSIVE)),
    "normalize.child_terms": ",".join(sorted(DEFAULT_CHILD)),
    "normalize.third_person_pronouns": ",".join(sorted(DEFAULT_THIRD_PERSON)),
    "features.n_min": "1",
    "features.n_max": "3",
    "features.min_df": "2",
    "features.binary": "true",
    "features.use_clusters": "true",
    "features.use_structural": "true",
    "sampler.method": "none",
    "sampler.k": "0.85",
    "sampler.seed": "7",
    "sampler.target_total": "0",
    "sampler.k_neighbors": "5",
    "sampler.fn_corpus": "",
    "classifier.kind": "svm",
    "svm.c": "100.0",
    "svm.kernel": KERNEL_RBF,
    "svm.gamma": "auto",
    "svm.class_weights": "auto",
    "svm.tolerance": "1e-3",
    "svm.max_iterations": "10000000",
    "nb.event_model": "multinomial",
}

SAMPLER_METHODS = ("none", "similar", "near_fn", "random", "replacement", "smote")


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read raw key/value pairs; later lines override earlier ones."""
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: expected 'key = value' at line {lineno}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def parse_override(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like section.key=value")
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_tokens(raw: str) -> frozenset[str]:
    return frozenset(tok.strip().lower() for tok in raw.split(",") if tok.strip())


def _parse_weights(key: str, raw: str) -> dict[Label, float] | None:
    if raw == "auto":
        return None
    weights: dict[Label, float] = {}
    for part in raw.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition(":")
        try:
            label = Label(name.strip())
        except ValueError:
            raise ConfigError(f"{key}: unknown class {name.strip()!r}") from None
        weights[label] = _parse_float(key, value.strip())
    if not weights:
        raise ConfigError(f"{key}: no weights given")
    return weights


@dataclass(frozen=True)
class PipelineConfig:
    """Validated settings for every subcommand."""

    raw: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_sources(
        cls, config_path: str | Path | None, overrides: list[str] | None = None
    ) -> "PipelineConfig":
        values = dict(_DEFAULTS)
        if config_path is not None:
            for key, value in parse_config_file(config_path).items():
                if key not in _DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = value
        for item in overrides or []:
            key, value = parse_override(item)
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = value
        cfg = cls(values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.raw["normalize.pipeline"] not in ("classic", "embedding"):
            raise ConfigError("normalize.pipeline must be classic or embedding")
        if self.raw["sampler.method"] not in SAMPLER_METHODS:
            raise ConfigError(
                f"sampler.method must be one of {', '.join(SAMPLER_METHODS)}"
            )
        if self.raw["classifier.kind"] not in ("svm", "nb"):
            raise ConfigError("classifier.kind must be svm or nb")
        if self.raw["svm.kernel"] not in (KERNEL_RBF, KERNEL_LINEAR):
            raise ConfigError("svm.kernel must be rbf or linear")
        if self.raw["nb.event_model"] not in ("multinomial", "gaussian"):
            raise ConfigError("nb.event_model must be multinomial or gaussian")
        for key in ("features.n_min", "features.n_max", "features.min_df"):
            if _parse_int(key, self.raw[key]) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.n_min > self.n_max:
            raise ConfigError("features.n_min must not exceed features.n_max")

    def get(self, key: str) -> str:
        return self.raw[key]

    def path(self, key: str, required: bool = False) -> Path | None:
        raw = self.raw[key]
        if not raw:
            if required:
                raise ConfigError(f"{key} must be set for this subcommand")
            return None
        path = Path(raw)
        if required and not path.exists():
            raise ConfigError(f"{key}: no such file {path}")
        return path

    # Typed accessors, one per documented parameter.
    @property
    def test_fraction(self) -> float:
        return _parse_float("split.test_fraction", self.raw["split.test_fraction"])

    @property
    def validation_fraction(self) -> float:
        return _parse_float(
            "split.validation_fraction", self.raw["split.validation_fraction"]
        )

    @property
    def split_seed(self) -> int:
        return _parse_int("split.seed", self.raw["split.seed"])

    @property
    def n_min(self) -> int:
        return _parse_int("features.n_min", self.raw["features.n_min"])

    @property
    def n_max(self) -> int:
        return _parse_int("features.n_max", self.raw["features.n_max"])

    @property
    def min_df(self) -> int:
        return _parse_int("features.min_df", self.raw["features.min_df"])

    @property
    def binary_features(self) -> bool:
        return _parse_bool("features.binary", self.raw["features.binary"])

    @property
    def use_clusters(self) -> bool:
        return _parse_bool("features.use_clusters", self.raw["features.use_clusters"])

    @property
    def use_structural(self) -> bool:
        return _parse_bool(
            "features.use_structural", self.raw["features.use_structural"]
        )

    @property
    def sampler_method(self) -> str:
        return self.raw["sampler.method"]

    @property
    def sampler_k(self) -> float:
        return _parse_float("sampler.k", self.raw["sampler.k"])

    @property
    def sampler_seed(self) -> int:
        return _parse_int("sampler.seed", self.raw["sampler.seed"])

    @property
    def sampler_target_total(self) -> int:
        return _parse_int("sampler.target_total", self.raw["sampler.target_total"])

    @property
    def sampler_k_neighbors(self) -> int:
        return _parse_int("sampler.k_neighbors", self.raw["sampler.k_neighbors"])

    @property
    def classifier_kind(self) -> str:
        return self.raw["classifier.kind"]

    @property
    def nb_event_model(self) -> str:
        return self.raw["nb.event_model"]

    @property
    def normalize_pipeline(self) -> str:
        return self.raw["normalize.pipeline"]

    def normalization(self) -> NormalizationConfig:
        return NormalizationConfig(
            possessive_pronouns=_parse_tokens(self.raw["normalize.possessive_pronouns"]),
            child_terms=_parse_tokens(self.raw["normalize.child_terms"]),
            third_person_pronouns=_parse_tokens(
                self.raw["normalize.third_person_pronouns"]
            ),
        )

    def svm_params(self) -> SvmParams:
        from .svm import SvmParams

        gamma_raw = self.raw["svm.gamma"]
        gamma = None if gamma_raw in ("auto", "", "0") else _parse_float("svm.gamma", gamma_raw)
        try:
            return SvmParams(
                c=_parse_float("svm.c", self.raw["svm.c"]),
                kernel=self.raw["svm.kernel"],
                gamma=gamma,
                class_weights=_parse_weights("svm.class_weights", self.raw["svm.class_weights"]),
                tolerance=_parse_float("svm.tolerance", self.raw["svm.tolerance"]),
                max_iterations=_parse_int(
                    "svm.max_iterations", self.raw["svm.max_iterations"]
                ),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def render_default_config() -> str:
    """A commented config file with every key at its default."""
    lines = [
        "# rareclass pipeline configuration",
        "# every key mirrors one documented module parameter;",
        "# command-line --set overrides take precedence",
        "",
    ]
    section = ""
    for key in _DEFAULTS:
        head = key.split(".", 1)[0]
        if head != section:
            if section:
                lines.append("")
            section = head
        lines.append(f"{key} = {_DEFAULTS[key]}")
    return "\n".join(lines) + "\n"
