"""Flat key-value pipeline configuration.

The config file holds ``section.key = value`` lines; ``#`` starts a
comment and blank lines are ignored.  Every key mirrors one documented
module parameter, and command-line ``--set section.key=value`` overrides
take precedence over the file.  `_KEYS` declares each key once, with its
default and its parser, which holds the key's allowed choices or range.
Loading parses every key, so an unknown key or a bad value fails before
any work runs, even for a key the subcommand never reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from .corpus import Label
from .errors import ConfigError, read_lines

if TYPE_CHECKING:
    from .features import FeatureSettings
    from .svm import SvmParams

# the SVM kernels; defined here so that reading a config needs no numpy
KERNEL_RBF = "rbf"
KERNEL_LINEAR = "linear"
KERNELS = (KERNEL_RBF, KERNEL_LINEAR)

# the samplers that rebalance a corpus before featurization; smote works on vectors
TEXT_SAMPLER_METHODS = ("similar", "near_fn", "random", "replacement")
SAMPLER_METHODS = ("none", *TEXT_SAMPLER_METHODS, "smote")
CLASSIFIER_KINDS = ("svm", "nb")
NORMALIZE_PIPELINES = ("classic", "embedding")
NB_EVENT_MODELS = ("multinomial", "gaussian")


def _key_value(text: str, where: str) -> tuple[str, str]:
    """`text` split at its first ``=``, both sides stripped."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'section.key = value', got {text!r}")
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def _regular_file(path: Path, what: str) -> Path:
    """`path`, which must name an existing regular file; `what` leads the error."""
    if not path.is_file():
        if path.exists():  # a directory, say
            raise ConfigError(f"{what}: {path} exists and is not a regular file")
        raise ConfigError(f"{what}: no such file {path}")
    return path


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read raw key/value pairs; later lines override earlier ones."""
    path = _regular_file(Path(path), "config file")
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, ConfigError):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, value = _key_value(stripped, f"{path} line {lineno}")
            values[key] = value
    return values


# Parsers: each turns a raw string into the key's value, or raises
# ValueError with a message that `from_sources` prefixes with the key;
# `str` is the parser of the path keys.


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {raw!r}")
        return raw

    return parse


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _integer(minimum: int | None = None) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _number(high: float, high_included: bool = False) -> Callable[[str], float]:
    """A float in (0, high), or in (0, high] if `high_included`; NaN is in neither."""
    interval = f"(0, {high:g}{']' if high_included else ')'}"

    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got {raw!r}") from None
        if not (0.0 < value < high or (high_included and value == high)):
            raise ValueError(f"must be in {interval}, got {raw!r}")
        return value

    return parse


_fraction = _number(1.0)
_positive = _number(math.inf)


def _gamma(raw: str) -> float | None:
    return None if raw == "auto" else _positive(raw)  # None means 1/dim


def _weights(raw: str) -> dict[Label, float] | None:
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
            raise ValueError(f"unknown class {name.strip()!r}") from None
        if label in weights:
            raise ValueError(f"class {label.value!r} given twice")
        weights[label] = _positive(value.strip())
    if not weights:
        raise ValueError("no weights given")
    return weights


# Every key: its default, as the config file spells it, and its parser.
# The keys of the `features` and `svm` sections are the fields of the
# objects built from them: `FeatureSettings` and `SvmParams`.
_KEYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "paths.corpus": ("", str),
    "paths.lexicon": ("", str),
    "paths.name_lexicon": ("", str),
    "paths.clusters": ("", str),
    "paths.model": ("model.json", str),
    "split.test_fraction": ("0.2", _fraction),
    "split.validation_fraction": ("0.2", _fraction),
    "split.seed": ("13", _integer()),
    "normalize.pipeline": ("classic", _one_of(NORMALIZE_PIPELINES)),
    "features.n_min": ("1", _integer(1)),
    "features.n_max": ("3", _integer(1)),
    "features.min_df": ("2", _integer(1)),
    "features.binary": ("true", _bool),
    "features.use_clusters": ("true", _bool),
    "features.use_structural": ("true", _bool),
    "sampler.method": ("none", _one_of(SAMPLER_METHODS)),
    "sampler.k": ("0.85", _number(1.0, high_included=True)),
    "sampler.seed": ("7", _integer()),
    "sampler.target_total": ("0", _integer(0)),
    "sampler.k_neighbors": ("5", _integer(1)),
    "sampler.fn_corpus": ("", str),
    "classifier.kind": ("svm", _one_of(CLASSIFIER_KINDS)),
    "svm.c": ("100.0", _positive),
    "svm.kernel": (KERNEL_RBF, _one_of(KERNELS)),
    "svm.gamma": ("auto", _gamma),
    "svm.class_weights": ("auto", _weights),
    "svm.tolerance": ("1e-3", _positive),
    "svm.max_iterations": ("10000000", _integer(1)),
    "nb.event_model": ("multinomial", _one_of(NB_EVENT_MODELS)),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every key's parsed value, read as ``cfg["sampler.k"]``.

    `from_sources` builds it from the defaults, a config file and
    overrides, and has parsed and range-checked every key when it returns.
    """

    values: dict[str, Any]

    @classmethod
    def from_sources(
        cls, config_path: str | Path | None, overrides: list[str] | None = None
    ) -> "PipelineConfig":
        raw = {key: default for key, (default, _) in _KEYS.items()}
        given = list(parse_config_file(config_path).items()) if config_path is not None else []
        given += [_key_value(item, "override") for item in overrides or []]
        for key, value in given:
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            raw[key] = value
        values = {}
        for key, (_, parse) in _KEYS.items():
            try:
                values[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        if values["features.n_min"] > values["features.n_max"]:
            raise ConfigError("features.n_min must not exceed features.n_max")
        return cls(values)

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def section(self, name: str) -> dict[str, Any]:
        """The keys ``name.<field>`` as ``{field: value}``."""
        prefix = f"{name}."
        return {
            key[len(prefix):]: value
            for key, value in self.values.items()
            if key.startswith(prefix)
        }

    def path(self, key: str, required: bool = False) -> Path | None:
        """The regular file a path key names, which must exist; None if unset."""
        raw = self.values[key]
        if not raw:
            if required:
                raise ConfigError(f"{key} must be set for this subcommand")
            return None
        return _regular_file(Path(raw), key)

    def feature_settings(self) -> FeatureSettings:
        from .features import FeatureSettings

        return FeatureSettings(**self.section("features"))

    def svm_params(self) -> SvmParams:
        from .svm import SvmParams

        return SvmParams(**self.section("svm"))


def render_default_config(values: dict[str, str] | None = None) -> str:
    """A commented config file with every key at its default, or at the
    value `values` gives it, spelled as the file spells it."""
    values = values or {}
    lines = [
        "# rareclass pipeline configuration",
        "# every key mirrors one documented module parameter;",
        "# command-line --set overrides take precedence",
        "",
    ]
    section = ""
    for key, (default, _) in _KEYS.items():
        head = key.split(".", 1)[0]
        if head != section:
            if section:
                lines.append("")
            section = head
        lines.append(f"{key} = {values.get(key, default)}")
    return "\n".join(lines) + "\n"
