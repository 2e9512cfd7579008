"""Exception types shared across the toolkit, and the text-file reader
that raises them."""

from __future__ import annotations

from pathlib import Path


class RareclassError(Exception):
    """Base class for all toolkit errors."""


class DataError(RareclassError):
    """A file or record violates one of the documented data formats."""


class ConfigError(RareclassError):
    """A configuration file, key, or override value is invalid."""


def read_utf8(path: Path, error: type[RareclassError] = DataError) -> str:
    """The text of `path`, read as `Path.read_text` reads it; bytes that
    are not UTF-8 raise `error` naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc})") from None
