"""Exception types shared across the toolkit, and the one line reader of
every text input, which raises them."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


class RareclassError(Exception):
    """Base class for all toolkit errors."""


class DataError(RareclassError):
    """A file or record violates one of the documented data formats."""


class ConfigError(RareclassError):
    """A configuration file, key, or override value is invalid."""


def read_lines(path: Path, error: type[RareclassError] = DataError) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of `path`, decoded one at a time.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as `Path.read_text`
    reads them; the other breaks of `str.splitlines` stay inside a line,
    since a field may hold them.  A line that is not UTF-8 raises `error`
    naming the path and the line's number.
    """
    lineno = 0
    with path.open("rb") as f:
        for raw in f:  # ends at b"\n" only
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = lineno + 1 + raw.count(b"\r", 0, exc.start)
                raise error(f"{path}: not valid UTF-8 at line {bad} ({exc})") from None
            if "\r" not in line:
                lineno += 1
                yield lineno, line.removesuffix("\n")
                continue
            line = line.replace("\r\n", "\n").replace("\r", "\n")
            for part in line.removesuffix("\n").split("\n"):
                lineno += 1
                yield lineno, part
