"""The per-pair similarity scan: the test oracle for `sampling._PairScan`.

`PairScan` tries a text against every pattern in the order the patterns
were added.  It skips a pair on its length difference alone, runs the
bit-parallel kernel with the cutoff distance on every other pair, and
stops at the first near pattern.  It keeps no character or bigram
counts.  `similar_kept` and
`near_fn_kept` run the two samplers' greedy rules on plain texts with it
and return the kept indices.
"""

from __future__ import annotations

from typing import Sequence

from rareclass.sampling import _char_masks, _cutoff_distance, _distance


class PairScan:
    """Greedy LR > k tests of texts against growing lists of patterns."""

    def __init__(self, k: float):
        self.k = float(k)
        if not 0.0 < self.k <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.patterns: list[tuple[int, dict[str, int]]] = []
        self.cutoffs: dict[int, int] = {}  # by length sum
        self.skipped = self.stopped = self.computed = 0

    def add(self, pattern: str) -> None:
        self.patterns.append((len(pattern), _char_masks(pattern)))

    def near_any(self, text: str) -> bool:
        """Whether LR(text, p) > k for some pattern p, tried in order."""
        n, cutoffs = len(text), self.cutoffs
        for m, masks in self.patterns:
            give_up_at = cutoffs.get(n + m)
            if give_up_at is None:
                give_up_at = cutoffs[n + m] = _cutoff_distance(n + m, self.k)
            if abs(n - m) >= give_up_at:  # the distance is at least |n - m|
                self.skipped += 1
                continue
            distance = _distance(masks, m, text, give_up_at)
            if distance is None:
                self.stopped += 1
                continue
            self.computed += 1
            if distance < give_up_at:
                return True
        return False


def similar_kept(texts: Sequence[str], k: float) -> list[int]:
    """Indices of the texts the greedy first-keeper rule keeps."""
    scan, kept = PairScan(k), []
    for i, text in enumerate(texts):
        if not scan.near_any(text):
            kept.append(i)
            scan.add(text)
    return kept


def near_fn_kept(texts: Sequence[str], fn_texts: Sequence[str], k: float) -> list[int]:
    """Indices of the texts near none of `fn_texts`."""
    scan = PairScan(k)
    for fn_text in fn_texts:
        scan.add(fn_text)
    return [i for i, text in enumerate(texts) if not scan.near_any(text)]
