"""Seeded input generator for the benchmark workloads.

The bundled demo corpus is built from about twenty templates per class,
so on its own it repeats texts, keeps a near-constant vocabulary, and is
separated perfectly by either classifier.  This generator starts from
``build_demo_corpus(seed, size)`` and makes the corpus behave more like
real tweets:

* every tweet gets Zipf-weighted filler words from a seeded pseudo-word
  list, some before and some after the template text, so texts are
  distinct and the vocabulary keeps growing with the corpus size;
* a fixed share of ``defect`` and ``possible_defect`` tweets is relabelled
  as the other minority class, so rare-class F1 stays below 1;
* each planted match span is moved by the length of the filler prefix, so
  it still covers the lexicon term.

Pseudo-words alternate consonants and vowels, so they can never spell a
lexicon term (every term has two adjacent consonants or a digit) and are
never capitalized, so the name normalizer leaves them alone.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

from rareclass.corpus import AnnotatedTweet, Corpus, Label, Tweet, save_corpus
from rareclass.demo import (
    build_demo_corpus,
    demo_clusters_text,
    demo_lexicon_text,
    demo_names_text,
)

PSEUDO_WORDS = 6000
ZIPF_EXPONENT = 0.7
FILLER_MIN = 1
FILLER_MAX = 4
RELABEL_SHARE = 0.05
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Planted:
    """What the generator put into one tweet, kept apart from the program."""

    tweet_id: str
    surface: str
    span: tuple[int, int]


@dataclass(frozen=True)
class Generated:
    corpus: Corpus
    planted: tuple[Planted, ...]


def pseudo_words(rng: random.Random, count: int) -> list[str]:
    """`count` distinct lowercase consonant-vowel words of 2 to 4 syllables."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(
            rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(2, 4))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def generate(seed: int, size: int) -> Generated:
    """Corpus of `size` tweets derived from the demo corpus for `seed`."""
    base = build_demo_corpus(seed=seed, size=size)
    rng = random.Random(seed)
    words = pseudo_words(rng, PSEUDO_WORDS)
    cum_weights: list[float] = []
    total = 0.0
    for rank in range(1, len(words) + 1):
        total += 1.0 / rank**ZIPF_EXPONENT
        cum_weights.append(total)

    minority = [
        i for i, item in enumerate(base) if item.label != Label.NON_DEFECT
    ]
    relabelled = set(rng.sample(minority, round(RELABEL_SHARE * len(minority))))
    swap = {Label.DEFECT: Label.POSSIBLE_DEFECT, Label.POSSIBLE_DEFECT: Label.DEFECT}

    items: list[AnnotatedTweet] = []
    planted: list[Planted] = []
    for i, item in enumerate(base):
        fillers = rng.choices(
            words, cum_weights=cum_weights, k=rng.randint(FILLER_MIN, FILLER_MAX)
        )
        cut = rng.randint(0, len(fillers))
        prefix = "".join(w + " " for w in fillers[:cut])
        suffix = "".join(" " + w for w in fillers[cut:])
        text = prefix + item.tweet.text + suffix
        shift = len(prefix.encode("utf-8"))
        label = swap[item.label] if i in relabelled else item.label
        # the demo corpus leaves a few spans empty; the generator still
        # knows where it planted the term
        surface_span = _planted_span(item)
        span = (surface_span[0] + shift, surface_span[1] + shift)
        tweet = Tweet(item.tweet.id, item.tweet.user_id, text)
        items.append(AnnotatedTweet(tweet, label, span if item.match_span else None))
        surface = text.encode("utf-8")[span[0] : span[1]].decode("utf-8")
        planted.append(Planted(tweet.id, surface, span))
    corpus = Corpus(tuple(items), provenance=f"perfbench seed={seed} size={size}")
    return Generated(corpus, tuple(planted))


def _planted_span(item: AnnotatedTweet) -> tuple[int, int]:
    if item.match_span is not None:
        return item.match_span
    return _find_term(item.tweet.text)


def _surfaces() -> list[str]:
    """Every canonical term and variant of the demo lexicon."""
    out: list[str] = []
    for line in demo_lexicon_text().splitlines():
        if line and not line.startswith("#"):
            out.extend(field.strip() for field in line.split("|"))
    return out


def _find_term(text: str) -> tuple[int, int]:
    """Byte span of the leftmost, longest lexicon surface form in a demo text."""
    found = [
        (at, -len(surface))
        for surface in _surfaces()
        if (at := text.find(surface)) >= 0
    ]
    if not found:
        raise ValueError(f"no planted term in {text!r}")
    start, neg_len = min(found)
    return (
        len(text[:start].encode("utf-8")),
        len(text[: start - neg_len].encode("utf-8")),
    )


def write_inputs(generated: Generated, out_dir: Path) -> dict[str, Path]:
    """Write the corpus and the demo lexicon, names, and clusters files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "corpus": out_dir / "corpus.tsv",
        "lexicon": out_dir / "lexicon.txt",
        "names": out_dir / "names.txt",
        "clusters": out_dir / "clusters.tsv",
    }
    save_corpus(generated.corpus, paths["corpus"])
    paths["lexicon"].write_text(demo_lexicon_text(), encoding="utf-8")
    paths["names"].write_text(demo_names_text(), encoding="utf-8")
    paths["clusters"].write_text(demo_clusters_text(), encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(generate(args.seed, args.size), args.out_dir)


if __name__ == "__main__":
    main()
