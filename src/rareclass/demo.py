"""Bundled synthetic demonstration data.

The real annotated corpus this toolkit targets is access-restricted, so
the package ships a deterministic 500-tweet synthetic corpus at the same
5/5/90 class proportions, generated from short templates: first-person
child reports for the positive class, ambiguous name/pronoun reports for
the possible class, and news/fundraiser/awareness chatter for the
negative class.  A matching term lexicon (with misspelled variants), a
given-name list, and a small word-cluster file accompany it, so every
subcommand is demonstrable out of the box.

``python -m rareclass.demo --out-dir DIR`` materializes the files plus a
starter config; the same files are packaged under ``rareclass/data``.
"""

from __future__ import annotations

import argparse
from importlib import resources
from pathlib import Path

from .config import render_default_config
from .corpus import AnnotatedTweet, Corpus, Label, Tweet, char_span_to_bytes, save_corpus
from .rng import SplitMix64

DEMO_SEED = 20260801
DEMO_SIZE = 500
_CLASS_COUNTS = {Label.DEFECT: 25, Label.POSSIBLE_DEFECT: 25, Label.NON_DEFECT: 450}

_TERMS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("CHD", ()),
    ("club foot", ("clubfoot", "club-foot")),
    ("down syndrome", ("down sindrome", "downs syndrome")),
    ("gastroschisis", ("gastroskisis",)),
    ("hydrocephalus", ("hydrocephalis", "hydrocephaly")),
    ("microcephaly", ("microcephalie",)),
    ("trisomy 18", ("trisomy18",)),
    ("spina bifida", ("spinabifida",)),
    ("cleft palate", ("cleft-palate",)),
    ("anencephaly", ()),
    ("craniosynostosis", ()),
    ("dwarfism", ()),
)

_NAMES = (
    "Emma", "Olivia", "Ava", "Mia", "Sophia", "Isabella", "Charlotte", "Amelia",
    "Harper", "Evelyn", "Abigail", "Emily", "Ella", "Elizabeth", "Camila", "Luna",
    "Sofia", "Avery", "Mila", "Aria", "Scarlett", "Penelope", "Layla", "Chloe",
    "Victoria", "Madison", "Eleanor", "Grace", "Nora", "Riley", "Zoey", "Hannah",
    "Hazel", "Lily", "Ellie", "Violet", "Lillian", "Zoe", "Stella", "Aurora",
    "Noah", "Liam", "Oliver", "William", "Elijah", "James", "Benjamin", "Lucas",
    "Mason", "Ethan", "Alexander", "Henry", "Jacob", "Michael", "Daniel", "Logan",
    "Jackson", "Levi", "Sebastian", "Mateo", "Jack", "Owen", "Theodore", "Aiden",
    "Samuel", "Joseph", "John", "David", "Wyatt", "Matthew", "Luke", "Asher",
    "Carter", "Julian", "Grayson", "Leo", "Jayden", "Gabriel", "Isaac", "Lincoln",
)

_CLUSTERS = (
    ("11101000", "bby", 412),
    ("11101000", "babby", 96),
    ("11101000", "bub", 58),
    ("11101001", "gurl", 233),
    ("11101001", "grl", 81),
    ("11101010", "boi", 147),
    ("1101100", "diagnos", 190),
    ("1101100", "dx", 77),
    ("1101101", "surgeri", 265),
    ("1101101", "op", 64),
    ("010111", "pray", 301),
    ("010111", "prayer", 178),
    ("011010", "fundrais", 122),
    ("011010", "donat", 209),
)

_DEFECT_TEMPLATES = (
    "My daughter has {term}",
    "My son was born with {term}",
    "Our baby girl has {term} and she is perfect",
    "our newborn was diagnosed with {term} yesterday",
    "My {term} warrior turned {num} today 💙",
    "proud mom of a boy with {term} #blessed",
    "Our twins both have {term} and are doing great",
    "my sweet girl had her {term} surgery today 🙏",
    "My kid has {term} but nothing slows him down",
    "our little boy beat his {term} odds #grateful",
)

_POSSIBLE_TEMPLATES = (
    "{name} was diagnosed with {term}",
    "He has {term} and a big smile",
    "this little girl with {term} is soooo strong",
    "She might have {term} the doctors said",
    "{name} had {term} surgery and is recovering",
    "could be {term} they told us at the scan",
    "praying for {name} and her {term} journey 🙏",
    "he was born with {term} 😢",
    "the dr said it may be {term} we will know friday",
    "{name} is having {term} surgery tomorrow",
)

_NON_DEFECT_TEMPLATES = (
    "New study links {term} to genetic factors {url}",
    "Donate to help kids with {term} {url}",
    "{term} awareness week starts monday #awareness",
    "Walk for {term} research this saturday at the park",
    "TIL {term} affects about {num} in 1000 births",
    "charity 5k raised {num} dollars for {term} research!",
    "interesting lecture on {term} screening today",
    "the clinic offers free {term} screening {url}",
    "reading about {term} for my nursing class",
    "celebrity opens up about {term} diagnosis {url}",
    "fundraiser friday: support {term} families {url}",
    "science daily: {term} rates stable since 2010 {url}",
    "who else is studying {term} for finals",
    "new guidelines for {term} screening released {url}",
    "volunteers needed for {term} awareness booth",
    "@health_news thanks for covering {term} research",
    "grand rounds on {term} imaging were fascinating",
    "quiz me on {term} pathophysiology before the exam",
    "local hospital opens {term} clinic {url}",
    "documentary about {term} airs tonight at {num}",
)

_TEMPLATES = {
    Label.DEFECT: _DEFECT_TEMPLATES,
    Label.POSSIBLE_DEFECT: _POSSIBLE_TEMPLATES,
    Label.NON_DEFECT: _NON_DEFECT_TEMPLATES,
}


def _pick(rng: SplitMix64, items):
    return items[rng.below(len(items))]


def build_demo_corpus(seed: int = DEMO_SEED, size: int = DEMO_SIZE) -> Corpus:
    """Deterministic synthetic corpus (25/25/450 classes at the default size)."""
    rng = SplitMix64(seed)
    plan: list[Label] = []
    for label, count in _CLASS_COUNTS.items():
        plan.extend([label] * round(count * size / DEMO_SIZE))
    while len(plan) < size:
        plan.append(Label.NON_DEFECT)
    plan = plan[:size]
    rng.shuffle(plan)
    items: list[AnnotatedTweet] = []
    for i, label in enumerate(plan):
        template = _pick(rng, _TEMPLATES[label])
        canonical, variants = _pick(rng, _TERMS)
        surface = _pick(rng, (canonical, canonical, canonical, *variants))
        text = template.format(
            term=surface,
            name=_pick(rng, _NAMES),
            num=str(1 + rng.below(99)),
            url=f"http://news.example/{rng.below(9000) + 1000}",
        )
        span = None
        if rng.below(50) != 0:  # a few rows exercise the span-free path
            start = text.index(surface)
            span = char_span_to_bytes(text, (start, start + len(surface)))
        items.append(
            AnnotatedTweet(
                Tweet(f"t{i:04d}", f"u{rng.below(180):03d}", text), label, span
            )
        )
    return Corpus(tuple(items), provenance=f"synthetic demo corpus seed={seed}")


def demo_lexicon_text() -> str:
    lines = ["# demo term lexicon: canonical | variant | variant"]
    for canonical, variants in _TERMS:
        lines.append(" | ".join((canonical, *variants)) if variants else canonical)
    return "\n".join(lines) + "\n"


def demo_names_text() -> str:
    return "# demo given-name lexicon\n" + "\n".join(_NAMES) + "\n"


def demo_clusters_text() -> str:
    return "\n".join(f"{bits}\t{token}\t{count}" for bits, token, count in _CLUSTERS) + "\n"


def demo_config_text(out_dir: str) -> str:
    prefix = f"{out_dir.rstrip('/')}/" if out_dir else ""
    return render_default_config({
        "paths.corpus": f"{prefix}demo_corpus.tsv",
        "paths.lexicon": f"{prefix}demo_lexicon.txt",
        "paths.name_lexicon": f"{prefix}demo_names.txt",
        "paths.clusters": f"{prefix}demo_clusters.tsv",
    })


def write_demo_files(out_dir: str | Path) -> list[Path]:
    """Materialize corpus, lexicons, clusters, and a starter config file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_corpus(build_demo_corpus(), out_dir / "demo_corpus.tsv")
    (out_dir / "demo_lexicon.txt").write_text(demo_lexicon_text(), encoding="utf-8")
    (out_dir / "demo_names.txt").write_text(demo_names_text(), encoding="utf-8")
    (out_dir / "demo_clusters.tsv").write_text(demo_clusters_text(), encoding="utf-8")
    (out_dir / "demo.cfg").write_text(demo_config_text(str(out_dir)), encoding="utf-8")
    return sorted(out_dir.iterdir())


def packaged_data_path(filename: str) -> Path:
    """Path of one of the bundled demo files inside the installed package."""
    return Path(resources.files("rareclass").joinpath("data", filename))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m rareclass.demo",
        description="write the bundled demo corpus, lexicons, and starter config",
    )
    parser.add_argument("--out-dir", default="demo", help="target directory")
    args = parser.parse_args(argv)
    for path in write_demo_files(args.out_dir):
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
