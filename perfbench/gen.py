"""Seeded input generators for the declutter benchmark.

Every generator takes the seed as an argument and draws only from a
``random.Random`` seeded with a string, so the same seed gives the same bytes
on any interpreter run (string seeds do not depend on hash randomization).
The program under test sees only the files written from these data.

Texts follow the style of acceptance criterion 9: words drawn from a small
scientific vocabulary, sentences ending in a period. Planted clutter covers
all nine detector categories; the gold spans mark the planted offsets, so the
gold file states what *should* go, not what the rules happen to remove.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

VOCAB = (
    "the of films growth model data we study results analysis method using "
    "effect high low increase measured observed rate structure protein cell "
    "energy field quantum surface temperature phase sample treatment clinical "
    "patients response signal network learning algorithm system carbon acid "
    "across between under within strongly weakly significant thermal optical "
    "dynamics transport layer interface coupling density spectra regime"
).split()

# Content that looks like clutter but is not: the rules must leave it alone.
DECOYS = (
    "results show",
    "in 2019",
    "methods differ",
    "(n = 12)",
    "see below",
    "copyright law",
    "funding rates",
)

# Content carrying the prescreen literal of every rule (bar the copyright
# sign, which long texts carry as clutter) without matching any rule, so on
# long texts every rule passes the prescreen and runs its regex.
NEAR_MISSES = (
    "arXiv preprints", "doi 10.5", "Vol 3 data", "(c) panel", "Copyright law",
    "ALL RIGHTS RESERVED", "licensee of", "Funding rates", "supported films",
    "supported by theory", "grant size", "JEL framework", "Keywords matter",
    "Index terms of", "PACS data", "MSC data", "PAYMENT MUST ACCOMPANY ORDER",
    "available data", "Single copies of films", "NCT pending", "registration of",
    "ISRCTN pending", "CRD42 pending", "EudraCT pending", "registered users",
    "Abstract", "summary", "Results show", "it is a translation of",
    "Translated into", "ORIGINALLY PUBLISHED IN",
)

FIELDS = ("Physics", "Medicine", "Materials Sci.", "Economics", "Biology", "Chemistry")
SOURCES = ("crawl-2024", "pubmed", "arxiv", "publisher-feed")
PUBLISHERS = (
    "Elsevier B.V.",
    "Springer Nature",
    "Wiley Periodicals LLC",
    "The Authors",
    "MDPI",
    "Taylor & Francis",
)
AGENCIES = (
    "the National Science Foundation",
    "the European Research Council",
    "the Wellcome Trust",
    "the National Natural Science Foundation of China",
)
LANGUAGES = ("German", "Russian", "Spanish", "Japanese")
JOURNALS = ("Phys. Rev. Lett.", "J. Appl. Phys.", "Clin. Chem.", "Econ. Lett.")
HEADINGS = ("Background", "Objective", "Methods", "Results", "Conclusions", "Purpose")
CAPS_HEADINGS = ("BACKGROUND", "METHODS", "RESULTS", "CONCLUSIONS", "PURPOSE")


def _year(rng: random.Random) -> int:
    return rng.randint(1995, 2024)


def _digits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("0123456789") for _ in range(n))


def _word(rng: random.Random) -> str:
    return rng.choice(VOCAB)


# Each category maps to (placement, templates). Placement says where the
# clutter sits: "lead" before the first sentence, "inline" inside a sentence,
# "sentence" as a sentence of its own, "tail" after the last sentence. Some
# templates are deliberately beyond the rules (a missed or partly matched
# statement), so recall and precision measure a cleaner, not a tautology.
CLUTTER = {
    "copyright": (
        "sentence",
        (
            lambda r: f"© {_year(r)} {r.choice(PUBLISHERS)} All rights reserved.",
            lambda r: f"Copyright {_year(r)} {r.choice(PUBLISHERS)}",
            lambda r: f"(c) {_year(r)} {r.choice(PUBLISHERS)}",
            lambda r: f"Published by {r.choice(PUBLISHERS)}",
        ),
    ),
    "order_info": (
        "sentence",
        (
            lambda r: "Payment must accompany order.",
            lambda r: "Reprints available from the corresponding author.",
            lambda r: "Single copies of this article are available on request.",
        ),
    ),
    "section_heading": (
        "lead",
        (
            lambda r: f"{r.choice(HEADINGS)}:",
            lambda r: f"{r.choice(CAPS_HEADINGS)}:",
            lambda r: "ABSTRACT.",
        ),
    ),
    "keywords_codes": (
        "tail",
        (
            lambda r: "Keywords: " + ", ".join(_word(r) for _ in range(r.randint(2, 5))) + ".",
            lambda r: "Keywords: " + "; ".join(_word(r) for _ in range(r.randint(2, 4))) + ".",
            lambda r: f"JEL Codes: {r.choice('CDEO')}{_digits(r, 2)}, {r.choice('CDEO')}{_digits(r, 2)}.",
            lambda r: f"MSC: {_digits(r, 2)}K{_digits(r, 2)}",
        ),
    ),
    "registration": (
        "sentence",
        (
            lambda r: f"ClinicalTrials.gov: NCT{_digits(r, 8)}",
            lambda r: f"Trial registration: ISRCTN{_digits(r, 8)}.",
            lambda r: f"PROSPERO registration: CRD42{_digits(r, 6)}",
            lambda r: f"Registered at ClinicalTrials.gov on {_year(r)}.",
        ),
    ),
    "translation": (
        "sentence",
        (
            lambda r: f"This article is a translation of the original {r.choice(LANGUAGES)} version.",
            lambda r: f"Originally published in {r.choice(LANGUAGES)} in {_year(r)}.",
            lambda r: f"Translated from the {r.choice(LANGUAGES)} by the authors.",
        ),
    ),
    "funding": (
        "sentence",
        (
            lambda r: f"Funding: This work was supported by {r.choice(AGENCIES)}.",
            lambda r: f"This research was funded by {r.choice(AGENCIES)}.",
            lambda r: f"Supported by grants from {r.choice(AGENCIES)}.",
            lambda r: f"We thank {r.choice(AGENCIES)} for support.",
        ),
    ),
    "internal_ref": (
        "inline",
        (
            lambda r: f"(Fig. {r.randint(1, 9)})",
            lambda r: f"(Table {r.randint(1, 5)})",
            lambda r: f"(see Figure {r.randint(1, 9)}{r.choice('abc')})",
            lambda r: f"(Figs. {r.randint(1, 4)}–{r.randint(5, 9)})",
        ),
    ),
    "citation": (
        "inline",
        (
            lambda r: f"[{r.randint(1, 60)}]",
            lambda r: f"[{r.randint(1, 20)}-{r.randint(21, 40)}]",
            lambda r: f"[{r.randint(1, 9)}, {r.randint(10, 19)}, {r.randint(20, 40)}]",
            lambda r: f"arXiv:{_digits(r, 4)}.{_digits(r, 5)}",
            lambda r: f"{r.choice(JOURNALS)} {r.randint(1, 120)}({r.randint(1, 12)}): "
            f"{r.randint(100, 400)}-{r.randint(401, 900)}",
        ),
    ),
}
CATEGORIES = tuple(CLUTTER)


def _sentence(rng: random.Random, n_words: int, decoy_rate: float) -> str:
    words = [_word(rng) for _ in range(n_words)]
    if rng.random() < decoy_rate:
        words.insert(rng.randrange(1, len(words)), rng.choice(DECOYS))
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


@dataclass
class Document:
    """A text assembled from content and clutter pieces, with gold spans."""

    pieces: list = field(default_factory=list)  # (text, category or None)

    def render(self) -> tuple[str, list[dict]]:
        parts, spans, pos = [], [], 0
        for text, category in self.pieces:
            if category is not None:
                spans.append({"start": pos, "end": pos + len(text), "label": category})
            parts.append(text)
            pos += len(text)
        return "".join(parts), spans


def _assemble(
    rng: random.Random,
    sentences: list[str],
    clutter: list[tuple[str, str | None, str]],
) -> Document:
    """Place each (placement, category, text) item into the sentence list;
    an item whose category is None is content, not clutter."""
    lead: list[tuple[str, str]] = []
    tail: list[tuple[str, str]] = []
    # own[i]: clutter sentences placed before sentence i (i == len: at the end)
    own: dict[int, list[tuple[str, str]]] = {}
    # inline[i]: (word index, category, text) insertions inside sentence i
    inline: dict[int, list[tuple[int, str, str]]] = {}
    for placement, category, text in clutter:
        if placement == "lead":
            lead.append((category, text))
        elif placement == "tail":
            tail.append((category, text))
        elif placement == "sentence":
            own.setdefault(rng.randint(1, len(sentences)), []).append((category, text))
        else:
            i = rng.randrange(len(sentences))
            n_words = sentences[i].count(" ") + 1
            inline.setdefault(i, []).append((rng.randint(1, n_words - 1), category, text))

    doc = Document()

    def add(text: str, category: str | None = None) -> None:
        if doc.pieces:
            doc.pieces.append((" ", None))
        doc.pieces.append((text, category))

    for category, text in lead[:1]:  # a text opens with one heading at most
        add(text, category)
    for i, sentence in enumerate(sentences):
        for category, text in own.get(i, ()):
            add(text, category)
        inserts = sorted(inline.get(i, ()), key=lambda item: item[0])
        if not inserts:
            add(sentence)
            continue
        words = sentence[:-1].split(" ")
        cut = 0
        for at, category, text in inserts:
            if at > cut:
                add(" ".join(words[cut:at]))
                cut = at
            add(text, category)
        add(" ".join(words[cut:]) + ".")
    for category, text in own.get(len(sentences), ()):
        add(text, category)
    for category, text in tail:
        add(text, category)
    return doc


def _meta(rng: random.Random) -> dict:
    return {
        "year": _year(rng),
        "fields": sorted(rng.sample(FIELDS, rng.randint(1, 2))),
        "source": rng.choice(SOURCES),
    }


class Dealer:
    """Deals items from shuffled decks, one deck per item tuple. Every item
    of a deck comes out equally often, so a workload's mix of clutter is the
    same for every seed and only wording and placement vary with it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._hands: dict[tuple, list] = {}

    def __call__(self, items: tuple):
        hand = self._hands.get(items)
        if not hand:
            hand = self._hands[items] = list(items)
            self.rng.shuffle(hand)
        return hand.pop()


CLUTTER_SHARE = 0.25
ITEMS_PER_RECORD = (1, 2, 3)


def abstract(rng: random.Random, deal: Dealer, cluttered: bool) -> tuple[str, list[dict]]:
    """One ~1.4k-character abstract, carrying one to three planted clutter
    items when ``cluttered``."""
    sentences = []
    total = 0
    target = rng.randint(1100, 1700)
    while total < target:
        s = _sentence(rng, rng.randint(8, 30), decoy_rate=0.15)
        sentences.append(s)
        total += len(s) + 1
    clutter = []
    if cluttered:
        for _ in range(deal(ITEMS_PER_RECORD)):
            category = deal(CATEGORIES)
            placement, templates = CLUTTER[category]
            clutter.append((placement, category, deal(templates)(rng)))
    return _assemble(rng, sentences, clutter).render()


DENSE = (
    ("copyright", lambda r: f"© {_year(r)} {r.choice(PUBLISHERS)}"),
    ("citation", lambda r: f"[{r.randint(1, 99)}]"),
    ("section_heading", lambda r: f"{r.choice(CAPS_HEADINGS)}:"),
    ("internal_ref", lambda r: f"(Fig. {r.randint(1, 9)})"),
)


def long_dense(rng: random.Random, deal: Dealer, chars: int) -> tuple[str, list[dict]]:
    """A long text of few, long sentences with dense clutter (copyright
    signs, bracket refs, caps headings and figure pointers) and every near
    miss inline."""
    sentences = []
    total = 0
    while total < chars:
        s = _sentence(rng, rng.randint(150, 600), decoy_rate=0.5)
        sentences.append(s)
        total += len(s) + 1
    clutter = [("inline", None, phrase) for phrase in NEAR_MISSES]
    for _ in range(chars // 500):
        category, make = deal(DENSE)
        clutter.append(("inline", category, make(rng)))
    return _assemble(rng, sentences, clutter).render()


def copyright_run(rng: random.Random, chars: int, signs: int) -> tuple[str, list[dict]]:
    """Worst case for sentence widening: many copyright notices and no
    sentence terminator anywhere, so every match widens to the whole text.
    Exactly ``signs`` notices are placed; the text is at least ``chars`` long."""
    doc = Document()
    at = set(rng.sample(range(1, chars // 8), signs))
    last = max(at, default=0)
    total, i = -1, 0  # length so far; the first piece has no separator
    while total < chars or i <= last:
        if doc.pieces:
            doc.pieces.append((" ", None))
        if i in at:
            piece = (f"© {_year(rng)}", "copyright")
        else:
            piece = (_word(rng), None)
        doc.pieces.append(piece)
        total += len(piece[0]) + 1
        i += 1
    return doc.render()


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload's inputs."""

    records: int
    queries: int
    refs: int
    vector_dim: int
    shards: int
    long_records: int = 0
    long_min_chars: int = 5_000
    long_max_chars: int = 50_000
    worst_records: int = 0  # many-copyright, no-terminator records
    worst_scale: float = 1.0  # size of the traced worst-case calls


SHAPES = {
    "abstracts-10k": Shape(records=10_000, queries=10, refs=50, vector_dim=64, shards=20),
    "long-dense": Shape(records=0, queries=8, refs=10, vector_dim=64, shards=8,
                        long_records=200, worst_records=4),
}

def generate(workload: str, seed: int, shape: Shape) -> tuple[list[dict], list, list[dict]]:
    """Records, queries and vector lines of one workload, as plain data."""
    rng = random.Random(f"{workload}:{seed}")
    deal = Dealer(rng)
    cluttered = set(rng.sample(range(shape.records), round(shape.records * CLUTTER_SHARE)))
    records = []
    for i in range(shape.records):
        text, spans = abstract(rng, deal, i in cluttered)
        records.append({"id": f"a{i:05d}", "text": text, "spans": spans, "meta": _meta(rng)})
    # Long texts take lengths from one geometric grid, so the work (which
    # grows with the square of the length) does not depend on the seed.
    n = shape.long_records
    ratio = shape.long_max_chars / shape.long_min_chars
    lengths = [round(shape.long_min_chars * ratio ** (i / max(n - 1, 1))) for i in range(n)]
    rng.shuffle(lengths)
    for i, chars in enumerate(lengths):
        text, spans = long_dense(rng, deal, chars)
        records.append({"id": f"L{i:04d}", "text": text, "spans": spans, "meta": _meta(rng)})
    for i in range(shape.worst_records):
        chars = shape.long_min_chars * 2
        text, spans = copyright_run(rng, chars, signs=chars // 250)
        records.append({"id": f"W{i:02d}", "text": text, "spans": spans, "meta": _meta(rng)})
    # Queries pick records by rank of length, at ranks that are the same for
    # every seed, so the ranking work (which grows with the texts' length)
    # does not depend on the seed; which record holds a rank does.
    by_length = sorted(range(len(records)), key=lambda i: len(records[i]["text"]))
    ranks = random.Random(f"{workload}:query-ranks")
    queries = []
    for _ in range(shape.queries):
        picked = [records[by_length[r]]["id"] for r in ranks.sample(range(len(records)), shape.refs + 1)]
        queries.append((picked[0], picked[1:]))
    vectors = []
    seen: set[str] = set()
    for focal, refs in queries:
        for rid in (focal, *refs):
            if rid in seen:
                continue
            seen.add(rid)
            for suffix in ("", "::cleaned"):
                values = [round(rng.gauss(0.0, 1.0), 6) for _ in range(shape.vector_dim)]
                vectors.append({"id": rid + suffix, "values": values})
    return records, queries, vectors


def write_jsonl(path: str, objs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")
