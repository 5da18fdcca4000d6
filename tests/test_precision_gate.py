"""The precision gate: token precision and recall of the built-in rules, per
category, on a hand-labelled gold set.

``data/precision_gold.jsonl`` holds positives of every category (``p*``), in
lead, inline, own-sentence and tail positions, with and without a
terminator, and negatives (``n*``) that place the benchmark generator's
decoys and near misses in content sentences. Each record's ``meta.form``
names its position. A gold span covers the whole of its clutter: a notice
or statement with its terminator, a heading with its ':' or '-', a keyword
list to its end, an inline registration with its parentheses.
"""

import pathlib
from collections import Counter

from declutter.corpus import load_corpus
from declutter.detectors import CATEGORY_REGISTRY, detect, to_rem_spans
from declutter.textspan import tokenize, tokens_under

GOLD = pathlib.Path(__file__).parent / "data" / "precision_gold.jsonl"

# (precision, recall) floors per category, their values when the gate
# landed or a floor last rose, rounded down to 3 decimals. A later change
# may raise a floor; no change may lower one. registered_at leaves the
# start of its sentence behind.
FLOORS = {
    "copyright": (1.0, 1.0),
    "order_info": (1.0, 1.0),
    "section_heading": (1.0, 1.0),
    "keywords_codes": (1.0, 1.0),
    "registration": (1.0, 0.809),
    "translation": (1.0, 1.0),
    "funding": (1.0, 1.0),
    "internal_ref": (1.0, 1.0),
    "citation": (1.0, 1.0),
}


def score(records):
    """Per category: predicted tokens, excess tokens (predicted, under no
    gold span), gold tokens and missing tokens (gold, under no predicted
    span), as four Counters."""
    predicted, excess, gold, missing = Counter(), Counter(), Counter(), Counter()
    for record in records:
        tokens = tokenize(record.text)
        spans = to_rem_spans(detect(record.text))
        under_gold = tokens_under(record.spans, tokens)
        under_predicted = tokens_under(spans, tokens)
        for category in CATEGORY_REGISTRY:
            p = tokens_under([s for s in spans if s.label == category], tokens)
            g = tokens_under([s for s in record.spans if s.label == category], tokens)
            predicted[category] += len(p)
            excess[category] += len(p - under_gold)
            gold[category] += len(g)
            missing[category] += len(g - under_predicted)
    return predicted, excess, gold, missing


def test_gold_set_covers_every_category_and_form():
    records = load_corpus(str(GOLD), "gold")
    # Records holding each category.
    positives = Counter(c for r in records for c in {s.label for s in r.spans})
    forms = {r.meta["form"] for r in records}
    assert set(positives) == set(CATEGORY_REGISTRY) and min(positives.values()) >= 2
    assert {"lead", "inline", "own sentence", "tail, terminated", "tail, no terminator"} <= forms
    assert sum(not r.spans for r in records) >= 6
    assert any(not r.text.isascii() for r in records)
    assert any(len(tokenize(r.text).starts) > 512 for r in records)


def test_each_category_meets_its_floors():
    predicted, excess, gold, missing = score(load_corpus(str(GOLD), "gold"))
    assert all(predicted[c] and gold[c] for c in CATEGORY_REGISTRY)
    got = {
        c: (1 - excess[c] / predicted[c], 1 - missing[c] / gold[c]) for c in CATEGORY_REGISTRY
    }
    for category, (precision, recall) in FLOORS.items():
        assert got[category][0] >= precision, (category, got[category])
        assert got[category][1] >= recall, (category, got[category])


def test_negatives_lose_no_token():
    for record in load_corpus(str(GOLD), "gold"):
        if not record.spans:
            assert to_rem_spans(detect(record.text)) == [], record.id
