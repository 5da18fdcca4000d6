"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with ``pytest tests/test_acceptance.py -v -s``). Every expected
value is either hand-computed, produced by an independent oracle coded here,
or plain arithmetic on a constructed fixture."""

import hashlib
import json
import math
import random
import time
import unicodedata

from declutter.cli import main
from declutter.corpus import LabeledAbstract, load_corpus, save_corpus
from declutter.detectors import detect, to_rem_spans
from declutter.embedding import BuiltinProvider, rank_references
from declutter.evaluation import aggregate, score_abstract, token_prf
from declutter.textspan import Span, clean_text, filter_spans

from conftest import CLUTTER_CASES, DATA_DIR, union_oracle


def _passed(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number} PASS: {message}")


# ---------------------------------------------------------------------------
# criterion 1: span-filter oracle equivalence + idempotence, 1000 cases, <5s
# ---------------------------------------------------------------------------


def test_criterion_1_span_filter_oracle():
    rng = random.Random(0xC1)
    started = time.perf_counter()
    for _ in range(1000):
        candidates = []
        for _ in range(rng.randint(0, 6)):
            start = rng.randint(0, 39)
            end = rng.randint(start + 1, 40)
            candidates.append(Span(start, end))
        got = filter_spans(candidates)
        assert got == union_oracle(candidates)
        assert filter_spans(got) == got
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(1, f"1000 randomized filter_spans cases match the oracle in {elapsed:.2f}s")


def test_criterion_1_span_filter_on_200k_spans():
    """200k shuffled disjoint spans of widths 1-9 in under 3 s. One sort
    and one sweep is O(n log n); a sorted insert per kept span, as
    filter_spans once did, is quadratic here."""
    rng = random.Random(0xC1)
    candidates = [Span(10 * i, 10 * i + rng.randint(1, 9)) for i in range(200_000)]
    rng.shuffle(candidates)
    started = time.perf_counter()
    got = filter_spans(candidates)
    elapsed = time.perf_counter() - started
    assert got == sorted(candidates, key=lambda s: s.start)
    assert elapsed < 3.0
    _passed(1, f"200k disjoint spans filtered in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: cleaning identities over 200 generated cases incl. non-ASCII
# ---------------------------------------------------------------------------


def test_criterion_2_cleaning_identities():
    rng = random.Random(0xC2)
    pool = "ab cd μσπ 量子 🦊é ß\t\n  ,.;"
    for _ in range(100):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 60)))
        assert clean_text(text, []) == text.strip()
    checked = 0
    while checked < 100:
        text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 60)))
        if not text.strip():
            continue
        # cover everything: removal empties the text, fallback must return
        # the original unmodified
        assert clean_text(text, [Span(0, len(text))]) == text
        checked += 1
    _passed(2, "trim identity and empty-result fallback hold on 200 generated cases")


# ---------------------------------------------------------------------------
# criterion 3: golden clutter fixtures fully removed by cmd_clean
# ---------------------------------------------------------------------------


def test_criterion_3_golden_fixtures(tmp_path):
    in_path = DATA_DIR / "golden_clutter.jsonl"
    out_path = tmp_path / "cleaned.jsonl"
    rc = main(["clean", "--input", str(in_path), "--output", str(out_path)])
    assert rc == 0
    texts = {r.id: r.text for r in load_corpus(str(in_path), schema="predictions")}
    cleaned = {r.id: r for r in load_corpus(str(out_path), schema="predictions")}
    for rec_id, clutter, _category, carrier in CLUTTER_CASES:
        assert clutter not in cleaned[rec_id].text, rec_id
        assert carrier in cleaned[rec_id].text, rec_id
        # The output spans index the input text: they cover the clutter,
        # all of it and nothing else but whitespace.
        removed = "".join(texts[rec_id][s.start : s.end] for s in cleaned[rec_id].spans)
        assert removed.strip() == clutter, rec_id
    _passed(3, f"all {len(CLUTTER_CASES)} canonical clutter examples removed exactly")


# ---------------------------------------------------------------------------
# criterion 4: metric oracle equivalence on 50 random micro-corpora
# ---------------------------------------------------------------------------


def _is_punct(ch):
    return unicodedata.category(ch).startswith("P")


def _oracle_token_positions(text):
    tokens, i, n = [], 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        positions = list(range(i, j))
        lo, hi = 0, len(positions)
        while lo < hi and _is_punct(text[positions[lo]]):
            tokens.append([positions[lo]])
            lo += 1
        tail = []
        while hi > lo and _is_punct(text[positions[hi - 1]]):
            tail.append([positions[hi - 1]])
            hi -= 1
        if lo < hi:
            tokens.append(positions[lo:hi])
        tokens.extend(reversed(tail))
        i = j
    return tokens


def _oracle_covered(text, spans):
    covered = set()
    for span in spans:
        covered |= set(range(span.start, span.end))
    return {
        idx
        for idx, positions in enumerate(_oracle_token_positions(text))
        if covered & set(positions)
    }


def _random_span_set(rng, length):
    spans, cursor = [], 0
    while cursor < length - 1 and rng.random() < 0.5:
        start = rng.randint(cursor, length - 1)
        end = rng.randint(start + 1, length)
        spans.append(Span(start, end))
        cursor = end
    return spans


def test_criterion_4_metric_oracle_equivalence():
    rng = random.Random(0xC4)
    for _ in range(50):
        corpus = []
        for i in range(rng.randint(1, 5)):
            words = [
                "".join(rng.choice("abμ.,x") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 8))
            ]
            text = " ".join(words)
            gold = _random_span_set(rng, len(text))
            pred = _random_span_set(rng, len(text))
            corpus.append((LabeledAbstract(f"r{i}", text, tuple(gold)), pred))

        outcomes = [score_abstract(record, pred) for record, pred in corpus]

        want = []
        for record, pred in corpus:
            gold_set = _oracle_covered(record.text, record.spans)
            pred_set = _oracle_covered(record.text, pred)
            want.append((gold_set, pred_set))

        for outcome, (gold_set, pred_set) in zip(outcomes, want):
            assert outcome.gold_tokens == len(gold_set)
            assert outcome.pred_tokens == len(pred_set)
            assert outcome.excess_tokens == len(pred_set - gold_set)
            assert outcome.missing_tokens == len(gold_set - pred_set)
            assert outcome.correct == (gold_set == pred_set)

        # pooled micro scores against direct arithmetic
        matched = sum(len(g & p) for g, p in want)
        n_pred = sum(len(p) for _, p in want)
        n_gold = sum(len(g) for g, _ in want)
        precision, recall, f1 = token_prf(outcomes)
        want_p = matched / n_pred if n_pred else 1.0
        want_r = matched / n_gold if n_gold else 1.0
        want_f = 2 * want_p * want_r / (want_p + want_r) if want_p + want_r else 0.0
        assert abs(precision - want_p) <= 1e-12
        assert abs(recall - want_r) <= 1e-12
        assert abs(f1 - want_f) <= 1e-12

        # aggregate row against direct recomputation
        (row,) = aggregate(outcomes)
        n = len(outcomes)
        n_correct = sum(1 for g, p in want if g == p)
        excesses = [len(p - g) for g, p in want if p - g]
        missings = [len(g - p) for g, p in want if g - p]
        assert abs(row.share_correct - 100 * n_correct / n) <= 1e-12
        assert abs(row.excess_share - 100 * len(excesses) / n) <= 1e-12
        assert abs(row.missing_share - 100 * len(missings) / n) <= 1e-12
        if excesses:
            assert abs(row.excess_avg - sum(excesses) / len(excesses)) <= 1e-12
        else:
            assert row.excess_avg is None
        if missings:
            assert abs(row.missing_avg - sum(missings) / len(missings)) <= 1e-12
        else:
            assert row.missing_avg is None
    _passed(4, "aggregate/token_prf match brute-force token sets on 50 micro-corpora")


# ---------------------------------------------------------------------------
# criterion 5: unlabeled-row report arithmetic (99.93% / 0.07% / 6.33)
# ---------------------------------------------------------------------------


def test_criterion_5_no_row_arithmetic(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    pred_path = tmp_path / "pred.jsonl"
    eight_tokens = "t0 t1 t2 t3 t4 t5 t6 t7"
    with open(gold_path, "w", encoding="utf-8") as fh:
        for i in range(4041):
            fh.write(json.dumps({"id": f"c{i:04d}", "text": "alpha beta gamma", "spans": []}) + "\n")
        for i in range(3):
            fh.write(json.dumps({"id": f"x{i}", "text": eight_tokens, "spans": []}) + "\n")
    # three spurious predictions totaling 19 tokens (7 + 6 + 6)
    with open(pred_path, "w", encoding="utf-8") as fh:
        for i, tokens in enumerate((7, 6, 6)):
            span = {"start": 0, "end": 3 * tokens - 1, "label": "REM"}
            fh.write(json.dumps({"id": f"x{i}", "text": eight_tokens, "spans": [span]}) + "\n")

    rc = main(["eval", "--gold", str(gold_path), "--pred", str(pred_path)])
    out = capsys.readouterr().out
    assert rc == 0
    no_row = next(
        line for line in out.splitlines() if line.strip().startswith("no ")
    )
    assert "4044" in no_row
    assert "99.93%" in no_row
    assert "0.07%" in no_row
    assert "6.33" in no_row
    _passed(5, "constructed 4044-record fixture reproduces the 99.93/0.07/6.33 row")


# ---------------------------------------------------------------------------
# criterion 6: ranking protocol vs an independent dimension-8 oracle
# ---------------------------------------------------------------------------

_COPY = "© 2020 Springer Nature. All rights reserved."
_RANK_FIXTURE = {
    "f": "Quantum entanglement in photonic lattices enables robust optical communication. " + _COPY,
    "a": "Quantum entanglement in photonic lattices enables robust optical networks.",
    "b": "Soil moisture dynamics under drought stress in temperate grasslands. " + _COPY,
    "c": "Medieval trade routes and coinage circulation across Europe.",
}


def _oracle_embed(text, dim=8):
    counts = {}
    for positions in _oracle_token_positions(text):
        token = "".join(text[p] for p in positions).lower()
        counts[token] = counts.get(token, 0) + 1
    values = [0.0] * dim
    for token, count in sorted(counts.items()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "big")
        sign = 1.0 if (h >> 32) & 1 == 0 else -1.0
        values[h % dim] += sign * (1.0 + math.log(count))
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values] if norm else values


def _oracle_cosine(a, b):
    return sum(x * y for x, y in zip(a, b))  # both unit-normalized


def _oracle_clean(text, spans):
    parts, last = [], 0
    for span in sorted(spans, key=lambda s: s.start):
        parts.append(text[last : span.start])
        last = span.end
    parts.append(text[last:])
    cleaned = "".join(parts).strip()
    return cleaned if cleaned else text


def _oracle_order(focal_vec, ref_vecs):
    cosines = {rid: _oracle_cosine(focal_vec, v) for rid, v in ref_vecs.items()}
    return tuple(sorted(cosines, key=lambda rid: (-cosines[rid], rid)))


def test_criterion_6_ranking_protocol():
    spans_for = {rid: to_rem_spans(detect(text)) for rid, text in _RANK_FIXTURE.items()}
    provider = BuiltinProvider(dimension=8)

    def vectors(spans):
        """Each fixture text's vector after cleaning it with its spans."""
        return {
            rid: provider.vector(clean_text(text, spans.get(rid, [])))
            for rid, text in _RANK_FIXTURE.items()
        }

    before = {rid: provider.vector(text) for rid, text in _RANK_FIXTURE.items()}
    delta = rank_references("f", ["a", "b", "c"], before, vectors(spans_for))

    before_oracle = _oracle_order(
        _oracle_embed(_RANK_FIXTURE["f"]),
        {rid: _oracle_embed(_RANK_FIXTURE[rid]) for rid in "abc"},
    )
    after_oracle = _oracle_order(
        _oracle_embed(_oracle_clean(_RANK_FIXTURE["f"], spans_for["f"])),
        {
            rid: _oracle_embed(_oracle_clean(_RANK_FIXTURE[rid], spans_for[rid]))
            for rid in "abc"
        },
    )
    assert delta.order_before == before_oracle == ("b", "a", "c")
    assert delta.order_after == after_oracle == ("a", "b", "c")
    assert delta.changed and delta.top1_changed
    assert delta.displacement == 2

    # with detectors disabled cleaning is the identity up to trimming
    untouched = rank_references("f", ["a", "b", "c"], before, vectors({}))
    assert not untouched.changed
    assert untouched.displacement == 0
    _passed(6, "shared-copyright fixture flips the ranking exactly as the oracle says")


# ---------------------------------------------------------------------------
# criterion 7: round-trip persistence on 1000 generated records
# ---------------------------------------------------------------------------


def test_criterion_7_round_trip_persistence(tmp_path):
    rng = random.Random(0xC7)
    alphabet = "abcdef μσπ量子🦊éßЖ .,"
    records = []
    for i in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        spans = tuple(_random_span_set(rng, len(text)))
        # meta is a JSON object: the checked keys, each possibly null, and
        # unknown keys of any JSON value, any of them missing, in any order.
        items = [
            ("year", rng.choice([None, 1970, 2018, 2024])),
            ("fields", rng.choice([
                None, rng.sample(["Medicine", "Physics", "Φυσική"], rng.randint(0, 2))
            ])),
            ("source", rng.choice([None, "crawl-b", "регистр"])),
            ("doi", rng.choice(["10.1/x", None])),
            ("license", rng.choice(["CC-BY", 4, 2.5, False, ["a", {"b": None}]])),
        ]
        items = [item for item in items if rng.random() < 0.7]
        rng.shuffle(items)
        records.append(LabeledAbstract(f"r{i:04d}", text, spans, dict(items)))
    first = tmp_path / "corpus.jsonl"
    save_corpus(records, str(first))
    loaded = load_corpus(str(first))
    assert loaded == records
    second = tmp_path / "again.jsonl"
    save_corpus(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    _passed(7, "save/load identity and byte-stable re-save on 1000 records")


# ---------------------------------------------------------------------------
# criterion 8: cleaning pipeline is idempotent at the byte level
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_idempotence(tmp_path):
    first = tmp_path / "pass1.jsonl"
    second = tmp_path / "pass2.jsonl"
    rc1 = main(
        ["clean", "--input", str(DATA_DIR / "golden_clutter.jsonl"), "--output", str(first)]
    )
    rc2 = main(["clean", "--input", str(first), "--output", str(second)])
    assert rc1 == 0 and rc2 == 0
    assert first.read_bytes() == second.read_bytes()
    _passed(8, "second clean pass over the fixture corpus is byte-identical")


# ---------------------------------------------------------------------------
# criterion 9: throughput budget, 10k abstracts (mean 200 tokens) in <10s
# ---------------------------------------------------------------------------


def test_criterion_9_throughput_budget(tmp_path):
    rng = random.Random(0xC9)
    vocab = (
        "the of films growth model data we study results analysis method using "
        "effect high low increase measured observed rate structure protein cell "
        "energy field quantum surface temperature phase sample treatment clinical "
        "patients response signal network learning algorithm system carbon acid"
    ).split()
    clutter = [
        " © 2019 Elsevier B.V. All rights reserved.",
        " Payment must accompany order.",
        " ClinicalTrials.gov: NCT012345678",
        " Funding: This work was funded by grants.",
        " (Fig. 1)",
        " [1-4]",
    ]
    corpus_path = tmp_path / "big.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i in range(10_000):
            words = " ".join(rng.choice(vocab) for _ in range(rng.randint(150, 250)))
            text = words[0].upper() + words[1:] + "."
            if rng.random() < 0.2:
                text += rng.choice(clutter)
            fh.write(json.dumps({"id": f"p{i:05d}", "text": text, "spans": []}) + "\n")

    out_path = tmp_path / "big_clean.jsonl"
    started = time.perf_counter()
    rc = main(["clean", "--input", str(corpus_path), "--output", str(out_path)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert elapsed < 10.0
    _passed(9, f"10,000 abstracts cleaned in {elapsed:.2f}s (budget 10s)")
