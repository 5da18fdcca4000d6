import dataclasses
import random
import re
import unicodedata

import pytest

from declutter.corpus import LabeledAbstract
from declutter.errors import EvaluationError
from declutter.evaluation import (
    AbstractOutcome,
    aggregate,
    length_buckets,
    score_abstract,
    token_prf,
)
from declutter.textspan import Span, tokenize


def rec(rec_id, text, gold=()):
    return LabeledAbstract(rec_id, text, tuple(Span(a, b) for a, b in gold))


# ---------------------------------------------------------------------------
# independent oracle: token sets straight from character offsets
# ---------------------------------------------------------------------------


def oracle_tokens(text):
    """Char-by-char tokenizer: whitespace splits, P* punctuation detaches."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        chunk_positions = list(range(i, j))
        lo, hi = 0, len(chunk_positions)
        while lo < hi and unicodedata.category(text[chunk_positions[lo]]).startswith("P"):
            tokens.append([chunk_positions[lo]])
            lo += 1
        tail = []
        while hi > lo and unicodedata.category(text[chunk_positions[hi - 1]]).startswith("P"):
            tail.append([chunk_positions[hi - 1]])
            hi -= 1
        if lo < hi:
            tokens.append(chunk_positions[lo:hi])
        tokens.extend(reversed(tail))
        i = j
    return tokens


def chunk_loop_tokens(text):
    """The char-loop tokenizer the regex one replaced, kept as a second oracle:
    split on ``\\S+``, then peel P* characters off both ends of each chunk."""

    def is_punct(ch):
        return unicodedata.category(ch).startswith("P")

    tokens = []
    for m in re.finditer(r"\S+", text):
        chunk, base = m.group(), m.start()
        lo, hi = 0, len(chunk)
        while lo < hi and is_punct(chunk[lo]):
            tokens.append((chunk[lo], base + lo, base + lo + 1))
            lo += 1
        core_hi = hi
        while core_hi > lo and is_punct(chunk[core_hi - 1]):
            core_hi -= 1
        if lo < core_hi:
            tokens.append((chunk[lo:core_hi], base + lo, base + core_hi))
        for i in range(core_hi, hi):
            tokens.append((chunk[i], base + i, base + i + 1))
    return tokens


# Characters the tokenizer must treat right: ASCII and non-ASCII punctuation
# (in and beyond the BMP), other non-ASCII letters and symbols, characters
# that are special inside a regex class, and Unicode whitespace.
TOKENIZER_POOL = (
    list("ab9μ量") + list(".,;:()'\"!?") + ["\\", "]", "^", "-", "["]
    + ["–", "«", "、", "。", "\U00010100", "\U0001e95e"]
    + ["🦊", "©", "+", "$"]
    + [" ", " ", "\t", "\n", "\x85", "\x1c", "\u3000", "\xa0"]
)


class TestTokenizeDifferential:
    def test_matches_both_oracles_on_random_texts(self):
        rng = random.Random(2024)
        for _ in range(3000):
            text = "".join(
                rng.choice(TOKENIZER_POOL) for _ in range(rng.randint(0, 60))
            )
            token_map = tokenize(text)
            got = [
                (text[s:e], s, e) for s, e in zip(token_map.starts, token_map.ends)
            ]
            assert got == chunk_loop_tokens(text), repr(text)
            assert [list(range(s, e)) for _, s, e in got] == oracle_tokens(text)
            assert len(token_map) == len(got) == len(token_map.ends)
            assert token_map.source_length == len(text)


def oracle_covered(text, spans):
    positions = set()
    for span in spans:
        positions |= set(range(span.start, span.end))
    return {
        idx
        for idx, tok_positions in enumerate(oracle_tokens(text))
        if positions & set(tok_positions)
    }


def oracle_outcome(record, predicted):
    gold = oracle_covered(record.text, record.spans)
    pred = oracle_covered(record.text, predicted)
    return {
        "gold": len(gold),
        "pred": len(pred),
        "excess": len(pred - gold),
        "missing": len(gold - pred),
        "matched": len(pred & gold),
        "correct": gold == pred,
        "tokens": len(oracle_tokens(record.text)),
    }


class TestScoreAbstract:
    def test_set_arithmetic_by_hand(self):
        # tokens 0..7; gold covers tokens 3-5, predicted covers 4-6
        record = rec("a", "w0 w1 w2 w3 w4 w5 w6 w7", gold=[(9, 17)])
        outcome = score_abstract(record, [Span(12, 20)])
        assert outcome.gold_tokens == 3
        assert outcome.pred_tokens == 3
        assert outcome.excess_tokens == 1
        assert outcome.missing_tokens == 1
        assert outcome.tokens == 8
        assert not outcome.correct
        p, r, f = token_prf([outcome])
        assert (p, r) == (2 / 3, 2 / 3)

    def test_identical_prediction_is_correct(self):
        record = rec("a", "alpha beta gamma", gold=[(0, 10)])
        outcome = score_abstract(record, [Span(0, 10)])
        assert outcome.correct
        assert outcome.excess_tokens == outcome.missing_tokens == 0

    def test_empty_gold_empty_pred_correct(self):
        outcome = score_abstract(rec("a", "alpha beta"), [])
        assert outcome.correct
        assert outcome.gold_tokens == outcome.pred_tokens == 0

    def test_out_of_bounds_prediction_rejected(self):
        with pytest.raises(EvaluationError, match="out of bounds"):
            score_abstract(rec("a", "ab"), [Span(0, 99)])


class TestTokenPrf:
    def test_all_correct(self):
        outcomes = [
            score_abstract(rec("a", "x y z", gold=[(0, 3)]), [Span(0, 3)]),
            score_abstract(rec("b", "p q"), []),
        ]
        assert token_prf(outcomes) == (1.0, 1.0, 1.0)

    def test_empty_everywhere_convention(self):
        outcomes = [score_abstract(rec("a", "x y"), [])]
        assert token_prf(outcomes) == (1.0, 1.0, 1.0)

    def test_pooled_micro_counts(self):
        record = rec("a", "w0 w1 w2 w3 w4 w5 w6 w7", gold=[(9, 17)])
        outcome = score_abstract(record, [Span(12, 20)])
        p, r, f = token_prf([outcome])
        assert p == r == pytest.approx(2 / 3, abs=1e-15)
        assert f == pytest.approx(2 / 3, abs=1e-15)

    def test_f1_zero_when_nothing_matches(self):
        record = rec("a", "w0 w1", gold=[(0, 2)])
        outcome = score_abstract(record, [Span(3, 5)])
        p, r, f = token_prf([outcome])
        assert (p, r, f) == (0.0, 0.0, 0.0)


class TestAggregate:
    def test_single_correct_outcome(self):
        rows = aggregate([score_abstract(rec("a", "x y"), [])])
        assert len(rows) == 1
        row = rows[0]
        assert row.group_key == "all"
        assert row.share_correct == 100.0
        assert row.excess_share == row.missing_share == 0.0
        assert row.excess_avg is None and row.missing_avg is None

    def test_missing_average_hand_computed(self):
        a = rec("a", "t0 t1 t2 t3 t4", gold=[(0, 14)])
        b = rec("b", "u0 u1 u2 u3 u4", gold=[(0, 14)])
        outcomes = [
            score_abstract(a, [Span(0, 8)]),   # misses 2 of 5 gold tokens
            score_abstract(b, [Span(0, 2)]),   # misses 4 of 5 gold tokens
        ]
        (row,) = aggregate(outcomes)
        assert row.missing_share == 100.0
        assert row.missing_avg == 3.0

    def test_has_labels_split(self):
        outcomes = [
            score_abstract(rec("a", "x y"), []),
            score_abstract(rec("b", "p q r", gold=[(0, 3)]), [Span(0, 3)]),
        ]
        rows = aggregate(outcomes, "has_labels")
        assert [r.group_key for r in rows] == ["no", "yes"]
        assert all(r.count == 1 for r in rows)

    def test_category_map_sorted_with_unmapped(self):
        outcomes = [
            score_abstract(rec("a", "x"), []),
            score_abstract(rec("b", "y"), []),
            score_abstract(rec("c", "z"), []),
        ]
        rows = aggregate(outcomes, {"a": "Copyright", "b": "Citations"})
        assert [r.group_key for r in rows] == ["(unmapped)", "Citations", "Copyright"]

    def test_no_row_arithmetic_small(self):
        # 44 clean abstracts, 3 of which carry spurious predictions
        outcomes = []
        for i in range(41):
            outcomes.append(score_abstract(rec(f"c{i:02d}", "a b c d e f g"), []))
        for i, tokens in enumerate((7, 6, 6)):
            record = rec(f"x{i}", "t0 t1 t2 t3 t4 t5 t6 t7")
            end = 3 * tokens - 1
            outcomes.append(score_abstract(record, [Span(0, end)]))
        (row,) = aggregate(outcomes, "has_labels")
        assert row.group_key == "no"
        assert row.count == 44
        assert row.excess_share == pytest.approx(100 * 3 / 44)
        assert row.excess_avg == pytest.approx(19 / 3)

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], "nope")


class TestLengthBuckets:
    @staticmethod
    def _outcome(rec_id, tokens, excess=0, missing=0):
        return AbstractOutcome(
            id=rec_id,
            gold_tokens=missing,
            pred_tokens=excess,
            excess_tokens=excess,
            missing_tokens=missing,
            correct=excess == 0 and missing == 0,
            tokens=tokens,
        )

    def test_single_bucket_equals_ungrouped(self):
        outcomes = [
            self._outcome("a", 10, excess=2),
            self._outcome("b", 30),
            self._outcome("c", 20, missing=3),
        ]
        (bucket,) = length_buckets(outcomes, 1)
        (overall,) = aggregate(outcomes)
        assert bucket == dataclasses.replace(overall, group_key="10-30")

    def test_quantile_split_by_hand(self):
        outcomes = [self._outcome(x, n) for x, n in zip("abcd", (10, 20, 30, 40))]
        rows = length_buckets(outcomes, 2)
        assert [r.group_key for r in rows] == ["10-20", "30-40"]
        assert [r.count for r in rows] == [2, 2]

    def test_boundary_ties_go_to_lower_bucket(self):
        outcomes = [
            self._outcome(x, n) for x, n in zip("abcde", (10, 20, 20, 20, 40))
        ]
        rows = length_buckets(outcomes, 2)
        assert [r.group_key for r in rows] == ["10-20", "40-40"]
        assert [r.count for r in rows] == [4, 1]

    def test_counts_always_sum_to_total(self):
        rng = random.Random(1)
        for _ in range(50):
            ids = [f"r{i}" for i in range(rng.randint(1, 12))]
            outcomes = [self._outcome(i, rng.randint(1, 6)) for i in ids]
            rows = length_buckets(outcomes, rng.randint(1, 5))
            assert sum(r.count for r in rows) == len(ids)

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(ValueError):
            length_buckets([], 0)


class TestMonotoneSensitivity:
    def test_enlarging_prediction_adds_exactly_one_excess(self):
        text = "t0 t1 t2 t3 t4 t5"
        record = rec("a", text, gold=[(0, 8)])  # tokens 0-2
        base = score_abstract(record, [Span(0, 8)])
        widened = score_abstract(record, [Span(0, 11)])  # plus token 3
        assert widened.excess_tokens == base.excess_tokens + 1
        p_base, _, _ = token_prf([base])
        p_wide, _, _ = token_prf([widened])
        assert p_wide <= p_base


class TestOracleEquivalence:
    def _random_corpus(self, rng):
        corpus = []
        for i in range(rng.randint(1, 5)):
            words = [
                "".join(rng.choice("abcμσ.") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 8))
            ]
            text = " ".join(words)
            def random_spans():
                spans, cursor = [], 0
                while cursor < len(text) - 1 and rng.random() < 0.5:
                    start = rng.randint(cursor, len(text) - 1)
                    end = rng.randint(start + 1, len(text))
                    spans.append(Span(start, end))
                    cursor = end
                return spans
            corpus.append((rec(f"r{i}", text, []), random_spans(), random_spans()))
        return corpus

    def test_matches_brute_force(self):
        rng = random.Random(99)
        for _ in range(20):
            corpus = []
            for record, gold, pred in self._random_corpus(rng):
                corpus.append(
                    (LabeledAbstract(record.id, record.text, tuple(gold)), pred)
                )
            outcomes = [score_abstract(r, p) for r, p in corpus]
            expected = [oracle_outcome(r, p) for r, p in corpus]
            for outcome, want in zip(outcomes, expected):
                assert outcome.gold_tokens == want["gold"]
                assert outcome.pred_tokens == want["pred"]
                assert outcome.excess_tokens == want["excess"]
                assert outcome.missing_tokens == want["missing"]
                assert outcome.correct == want["correct"]
                assert outcome.tokens == want["tokens"]
            p, r, f = token_prf(outcomes)
            tp = sum(w["matched"] for w in expected)
            np_ = sum(w["pred"] for w in expected)
            ng = sum(w["gold"] for w in expected)
            assert p == pytest.approx(tp / np_ if np_ else 1.0, abs=1e-12)
            assert r == pytest.approx(tp / ng if ng else 1.0, abs=1e-12)
