import json
import pathlib
import random
import re
import sys
import unicodedata
from collections import Counter

import pytest

from declutter.textspan import (
    Span,
    clean_text,
    ensure_finalized,
    filter_spans,
    token_strings,
    tokenize,
    tokens_under,
)


def spans(*pairs):
    return [Span(a, b) for a, b in pairs]


def greedy_oracle(candidates):
    """Independent replay of the greedy rule using per-position sets."""
    ordered = sorted(candidates, key=lambda s: (-(s.end - s.start), s.start))
    taken = set()
    kept = []
    for span in ordered:
        positions = set(range(span.start, span.end))
        if not positions & taken:
            kept.append(span)
            taken |= positions
    return sorted(kept, key=lambda s: s.start)


def pairwise_filter(candidates):
    """The O(n * kept) filter_spans that the bisect version replaced: each
    candidate, longest first, is checked against every kept span."""
    ordered = sorted(candidates, key=lambda s: (-(s.end - s.start), s.start))
    kept = []
    for span in ordered:
        if not any(span.start < k.end and k.start < span.end for k in kept):
            kept.append(span)
    kept.sort(key=lambda s: s.start)
    return kept


def nested_loop_tokens_under(span_set, token_map):
    """The O(spans * tokens) tokens_under that the bisect version replaced."""
    covered = set()
    for span in span_set:
        for idx, (start, end) in enumerate(zip(token_map.starts, token_map.ends)):
            if start < span.end and span.start < end:
                covered.add(idx)
    return covered


def random_span_set(rng, limit, max_len):
    """Unsorted spans that may overlap, repeat or differ only in label."""
    out = []
    for _ in range(rng.randint(0, 40)):
        start = rng.randint(0, limit - 1)
        end = min(limit, start + rng.randint(1, max_len))
        out.append(Span(start, end, rng.choice("AB")))
    return out


class TestFilterSpans:
    def test_empty(self):
        assert filter_spans([]) == []

    def test_longer_span_wins(self):
        assert filter_spans(spans((0, 5), (3, 10))) == spans((3, 10))

    def test_touching_spans_both_kept(self):
        assert filter_spans(spans((0, 4), (4, 8))) == spans((0, 4), (4, 8))

    def test_duplicates_collapse(self):
        assert filter_spans(spans((2, 6), (2, 6))) == spans((2, 6))

    def test_equal_length_earlier_start_wins(self):
        assert filter_spans(spans((3, 6), (1, 4))) == spans((1, 4))

    def test_matches_oracle_on_random_inputs(self):
        rng = random.Random(7)
        for _ in range(300):
            candidates = [
                Span(start, start + rng.randint(1, 12))
                for start in (rng.randint(0, 30) for _ in range(rng.randint(0, 6)))
            ]
            got = filter_spans(candidates)
            assert got == greedy_oracle(candidates)
            assert filter_spans(got) == got  # idempotent

    def test_matches_pairwise_version_on_random_inputs(self):
        rng = random.Random(17)
        for _ in range(2000):
            limit, max_len = rng.randint(1, 200), rng.choice((3, 15, 60))
            candidates = random_span_set(rng, limit, max_len)
            assert filter_spans(candidates) == pairwise_filter(candidates)

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            Span(5, 5)
        with pytest.raises(ValueError):
            Span(-1, 3)


class TestCleanText:
    def test_no_spans_trims_only(self):
        assert clean_text("abc def", []) == "abc def"
        assert clean_text("  abc def \n", []) == "abc def"

    def test_slices_out_span(self):
        assert clean_text("© 2020 Pub. We study X.", spans((0, 12))) == "We study X."

    def test_empty_result_falls_back_to_original(self):
        assert clean_text("AAAA", spans((0, 4))) == "AAAA"
        assert clean_text(" AA ", spans((1, 3))) == " AA "

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            clean_text("abc", spans((0, 4)))

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            clean_text("abcdefgh", spans((0, 4), (2, 6)))

    def test_never_longer_than_trimmed_original(self):
        rng = random.Random(3)
        for _ in range(100):
            text = " ".join("x" * rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
            cut = sorted(rng.sample(range(len(text) + 1), 2))
            span_set = [Span(cut[0], cut[1])] if cut[0] < cut[1] else []
            assert len(clean_text(text, span_set)) <= len(text.strip())


class TestEnsureFinalized:
    def test_accepts_sorted_disjoint(self):
        assert ensure_finalized(spans((0, 2), (2, 4)), 10) == spans((0, 2), (2, 4))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ensure_finalized(spans((4, 6), (0, 2)), 10)


def token_texts(text):
    token_map = tokenize(text)
    return [text[a:b] for a, b in zip(token_map.starts, token_map.ends)]


class TestTokenize:
    def test_empty(self):
        assert len(tokenize("")) == 0

    def test_punctuation_detached(self):
        assert token_texts("Fig. 1)") == ["Fig", ".", "1", ")"]

    def test_offsets(self):
        token_map = tokenize("a b")
        assert (token_map.starts, token_map.ends) == ((0, 2), (1, 3))

    def test_internal_punctuation_stays(self):
        assert token_texts("state-of-the-art") == ["state-of-the-art"]

    def test_symbols_not_detached(self):
        # © is a symbol, not punctuation, so it stays attached.
        assert token_texts("©2020") == ["©2020"]

    def test_all_punctuation_chunk(self):
        assert token_texts("-- !") == ["-", "-", "!"]

    def test_offsets_reconstruct_slices(self):
        rng = random.Random(11)
        pool = "ab μσ量 🦊,.()[]:;- \t\n"
        for _ in range(200):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 40)))
            token_map = tokenize(text)
            starts, ends = token_map.starts, token_map.ends
            assert len(starts) == len(ends) == len(token_map)
            for start, end in zip(starts, ends):
                token = text[start:end]
                assert token and not any(c.isspace() for c in token)
            assert all(prev <= nxt for prev, nxt in zip(ends, starts[1:]))
            assert token_map.source_length == len(text)


# The one-regex tokenizer that the split-first tokenizer replaced, verbatim, as
# the oracle for it.
_ASCII_PUNCT = "".join(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)
_P = re.escape(_ASCII_PUNCT)
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def oracle_tokenize(text):
    masked = text
    if not text.isascii():
        punct = [
            ord(c)
            for c in set(_NON_ASCII_RE.findall(text))
            if unicodedata.category(c).startswith("P")
        ]
        if punct:  # translate costs ~100 ns a character, so only when needed
            masked = text.translate(dict.fromkeys(punct, "."))
    spans = list(map(re.Match.span, _TOKEN_RE.finditer(masked)))
    starts, ends = zip(*spans) if spans else ((), ())
    return starts, ends


# Pieces of random texts: words, punctuation at word edges and alone,
# symbols, non-ASCII letters and digits, and every kind of whitespace.
_WORDS = ("a", "Fig", "x2", "10", "state-of-the-art", "café", "Straße", "İstanbul",
          "m²", "e\u0301", "量子", "🦊", "a\u200bb")
_PUNCT = (*".,;:!?()[]{}'\"-/&#%*@_", "—", "…", "«", "»", "‘", "’", "・", "¿")
_SYMBOLS = ("©", "°", "+", "=", "<", "$", "±", "™")
_SPACES = (" ", "  ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\u2009", "\u3000",
           "\u2028", "\u2029", "\u202f", "\u1680", "\x85", "\x1c", "\x1d", "\x1e",
           "\x1f")


def random_text(rng):
    parts = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.4:
            pool = _WORDS
        elif kind < 0.65:
            pool = _PUNCT
        elif kind < 0.75:
            pool = _SYMBOLS
        else:
            pool = _SPACES
        parts.append(rng.choice(pool))
    return "".join(parts)


class TestTokenizeOracle:
    def test_matches_one_regex_oracle_on_random_texts(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(3000):
            text = random_text(rng)
            token_map = tokenize(text)
            assert (token_map.starts, token_map.ends) == oracle_tokenize(text), repr(text)
            seen.update(c for c in text if not c.isalnum())
        # Every separator and punctuation kind of the pools was drawn.
        assert set("".join(_SPACES + _PUNCT + _SYMBOLS)) <= seen

    def test_matches_oracle_on_edge_texts(self):
        edges = ("", " ", "  ", " a", "a ", " a  b ", "\ta", "a\xa0b", "(a)", "a.", "...")
        for text in edges:
            token_map = tokenize(text)
            assert (token_map.starts, token_map.ends) == oracle_tokenize(text), repr(text)

    def test_matches_oracle_on_golden_fixtures(self):
        path = pathlib.Path(__file__).parent / "data" / "golden_clutter.jsonl"
        with open(path, encoding="utf-8") as fh:
            texts = [json.loads(line)["text"] for line in fh]
        assert len(texts) == 10
        for text in texts:
            token_map = tokenize(text)
            assert (token_map.starts, token_map.ends) == oracle_tokenize(text)

    def test_token_strings_are_the_tokens_of_tokenize(self):
        rng = random.Random(43)
        texts = ["", " ", "  ", "\t", "\u3000", "İ", " a  b ", "(a)", "a\xa0b"]
        texts += [random_text(rng) for _ in range(3000)]
        for text in texts:
            assert Counter(token_strings(text)) == Counter(token_texts(text)), repr(text)

    def test_alnum_characters_are_neither_space_nor_punctuation(self):
        """tokenize takes a str.isalnum() piece as one token. That is sound
        when no alphanumeric character is whitespace, to str.isspace() or to
        the regex's \\s, or punctuation: this interpreter's whole Unicode
        database is checked."""
        alnum = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isalnum()]
        assert not any(c.isspace() for c in alnum)
        assert not any(unicodedata.category(c).startswith("P") for c in alnum)
        assert re.search(r"\s", "".join(alnum)) is None


class TestTokensUnder:
    def test_no_spans(self):
        assert tokens_under([], tokenize("a b c")) == set()

    def test_half_open_boundary(self):
        token_map = tokenize("ab cd")  # tokens at (0,2) and (3,5)
        assert tokens_under(spans((0, 3)), token_map) == {0}

    def test_one_char_overlap_counts(self):
        token_map = tokenize("ab cd")
        assert tokens_under(spans((1, 4)), token_map) == {0, 1}

    def test_monotone_in_spans(self):
        rng = random.Random(5)
        text = "alpha beta gamma delta epsilon"
        token_map = tokenize(text)
        for _ in range(200):
            a = sorted(rng.sample(range(len(text)), 2))
            b = sorted(rng.sample(range(len(text)), 2))
            if a[0] == a[1] or b[0] == b[1]:
                continue
            first, second = sorted([Span(*a), Span(*b)], key=lambda s: s.start)
            if first.end > second.start:
                continue  # need a genuinely added span, not a replacement
            small = tokens_under([first], token_map)
            big = tokens_under([first, second], token_map)
            assert small <= big

    def test_matches_nested_loop_version_on_random_spans(self):
        rng = random.Random(23)
        pool = "ab μ©.,()[]- \t\n"
        for _ in range(500):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 80)))
            token_map = tokenize(text)
            span_set = random_span_set(rng, len(text), rng.choice((1, 4, 30)))
            assert tokens_under(span_set, token_map) == nested_loop_tokens_under(
                span_set, token_map
            )
