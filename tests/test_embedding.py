import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest

from declutter.corpus import LabeledAbstract
from declutter.embedding import (
    CLEANED_ID_SUFFIX,
    BuiltinProvider,
    EmbeddingVector,
    ExternalVectorProvider,
    _bucket_sign,
    cosine,
    rank_references,
)
from declutter.errors import EmbeddingError
from declutter.textspan import Span, clean_text, tokenize


def vec(*values):
    return EmbeddingVector.from_values(values)


# Independent reimplementation of the documented hashing scheme, used as an
# oracle for the builtin provider.
def oracle_vector(text, dim):
    counts = {}
    for raw in text.split():
        # mirror the tokenizer loosely: strip ascii punctuation edges into
        # their own tokens, as single characters
        import unicodedata

        chars = list(raw)
        while chars and unicodedata.category(chars[0]).startswith("P"):
            tok = chars.pop(0).lower()
            counts[tok] = counts.get(tok, 0) + 1
        tail = []
        while chars and unicodedata.category(chars[-1]).startswith("P"):
            tail.append(chars.pop().lower())
        if chars:
            core = "".join(chars).lower()
            counts[core] = counts.get(core, 0) + 1
        for tok in tail:
            counts[tok] = counts.get(tok, 0) + 1
    values = [0.0] * dim
    for token, count in sorted(counts.items()):
        h = int.from_bytes(
            hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
        )
        sign = 1.0 if (h >> 32) & 1 == 0 else -1.0
        values[h % dim] += sign * (1.0 + math.log(count))
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values] if norm else values


class TestBuiltinProvider:
    def test_deterministic(self):
        provider = BuiltinProvider(dimension=16)
        assert provider.vector("same text twice") == provider.vector("same text twice")

    def test_bag_of_words_order_independent(self):
        provider = BuiltinProvider(dimension=16)
        assert provider.vector("a a b") == provider.vector("b a a")

    def test_empty_text_is_zero_vector(self):
        provider = BuiltinProvider(dimension=8)
        v = provider.vector("")
        assert v.norm == 0.0
        with pytest.raises(EmbeddingError, match="zero-norm"):
            cosine(v, v)

    def test_unit_norm_for_non_empty(self):
        v = BuiltinProvider(dimension=32).vector("some words here")
        assert v.norm == pytest.approx(1.0, abs=1e-12)

    def test_matches_documented_hash_oracle(self):
        provider = BuiltinProvider(dimension=8)
        for text in ("plain words", "with punct, too.", "repeat repeat repeat x"):
            got = provider.vector(text)
            dense = [got.entries.get(i, 0.0) for i in range(got.dimension)]
            assert dense == pytest.approx(oracle_vector(text, 8), abs=1e-12)


# The dense vector, from_values and cosine that the sparse ones replaced,
# verbatim but for a (values, norm) pair in place of the vector class, as the
# oracle for them: the cosines must be equal, not approximately equal.
def dense_vector(text, dimension):
    tokens = tokenize(text)
    counts = Counter(text[a:b].lower() for a, b in zip(tokens.starts, tokens.ends))
    values = [0.0] * dimension
    # Sorted iteration keeps float accumulation order platform-independent.
    for token, count in sorted(counts.items()):
        bucket, sign = _bucket_sign(token, dimension)
        values[bucket] += sign * (1.0 + math.log(count))
    norm = math.sqrt(sum(v * v for v in values))
    if norm > 0.0:
        values = [v / norm for v in values]
    vals = tuple(float(v) for v in values)
    return vals, math.sqrt(sum(v * v for v in vals))


def dense_cosine(a, b):
    (a_values, a_norm), (b_values, b_norm) = a, b
    return sum(x * y for x, y in zip(a_values, b_values)) / (a_norm * b_norm)


def cancelling_pair(dimension):
    """Two tokens hashed to one bucket with opposite signs, and a third token
    in another bucket when there is one."""
    seen = {}
    for i in range(10_000):
        token = f"w{i}"
        bucket, sign = _bucket_sign(token, dimension)
        other = seen.get((bucket, -sign))
        if other is not None:
            rest = next((t for (b, _), t in seen.items() if b != bucket), None)
            return other, token, rest
        seen.setdefault((bucket, sign), token)
    raise AssertionError("no cancelling pair among 10,000 tokens")


class TestSparseMatchesDense:
    WORDS = ("alpha", "beta", "gamma", "delta", "Quantum", "photonic", "©", "2020",
             "Springer", "[1]", "(Fig.", "1)", "café", "İstanbul", "x", "of", "the")

    def texts(self, rng, n):
        return [
            " ".join(rng.choice(self.WORDS) for _ in range(rng.randint(1, 40)))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("dimension", [1, 2, 7, 768])
    def test_cosines_equal_dense_oracle(self, dimension):
        rng = random.Random(dimension)
        texts = self.texts(rng, 40)
        # A bucket where +1 and -1 cancel to exactly 0.0; at dimension 1 it
        # is the only bucket, so that text is the zero vector.
        plus, minus, rest = cancelling_pair(dimension)
        texts.append(" ".join(filter(None, (plus, minus, rest))))
        provider = BuiltinProvider(dimension=dimension)
        sparse = [provider.vector(t) for t in texts]
        dense = [dense_vector(t, dimension) for t in texts]
        compared = 0
        for i in range(len(texts)):
            assert sparse[i].norm == dense[i][1]
            assert all(0 <= k < dimension for k in sparse[i].entries)
            assert list(sparse[i].entries) == sorted(sparse[i].entries)
            for j in range(len(texts)):
                if dense[i][1] == 0.0 or dense[j][1] == 0.0:
                    continue
                assert cosine(sparse[i], sparse[j]) == dense_cosine(dense[i], dense[j])
                compared += 1
        assert compared == (len(texts) - (dimension == 1)) ** 2
        assert 0.0 in sparse[-1].entries.values()
        assert (sparse[-1].norm == 0.0) == (dimension == 1)

    def test_cancelled_punctuation_gives_zero_norm(self):
        # Punctuation tokens count like words, so a punctuation-only text is
        # a zero vector only when its buckets cancel.
        signs = {_bucket_sign(p, 1)[1]: p for p in ".,;:!?()[]"}
        text = f"{signs[1.0]} {signs[-1.0]}"
        assert dense_vector(text, 1)[1] == 0.0
        provider = BuiltinProvider(dimension=1)
        v = provider.vector(text)
        assert v.norm == 0.0
        with pytest.raises(EmbeddingError, match="zero-norm"):
            cosine(v, provider.vector("alpha"))
        assert provider.vector(" \t\n").norm == 0.0

    def test_external_vectors_equal_dense_oracle(self):
        rng = random.Random(3)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(64)] for _ in range(20)]
        rows.append([0.0] * 63 + [1.0])
        for a in rows:
            for b in rows:
                want = dense_cosine(
                    (tuple(a), math.sqrt(sum(v * v for v in a))),
                    (tuple(b), math.sqrt(sum(v * v for v in b))),
                )
                assert cosine(vec(*a), vec(*b)) == want


# The offset-based vector that counting words without offsets replaced,
# verbatim but for the hash, which is the documented one written out, as the
# oracle for BuiltinProvider.vector: the vectors must be equal.
def offset_vector(text, dimension):
    tokens = tokenize(text)
    pieces = map(text.__getitem__, map(slice, tokens.starts, tokens.ends))
    counts = Counter(map(str.lower, pieces))
    buckets = {}
    for token, count in sorted(counts.items()):
        h = int.from_bytes(
            hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
        )
        bucket, sign = h % dimension, 1.0 if (h >> 32) & 1 == 0 else -1.0
        buckets[bucket] = buckets.get(bucket, 0.0) + sign * (1.0 + math.log(count))
    entries = dict(sorted(buckets.items()))
    norm = math.sqrt(sum(v * v for v in entries.values()))
    if norm > 0.0:
        entries = {k: v / norm for k, v in entries.items()}
    return EmbeddingVector(
        dimension, entries, math.sqrt(sum(v * v for v in entries.values()))
    )


class TestWordsWithoutOffsets:
    PIECES = ("alpha", "Beta", "İstanbul", "İ", "café", "2020", "x1", "’s", "—",
              "«quote»", "(Fig.", "1)", "[1]", "don’t", "a—b", "©", "x\ty",
              "\t", "\u00a0", "word\u00a0word", "\u3000", "end.", "", " ", "  ")

    def texts(self, rng, n):
        texts = ["", " ", "\t", "\u3000", "İ", "  alpha  beta  "]
        for _ in range(n):
            pieces = [rng.choice(self.PIECES) for _ in range(rng.randint(1, 30))]
            texts.append(rng.choice([" ", "  ", "\t", "\u00a0"]).join(pieces))
        return texts

    @pytest.mark.parametrize("dimension", [1, 7, 768])
    def test_vectors_equal_offset_oracle(self, dimension):
        rng = random.Random(20261019 + dimension)
        texts = self.texts(rng, 200)
        want = [offset_vector(t, dimension) for t in texts]
        provider = BuiltinProvider(dimension)
        got = [provider.vector(t) for t in texts]
        assert got == want
        compared = 0
        for i in range(len(texts) - 1):
            if want[i].norm and want[i + 1].norm:
                assert cosine(got[i], got[i + 1]) == cosine(want[i], want[i + 1])
                compared += 1
        assert compared > 100


class TestCosine:
    def test_self_similarity(self):
        v = BuiltinProvider(dimension=64).vector("self similar text")
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(vec(1, 0), vec(0, 1)) == 0.0

    def test_hand_value(self):
        b = vec(1 / math.sqrt(2), 1 / math.sqrt(2))
        assert cosine(vec(1, 0), b) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(EmbeddingError, match="dimension"):
            cosine(vec(1, 0), vec(1, 0, 0))

    def test_scale_invariance(self):
        a = vec(0.3, -0.2, 0.9)
        b = vec(0.1, 0.4, -0.5)
        scaled = vec(*(3.7 * x for x in b.entries.values()))
        assert cosine(a, b) == pytest.approx(cosine(a, scaled), abs=1e-12)


class TestExternalVectors:
    def test_load_and_lookup(self, write_jsonl):
        path = write_jsonl(
            [
                {"id": "a", "values": [1.0, 0.0]},
                {"id": "a::cleaned", "values": [0.0, 1.0]},
            ],
            name="vecs.jsonl",
        )
        provider = ExternalVectorProvider.load(path)
        got = provider.vector("a")
        assert (got.dimension, got.entries) == (2, {0: 1.0, 1: 0.0})
        assert provider.vector("a::cleaned").dimension == 2

    def test_missing_id(self, write_jsonl):
        provider = ExternalVectorProvider.load(
            write_jsonl([{"id": "a", "values": [1.0]}], name="v.jsonl")
        )
        with pytest.raises(EmbeddingError, match="no ingested vector"):
            provider.vector("zzz")

    def test_dimension_mismatch_rejected(self, write_jsonl):
        path = write_jsonl(
            [{"id": "a", "values": [1.0]}, {"id": "b", "values": [1.0, 2.0]}],
            name="v.jsonl",
        )
        with pytest.raises(
            EmbeddingError, match=r"v\.jsonl:2: dimension 2, but line 1 has 1$"
        ):
            ExternalVectorProvider.load(path)

    def test_dense_vectors_stored_as_float_tuples(self, write_jsonl):
        """A dense vector is held as a tuple of floats, not as the dict of an
        EmbeddingVector, which took about 2.8 times the memory; it becomes
        one on lookup."""
        rng = random.Random(768)
        rows = [[rng.uniform(-1.0, 1.0) for _ in range(768)] for _ in range(200)]
        path = write_jsonl(
            [{"id": f"v{i}", "values": row} for i, row in enumerate(rows)],
            name="dense.jsonl",
        )
        tracemalloc.start()
        try:
            provider = ExternalVectorProvider.load(path)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 200 tuples of 768 floats take 4.7 MiB; as dicts they took 13.3 MiB.
        assert held < 6 * 2**20, held
        for i in (0, 199):
            assert provider.vector(f"v{i}") == EmbeddingVector.from_values(rows[i])

    def test_malformed_values_rejected(self, write_jsonl):
        # A bool is not a number here; the last is an integer too large for
        # a float.
        malformed = (["x"], [1.0, True], [1.0, float("nan")], [float("-inf"), 0.5], [10**400])
        for values in malformed:
            path = write_jsonl(
                [{"id": "b", "values": [1.0]}, {"id": "a", "values": values}],
                name="v.jsonl",
            )
            with pytest.raises(EmbeddingError, match=r"v\.jsonl:2: values"):
                ExternalVectorProvider.load(path)


class TestRankReferences:
    @staticmethod
    def _fixture():
        focal = LabeledAbstract("f", "alpha beta gamma")
        refs = [
            LabeledAbstract("a", "alpha beta gamma delta"),
            LabeledAbstract("b", "alpha beta"),
            LabeledAbstract("c", "unrelated words entirely"),
        ]
        return focal, refs

    @staticmethod
    def _rank(focal, refs, spans_for, provider):
        """rank_references over the vectors of each record's text, before and
        after cleaning it with its spans in ``spans_for`` (none if absent)."""
        records = [focal, *refs]
        before = {r.id: provider.vector(r.text) for r in records}
        after = {
            r.id: provider.vector(clean_text(r.text, spans_for.get(r.id, [])))
            for r in records
        }
        return rank_references(focal.id, [r.id for r in refs], before, after)

    def test_no_spans_means_no_change(self):
        focal, refs = self._fixture()
        delta = self._rank(focal, refs, {}, BuiltinProvider(dimension=64))
        assert not delta.changed
        assert not delta.top1_changed
        assert delta.displacement == 0
        assert delta.order_before == delta.order_after

    def test_orders_are_permutations(self):
        focal, refs = self._fixture()
        spans_for = {"a": [Span(0, 5)], "f": [Span(0, 5)]}
        delta = self._rank(focal, refs, spans_for, BuiltinProvider(dimension=64))
        assert sorted(delta.order_before) == sorted(delta.order_after) == ["a", "b", "c"]

    def test_ties_break_by_ascending_id(self):
        focal = LabeledAbstract("f", "alpha beta")
        refs = [
            LabeledAbstract("r2", "alpha beta"),
            LabeledAbstract("r1", "alpha beta"),
        ]
        delta = self._rank(focal, refs, {}, BuiltinProvider(dimension=64))
        assert delta.order_before == ("r1", "r2")

    def test_needs_two_references(self):
        focal, refs = self._fixture()
        with pytest.raises(EmbeddingError, match="at least 2"):
            self._rank(focal, refs[:1], {}, BuiltinProvider(dimension=8))

    def test_focal_among_refs_rejected(self):
        focal, refs = self._fixture()
        with pytest.raises(EmbeddingError, match="unique"):
            self._rank(focal, [focal, *refs], {}, BuiltinProvider(dimension=8))

    def test_external_provider_uses_cleaned_suffix(self, write_jsonl):
        path = write_jsonl(
            [
                {"id": "f", "values": [1.0, 0.0]},
                {"id": "f::cleaned", "values": [0.0, 1.0]},
                {"id": "a", "values": [1.0, 0.1]},
                {"id": "a::cleaned", "values": [0.1, 1.0]},
                {"id": "b", "values": [0.5, 0.5]},
                {"id": "b::cleaned", "values": [0.9, 0.1]},
            ],
            name="v.jsonl",
        )
        provider = ExternalVectorProvider.load(path)
        ids = ["f", "a", "b"]
        before = {i: provider.vector(i) for i in ids}
        after = {i: provider.vector(i + CLEANED_ID_SUFFIX) for i in ids}
        delta = rank_references("f", ["a", "b"], before, after)
        assert delta.order_before == ("a", "b")
        assert delta.order_after == ("a", "b")
        assert not delta.changed

    def test_ranks_the_vectors_it_is_given(self):
        """Ranking is a function of the two vector maps alone."""
        before = {"f": vec(1, 0), "a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 1)}
        after = {"f": vec(0, 1), "a": vec(1, 0), "b": vec(0, 1), "c": vec(1, 1)}
        delta = rank_references("f", ["b", "a", "c"], before, after)
        assert delta.order_before == ("a", "c", "b")
        assert delta.order_after == ("b", "c", "a")
        assert delta.cosines_before == {"b": 0.0, "a": 1.0, "c": cosine(vec(1, 0), vec(1, 1))}
        assert list(delta.cosines_after) == ["b", "a", "c"]
        assert delta.changed and delta.top1_changed
        assert delta.displacement == 4

    def test_deterministic_across_runs(self):
        focal, refs = self._fixture()
        provider = BuiltinProvider(dimension=32)
        d1 = self._rank(focal, refs, {}, provider)
        d2 = self._rank(focal, refs, {}, provider)
        assert d1 == d2
