import hashlib
import math

import pytest

from declutter.corpus import LabeledAbstract
from declutter.embedding import (
    BuiltinProvider,
    EmbeddingVector,
    ExternalVectorProvider,
    cosine,
    rank_references,
)
from declutter.errors import EmbeddingError
from declutter.textspan import Span


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
            assert list(got.values) == pytest.approx(oracle_vector(text, 8), abs=1e-12)


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
        scaled = vec(*(3.7 * x for x in b.values))
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
        assert provider.dimension == 2
        assert provider.vector("ignored", "a").values == (1.0, 0.0)

    def test_missing_id(self, write_jsonl):
        provider = ExternalVectorProvider.load(
            write_jsonl([{"id": "a", "values": [1.0]}], name="v.jsonl")
        )
        with pytest.raises(EmbeddingError, match="no ingested vector"):
            provider.vector("x", "zzz")

    def test_dimension_mismatch_rejected(self, write_jsonl):
        path = write_jsonl(
            [{"id": "a", "values": [1.0]}, {"id": "b", "values": [1.0, 2.0]}],
            name="v.jsonl",
        )
        with pytest.raises(EmbeddingError, match="dimension"):
            ExternalVectorProvider.load(path)

    def test_malformed_values_rejected(self, write_jsonl):
        # The last is an integer too large for a float.
        for values in (["x"], [1.0, float("nan")], [float("-inf"), 0.5], [10**400]):
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

    def test_no_spans_means_no_change(self):
        focal, refs = self._fixture()
        delta = rank_references(focal, refs, {}, BuiltinProvider(dimension=64))
        assert not delta.changed
        assert not delta.top1_changed
        assert delta.displacement == 0
        assert delta.order_before == delta.order_after

    def test_orders_are_permutations(self):
        focal, refs = self._fixture()
        spans_for = {"a": [Span(0, 5)], "f": [Span(0, 5)]}
        delta = rank_references(focal, refs, spans_for, BuiltinProvider(dimension=64))
        assert sorted(delta.order_before) == sorted(delta.order_after) == ["a", "b", "c"]

    def test_ties_break_by_ascending_id(self):
        focal = LabeledAbstract("f", "alpha beta")
        refs = [
            LabeledAbstract("r2", "alpha beta"),
            LabeledAbstract("r1", "alpha beta"),
        ]
        delta = rank_references(focal, refs, {}, BuiltinProvider(dimension=64))
        assert delta.order_before == ("r1", "r2")

    def test_needs_two_references(self):
        focal, refs = self._fixture()
        with pytest.raises(EmbeddingError, match="at least 2"):
            rank_references(focal, refs[:1], {}, BuiltinProvider(dimension=8))

    def test_focal_among_refs_rejected(self):
        focal, refs = self._fixture()
        with pytest.raises(EmbeddingError, match="unique"):
            rank_references(focal, [focal, *refs], {}, BuiltinProvider(dimension=8))

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
        focal = LabeledAbstract("f", "whatever")
        refs = [LabeledAbstract("a", "x"), LabeledAbstract("b", "y")]
        delta = rank_references(focal, refs, {}, provider)
        assert delta.order_before == ("a", "b")
        assert delta.order_after == ("a", "b")
        assert not delta.changed

    def test_deterministic_across_runs(self):
        focal, refs = self._fixture()
        provider = BuiltinProvider(dimension=32)
        d1 = rank_references(focal, refs, {}, provider)
        d2 = rank_references(focal, refs, {}, provider)
        assert d1 == d2
