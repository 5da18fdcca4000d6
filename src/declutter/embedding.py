"""Deterministic text embeddings and before/after similarity-ranking deltas.

The built-in provider is a hashed bag-of-words model: lowercased tokens are
hashed into a fixed number of signed buckets, weighted ``1 + ln(tf)`` and
L2-normalized, and only the buckets a text touches are stored. It is
model-free and bit-reproducible across runs, which is all the
ranking-comparison protocol needs; externally computed vectors (from any
encoder) can be ingested instead for fidelity.

Hash function, for reimplementors: ``H`` is the big-endian integer of
``blake2b(token_utf8, digest_size=8)``; the bucket is ``H % dim`` and the
sign is ``+1`` when ``(H >> 32) & 1 == 0`` else ``-1``.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul, truediv
from typing import Collection, Iterable, Mapping, Sequence

from .corpus import LabeledAbstract, iter_jsonl
from .errors import EmbeddingError
from .textspan import Span, clean_text, tokenize

DEFAULT_DIMENSION = 768

# Id suffix under which externally computed vectors of *cleaned* texts are
# stored in a vector file.
CLEANED_ID_SUFFIX = "::cleaned"


@dataclass(frozen=True)
class EmbeddingVector:
    """A sparse real vector with its Euclidean norm cached.

    ``entries`` maps index to value in ascending index order; an index it
    lacks holds 0.0. Every index lies in ``range(dimension)``.
    """

    dimension: int
    entries: dict[int, float]
    norm: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "EmbeddingVector":
        """The vector of a dense value list, zeros included."""
        entries = dict(enumerate(map(float, values)))
        return cls(len(entries), entries, _norm(entries.values()))


# Sparse sums equal dense ones bit for bit as long as they visit the stored
# entries in ascending index order: an absent entry's square or product is a
# zero, and adding a zero leaves a float sum as it was. That holds for the
# compensated sum() of Python 3.12+ too: with s the running sum and c its
# compensation, s + 0.0 == s, so c gains (s - s) + 0.0 == 0.0.
def _norm(values: Collection[float]) -> float:
    return math.sqrt(sum(map(mul, values, values)))


def _bucket_sign(token: str, dim: int) -> tuple[int, float]:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "big")
    return h % dim, 1.0 if (h >> 32) & 1 == 0 else -1.0


class BuiltinProvider:
    """Hashed bag-of-words embeddings; see the module docstring for the exact
    hash and weighting. Immutable after construction and safe to share."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise EmbeddingError("dimension must be >= 1")
        self._dimension = dimension

    def vector(self, text: str, doc_id: str | None = None) -> EmbeddingVector:
        tokens = tokenize(text)
        pieces = map(text.__getitem__, map(slice, tokens.starts, tokens.ends))
        counts = Counter(map(str.lower, pieces))
        buckets: dict[int, float] = {}
        # Sorted iteration keeps float accumulation order platform-independent.
        for token, count in sorted(counts.items()):
            bucket, sign = _bucket_sign(token, self._dimension)
            buckets[bucket] = buckets.get(bucket, 0.0) + sign * (1.0 + math.log(count))
        entries = dict(sorted(buckets.items()))
        norm = _norm(entries.values())
        if norm > 0.0:
            entries = dict(zip(entries, map(truediv, entries.values(), repeat(norm))))
        # The norm of the normalized entries, not 1.0: it is within rounding
        # of 1, and every cosine depends on it bit for bit.
        return EmbeddingVector(self._dimension, entries, _norm(entries.values()))


def _finite_floats(values: object) -> list[float] | None:
    """``values`` as floats if it is a non-empty list of finite JSON numbers,
    else None. json.loads accepts NaN and Infinity, either of which makes
    every cosine NaN, and integers of any size, which a float cannot hold."""
    if not isinstance(values, list) or not values:
        return None
    if not {int, float}.issuperset(map(type, values)):
        return None
    try:
        floats = list(map(float, values))
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


class ExternalVectorProvider:
    """Vectors precomputed elsewhere, keyed by record id.

    The file is JSON Lines, one ``{"id": ..., "values": [...]}`` object per
    line; all vectors must share one dimension. Vectors of cleaned texts are
    stored under ``<id>::cleaned``.
    """

    def __init__(self, vectors: Mapping[str, EmbeddingVector]):
        dims = {v.dimension for v in vectors.values()}
        if len(dims) > 1:
            raise EmbeddingError(f"inconsistent vector dimensions: {sorted(dims)}")
        self._vectors = dict(vectors)

    @classmethod
    def load(cls, path: str) -> "ExternalVectorProvider":
        vectors: dict[str, EmbeddingVector] = {}
        for where, obj in iter_jsonl(path, EmbeddingError):
            if not isinstance(obj, dict):
                raise EmbeddingError(f"{where}: record must be a JSON object")
            vec_id = obj.get("id")
            if not isinstance(vec_id, str) or not vec_id:
                raise EmbeddingError(f"{where}: id must be a non-empty string")
            values = _finite_floats(obj.get("values"))
            if values is None:
                raise EmbeddingError(
                    f"{where}: values must be a non-empty list of finite numbers"
                )
            if vec_id in vectors:
                raise EmbeddingError(f"{where}: duplicate id {vec_id!r}")
            vectors[vec_id] = EmbeddingVector.from_values(values)
        return cls(vectors)

    def vector(self, text: str, doc_id: str | None = None) -> EmbeddingVector:
        if doc_id is None or doc_id not in self._vectors:
            raise EmbeddingError(f"no ingested vector for id {doc_id!r}")
        return self._vectors[doc_id]


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity; zero-norm vectors and dimension mismatches are
    errors rather than silent zeros."""
    if a.dimension != b.dimension:
        raise EmbeddingError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    if a.norm == 0.0 or b.norm == 0.0:
        raise EmbeddingError("cosine undefined for zero-norm embedding")
    x, y = a.entries, b.entries
    if len(x) == len(y) == a.dimension:
        # Both hold every index, in ascending order: external vectors do.
        dot = sum(map(mul, x.values(), y.values()))
    else:
        if len(y) < len(x):
            x, y = y, x
        # The shared indices, ascending; see _norm for why the others add
        # nothing.
        shared = list(filter(y.__contains__, x))
        dot = sum(map(mul, map(x.__getitem__, shared), map(y.__getitem__, shared)))
    return dot / (a.norm * b.norm)


@dataclass(frozen=True)
class RankingDelta:
    """Before/after orderings of a focal document's references.

    Both orders are descending-cosine permutations of the same reference id
    set; cosine ties break by ascending id. ``displacement`` sums each
    reference's absolute rank shift.
    """

    focal_id: str
    order_before: tuple[str, ...]
    order_after: tuple[str, ...]
    cosines_before: dict[str, float]
    cosines_after: dict[str, float]
    changed: bool
    top1_changed: bool
    displacement: int


def rank_references(
    focal: LabeledAbstract,
    refs: Sequence[LabeledAbstract],
    spans_for: Mapping[str, Sequence[Span]],
    provider,
) -> RankingDelta:
    """Rank references by cosine to the focal document, before and after
    cleaning all texts with the spans in ``spans_for`` (ids without spans are
    cleaned with an empty set, i.e. only trimmed).

    With an external-vector provider the cleaned variants are looked up under
    ``<id>::cleaned``.
    """
    refs = list(refs)
    if len(refs) < 2:
        raise EmbeddingError("need at least 2 references to rank")
    ids = [r.id for r in refs]
    if len(set(ids)) != len(ids) or focal.id in ids:
        raise EmbeddingError("reference ids must be unique and differ from the focal id")

    def ordering(cosines: dict[str, float]) -> tuple[str, ...]:
        return tuple(sorted(ids, key=lambda i: (-cosines[i], i)))

    focal_before = provider.vector(focal.text, focal.id)
    cos_before = {
        r.id: cosine(focal_before, provider.vector(r.text, r.id)) for r in refs
    }
    focal_after = provider.vector(
        clean_text(focal.text, spans_for.get(focal.id, [])),
        focal.id + CLEANED_ID_SUFFIX,
    )
    cos_after = {
        r.id: cosine(
            focal_after,
            provider.vector(
                clean_text(r.text, spans_for.get(r.id, [])),
                r.id + CLEANED_ID_SUFFIX,
            ),
        )
        for r in refs
    }
    order_before = ordering(cos_before)
    order_after = ordering(cos_after)
    rank_before = {rid: i for i, rid in enumerate(order_before)}
    rank_after = {rid: i for i, rid in enumerate(order_after)}
    return RankingDelta(
        focal_id=focal.id,
        order_before=order_before,
        order_after=order_after,
        cosines_before=cos_before,
        cosines_after=cos_after,
        changed=order_before != order_after,
        top1_changed=order_before[0] != order_after[0],
        displacement=sum(abs(rank_before[i] - rank_after[i]) for i in ids),
    )
