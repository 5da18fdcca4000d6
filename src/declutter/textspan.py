"""Span algebra over character offsets: overlap filtering, tokenization, and
clutter removal by string slicing.

All offsets are Unicode scalar-value indices into the source string (i.e.
plain Python string indices), and all spans are half-open ``[start, end)``.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable

REM_LABEL = "REM"


@dataclass(frozen=True)
class Span:
    """A labeled half-open character interval."""

    start: int
    end: int
    label: str = REM_LABEL

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"invalid span [{self.start}, {self.end}): need 0 <= start < end"
            )


@dataclass(frozen=True)
class TokenMap:
    """Token offsets of a source string: token ``i`` is
    ``source[starts[i]:ends[i]]``. Both offset tuples are increasing, so
    :func:`tokens_under` can bisect them."""

    source: str
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    @property
    def source_length(self) -> int:
        return len(self.source)

    def __len__(self) -> int:
        return len(self.starts)


def filter_spans(spans: Iterable[Span]) -> list[Span]:
    """Resolve overlapping spans greedily: longest first, earlier start on ties.

    A candidate is kept iff it overlaps no already-kept span; kept spans are
    returned sorted by start. Duplicates and overlaps in the input are fine.
    The result always satisfies the finalized-set invariant (sorted, pairwise
    disjoint) and the operation is idempotent.
    """
    candidates = sorted(spans, key=lambda s: (-(s.end - s.start), s.start))
    kept: list[Span] = []
    kept_starts: list[int] = []
    for span in candidates:
        # Kept spans are disjoint and sorted, so the one starting last before
        # span.end also ends last: it is the only one that can overlap.
        i = bisect_left(kept_starts, span.end)
        if i == 0 or kept[i - 1].end <= span.start:
            kept.insert(i, span)
            kept_starts.insert(i, span.start)
    return kept


def ensure_finalized(spans: Iterable[Span], length: int) -> list[Span]:
    """Check that spans are sorted, pairwise disjoint and inside ``[0, length]``.

    Returns the spans as a list; raises ValueError on the first violation.
    """
    checked: list[Span] = []
    prev_end = 0
    for span in spans:
        if span.start < prev_end:
            raise ValueError(
                f"overlapping or unsorted spans at [{span.start}, {span.end})"
            )
        if span.end > length:
            raise ValueError(
                f"span out of bounds: [{span.start}, {span.end}) "
                f"over text of length {length}"
            )
        prev_end = span.end
        checked.append(span)
    return checked


def clean_text(text: str, spans: Iterable[Span]) -> str:
    """Remove a finalized span set from ``text`` by character slicing.

    The slices between spans are concatenated in order and the result is
    stripped of leading/trailing whitespace. Removing everything would destroy
    the abstract, so an empty result falls back to the original, unmodified
    text. With no spans at all the stripped original is returned.
    """
    spans = list(spans)
    if not spans:
        return text.strip()
    ensure_finalized(spans, len(text))
    parts = []
    last = 0
    for span in spans:
        parts.append(text[last : span.start])
        last = span.end
    parts.append(text[last:])
    cleaned = "".join(parts).strip()
    return cleaned if cleaned else text


# Punctuation means Unicode categories P*. The pattern knows only the ASCII
# ones; tokenize() stands "." in for the non-ASCII ones of each text, which
# keeps offsets and follows the interpreter's Unicode version. (A class of all
# of P* takes 0.25 s to build at import, and sre scans its ranges beyond the
# BMP linearly.) A token is one punctuation character, or the run of a
# whitespace-free chunk from its first to its last non-punctuation character.
_ASCII_PUNCT = "".join(
    c for c in map(chr, range(128)) if unicodedata.category(c).startswith("P")
)
_P = re.escape(_ASCII_PUNCT)
_TOKEN_RE = re.compile(rf"[{_P}]|[^\s{_P}](?:\S*[^\s{_P}])?")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def tokenize(text: str) -> TokenMap:
    """Split on Unicode whitespace, then detach leading/trailing punctuation.

    Each detached punctuation character becomes a single-character token, so
    ``"Fig. 1)"`` yields ``Fig`` ``.`` ``1`` ``)``. Punctuation means Unicode
    categories ``P*``; symbols such as the copyright sign stay attached.
    Offsets index into the source text.

    The text is split on U+0020 first. A piece for which ``str.isalnum()``
    holds has no whitespace and no ``P*`` character, so it is exactly one
    token; only the other pieces (punctuation, tabs, other spaces) go through
    the regex, which gives the same offsets it gives on the whole text.
    """
    masked = text
    if not text.isascii():
        punct = [
            ord(c)
            for c in set(_NON_ASCII_RE.findall(text))
            if unicodedata.category(c).startswith("P")
        ]
        if punct:  # translate costs ~100 ns a character, so only when needed
            masked = text.translate(dict.fromkeys(punct, "."))
    starts: list[int] = []
    ends: list[int] = []
    pos = 0
    for piece in masked.split(" "):
        end = pos + len(piece)
        if piece.isalnum():
            starts.append(pos)
            ends.append(end)
        elif piece:
            for match in _TOKEN_RE.finditer(masked, pos, end):
                starts.append(match.start())
                ends.append(match.end())
        pos = end + 1
    return TokenMap(text, tuple(starts), tuple(ends))


def token_strings(text: str) -> list[str]:
    """The tokens :func:`tokenize` finds in ``text``, as strings and without
    their offsets: a bag of words, alphanumeric pieces first.

    An alphanumeric piece of ``text.split(" ")`` is one token as it stands,
    and tokenize() finds the same tokens in the other pieces joined by
    ``" "`` as in ``text`` itself (see its docstring), so only those go
    through it.
    """
    pieces = text.split(" ")
    rest = " ".join(filterfalse(str.isalnum, pieces))
    tokens = tokenize(rest)
    words = list(filter(str.isalnum, pieces))
    words.extend(map(rest.__getitem__, map(slice, tokens.starts, tokens.ends)))
    return words


def tokens_under(spans: Iterable[Span], token_map: TokenMap) -> set[int]:
    """Indices of tokens overlapping any span by at least one character."""
    starts, ends = token_map.starts, token_map.ends
    covered: set[int] = set()
    for span in spans:
        # Tokens ending after span.start up to those starting before span.end.
        covered.update(
            range(bisect_right(ends, span.start), bisect_left(starts, span.end))
        )
    return covered
