"""Reading, writing and summarizing corpora of labeled abstracts.

The on-disk format is UTF-8 JSON Lines, one record per line::

    {"id": "a1", "text": "...", "spans": [{"start": 0, "end": 12, "label": "REM"}],
     "meta": {"year": 2019, "fields": ["Medicine"], "source": "crawl-2024"}}

``meta`` and all of its keys are optional. ``year``, ``fields`` and ``source``
are checked, and every key, these or any other, passes through loading and
saving unchanged. Span offsets are half-open Unicode scalar-value indices
into ``text``. Two schemas are supported:

* ``gold``: spans must be in bounds, sorted and pairwise disjoint; any
  violation is a hard error naming the offending record.
* ``predictions``: lenient ingestion for cleaner/model output. The spans
  are replaced by their union, :func:`declutter.textspan.filter_spans`, and
  bounds are not checked here (they are checked when joined with their
  text).

:func:`iter_checked` is the one reader that checks records: it yields each
record's input line and JSON object beside its checked fields, so ``clean``
can copy an untouched record as it was read. :func:`iter_records` yields the
fields alone, as a plain tuple, so a caller that keeps one field builds no
record, and :func:`load_corpus` is the list of records built from them.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CorpusError, DeclutterError
from .textspan import Span, ensure_finalized, filter_spans

_SCHEMAS = ("gold", "predictions")

# Every JSON line the package writes, less its terminator: records, eval
# report rows, ranking deltas. One encoder serves every line; dumps with
# ensure_ascii=False would build a new one per call.
json_line = json.JSONEncoder(ensure_ascii=False).encode


@dataclass(frozen=True)
class LabeledAbstract:
    """An abstract plus its labeled removal spans (gold or predicted) and its
    JSON ``meta`` object (``{}`` when absent). It is checked when
    :func:`load_corpus` reads it, not when code builds it."""

    id: str
    text: str
    spans: tuple[Span, ...] = ()
    meta: dict = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level counts and shares; shares are unrounded percentages."""

    total: int
    by_field: dict[str, tuple[int, float]]
    by_year: dict[int, tuple[int, float]]
    labeled_count: int


def _parse_span(raw: object) -> Span:
    if not isinstance(raw, dict):
        raise CorpusError(f"span must be an object, got {type(raw).__name__}")
    start, end = raw.get("start"), raw.get("end")
    label = raw.get("label")
    if type(start) is not int or type(end) is not int:
        raise CorpusError("span start/end must be integers")
    if not isinstance(label, str) or not label:
        raise CorpusError("span label must be a non-empty string")
    try:
        return Span(start, end, label)
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc


def _parse_meta(raw: object) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise CorpusError("meta must be an object")
    year = raw.get("year")
    if year is not None and type(year) is not int:
        raise CorpusError("meta.year must be an integer")
    fields = raw.get("fields")
    if fields is not None and (
        not isinstance(fields, list) or not all(map(isinstance, fields, repeat(str)))
    ):
        raise CorpusError("meta.fields must be a list of strings")
    source = raw.get("source")
    if source is not None and not isinstance(source, str):
        raise CorpusError("meta.source must be a string")
    if year is not None and not 1900 <= year <= 2100:
        raise CorpusError(f"year {year} outside [1900, 2100]")
    return raw


def iter_jsonl(
    path: str, error: type[DeclutterError]
) -> Iterator[tuple[int, str, object]]:
    """Yield ``(line_number, line, obj)`` for each non-blank line of a JSON
    Lines file, ``line`` as text-mode reading gives it, terminator included.
    A line that is not UTF-8, not JSON, or holds a lone surrogate escape
    (``"\\ud800"``, which no UTF-8 output can hold) raises ``error`` naming
    it as ``"{path}:{line}"``.

    A line that is one JSON value followed by JSON whitespace costs one call
    of the decoder's scanner, which json.loads would make at the same place
    with the same result. Any other line (blank, padded, malformed) goes to
    json.loads, for its verdict and its exact message. The decoder's other
    failures, an integer too long to convert or nesting deeper than the
    recursion limit, are malformed lines too.
    """
    scan = json.JSONDecoder().scan_once
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj, end = scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end < 0 or line[end:].strip(" \t\n\r"):
                    if not line.strip():
                        continue
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        raise error(f"{path}:{lineno}: malformed line: {exc}") from exc
                # A one-character search is the fast test: most lines hold
                # no escape at all.
                if "\\" in line and ("\\ud" in line or "\\uD" in line):
                    try:
                        json_line(obj).encode("utf-8")
                    except UnicodeEncodeError as exc:
                        code = ord(exc.object[exc.start])
                        raise error(
                            f"{path}:{lineno}: lone surrogate U+{code:04X}"
                        ) from None
                yield lineno, line, obj
        except UnicodeDecodeError:
            raise utf8_error(path, Path(path), error) from None


def utf8_error(where: str, file, error: type[DeclutterError]) -> DeclutterError:
    """``error`` naming, as ``where``, the first line of ``file`` (a
    :class:`~pathlib.Path` or a package resource) that is not UTF-8, and its
    first undecodable byte. Lines are counted as text-mode reading counts
    them."""
    with file.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            for ch in line:
                if "\udc80" <= ch <= "\udcff":
                    byte = ord(ch) - 0xDC00
                    return error(f"{where}:{lineno}: not UTF-8 (byte 0x{byte:02X})")
    return error(f"{where}: not UTF-8")


def iter_checked(
    path: str, schema: str = "gold"
) -> Iterator[tuple[str, dict, tuple[str, str, tuple[Span, ...], dict]]]:
    """Yield ``(line, obj, (id, text, spans, meta))`` for each record of a
    JSONL corpus, in file order: its line as :func:`iter_jsonl` read it, its
    JSON object, and its fields checked against the invariants of
    ``schema``.

    A malformed line or an invariant violation (out-of-bounds span,
    overlapping gold spans, duplicate id) raises :class:`CorpusError` naming
    the line, when the iteration reaches it."""
    if schema not in _SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {_SCHEMAS}")
    seen: set[str] = set()
    for lineno, line, obj in iter_jsonl(path, CorpusError):
        try:
            if not isinstance(obj, dict):
                raise CorpusError("record must be a JSON object")
            rec_id = obj.get("id")
            text = obj.get("text")
            if not isinstance(rec_id, str) or not rec_id:
                raise CorpusError("id must be a non-empty string")
            if not isinstance(text, str):
                raise CorpusError("text must be a string")
            raw_spans = obj.get("spans")
            if not isinstance(raw_spans, list):
                raise CorpusError("spans must be a list")
            spans = list(map(_parse_span, raw_spans))
            meta = _parse_meta(obj.get("meta"))
            if schema == "gold":
                try:
                    ensure_finalized(spans, len(text))
                except ValueError as exc:
                    raise CorpusError(f"record {rec_id!r}: {exc}") from exc
            elif spans:
                spans = filter_spans(spans)
            if rec_id in seen:
                raise CorpusError(f"duplicate id {rec_id!r}")
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        seen.add(rec_id)
        yield line, obj, (rec_id, text, tuple(spans), meta)


def iter_records(
    path: str, schema: str = "gold"
) -> Iterator[tuple[str, str, tuple[Span, ...], dict]]:
    """The ``(id, text, spans, meta)`` of each record :func:`iter_checked`
    yields, with its checks and its errors."""
    return map(itemgetter(2), iter_checked(path, schema))


def load_corpus(path: str, schema: str = "gold") -> list[LabeledAbstract]:
    """The records :func:`iter_records` yields, as a list; no partial corpus
    is ever returned."""
    return [LabeledAbstract(*fields) for fields in iter_records(path, schema)]


def record_line(obj: dict) -> str:
    """The JSON line, less its terminator, of the record object ``obj``
    whose ``spans`` are :class:`Span` s. Every key keeps its place, and each
    span is written as ``{"start", "end", "label"}``."""
    spans = [{"start": s.start, "end": s.end, "label": s.label} for s in obj["spans"]]
    return json_line({**obj, "spans": spans})


def save_corpus(records: Iterable[LabeledAbstract | str], path: str) -> None:
    """Write records as JSON Lines, one per line. A :class:`LabeledAbstract`
    is encoded by :func:`record_line`, ``meta`` left out when empty: loading
    the file back reproduces it exactly, and re-saving yields byte-identical
    output. A ``str`` is a record already encoded as one JSON line, without
    its terminator, and goes out as it is.

    If writing fails, the partial output is removed when ``path`` names a
    regular file; anything else (``/dev/stdout``, a pipe, a symlink) is left
    alone. A record that UTF-8 cannot hold raises :class:`CorpusError`
    naming it.
    """
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            for lineno, record in enumerate(records, start=1):
                if isinstance(record, str):
                    line = record
                else:
                    meta = {"meta": record.meta} if record.meta else {}
                    line = record_line(
                        {"id": record.id, "text": record.text, "spans": record.spans, **meta}
                    )
                try:
                    fh.write(line)
                except UnicodeEncodeError as exc:
                    code = ord(exc.object[exc.start])
                    name = (
                        f"line {lineno}" if isinstance(record, str)
                        else f"record {record.id!r}"
                    )
                    raise CorpusError(f"{path}: {name}: lone surrogate U+{code:04X}") from None
                fh.write("\n")
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


def compute_stats(records: Sequence[LabeledAbstract]) -> CorpusStats:
    """Count records per field and per year, with shares relative to the
    whole corpus.

    A record counts once per distinct field it lists, so field counts may sum
    to more than the total; records without a year are left out of ``by_year``
    but still count toward ``total``. Fields are ordered by descending count
    (name breaks ties), years ascending.
    """
    total = len(records)
    field_counts: Counter[str] = Counter()
    year_counts: Counter[int] = Counter()
    labeled = 0
    for record in records:
        if record.spans:
            labeled += 1
        year = record.meta.get("year")
        if year is not None:
            year_counts[year] += 1
        for name in dict.fromkeys(record.meta.get("fields") or ()):
            field_counts[name] += 1

    def share(count: int) -> float:
        return 100.0 * count / total if total else 0.0

    by_field = {
        name: (count, share(count))
        for name, count in sorted(field_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    }
    by_year = {
        year: (count, share(count)) for year, count in sorted(year_counts.items())
    }
    return CorpusStats(
        total=total, by_field=by_field, by_year=by_year, labeled_count=labeled
    )
