"""Reading, writing and summarizing corpora of labeled abstracts.

The on-disk format is UTF-8 JSON Lines, one record per line::

    {"id": "a1", "text": "...", "spans": [{"start": 0, "end": 12, "label": "REM"}],
     "meta": {"year": 2019, "fields": ["Medicine"], "source": "crawl-2024"}}

``meta`` and all of its keys are optional. Span offsets are half-open Unicode
scalar-value indices into ``text``. Two schemas are supported:

* ``gold``: spans must be in bounds, sorted and pairwise disjoint; any
  violation is a hard error naming the offending record.
* ``predictions``: lenient ingestion for cleaner/model output. Overlapping
  spans are resolved with :func:`declutter.textspan.filter_spans` and bounds
  are not checked here (they are checked when joined with their text).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import CorpusError, DeclutterError
from .textspan import Span, ensure_finalized, filter_spans

_SCHEMAS = ("gold", "predictions")


@dataclass(frozen=True)
class AbstractMeta:
    """Optional publication metadata used for corpus stratification."""

    year: int | None = None
    fields: tuple[str, ...] = ()
    source: str | None = None

    def __post_init__(self) -> None:
        if self.year is not None and not 1900 <= self.year <= 2100:
            raise ValueError(f"year {self.year} outside [1900, 2100]")
        object.__setattr__(self, "fields", tuple(self.fields))

    @property
    def is_empty(self) -> bool:
        return self.year is None and not self.fields and self.source is None


@dataclass(frozen=True)
class LabeledAbstract:
    """An abstract plus its labeled removal spans (gold or predicted). It is
    checked when :func:`load_corpus` reads it, not when code builds it."""

    id: str
    text: str
    spans: tuple[Span, ...] = ()
    meta: AbstractMeta = field(default_factory=AbstractMeta)


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level counts and shares; shares are unrounded percentages."""

    total: int
    by_field: dict[str, tuple[int, float]]
    by_year: dict[int, tuple[int, float]]
    labeled_count: int


def _parse_span(raw: object, where: str) -> Span:
    if not isinstance(raw, dict):
        raise CorpusError(f"{where}: span must be an object, got {type(raw).__name__}")
    start, end = raw.get("start"), raw.get("end")
    label = raw.get("label")
    if type(start) is not int or type(end) is not int:
        raise CorpusError(f"{where}: span start/end must be integers")
    if not isinstance(label, str) or not label:
        raise CorpusError(f"{where}: span label must be a non-empty string")
    try:
        return Span(start, end, label)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def _parse_meta(raw: object, where: str) -> AbstractMeta:
    if raw is None:
        return AbstractMeta()
    if not isinstance(raw, dict):
        raise CorpusError(f"{where}: meta must be an object")
    year = raw.get("year")
    if year is not None and type(year) is not int:
        raise CorpusError(f"{where}: meta.year must be an integer")
    fields = raw.get("fields") or []
    if not isinstance(fields, list) or not all(isinstance(f, str) for f in fields):
        raise CorpusError(f"{where}: meta.fields must be a list of strings")
    source = raw.get("source")
    if source is not None and not isinstance(source, str):
        raise CorpusError(f"{where}: meta.source must be a string")
    try:
        return AbstractMeta(year=year, fields=tuple(fields), source=source)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def _record_from_obj(obj: object, schema: str, where: str) -> LabeledAbstract:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: record must be a JSON object")
    rec_id = obj.get("id")
    text = obj.get("text")
    if not isinstance(rec_id, str) or not rec_id:
        raise CorpusError(f"{where}: id must be a non-empty string")
    if not isinstance(text, str):
        raise CorpusError(f"{where}: text must be a string")
    raw_spans = obj.get("spans")
    if not isinstance(raw_spans, list):
        raise CorpusError(f"{where}: spans must be a list")
    spans = [_parse_span(s, where) for s in raw_spans]
    meta = _parse_meta(obj.get("meta"), where)

    if schema == "predictions":
        spans = filter_spans(spans)
    else:
        try:
            ensure_finalized(spans, len(text))
        except ValueError as exc:
            raise CorpusError(f"{where}: record {rec_id!r}: {exc}") from exc
    return LabeledAbstract(rec_id, text, tuple(spans), meta)


def iter_jsonl(
    path: str, error: type[DeclutterError]
) -> Iterator[tuple[str, object]]:
    """Yield ``(where, obj)`` for each non-blank line of a JSON Lines file,
    ``where`` being ``"{path}:{line}"``; a line that is not JSON raises
    ``error`` naming it."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: malformed line: {exc}") from exc
            yield where, obj


def load_corpus(path: str, schema: str = "gold") -> list[LabeledAbstract]:
    """Load a JSONL corpus, enforcing the invariants of the given schema.

    Any malformed line or invariant violation (out-of-bounds span, overlapping
    gold spans, duplicate id) raises :class:`CorpusError` naming the offending
    line; no partial corpus is ever returned.
    """
    if schema not in _SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {_SCHEMAS}")
    records: list[LabeledAbstract] = []
    seen: set[str] = set()
    for where, obj in iter_jsonl(path, CorpusError):
        record = _record_from_obj(obj, schema, where)
        if record.id in seen:
            raise CorpusError(f"{where}: duplicate id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def _record_to_obj(record: LabeledAbstract) -> dict:
    obj: dict = {
        "id": record.id,
        "text": record.text,
        "spans": [
            {"start": s.start, "end": s.end, "label": s.label} for s in record.spans
        ],
    }
    meta: dict = {}
    if record.meta.year is not None:
        meta["year"] = record.meta.year
    if record.meta.fields:
        meta["fields"] = list(record.meta.fields)
    if record.meta.source is not None:
        meta["source"] = record.meta.source
    if meta:
        obj["meta"] = meta
    return obj


def save_corpus(records: Iterable[LabeledAbstract], path: str) -> None:
    """Write records as JSON Lines; loading the file back reproduces them
    exactly, and re-saving yields byte-identical output."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(_record_to_obj(record), ensure_ascii=False))
            fh.write("\n")


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
        if record.meta.year is not None:
            year_counts[record.meta.year] += 1
        for name in dict.fromkeys(record.meta.fields):
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
