import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from declutter.corpus import (
    LabeledAbstract,
    compute_stats,
    iter_records,
    load_corpus,
    save_corpus,
    utf8_error,
)
from declutter.embedding import EmbeddingVector, ExternalVectorProvider
from declutter.errors import CorpusError, EmbeddingError
from declutter.textspan import Span, ensure_finalized, filter_spans


def test_load_minimal_record(write_jsonl):
    path = write_jsonl([{"id": "a1", "text": "Hi.", "spans": []}])
    records = load_corpus(path)
    assert len(records) == 1
    assert records[0].id == "a1"
    assert records[0].text == "Hi."
    assert records[0].spans == ()
    assert records[0].meta == {}


def test_load_span_out_of_bounds(write_jsonl):
    path = write_jsonl(
        [{"id": "a1", "text": "abc", "spans": [{"start": 0, "end": 4, "label": "REM"}]}]
    )
    with pytest.raises(CorpusError, match="span out of bounds"):
        load_corpus(path)


def test_load_duplicate_id(write_jsonl):
    rec = {"id": "x", "text": "abc", "spans": []}
    path = write_jsonl([rec, rec])
    for schema in ("gold", "predictions"):
        with pytest.raises(CorpusError, match="duplicate id"):
            load_corpus(path, schema=schema)


def test_load_overlapping_gold_spans(write_jsonl):
    path = write_jsonl(
        [
            {
                "id": "a1",
                "text": "abcdefgh",
                "spans": [
                    {"start": 0, "end": 5, "label": "REM"},
                    {"start": 3, "end": 7, "label": "REM"},
                ],
            }
        ]
    )
    with pytest.raises(CorpusError, match="overlapping or unsorted"):
        load_corpus(path)


def test_load_malformed_line_reports_number(write_jsonl, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a1", "text": "ok", "spans": []}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r":2: malformed line"):
        load_corpus(str(path))


def test_lone_surrogate_escape_rejected_pairs_load(tmp_path):
    """A paired surrogate escape and an escaped backslash before 'ud' load; a
    lone surrogate escape, which no UTF-8 file can hold, names its line."""
    path = tmp_path / "c.jsonl"
    pair = r'{"id": "a", "text": "\ud83d\ude00 C:\\udata", "spans": []}' + "\n"
    path.write_text(pair, encoding="utf-8")
    assert load_corpus(str(path))[0].text == "\U0001F600 C:\\udata"
    path.write_text(
        pair + r'{"id": "b", "text": "x \uDFFF", "spans": []}' + "\n", encoding="utf-8"
    )
    with pytest.raises(CorpusError, match=r"c\.jsonl:2: lone surrogate U\+DFFF$"):
        load_corpus(str(path))


def test_load_rejects_bad_span_fields(write_jsonl):
    path = write_jsonl(
        [{"id": "a1", "text": "abc", "spans": [{"start": 0, "end": 2}]}]
    )
    with pytest.raises(CorpusError, match="label"):
        load_corpus(path)


def test_load_rejects_bad_year(write_jsonl):
    """Bad meta values are rejected by name; only a null or missing
    ``fields`` means no fields, not any falsy value, and it loads as written."""
    for meta, expected in [
        ({"year": 1600}, "year"),
        *(({"fields": bad}, "meta.fields must be a list of strings")
          for bad in ("", 0, {}, False, "x", ["a", 1])),
    ]:
        path = write_jsonl([{"id": "a1", "text": "abc", "spans": [], "meta": meta}])
        with pytest.raises(CorpusError, match=expected):
            load_corpus(path)
    for meta in ({"fields": None}, {}):
        path = write_jsonl([{"id": "a1", "text": "abc", "spans": [], "meta": meta}])
        records = load_corpus(path)
        assert records[0].meta == meta
        assert compute_stats(records).by_field == {}


def test_loaded_record_is_hashable(write_jsonl):
    """``meta`` is a dict and takes no part in the hash, so a loaded record
    hashes as the same record without it."""
    path = write_jsonl([{
        "id": "a", "text": "abc", "spans": [{"start": 0, "end": 1, "label": "REM"}],
        "meta": {"year": 2020, "doi": "10.1/x", "fields": ["X"]},
    }])
    (record,) = load_corpus(path)
    assert hash(record) == hash(LabeledAbstract("a", "abc", record.spans))
    assert {record: 1}[record] == 1


def test_predictions_schema_filters_overlaps(write_jsonl):
    path = write_jsonl(
        [
            {
                "id": "p1",
                "text": "abcdefghij",
                "spans": [
                    {"start": 0, "end": 5, "label": "REM"},
                    {"start": 3, "end": 10, "label": "REM"},
                ],
            }
        ]
    )
    records = load_corpus(path, schema="predictions")
    assert records[0].spans == (Span(0, 5), Span(5, 10))


def test_predictions_schema_defers_bounds(write_jsonl):
    path = write_jsonl(
        [{"id": "p1", "text": "ab", "spans": [{"start": 5, "end": 9, "label": "REM"}]}]
    )
    records = load_corpus(path, schema="predictions")
    assert records[0].spans == (Span(5, 9),)


def test_non_ascii_offsets_are_scalar_indices(write_jsonl):
    # "μ-opioid" is eight scalar values: μ - o p i o i d
    text = "μ-opioid binding"
    path = write_jsonl(
        [{"id": "u1", "text": text, "spans": [{"start": 0, "end": 8, "label": "REM"}]}]
    )
    record = load_corpus(path)[0]
    assert record.text[record.spans[0].start : record.spans[0].end] == "μ-opioid"


def _random_record(rng: random.Random, idx: int) -> LabeledAbstract:
    alphabet = "abez μσπ量子🦊éß"
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        for _ in range(rng.randint(1, 20))
    ]
    text = " ".join(words)
    spans = []
    cursor = 0
    while cursor < len(text) - 2 and rng.random() < 0.4:
        start = rng.randint(cursor, len(text) - 2)
        end = rng.randint(start + 1, len(text))
        spans.append(Span(start, end))
        cursor = end
    fields = rng.sample(["Medicine", "Physics", "Economics"], rng.randint(0, 3))
    items = [
        ("year", rng.choice([None, 1970, 2018, 2024])),
        ("fields", rng.choice([None, fields])),
        ("source", rng.choice([None, "crawl-a", "μ-set"])),
        ("doi", "10.1/x"),
        ("journal", rng.choice(["J", "Ж μ", None])),
        ("pages", rng.choice([12, 0.5, True, [1, None], {"from": "e1"}])),
    ]
    # Any key may be missing, and the rest come in any order.
    items = [item for item in items if rng.random() < 0.7]
    rng.shuffle(items)
    return LabeledAbstract(f"r{idx:04d}", text, tuple(spans), dict(items))


def parent_gold_accepts(text, spans):
    """The two gold span checks that ensure_finalized replaced: every span in
    bounds, then every span starting at or after the previous one's end."""
    if any(span.end > len(text) for span in spans):
        return False
    prev_end = 0
    for span in spans:
        if span.start < prev_end:
            return False
        prev_end = span.end
    return True


def _random_gold_spans(rng, length):
    """Span lists mostly near a valid set: touching, ending at ``length``,
    overlapping, out of bounds, and now and then shuffled."""
    spans, cursor = [], 0
    for _ in range(rng.randint(0, 5)):
        start = max(0, cursor + rng.randint(-3, 4))
        end = start + rng.randint(1, 6)
        if start < length and rng.random() < 0.2:
            end = length
        spans.append({"start": start, "end": end, "label": rng.choice("AB")})
        cursor = end
    if rng.random() < 0.2:
        rng.shuffle(spans)
    return spans


def test_gold_loader_matches_parent_checks(tmp_path):
    rng = random.Random(20241018)
    verdicts = Counter()
    for i in range(1200):
        text = "".join(rng.choice("ab μ©") for _ in range(rng.randint(0, 24)))
        raw = _random_gold_spans(rng, len(text))
        rec_id = f"g{i}"
        lines = [
            json.dumps({"id": f"ok{k}", "text": "fine", "spans": []})
            for k in range(rng.randint(0, 2))
        ] + [""] * rng.randint(0, 1)
        lines.append(json.dumps({"id": rec_id, "text": text, "spans": raw}))
        path = tmp_path / f"{i}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spans = [Span(s["start"], s["end"], s["label"]) for s in raw]
        want = parent_gold_accepts(text, spans)
        verdicts[want] += 1
        try:
            record = load_corpus(str(path))[-1]
        except CorpusError as exc:
            assert not want, (text, raw)
            assert str(exc).startswith(f"{path}:{len(lines)}: record {rec_id!r}: ")
        else:
            assert want, (text, raw)
            assert record.spans == tuple(spans)
    assert min(verdicts.values()) >= 300, verdicts


def _record_to_obj(record: LabeledAbstract) -> dict:
    """The object a record is written as, built field by field: the oracle
    of the bytes save_corpus writes."""
    obj: dict = {
        "id": record.id,
        "text": record.text,
        "spans": [
            {"start": s.start, "end": s.end, "label": s.label} for s in record.spans
        ],
    }
    if record.meta:
        obj["meta"] = record.meta
    return obj


def test_round_trip_identity_and_stable_bytes(tmp_path):
    rng = random.Random(20240809)
    records = [_random_record(rng, i) for i in range(200)]
    path = tmp_path / "c.jsonl"
    save_corpus(records, str(path))
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert lines == [json.dumps(_record_to_obj(r), ensure_ascii=False) for r in records]
    loaded = load_corpus(str(path))
    assert loaded == records
    again = tmp_path / "c2.jsonl"
    save_corpus(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_save_empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_corpus([], str(path))
    assert path.read_text(encoding="utf-8") == ""
    assert load_corpus(str(path)) == []
    assert load_corpus(str(path), schema="predictions") == []


def test_saved_text_is_not_ascii_escaped(tmp_path):
    path = tmp_path / "u.jsonl"
    save_corpus([LabeledAbstract("u1", "μ-opioid")], str(path))
    raw = path.read_text(encoding="utf-8")
    assert "μ-opioid" in raw
    assert json.loads(raw)["text"] == "μ-opioid"


def test_failed_save_leaves_no_partial_file(tmp_path):
    path = tmp_path / "out.jsonl"
    records = [LabeledAbstract("a", "ok"), LabeledAbstract("b", "x \ud800")]
    with pytest.raises(CorpusError, match=r"record 'b': lone surrogate U\+D800"):
        save_corpus(records, str(path))
    assert not path.exists()


def test_save_writes_encoded_lines_as_they_are(tmp_path):
    """A string is one already encoded line: it goes out unchanged beside
    the records saved from their fields, and one that UTF-8 cannot hold is
    named by its line."""
    path = tmp_path / "mixed.jsonl"
    line = '{"text":"x","id":"b","spans":[],"doi":"10.1/x"}'
    save_corpus([LabeledAbstract("a", "ok"), line], str(path))
    assert path.read_text(encoding="utf-8") == (
        '{"id": "a", "text": "ok", "spans": []}\n' + line + "\n"
    )
    with pytest.raises(CorpusError, match=r"mixed\.jsonl: line 2: lone surrogate U\+D800$"):
        save_corpus([line, '{"id": "c", "text": "\ud800", "spans": []}'], str(path))
    assert not path.exists()


def test_failed_save_keeps_what_it_did_not_create(tmp_path):
    """Through a symlink the output is not a regular file at ``path``, as
    with ``--output /dev/stdout``, so it is not unlinked."""
    target = tmp_path / "target.jsonl"
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    with pytest.raises(CorpusError):
        save_corpus([LabeledAbstract("b", "x \ud800")], str(link))
    assert link.is_symlink() and target.exists()


class TestComputeStats:
    def test_empty(self):
        stats = compute_stats([])
        assert stats.total == 0
        assert stats.by_field == {}
        assert stats.by_year == {}
        assert stats.labeled_count == 0

    def test_year_shares_hand_counted(self):
        records = [
            LabeledAbstract("a", "t", meta={"year": 2018}),
            LabeledAbstract("b", "t", meta={"year": 2018}),
            LabeledAbstract("c", "t", meta={"year": 2019}),
            LabeledAbstract("d", "t"),
        ]
        stats = compute_stats(records)
        assert stats.total == 4
        assert stats.by_year == {2018: (2, 50.0), 2019: (1, 25.0)}

    def test_field_share_rounds_to_table_value(self):
        records = [
            LabeledAbstract(f"m{i}", "t", meta={"fields": ["Medicine"]})
            for i in range(2171)
        ]
        records += [
            LabeledAbstract(f"o{i}", "t", meta={"fields": ["Physics"]})
            for i in range(9000 - 2171)
        ]
        stats = compute_stats(records)
        count, share = stats.by_field["Medicine"]
        assert count == 2171
        assert f"{share:.1f}" == "24.1"
        assert abs(share - 24.1) < 0.05

    def test_multi_field_counts_can_exceed_total(self):
        records = [
            LabeledAbstract("a", "t", meta={"fields": ["X", "Y"]}),
            LabeledAbstract("b", "t", meta={"fields": ["X"]}),
        ]
        stats = compute_stats(records)
        assert sum(c for c, _ in stats.by_field.values()) == 3 > stats.total

    def test_duplicate_field_in_one_record_counts_once(self):
        stats = compute_stats(
            [LabeledAbstract("a", "t", meta={"fields": ["X", "X"]})]
        )
        assert stats.by_field["X"] == (1, 100.0)

    def test_field_ordering_desc_count_then_name(self):
        records = [
            LabeledAbstract("a", "t", meta={"fields": ["B", "A"]}),
            LabeledAbstract("b", "t", meta={"fields": ["B"]}),
        ]
        stats = compute_stats(records)
        assert list(stats.by_field) == ["B", "A"]

    def test_labeled_count(self):
        records = [
            LabeledAbstract("a", "abc", (Span(0, 2),)),
            LabeledAbstract("b", "abc"),
        ]
        assert compute_stats(records).labeled_count == 1


# The per-line json.loads loader that the one-scanner-call reader replaced,
# verbatim but for its names, the meta object it returns (the checked dict
# itself, as load_corpus keeps it) and the line-numbered dimension check of
# the vector loader, as the oracle for load_corpus and
# ExternalVectorProvider.load: equal records or vectors, or equal error text.
def oracle_iter_jsonl(path, error):
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{where}: malformed line: {exc}") from exc
                if "\\" in line and ("\\ud" in line or "\\uD" in line):
                    try:
                        json.dumps(obj, ensure_ascii=False).encode("utf-8")
                    except UnicodeEncodeError as exc:
                        code = ord(exc.object[exc.start])
                        raise error(f"{where}: lone surrogate U+{code:04X}") from None
                yield where, obj
        except UnicodeDecodeError:
            raise utf8_error(path, Path(path), error) from None


def oracle_parse_span(raw, where):
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


def oracle_parse_meta(raw, where):
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise CorpusError(f"{where}: meta must be an object")
    year = raw.get("year")
    if year is not None and type(year) is not int:
        raise CorpusError(f"{where}: meta.year must be an integer")
    fields = raw.get("fields")
    if fields is not None and (
        not isinstance(fields, list) or not all(isinstance(f, str) for f in fields)
    ):
        raise CorpusError(f"{where}: meta.fields must be a list of strings")
    source = raw.get("source")
    if source is not None and not isinstance(source, str):
        raise CorpusError(f"{where}: meta.source must be a string")
    if year is not None and not 1900 <= year <= 2100:
        raise CorpusError(f"{where}: year {year} outside [1900, 2100]")
    return raw


def oracle_record_from_obj(obj, schema, where):
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
    spans = [oracle_parse_span(s, where) for s in raw_spans]
    meta = oracle_parse_meta(obj.get("meta"), where)

    if schema == "predictions":
        spans = filter_spans(spans)
    else:
        try:
            ensure_finalized(spans, len(text))
        except ValueError as exc:
            raise CorpusError(f"{where}: record {rec_id!r}: {exc}") from exc
    return LabeledAbstract(rec_id, text, tuple(spans), meta)


def oracle_load_corpus(path, schema):
    records = []
    seen = set()
    for where, obj in oracle_iter_jsonl(path, CorpusError):
        record = oracle_record_from_obj(obj, schema, where)
        if record.id in seen:
            raise CorpusError(f"{where}: duplicate id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    return records


def oracle_finite_floats(values):
    if not isinstance(values, list) or not values:
        return None
    if not {int, float}.issuperset(map(type, values)):
        return None
    try:
        floats = list(map(float, values))
    except OverflowError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


def oracle_load_vectors(path):
    vectors = {}
    first = None
    for where, obj in oracle_iter_jsonl(path, EmbeddingError):
        if not isinstance(obj, dict):
            raise EmbeddingError(f"{where}: record must be a JSON object")
        vec_id = obj.get("id")
        if not isinstance(vec_id, str) or not vec_id:
            raise EmbeddingError(f"{where}: id must be a non-empty string")
        values = oracle_finite_floats(obj.get("values"))
        if values is None:
            raise EmbeddingError(
                f"{where}: values must be a non-empty list of finite numbers"
            )
        if vec_id in vectors:
            raise EmbeddingError(f"{where}: duplicate id {vec_id!r}")
        # Every vector has the dimension of the first.
        if first is None:
            first = (where.rsplit(":", 1)[1], len(values))
        elif len(values) != first[1]:
            raise EmbeddingError(
                f"{where}: dimension {len(values)}, but line {first[0]} has {first[1]}"
            )
        vectors[vec_id] = EmbeddingVector.from_values(values)
    return vectors


def outcome(load, *args):
    """What a loader returns, or its exception's type and text."""
    try:
        return load(*args)
    except (CorpusError, EmbeddingError) as exc:
        return type(exc), str(exc)


def verdict(outcome):
    """The kind of a loader outcome: "ok", or its error text up to the first
    quoted id or number."""
    if not isinstance(outcome, tuple):
        return "ok"
    return outcome[1].split(": ")[1].split(" '")[0].split(" U+")[0]


def _record_line(rng):
    text = "".join(rng.choice("ab μ’—«» 　İ©.") for _ in range(rng.randint(0, 12)))
    spans = []
    for _ in range(rng.randint(0, 2)):
        start = rng.randint(0, len(text) + 1)
        spans.append({"start": start, "end": start + rng.randint(1, 3), "label": "REM"})
    obj = {"id": rng.choice(["a", "b", "c", "d", "e", "f"]), "text": text, "spans": spans}
    if rng.random() < 0.8:
        obj["meta"] = rng.choice([
            *[{"year": 2020, "fields": ["Physics"], "source": "s"}] * 8,
            *[{"year": 2021, "fields": ["Physics", "Medicine"]}] * 4,
            *[{"source": "t"}] * 4,
            *[{"doi": "10.1/x", "fields": [], "year": None, "journal": "J"}] * 2,
            {"year": 2020, "extra": {"pages": [1, 2]}},
            {"year": 2020.0, "fields": ["Physics"], "source": "s"},
            {"year": True},
            {"year": 1},
            {"year": 1850},
            {"fields": ["Physics", "Medicine"]},
            {"fields": ["Physics", 2]},
            {"source": 3},
            {},
            None,
            [],
        ])
    return json.dumps(obj, ensure_ascii=rng.random() < 0.3)


def _vector_line(rng):
    values = rng.choice([
        *[[0.5, -1.0], [1, 2], [0.25, 3]] * 4,
        [1e308, 1e308],
        [],
        "x",
        [True, 1.0],
        [int("9" * 401), 1.0],
        [1.0, 2.0, 3.0],
    ])
    return json.dumps({"id": rng.choice(["a", "b", "a::cleaned", "c"]), "values": values})


def _lines(rng, valid_line):
    """A few lines, each a valid line or one of the odd forms a reader must
    take as json.loads takes them."""
    lines = []
    for _ in range(rng.randint(1, 8)):
        line = valid_line(rng)
        kind = rng.randrange(40)
        if kind == 0:
            line = rng.choice(["  ", "\t", " \r "]) + line + rng.choice(["  ", " \t", ""])
        elif kind == 1:
            line = "﻿" + line
        elif kind == 2:
            line = rng.choice(["{} x", "[] ]", '"s" ,'])
        elif kind == 3:
            line = line + rng.choice(["", " "]) + valid_line(rng)
        elif kind == 4:
            line = rng.choice(["NaN", "-Infinity", "1", '"a"', "null"])
        elif kind == 5:
            line = rng.choice(["\x0c", "", "   ", "\t", "\x0c \x0b"])
        elif kind == 6:
            line = line.replace('"a"', '"\\ud800"').replace('"b"', '"x\\uDFFF"')
        elif kind == 7:
            line = line[: rng.randrange(len(line) + 1)]
        elif kind == 8:
            line = line + rng.choice(["\x0c", "　", " x"])
        lines.append(line)
    return lines


def _write_lines(path, rng, lines):
    with open(path, "wb") as fh:
        for line in lines:
            fh.write(line.encode("utf-8"))
            fh.write(rng.choice([b"\n", b"\r\n"]))
        if rng.random() < 0.03:
            fh.write(b'{"id": "z", "text": "\xe9", "spans": []}\n')


def oracle_fields(path, schema):
    """The oracle's records as ``(id, text, spans, meta)`` tuples."""
    return [(r.id, r.text, r.spans, r.meta) for r in oracle_load_corpus(path, schema)]


def all_fields(path, schema):
    fields = list(iter_records(path, schema))
    assert all(type(f) is tuple for f in fields)
    return fields


def test_loader_matches_per_line_json_loads(tmp_path):
    """load_corpus, and iter_records read to the end, against the oracle:
    the same records, or the same error."""
    rng = random.Random(20261019)
    kinds = Counter()
    for i in range(600):
        path = str(tmp_path / f"{i}.jsonl")
        _write_lines(path, rng, _lines(rng, _record_line))
        for schema in ("gold", "predictions"):
            want = outcome(oracle_load_corpus, path, schema)
            assert outcome(load_corpus, path, schema) == want, (path, schema)
            want_fields = outcome(oracle_fields, path, schema)
            assert outcome(all_fields, path, schema) == want_fields, (path, schema)
            kinds[verdict(want)] += 1
    # Every kind of verdict is reached, not only the first error of a file.
    for kind in ("ok", "malformed line", "lone surrogate", "duplicate id",
                 "meta.year must be an integer", "not UTF-8 (byte 0xE9)"):
        assert kinds[kind] >= 10, kinds


def test_year_of_another_type_after_a_valid_record(tmp_path):
    """2020.0 equals the year of a record read before it, and hashes alike,
    yet still fails the type check; so does true."""
    for bad in ("2020.0", "true"):
        path = tmp_path / "years.jsonl"
        path.write_text(
            '{"id": "a", "text": "x", "spans": [], "meta": {"year": 2020}}\n'
            f'{{"id": "b", "text": "x", "spans": [], "meta": {{"year": {bad}}}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match=r"years\.jsonl:2: meta\.year must be an integer$"):
            load_corpus(str(path), schema="predictions")


def lookup_all(path):
    """Every vector ExternalVectorProvider.load(path) holds, looked up."""
    provider = ExternalVectorProvider.load(path)
    return {vec_id: provider.vector(vec_id) for vec_id in provider._vectors}


def test_vector_loader_matches_per_line_json_loads(tmp_path):
    rng = random.Random(20261020)
    kinds = Counter()
    for i in range(800):
        path = str(tmp_path / f"{i}.jsonl")
        _write_lines(path, rng, _lines(rng, _vector_line))
        want = outcome(oracle_load_vectors, path)
        got = outcome(lookup_all, path)
        assert got == want, path
        kind = verdict(want)
        kinds[kind.split(",")[0] if kind.startswith("dimension") else kind] += 1
    for kind in ("ok", "malformed line", "lone surrogate", "duplicate id",
                 "values must be a non-empty list of finite numbers", "dimension 3",
                 "dimension 2"):
        assert kinds[kind] >= 10, kinds
