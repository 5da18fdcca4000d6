import json
import random
from collections import Counter

import pytest

from declutter.corpus import (
    AbstractMeta,
    LabeledAbstract,
    compute_stats,
    load_corpus,
    save_corpus,
)
from declutter.errors import CorpusError
from declutter.textspan import Span


def test_load_minimal_record(write_jsonl):
    path = write_jsonl([{"id": "a1", "text": "Hi.", "spans": []}])
    records = load_corpus(path)
    assert len(records) == 1
    assert records[0].id == "a1"
    assert records[0].text == "Hi."
    assert records[0].spans == ()
    meta = records[0].meta
    assert (meta.year, meta.fields, meta.source) == (None, (), None)


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
    path = write_jsonl(
        [{"id": "a1", "text": "abc", "spans": [], "meta": {"year": 1600}}]
    )
    with pytest.raises(CorpusError, match="year"):
        load_corpus(path)


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
    assert records[0].spans == (Span(3, 10),)


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
    meta = AbstractMeta(
        year=rng.choice([None, 1970, 2018, 2024]),
        fields=tuple(rng.sample(["Medicine", "Physics", "Economics"], rng.randint(0, 3))),
        source=rng.choice([None, "crawl-a", "μ-set"]),
    )
    return LabeledAbstract(f"r{idx:04d}", text, tuple(spans), meta)


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


def test_round_trip_identity_and_stable_bytes(tmp_path):
    rng = random.Random(20240809)
    records = [_random_record(rng, i) for i in range(200)]
    path = tmp_path / "c.jsonl"
    save_corpus(records, str(path))
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
            LabeledAbstract("a", "t", meta=AbstractMeta(year=2018)),
            LabeledAbstract("b", "t", meta=AbstractMeta(year=2018)),
            LabeledAbstract("c", "t", meta=AbstractMeta(year=2019)),
            LabeledAbstract("d", "t"),
        ]
        stats = compute_stats(records)
        assert stats.total == 4
        assert stats.by_year == {2018: (2, 50.0), 2019: (1, 25.0)}

    def test_field_share_rounds_to_table_value(self):
        records = [
            LabeledAbstract(f"m{i}", "t", meta=AbstractMeta(fields=("Medicine",)))
            for i in range(2171)
        ]
        records += [
            LabeledAbstract(f"o{i}", "t", meta=AbstractMeta(fields=("Physics",)))
            for i in range(9000 - 2171)
        ]
        stats = compute_stats(records)
        count, share = stats.by_field["Medicine"]
        assert count == 2171
        assert f"{share:.1f}" == "24.1"
        assert abs(share - 24.1) < 0.05

    def test_multi_field_counts_can_exceed_total(self):
        records = [
            LabeledAbstract("a", "t", meta=AbstractMeta(fields=("X", "Y"))),
            LabeledAbstract("b", "t", meta=AbstractMeta(fields=("X",))),
        ]
        stats = compute_stats(records)
        assert sum(c for c, _ in stats.by_field.values()) == 3 > stats.total

    def test_duplicate_field_in_one_record_counts_once(self):
        stats = compute_stats(
            [LabeledAbstract("a", "t", meta=AbstractMeta(fields=("X", "X")))]
        )
        assert stats.by_field["X"] == (1, 100.0)

    def test_field_ordering_desc_count_then_name(self):
        records = [
            LabeledAbstract("a", "t", meta=AbstractMeta(fields=("B", "A"))),
            LabeledAbstract("b", "t", meta=AbstractMeta(fields=("B",))),
        ]
        stats = compute_stats(records)
        assert list(stats.by_field) == ["B", "A"]

    def test_labeled_count(self):
        records = [
            LabeledAbstract("a", "abc", (Span(0, 2),)),
            LabeledAbstract("b", "abc"),
        ]
        assert compute_stats(records).labeled_count == 1
