import dataclasses
import json
import math
import os
import time
from pathlib import Path

import pytest

import declutter.cli
import declutter.evaluation
from declutter.cli import main
from declutter.corpus import load_corpus
from declutter.embedding import RankingDelta
from declutter.errors import CorpusError
from declutter.evaluation import EvalReport
from declutter.textspan import tokenize


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestClean:
    def test_clutter_free_corpus_roundtrips_trimmed(self, write_jsonl, tmp_path, capsys):
        path = write_jsonl(
            [
                {"id": "a", "text": "  Plain science text. ", "spans": []},
                {"id": "b", "text": "Another plain sentence.", "spans": []},
            ]
        )
        out = tmp_path / "out.jsonl"
        rc, stdout, _ = run(capsys, "clean", "--input", path, "--output", str(out))
        assert rc == 0
        records = load_corpus(str(out), schema="predictions")
        assert [r.text for r in records] == [
            "Plain science text.",
            "Another plain sentence.",
        ]
        assert all(r.spans == () for r in records)

    def test_registration_string_removed(self, write_jsonl, tmp_path, capsys):
        path = write_jsonl(
            [
                {
                    "id": "a",
                    "text": "We ran a trial. ClinicalTrials.gov: NCT012345678",
                    "spans": [],
                }
            ]
        )
        out = tmp_path / "out.jsonl"
        rc, stdout, _ = run(capsys, "clean", "--input", path, "--output", str(out))
        assert rc == 0
        (record,) = load_corpus(str(out), schema="predictions")
        assert "ClinicalTrials.gov: NCT012345678" not in record.text
        assert record.text == "We ran a trial."
        assert [s.label for s in record.spans] == ["registration"]
        assert "registration: 1" in stdout

    def test_unreadable_input_no_output(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        rc, _, err = run(
            capsys, "clean", "--input", str(tmp_path / "missing.jsonl"),
            "--output", str(out),
        )
        assert rc != 0
        assert "error:" in err
        assert not out.exists()

    def test_categories_subset(self, write_jsonl, tmp_path, capsys):
        path = write_jsonl(
            [{"id": "a", "text": "Text [1-4] here. © 2020 Pub", "spans": []}]
        )
        out = tmp_path / "out.jsonl"
        rc, _, _ = run(
            capsys, "clean", "--input", path, "--output", str(out),
            "--categories", "citation",
        )
        assert rc == 0
        (record,) = load_corpus(str(out), schema="predictions")
        assert "[1-4]" not in record.text
        assert "© 2020 Pub" in record.text

    def test_categories_none_disables_everything(self, write_jsonl, tmp_path, capsys):
        path = write_jsonl([{"id": "a", "text": "© 2020 Pub", "spans": []}])
        out = tmp_path / "out.jsonl"
        rc, _, _ = run(
            capsys, "clean", "--input", path, "--output", str(out),
            "--categories", "none",
        )
        assert rc == 0
        (record,) = load_corpus(str(out), schema="predictions")
        assert record.text == "© 2020 Pub"

    def test_rules_flag_replaces_builtin_packs(
        self, write_jsonl, tmp_path, capsys, monkeypatch
    ):
        rules = tmp_path / "rules"
        rules.mkdir()
        (rules / "mine.rules").write_text(
            "my_rule\tcopyright\tZAPME\n", encoding="utf-8"
        )
        path = write_jsonl(
            [{"id": "a", "text": "Before. ZAPME stays not. © 2020 X", "spans": []}]
        )
        out = tmp_path / "out.jsonl"
        rc, _, _ = run(
            capsys, "clean", "--input", path, "--output", str(out), "--rules", str(rules)
        )
        assert rc == 0
        (record,) = load_corpus(str(out), schema="predictions")
        assert "ZAPME" not in record.text
        assert "© 2020 X" in record.text  # built-in packs were replaced

        # No environment variable stands in for --rules.
        monkeypatch.setenv("DECLUTTER_RULES", str(rules))
        rc, _, _ = run(capsys, "clean", "--input", path, "--output", str(out))
        assert rc == 0
        (record,) = load_corpus(str(out), schema="predictions")
        assert "ZAPME" in record.text
        assert "© 2020 X" not in record.text

    def test_meta_passes_through(self, write_jsonl, tmp_path, capsys):
        """Every field comes out as it went in. A cleaned record is its input
        object with only ``text`` and ``spans`` replaced: unknown top-level
        fields, such as ``doi``, and every meta key, value and key order stay
        in place. An untouched record is its input line, ``"meta": {}`` and
        ``"meta": null`` included. Re-cleaning gives the same bytes."""
        metas = [
            {"year": 2020, "journal": "J"},
            {"source": "s", "doi": "10.1/x", "fields": [], "year": None, "journal": "J"},
        ]
        objs = [
            {"id": "a", "text": "Plain text.", "spans": [], "doi": "10.1/x", "meta": metas[0]},
            {"doi": "10.1/y", "id": "b", "text": "Plain text. © 2020 X", "spans": [],
             "meta": metas[0], "extra": [1, None]},
            {"id": "c", "text": "Plain text.", "spans": [], "meta": metas[1]},
            {"id": "d", "meta": metas[1], "text": "Plain text. © 2020 X", "spans": []},
            {"id": "e", "text": "Plain text.", "spans": [], "meta": {}},
            {"id": "f", "text": "Plain text.", "spans": [], "meta": None},
            {"id": "g", "text": "Plain text. © 2020 X", "spans": [], "meta": None},
        ]
        path = write_jsonl(objs)
        first, second = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
        assert run(capsys, "clean", "--input", path, "--output", str(first))[0] == 0
        lines = first.read_text(encoding="utf-8").splitlines()
        inputs = Path(path).read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(objs)
        for obj, line, input_line in zip(objs, lines, inputs):
            if "©" not in obj["text"]:
                assert line == input_line
                continue
            got = json.loads(line)
            assert list(got) == list(obj)
            assert {**got, "text": obj["text"], "spans": []} == obj
            assert (got["text"], [s["label"] for s in got["spans"]]) == (
                "Plain text.", ["copyright"]
            )
        assert run(capsys, "clean", "--input", str(first), "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_in_place_refused(self, write_jsonl, tmp_path, capsys):
        """clean writes its output while it reads its input, so an output
        that is the input file, by its path, a symlink or a hard link, is
        refused, and the input keeps its bytes."""
        path = Path(write_jsonl([{"id": "a", "text": "Text. © 2020 X", "spans": []}]))
        before = path.read_bytes()
        link, hard = tmp_path / "link.jsonl", tmp_path / "hard.jsonl"
        link.symlink_to(path)
        os.link(path, hard)
        for inp, out in ((path, path), (path, link), (link, path), (path, hard)):
            rc, stdout, err = run(capsys, "clean", "--input", str(inp), "--output", str(out))
            assert (rc, stdout) == (1, "")
            assert err == (
                f"error: --output {out} is the --input file; clean does not write in place\n"
            )
            assert path.read_bytes() == before

    def test_unreadable_input_leaves_existing_output(self, tmp_path, capsys):
        """The input is opened, and its first record read, before the output
        is created: a missing input, a directory or a bad first line leaves
        an existing output as it was."""
        out = tmp_path / "out.jsonl"
        out.write_text("keep\n", encoding="utf-8")
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "text": 1, "spans": []}\n', encoding="utf-8")
        for inp in (tmp_path / "missing.jsonl", tmp_path, bad):
            rc, stdout, err = run(capsys, "clean", "--input", str(inp), "--output", str(out))
            assert (rc, stdout) == (1, ""), inp
            assert err.startswith("error: "), err
            assert out.read_text(encoding="utf-8") == "keep\n"

    def test_invalid_rule_pack_fails_on_empty_corpus(self, write_jsonl, tmp_path, capsys):
        rules = tmp_path / "rules"
        rules.mkdir()
        (rules / "bad.rules").write_text("r1\tcopyright\tfoo(?=bar)\n", encoding="utf-8")
        path = write_jsonl([])
        out = tmp_path / "out.jsonl"
        rc, _, err = run(
            capsys, "clean", "--input", path, "--output", str(out), "--rules", str(rules)
        )
        assert rc == 1
        assert "lookaround" in err
        assert not out.exists()

    def test_deterministic_output_bytes(self, write_jsonl, tmp_path, capsys):
        path = write_jsonl(
            [{"id": "a", "text": "Some text. © 2019 Pub. All rights reserved.", "spans": []}]
        )
        out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
        assert run(capsys, "clean", "--input", path, "--output", str(out1))[0] == 0
        assert run(capsys, "clean", "--input", path, "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestUndecodableInput:
    """Input that no UTF-8 text can hold fails with ``error: <path>:<line>``
    and exit 1, never a traceback or a partial output file."""

    GOOD = b'{"id": "a", "text": "Plain text.", "spans": []}\n'

    def test_corpus_byte_not_utf8(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.jsonl"
        corpus.write_bytes(self.GOOD + b'{"id": "b", "text": "caf\xe9.", "spans": []}\n')
        out = tmp_path / "out.jsonl"
        expected = f"error: {corpus}:2: not UTF-8 (byte 0xE9)\n"
        for argv in (
            ("clean", "--input", str(corpus), "--output", str(out)),
            ("stats", "--input", str(corpus)),
            ("eval", "--gold", str(corpus), "--pred", str(corpus)),
        ):
            assert run(capsys, *argv) == (1, "", expected), argv
        assert not out.exists()

    def test_vectors_byte_not_utf8(self, write_jsonl, tmp_path, capsys):
        corpus = write_jsonl(
            [
                {"id": "f", "text": "Focal text.", "spans": []},
                {"id": "a", "text": "Some text.", "spans": []},
                {"id": "b", "text": "Other text.", "spans": []},
            ]
        )
        vectors = tmp_path / "v.jsonl"
        vectors.write_bytes(b'{"id": "f", "values": [1.0]}\n{"id": "a", "values": [\xff]}\n')
        rc, out, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b", "--provider", "vectors", "--vectors", str(vectors),
        )
        assert (rc, out, err) == (1, "", f"error: {vectors}:2: not UTF-8 (byte 0xFF)\n")

    def test_rule_pack_not_utf8(self, write_jsonl, tmp_path, capsys):
        rules = tmp_path / "rules"
        rules.mkdir()
        pack = rules / "latin1.rules"
        pack.write_bytes(b"# Regeln f\xfcr Copyright\nr1\tcopyright\tZAPME\n")
        out = tmp_path / "out.jsonl"
        rc, _, err = run(
            capsys, "clean", "--input", write_jsonl([]), "--output", str(out),
            "--rules", str(rules),
        )
        assert (rc, err) == (1, f"error: {pack}:1: not UTF-8 (byte 0xFC)\n")
        assert not out.exists()

    def test_lone_surrogate_escape_rejected_before_output(self, tmp_path, capsys):
        corpus = tmp_path / "surrogate.jsonl"
        corpus.write_bytes(
            self.GOOD
            + b'{"id":"b","text":"Body \\ud800 text. \xc2\xa9 2020 Elsevier.","spans":[]}\n'
        )
        out = tmp_path / "out.jsonl"
        rc, _, err = run(capsys, "clean", "--input", str(corpus), "--output", str(out))
        assert (rc, err) == (1, f"error: {corpus}:2: lone surrogate U+D800\n")
        assert not out.exists()


class TestDecoderLimits:
    """A line the JSON decoder gives up on, an integer too long to convert
    or nesting deeper than the recursion limit, fails as a malformed line
    with exit 1, never a traceback."""

    GOOD = TestUndecodableInput.GOOD
    LINES = [
        b'{"id": "b", "text": "x", "spans": [], "meta": {"year": ' + b"9" * 5000 + b"}}",
        b"[" * 100_000,
    ]

    def test_corpus_line(self, tmp_path, capsys):
        corpus = tmp_path / "deep.jsonl"
        out = tmp_path / "out.jsonl"
        for line in self.LINES:
            corpus.write_bytes(self.GOOD + line + b"\n")
            for argv in (
                ("clean", "--input", str(corpus), "--output", str(out)),
                ("stats", "--input", str(corpus)),
                ("eval", "--gold", str(corpus), "--pred", str(corpus)),
            ):
                rc, stdout, err = run(capsys, *argv)
                assert (rc, stdout) == (1, ""), argv
                assert err.startswith(f"error: {corpus}:2: malformed line: "), err[:200]
                assert err.count("\n") == 1
            assert not out.exists()

    def test_vectors_line(self, write_jsonl, tmp_path, capsys):
        corpus = write_jsonl(
            [
                {"id": "f", "text": "Focal text.", "spans": []},
                {"id": "a", "text": "Some text.", "spans": []},
            ]
        )
        vectors = tmp_path / "v.jsonl"
        for line in self.LINES:
            vectors.write_bytes(b'{"id": "f", "values": [1.0]}\n' + line + b"\n")
            rc, stdout, err = run(
                capsys, "rank-compare", "--input", corpus, "--focal", "f",
                "--refs", "a", "--provider", "vectors", "--vectors", str(vectors),
            )
            assert (rc, stdout) == (1, "")
            assert err.startswith(f"error: {vectors}:2: malformed line: "), err[:200]
            assert err.count("\n") == 1


class TestCheckedReads:
    """``rank-compare`` and ``eval --pred`` keep one field of each record, yet
    check every record as ``load_corpus`` does: a bad 4th line that no id
    of the command names fails it with ``load_corpus``'s own text."""

    LINES = [
        '{"id": "f", "text": "Focal text about lattices.", "spans": []}',
        '{"id": "a", "text": "Some text about lattices.", "spans": []}',
        '{"id": "b", "text": "Other text on soil.", "spans": []}',
    ]
    BAD = {
        "malformed": '{"id": "z", "text": "x", "spans": [',
        "duplicate": '{"id": "a", "text": "Again.", "spans": []}',
        "year": '{"id": "z", "text": "x", "spans": [], "meta": {"year": "2020"}}',
    }

    def test_bad_line_outside_the_ids_used(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text("\n".join(self.LINES) + "\n", encoding="utf-8")
        vectors = tmp_path / "v.jsonl"
        vectors.write_text(
            "".join(
                f'{{"id": "{i}{suffix}", "values": [1.0, {k}]}}\n'
                for k, i in enumerate("fab")
                for suffix in ("", "::cleaned")
            ),
            encoding="utf-8",
        )
        for kind, bad in self.BAD.items():
            corpus = tmp_path / f"{kind}.jsonl"
            tail = '{"id": "c", "text": "Last.", "spans": []}'
            corpus.write_text("\n".join([*self.LINES, bad, tail]) + "\n", encoding="utf-8")
            with pytest.raises(CorpusError) as caught:
                load_corpus(str(corpus), schema="predictions")
            assert str(caught.value).startswith(f"{corpus}:4: "), kind
            rank = ("rank-compare", "--input", str(corpus), "--focal", "f", "--refs", "a,b")
            for argv in (
                rank,
                (*rank, "--provider", "vectors", "--vectors", str(vectors)),
                ("eval", "--gold", str(gold), "--pred", str(corpus)),
            ):
                assert run(capsys, *argv) == (1, "", f"error: {caught.value}\n"), argv


class TestEval:
    def _gold(self, write_jsonl):
        return write_jsonl(
            [
                {"id": "a1", "text": "w0 w1 w2 w3", "spans": [{"start": 0, "end": 5, "label": "REM"}]},
                {"id": "a2", "text": "clean text here", "spans": []},
                {"id": "a3", "text": "x0 x1 x2", "spans": [{"start": 0, "end": 2, "label": "REM"}]},
            ],
            name="gold.jsonl",
        )

    def test_perfect_predictions(self, write_jsonl, tmp_path, capsys):
        gold = self._gold(write_jsonl)
        pred = write_jsonl(
            [
                {"id": "a1", "text": "w0 w1 w2 w3", "spans": [{"start": 0, "end": 5, "label": "REM"}]},
                {"id": "a2", "text": "clean text here", "spans": []},
                {"id": "a3", "text": "x0 x1 x2", "spans": [{"start": 0, "end": 2, "label": "REM"}]},
            ],
            name="pred.jsonl",
        )
        rc, out, err = run(capsys, "eval", "--gold", gold, "--pred", pred)
        assert rc == 0
        assert "100.00%" in out
        assert "precision=1.000000 recall=1.000000 f1=1.000000" in out

    def test_empty_predictions_missing_share(self, write_jsonl, tmp_path, capsys):
        gold = self._gold(write_jsonl)
        pred = write_jsonl([], name="pred.jsonl")
        report = tmp_path / "report.jsonl"
        rc, out, err = run(
            capsys, "eval", "--gold", gold, "--pred", pred, "--report", str(report)
        )
        assert rc == 0
        assert "3 gold record(s) have no prediction" in err
        rows = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
        overall = next(r for r in rows if r["table"] == "overall")
        # 2 of 3 gold records carry labels, and with empty predictions each
        # labeled one has missing tokens
        assert overall["missing_share"] == pytest.approx(100 * 2 / 3)

    def test_unknown_prediction_id_fails(self, write_jsonl, capsys):
        gold = self._gold(write_jsonl)
        pred = write_jsonl(
            [{"id": "zzz", "text": "x", "spans": []}], name="pred.jsonl"
        )
        rc, _, err = run(capsys, "eval", "--gold", gold, "--pred", pred)
        assert rc == 1
        assert "not present in the gold corpus" in err

    def test_category_split_from_meta_source(self, write_jsonl, capsys):
        gold = write_jsonl(
            [
                {"id": "a", "text": "t u v", "spans": [], "meta": {"source": "Random"}},
                {"id": "b", "text": "p q r", "spans": [], "meta": {"source": "Citations"}},
            ],
            name="gold.jsonl",
        )
        pred = write_jsonl([], name="pred.jsonl")
        rc, out, _ = run(capsys, "eval", "--gold", gold, "--pred", pred)
        assert rc == 0
        assert "Citations" in out and "Random" in out

    def test_report_is_machine_readable(self, write_jsonl, tmp_path, capsys):
        gold = self._gold(write_jsonl)
        pred = write_jsonl([], name="pred.jsonl")
        report = tmp_path / "r.jsonl"
        rc, _, _ = run(
            capsys, "eval", "--gold", gold, "--pred", pred,
            "--report", str(report), "--buckets", "2",
        )
        assert rc == 0
        rows = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
        tables = {r["table"] for r in rows}
        assert {"overall", "has_labels", "length_buckets"} <= tables
        fields = {"table"} | {f.name for f in dataclasses.fields(EvalReport)}
        assert all(set(row) == fields for row in rows)
        buckets = [r for r in rows if r["table"] == "length_buckets"]
        # token lengths are 4, 3 and 3
        assert [(r["group_key"], r["count"]) for r in buckets] == [("3-3", 2), ("4-4", 1)]

    def test_unwritable_report_fails_before_printing(self, write_jsonl, tmp_path, capsys):
        """A report under a missing directory fails the command before any
        table is printed, as clean fails before it prints its counts."""
        gold = self._gold(write_jsonl)
        pred = write_jsonl([], name="pred.jsonl")
        report = tmp_path / "nodir" / "r.jsonl"
        rc, out, err = run(capsys, "eval", "--gold", gold, "--pred", pred, "--report", str(report))
        assert (rc, out) == (1, "")
        assert err.endswith(f"No such file or directory: {str(report)!r}\n")

    def test_zero_buckets_rejected(self, write_jsonl, capsys):
        gold = self._gold(write_jsonl)
        pred = write_jsonl([], name="pred.jsonl")
        rc, out, err = run(capsys, "eval", "--gold", gold, "--pred", pred, "--buckets", "0")
        assert (rc, out, err) == (1, "", "error: --buckets must be >= 1\n")

    def test_tokenizes_each_gold_record_once(self, write_jsonl, capsys, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        # Both names eval could reach the tokenizer through.
        monkeypatch.setattr(declutter.evaluation, "tokenize", counting_tokenize)
        monkeypatch.setattr(declutter.cli, "tokenize", counting_tokenize)
        gold = self._gold(write_jsonl)
        pred = write_jsonl([], name="pred.jsonl")
        rc, _, _ = run(capsys, "eval", "--gold", gold, "--pred", pred)
        assert rc == 0
        assert sorted(calls) == ["clean text here", "w0 w1 w2 w3", "x0 x1 x2"]


class TestStats:
    def test_empty_corpus(self, write_jsonl, capsys):
        path = write_jsonl([], name="c.jsonl")
        rc, out, _ = run(capsys, "stats", "--input", path)
        assert rc == 0
        assert "total: 0" in out

    def test_year_and_field_tables(self, golden_path, capsys):
        rc, out, _ = run(capsys, "stats", "--input", str(golden_path))
        assert rc == 0
        assert "total: 10" in out
        assert "Materials Sci." in out
        assert "60.0" in out  # 6 of 10 records
        assert "2018" in out


class TestRankCompare:
    def _corpus(self, write_jsonl):
        shared = "© 2020 Springer Nature. All rights reserved."
        return write_jsonl(
            [
                {"id": "f", "text": "Quantum entanglement in photonic lattices enables robust optical communication. " + shared, "spans": []},
                {"id": "a", "text": "Quantum entanglement in photonic lattices enables robust optical networks.", "spans": []},
                {"id": "b", "text": "Soil moisture dynamics under drought stress in temperate grasslands. " + shared, "spans": []},
                {"id": "c", "text": "Medieval trade routes and coinage circulation across Europe.", "spans": []},
            ],
            name="rank.jsonl",
        )

    def test_summary_line_and_report(self, write_jsonl, tmp_path, capsys):
        corpus = self._corpus(write_jsonl)
        report = tmp_path / "delta.json"
        rc, out, _ = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--dim", "8", "--report", str(report),
        )
        assert rc == 0
        assert "changed: yes, top1_changed: yes" in out
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["order_before"] == ["b", "a", "c"]
        assert payload["order_after"] == ["a", "b", "c"]
        assert payload["displacement"] == 2
        assert payload["focal_id"] == "f"
        assert set(payload) == {f.name for f in dataclasses.fields(RankingDelta)}

    def test_unwritable_report_fails_before_printing(self, write_jsonl, tmp_path, capsys):
        corpus = self._corpus(write_jsonl)
        report = tmp_path / "nodir" / "x.json"
        rc, out, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--dim", "8", "--report", str(report),
        )
        assert (rc, out) == (1, "")
        assert err.endswith(f"No such file or directory: {str(report)!r}\n")

    def test_detectors_disabled_changes_nothing(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        rc, out, _ = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--dim", "8", "--categories", "none",
        )
        assert rc == 0
        assert "changed: no, top1_changed: no" in out
        assert "displacement: 0" in out

    def test_missing_focal_id(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        rc, _, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "nope",
            "--refs", "a,b,c",
        )
        assert rc == 1
        assert "not found" in err

    def test_large_dim_costs_what_the_tokens_cost(self, write_jsonl, tmp_path, capsys):
        # Only the buckets a text touches are stored. With a dense list of
        # floats per text this took about 2 s and 140 MB (2 cores, 3.11).
        corpus = write_jsonl(
            [
                {"id": "f", "text": "Quantum optics in photonic lattices. © 2020 Springer", "spans": []},
                {"id": "a", "text": "Quantum optics in lattices.", "spans": []},
                {"id": "b", "text": "Soil moisture under drought.", "spans": []},
            ],
            name="three.jsonl",
        )
        report = tmp_path / "delta.json"
        started = time.perf_counter()
        rc, out, _ = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b", "--dim", "1000000", "--report", str(report),
        )
        assert time.perf_counter() - started < 1.0
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["order_before"] == payload["order_after"] == ["a", "b"]

    def _vectors(self, write_jsonl):
        return write_jsonl(
            [
                {"id": "f", "values": [1.0, 0.0]},
                {"id": "f::cleaned", "values": [0.0, 1.0]},
                {"id": "a", "values": [0.9, 0.1]},
                {"id": "a::cleaned", "values": [0.1, 0.9]},
                {"id": "b", "values": [0.99, 0.0]},
                {"id": "b::cleaned", "values": [0.2, 0.2]},
                {"id": "c", "values": [0.0, 1.0]},
                {"id": "c::cleaned", "values": [1.0, 0.0]},
            ],
            name="vectors.jsonl",
        )

    def test_vectors_provider(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        rc, out, _ = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--provider", "vectors",
            "--vectors", self._vectors(write_jsonl),
        )
        assert rc == 0
        assert "order before: b, a, c" in out

    def test_golden_vectors_match_dense_oracle(
        self, golden_path, golden_vectors_path, tmp_path, capsys
    ):
        refs = [f"g{i:02d}" for i in range(2, 11)]
        report = tmp_path / "delta.json"
        rc, out, _ = run(
            capsys, "rank-compare", "--input", str(golden_path), "--focal", "g01",
            "--refs", ",".join(refs), "--provider", "vectors",
            "--vectors", str(golden_vectors_path), "--report", str(report),
        )
        assert rc == 0
        with open(golden_vectors_path, encoding="utf-8") as fh:
            values = {obj["id"]: obj["values"] for obj in map(json.loads, fh)}

        def dense_cosine(a, b):
            norm = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
            return sum(x * y for x, y in zip(a, b)) / norm

        want = {}
        for side, suffix in (("before", ""), ("after", "::cleaned")):
            cosines = {
                r: dense_cosine(values["g01" + suffix], values[r + suffix]) for r in refs
            }
            want[f"cosines_{side}"] = cosines
            want[f"order_{side}"] = sorted(refs, key=lambda r: (-cosines[r], r))
        rank_before = {r: i for i, r in enumerate(want["order_before"])}
        rank_after = {r: i for i, r in enumerate(want["order_after"])}
        want.update(
            focal_id="g01",
            changed=want["order_before"] != want["order_after"],
            top1_changed=want["order_before"][0] != want["order_after"][0],
            displacement=sum(abs(rank_before[r] - rank_after[r]) for r in refs),
        )
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload == want
        assert payload["changed"] and payload["displacement"] > 0
        for r in refs:
            assert (
                f"  {r}: cosine before={want['cosines_before'][r]!r} "
                f"after={want['cosines_after'][r]!r}"
            ) in out

    def test_one_ref_rejected(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        for provider in (["--dim", "8"], ["--provider", "vectors",
                                          "--vectors", self._vectors(write_jsonl)]):
            rc, out, err = run(
                capsys, "rank-compare", "--input", corpus, "--focal", "f",
                "--refs", "a", *provider,
            )
            assert rc == 1
            assert "at least 2" in err
            assert out == ""

    def test_missing_cleaned_vector_names_the_id(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        vectors = write_jsonl(
            [
                {"id": "f", "values": [1.0, 0.0]},
                {"id": "f::cleaned", "values": [0.0, 1.0]},
                {"id": "a", "values": [0.9, 0.1]},
                {"id": "a::cleaned", "values": [0.1, 0.9]},
                {"id": "b", "values": [0.99, 0.0]},
            ],
            name="vectors.jsonl",
        )
        rc, out, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b", "--provider", "vectors", "--vectors", vectors,
        )
        assert rc == 1
        assert "error: no ingested vector for id 'b::cleaned'" in err
        assert out == ""

    def test_vector_dimension_mismatch_names_the_line(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        vectors = write_jsonl(
            [{"id": "f", "values": [1.0, 0.0]}, {"id": "a", "values": [1.0, 0.0, 0.0]}],
            name="v.jsonl",
        )
        rc, out, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b", "--provider", "vectors", "--vectors", vectors,
        )
        assert rc == 1
        assert "v.jsonl:2: dimension 3, but line 1 has 2" in err
        assert out == ""

    def test_vectors_provider_rejects_unknown_category(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        rc, out, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--provider", "vectors",
            "--vectors", self._vectors(write_jsonl), "--categories", "bogus",
        )
        assert rc == 1
        assert "unknown category 'bogus'" in err
        assert out == ""

    def test_vectors_provider_rejects_empty_rules_dir(
        self, write_jsonl, tmp_path, capsys
    ):
        corpus = self._corpus(write_jsonl)
        empty = tmp_path / "no_packs"
        empty.mkdir()
        rc, out, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--provider", "vectors",
            "--vectors", self._vectors(write_jsonl), "--rules", str(empty),
        )
        assert rc == 1
        assert "no .rules files" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--provider", "vectors"], "--vectors is required"),
            (["--dim", "0"], "--dim must be >= 1"),
            (["--categories", "bogus"], "unknown category 'bogus'"),
        ],
    )
    def test_flags_checked_before_input_is_read(self, tmp_path, capsys, flags, message):
        missing = tmp_path / "no_such_corpus.jsonl"
        rc, out, err = run(
            capsys, "rank-compare", "--input", str(missing), "--focal", "f",
            "--refs", "a,b", *flags,
        )
        assert rc == 1
        assert message in err
        assert "No such file" not in err
        assert out == ""

    def test_vectors_flag_required(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        rc, _, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--provider", "vectors",
        )
        assert rc == 1
        assert "--vectors is required" in err
