import dataclasses
import json

import pytest

import declutter.cli
import declutter.evaluation
from declutter.cli import main
from declutter.corpus import load_corpus
from declutter.embedding import RankingDelta
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

    def test_rules_env_var(self, write_jsonl, tmp_path, capsys, monkeypatch):
        rules = tmp_path / "rules"
        rules.mkdir()
        (rules / "mine.rules").write_text(
            "my_rule\tcopyright\tZAPME\n", encoding="utf-8"
        )
        monkeypatch.setenv("DECLUTTER_RULES", str(rules))
        path = write_jsonl(
            [{"id": "a", "text": "Before. ZAPME stays not. © 2020 X", "spans": []}]
        )
        out = tmp_path / "out.jsonl"
        rc, _, _ = run(capsys, "clean", "--input", path, "--output", str(out))
        assert rc == 0
        (record,) = load_corpus(str(out), schema="predictions")
        assert "ZAPME" not in record.text
        assert "© 2020 X" in record.text  # built-in packs were replaced

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
        rows = [json.loads(line) for line in report.read_text().splitlines()]
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
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        tables = {r["table"] for r in rows}
        assert {"overall", "has_labels", "length_buckets"} <= tables
        fields = {"table"} | {f.name for f in dataclasses.fields(EvalReport)}
        assert all(set(row) == fields for row in rows)
        buckets = [r for r in rows if r["table"] == "length_buckets"]
        # token lengths are 4, 3 and 3
        assert [(r["group_key"], r["count"]) for r in buckets] == [("3-3", 2), ("4-4", 1)]

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
        payload = json.loads(report.read_text())
        assert payload["order_before"] == ["b", "a", "c"]
        assert payload["order_after"] == ["a", "b", "c"]
        assert payload["displacement"] == 2
        assert payload["focal_id"] == "f"
        assert set(payload) == {f.name for f in dataclasses.fields(RankingDelta)}

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

    def test_vectors_provider(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        vectors = write_jsonl(
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
        rc, out, _ = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--provider", "vectors", "--vectors", vectors,
        )
        assert rc == 0
        assert "order before: b, a, c" in out

    def test_vectors_flag_required(self, write_jsonl, capsys):
        corpus = self._corpus(write_jsonl)
        rc, _, err = run(
            capsys, "rank-compare", "--input", corpus, "--focal", "f",
            "--refs", "a,b,c", "--provider", "vectors",
        )
        assert rc == 1
        assert "--vectors is required" in err
