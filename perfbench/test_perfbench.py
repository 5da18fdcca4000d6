"""Tests of the benchmark itself: seeded generators, output format, tracing.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import dataclasses
import json
import random
import re

import pytest

import gen
import run
import tracer
from declutter.corpus import load_corpus
from declutter.detectors import CATEGORY_REGISTRY, detect

SPEC = run.declared()
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Tiny sizes for the smoke runs: every code path, little time.
SMOKE_SHAPES = {
    "abstracts-10k": gen.Shape(records=60, queries=2, refs=5, vector_dim=8, shards=2,
                               worst_scale=0.02),
    "long-dense": gen.Shape(records=0, queries=1, refs=3, vector_dim=8, shards=2,
                            long_records=5, long_min_chars=2_000, long_max_chars=6_000,
                            worst_records=1, worst_scale=0.02),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_gives_same_bytes_for_same_seed(workload, tmp_path):
    shape = SMOKE_SHAPES[workload]
    files = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        records, queries, vectors = gen.generate(workload, seed, shape)
        path = tmp_path / f"{name}.jsonl"
        gen.write_jsonl(str(path), [*records, {"queries": queries}, *vectors])
        files.append(path.read_bytes())
    assert files[0] == files[1]
    assert files[0] != files[2]


def test_planted_clutter_covers_every_category_and_loads_as_gold(tmp_path):
    shape = dataclasses.replace(gen.SHAPES["abstracts-10k"], records=400)
    records, _, _ = gen.generate("abstracts-10k", 3, shape)
    path = tmp_path / "gold.jsonl"
    gen.write_jsonl(str(path), records)
    gold = load_corpus(str(path), schema="gold")
    labels = {span.label for record in gold for span in record.spans}
    assert labels == set(CATEGORY_REGISTRY)
    for record, raw in zip(gold, records):
        assert [(s.start, s.end) for s in record.spans] == [
            (s["start"], s["end"]) for s in raw["spans"]
        ]


@pytest.mark.parametrize("seed", range(5))
def test_copyright_run_places_every_sign(seed):
    text, spans = gen.copyright_run(random.Random(seed), 100_000, 400)
    assert len(text) >= 100_000 and text.count("©") == len(spans) == 400
    assert not any(mark in text for mark in ".!?")


def test_near_misses_match_no_rule():
    for phrase in gen.NEAR_MISSES:
        assert detect(f"The films {phrase} were grown.") == [], phrase


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(gen, "SHAPES", SMOKE_SHAPES)
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(metric["name"] + " ") for line in lines[:-1])
    if trace:
        # eval tokenizes every gold record at least once, through the CLI.
        records = SMOKE_SHAPES[workload]
        n = records.records + records.long_records + records.worst_records
        assert result["metrics"]["cli.eval.tokenize_calls"]["value"] >= n
    else:
        assert result["metrics"]["ops_ok_share"]["value"] == 1.0
        assert result["metrics"]["peak_rss_mb"]["value"] > 0
    assert not (tmp_path / "work").exists()


def test_command_timing_sums_each_units_own_median():
    samples = {("clean_s", 0): [1.0, 3.0, 2.0], ("clean_s", 1): [10.0], ("rank_s", 4): [0.5, 0.7]}
    values, counts, _ = run.command_timings(samples)
    assert values == pytest.approx({"clean_s": 12.0, "rank_s": 0.6})
    assert counts == {"clean_s": 4, "rank_s": 2}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(10_000)))[0] == 99.9
    assert run.tail(list(range(2_000)))[0] == 99.5
    assert run.tail(list(range(204)))[0] == 95.0
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    tr.start[0], tr.end[0] = 0.0, 10.0
    tr.start[1], tr.end[1] = 1.0, 3.0
    tr.start[2], tr.end[2] = 4.0, 7.0
    total, self_s, calls, by_root = tr.summary()
    assert total == {"outer": 10.0, "inner": 5.0}
    assert self_s == {"outer": 5.0, "inner": 5.0}
    assert calls["inner"] == 2 and by_root[("outer", "inner")] == 2


def test_missing_traced_name_fails_loudly_and_restores(monkeypatch):
    import declutter.cli

    original = declutter.cli.detect
    sites = (tracer.SITES[3], ("declutter.cli", None, "no_such_function", "x", None))
    monkeypatch.setattr(tracer, "SITES", sites)
    with pytest.raises(tracer.TraceError, match="no_such_function"):
        tracer.Tracer().install()
    assert declutter.cli.detect is original
