"""Contract tests: relations between runs of the command-line tool that hold
whatever the corpus, checked on one small seeded corpus through
``declutter.cli.main``.

The corpus is the golden fixtures plus records from the benchmark's
generator (``perfbench/gen.py``, read only): abstracts with planted clutter
and gold spans, and a few long dense texts. Every seventh generated record
loses its ``meta.source``, so the category table has a ``(none)`` row. Then
come short adversarial records (``ADVERSARIAL``): lines in every JSON layout
the reader accepts, unknown fields, an empty and a ``null`` ``meta``, and
texts that pump a backtracking rule or a search from trigger members.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from collections import Counter

import pytest

from declutter.cli import main
from declutter.corpus import load_corpus
from declutter.detectors import detect, to_rem_spans
from declutter.evaluation import score_abstract, token_prf
from declutter.textspan import Span, clean_text

from conftest import DATA_DIR

PERFBENCH = DATA_DIR.parents[1] / "perfbench"


def _load_gen():
    spec = importlib.util.spec_from_file_location("declutter_contract_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gen = _load_gen()
SHAPES = {
    "abstracts-10k": gen.Shape(records=200, queries=2, refs=6, vector_dim=8, shards=1),
    "long-dense": gen.Shape(records=0, queries=1, refs=3, vector_dim=8, shards=1,
                            long_records=6, long_min_chars=2_000, long_max_chars=6_000),
}

NOTICE = "\u00a9 2021 Soci\u00e9t\u00e9 Fran\u00e7aise de Chimie. All rights reserved."


def _adversarial():
    """``(id, JSONL line)`` of each adversarial record."""
    lines = [
        json.dumps({"id": "x-fields", "text": "Short content here. " + NOTICE,
                    "spans": [{"start": 20, "end": 20 + len(NOTICE), "label": "REM"}],
                    "doi": "10.1/x", "extra": {"nested": [1, None]},
                    "meta": {"year": 2019, "journal": "J"}}),
        json.dumps({"id": "x-compact", "text": "Films grew. Funding: NSF grant 12345.",
                    "spans": [], "meta": {"source": "crawl"}}, separators=(",", ":")),
        "  " + json.dumps({"id": "x-padded", "text": "Keywords: films; growth. Results.",
                           "spans": []}, separators=(" , ", " : ")) + " \t",
        json.dumps({"id": "x-unicode", "text": "Th\u00e9 \u2014 \u8457\u4f5c\u6a29. " + NOTICE,
                    "spans": [], "meta": {"source": "\u00e9cole"}}, ensure_ascii=False),
        json.dumps({"id": "x-escaped", "text": "Caf\u00e9 \U0001d54f data. " + NOTICE,
                    "spans": []}),
        json.dumps({"id": "x-meta-empty", "text": "Plain words only.", "spans": [],
                    "meta": {}}),
        json.dumps({"id": "x-meta-null", "text": "Plain words. (Fig. 2)", "spans": [],
                    "meta": None}),
    ]
    pumped = ["Text. " + lead + " " * 300 + "x"
              for lead in ("JEL", "EudraCT", "Trial registration")]
    pumped += ["eprint " * 60, "AIM " * 80, "ord " * 80]
    lines += [json.dumps({"id": f"x-pump{i}", "text": text, "spans": []})
              for i, text in enumerate(pumped)]
    return [(json.loads(line)["id"], line) for line in lines]


ADVERSARIAL = _adversarial()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """``(path, lines, queries, vectors path)``: the corpus as JSONL lines,
    rank-compare queries ``(focal, refs)``, and a vector file for them."""
    lines = (DATA_DIR / "golden_clutter.jsonl").read_text(encoding="utf-8").splitlines()
    queries, vectors = [], []
    for workload, shape in SHAPES.items():
        records, wl_queries, wl_vectors = gen.generate(workload, 11, shape)
        for i, record in enumerate(records):
            if i % 7 == 3:
                del record["meta"]["source"]
            lines.append(json.dumps(record, ensure_ascii=False))
        queries += wl_queries
        vectors += wl_vectors
    lines += [line for _id, line in ADVERSARIAL]
    ids = [rid for rid, _line in ADVERSARIAL]
    queries.append((ids[3], ids[:3] + ids[4:]))
    rng = random.Random(20261022)
    vectors += [{"id": rid + suffix, "values": [rng.gauss(0.0, 1.0) for _ in range(8)]}
                for rid in ids for suffix in ("", "::cleaned")]
    root = tmp_path_factory.mktemp("contracts")
    path = root / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    vectors_path = root / "vectors.jsonl"
    gen.write_jsonl(str(vectors_path), vectors)
    return path, lines, queries, vectors_path


def run(argv):
    """``main(argv)``'s stdout; the command must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def shuffled(lines, rng):
    order = list(range(len(lines)))
    rng.shuffle(order)
    assert order != sorted(order)
    return order, [lines[i] for i in order]


def test_eval_does_not_depend_on_line_order(corpus, tmp_path):
    """Permuting the gold lines and the prediction lines, each on its own,
    leaves eval's stdout and --report the same bytes, with every table
    present and the category table holding a (none) row."""
    path, lines, _queries, _vectors = corpus
    pred = tmp_path / "pred.jsonl"
    run(["clean", "--input", path, "--output", pred])
    pred_lines = pred.read_text(encoding="utf-8").splitlines()
    rng = random.Random(20261019)
    outputs = []
    for k in range(3):
        if k:
            _, gold_k = shuffled(lines, rng)
            _, pred_k = shuffled(pred_lines, rng)
        else:
            gold_k, pred_k = lines, pred_lines
        gold_path = write_lines(tmp_path / f"gold{k}.jsonl", gold_k)
        pred_path = write_lines(tmp_path / f"pred{k}.jsonl", pred_k)
        for buckets in (1, 4, 7):
            report = tmp_path / f"report{k}-{buckets}.jsonl"
            stdout = run(["eval", "--gold", gold_path, "--pred", pred_path,
                          "--buckets", buckets, "--report", report])
            outputs.append((buckets, stdout, report.read_bytes()))
    first = {b: (out, rep) for b, out, rep in outputs[:3]}
    for buckets, stdout, report in outputs[3:]:
        assert (stdout, report) == first[buckets], buckets
    # Not vacuous: every table, both has-labels rows and a (none) category.
    rows = [json.loads(line) for line in first[7][1].decode("utf-8").splitlines()]
    keys = {(r["table"], r["group_key"]) for r in rows}
    assert {"overall", "has_labels", "category", "length_buckets"} == {t for t, _ in keys}
    assert {("has_labels", "no"), ("has_labels", "yes"), ("category", "(none)")} <= keys


def test_clean_permutes_with_its_input(corpus, tmp_path):
    """Permuting clean's input lines permutes its output lines the same
    way, and its stdout stays the same."""
    path, lines, _queries, _vectors = corpus
    out = tmp_path / "out.jsonl"
    stdout = run(["clean", "--input", path, "--output", out])
    cleaned = out.read_text(encoding="utf-8").splitlines()
    assert len(cleaned) == len(lines) and cleaned != lines
    # Not vacuous: clean removes clutter from a record in each JSON layout.
    texts = {r["id"]: r["text"] for r in map(json.loads, cleaned)}
    for rid, line in ADVERSARIAL[:5]:
        assert len(texts[rid]) < len(json.loads(line)["text"]), rid
    rng = random.Random(20261020)
    for _ in range(2):
        order, permuted = shuffled(lines, rng)
        assert run(["clean", "--input", write_lines(tmp_path / "in.jsonl", permuted),
                    "--output", out]) == stdout
        assert out.read_text(encoding="utf-8").splitlines() == [cleaned[i] for i in order]


def load_all_clean(path):
    """``clean`` as it was written before it streamed, as the oracle: load
    the corpus, then detect and clean each text. Per record, ``None`` when
    the pass leaves it untouched, else its ``(id, text, spans, meta)``."""
    out = []
    for record in load_corpus(str(path), schema="predictions"):
        applied = to_rem_spans(detect(record.text))
        cleaned = clean_text(record.text, applied)
        untouched = not applied and cleaned == record.text
        out.append(None if untouched else (record.id, cleaned, tuple(applied), record.meta))
    return out


LAYOUTS = (
    {},
    {"separators": (",", ":")},
    {"separators": (" , ", " : ")},
    {"ensure_ascii": False},
)


def _relaid(obj, rng):
    """``obj`` as a JSONL line in a random layout, sometimes padded, with an
    unknown field sometimes added at a random place."""
    if rng.random() < 0.3:
        items = list(obj.items())
        items.insert(rng.randint(0, len(items)), ("doi", f"10.1/{rng.randint(0, 99)}"))
        obj = dict(items)
    line = json.dumps(obj, **rng.choice(LAYOUTS))
    return rng.choice(("", " ", "\t ")) + line + rng.choice(("", " ", " \t"))


def check_streamed_clean(in_path, in_lines, out_path, kinds):
    """Run clean from ``in_path``, whose records are ``in_lines`` (each line
    less its terminator), to ``out_path``, and compare each output line
    with the oracle: an untouched record's line comes out as it went in,
    byte for byte; a cleaned record holds the oracle's (id, text, spans,
    meta), and its other fields in their input order, in the bytes
    json.dumps gives its object. Return the output lines."""
    run(["clean", "--input", in_path, "--output", out_path])
    got = out_path.read_bytes().decode("utf-8").split("\n")
    assert got.pop() == ""
    want = load_all_clean(in_path)
    assert len(got) == len(want) == len(in_lines)
    for line, in_line, oracle in zip(got, in_lines, want):
        if oracle is None:
            assert line == in_line
            relaid = json.dumps(json.loads(in_line), ensure_ascii=False)
            kinds["untouched", in_line != relaid] += 1
            continue
        obj, in_obj = json.loads(line), json.loads(in_line)
        assert line == json.dumps(obj, ensure_ascii=False)
        spans = tuple(Span(s["start"], s["end"], s["label"]) for s in obj["spans"])
        assert (obj["id"], obj["text"], spans, obj.get("meta") or {}) == oracle
        assert list(obj) == list(in_obj)
        assert {**obj, "text": in_obj["text"], "spans": in_obj["spans"]} == in_obj
        kinds["cleaned", "doi" in obj] += 1
    return got


def test_streamed_clean_matches_load_all_clean(tmp_path):
    """Seeded differential test of the streaming clean against the
    load-all oracle (``check_streamed_clean``), on generated corpora in
    random layouts and line ends, with blank lines and the adversarial
    records among them. Cleaning the output again passes the same check,
    so each record the second pass leaves untouched keeps its bytes
    (criterion 8)."""
    rng = random.Random(20261024)
    kinds = Counter()
    for seed in range(4):
        workload = ("abstracts-10k", "long-dense")[seed % 2]
        records, _queries, _vectors = gen.generate(workload, 100 + seed, SHAPES[workload])
        lines = [_relaid({**r, "spans": []}, rng) for r in records]
        lines += [line for _id, line in ADVERSARIAL]
        rng.shuffle(lines)
        lines.append('{"id": "last", "text": "No terminator.", "spans": []}')
        path = tmp_path / f"in{seed}.jsonl"
        with open(path, "wb") as fh:
            for line in lines[:-1]:
                fh.write(line.encode("utf-8") + rng.choice((b"\n", b"\r\n")))
                if rng.random() < 0.02:
                    fh.write(b"  \n")  # blank: skipped
            fh.write(lines[-1].encode("utf-8"))
        out, again = tmp_path / f"out{seed}.jsonl", tmp_path / f"again{seed}.jsonl"
        cleaned = check_streamed_clean(path, lines, out, kinds)
        check_streamed_clean(out, cleaned, again, Counter())
    # Not vacuous: records both untouched and cleaned, in layouts that
    # re-encoding would change and with unknown fields.
    assert min(kinds.values()) >= 20 and len(kinds) == 4, kinds


def test_eval_of_clean_output_scores_detect(corpus, tmp_path):
    """clean on the corpus with its spans emptied, then eval of its output
    against the corpus, prints the micro scores of detect's removal spans
    on each gold record."""
    path, lines, _queries, _vectors = corpus
    unlabeled = [json.dumps({**json.loads(line), "spans": []}, ensure_ascii=False)
                 for line in lines]
    pred = tmp_path / "pred.jsonl"
    run(["clean", "--input", write_lines(tmp_path / "in.jsonl", unlabeled), "--output", pred])
    stdout = run(["eval", "--gold", path, "--pred", pred])
    gold = load_corpus(str(path), schema="gold")
    outcomes = [score_abstract(r, to_rem_spans(detect(r.text))) for r in gold]
    precision, recall, f1 = token_prf(outcomes)
    assert stdout.splitlines()[-1] == (
        f"token-level micro: precision={precision:.6f} "
        f"recall={recall:.6f} f1={f1:.6f}"
    )
    # Not vacuous: the cleaner both over- and under-removes here.
    assert 0 < precision < 1 and 0 < recall < 1


@pytest.mark.parametrize("provider", ["builtin", "vectors"])
def test_rank_compare_does_not_depend_on_ref_order(corpus, tmp_path, provider):
    """The parsed rank-compare --report is the same for any order of
    --refs."""
    path, _lines, queries, vectors = corpus
    rng = random.Random(20261021)
    flags = ["--provider", provider] + (["--vectors", vectors] if provider == "vectors" else [])
    changed = 0
    for focal, refs in queries:
        reports = []
        for k in range(3):
            order = list(refs) if k == 0 else rng.sample(refs, len(refs))
            report = tmp_path / f"rank{k}.json"
            run(["rank-compare", "--input", path, "--focal", focal,
                 "--refs", ",".join(order), "--report", report, *flags])
            reports.append(json.loads(report.read_text(encoding="utf-8")))
        assert reports[1] == reports[0] and reports[2] == reports[0], focal
        changed += reports[0]["changed"]
    # Not vacuous: some ranking moves.
    assert changed
