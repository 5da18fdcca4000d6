"""Benchmark of the declutter CLI on seeded workloads.

    python3 perfbench/run.py --workload abstracts-10k --seed 1 --seconds 60 --trace 0

Run from the repository root (or any checkout of it). The benchmark imports
the program from ``src/`` next to this directory, generates the workload's
inputs from ``--seed`` under ``.perfbench_work/``, drives the CLI in-process
(``declutter.cli.main``) from one thread, checks every output, and removes
its files on exit. Workloads, metrics, units and regression bounds are
declared in ``BENCHMARK.json``; this script emits exactly those metrics.

A workload's records are dealt into shards of equal size. One round runs,
on one shard, ``clean``, ``eval --report`` and ``stats``, then that shard's
share of the ``rank-compare`` queries with ``--provider builtin`` and again
with ``--provider vectors``; one round per shard does the whole workload
once, as many short operations. Rounds go round the shards, at least once
and then while the next round still fits in ``--seconds``. A command's
timing is the sum, over the shards (or queries) of one workload pass, of
each one's median time: the seconds one pass takes, with every shard and
query weighted once however many samples it got.

``--trace 0`` reports the end-to-end metrics: those command timings, a
per-record ``clean_text(text, to_rem_spans(detect(text)))`` pass over two
shards per round (so every record is timed at least twice; its time is the
median), set-up time of fresh interpreters, the peak RSS of a fresh
interpreter running ``clean`` on the whole corpus, token-level cleaning
quality against the planted gold, and the share of operations that
succeeded. Timings are scaled by a speed probe run between operations, and
set-up times by one run in each fresh interpreter (see ``probe.py``); the
table shows the raw figures beside them.

``--trace 1`` reports the per-layer metrics instead: totals per workload
pass of spans recorded around the library functions the CLI calls (see
``tracer.py``), per-category detection passes, single calls of three
worst-case inputs, and the tracing overhead on ``clean``.

Every metric is printed as a table with its unit and sample count, followed
by one JSON line: ``{"correct", "attempted", "failed", "metrics"}``. The
benchmark's own tests: ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import declutter  # noqa: E402
import declutter.detectors  # noqa: E402
import declutter.textspan  # noqa: E402

import gen  # noqa: E402
from ops import CheckFailed, Ops, check_clean, check_eval, check_rank, check_stats  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 25
# Timings scaled by the speed probe of the benchmark process.
SCALED = ("clean_s", "eval_s", "rank_s", "rank_vectors_s",
          "record_clean_p50_ms", "record_clean_tail_ms")
# The probe runs after the timed part, so it imports nothing the program
# would otherwise import itself.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import declutter\n"
    "declutter.detect('Body of the abstract. © 2020 Springer')\n"
    "setup = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import SpeedProbe\n"
    "probe = SpeedProbe()\n"
    "for _ in range(3):\n"
    "    probe()\n"
    "print(setup, probe.factor())\n"
)
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
CLI_COMMANDS = ("clean", "eval", "stats", "rank-compare")
WORK_ROOT = ROOT / ".perfbench_work"


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Shard:
    """One slice of a workload's records, with its own input and output files."""

    def __init__(self, work: Path, index: int, records: list[dict]):
        self.records = records
        self.labeled = sum(1 for r in records if r["spans"])
        self.corpus = str(work / f"corpus-{index}.jsonl")
        self.gold = str(work / f"gold-{index}.jsonl")
        self.cleaned = str(work / f"cleaned-{index}.jsonl")
        self.report = str(work / f"report-{index}.jsonl")
        gen.write_jsonl(self.gold, records)
        gen.write_jsonl(self.corpus, ({**r, "spans": []} for r in records))
        self.scores: tuple | None = None


class Workload:
    """Generated inputs of one run and the CLI operations over them.

    ``clean``, ``eval`` and ``stats`` run per shard, and the rank queries are
    spread over the shards, so the workload is done as many short
    operations. A median over short operations resists the bursts of a
    shared machine far better than one long operation does.
    """

    def __init__(self, name: str, seed: int, shape: gen.Shape, work: Path):
        self.work = work
        self.records, self.queries, vectors = gen.generate(name, seed, shape)
        records = self.records
        # Deal records to shards in order of length, so shards do equal work.
        by_length = sorted(range(len(records)), key=lambda i: len(records[i]["text"]))
        self.shards = [
            Shard(work, k, [records[i] for i in sorted(by_length[k :: shape.shards])])
            for k in range(shape.shards)
        ]
        self.texts = [r["text"] for shard in self.shards for r in shard.records]
        self.corpus = str(work / "corpus.jsonl")
        self.vectors = str(work / "vectors.jsonl")
        gen.write_jsonl(self.corpus, ({**r, "spans": []} for r in records))
        gen.write_jsonl(self.vectors, vectors)

    def clean(self, shard: Shard, ops: Ops, tracer: Tracer | None = None) -> float:
        argv = ["clean", "--input", shard.corpus, "--output", shard.cleaned]
        return ops.run(argv, lambda _out: check_clean(shard.cleaned, shard.records), tracer)

    def _eval(self, shard: Shard, ops: Ops, tracer: Tracer | None) -> float:
        def check(_out: str) -> None:
            scores = check_eval(shard.report, len(shard.records))
            if shard.scores is not None and scores != shard.scores:
                raise CheckFailed(f"token scores changed: {shard.scores} -> {scores}")
            shard.scores = scores

        argv = ["eval", "--gold", shard.gold, "--pred", shard.cleaned, "--report", shard.report]
        return ops.run(argv, check, tracer)

    def _rank(self, focal: str, refs: list[str], provider: str, ops: Ops,
              tracer: Tracer | None) -> float:
        report = str(self.work / "rank.json")
        argv = ["rank-compare", "--input", self.corpus, "--focal", focal,
                "--refs", ",".join(refs), "--report", report]
        if provider == "vectors":
            argv += ["--provider", "vectors", "--vectors", self.vectors]
        return ops.run(argv, lambda _out: check_rank(report, refs), tracer)

    def round(self, k: int, ops: Ops, tracer: Tracer | None = None) -> list[tuple[str, int, float]]:
        """Shard ``k``'s operations and its share of the queries, as (metric
        estimated, shard or query index, wall seconds) per operation."""
        shard = self.shards[k]
        samples = [
            ("clean_s", k, self.clean(shard, ops, tracer)),
            ("eval_s", k, self._eval(shard, ops, tracer)),
        ]
        ops.run(["stats", "--input", shard.gold],
                lambda out: check_stats(out, len(shard.records), shard.labeled), tracer)
        for q in range(k, len(self.queries), len(self.shards)):
            focal, refs = self.queries[q]
            samples.append(("rank_s", q, self._rank(focal, refs, "builtin", ops, tracer)))
            samples.append(("rank_vectors_s", q, self._rank(focal, refs, "vectors", ops, tracer)))
        return samples

    def peak_rss_mb(self, ops: Ops) -> float:
        """Peak RSS of a fresh interpreter cleaning the whole corpus at once."""
        cleaned = str(self.work / "cleaned.jsonl")
        argv = ["clean", "--input", self.corpus, "--output", cleaned]
        return ops.run_fresh(str(SRC), argv, lambda: check_clean(cleaned, self.records))


def record_pass(texts: list[str]) -> list[float]:
    """Milliseconds of the README quickstart's per-record cleaning call."""
    detect, to_rem_spans, clean_text = declutter.detect, declutter.to_rem_spans, declutter.clean_text
    clock = time.perf_counter_ns
    out = []
    for text in texts:
        started = clock()
        clean_text(text, to_rem_spans(detect(text)))
        out.append((clock() - started) / 1e6)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), or the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = -(-round(pct * 100) * n // 10000)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def setup_seconds() -> tuple[list[float], list[float]]:
    """Fresh interpreters timing ``import declutter`` plus a first ``detect``:
    raw seconds, and seconds scaled by a speed probe in the same interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, factor = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * factor)
    return raw, scaled


def repeat(seconds: float, started: float, body, minimum: int) -> int:
    """Call ``body(i)`` for i = 0, 1, ... at least ``minimum`` times, and
    again while another call is expected to end before ``started + seconds``."""
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - t0)
        if (len(durations) >= minimum
                and time.perf_counter() + statistics.fmean(durations) > started + seconds):
            return len(durations)


def command_timings(samples: dict[tuple[str, int], list[float]]) -> tuple[dict, dict, dict]:
    """Each timing as the sum over shards (or queries) of each one's median
    time: the seconds one workload pass takes, robust to bursts."""
    values, counts, units = {}, {}, {}
    for (key, _unit), vals in samples.items():
        values[key] = values.get(key, 0.0) + statistics.median(vals)
        counts[key] = counts.get(key, 0) + len(vals)
        units[key] = units.get(key, 0) + 1
    noun = {key: "queries" if key.startswith("rank") else "shards" for key in units}
    notes = {key: f"sum of {n} {noun[key]}' medians" for key, n in units.items()}
    return values, counts, notes


def end_to_end(wl: Workload, ops: Ops, seconds: float) -> tuple[dict, dict, dict]:
    setup_raw, setup = setup_seconds()
    peak_rss = wl.peak_rss_mb(ops)
    declutter.detect(wl.texts[0])
    probe = SpeedProbe()
    samples: dict[tuple[str, int], list[float]] = {}
    offsets = [0]
    for shard in wl.shards:
        offsets.append(offsets[-1] + len(shard.records))
    per_record: list[list[float]] = [[] for _ in wl.texts]
    n_shards = len(wl.shards)

    def body(i: int) -> None:
        k = i % n_shards
        probe()
        for key, unit, seconds in wl.round(k, ops):
            samples.setdefault((key, unit), []).append(seconds)
        # Two shards per round, half a lap apart: every record gets two
        # passes per lap, far enough apart that one burst rarely hits both.
        for m in {k, (k + n_shards // 2) % n_shards}:
            probe()
            times = record_pass(wl.texts[offsets[m] : offsets[m + 1]])
            for j, ms in enumerate(times, start=offsets[m]):
                per_record[j].append(ms)

    repeat(seconds, time.perf_counter(), body, minimum=n_shards)
    values, counts, notes = command_timings(samples)
    record_ms = [statistics.median(times) for times in per_record]
    visits = [len(times) for times in per_record]
    passes = f"median of {min(visits)}-{max(visits)} passes per record"
    values["record_clean_p50_ms"] = statistics.median_low(record_ms)
    pct, values["record_clean_tail_ms"] = tail(record_ms)
    notes["record_clean_p50_ms"] = passes
    notes["record_clean_tail_ms"] = f"p{pct:g}, {passes}"
    counts["record_clean_p50_ms"] = counts["record_clean_tail_ms"] = len(record_ms)
    for key in SCALED:
        raw, values[key] = values[key], values[key] * probe.factor()
        notes[key] += f"; raw {raw:.4g}"
    values["setup_s"] = statistics.median(setup)
    counts["setup_s"] = len(setup)
    notes["setup_s"] = f"each scaled by its own probe; raw {statistics.median(setup_raw):.4g}"
    notes["clean_s"] += f"; {probe}"
    values["peak_rss_mb"] = peak_rss
    counts["peak_rss_mb"] = 1
    notes["peak_rss_mb"] = f"fresh interpreter, clean of all {len(wl.records)} records"
    scored = [shard.scores for shard in wl.shards if shard.scores is not None]
    for i, key in enumerate(("token_precision", "token_recall", "token_f1")):
        values[key] = statistics.fmean(s[i] for s in scored) if scored else 0.0
        counts[key] = len(scored)
        notes[key] = "mean over shards of eval's micro score"
    values["ops_ok_share"] = (ops.attempted - ops.failed) / ops.attempted
    counts["ops_ok_share"] = ops.attempted
    notes["ops_ok_share"] = f"ops_failed_share = {ops.failed}/{ops.attempted}"
    return values, counts, notes


def worst_cases(seed: int, scale: float) -> dict:
    """Single calls on the three inputs that are quadratic in the seed code:
    at full scale a 100k-character text with 400 copyright signs and no
    sentence end, 4,000 disjoint spans, and 1,000 spans over 20k tokens."""
    rng = random.Random(f"worst:{seed}")
    text, _ = gen.copyright_run(rng, int(100_000 * scale), int(400 * scale))
    started = time.perf_counter()
    declutter.detectors.detect(text)
    out = {"detectors.worst_sentence_s": time.perf_counter() - started}

    Span = declutter.textspan.Span
    spans = [Span(10 * i, 10 * i + 5) for i in range(int(4000 * scale))]
    rng.shuffle(spans)
    started = time.perf_counter()
    declutter.textspan.filter_spans(spans)
    out["textspan.worst_filter_spans_s"] = time.perf_counter() - started

    words = " ".join(rng.choice(gen.VOCAB) for _ in range(int(20_000 * scale)))
    token_map = declutter.textspan.tokenize(words)
    n_spans = int(1000 * scale)
    step = token_map.source_length // n_spans
    spans = [Span(i * step, i * step + step // 2) for i in range(n_spans)]
    started = time.perf_counter()
    declutter.textspan.tokens_under(spans, token_map)
    out["textspan.worst_tokens_under_s"] = time.perf_counter() - started
    return out


def per_category(texts: list[str]) -> dict:
    """One ``detect`` pass per category, each with only that category on."""
    out = {}
    for category in declutter.CATEGORY_REGISTRY:
        config = declutter.DetectorConfig(enabled_categories=(category,))
        declutter.detectors.detect(texts[0], config)
        matches = 0
        started = time.perf_counter()
        for text in texts:
            matches += len(declutter.detectors.detect(text, config))
        out[f"detectors.{category}.detect_s"] = time.perf_counter() - started
        out[f"detectors.{category}.matches"] = matches
    return out


def layer_metrics(tracer: Tracer) -> dict:
    total, self_s, calls, by_root = tracer.summary()
    c = tracer.counts
    raw = c["detectors.detect.raw_detections"]
    out = {
        "corpus.load_s": total.get("corpus.load", 0.0),
        "corpus.save_s": total.get("corpus.save", 0.0),
        "corpus.records": c["corpus.load.records"],
        "corpus.bytes": c["corpus.load.bytes"] + c["corpus.save.bytes"],
        "detectors.detect_s": total.get("detectors.detect", 0.0),
        "detectors.detect_calls": calls["detectors.detect"],
        "detectors.raw_detections": raw,
        "detectors.kept_ratio": c["textspan.filter_spans.detections_kept"] / raw if raw else 0.0,
        "textspan.filter_spans_s": total.get("textspan.filter_spans", 0.0),
        "textspan.spans_in": c["textspan.filter_spans.spans_in"],
        "textspan.spans_kept": c["textspan.filter_spans.spans_kept"],
        "textspan.clean_text_s": total.get("textspan.clean_text", 0.0),
        "textspan.tokenize_s": total.get("textspan.tokenize", 0.0),
        "textspan.tokenize_calls": calls["textspan.tokenize"],
        "textspan.tokens": c["textspan.tokenize.tokens"],
        "textspan.tokens_under_s": total.get("textspan.tokens_under", 0.0),
        "evaluation.score_abstract_self_s": self_s.get("evaluation.score_abstract", 0.0),
        "evaluation.aggregate_s": total.get("evaluation.aggregate", 0.0),
        "evaluation.length_buckets_s": total.get("evaluation.length_buckets", 0.0),
        "embedding.vector_s": total.get("embedding.vector", 0.0),
        "embedding.vector_calls": calls["embedding.vector"],
        "embedding.cosine_s": total.get("embedding.cosine", 0.0),
        "embedding.rank_references_self_s": self_s.get("embedding.rank_references", 0.0),
        "embedding.vectors_load_s": total.get("embedding.vectors_load", 0.0),
        "cli.eval.tokenize_calls": by_root[("cli.eval", "textspan.tokenize")],
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_s"] = self_s.get(f"cli.{command}", 0.0)
    return out


def per_layer(wl: Workload, ops: Ops, seed: int, seconds: float,
              worst_scale: float) -> tuple[dict, dict, dict]:
    """Per-layer totals of one workload pass, as medians over passes."""
    started = time.perf_counter()
    once = {**per_category(wl.texts), **worst_cases(seed, worst_scale)}
    samples: dict[str, list[float]] = {}

    def body(_i: int) -> None:
        untraced = sum(wl.clean(shard, ops) for shard in wl.shards)
        tracer = Tracer()
        tracer.install()
        try:
            traced = sum(seconds for k in range(len(wl.shards))
                         for key, _, seconds in wl.round(k, ops, tracer) if key == "clean_s")
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer)
        layers["cli.clean.trace_overhead_s"] = traced - untraced
        for key, value in layers.items():
            samples.setdefault(key, []).append(value)

    repeat(seconds, started, body, minimum=1)
    values = {key: statistics.median(vals) for key, vals in samples.items()}
    counts = {key: len(vals) for key, vals in samples.items()}
    for key, value in once.items():
        values[key] = value
        counts[key] = 1
    notes = {"cli.eval.tokenize_calls": f"{len(wl.texts)} gold records"}
    return values, counts, notes


def main(argv: list[str] | None = None) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path(declutter.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"declutter imported from {declutter.__file__}, not from {SRC}")
    os.environ.pop("DECLUTTER_RULES", None)  # the built-in rule packs only

    shape = gen.SHAPES[args.workload]
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ops = Ops()
    try:
        wl = Workload(args.workload, args.seed, shape, work)
        if args.trace:
            values, counts, notes = per_layer(wl, ops, args.seed, args.seconds, shape.worst_scale)
            metrics = spec["per_layer"]
        else:
            values, counts, notes = end_to_end(wl, ops, args.seconds)
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"declared metrics not measured: {missing}")
    for error in ops.errors:
        print(f"FAILED {error}", file=sys.stderr)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
          f"ops={ops.attempted} failed={ops.failed}")
    print(f"{'metric':<40}{'value':>16}  {'unit':<7}{'samples':>8}  note")
    for m in metrics:
        name = m["name"]
        print(f"{name:<40}{values[name]:>16.6g}  {m['unit']:<7}{counts[name]:>8}  {notes.get(name, '')}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
