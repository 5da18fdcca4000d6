"""CLI operations of a workload and the checks on their output.

An operation is one ``declutter.cli.main([...])`` invocation plus the check
of what it wrote or printed. Timed operations run in-process; the one that
measures peak memory runs in a fresh interpreter. A non-zero exit code, an exception or
a failed check makes the operation fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import traceback

import declutter.cli
from declutter.corpus import load_corpus


class CheckFailed(Exception):
    """The program's output is wrong."""


class Ops:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def attempt(self, command: str):
        """Count one operation; an exception inside fails it, and the run goes on."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failed += 1
            if len(self.errors) < 5:
                detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
                self.errors.append(f"{command}: {detail}")

    def run(self, argv: list[str], check, tracer=None) -> float:
        """Invoke the CLI, then ``check(stdout)``; return the wall seconds of
        the invocation alone."""
        out = io.StringIO()
        err = io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        elapsed = 0.0
        with self.attempt(argv[0]):
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                    rc = declutter.cli.main(argv)
            finally:
                elapsed = time.perf_counter() - started
            if rc != 0:
                raise CheckFailed(f"exit code {rc}: {err.getvalue().strip()[:300]}")
            check(out.getvalue())
        return elapsed

    def run_fresh(self, src: str, argv: list[str], check) -> float:
        """Invoke the CLI in a fresh interpreter that imports the program from
        ``src``, then ``check()``; return the child's peak RSS in MiB (0 if
        the operation failed)."""
        peak = 0.0
        with self.attempt(argv[0]):
            child = subprocess.Popen(
                [sys.executable, "-I", "-c", _FRESH_CODE, src, *argv],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            # wait4 gives this child's own resource usage, not that of all children.
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            if child.returncode != 0:
                raise CheckFailed(f"exit code {child.returncode} in a fresh interpreter")
            check()
            peak = usage.ru_maxrss / 1024
        return peak


_FRESH_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import declutter.cli\n"
    "sys.exit(declutter.cli.main(sys.argv[2:]))\n"
)


def expected_clean(text: str, spans: list[tuple[int, int]]) -> str:
    """Reference for ``clean_text``: drop the spans, strip, never empty."""
    if not spans:
        return text.strip()
    parts, last = [], 0
    for start, end in spans:
        parts.append(text[last:start])
        last = end
    parts.append(text[last:])
    return "".join(parts).strip() or text


def check_clean(path: str, records: list[dict]) -> None:
    """The output loads as predictions, keeps every record in order with its
    metadata, and each record's text is its original text with its spans
    removed (untouched records are written verbatim)."""
    load_corpus(path, schema="predictions")
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if len(lines) != len(records):
        raise CheckFailed(f"clean wrote {len(lines)} records, expected {len(records)}")
    for got, orig in zip(lines, records):
        if got["id"] != orig["id"] or got.get("meta") != orig["meta"]:
            raise CheckFailed(f"record {orig['id']!r}: id or meta changed")
        spans = [(s["start"], s["end"]) for s in got["spans"]]
        prev = 0
        for start, end in spans:
            if not prev <= start < end <= len(orig["text"]):
                raise CheckFailed(f"record {orig['id']!r}: bad span [{start}, {end})")
            prev = end
        if got["text"] != expected_clean(orig["text"], spans):
            raise CheckFailed(f"record {orig['id']!r}: text is not the original minus its spans")


def check_eval(path: str, n_gold: int) -> tuple[float, float, float]:
    """The overall row counts every gold record; return its token-level
    precision, recall and F1."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    os.remove(path)  # so the next eval cannot pass on this report
    overall = [r for r in rows if r.get("table") == "overall"]
    if len(overall) != 1 or overall[0]["count"] != n_gold:
        raise CheckFailed(f"overall row does not count all {n_gold} gold records")
    row = overall[0]
    scores = (row["precision"], row["recall"], row["f1"])
    if not all(0.0 <= s <= 1.0 for s in scores):
        raise CheckFailed(f"token scores out of [0, 1]: {scores}")
    return scores


_STATS_RE = re.compile(r"^total: (\d+)\nlabeled: (\d+)$", re.MULTILINE)


def check_stats(stdout: str, total: int, labeled: int) -> None:
    m = _STATS_RE.search(stdout)
    if m is None or (int(m.group(1)), int(m.group(2))) != (total, labeled):
        raise CheckFailed(f"stats header is not 'total: {total} / labeled: {labeled}'")


def check_rank(path: str, refs: list[str]) -> None:
    """Both orders of the report are permutations of the references."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key in ("order_before", "order_after"):
        if sorted(payload[key]) != sorted(refs):
            raise CheckFailed(f"{key} is not a permutation of the {len(refs)} refs")
    os.remove(path)  # so the next query cannot pass on this report
