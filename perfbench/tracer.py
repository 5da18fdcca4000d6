"""Spans around the library calls the CLI makes, recorded from outside it.

The tracer replaces public functions in the module namespaces the CLI calls
through (``declutter.cli.detect``, ``declutter.evaluation.tokenize``, ...)
with timing wrappers, so a traced run sees the CLI's real call pattern rather
than a re-implementation of it. Every span records its parent; self time is a
span's duration minus that of its children. A site whose attribute no longer
exists is an error, so a later refactor cannot silently zero a layer metric.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from array import array
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A wrapped name is missing from the program."""


def _load_counts(args, result) -> dict:
    return {"records": len(result), "bytes": os.path.getsize(args[0])}


def _save_counts(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _filter_counts(args, result) -> dict:
    return {"spans_in": len(args[0]), "spans_kept": len(result)}


def _resolve_counts(args, result) -> dict:
    """Overlap resolution of detections: the kept share of raw matches."""
    return {**_filter_counts(args, result), "detections_kept": len(result)}


def _detect_counts(_args, result) -> dict:
    return {"raw_detections": len(result)}


def _tokenize_counts(_args, result) -> dict:
    return {"tokens": len(result)}


# (module, class or None, attribute, span name, counter hook or None). A class
# attribute is wrapped on the class, so bound methods and classmethods work.
SITES = (
    ("declutter.cli", None, "load_corpus", "corpus.load", _load_counts),
    ("declutter.detectors", None, "load_corpus", "corpus.load", _load_counts),
    ("declutter.cli", None, "save_corpus", "corpus.save", _save_counts),
    ("declutter.cli", None, "detect", "detectors.detect", _detect_counts),
    ("declutter.cli", None, "filter_spans", "textspan.filter_spans", _resolve_counts),
    ("declutter.detectors", None, "filter_spans", "textspan.filter_spans", _resolve_counts),
    ("declutter.corpus", None, "filter_spans", "textspan.filter_spans", _filter_counts),
    ("declutter.cli", None, "clean_text", "textspan.clean_text", None),
    ("declutter.embedding", None, "clean_text", "textspan.clean_text", None),
    ("declutter.cli", None, "tokenize", "textspan.tokenize", _tokenize_counts),
    ("declutter.evaluation", None, "tokenize", "textspan.tokenize", _tokenize_counts),
    ("declutter.embedding", None, "tokenize", "textspan.tokenize", _tokenize_counts),
    ("declutter.evaluation", None, "tokens_under", "textspan.tokens_under", None),
    ("declutter.cli", None, "score_abstract", "evaluation.score_abstract", None),
    ("declutter.cli", None, "aggregate", "evaluation.aggregate", None),
    ("declutter.cli", None, "length_buckets", "evaluation.length_buckets", None),
    ("declutter.cli", None, "rank_references", "embedding.rank_references", None),
    ("declutter.embedding", None, "cosine", "embedding.cosine", None),
    ("declutter.embedding", "BuiltinProvider", "vector", "embedding.vector", None),
    ("declutter.embedding", "ExternalVectorProvider", "vector", "embedding.vector", None),
    ("declutter.embedding", "ExternalVectorProvider", "load", "embedding.vectors_load", None),
)


# Spans whose first argument may be a one-shot iterator.
_LIST_FIRST_ARG = frozenset({"textspan.filter_spans"})


class Tracer:
    """Collects spans in memory: name, start, end and parent per span."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            if name in _LIST_FIRST_ARG:
                args = (list(args[0]), *args[1:])  # so a hook can count it
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                for key, value in hook(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site; raise :class:`TraceError` if one is missing."""
        for module_name, class_name, attr, name, hook in SITES:
            owner = importlib.import_module(module_name)
            where = module_name
            if class_name is not None:
                owner = getattr(owner, class_name, None)
                where = f"{module_name}.{class_name}"
            if owner is None or attr not in vars(owner):
                self.uninstall()
                raise TraceError(f"traced name {where}.{attr} no longer exists")
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(raw.__func__, name, hook))
            else:
                wrapped = self._wrapper(raw, name, hook)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def summary(self) -> tuple[dict, dict, dict, Counter]:
        """Per span name: total seconds, self seconds and call count; plus
        call counts per (root span name, span name)."""
        n = len(self.name)
        child = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        by_root: Counter = Counter()
        for i in range(n):
            name = self._names[self.name[i]]
            dur = self.end[i] - self.start[i]
            total[name] += dur
            self_s[name] += dur - child[i]
            calls[name] += 1
            by_root[(self._names[self.name[root[i]]], name)] += 1
        return dict(total), dict(self_s), calls, by_root
