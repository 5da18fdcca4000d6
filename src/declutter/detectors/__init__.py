"""Rule-based clutter detection over raw abstract text.

Each clutter category owns a rule pack, a plain-text file named
``<anything>.rules`` with one rule per line::

    rule_id <TAB> category <TAB> pattern

Lines starting with ``#`` are comments. Patterns use an engine-neutral regular
expression subset: literals, character classes, alternation, bounded and
unbounded repetition, plain and non-capturing groups ``(?:...)``, and the
anchors ``^``, ``$`` and ``\\b``. Lookaround, backreferences, named groups,
inline flags, possessive quantifiers and atomic groups are rejected so packs
stay portable across regex engines.

Each rule also gets a two-stage prescreen, derived from the same parse. Its
trigger is one set of literal strings of which every match contains one
verbatim; its factor, when it has one, is the part of the pattern from its
first top-level literal on, a regex every match contains. ``detect`` runs a
rule's regex only on texts that hold a member of the trigger and a match of
the factor.

Categories whose clutter is sentence-shaped (copyright, order_info,
translation, funding) have their raw matches extended to sentence boundaries,
found once per text; all other categories remove exactly what the pattern
matched.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

try:  # the sre internals moved under re._* in newer interpreters
    from re import _compiler as _sre_compile  # type: ignore[attr-defined]
    from re import _parser as _sre_parse  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover - Python <= 3.10
    import sre_compile as _sre_compile
    import sre_parse as _sre_parse

# load_corpus is unused here; perfbench/tracer.py wraps
# declutter.detectors.load_corpus.
from ..corpus import load_corpus, utf8_error  # noqa: F401
from ..errors import DetectorError
from ..textspan import Span, filter_spans

CATEGORY_REGISTRY = (
    "copyright",
    "order_info",
    "section_heading",
    "keywords_codes",
    "registration",
    "translation",
    "funding",
    "internal_ref",
    "citation",
)
_CATEGORY_INDEX = {name: i for i, name in enumerate(CATEGORY_REGISTRY)}

# Categories whose matches are widened to the enclosing sentence.
SENTENCE_SCOPED = frozenset({"copyright", "order_info", "translation", "funding"})


@dataclass(frozen=True)
class DetectorConfig:
    """Which categories run, and where the rule packs are.

    ``rules_dir`` replaces the built-in packs entirely.
    """

    enabled_categories: tuple[str, ...] = CATEGORY_REGISTRY
    rules_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "enabled_categories", tuple(self.enabled_categories))
        for name in self.enabled_categories:
            if name not in _CATEGORY_INDEX:
                raise DetectorError(f"unknown category {name!r}")


@dataclass(frozen=True)
class Detection:
    """One rule match; ``span.label`` is the rule's category."""

    span: Span
    rule_id: str


# Parse-tree nodes of the engine-neutral subset; any other node rejects a rule.
_ALLOWED_NODES = frozenset(
    "LITERAL NOT_LITERAL ANY IN AT BRANCH SUBPATTERN MAX_REPEAT MIN_REPEAT".split()
)
_NODE_NAMES = {
    "ASSERT": "lookaround",
    "ASSERT_NOT": "lookaround",
    "GROUPREF": "backreference",
    "GROUPREF_EXISTS": "conditional backreference",
}


def _not_allowed(where: str, what: str) -> DetectorError:
    return DetectorError(
        f"{where}: {what} not allowed; use only literals, classes, anchors, "
        "alternation, repetition and plain or non-capturing groups"
    )


def _literal_sets(seq, where: str, lead: str = "") -> list[tuple[str, ...]]:
    """Check a parsed pattern sequence against the engine-neutral subset and
    return its mandatory literal sets, in pattern order.

    A literal is a string that occurs verbatim in every match. A set of one
    literal is one maximal run of ``LITERAL`` nodes; any class ends a run,
    ``[Cc]`` included. A set of several literals holds one run of each
    alternative of a branch, the alternative's longest; the run directly
    before the branch, which sre factors out of alternatives sharing a
    prefix, is passed to each alternative as ``lead`` and starts its leading
    run. Every match of ``seq``, preceded by ``lead``, contains a member of
    every set. Optional parts (minimum-zero repeats) are checked but
    contribute nothing.
    """
    found: list[tuple[str, ...]] = []
    run = lead
    for op, av in seq:
        kind = op.name
        if kind not in _ALLOWED_NODES:
            name = _NODE_NAMES.get(kind, kind.lower().replace("_", " "))
            raise _not_allowed(where, name)
        if kind == "LITERAL":
            run += chr(av)
            continue
        if kind == "BRANCH":
            members = set()
            for alt in av[1]:
                runs = [s[0] for s in _literal_sets(alt, where, run) if len(s) == 1]
                members.add(max(runs, key=len, default=""))
            found.append(tuple(sorted(members)))
            run = ""
            continue
        if run:
            found.append((run,))
            run = ""
        if kind == "SUBPATTERN":
            if av[1] or av[2]:
                raise _not_allowed(where, "inline flags")
            found += _literal_sets(av[3], where)
        elif kind in ("MAX_REPEAT", "MIN_REPEAT"):
            inner = _literal_sets(av[2], where)
            if av[0] >= 1:
                found += inner
    if run:
        found.append((run,))
    return found


def _trigger(sets: list[tuple[str, ...]]) -> tuple[str, ...]:
    """Turn a rule's mandatory literal sets into its prescreen trigger: one
    set of literals, every match holding a member.

    A member that contains another member of its set goes, since the shorter
    one is in every text the longer one is in. Of the sets without an empty
    member, the trigger is the one with the fewest members per character of
    its shortest member, the first such in pattern order: few and long
    literals are quick to test and rarely present by chance, so
    ``heading_embedded`` tests ``:`` and ``-``, not its 20 heading words,
    and ``translated_from`` tests ``Translated from``, not a space. A rule
    with no such set gets the empty trigger ``()``, which every text meets.
    """
    candidates = [
        tuple(m for m in s if not any(o != m and o in m for o in s))
        for s in sets
        if all(s)
    ]
    return min(candidates, key=lambda c: len(c) / min(map(len, c)), default=())


def _factor(tree) -> re.Pattern | None:
    """The rule's necessary factor: the suffix of its top-level sequence
    from the first ``LITERAL`` node on, compiled from the parsed ``tree``.

    Every match of the pattern ``A·F`` holds a match of ``F`` where ``A``
    ends, and ``\\b``, ``^`` and ``$`` in ``F`` test the same text there, so
    a text in which ``F`` has no match holds no match of the rule. sre
    searches a pattern that starts with a literal by that literal, which
    it cannot do for a rule led by ``\\b``, a class or an optional group.
    ``None`` when the first node is a literal (the rule itself is then
    searched that way) or no top-level node is one.
    """
    for i, (op, _av) in enumerate(tree.data):
        if op.name == "LITERAL":
            if i == 0:
                return None
            suffix = _sre_parse.SubPattern(tree.state, tree.data[i:])
            return _sre_compile.compile(suffix)
    return None


def _compile_rule(pattern: str, where: str) -> tuple:
    """Parse ``pattern`` once, check it, and compile it along with its
    prescreen trigger and factor, derived from the same parse tree.

    Inline flags are rejected, so no rule turns on IGNORECASE and a
    ``LITERAL`` node matches exactly its own code point: the trigger has a
    member in every text the regex matches in, and skipping the regex when
    it has none can never drop a detection. The trigger is ``()`` when the
    pattern has no mandatory literal.
    """
    # Besides re.error: a{99999999999} overflows, and thousands of nested
    # groups exhaust the parser's stack.
    try:
        tree = _sre_parse.parse(pattern)
    except (re.error, OverflowError, RecursionError) as exc:
        raise DetectorError(f"{where}: bad pattern: {exc}") from exc
    if tree.state.groupdict:
        raise _not_allowed(where, "named group")
    if tree.state.flags != re.UNICODE:
        raise _not_allowed(where, "inline flags")
    trigger = _trigger(_literal_sets(tree, where))
    return _sre_compile.compile(tree), trigger, _factor(tree)


def _parse_pack(lines: Iterable[str], where: str, first_at: dict[str, str]) -> list[tuple]:
    """The rules of one pack. ``first_at`` maps each rule id loaded so far to
    the line that defined it; an id already in it is an error."""
    rules = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DetectorError(
                f"{where}:{lineno}: expected 'rule_id<TAB>category<TAB>pattern'"
            )
        rule_id, category, pattern = (p.strip() for p in parts)
        if not rule_id or not pattern:
            raise DetectorError(f"{where}:{lineno}: empty rule id or pattern")
        if category not in _CATEGORY_INDEX:
            raise DetectorError(f"{where}:{lineno}: unknown category {category!r}")
        where_line = f"{where}:{lineno}"
        if rule_id in first_at:
            raise DetectorError(
                f"{where_line}: duplicate rule id {rule_id!r} "
                f"(first at {first_at[rule_id]})"
            )
        first_at[rule_id] = where_line
        rules.append((category, rule_id, *_compile_rule(pattern, where_line)))
    return rules


def _load_rules(rules_dir: str | None) -> list[tuple]:
    if rules_dir is None:
        root = resources.files(__package__) / "rules"
        packs = sorted((e.name, e) for e in root.iterdir() if e.name.endswith(".rules"))
    else:
        packs = [(str(p), p) for p in sorted(Path(rules_dir).glob("*.rules"))]
        if not packs:
            raise DetectorError(f"no .rules files found in {rules_dir!r}")
    rules: list[tuple] = []
    first_at: dict[str, str] = {}
    for where, pack in packs:
        try:
            with pack.open(encoding="utf-8") as fh:
                rules.extend(_parse_pack(fh, where, first_at))
        except UnicodeDecodeError:
            raise utf8_error(where, pack, DetectorError) from None
    return rules


@lru_cache(maxsize=16)
def _compiled_rules(config: DetectorConfig) -> tuple[tuple, ...]:
    """``(category, rule_id, regex, trigger, factor)`` of every loaded rule
    of an enabled category, in registry order, pack order within a category.
    ``trigger`` is a tuple of literal strings, ``factor`` a compiled regex or
    ``None``.

    Every rule is compiled, enabled or not, so a bad pack fails any config."""
    rules = _load_rules(config.rules_dir)
    enabled = set(config.enabled_categories)
    rules.sort(key=lambda rule: _CATEGORY_INDEX[rule[0]])  # stable
    return tuple(rule for rule in rules if rule[0] in enabled)


# Tokens before a '.' that do not end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "Fig", "Figs", "fig", "figs", "Tab", "Tabs", "Eq", "Eqs", "Ref", "Refs",
        "No", "Nos", "no", "Dr", "Mr", "Mrs", "Ms", "Prof", "St", "Jr", "Sr",
        "vs", "cf", "ca", "al", "etc", "Inc", "Ltd", "Co", "Corp", "resp",
        "approx", "e.g", "i.e", "Ph.D",
    }
)
# A terminator that may end a sentence, with the whitespace after it.
_CANDIDATE_END = re.compile(r"[.!?](?!\S)\s*")
_LEADING_SPACE = re.compile(r"\s*")

_Boundaries = tuple[list[tuple[int, int]], list[tuple[int, int]]]


def _sentence_boundaries(text: str) -> _Boundaries:
    """Every sentence end of ``text``, found in one pass: ``(strict,
    lenient)``, two sorted lists of ``(terminator offset, end of the
    whitespace after it)``.

    Boundary detection is deliberately asymmetric: scanning backward, a lone
    capital before a period counts as a sentence end so a preceding content
    sentence ("... vitamin X.") is never swallowed; scanning forward it is
    read as a name initial so a whole statement ("© 2020 John A. Smith. All
    rights reserved.") is still removed in one piece. Each direction errs on
    the side that does the least damage. ``strict`` serves the backward
    scan and opens with the start of the text, at offset -1; ``lenient``, a
    subset of it, serves the forward scan and closes with the end, at
    ``len(text)``.
    """
    strict = [(-1, _LEADING_SPACE.match(text).end())]
    lenient = []
    for m in _CANDIDATE_END.finditer(text):
        j = m.start()
        boundary = (j, m.end())
        if text[j] == ".":
            # The token before the period, back to the last whitespace.
            k = j
            while k > 0 and not text[k - 1].isspace():
                k -= 1
            token = text[k:j]
            if token in _ABBREVIATIONS:
                continue  # no sentence end either way
            if token[-1:].isupper() and (len(token) == 1 or token[-2] == "."):
                strict.append(boundary)  # an initial: "John A. Smith", "B.V."
                continue
        strict.append(boundary)
        lenient.append(boundary)
    lenient.append((len(text), len(text)))
    return strict, lenient


def _sentence_bounds(bounds: _Boundaries, start: int, end: int) -> tuple[int, int]:
    """Widen [start, end) to the enclosing sentence of the text ``bounds``
    came from, absorbing the trailing terminator and whitespace so the
    removal splices cleanly: from the last strict end before ``start`` (and
    the whitespace after it, up to ``start``) through the first lenient end
    at or after ``end - 1`` and the whitespace after that."""
    strict, lenient = bounds
    s = min(strict[bisect_left(strict, (start,)) - 1][1], start)
    e = lenient[bisect_left(lenient, (max(end - 1, 0),))][1]
    return s, e


def _passes(trigger: tuple[str, ...], text: str) -> bool:
    """Whether ``text`` holds a member of ``trigger``; true for the empty
    trigger."""
    for literal in trigger:
        if literal in text:
            return True
    return not trigger


def detect(text: str, config: DetectorConfig | None = None) -> list[Detection]:
    """Run every enabled category's rules over ``text``.

    Returns all raw matches (overlaps across rules are allowed) ordered by
    start offset, then category registry order. Purely a function of its
    arguments: same text and config, same detections.
    """
    if config is None:
        config = DetectorConfig()
    detections: list[Detection] = []
    seen: set[tuple] = set()
    bounds = None
    for category, rule_id, regex, trigger, factor in _compiled_rules(config):
        if not _passes(trigger, text):
            continue
        if factor is not None and factor.search(text) is None:
            continue
        for m in regex.finditer(text):
            s, e = m.span()
            if s == e:
                continue
            if category in SENTENCE_SCOPED:
                if bounds is None:
                    bounds = _sentence_boundaries(text)
                s, e = _sentence_bounds(bounds, s, e)
            key = (s, e, category, rule_id)
            if key in seen:
                continue
            seen.add(key)
            detections.append(Detection(Span(s, e, category), rule_id))
    detections.sort(
        key=lambda d: (d.span.start, _CATEGORY_INDEX[d.span.label], d.span.end, d.rule_id)
    )
    return detections


def to_rem_spans(detections: Iterable[Detection]) -> list[Span]:
    """The finalized removal set of ``detections``: overlaps resolved by
    :func:`filter_spans`, each kept span labeled with its category."""
    return filter_spans(d.span for d in detections)

