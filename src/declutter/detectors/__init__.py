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

Each rule also gets a prescreen trigger, derived from the same parse: a tuple
of case-folded literals, one of which every match contains once case folded.
``detect`` runs a rule's regex only on texts whose case-folded form contains
one of them.

Categories whose clutter is sentence-shaped (copyright, order_info,
translation, funding) have their raw matches extended to sentence boundaries;
all other categories remove exactly what the pattern matched.
"""

from __future__ import annotations

import re
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

from ..corpus import load_corpus
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
    """Which categories run, plus optional extra rules and rule-pack location.

    ``rules_dir`` replaces the built-in packs entirely; ``custom_rules`` are
    ``(category, pattern)`` pairs appended to whatever packs are loaded.
    """

    enabled_categories: tuple[str, ...] = CATEGORY_REGISTRY
    custom_rules: tuple[tuple[str, str], ...] = ()
    rules_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "enabled_categories", tuple(self.enabled_categories))
        object.__setattr__(
            self, "custom_rules", tuple(tuple(r) for r in self.custom_rules)
        )
        for name in self.enabled_categories:
            if name not in _CATEGORY_INDEX:
                raise DetectorError(f"unknown category {name!r}")
        for category, _pattern in self.custom_rules:
            if category not in _CATEGORY_INDEX:
                raise DetectorError(f"unknown category {category!r} in custom rule")


@dataclass(frozen=True)
class Detection:
    """One rule match; ``span.label`` always equals ``category``."""

    span: Span
    category: str
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


def _literal_sets(seq, where: str) -> list[tuple[bool, tuple[str, ...]]]:
    """Check a parsed pattern sequence against the engine-neutral subset and
    return its mandatory case-folded literal sets, in pattern order.

    A set tagged ``True`` is one contiguous run; one tagged ``False`` holds the
    longest run of each alternative of a branch. Every match of ``seq``, case
    folded, contains every run and a member of every branch set. Optional
    parts (minimum-zero repeats, alternatives nested in alternatives) are
    checked but contribute nothing.
    """
    found: list[tuple[bool, tuple[str, ...]]] = []
    run: list[str] = []
    for op, av in seq:
        kind = op.name
        if kind not in _ALLOWED_NODES:
            name = _NODE_NAMES.get(kind, kind.lower().replace("_", " "))
            raise _not_allowed(where, name)
        if kind == "LITERAL":
            run.append(chr(av).casefold())
            continue
        if kind == "IN":  # a class extends the run iff all its members fold alike
            folds = {chr(v).casefold() if o.name == "LITERAL" else None for o, v in av}
            if len(folds) == 1 and None not in folds:
                run.append(folds.pop())
                continue
        if run:
            found.append((True, ("".join(run),)))
            run = []
        if kind == "SUBPATTERN":
            if av[1] or av[2]:
                raise _not_allowed(where, "inline flags")
            found += _literal_sets(av[3], where)
        elif kind in ("MAX_REPEAT", "MIN_REPEAT"):
            inner = _literal_sets(av[2], where)
            if av[0] >= 1:
                found += inner
        elif kind == "BRANCH":
            bests = set()
            for alt in av[1]:
                runs = [lits[0] for is_run, lits in _literal_sets(alt, where) if is_run]
                bests.add(max(runs, key=len, default=""))
            found.append((False, tuple(sorted(bests))))
    if run:
        found.append((True, ("".join(run),)))
    return found


def _trigger(sets: list[tuple[bool, tuple[str, ...]]]) -> tuple[str, ...] | None:
    """Pick the prescreen literals among a rule's mandatory literal sets.

    Short literals are too common to prescreen on, so every member must have
    at least three characters, unless the set is a run with a distinctive
    non-ASCII character such as the copyright sign. Of the usable sets, the
    one whose shortest member is longest wins, a run winning a tie.
    """
    usable = [
        (min(map(len, lits)), is_run, lits)
        for is_run, lits in sets
        if all(len(s) >= 3 for s in lits) or (is_run and not lits[0].isascii())
    ]
    return max(usable, key=lambda u: u[:2])[2] if usable else None


def _compile_rule(pattern: str, where: str) -> tuple[re.Pattern, tuple | None]:
    """Parse ``pattern`` once, check it, and compile it along with its
    prescreen trigger, derived from the same parse tree.

    The trigger is a tuple of case-folded literals, one of which occurs in the
    case-folded form of every text the regex matches in, so skipping the regex
    when none occurs can never drop a detection. It is None when the pattern
    has no usable mandatory literal.
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
    return _sre_compile.compile(tree), trigger


def _parse_pack(lines: Iterable[str], where: str) -> list[tuple]:
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
        rules.append((category, rule_id, *_compile_rule(pattern, where_line)))
    return rules


def _load_rules(rules_dir: str | None) -> list[tuple]:
    rules: list[tuple] = []
    if rules_dir is None:
        root = resources.files(__package__) / "rules"
        entries = sorted(
            (e for e in root.iterdir() if e.name.endswith(".rules")),
            key=lambda e: e.name,
        )
        for entry in entries:
            text = entry.read_text(encoding="utf-8")
            rules.extend(_parse_pack(text.splitlines(), entry.name))
    else:
        paths = sorted(Path(rules_dir).glob("*.rules"))
        if not paths:
            raise DetectorError(f"no .rules files found in {rules_dir!r}")
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                rules.extend(_parse_pack(fh, str(path)))
    return rules


@lru_cache(maxsize=16)
def _compiled_rules(config: DetectorConfig) -> tuple[tuple, ...]:
    """``(category, rule_id, regex, trigger)`` of every loaded and custom rule
    of an enabled category, in registry order, pack order within a category.

    Every rule is compiled, enabled or not, so a bad pack fails any config."""
    rules = _load_rules(config.rules_dir)
    for i, (category, pattern) in enumerate(config.custom_rules):
        where = f"custom rule {i}"
        rules.append((category, f"custom_{i}", *_compile_rule(pattern, where)))
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
_TERMINATORS = ".!?"


def _is_sentence_end(text: str, j: int, lenient_initials: bool) -> bool:
    ch = text[j]
    if ch not in _TERMINATORS:
        return False
    if j + 1 < len(text) and not text[j + 1].isspace():
        return False
    if ch != ".":
        return True
    k = j
    while k > 0 and not text[k - 1].isspace():
        k -= 1
    token = text[k:j]
    if token in _ABBREVIATIONS:
        return False
    if lenient_initials:
        if len(token) == 1 and token.isupper():
            return False  # lone initial, "John A. Smith"
        if len(token) >= 2 and token[-2] == "." and token[-1].isupper():
            return False  # chained initials, "B.V."
    return True


def _sentence_bounds(text: str, start: int, end: int) -> tuple[int, int]:
    """Widen [start, end) to the enclosing sentence, absorbing the trailing
    terminator and whitespace so the removal splices cleanly.

    Boundary detection is deliberately asymmetric: scanning backward, a lone
    capital before a period counts as a sentence end so a preceding content
    sentence ("... vitamin X.") is never swallowed; scanning forward it is
    read as a name initial so a whole statement ("© 2020 John A. Smith. All
    rights reserved.") is still removed in one piece. Each direction errs on
    the side that does the least damage.
    """
    s = 0
    for j in range(start - 1, -1, -1):
        if _is_sentence_end(text, j, lenient_initials=False):
            s = j + 1
            break
    while s < start and text[s].isspace():
        s += 1
    n = len(text)
    e = n
    for j in range(max(end - 1, 0), n):
        if _is_sentence_end(text, j, lenient_initials=True):
            e = j + 1
            break
    while e < n and text[e].isspace():
        e += 1
    return s, e


def detect(text: str, config: DetectorConfig | None = None) -> list[Detection]:
    """Run every enabled category's rules over ``text``.

    Returns all raw matches (overlaps across rules are allowed) ordered by
    start offset, then category registry order. Purely a function of its
    arguments: same text and config, same detections.
    """
    if config is None:
        config = DetectorConfig()
    folded = text.casefold()
    detections: list[Detection] = []
    seen: set[tuple] = set()
    for category, rule_id, regex, trigger in _compiled_rules(config):
        if trigger is not None:
            for literal in trigger:
                if literal in folded:
                    break
            else:
                continue
        for m in regex.finditer(text):
            s, e = m.span()
            if s == e:
                continue
            if category in SENTENCE_SCOPED:
                s, e = _sentence_bounds(text, s, e)
            key = (s, e, category, rule_id)
            if key in seen:
                continue
            seen.add(key)
            detections.append(Detection(Span(s, e, category), category, rule_id))
    detections.sort(
        key=lambda d: (d.span.start, _CATEGORY_INDEX[d.category], d.span.end, d.rule_id)
    )
    return detections


def to_rem_spans(detections: Iterable[Detection]) -> list[Span]:
    """The finalized removal set of ``detections``: overlaps resolved by
    :func:`filter_spans`, each kept span labeled with its category."""
    return filter_spans(d.span for d in detections)


def load_predictions(path: str) -> dict[str, list[Span]]:
    """Load a predictions file (corpus line format) as finalized span sets
    keyed by record id. Offsets are validated against their text only when
    the spans are joined with a gold record during scoring."""
    return {r.id: list(r.spans) for r in load_corpus(path, schema="predictions")}
