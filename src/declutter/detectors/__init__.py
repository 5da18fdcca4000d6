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

Each rule also gets a prescreen and a search path, derived from the same
parse. Its trigger is one set of literal strings of which every match
contains one verbatim, and ``detect`` runs a rule only on texts that hold a
member of it. Its factor, when it has one, is the pattern from its first
top-level literal, or branch whose alternatives all start with a literal,
on: a regex every match contains, at most the factor's reach after the
match starts. ``detect`` runs a factored rule only from the reach before
each match of its factor, resuming at the end of the match it finds there.
sre can search for a factor that starts with a branch only by its set of
first characters, so a rule with a branch that has a literal in every
alternative before its first top-level literal is searched from its
trigger instead, when each member lies at most its own bounded reach after
the match start: ``str.find`` finds each member's occurrences, and the
regex is tried only in each occurrence's window, the starts within its
member's reach before it. Each rule has exactly one of these searches,
chosen when its pack is loaded. A rule led by ``^`` or ``\\A`` has no
prescreen and plain ``finditer``: sre tries it at the start of the text
only.

A detection is exactly its rule's non-empty match: a rule whose clutter is
a statement (copyright, order_info, translation, funding) carries the
statement's bounded extent in its own pattern, so the packs alone specify
what is removed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from heapq import heapify, heappop, heapreplace
from importlib import resources
from pathlib import Path
from typing import Iterable

from re import _compiler as _sre_compile  # type: ignore[attr-defined]
from re import _parser as _sre_parse  # type: ignore[attr-defined]

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


@dataclass(frozen=True)
class DetectorConfig:
    """Which categories run, and where the rule packs are.

    ``rules_dir`` replaces the built-in packs entirely; ``None`` or ``""``
    means the built-in packs.
    """

    enabled_categories: tuple[str, ...] = CATEGORY_REGISTRY
    rules_dir: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.enabled_categories, str):  # tuple() would split it
            raise DetectorError(
                f"enabled_categories must be a sequence of category names, "
                f"not the string {self.enabled_categories!r}"
            )
        object.__setattr__(self, "enabled_categories", tuple(self.enabled_categories))
        object.__setattr__(self, "rules_dir", self.rules_dir or None)
        for name in self.enabled_categories:
            if name not in _CATEGORY_INDEX:
                raise DetectorError(f"unknown category {name!r}")


# What ``detect`` runs without a config; frozen, so one instance serves all.
_DEFAULT_CONFIG = DetectorConfig()


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


# The width sre's getwidth() gives an unbounded pattern is at least this.
_UNBOUNDED = _sre_parse.MAXREPEAT


def _width(state, nodes) -> int:
    """The most characters a match of the node sequence ``nodes`` can span,
    as sre's ``getwidth()`` gives it: at least ``_UNBOUNDED`` when it is
    unbounded."""
    return _sre_parse.SubPattern(state, nodes).getwidth()[1]


def _literal_sets(seq, where: str, lead: str = "", at: int = 0) -> list[dict[str, int]]:
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

    Each set maps its members to their offsets: the most characters that
    can come before the member in a match, where ``seq`` starts at most
    ``at`` characters into it. An offset of ``_UNBOUNDED`` or more is
    unbounded.
    """
    found: list[dict[str, int]] = []
    run, run_at = lead, at - len(lead)
    for op, av in seq.data:
        kind = op.name
        if kind not in _ALLOWED_NODES:
            name = _NODE_NAMES.get(kind, kind.lower().replace("_", " "))
            raise _not_allowed(where, name)
        if kind == "LITERAL":
            if not run:
                run_at = at
            run += chr(av)
            at += 1
            continue
        if kind == "BRANCH":
            members: dict[str, int] = {}
            for alt in av[1]:
                runs = [
                    next(iter(s.items())) for s in _literal_sets(alt, where, run, at)
                    if len(s) == 1
                ]
                member, offset = max(runs, key=lambda r: len(r[0]), default=("", 0))
                members[member] = max(offset, members.get(member, offset))
            found.append(dict(sorted(members.items())))
            run = ""
        else:
            if run:
                found.append({run: run_at})
                run = ""
            if kind == "SUBPATTERN":
                if av[1] or av[2]:
                    raise _not_allowed(where, "inline flags")
                found += _literal_sets(av[3], where, "", at)
            elif kind in ("MAX_REPEAT", "MIN_REPEAT"):
                inner = _literal_sets(av[2], where, "", at)
                if av[0] >= 1:
                    found += inner
        at += _width(seq.state, [(op, av)])
    if run:
        found.append({run: run_at})
    return found


def _trigger(sets: list[dict[str, int]]) -> dict[str, int]:
    """Turn a rule's mandatory literal sets into its prescreen trigger: one
    set of literals, every match holding a member, each mapped to its
    reach, the most characters that can come before it in a match.

    A member that contains another member of its set goes, since the shorter
    one is in every text the longer one is in; the reach of the one kept is
    the greatest of its own offset and those of the members that went,
    each plus where the kept one first occurs in it. Of the sets without an
    empty member, the trigger is the one with the fewest members per
    character of its shortest member, the first such in pattern order: few
    and long literals are quick to test and rarely present by chance, so
    ``heading_embedded`` tests ``:`` and ``-``, not its 20 heading words,
    and ``translated_from`` tests ``Translated from``, not a space. A rule
    with no such set gets the empty trigger, which every text meets.
    """
    candidates = []
    for s in sets:
        if all(s):
            kept = [m for m in s if not any(o != m and o in m for o in s)]
            candidates.append(
                {k: max(at + m.find(k) for m, at in s.items() if k in m) for k in kept}
            )
    return min(candidates, key=lambda c: len(c) / min(map(len, c)), default={})


def _search(tree, trigger: dict[str, int], regex: re.Pattern):
    """The rule's one search, chosen from the parsed ``tree``: a callable
    that takes a text and yields the matches ``regex.finditer`` yields. It
    is ``_factored_matches`` over the rule's necessary factor and the
    factor's reach; ``_anchored_matches`` over ``trigger``, the map from
    each member to its reach; or ``regex.finditer`` itself.

    The factor is the parse tree from the first top-level node that is a
    ``LITERAL``, or a ``BRANCH`` each of whose alternatives starts with one,
    to the end, less the repeats of minimum zero that end the pattern, such
    as a statement's extent: they can always match empty, so the factor
    matches at the same starts without them, and is quicker to compile and
    to search. Its reach is the most characters the nodes before it can
    span. Every match of the pattern ``A·F`` holds a match of ``F`` where
    ``A`` ends, at most ``reach`` characters after the match starts, and
    ``\\b``, ``^`` and ``$`` test the same text there. So a text in which
    the factor has no match holds no match of the rule, and no match of the
    rule starts more than ``reach`` characters before the first match of
    the factor. A rule led by ``\\b``, a class, an optional group or a
    branch with a class-led alternative gives sre no literal to skip ahead
    by; its factor gives it one.

    sre searches for a factor led by a branch only by its set of first
    characters, trying each place that holds one. So when a branch with a
    top-level literal in every alternative comes before the first top-level
    literal, and every member of ``trigger`` has a bounded reach, the rule
    is searched from its trigger instead. ``heading_embedded`` and
    ``doi_ref`` keep their factors, as their triggers follow a ``[ \\t]*``.
    A factor led by a literal stays: sre skips ahead by that literal, and
    past a factor match where the rule fails its search goes on without a
    call per start.

    ``regex.finditer`` where sre already skips on its own: a pattern led by
    a literal or by a branch whose alternatives all start with one; and
    where no node qualifies.
    """
    data, state = tree.data, tree.state
    for i, (op, av) in enumerate(data):
        if op.name == "BRANCH":
            firsts = [
                next((j for j, (o, _a) in enumerate(alt.data) if o.name == "LITERAL"), None)
                for alt in av[1]
            ]
            if None in firsts:
                continue
            if i == 0 and not any(firsts):
                break
            if max(trigger.values(), default=_UNBOUNDED) < _UNBOUNDED:
                return partial(_anchored_matches, regex, trigger)
            if any(firsts):
                continue
        elif op.name != "LITERAL":
            continue
        elif i == 0:
            break
        end = len(data)
        while data[end - 1][0].name in ("MAX_REPEAT", "MIN_REPEAT") and not data[end - 1][1][0]:
            end -= 1
        factor = _sre_compile.compile(_sre_parse.SubPattern(state, data[i:end]))
        return partial(_factored_matches, regex, factor, _width(state, data[:i]))
    return regex.finditer


def _factored_matches(regex: re.Pattern, factor: re.Pattern, reach: int, text: str):
    """The matches ``regex.finditer(text)`` yields, found by skipping ahead
    to each match of the factor: the search for the next match resumes
    ``reach`` characters before the next factor match, where the earliest
    match that can hold it starts, and stops where the factor has none.

    A factored rule has a mandatory literal, so it never matches empty, and
    ``finditer`` resumes each search where the last match ended, as here.
    """
    pos = 0
    while (f := factor.search(text, pos)) is not None:
        m = regex.search(text, max(pos, f.start() - reach))
        if m is None:
            return
        yield m
        pos = m.end()


def _anchored_matches(regex: re.Pattern, reaches: dict[str, int], text: str):
    """The matches ``regex.finditer(text)`` yields, found from the
    occurrences of the trigger's members, ``reaches`` mapping each to its
    reach: ``str.find`` finds the first occurrence of each, and the next.

    Every match holds a member at most its reach after the match start, so
    only the starts from an occurrence's earliest start, the occurrence less
    its member's reach, to the occurrence itself can reach it. Occurrences
    are taken in order of earliest start, one per member at a time; one
    that lies before the resume point is moved on to the next occurrence of
    its member first, since no match from there holds it. At each other
    occurrence the regex is tried at those starts of its window not tried
    yet, in order: no start before the window can reach a member not passed
    yet. The search resumes at the end of each match, as ``finditer``'s
    does. The trigger has no empty member, so no match is empty.
    """
    find, match = text.find, regex.match
    # The next occurrence of each member not yet passed.
    ahead = [
        (at - reach, at, member)
        for member, reach in reaches.items()
        if (at := find(member)) >= 0
    ]
    heapify(ahead)
    pos = 0  # every start before pos is tried
    while ahead:
        earliest, at, member = ahead[0]
        if at < pos:
            if (at := find(member, pos)) >= 0:
                heapreplace(ahead, (at - reaches[member], at, member))
            else:
                heappop(ahead)
            continue
        for start in range(max(pos, earliest), at + 1):
            if m := match(text, start):
                yield m
                pos = m.end()
                break
        else:
            pos = at + 1


def _compile_rule(pattern: str, where: str) -> tuple:
    """Parse ``pattern`` once, check it, and compile it along with its
    prescreen trigger and its search, derived from the same parse tree.

    Inline flags are rejected, so no rule turns on IGNORECASE and a
    ``LITERAL`` node matches exactly its own code point: the trigger has a
    member in every text the regex matches in, and skipping the regex when
    it has none can never drop a detection. The trigger is ``()`` when the
    pattern has no mandatory literal; its reach is then unbounded.

    A pattern led by ``^`` or ``\\A`` gets the empty trigger and
    ``regex.finditer``: sre tries it at the start of the text only, which
    costs less than one scan of the text for a trigger or a factor.
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
    sets = _literal_sets(tree, where)  # checks the pattern, anchored or not
    regex = _sre_compile.compile(tree)
    if tree.data and tree.data[0][0].name == "AT" and tree.data[0][1].name in (
        "AT_BEGINNING", "AT_BEGINNING_STRING"
    ):
        return regex, (), regex.finditer
    trigger = _trigger(sets)
    return regex, tuple(trigger), _search(tree, trigger, regex)


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
        rule_id, category, pattern = parts[0].strip(), parts[1].strip(), parts[2]
        if not rule_id or not pattern:
            raise DetectorError(f"{where}:{lineno}: empty rule id or pattern")
        if pattern != pattern.strip():
            raise DetectorError(
                f"{where}:{lineno}: pattern has leading or trailing whitespace; "
                "write an edge blank as [ ]"
            )
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
    """``(category, rule_id, regex, trigger, search)`` of every loaded rule
    of an enabled category, in registry order, pack order within a category.
    ``trigger`` is a tuple of literal strings. ``search`` is the one search
    ``_search`` chose for the rule: called with a text, it yields the
    matches ``regex.finditer`` would. Every rule runs only on a text that
    ``_passes`` its trigger.

    Every rule is compiled, enabled or not, so a bad pack fails any config."""
    rules = _load_rules(config.rules_dir)
    enabled = set(config.enabled_categories)
    rules.sort(key=lambda rule: _CATEGORY_INDEX[rule[0]])  # stable
    return tuple(rule for rule in rules if rule[0] in enabled)


def _passes(trigger: tuple[str, ...], text: str) -> bool:
    """Whether ``text`` holds a member of ``trigger``; true for the empty
    trigger."""
    for literal in trigger:
        if literal in text:
            return True
    return not trigger


def detect(text: str, config: DetectorConfig | None = None) -> list[Detection]:
    """Run every enabled category's rules over ``text``.

    Returns one detection per non-empty match of each rule, ordered by
    start offset, then category registry order; overlaps across rules are
    allowed, and one rule's matches are disjoint. Purely a function of its
    arguments: same text and config, same detections.
    """
    if config is None:
        config = _DEFAULT_CONFIG
    detections: list[Detection] = []
    for category, rule_id, _regex, trigger, search in _compiled_rules(config):
        if not _passes(trigger, text):
            continue
        for m in search(text):
            s, e = m.span()
            if s != e:
                detections.append(Detection(Span(s, e, category), rule_id))
    detections.sort(
        key=lambda d: (d.span.start, _CATEGORY_INDEX[d.span.label], d.span.end, d.rule_id)
    )
    return detections


def to_rem_spans(detections: Iterable[Detection]) -> list[Span]:
    """The finalized removal set of ``detections``: the union of their spans
    by :func:`filter_spans`, each piece labeled with its category. Where two
    detections overlap, the earlier start owns the shared characters; in
    ``detect``'s order, an exact tie goes to the earlier category of the
    registry."""
    return filter_spans(d.span for d in detections)

