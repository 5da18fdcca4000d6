"""The built-in rules match in time linear in the text.

A backtracking engine takes polynomial time on a pattern where two runs of
the same characters touch with only optional parts between them, such as
``[ \\t]*(?:Codes)?[ \\t]*``: when the rest of the pattern fails, it tries
every way of splitting the run between them. The rewritten rules put each
run inside the optional group it follows, so a run of spaces has one parse.

A rule's search, too, must stay linear where its trigger occurs densely:
an anchored search tries the regex at each start at most once.
"""

import json
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import declutter
from declutter import detectors
from declutter.detectors import DetectorConfig, _compiled_rules

from conftest import STATEMENT_EXTENT

SRC = Path(declutter.__file__).resolve().parent.parent

# The patterns before the rewrite, kept as the oracles of their rewrites:
# the same matches, found in polynomial time on a long run of spaces.
OLD_PATTERNS = {
    "jel_codes": r"JEL[ \t]*(?:[Cc]odes?|[Cc]lassifications?|[Cc]lass\.?)?[ \t]*"
    r"(?:[Nn]umbers?|[Nn]os?\.?)?[ \t]*:?[ \t]*[A-Z][0-9]{1,3}"
    r"(?:[ \t]*(?:,|;|and|&)[ \t]*[A-Z]?[0-9]{1,3})*\.?",
    "eudract": r"\bEudraCT[ \t]*(?:[Nn]umber|[Nn]o\.?)?[ \t]*:?[ \t]*"
    r"[0-9]{4}-[0-9]{6}-[0-9]{2}\b",
    "trial_reg_sentence": r"(?:[Tt]rial|[Ss]tudy|[Cc]linical [Tt]rial)[ \t][Rr]egistration"
    r"[ \t]*(?:[Nn]umbers?|[Nn]os?\.?)?[ \t]*[:.][ \t]*[^.!?]{0,120}[.!?]?",
    "ctgov_nct": r"(?:ClinicalTrials\.gov[ \t]*(?:[Ii]dentifier|[Rr]egistration"
    r"(?:[ \t]+[Nn]umber)?|[Nn]umber|[Nn]o\.?|ID)?[ \t]*[:#]?[ \t]*)?NCT[ \t]?[0-9]{8,11}",
    "prospero": r"(?:PROSPERO[ \t]*(?:[Rr]egistration)?[ \t]*:?[ \t]*)?\bCRD42[0-9]{5,9}\b",
    # Since then grant_no runs on to the end of its statement, so its
    # oracle ends the same way.
    "grant_no": r"[Gg]rant[ \t]+(?:[Nn]os?\.?|[Nn]umbers?)[ \t]*:?[ \t]*"
    r"[A-Z0-9][A-Z0-9/\-]{2,}" + STATEMENT_EXTENT,
    "msc_codes": r"(?:MSC|Mathematics Subject Classification)[ \t]*"
    r"(?:\(?(?:19|20)[0-9]{2}\)?)?[ \t]*:[ \t]*[0-9][0-9A-Z,;()' \t]{0,80}",
}

_RUNS = [" ", " ", " ", "\t", "  ", " \t "]
_IDS = ["NCT01234567", "NCT 012345678", "NCT123", "CRD42019123456", "CRD4212"]
# Per rewritten rule, the pieces its strings are drawn from: leads, then its
# optional slots in pattern order (each a list of words, right and wrong),
# then tails that end a match or make it fail.
PIECES = {
    "jel_codes": (
        ["JEL", "JEL", "JEL", "Jel", "xJEL"],
        [["Codes", "Code", "codes", "Classifications", "Classification", "Class",
          "class.", "Co"], ["Numbers", "number", "Nos.", "No.", "no"], [":", "."]],
        ["B12", "C1", "D123, E4", "Q5; R12 and Z9.", "A1 & 2", "A1 ,B2 and", "x",
         "12", "K1234", "O15."],
    ),
    "eudract": (
        ["EudraCT", "EudraCT", "EudraCT", "xEudraCT", "Eudract"],
        [["Number", "number", "No.", "No", "no", "Numbers"], [":"] * 4 + ["."]],
        ["2010-123456-12"] * 4 + ["2010-123456-12x", "2010-12345-12", "x",
                                  "2010-123456-123"],
    ),
    "trial_reg_sentence": (
        ["Trial registration", "Study Registration", "Clinical Trial registration",
         "trial\tregistration", "Trial  registration", "Trial registrations"],
        [["Numbers", "Number", "numbers", "Nos.", "No.", "nos", "No", "Nr"],
         [":", ".", ":", ",", ""]],
        ["ISRCTN12345678.", "NCT01234567", "x!", "", "." + "a" * 130, "a b. c",
         ": x?"],
    ),
    "ctgov_nct": (
        ["ClinicalTrials.gov", "ClinicalTrials.gov", "ClinicalTrials gov", ""],
        [["Identifier", "identifier", "Registration", "registration Number",
          "Registration\tnumber", "Number", "No.", "No", "ID", "Reg"], [":", "#", "."]],
        _IDS + ["x"],
    ),
    "prospero": (
        ["PROSPERO", "PROSPERO", "PROSPERO", "Prospero", "xPROSPERO"],
        [["Registration", "registration", "Reg", "x"], [":"] * 4 + ["."]],
        _IDS + ["CRD42019123456"] * 4 + ["CRD420191234567890", "CRD42019123456x", "x"],
    ),
    "grant_no": (
        ["Grant ", "grant ", "Grant\t", "Grants ", "Grant"],
        [["Nos.", "No.", "No", "nos", "Numbers", "Number", "Nr"], [":"] * 4 + ["."]],
        ["AB1234", "R01-GM/12", "ZZZ"] * 2 + ["12", "x", "A-", "ab12"],
    ),
    "msc_codes": (
        ["MSC", "MSC", "Mathematics Subject Classification", "MSc"],
        [["(2010)", "2020", "(1991", "2000)", "(2010)", "(20", "(", ")"], [":"] * 4 + ["."]],
        ["35Q30, 76D05", "35A01 (primary); 49J20", "3", "0'A B"] * 2 + ["x", "A"],
    ),
}


def _shipped_regexes():
    return {rule_id: regex for _c, rule_id, regex, _t, _f in _compiled_rules(DetectorConfig())}


def _draw(rng, leads, slots, tails):
    """One string: a lead, each slot's word or none with runs of blanks
    between, now and then a word moved out of place, and a tail; now and
    then a second such string after it."""
    parts = [rng.choice(["", "", "See ", "a.", "Text. "]), rng.choice(leads)]
    for words in slots:
        if rng.random() < 0.5:
            parts.append(rng.choice(_RUNS))
        if rng.random() < 0.5:
            parts.append(rng.choice(words))
    if rng.random() < 0.6:
        parts.append(rng.choice(_RUNS))
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        parts.insert(rng.randint(1, len(parts)), rng.choice(rng.choice(slots) + _RUNS))
    parts.append(rng.choice(tails))
    if rng.random() < 0.2:
        parts += [" ", _draw(rng, leads, slots, tails)]
    return "".join(parts)


def test_rewritten_rules_match_their_old_patterns():
    """Seeded differential test: each rewritten rule finds exactly the spans
    its old pattern finds, on strings drawn from the rule's own pieces."""
    rng = random.Random(20261019)
    shipped = _shipped_regexes()
    for rule_id, old in OLD_PATTERNS.items():
        oracle = re.compile(old)
        regex = shipped[rule_id]
        matched = 0
        for _ in range(10_000):
            text = _draw(rng, *PIECES[rule_id])
            want = [m.span() for m in oracle.finditer(text)]
            assert [m.span() for m in regex.finditer(text)] == want, (rule_id, text)
            matched += bool(want)
        assert matched >= 1000, (rule_id, matched)


def _one_char(state, node):
    """A character the one-character node ``node`` matches."""
    regex = detectors._sre_compile.compile(detectors._sre_parse.SubPattern(state, [node]))
    return next(c for c in map(chr, range(32, 0x3000)) if regex.fullmatch(c))


def _witness(state, seq):
    """A shortest string that the parsed node sequence ``seq`` matches:
    optional parts left out, each branch by its first alternative."""
    out = []
    for op, av in seq:
        kind = op.name
        if kind == "BRANCH":
            out.append(_witness(state, av[1][0]))
        elif kind == "SUBPATTERN":
            out.append(_witness(state, av[3]))
        elif kind in ("MAX_REPEAT", "MIN_REPEAT"):
            out.append(_witness(state, av[2]) * av[0])
        elif kind != "AT":
            out.append(_one_char(state, (op, av)))
    return "".join(out)


def _pumps(state, seq, lead=""):
    """``(lead, char)`` for every repeat of one character in ``seq``: the
    shortest text that reaches the repeat, with every group around it
    entered, and a character the repeat takes."""
    found = []
    for i, (op, av) in enumerate(seq):
        before = lead + _witness(state, seq[:i])
        kind = op.name
        if kind in ("MAX_REPEAT", "MIN_REPEAT"):
            body = list(av[2])
            if len(body) == 1 and body[0][0].name in ("LITERAL", "NOT_LITERAL", "IN", "ANY"):
                found.append((before, _one_char(state, body[0])))
            else:
                found += _pumps(state, body, before)
        elif kind == "SUBPATTERN":
            found += _pumps(state, list(av[3]), before)
        elif kind == "BRANCH":
            for alt in av[1]:
                found += _pumps(state, list(alt), before)
    return found


def pumping_cases():
    """``[rule_id, lead, char]`` for every repeat of every built-in rule."""
    cases = []
    for pack in sorted((resources.files(detectors) / "rules").iterdir(), key=str):
        if not pack.name.endswith(".rules"):
            continue
        for line in pack.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                rule_id, _category, pattern = line.split("\t")
                tree = detectors._sre_parse.parse(pattern)
                for lead, char in dict.fromkeys(_pumps(tree.state, list(tree))):
                    cases.append([rule_id, lead, char])
    return cases


# Times each case's regex over its lead, 20,000 of its character and a NUL,
# which ends every run of a class the rules spell out, and prints the worst
# time per rule as JSON.
PUMP = """
import json, sys, time
from declutter.detectors import DetectorConfig, _compiled_rules
regexes = {r: regex for _c, r, regex, _t, _f in _compiled_rules(DetectorConfig())}
worst = {}
for rule_id, lead, char in json.load(sys.stdin):
    text = lead + char * 20_000 + "\\x00"
    started = time.perf_counter()
    for _ in regexes[rule_id].finditer(text):
        pass
    worst[rule_id] = max(worst.get(rule_id, 0.0), time.perf_counter() - started)
print(json.dumps(worst))
"""


def test_every_rule_is_linear_on_pumped_input():
    """Each built-in rule, on its shortest lead to each repeat, then 20,000
    characters the repeat takes, then a tail that fails: the rule's regex
    alone, without the prescreen, finishes in well under a second. Before
    the rewrites, "JEL" and 400 spaces took 17 s. The run is a subprocess,
    so a regression fails at the timeout instead of hanging the suite."""
    cases = pumping_cases()
    for hung in (["jel_codes", "JEL", " "], ["eudract", "EudraCT", " "],
                 ["prospero", "PROSPERO", " "], ["ctgov_nct", "ClinicalTrials.gov", " "]):
        assert hung in cases
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{PUMP}"],
        input=json.dumps(cases),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    worst = json.loads(result.stdout)
    slow = {rule_id: t for rule_id, t in worst.items() if t > 1.0}
    assert not slow, slow


# Times detect with each built-in rule alone, in a pack of its own, over
# 100,000 characters of each member of its trigger, repeated with a space
# after it, and prints the worst time per rule as JSON.
DENSE = """
import json, sys, tempfile, time
from pathlib import Path
from declutter.detectors import DetectorConfig, detect
worst = {}
with tempfile.TemporaryDirectory() as tmp:
    for rule_id, line, trigger in json.load(sys.stdin):
        pack = Path(tmp, rule_id)
        pack.mkdir()
        (pack / "one.rules").write_text(line + "\\n", encoding="utf-8")
        config = DetectorConfig(rules_dir=str(pack))
        detect("", config)
        for member in trigger:
            text = ((member + " ") * (100_000 // (len(member) + 1) + 1))[:100_000]
            started = time.perf_counter()
            detect(text, config)
            worst[rule_id] = max(worst.get(rule_id, 0.0), time.perf_counter() - started)
print(json.dumps(worst))
"""


def test_every_rule_is_linear_on_dense_triggers():
    """Each built-in rule on 100,000 characters of one of its trigger's
    members, repeated: "eprint eprint ...", "AIM AIM ...", "ord ord ...".
    A rule searched from its trigger tries the regex at up to its reach
    plus one starts per occurrence, each start at most once, so detect
    with the rule alone finishes in well under a second. A rule with the
    empty trigger (heading_lead, led by ^) runs on the members of every
    mandatory literal set of its pattern instead. Like the pumping test, it
    runs in a subprocess."""
    triggers = {r: t for _c, r, _x, t, _f in _compiled_rules(DetectorConfig())}

    def members(rule_id, pattern):
        if triggers[rule_id]:
            return triggers[rule_id]
        tree = detectors._sre_parse.parse(pattern)
        return [m for s in detectors._literal_sets(tree, rule_id) for m in s if m]

    cases = [
        [rule_id, line, members(rule_id, pattern)]
        for pack in sorted((resources.files(detectors) / "rules").iterdir(), key=str)
        if pack.name.endswith(".rules")
        for line in pack.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
        for rule_id, _category, pattern in [line.split("\t")]
    ]
    assert all(trigger for _r, _l, trigger in cases)
    assert {rule_id for rule_id, _l, _t in cases} == set(triggers)
    result = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{DENSE}"],
        input=json.dumps(cases),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    worst = json.loads(result.stdout)
    assert set(worst) == set(triggers)
    slow = {rule_id: t for rule_id, t in worst.items() if t > 1.0}
    assert not slow, slow
