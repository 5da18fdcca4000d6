import random
import re
import time
from collections import Counter
from importlib import resources

import pytest

from declutter import detectors
from declutter.corpus import load_corpus
from declutter.detectors import (
    CATEGORY_REGISTRY,
    DetectorConfig,
    _compiled_rules,
    detect,
    to_rem_spans,
)
from declutter.errors import DetectorError
from declutter.textspan import Span, clean_text


def categories_of(detections):
    return {d.span.label for d in detections}


def write_rules(directory, rules, builtins=False):
    """A rules directory at ``directory`` holding the pack ``custom.rules``,
    in which ``(category, pattern)`` pair ``i`` of ``rules`` is the rule
    ``custom_{i}``, and with ``builtins`` a copy of each built-in pack."""
    directory.mkdir(exist_ok=True)
    if builtins:
        for pack in (resources.files(detectors) / "rules").iterdir():
            if pack.name.endswith(".rules"):
                text = pack.read_text(encoding="utf-8")
                (directory / pack.name).write_text(text, encoding="utf-8")
    lines = [f"custom_{i}\t{c}\t{pattern}\n" for i, (c, pattern) in enumerate(rules)]
    (directory / "custom.rules").write_text("".join(lines), encoding="utf-8")
    return str(directory)


def parses(pattern):
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True


# The prescreen trigger of every built-in rule: the one literal set it tests.
BUILTIN_TRIGGERS = {
    "copyright_sign": ("©",),
    "copyright_c_paren": ("(",),
    "copyright_word": ("opyright",),
    "all_rights_reserved": ("eserved",),
    "licensee": ("icensee",),
    "payment_order": ("ayment must accompany order",),
    "reprint_orders": ("eprint",),
    "single_copies": ("ingle copies ",),
    "heading_lead": ("ABSTRACT", "Abstract", "SUMMARY", "Summary"),
    "heading_embedded": ("-", ":"),
    "heading_caps": (
        "AIM", "BACKGROUND", "CONCLUSION", "DISCUSSION", "FINDINGS", "INTRODUCTION",
        "METHOD", "OBJECTIVE", "POINTS", "PURPOSE", "RESULT",
    ),
    "jel_codes": ("JEL",),
    "keywords_list": ("WORD", "ord"),
    "index_terms": ("INDEX TERMS", "Index "),
    "pacs_codes": ("PACS",),
    "msc_codes": ("MSC", "Mathematics Subject Classification"),
    "ctgov_nct": ("NCT",),
    "trial_reg_sentence": ("egistration",),
    "isrctn": ("ISRCTN",),
    "prospero": ("CRD42",),
    "eudract": ("EudraCT",),
    "registered_at": ("egistered at", "egistered in", "egistered on", "egistered with"),
    "translation_of": (" is a translation of",),
    "translated_from": ("Translated by arrangement with", "Translated from"),
    "orig_published": ("riginally published in",),
    "funding_lead": ("FUNDING", "unding"),
    "funded_by": (" by",),
    "support_from": ("inancial support ", "upported by "),
    "grant_no": ("rant",),
    "paren_figtab": ("(",),
    "bracket_refs": ("[",),
    "arxiv_id": ("arXiv",),
    "doi_ref": ("10.",),
    "journal_vol_pages": ("(",),
    "vol_pages": ("ol",),
}

# The built-in rules that get a necessary factor: those whose first top-level
# literal comes after a class, an anchor or an optional part.
BUILTIN_FACTORS = {
    "copyright_word", "all_rights_reserved", "licensee", "payment_order",
    "single_copies", "ctgov_nct", "trial_reg_sentence", "isrctn", "prospero",
    "eudract", "registered_at", "translation_of", "orig_published", "funding_lead",
    "funded_by", "grant_no", "arxiv_id", "doi_ref", "journal_vol_pages", "vol_pages",
}

# Text pieces for the prescreen differential test: a match of every built-in
# rule, near misses that share trigger literals, and case-folding traps.
RULE_FRAGMENTS = [
    "[1-4]", "[12, 14]", "arXiv:2101.12345", "arXiv: hep-th/9901001",
    "doi:10.1000/xyz123", "DOI: 10.1234/abc", "Nature Physics 12(3): 45-67",
    "J. Appl. Phys. 104 (2), pp. 12-19", "Vol. 3, No. 2, pp. 10-20",
    "© 2020 Springer", "(C) 2019", "Copyright 2021", "copyright © 2018",
    "All Rights Reserved", "Licensee MDPI", "Funding:", "FUNDING Sources:",
    "This work was supported by", "Supported by a grant",
    "Financial support was provided by", "Grant No. AB1234", "(Fig. 2)",
    "(see Tables 1 and 2)", "JEL Codes: O15, C21", "Keywords: cats, dogs.",
    "Index Terms: x, y.", "PACS: 12.34.Ab", "MSC: 35Q30, 76D05",
    "Mathematics Subject Classification (2010): 35A01",
    "Payment must accompany order", "To order reprints", "Reprints available from",
    "Single copies of this article are available",
    "ClinicalTrials.gov Identifier: NCT01234567", "NCT 012345678",
    "Trial registration: ISRCTN.", "ISRCTN12345678", "PROSPERO CRD42019123456",
    "EudraCT Number: 2010-123456-12", "Registered at ClinicalTrials.gov under",
    "Abstract: ", "Summary - ", "Results: ", "Data & Samples: ",
    "Main Outcome Measures - ", "METHODS: ", "KEY POINTS. ",
    "This paper is a translation of", "Translated from the German",
    "Originally published in", "zzqyy", "quuxyy", "zzlongwordyy", "xyzwwdef",
    "optionalxyzw", "abEFgh", "cdefgh", "wxyz", "alphadelt", "betagammadelt",
    "QXabyy", "QXcdyy", "QXab", "QX5ef", "ZETAKappa", "ZETAkappa", "wq(7)",
    "AB CD12", "AB\tCD99", "CD34", "ABCD56", "kk QQ7", "QQ3", "x-QQ9 z",
]
NEAR_MISSES = [
    "copyrighted", "all rights", "licensees 3", "funding source", "supported the",
    "grants", "(Figure)", "[a-b]", "JEL", "key words", "index", "PACS 12", "MSC",
    "payment", "reprint", "single copy", "NCT123", "registration", "ISRCTN 123",
    "CRD41", "EudraCT", "registered", "abstracts", "results-driven",
    "methods-based", "RESULTSX", "translation", "translated", "originally",
    "arXiv", "doi 10.", "vol", "(c)", "Vol. 3", "zzlongword", "quuxy",
    "optiona", "xyz", "cdeFg", "wxy", "alphadel",
    # Heading words apart from their ':' or '-', and case near misses.
    "Results show", "Methods differ", "claim", "Aims and", "RESULTS ARE",
    "Background", "Conclusion", "METHODS", ":", "-", " -",
    "M SC", "msc", "Msc", "MSC", "Mathematics subject classification",
    # Parentheses and brackets without digits.
    "(see above)", "( )", "(Fig.)", "(Table)", "[ref]", "[]", "[a, b]", "(", "]",
    "QXcd yy", "qxcdyy", "QXef", "QX ef", "ZETA", "zetakappa", "Zeta Kappa",
    "wq(x)", "wq()", "wq(", "7)",
    # Hold the literal of a factor rule, but no match of its factor.
    "CD1", "CD123", "CD 12", "CDx12", "AB CD", "cd12", "QQ", "QQ12", "QQa", "kk QQ",
]
FOLD_NOISE = [
    "ß", "ẞ", "STRASSE", "straße", "İ", "i̇", "ı", "Σ", "σ", "ς", "ΟΔΟΣ", "οδος",
    "ΣΟΦΙΑ", "ςοφια", "ﬁ", "ﬁnal report", "FINAL REPORT", "\u212aelvin",
    "Kelvin", "İstanbul", "istanbul", "ΣΣ", "Ǆa", "ǆb", "ǅ",
]
# Custom rules whose literals fold differently under lower() and casefold(),
# and whose mandatory literals hide behind nesting and optional parts.
CUSTOM_RULES = (
    ("funding", "ΟΔΟΣ"),
    ("citation", "straße"),
    ("copyright", "İstanbul"),
    ("translation", "[Σσς]ΟΦΙΑ"),
    ("registration", "ﬁnal report"),
    ("internal_ref", "\u212aelvin"),
    ("order_info", "ΣΣ"),
    ("keywords_codes", "Ǆ[ab]"),
    ("funding", "(?:zz(?:longword|q)|quux)yy"),
    ("citation", "(?:optional)?xyzw+?(?:abc|def)*"),
    ("section_heading", "(?:ab|cd)[Ee][Ff]gh|wxyz"),
    ("internal_ref", "(alpha|betagamma)delt"),
    # sre factors the shared prefix QX out of the branch; the second rule has
    # an alternative that does not start with a literal.
    ("citation", "(?:QXab|QXcd)yy"),
    ("order_info", "(?:QXab|QX[0-9]ef)"),
    # A case class that ends an exact run mid-word.
    ("funding", "ZETA[Kk]appa"),
    # A mandatory one-character literal.
    ("registration", r"wq\([0-9]\)"),
    # A literal after an optional capturing group and a \b: the rule gets a
    # factor, one in a sentence-scoped category.
    ("citation", r"(AB[ \t]*)?\bCD[0-9]{2}\b"),
    ("copyright", r"(?:kk )?\bQQ[0-9]\b"),
)
CASINGS = (
    lambda s, rng: s,
    lambda s, rng: s,
    lambda s, rng: s.lower(),
    lambda s, rng: s.upper(),
    lambda s, rng: s.title(),
    lambda s, rng: "".join(c.swapcase() if rng.random() < 0.3 else c for c in s),
)
SEPARATORS = (" ", " ", ". ", ", ", "\n", "", ": ", " - ", "\t", "ß", "Σ ", "İ")


_TERMINATORS = ".!?"


def _is_sentence_end(text, j, lenient_initials):
    """Whether ``text[j]`` ends a sentence, tested on its own: the oracle's
    copy of the rules, sharing only the abbreviation list with the code
    under test."""
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
    if token in detectors._ABBREVIATIONS:
        return False
    if lenient_initials:
        if len(token) == 1 and token.isupper():
            return False  # lone initial, "John A. Smith"
        if len(token) >= 2 and token[-2] == "." and token[-1].isupper():
            return False  # chained initials, "B.V."
    return True


def scanning_sentence_bounds(text, start, end):
    """The widening oracle: scan back from ``start`` and forward from
    ``end - 1`` one character at a time, testing each with
    ``_is_sentence_end``, then absorb the whitespace after each boundary."""
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


# Pieces for the widening differential test: abbreviations, lone and
# chained initials, terminators and Unicode whitespace.
WIDENING_PIECES = (
    "word", "Results", "x", "Fig.", "fig.", "e.g.", "i.e.", "Ph.D.", "etc.", "al.",
    "Inc.", "A.", "J.", "B.V.", "U.S.A.", "a.b.", "AB.", "x.Y", "3.5", ".", "!", "?",
    "?!", "..", "end.", "Why?", "Stop!", "©", "(C)", "vs.", "No.",
)
WIDENING_SPACES = (
    " ", " ", " ", "  ", "\n", "\t", "\xa0", "\u2009", "\x1c", "\u3000", "\u2028",
    "\x85", "", ". ",
)


def detect_counting_runs(monkeypatch, texts, configs):
    """``detect`` on every text under every config, and how many times each
    rule's regex ran, counted by rule id."""
    real = detectors._compiled_rules
    runs = Counter()

    class Counted:
        def __init__(self, rule_id, regex):
            self.rule_id, self.regex = rule_id, regex

        def finditer(self, text):
            runs[self.rule_id] += 1
            return self.regex.finditer(text)

    counted = {
        config: tuple(
            (category, r, Counted(r, regex), t, f)
            for category, r, regex, t, f in real(config)
        )
        for config in configs
    }
    with monkeypatch.context() as patch:
        patch.setattr(detectors, "_compiled_rules", counted.__getitem__)
        results = [[detect(text, config) for config in configs] for text in texts]
    return results, runs


class TestGoldenFixtures:
    def test_every_clutter_case_detected_in_its_category(
        self, golden_path, clutter_cases
    ):
        records = {r.id: r for r in load_corpus(str(golden_path))}
        for rec_id, clutter, category, carrier in clutter_cases:
            detections = detect(records[rec_id].text)
            assert category in categories_of(detections), (rec_id, clutter)
            cleaned = clean_text(records[rec_id].text, to_rem_spans(detections))
            assert clutter not in cleaned, rec_id
            assert carrier in cleaned, rec_id

    def test_reclean_stability(self, golden_path):
        for record in load_corpus(str(golden_path)):
            cleaned = clean_text(record.text, to_rem_spans(detect(record.text)))
            assert detect(cleaned) == []

    def test_clean_text_is_clutter_free(self):
        assert detect("We study the behaviour of cats.") == []


class TestDetect:
    def test_registration_single_whole_string_detection(self):
        detections = detect("ClinicalTrials.gov: NCT012345678")
        assert len(detections) == 1
        d = detections[0]
        assert d.span.label == "registration"
        assert (d.span.start, d.span.end) == (0, 32)

    def test_order_info_covers_sentence(self):
        text = "We study X. Payment must accompany order. More text follows."
        detections = detect(text)
        assert [d.span.label for d in detections] == ["order_info"]
        span = detections[0].span
        assert text[span.start : span.end] == "Payment must accompany order. "

    def test_internal_ref_match_local(self):
        text = "We show gains (Fig. 1) on all datasets."
        detections = detect(text)
        assert [d.span.label for d in detections] == ["internal_ref"]
        span = detections[0].span
        assert text[span.start : span.end] == "(Fig. 1)"

    def test_sentence_extension_skips_abbreviations(self):
        text = "Results were strong. © 2020 Elsevier B.V. All rights reserved."
        cleaned = clean_text(text, to_rem_spans(detect(text)))
        assert cleaned == "Results were strong."

    def test_deterministic_and_ordered(self):
        text = (
            "Background: we study films [1-4]. Funding: grant support. "
            "© 2021 Elsevier."
        )
        first = detect(text)
        second = detect(text)
        assert first == second
        starts = [d.span.start for d in first]
        assert starts == sorted(starts)

    def test_category_isolation(self):
        text = "Background: films [1-4]. © 2021 Elsevier. All rights reserved."
        full = detect(text)
        without = detect(
            text,
            DetectorConfig(
                enabled_categories=tuple(
                    c for c in CATEGORY_REGISTRY if c != "citation"
                )
            ),
        )
        assert [d for d in full if d.span.label != "citation"] == without

    def test_no_categories_enabled(self):
        assert detect("© 2020 Springer", DetectorConfig(enabled_categories=())) == []

    def test_unknown_category_rejected(self):
        with pytest.raises(DetectorError, match="unknown category"):
            DetectorConfig(enabled_categories=("copyright", "watermark"))

    def test_custom_rule(self, tmp_path):
        rules = [("citation", r"PMID[ \t]*:[ \t]*[0-9]{6,9}")]
        config = DetectorConfig(rules_dir=write_rules(tmp_path, rules, builtins=True))
        detections = detect("See also PMID: 1234567 for details.", config)
        assert [(d.span.label, d.rule_id) for d in detections] == [
            ("citation", "custom_0")
        ]

    def test_custom_rule_matches_through_final_sigma(self, tmp_path):
        """str.lower() turns a word-final capital sigma into a final small
        sigma, which a per-character fold of the trigger never produces."""
        rules = [("citation", "ΟΔΟΣ")]
        config = DetectorConfig(rules_dir=write_rules(tmp_path, rules, builtins=True))
        detections = detect("Body text. ΟΔΟΣ 12 here.", config)
        assert [(d.rule_id, d.span.start, d.span.end) for d in detections] == [
            ("custom_0", 11, 15)
        ]

    def test_pure_function_of_text(self):
        assert detect("nothing here") == []


class TestTaxonomyStrings:
    @pytest.mark.parametrize(
        "text, category",
        [
            ("Data & Samples: we use registry data.", "section_heading"),
            ("Copyright 2021 Wiley and Sons.", "copyright"),
            ("(C) 2020 the authors.", "copyright"),
            ("Keywords: perovskite, moisture, lifetime.", "keywords_codes"),
            ("Earlier work arXiv:2101.12345 showed this.", "citation"),
            ("See doi:10.1000/xyz123 for details.", "citation"),
            ("Registered as ISRCTN12345678 before enrolment.", "registration"),
            ("Review protocol CRD42019123456 applies.", "registration"),
            ("Translated from the German original text.", "translation"),
            ("This study was supported by grant funds.", "funding"),
            ("We report values (Table 2) for all runs.", "internal_ref"),
            ("As shown before [12, 14] this holds.", "citation"),
        ],
    )
    def test_detected_in_expected_category(self, text, category):
        assert category in categories_of(detect(text)), text


class TestHeadings:
    def test_leading_heading(self):
        text = "Abstract. We present a solver."
        cleaned = clean_text(text, to_rem_spans(detect(text)))
        assert cleaned == "We present a solver."

    def test_embedded_heading_colon(self):
        text = "Cells grew fast. Results: growth doubled."
        cleaned = clean_text(text, to_rem_spans(detect(text)))
        assert cleaned == "Cells grew fast. growth doubled."

    def test_hyphenated_word_not_a_heading(self):
        assert detect("A results-driven methods-based approach.") == []

    def test_heading_keeps_section_body(self):
        text = "Conclusion- The method generalizes."
        cleaned = clean_text(text, to_rem_spans(detect(text)))
        assert cleaned == "The method generalizes."


class TestSentenceWidening:
    def test_bisect_widening_matches_scanning_oracle(self):
        """Seeded differential test: boundaries found once per text, looked
        up by bisect, widen every span as the one-character scan does."""
        rng = random.Random(20241018)
        checked = 0
        for _ in range(1500):
            pieces = []
            for _ in range(rng.randint(0, 12)):
                pieces.append(rng.choice(WIDENING_PIECES))
                pieces.append(rng.choice(WIDENING_SPACES))
            if rng.random() < 0.3:
                pieces.insert(0, rng.choice(".!?"))  # a terminator at offset 0
            if pieces and rng.random() < 0.5:
                pieces.pop()  # end on a piece, often a terminator
            text = "".join(pieces)
            n = len(text)
            if n == 0:
                continue
            bounds = detectors._sentence_boundaries(text)
            pairs = {(0, 1), (0, n), (n - 1, n)}
            for _ in range(12):
                start = rng.randrange(n)
                pairs.add((start, rng.randint(start + 1, n)))
            for start, end in pairs:
                got = detectors._sentence_bounds(bounds, start, end)
                assert got == scanning_sentence_bounds(text, start, end), (
                    text, start, end
                )
                checked += 1
        assert checked > 15000

    def test_long_text_without_terminator_is_linear(self):
        """400 copyright signs in 100k characters and no sentence end: every
        match widens to the whole text. The per-match scan took seconds."""
        rng = random.Random(400)
        words = ("films", "grew", "under", "light", "and", "heat", "samples", "were")
        chunks = []
        for _ in range(400):
            chunk = "© " + " ".join(rng.choice(words) for _ in range(60))
            chunks.append(chunk[:249] + " ")
        text = "".join(chunks)
        assert len(text) == 100_000 and text.count("©") == 400
        detect(text)  # compile the packs outside the timed call
        started = time.perf_counter()
        detections = detect(text)
        elapsed = time.perf_counter() - started
        assert [(d.rule_id, d.span.start, d.span.end) for d in detections] == [
            ("copyright_sign", 0, len(text))
        ]
        assert elapsed < 0.5, elapsed


class TestRulePacks:
    def test_malformed_line_rejected(self, tmp_path):
        pack = tmp_path / "x.rules"
        pack.write_text("only_two_fields\tcopyright\n", encoding="utf-8")
        with pytest.raises(DetectorError, match="expected"):
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_unknown_category_in_pack_rejected(self, tmp_path):
        pack = tmp_path / "x.rules"
        pack.write_text("r1\tnot_a_category\tfoo\n", encoding="utf-8")
        with pytest.raises(DetectorError, match="unknown category"):
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_lookahead_rejected(self, tmp_path):
        pack = tmp_path / "x.rules"
        for pattern in ("foo(?=bar)", "(?<=a)b", "(?>ab)c", "a*+b", "x?+y", "a{2,}+"):
            pack.write_text(f"r1\tcopyright\t{pattern}\n", encoding="utf-8")
            # Python 3.10 cannot parse possessive or atomic syntax at all.
            expected = "non-capturing" if parses(pattern) else "bad pattern"
            with pytest.raises(DetectorError, match=expected):
                detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_backreference_rejected(self, tmp_path):
        pack = tmp_path / "x.rules"
        for pattern in ("(a)\\1", "(a)?(?(1)b|c)"):
            pack.write_text(f"r1\tcopyright\t{pattern}\n", encoding="utf-8")
            with pytest.raises(DetectorError, match="backreference"):
                detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_named_groups_and_inline_flags_rejected(self, tmp_path):
        for pattern, expected in [
            ("(?P<n>a)b", "named group"),
            ("(?i)abc", "inline flags"),
            ("(?i:a)bc", "inline flags"),
            ("(?x)a b", "inline flags"),
        ]:
            rules_dir = write_rules(tmp_path, [("citation", pattern)])
            config = DetectorConfig(rules_dir=rules_dir)
            with pytest.raises(DetectorError, match=expected):
                detect("t", config)

    def test_unparsable_pattern_rejected(self, tmp_path):
        for pattern in ("(ab", "a{99999999999}", "(?:" * 5000 + "a" + ")" * 5000):
            rules_dir = write_rules(tmp_path, [("citation", pattern)])
            config = DetectorConfig(rules_dir=rules_dir)
            with pytest.raises(DetectorError, match=r"custom\.rules:1: bad pattern"):
                detect("t", config)

    def test_duplicate_rule_id_rejected(self, tmp_path):
        """A rule id names one rule across every loaded pack, whether its
        category is enabled or not."""
        a, b = tmp_path / "a.rules", tmp_path / "b.rules"
        a.write_text("r1\tcopyright\tFOO\n", encoding="utf-8")
        b.write_text("# a comment\nr1\tcitation\tBAR\n", encoding="utf-8")
        for enabled in (CATEGORY_REGISTRY, ("copyright",), ()):
            config = DetectorConfig(enabled_categories=enabled, rules_dir=str(tmp_path))
            with pytest.raises(DetectorError) as info:
                detect("FOO and BAR", config)
            assert str(info.value) == f"{b}:2: duplicate rule id 'r1' (first at {a}:1)"
        b.unlink()
        a.write_text("r1\tcopyright\tFOO\nr2\tcitation\tBAR\nr1\tfunding\tBAZ\n",
                     encoding="utf-8")
        with pytest.raises(DetectorError) as info:
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))
        assert str(info.value) == f"{a}:3: duplicate rule id 'r1' (first at {a}:1)"

    def test_group_syntax_inside_a_class_loads(self, tmp_path):
        pack = tmp_path / "x.rules"
        pack.write_text("r1\tcitation\t[(?=]x\n", encoding="utf-8")
        detections = detect("a =x (x b", DetectorConfig(rules_dir=str(tmp_path)))
        assert [(d.span.start, d.span.end) for d in detections] == [(2, 4), (5, 7)]

    def test_comments_and_blanks_skipped(self, tmp_path):
        pack = tmp_path / "x.rules"
        pack.write_text(
            "# a comment\n\nmine\tcopyright\tMYMARK\n", encoding="utf-8"
        )
        detections = detect(
            "Text. MYMARK stays here.", DetectorConfig(rules_dir=str(tmp_path))
        )
        assert [d.rule_id for d in detections] == ["mine"]

    def test_builtin_and_rules_dir_packs_read_alike(self, tmp_path, monkeypatch):
        """The same pack loads the same as a built-in pack and under
        ``rules_dir``: a U+2028 inside a comment breaks no line in either,
        and an undecodable byte gets the same error in both."""
        rules = tmp_path / "rules"
        rules.mkdir()
        pack = rules / "x.rules"
        text = "Text. MYMARK stays here."

        def load_both():
            outcomes = []
            for config in (DetectorConfig(), DetectorConfig(rules_dir=str(rules))):
                _compiled_rules.cache_clear()
                try:
                    with monkeypatch.context() as patch:
                        patch.setattr(detectors.resources, "files", lambda pkg: tmp_path)
                        outcomes.append([d.rule_id for d in detect(text, config)])
                except DetectorError as exc:
                    outcomes.append(str(exc).replace(str(pack), pack.name))
                finally:
                    _compiled_rules.cache_clear()
            return outcomes

        pack.write_text(
            "# a comment \u2028 with a line separator\nmine\tcopyright\tMYMARK\n",
            encoding="utf-8",
        )
        assert load_both() == [["mine"], ["mine"]]
        pack.write_bytes(b"mine\tcopyright\tMYMARK\n# caf\xe9\n")
        assert load_both() == ["x.rules:2: not UTF-8 (byte 0xE9)"] * 2

    def test_empty_rules_dir_rejected(self, tmp_path):
        with pytest.raises(DetectorError, match="no .rules files"):
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_triggers_never_skip_a_match(self, golden_path, monkeypatch, tmp_path):
        """Seeded differential test of the prescreen: on random texts, detect
        with triggers and factors equals detect with both stages removed."""
        rng = random.Random(20240611)
        rules_dir = write_rules(tmp_path, CUSTOM_RULES, builtins=True)
        configs = (DetectorConfig(), DetectorConfig(rules_dir=rules_dir))
        # Every mandatory literal set of every rule, not only the one each
        # trigger tests: record what _trigger is given while compiling.
        literal_sets = []
        real_trigger = detectors._trigger
        _compiled_rules.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    detectors,
                    "_trigger",
                    lambda sets: literal_sets.extend(sets) or real_trigger(sets),
                )
                _compiled_rules(configs[1])
        finally:
            _compiled_rules.cache_clear()
        literals = list(dict.fromkeys(m for s in literal_sets for m in s if m))
        assert len(literals) >= 145
        golden = [r.text for r in load_corpus(str(golden_path))]
        pools = [
            golden,
            [sentence for text in golden for sentence in text.split(". ")],
            [casing(literal, rng) for literal in literals for casing in CASINGS],
            RULE_FRAGMENTS,
            NEAR_MISSES,
            FOLD_NOISE,
        ]
        texts = []
        for _ in range(2400):
            pieces = []
            for _ in range(rng.randint(1, 6)):
                piece = rng.choice(rng.choice(pools))
                pieces.append(rng.choice(CASINGS)(piece, rng))
                pieces.append(rng.choice(SEPARATORS))
            texts.append("".join(pieces))

        results, runs = detect_counting_runs(monkeypatch, texts, configs)
        _compiled_rules.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(detectors, "_trigger", lambda sets: ())
                patch.setattr(detectors, "_factor", lambda tree: None)
                oracle, oracle_runs = detect_counting_runs(monkeypatch, texts, configs)
        finally:
            _compiled_rules.cache_clear()

        for text, got, want in zip(texts, results, oracle):
            assert got == want, text
        # Not vacuous: every rule was skipped on some text, every custom rule
        # with a factor was skipped by it on a text its trigger passed, and
        # every category detected something.
        for config in configs:
            for _category, rule_id, _regex, _trigger, _factor in _compiled_rules(config):
                assert runs[rule_id] < oracle_runs[rule_id], rule_id
        factor_skips = Counter(
            rule_id
            for _category, rule_id, _regex, trigger, factor in _compiled_rules(configs[1])
            if factor is not None
            for text in texts
            if detectors._passes(trigger, text) and factor.search(text) is None
        )
        led_by_boundary = {
            f"custom_{i}" for i, (_c, pattern) in enumerate(CUSTOM_RULES) if "\\b" in pattern
        }
        assert len(led_by_boundary) == 2
        assert set(factor_skips) >= led_by_boundary, factor_skips
        found = {d.span.label for per_config in results for d in per_config[0]}
        assert found == set(CATEGORY_REGISTRY)
        assert {d.rule_id for per_config in results for d in per_config[1]} >= {
            f"custom_{i}" for i in range(len(CUSTOM_RULES))
        }

    def test_trigger_table_is_pinned(self):
        """Trigger derivation reads the private sre parse tree. Pin the whole
        derived table, so a change in the tree's shape or in the derivation
        shows up here."""
        rules = _compiled_rules(DetectorConfig())
        table = {rule_id: trigger for _category, rule_id, _regex, trigger, _f in rules}
        assert () not in table.values()
        assert all(isinstance(m, str) for t in table.values() for m in t)
        assert {r: tuple(sorted(t)) for r, t in table.items()} == {
            r: tuple(sorted(t)) for r, t in BUILTIN_TRIGGERS.items()
        }

    def test_factor_table_is_pinned(self, tmp_path):
        """The factor, too, is cut from the private sre parse tree. Pin which
        built-in rules get one, and check on one rule that its factor starts
        at the first top-level literal, after the leading ``\\b``."""
        rules = _compiled_rules(DetectorConfig())
        assert {r for _c, r, _regex, _t, factor in rules if factor is not None} == (
            BUILTIN_FACTORS
        )
        rules = [("citation", r"(AB[ \t]*)?\bCD[0-9]{2}\b")]
        config = DetectorConfig(rules_dir=write_rules(tmp_path, rules))
        [*_, (_category, _rule_id, _regex, _trigger, factor)] = _compiled_rules(config)
        assert [factor.search(t) is not None for t in ("CD12", "xCD12", "CD123")] == [
            True, True, False
        ]

    def test_prescreen_skips_rules_whose_literals_are_absent(self, monkeypatch):
        """Case-exact headings, one-character punctuation triggers, the
        joined MSC prefix and the factor behind a passing trigger keep these
        rules off a text with only their near misses."""
        text = (
            "Results show that the films grew. Methods differ across samples. "
            "Data were measured in 2019. Study of copyright law and funding rates."
        )
        skipped = (
            "heading_embedded", "heading_caps", "journal_vol_pages", "msc_codes",
            "bracket_refs", "paren_figtab", "funding_lead",
        )
        notice = text + " Copyright 2019 the authors."
        _, runs = detect_counting_runs(monkeypatch, [text, notice], [DetectorConfig()])
        assert {rule_id: runs[rule_id] for rule_id in skipped} == dict.fromkeys(
            skipped, 0
        )
        # Not vacuous: the trigger of copyright_word is met in both texts,
        # but only the notice holds a match of its factor, so it runs once.
        [trigger] = [t for _c, r, _x, t, _f in _compiled_rules(DetectorConfig())
                     if r == "copyright_word"]
        assert detectors._passes(trigger, text)
        assert runs["copyright_word"] == 1

    def test_prescreen_is_case_exact(self, monkeypatch):
        """Upper-case near misses of case-class rules hold none of their exact
        runs, so those rules never run; their own casings do."""
        text = (
            "ALL RIGHTS RESERVED by the board. PAYMENT MUST ACCOMPANY ORDER forms. "
            "ORIGINALLY PUBLISHED IN 2019. LICENSEE DATA."
        )
        matching = (
            "All rights reserved by the board. Payment must accompany order forms. "
            "Originally published in 2019. Licensee Data."
        )
        rules = ("all_rights_reserved", "licensee", "payment_order", "orig_published")
        _, runs = detect_counting_runs(
            monkeypatch, [text, matching], [DetectorConfig()]
        )
        assert {rule_id: runs[rule_id] for rule_id in rules} == dict.fromkeys(rules, 1)

    def test_rule_without_exact_run_gets_empty_trigger(self, tmp_path):
        """Every literal of [Pp][Mm][Ii][Dd] sits in a class, so the rule has
        the empty trigger, runs on every text and still detects."""
        rules = [("citation", "[Pp][Mm][Ii][Dd]")]
        config = DetectorConfig(
            enabled_categories=("citation",),
            rules_dir=write_rules(tmp_path, rules, builtins=True),
        )
        [*_, (_category, rule_id, _regex, trigger, factor)] = _compiled_rules(config)
        assert (rule_id, trigger, factor) == ("custom_0", (), None)
        detections = detect("Indexed under PMID 123 and pmid 456.", config)
        assert [(d.span.start, d.span.end) for d in detections] == [(14, 18), (27, 31)]


class TestToRemSpans:
    def test_empty(self):
        assert to_rem_spans([]) == []

    def test_overlap_resolved_longest_first(self):
        from declutter.detectors import Detection

        a = Detection(Span(0, 10, "copyright"), "r1")
        b = Detection(Span(5, 12, "funding"), "r2")
        assert to_rem_spans([a, b]) == [Span(0, 10, "copyright")]

    def test_touching_kept_with_their_categories(self):
        from declutter.detectors import Detection

        a = Detection(Span(0, 4, "copyright"), "r1")
        b = Detection(Span(4, 9, "funding"), "r2")
        assert to_rem_spans([a, b]) == [
            Span(0, 4, "copyright"),
            Span(4, 9, "funding"),
        ]

