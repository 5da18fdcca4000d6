import random
import re
import time
from collections import Counter
from functools import partial
from importlib import resources

import pytest

from declutter import detectors
from declutter.corpus import load_corpus
from declutter.detectors import (
    CATEGORY_REGISTRY,
    Detection,
    DetectorConfig,
    _compiled_rules,
    detect,
    to_rem_spans,
)
from declutter.errors import DetectorError
from declutter.textspan import Span, clean_text

from conftest import HOLDER, STATEMENT_EXTENT


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
    # Led by ^: sre tries it at the start of the text only, which costs
    # less than testing any trigger.
    "heading_lead": (),
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
    "ctgov_nct_paren": ("NCT",),
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
    "doi_ref_paren": ("10.",),
    "journal_vol_pages": ("(",),
    "vol_pages": ("ol",),
}

# A reach of at least this is unbounded: sre's getwidth() caps the width of
# an unbounded pattern here or above, depending on the Python version.
UNBOUNDED = detectors._sre_parse.MAXREPEAT

# The search of every built-in rule: ("anchored", reach) where the rule
# searches from the occurrences of its trigger's members, each at most its
# own reach after the match start, and reach is the largest of those;
# ("factor", reach) where it skips ahead by a factor cut from its pattern;
# None where it runs finditer behind its trigger.
BUILTIN_SEARCHES = {
    # sre tries heading_lead, led by ^, at the start of the text only; a
    # factor would scan the whole text for nothing.
    "copyright_sign": None, "copyright_c_paren": None, "heading_lead": None,
    "jel_codes": None, "index_terms": None, "pacs_codes": None, "msc_codes": None,
    "translated_from": None, "paren_figtab": None, "bracket_refs": None,
    "ctgov_nct_paren": None, "doi_ref_paren": None,
    # The first top-level literal comes after a class, an anchor or an
    # optional part.
    "copyright_word": ("factor", 1), "all_rights_reserved": ("factor", 1),
    "licensee": ("factor", 1), "payment_order": ("factor", 1),
    "single_copies": ("factor", 1), "ctgov_nct": ("factor", UNBOUNDED),
    "isrctn": ("factor", 0), "prospero": ("factor", UNBOUNDED),
    "eudract": ("factor", 0), "registered_at": ("factor", 1),
    "translation_of": ("factor", 1), "orig_published": ("factor", 1),
    "funded_by": ("factor", 1), "grant_no": ("factor", 1), "arxiv_id": ("factor", 0),
    "journal_vol_pages": ("factor", UNBOUNDED), "vol_pages": ("factor", 1),
    # The factor would start with a branch, but a trigger member follows an
    # unbounded [ \t]*.
    "heading_embedded": ("factor", 0), "doi_ref": ("factor", 0),
    # The factor would start with a branch, and every trigger member lies a
    # bounded distance after the match start. reprint_orders' "eprint" sits
    # at offset 10 of "To order reprints", a member that went from its set.
    "reprint_orders": ("anchored", 10), "heading_caps": ("anchored", 4),
    "keywords_list": ("anchored", 5), "trial_reg_sentence": ("anchored", 16),
    "funding_lead": ("anchored", 1), "support_from": ("anchored", 1),
}


def search_of(search):
    """A rule's search as the tables here pin it."""
    if not isinstance(search, partial):
        return None
    if search.func is detectors._anchored_matches:
        return ("anchored", max(search.args[1].values()))
    return ("factor", min(search.args[2], UNBOUNDED))


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
    "Runestone", "glyphstone", "Quill ;", "QUILL;", "quill\t;", "Cobalt =", "Nickel=",
    "12kelp#", "KELP#", "Kelp#", "xopal! Mopal!", "Mopal!Nopal!", "XOPAL!",
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
    # Near misses of the branch-led custom rules.
    "Rune stone", "stone", "Glyph", "quill", "Quill:", "Cobalt", "xCobalt =",
    "Nickel -", "kelp", "kelp #", "opal!", "xopal!", "Opal", "MOPAL",
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
    # A literal after an optional group and a \b: each rule gets a factor.
    ("citation", r"(AB[ \t]*)?\bCD[0-9]{2}\b"),
    ("copyright", r"(?:kk )?\bQQ[0-9]\b"),
    # Rules led by a branch, which get a factor cut from it: alternatives
    # led by classes, alternatives of mixed lead width (reach 0 and 1), a
    # branch behind \b, and one behind an unbounded repeat.
    ("citation", "(?:[Gg]lyph|[Rr]une)stone"),
    ("order_info", r"(?:[Qq]uill|QUILL)[ \t]*;"),
    ("section_heading", r"\b(?:Cobalt|Nickel)[ \t]*="),
    ("translation", "[0-9]*(?:[Kk]elp|KELP)#"),
    # The factor matches first where the rule fails ("xopal!"), and matches
    # come back to back ("Mopal!Nopal!").
    ("internal_ref", "[A-Z](?:[Oo]pal|OPAL)!"),
)
# Custom rules for the differential test of the search paths. All but the
# last two are searched from their trigger's members: \b-led with reach 0,
# $-ended, members that overlap each other ("abab" and "baba"), a
# one-character member, a kept member inside one that went ("ircon" at
# offset 5 of "Big zircon") and a reach of 41. The last two skip ahead by a
# factor, led by a branch and by a literal.
SEARCH_RULES = (
    ("citation", r"\b(?:Cobalt|Nickel)[ \t]*="),
    ("citation", "(?:[Gg]lyph|[Rr]une)stone$"),
    ("citation", "[A-Z](?:[Oo]pal|OPAL)!"),
    ("citation", "(?:[Xx]abab|[Yy]baba)"),
    ("citation", "[a-z](?:[Pp]#|#)"),
    ("citation", "(?:[Zz]ircon|[Bb]ig zircon)!"),
    ("citation", "[^.]{0,40}(?:[Qq]uartz|QUARTZ)"),
    ("citation", "[0-9]*(?:[Kk]elp|KELP)#"),
    ("citation", r"(AB[ \t]*)?\bCD[0-9]{2}\b"),
)
SEARCH_PIECES = (
    "Cobalt", "Nickel", "xCobalt", "Nickel=", " =", "=", "\t=", "Glyph", "rune", "stone",
    "Runestone", "Glyphstone", "opal!", "OPAL!", "Mopal!", "opal", "OPAL", "M", "Z", "x",
    "abab", "baba", "ab", "Xabab", "ybaba", "X", "Y", "y", "#", "p#", "P#", "a#",
    "ircon!", "zircon!", "Zircon", "big zircon!", "Big zircon", "!", "Quartz", "QUARTZ",
    "quartz", ".", ". ", " ", "-", "a" * 17, "b" * 23, "kelp#", "KELP", "12", "AB CD12",
    "CD34", "CD345", "CD",
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


def reference_detect(text, rules):
    """``detect`` as its contract states it, sharing no code with its loop
    or its searches: the non-empty ``finditer`` matches of each of
    ``rules``, as ``_compiled_rules`` gives them, sorted."""
    found = [
        (m.start(), m.end(), category, rule_id)
        for category, rule_id, regex, _trigger, _search in rules
        for m in regex.finditer(text)
        if m.end() > m.start()
    ]
    found.sort(key=lambda k: (k[0], CATEGORY_REGISTRY.index(k[2]), k[1], k[3]))
    return [Detection(Span(s, e, c), r) for s, e, c, r in found]


# Custom rules that match several times in one text, back to back too, one
# per search: finditer, a factor after \b, a search from the trigger's
# members, and finditer again, led by a branch.
REPEATING_RULES = (
    ("copyright", "zz[0-9]"),
    ("funding", r"\bkk[0-9]"),
    ("order_info", "[a-z](?:[Qq]x|QX)"),
    ("translation", "(?:ab|cd)!"),
)
REPEATING_PIECES = ("zz1", "zz2 zz3", "kk1", "kk2kk3", "aqx", "bQX cqx", "ab!", "cd!ab!")

# Headings heading_lead removes at the start of a text, after any of these
# blanks, and nowhere else.
HEADINGS = ("Abstract: ", "ABSTRACT. ", "Summary - ", "Abstract:")
LEADING_BLANKS = ("", " ", "\t", " \t  ")

# Pieces for the differential test of the loop: abbreviations, lone and
# chained initials, terminators and Unicode whitespace, which end or do not
# end a statement's extent.
STATEMENT_PIECES = (
    "word", "Results", "x", "Fig.", "fig.", "e.g.", "i.e.", "Ph.D.", "etc.", "al.",
    "Inc.", "A.", "J.", "B.V.", "U.S.A.", "a.b.", "AB.", "x.Y", "3.5", ".", "!", "?",
    "?!", "..", "end.", "Why?", "Stop!", "©", "(C)", "vs.", "No.",
)
STATEMENT_SPACES = (
    " ", " ", " ", "  ", "\n", "\t", "\xa0", "\u2009", "\x1c", "\u3000", "\u2028",
    "\x85", "", ". ",
)


def detect_counting_runs(monkeypatch, texts, configs):
    """``detect`` on every text under every config, and how many times each
    rule's regex ran, counted by rule id: once per ``detect`` call in which
    it was searched or matched, however many calls that made."""
    real = detectors._compiled_rules
    runs = Counter()
    ran = set()

    class Counted:
        def __init__(self, rule_id, regex):
            self.rule_id, self.regex = rule_id, regex

        def finditer(self, text):
            ran.add(self.rule_id)
            return self.regex.finditer(text)

        def search(self, text, pos):
            ran.add(self.rule_id)
            return self.regex.search(text, pos)

        def match(self, text, pos):
            ran.add(self.rule_id)
            return self.regex.match(text, pos)

    def counted_detect(text, config):
        ran.clear()
        detections = detect(text, config)
        runs.update(ran)
        return detections

    def recount(rule_id, regex, trigger, search):
        """The rule, its search rebuilt around its counting regex."""
        counted = Counted(rule_id, regex)
        if isinstance(search, partial):
            search = partial(search.func, counted, *search.args[1:])
        else:
            search = counted.finditer
        return counted, trigger, search

    counted = {
        config: tuple(
            (category, r, *recount(r, regex, t, f)) for category, r, regex, t, f in real(config)
        )
        for config in configs
    }
    with monkeypatch.context() as patch:
        patch.setattr(detectors, "_compiled_rules", counted.__getitem__)
        results = [[counted_detect(text, config) for config in configs] for text in texts]
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

    @pytest.mark.parametrize(
        "text, removed",
        [
            # The precision gold set holds the other holder forms, and a
            # decimal, a URL, "Dr." and "Dept." inside statements.
            ("© 2020 American Association for the Advancement of Science.", None),
            ("© The Author(s), under exclusive licence to Springer Nature AG 2021", None),
            ("Translated from the German by Prof. K. Braun, e.g. its tables.", None),
            # The holder's connectives never end it: they need a capitalised
            # word after them.
            ("© 2019 Optical Society of the results.", "© 2019 Optical Society "),
        ],
    )
    def test_statement_and_notice_extents(self, text, removed):
        """Each notice or statement goes whole, or as ``removed`` says, from
        the end of a sentence that stays."""
        carrier = "Films grew. "
        cleaned = clean_text(carrier + text, to_rem_spans(detect(carrier + text)))
        rest = text[len(removed):] if removed else ""
        assert cleaned == (carrier + rest).strip()

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

    def test_bare_string_categories_rejected(self):
        """tuple() of a string is its characters; the error names the
        string, not its first character."""
        with pytest.raises(DetectorError, match="not the string 'copyright'"):
            DetectorConfig(enabled_categories="copyright")

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


class TestDetectLoop:
    def test_detect_matches_reference(self, golden_path, tmp_path):
        """Seeded differential test of the whole loop: detect equals
        reference_detect, which runs finditer where detect runs each rule's
        own search, under the built-in packs and under a pack of rules that
        match several times per text, one per search. Some texts start with
        blanks and a heading, and headings also come mid-text, where
        heading_lead, led by ^ and run without a prescreen, must not
        match."""
        rng = random.Random(20261020)
        repeating = DetectorConfig(rules_dir=write_rules(tmp_path, REPEATING_RULES))
        # In registry order: copyright, order_info, translation, funding.
        assert [search_of(rule[4]) for rule in _compiled_rules(repeating)] == [
            None, ("anchored", 2), None, ("factor", 0)
        ]
        configs = (DetectorConfig(), repeating)
        kinds = {
            rule_id: (search_of(search) or ("finditer",))[0]
            for config in configs
            for _c, rule_id, _regex, _trigger, search in _compiled_rules(config)
        }
        sentences = [
            sentence for r in load_corpus(str(golden_path)) for sentence in r.text.split(". ")
        ]
        pools = (RULE_FRAGMENTS, STATEMENT_PIECES, sentences, REPEATING_PIECES)
        # Headings come from a generator of their own, so the other pieces
        # are those the seed gave before headings were added.
        heads = random.Random(20261024)
        found = Counter()
        headings = Counter()
        for _ in range(2000):
            pieces = []
            for _ in range(rng.randint(1, 10)):
                pieces.append(rng.choice(rng.choice(pools)))
                pieces.append(rng.choice(STATEMENT_SPACES))
            if heads.random() < 0.3:
                pieces.insert(0, heads.choice(LEADING_BLANKS) + heads.choice(HEADINGS))
            text = "".join(pieces)
            for config in configs:
                want = reference_detect(text, _compiled_rules(config))
                assert detect(text, config) == want, text
                per_rule = Counter(d.rule_id for d in want)
                for kind in {kinds[rule_id] for rule_id in per_rule}:
                    found[config, kind, "a match"] += 1
                for kind in {kinds[rule_id] for rule_id, n in per_rule.items() if n > 1}:
                    found[config, kind, "two matches"] += 1
            lead = any(d.rule_id == "heading_lead" for d in detect(text))
            if lead and text[0] in " \t":
                headings["after blanks"] += 1
            if not lead and any(h in text for h in HEADINGS):
                headings["mid-text only"] += 1
        # Not vacuous: under both packs, the rules of each of the three
        # searches matched on at least 100 texts, and one of them matched
        # twice in one text, resuming at the end of its first match, on at
        # least 5; heading_lead matched after leading blanks, and some texts
        # hold a heading mid-text only.
        for config in configs:
            for kind in ("finditer", "factor", "anchored"):
                assert found[config, kind, "a match"] >= 100, (kind, found)
                assert found[config, kind, "two matches"] >= 5, (kind, found)
        assert min(headings.values()) >= 20 and len(headings) == 2, headings

    def test_long_text_without_terminator_is_linear(self):
        """400 copyright signs in 100k characters and no sentence end: each
        sign is a bare notice, the sign and the blank after it. Widening
        each match to its sentence once took seconds here."""
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
            ("copyright_sign", i, i + 2) for i in range(0, len(text), 250)
        ]
        assert elapsed < 0.5, elapsed


class TestRulePacks:
    def test_statement_and_notice_rules_share_one_extent(self):
        """Every rule whose clutter is a statement ends with the one
        statement extent, and every copyright notice rule with the one
        holder, as conftest defines them: a fix made in one copy and not
        the others fails here."""
        notices = {"copyright_sign", "copyright_c_paren", "copyright_word"}
        ends = {}
        for pack in (resources.files(detectors) / "rules").iterdir():
            if not pack.name.endswith(".rules"):
                continue
            for line in pack.read_text(encoding="utf-8").splitlines():
                if line.strip() and not line.startswith("#"):
                    rule_id, category, pattern = line.split("\t")
                    if rule_id in notices:
                        ends[rule_id] = HOLDER
                    elif rule_id == "registered_at" or category in (
                        "copyright", "order_info", "translation", "funding"
                    ):
                        ends[rule_id] = STATEMENT_EXTENT
                    else:
                        continue
                    assert pattern.endswith(ends[rule_id]), rule_id
        assert sorted(ends.values()).count(STATEMENT_EXTENT) == 13
        assert set(ends) >= notices

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
            with pytest.raises(DetectorError, match="non-capturing"):
                detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_backreference_rejected(self, tmp_path):
        pack = tmp_path / "x.rules"
        for pattern, message in (
            ("(a)\\1", ": backreference not allowed"),
            ("(a)?(?(1)b|c)", ": conditional backreference not allowed"),
        ):
            pack.write_text(f"r1\tcopyright\t{pattern}\n", encoding="utf-8")
            with pytest.raises(DetectorError, match=re.escape(message)):
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

    def test_empty_string_rules_dir_means_builtin_packs(self, tmp_path, monkeypatch):
        """``rules_dir=""`` is the built-in packs, as ``--rules ""`` is: a
        pack in the working directory is not read."""
        assert DetectorConfig(rules_dir="") == DetectorConfig()
        (tmp_path / "x.rules").write_text("mine\tcopyright\tMYMARK\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        text = "Text. MYMARK stays. Copyright 2019 the authors."
        assert [d.rule_id for d in detect(text, DetectorConfig(rules_dir=""))] == [
            "copyright_word"
        ]

    def test_pattern_edge_blanks_rejected(self, tmp_path):
        """A blank at either edge of a pattern is an error, not silently
        dropped: ``food `` would otherwise match inside "seafood". The id
        and the category may carry blanks; a bracketed blank loads."""
        pack = tmp_path / "x.rules"
        for pattern in ("food ", " see", "\u00a0see", "  see "):
            pack.write_text(f"r1\tcitation\t{pattern}\n", encoding="utf-8")
            with pytest.raises(DetectorError) as info:
                detect("t", DetectorConfig(rules_dir=str(tmp_path)))
            assert str(info.value) == (
                f"{pack}:1: pattern has leading or trailing whitespace; "
                "write an edge blank as [ ]"
            )
        pack.write_text(" r1 \t citation \t[ ]food[ ]\n", encoding="utf-8")
        detections = detect("seafood and food here", DetectorConfig(rules_dir=str(tmp_path)))
        assert [(d.rule_id, d.span.start, d.span.end) for d in detections] == [
            ("r1", 11, 17)
        ]

    def test_triggers_never_skip_a_match(self, golden_path, monkeypatch, tmp_path):
        """Seeded differential test of the prescreen: on random texts, detect
        with triggers, factors and anchored searches equals detect with all
        three removed, where every rule runs finditer on every text."""
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
                patch.setattr(detectors, "_trigger", lambda sets: {})
                # Every search is chosen in _search, so this stubs off
                # factors and anchoring alike.
                patch.setattr(detectors, "_search", lambda tree, trigger, regex: regex.finditer)
                oracle, oracle_runs = detect_counting_runs(monkeypatch, texts, configs)
        finally:
            _compiled_rules.cache_clear()

        for text, got, want in zip(texts, results, oracle):
            assert got == want, text
        # Not vacuous: every rule but heading_lead was skipped on some text
        # (heading_lead, led by ^, has no prescreen: sre tries it at the
        # start only); every custom rule led by \b was skipped by its factor
        # on a text its trigger passed, or is searched from its trigger's
        # members, and every custom rule so searched met a member on a text
        # it does not match; and every category detected something.
        for config in configs:
            for _category, rule_id, _regex, _trigger, _search in _compiled_rules(config):
                if rule_id != "heading_lead":
                    assert runs[rule_id] < oracle_runs[rule_id], rule_id
        custom = [r for r in _compiled_rules(configs[1]) if r[1].startswith("custom_")]
        kinds = {
            rule_id: (search_of(search) or ("finditer",))[0]
            for _c, rule_id, _x, _t, search in custom
        }
        factor_skips = Counter(
            rule_id
            for _category, rule_id, _regex, trigger, search in custom
            if kinds[rule_id] == "factor"
            for text in texts
            if detectors._passes(trigger, text) and search.args[1].search(text) is None
        )
        anchored = {rule_id for rule_id, kind in kinds.items() if kind == "anchored"}
        anchor_misses = Counter(
            rule_id
            for _category, rule_id, regex, trigger, _search in custom
            if rule_id in anchored
            for text in texts
            if detectors._passes(trigger, text) and regex.search(text) is None
        )
        assert set(anchor_misses) == anchored, anchor_misses
        led_by_boundary = {
            f"custom_{i}" for i, (_c, pattern) in enumerate(CUSTOM_RULES) if "\\b" in pattern
        }
        assert len(led_by_boundary) == 3
        assert set(factor_skips) >= led_by_boundary - set(anchor_misses), factor_skips
        assert led_by_boundary & set(anchor_misses) == {"custom_20"}
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
        assert [r for r, t in table.items() if not t] == ["heading_lead"]
        assert all(isinstance(m, str) for t in table.values() for m in t)
        assert {r: tuple(sorted(t)) for r, t in table.items()} == {
            r: tuple(sorted(t)) for r, t in BUILTIN_TRIGGERS.items()
        }

    def test_factor_table_is_pinned(self, tmp_path):
        """The search, too, is cut from the private sre parse tree. Pin how
        each built-in rule searches and how far it reaches, and check on
        custom rules where the factor starts."""
        rules = _compiled_rules(DetectorConfig())
        assert {r: search_of(search) for _c, r, _x, _t, search in rules} == BUILTIN_SEARCHES
        rules = [
            ("citation", r"(AB[ \t]*)?\bCD[0-9]{2}\b"),
            ("citation", r"(?:[Qq]uill|QUILL)[ \t]*;"),
            ("citation", r"\b(?:Cobalt|Nickel)[ \t]*="),
            ("citation", "[0-9]*(?:[Kk]elp|KELP)#"),
            ("citation", "[A-Z](?:[Oo]pal|OPAL)!"),
            # sre skips ahead by these on its own.
            ("citation", "(?:Glyph|Rune)stone"),
            ("citation", r"^[ \t]*(?:[Aa]b|AB):"),
            ("citation", "Opal(?:[Aa]b|AB)"),
            # The run in front of a branch, which sre factors out of its
            # alternatives, starts each member: "QXab" sits at offset 4,
            # not 6.
            ("citation", "(?:[Ss]ol|SOL)-?(?:QXab|QXcd)"),
            # A member in a repeat sits where its first pass does.
            ("citation", "[0-9](?:[Xx]yz|XYZ)(?:-ab){2,5}"),
            ("citation", "[0-9]*(?:Kelp|KELP)#"),
            # Repeats of minimum zero that end the pattern stay out of it.
            ("citation", "[0-9]*(?:Kelp|KELP)#(?:ab)*[0-9]{0,3}"),
        ]
        config = DetectorConfig(rules_dir=write_rules(tmp_path, rules))
        searches = {r: search for _c, r, _regex, _t, search in _compiled_rules(config)}
        assert {r: search_of(f) for r, f in searches.items()} == {
            "custom_0": ("factor", UNBOUNDED), "custom_1": ("anchored", 1),
            "custom_2": ("anchored", 0), "custom_3": ("factor", UNBOUNDED),
            "custom_4": ("anchored", 2), "custom_5": None, "custom_6": None,
            "custom_7": None, "custom_8": ("anchored", 4), "custom_9": ("anchored", 4),
            "custom_10": ("factor", UNBOUNDED), "custom_11": ("factor", UNBOUNDED),
        }
        # After the leading \b, from the first top-level literal on.
        cd = searches["custom_0"].args[1]
        assert [cd.search(t) is not None for t in ("CD12", "xCD12", "CD123")] == [
            True, True, False
        ]
        # A branch with a class-led alternative starts no factor, so the
        # factor starts at the literal after it.
        kelp = searches["custom_3"].args[1]
        assert [kelp.search(t).span() for t in ("a Kelp#", "KELP#", "kelp:#")] == [
            (6, 7), (4, 5), (5, 6)
        ]
        assert kelp.search("Kelp:") is None
        # A branch whose alternatives all start with a literal starts one.
        kelp = searches["custom_10"].args[1]
        assert [kelp.search(t).span() for t in ("a Kelp#", "KELP#")] == [(2, 7), (0, 5)]
        assert kelp.search("kelp#") is None
        kelp = searches["custom_11"].args[1]
        assert kelp.search("a Kelp#abab12").span() == (2, 7)

    def test_factored_search_finds_what_finditer_finds(self, tmp_path):
        """The search resumes before each trigger occurrence: past one where
        the rule fails ("xopal!", whose [A-Z] is missing), and at the end of
        each match, so back-to-back matches are all found.

        Then a seeded differential test of the search paths: on texts dense
        with trigger members, detect with each rule alone finds exactly the
        non-empty matches of finditer, a search from the trigger tries each
        start at most once and only within a member's reach before one of
        its occurrences, and one with each member's reach one short misses
        matches."""
        pattern = "[A-Z](?:[Oo]pal|OPAL)!"
        rules_dir = write_rules(tmp_path / "one", [("citation", pattern)])
        config = DetectorConfig(rules_dir=rules_dir)
        [(*_, regex, _trigger, search)] = _compiled_rules(config)
        assert search.func is detectors._anchored_matches
        assert search.args == (regex, {"OPAL": 1, "pal": 2})
        text = "xopal! Mopal!NOPAL! opal! Zopal!"
        spans = [(d.span.start, d.span.end) for d in detect(text, config)]
        assert spans == [m.span() for m in re.finditer(pattern, text)] == [
            (7, 13), (13, 19), (26, 32)
        ]

        rng = random.Random(20261019)
        configs = [
            DetectorConfig(rules_dir=write_rules(tmp_path / f"rule_{i}", [rule]))
            for i, rule in enumerate(SEARCH_RULES)
        ]
        rules = [_compiled_rules(config)[0] for config in configs]
        kinds = [search_of(rule[4]) for rule in rules]
        anchored = [i for i, kind in enumerate(kinds) if kind and kind[0] == "anchored"]
        assert anchored == [0, 1, 2, 3, 4, 5, 6]
        assert {kinds[i][1] for i in anchored} >= {0, 41}
        texts = [
            "".join(rng.choice(SEARCH_PIECES) for _ in range(rng.randint(1, 14)))
            for _ in range(3000)
        ]
        starts = Counter()

        class Tried:
            def __init__(self, regex):
                self.regex = regex

            def match(self, text, pos):
                starts[pos] += 1
                return self.regex.match(text, pos)

        covered = Counter()
        for i, (config, (*_, regex, trigger, search)) in enumerate(zip(configs, rules)):
            for text in texts:
                want = [m.span() for m in regex.finditer(text) if m.end() > m.start()]
                got = [(d.span.start, d.span.end) for d in detect(text, config)]
                assert got == want, (SEARCH_RULES[i], text)
                covered[i, "match"] += bool(want)
                covered[i, "back to back"] += any(a[1] == b[0] for a, b in zip(want, want[1:]))
                covered[i, "at 0"] += any(text.startswith(t) for t in trigger)
                covered[i, "at end"] += any(text.endswith(t) for t in trigger)
                if i not in anchored:
                    continue
                starts.clear()
                reaches = search.args[1]
                list(detectors._anchored_matches(Tried(regex), reaches, text))
                assert max(starts.values(), default=1) == 1, (SEARCH_RULES[i], text)
                windows = {
                    start
                    for member, reach in reaches.items()
                    for at in range(len(text))
                    if text.startswith(member, at)
                    for start in range(at - reach, at + 1)
                }
                assert set(starts) <= windows, (SEARCH_RULES[i], text)
                short = {member: reach - 1 for member, reach in reaches.items()}
                found = detectors._anchored_matches(regex, short, text)
                covered[i, "short misses"] += [m.span() for m in found] != want
        # Not vacuous. The rules that end in $, or in \b after a digit,
        # cannot match back to back.
        for i in range(len(SEARCH_RULES)):
            kinds = ["match", "at 0", "at end"]
            if i not in (1, 8):
                kinds.append("back to back")
            if i in anchored:
                kinds.append("short misses")
            for kind in kinds:
                assert covered[i, kind] >= 5, (SEARCH_RULES[i], kind, covered[i, kind])

    def test_prescreen_skips_rules_whose_literals_are_absent(self, monkeypatch):
        """Case-exact headings, one-character punctuation triggers, the
        joined MSC prefix and the factor behind a passing trigger keep these
        rules off a text with only their near misses. A rule searched from
        its trigger's members runs only where one occurs."""
        text = (
            "Results show that the films grew. Methods differ across samples. "
            "Data were measured in 2019. Study of copyright law and funding rates."
        )
        skipped = (
            "heading_embedded", "heading_caps", "journal_vol_pages", "msc_codes",
            "bracket_refs", "paren_figtab",
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
        # funding_lead (reach 1) is tried at the two starts that reach the
        # "unding" of "funding rates", and nowhere else.
        [(_c, _r, regex, _trigger, search)] = [
            rule for rule in _compiled_rules(DetectorConfig()) if rule[1] == "funding_lead"
        ]
        tried = []

        class Tried:
            def match(self, text, pos):
                tried.append(pos)
                return regex.match(text, pos)

        assert list(detectors._anchored_matches(Tried(), search.args[1], text)) == []
        assert tried == [text.index("unding") - 1, text.index("unding")]
        assert runs["funding_lead"] == 2

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
        [*_, (_category, rule_id, regex, trigger, search)] = _compiled_rules(config)
        assert (rule_id, trigger, search) == ("custom_0", (), regex.finditer)
        detections = detect("Indexed under PMID 123 and pmid 456.", config)
        assert [(d.span.start, d.span.end) for d in detections] == [(14, 18), (27, 31)]


class TestToRemSpans:
    def test_empty(self):
        assert to_rem_spans([]) == []

    def test_overlap_resolved_to_the_union(self):
        from declutter.detectors import Detection

        a = Detection(Span(0, 10, "copyright"), "r1")
        b = Detection(Span(5, 12, "funding"), "r2")
        assert to_rem_spans([a, b]) == [
            Span(0, 10, "copyright"),
            Span(10, 12, "funding"),
        ]

    def test_exact_tie_goes_to_the_earlier_category(self, tmp_path):
        """detect orders equal spans by the registry, not by pack order, so
        the earlier category keeps the label."""
        rules = [("registration", "ISRCTN[0-9]{8}"), ("copyright", "ISRCTN[0-9]{8}")]
        config = DetectorConfig(rules_dir=write_rules(tmp_path, rules))
        detections = detect("See ISRCTN12345678.", config)
        assert to_rem_spans(detections) == [Span(4, 18, "copyright")]

    def test_touching_kept_with_their_categories(self):
        from declutter.detectors import Detection

        a = Detection(Span(0, 4, "copyright"), "r1")
        b = Detection(Span(4, 9, "funding"), "r2")
        assert to_rem_spans([a, b]) == [
            Span(0, 4, "copyright"),
            Span(4, 9, "funding"),
        ]

