import random
import re
from collections import Counter

import pytest

from declutter import detectors
from declutter.corpus import load_corpus
from declutter.detectors import (
    CATEGORY_REGISTRY,
    DetectorConfig,
    _compiled_rules,
    detect,
    load_predictions,
    to_rem_spans,
)
from declutter.errors import CorpusError, DetectorError
from declutter.textspan import Span, clean_text


def categories_of(detections):
    return {d.category for d in detections}


def parses(pattern):
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True


# The prescreen trigger of every built-in rule.
BUILTIN_TRIGGERS = {
    "bracket_refs": None,
    "arxiv_id": ("arxiv",),
    "doi_ref": ("10.",),
    "journal_vol_pages": None,
    "vol_pages": ("vol",),
    "copyright_sign": ("©",),
    "copyright_c_paren": ("(c)",),
    "copyright_word": ("copyright",),
    "all_rights_reserved": ("all rights reserved",),
    "licensee": ("licensee",),
    "funding_lead": ("funding",),
    "funded_by": ("financed", "funded", "sponsored", "supported"),
    "support_from": ("financial support ", "supported by "),
    "grant_no": ("grant",),
    "paren_figtab": None,
    "jel_codes": ("jel",),
    "keywords_list": ("word",),
    "index_terms": ("ndex terms",),
    "pacs_codes": ("pacs",),
    "msc_codes": None,
    "payment_order": ("payment must accompany order",),
    "reprint_orders": ("available ", "to order reprints"),
    "single_copies": ("single copies ",),
    "ctgov_nct": ("nct",),
    "trial_reg_sentence": ("registration",),
    "isrctn": ("isrctn",),
    "prospero": ("crd42",),
    "eudract": ("eudract",),
    "registered_at": ("registered ",),
    "heading_lead": ("abstract", "summary"),
    "heading_embedded": (
        " samples", "aim", "background", "conclusion", "discussion", "findings",
        "implications", "intervention", "introduction", "limitations",
        "main outcome measure", "materials and methods", "method", "methodology",
        "objective", "participants", "purpose", "result", "setting",
        "significance", "study design",
    ),
    "heading_caps": (
        "aim", "background", "conclusion", "discussion", "findings",
        "introduction", "method", "objective", "points", "purpose", "result",
    ),
    "translation_of": (" is a translation of",),
    "translated_from": ("translated ",),
    "orig_published": ("originally published in",),
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
]
NEAR_MISSES = [
    "copyrighted", "all rights", "licensees 3", "funding source", "supported the",
    "grants", "(Figure)", "[a-b]", "JEL", "key words", "index", "PACS 12", "MSC",
    "payment", "reprint", "single copy", "NCT123", "registration", "ISRCTN 123",
    "CRD41", "EudraCT", "registered", "abstracts", "results-driven",
    "methods-based", "RESULTSX", "translation", "translated", "originally",
    "arXiv", "doi 10.", "vol", "(c)", "Vol. 3", "zzlongword", "quuxy",
    "optiona", "xyz", "cdeFg", "wxy", "alphadel",
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
        config: {
            category: tuple((r, Counted(r, regex), t) for r, regex, t in triples)
            for category, triples in real(config).items()
        }
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
        assert d.category == "registration"
        assert (d.span.start, d.span.end) == (0, 32)

    def test_order_info_covers_sentence(self):
        text = "We study X. Payment must accompany order. More text follows."
        detections = detect(text)
        assert [d.category for d in detections] == ["order_info"]
        span = detections[0].span
        assert text[span.start : span.end] == "Payment must accompany order. "

    def test_internal_ref_match_local(self):
        text = "We show gains (Fig. 1) on all datasets."
        detections = detect(text)
        assert [d.category for d in detections] == ["internal_ref"]
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
        assert [d for d in full if d.category != "citation"] == without

    def test_no_categories_enabled(self):
        assert detect("© 2020 Springer", DetectorConfig(enabled_categories=())) == []

    def test_unknown_category_rejected(self):
        with pytest.raises(DetectorError, match="unknown category"):
            DetectorConfig(enabled_categories=("copyright", "watermark"))

    def test_custom_rule(self):
        config = DetectorConfig(
            custom_rules=(("citation", r"PMID[ \t]*:[ \t]*[0-9]{6,9}"),)
        )
        detections = detect("See also PMID: 1234567 for details.", config)
        assert [(d.category, d.rule_id) for d in detections] == [
            ("citation", "custom_0")
        ]

    def test_custom_rule_matches_through_final_sigma(self):
        """str.lower() turns a word-final capital sigma into a final small
        sigma, which a per-character fold of the trigger never produces."""
        config = DetectorConfig(custom_rules=(("citation", "ΟΔΟΣ"),))
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

    def test_named_groups_and_inline_flags_rejected(self):
        for pattern, expected in [
            ("(?P<n>a)b", "named group"),
            ("(?i)abc", "inline flags"),
            ("(?i:a)bc", "inline flags"),
            ("(?x)a b", "inline flags"),
        ]:
            config = DetectorConfig(custom_rules=(("citation", pattern),))
            with pytest.raises(DetectorError, match=expected):
                detect("t", config)

    def test_unparsable_pattern_rejected(self):
        for pattern in ("(ab", "a{99999999999}", "(?:" * 5000 + "a" + ")" * 5000):
            config = DetectorConfig(custom_rules=(("citation", pattern),))
            with pytest.raises(DetectorError, match="custom rule 0: bad pattern"):
                detect("t", config)

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

    def test_empty_rules_dir_rejected(self, tmp_path):
        with pytest.raises(DetectorError, match="no .rules files"):
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_triggers_never_skip_a_match(self, golden_path, monkeypatch):
        """Seeded differential test of the prescreen: on random texts, detect
        with triggers equals detect with every trigger removed."""
        rng = random.Random(20240611)
        triggers = [t for t in BUILTIN_TRIGGERS.values() if t is not None]
        golden = [r.text for r in load_corpus(str(golden_path))]
        pools = [
            golden,
            [sentence for text in golden for sentence in text.split(". ")],
            [literal for trigger in triggers for literal in trigger],
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
        configs = (DetectorConfig(), DetectorConfig(custom_rules=CUSTOM_RULES))

        results, runs = detect_counting_runs(monkeypatch, texts, configs)
        _compiled_rules.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(detectors, "_trigger", lambda sets: None)
                oracle, oracle_runs = detect_counting_runs(monkeypatch, texts, configs)
        finally:
            _compiled_rules.cache_clear()

        for text, got, want in zip(texts, results, oracle):
            assert got == want, text
        # Not vacuous: every triggered rule was skipped on some text, and
        # every category detected something.
        for config in configs:
            for triples in _compiled_rules(config).values():
                for rule_id, _regex, trigger in triples:
                    if trigger is not None:
                        assert runs[rule_id] < oracle_runs[rule_id], rule_id
        found = {d.category for per_config in results for d in per_config[0]}
        assert found == set(CATEGORY_REGISTRY)
        assert {d.rule_id for per_config in results for d in per_config[1]} >= {
            f"custom_{i}" for i in range(len(CUSTOM_RULES))
        }

    def test_untriggered_rules_are_exactly_the_known_four(self):
        """Trigger derivation reads the private sre parse tree. Pin the whole
        derived table, including which four rules have no trigger, so a change
        in the tree's shape or in the derivation shows up here."""
        rules = _compiled_rules(DetectorConfig())
        table = {
            rule_id: trigger
            for triples in rules.values()
            for rule_id, _regex, trigger in triples
        }
        assert table == BUILTIN_TRIGGERS


class TestToRemSpans:
    def test_empty(self):
        assert to_rem_spans([]) == []

    def test_overlap_resolved_longest_first(self):
        from declutter.detectors import Detection

        a = Detection(Span(0, 10, "copyright"), "copyright", "r1")
        b = Detection(Span(5, 12, "funding"), "funding", "r2")
        assert to_rem_spans([a, b]) == [Span(0, 10, "REM")]

    def test_touching_kept_and_relabeled(self):
        from declutter.detectors import Detection

        a = Detection(Span(0, 4, "copyright"), "copyright", "r1")
        b = Detection(Span(4, 9, "funding"), "funding", "r2")
        assert to_rem_spans([a, b]) == [Span(0, 4, "REM"), Span(4, 9, "REM")]


class TestLoadPredictions:
    def test_single_record(self, write_jsonl):
        path = write_jsonl(
            [{"id": "a", "text": "abcdef", "spans": [{"start": 0, "end": 3, "label": "REM"}]}]
        )
        assert load_predictions(path) == {"a": [Span(0, 3)]}

    def test_overlaps_filtered(self, write_jsonl):
        path = write_jsonl(
            [
                {
                    "id": "a",
                    "text": "abcdefghij",
                    "spans": [
                        {"start": 0, "end": 5, "label": "REM"},
                        {"start": 3, "end": 10, "label": "REM"},
                    ],
                }
            ]
        )
        assert load_predictions(path) == {"a": [Span(3, 10)]}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_predictions(str(path)) == {}

    def test_duplicate_id_rejected(self, write_jsonl):
        rec = {"id": "a", "text": "ab", "spans": []}
        path = write_jsonl([rec, rec])
        with pytest.raises(CorpusError, match="duplicate id"):
            load_predictions(path)
