import pytest

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
        pack.write_text("r1\tcopyright\tfoo(?=bar)\n", encoding="utf-8")
        with pytest.raises(DetectorError, match="non-capturing"):
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))

    def test_backreference_rejected(self, tmp_path):
        pack = tmp_path / "x.rules"
        pack.write_text("r1\tcopyright\t(a)\\1\n", encoding="utf-8")
        with pytest.raises(DetectorError, match="backreference"):
            detect("t", DetectorConfig(rules_dir=str(tmp_path)))

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

    def test_triggers_never_skip_a_match(self, golden_path):
        """The prescreen literal is mandatory: if it is absent from a text,
        the rule's regex must have no match there either."""
        texts = [r.text for r in load_corpus(str(golden_path))]
        texts += [
            "KEYWORDS: stress, strain.",
            "FUNDING: none declared.",
            "Translated from the Russian original.",
            "Registered at ClinicalTrials.gov under NCT 01234567.",
            "MSC: 35Q30, 76D05",
            "A plain sentence with no clutter at all.",
        ]
        rules = _compiled_rules(DetectorConfig())
        for text in texts:
            lowered = text.lower()
            for triples in rules.values():
                for rule_id, regex, trigger in triples:
                    if trigger is None:
                        continue
                    kind, payload = trigger
                    hit = (
                        payload in lowered
                        if kind == "literal"
                        else any(s in lowered for s in payload)
                    )
                    if not hit:
                        assert regex.search(text) is None, (rule_id, text)

    def test_untriggered_rules_are_exactly_the_known_four(self):
        """Trigger derivation reads the private sre parse tree; if its shape
        changes, _make_trigger returns None everywhere and the test above
        passes without checking anything. Pin which rules lack a trigger."""
        rules = _compiled_rules(DetectorConfig())
        untriggered = {
            rule_id
            for triples in rules.values()
            for rule_id, _regex, trigger in triples
            if trigger is None
        }
        assert untriggered == {
            "bracket_refs",
            "journal_vol_pages",
            "msc_codes",
            "paren_figtab",
        }


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
