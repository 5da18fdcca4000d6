import json
import pathlib

import pytest

DATA_DIR = pathlib.Path(__file__).parent / "data"

# One golden record per clutter category: (record id, clutter substring that
# must disappear, category, carrier substring that must survive).
CLUTTER_CASES = [
    ("g01", "© 2020 Springer", "copyright", "perovskite films"),
    ("g02", "All rights reserved.", "copyright", "perovskite films"),
    ("g03", "Payment must accompany order.", "order_info", "Film thickness"),
    ("g04", "JEL Codes: O15", "keywords_codes", "perovskite films"),
    ("g05", "ClinicalTrials.gov: NCT012345678", "registration", "perovskite films"),
    ("g06", "(Fig. 1)", "internal_ref", "carrier mobility"),
    ("g07", "[1-4]", "citation", "flexible substrates"),
    (
        "g08",
        "Funding: Funding was provided by the National Research Agency.",
        "funding",
        "perovskite films",
    ),
    (
        "g09",
        "This article is a translation of the original German version.",
        "translation",
        "perovskite films",
    ),
    ("g10", "Conclusion-", "section_heading", "Moisture control"),
]


@pytest.fixture
def golden_path() -> pathlib.Path:
    return DATA_DIR / "golden_clutter.jsonl"


@pytest.fixture
def golden_vectors_path() -> pathlib.Path:
    """8-dim vectors of g01-g10, plain and under ``<id>::cleaned``."""
    return DATA_DIR / "golden_vectors.jsonl"


@pytest.fixture
def clutter_cases() -> list[tuple[str, str, str, str]]:
    return CLUTTER_CASES


@pytest.fixture
def write_jsonl(tmp_path):
    """Write raw dict lines to a JSONL file under tmp_path and return its path."""

    def _write(objs, name="corpus.jsonl"):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for obj in objs:
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        return str(path)

    return _write
