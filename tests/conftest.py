import json
import pathlib

import pytest

from declutter.textspan import Span

DATA_DIR = pathlib.Path(__file__).parent / "data"

# The two extents the rule packs write out in full, one copy per rule that
# ends with it (see "Rule packs" in the README). A statement runs at most
# 160 items to its terminator, then takes the terminator and the blanks
# after it; an item is an abbreviation with its period, a period with no
# blank or terminator after it, or any other character but a terminator.
STATEMENT_EXTENT = (
    r"(?:\b(?:[A-Z]|[Nn]os?|Ltd|Inc|Co|Corp|Dr|Prof|Dept|vs|al|e\.g|i\.e)\."
    r"|\.[^ \t\r\n.!?]|[^.!?]){0,160}(?:[.!?][ \t]*)?"
)
# A copyright notice's holder, after the sign or the year: at most 10 items,
# ended by a blank, a period and a blank, or the end of the text.
HOLDER = (
    r"(?:(?:[ \t]+(?:[Aa]ll [Rr]ights [Rr]eserved|(?:[A-Z][a-z]?\.){1,4}"
    r"|(?:(?:by|of|for|and|the|under exclusive licen[cs]e to)[ \t]+){0,2}"
    r"[A-Z][A-Za-z‐-]*(?:\(s\))?"
    r"|(?:by[ \t]+)?the[ \t]+authors?|(?:19|20)[0-9]{2}|&)|,){0,10}"
    r"(?:\.?[ \t]+|\.?$))?"
)


def union_oracle(candidates):
    """The union of ``candidates``, replayed one character at a time: each
    character goes to the first span that covers it, in order of start, the
    longer first on equal starts, then input order; each run of characters
    that one span owns is a kept span under that span's label."""
    order = sorted(
        range(len(candidates)),
        key=lambda i: (candidates[i].start, -candidates[i].end, i),
    )
    owner = {}
    for i in order:
        for pos in range(candidates[i].start, candidates[i].end):
            owner.setdefault(pos, i)
    runs = []  # [start, end, owner]
    for pos in sorted(owner):
        if runs and runs[-1][1] == pos and runs[-1][2] == owner[pos]:
            runs[-1][1] = pos + 1
        else:
            runs.append([pos, pos + 1, owner[pos]])
    return [Span(start, end, candidates[i].label) for start, end, i in runs]


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
