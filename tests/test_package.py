import pathlib
import subprocess
import sys

import declutter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "AbstractOutcome",
    "BuiltinProvider",
    "CATEGORY_REGISTRY",
    "CLEANED_ID_SUFFIX",
    "CorpusError",
    "CorpusStats",
    "DeclutterError",
    "Detection",
    "DetectorConfig",
    "DetectorError",
    "EmbeddingError",
    "EmbeddingVector",
    "EvalReport",
    "EvaluationError",
    "ExternalVectorProvider",
    "LabeledAbstract",
    "REM_LABEL",
    "RankingDelta",
    "Span",
    "TokenMap",
    "aggregate",
    "clean_text",
    "compute_stats",
    "cosine",
    "detect",
    "ensure_finalized",
    "filter_spans",
    "length_buckets",
    "load_corpus",
    "rank_references",
    "save_corpus",
    "score_abstract",
    "to_rem_spans",
    "token_prf",
    "tokenize",
    "tokens_under",
]


def test_public_surface_is_pinned():
    """The package exports exactly these 36 names, so the surface cannot grow
    or shrink by accident."""
    assert declutter.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 36
    assert all(hasattr(declutter, name) for name in PUBLIC_NAMES)


def test_library_needs_no_third_party_package():
    """``-S`` leaves site-packages off ``sys.path`` and ``-I`` ignores
    ``PYTHONPATH``, so a third-party import anywhere the CLI or ``detect``
    reaches fails this run, though the test environment has one installed."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import declutter.cli; "
        "sys.exit(0 if declutter.detect('Body. \u00a9 2020 Springer') else 3)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        capture_output=True,
        encoding="utf-8",
    )
    assert result.returncode == 0, result.stderr
