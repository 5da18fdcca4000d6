import declutter

PUBLIC_NAMES = [
    "AbstractMeta",
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
    "load_predictions",
    "rank_references",
    "save_corpus",
    "score_abstract",
    "to_rem_spans",
    "token_prf",
    "tokenize",
    "tokens_under",
]


def test_public_surface_is_pinned():
    """The package exports exactly these 38 names, so the surface cannot grow
    or shrink by accident."""
    assert declutter.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 38
    assert all(hasattr(declutter, name) for name in PUBLIC_NAMES)
