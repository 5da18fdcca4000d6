"""Declutter: strip publisher/journal/author boilerplate out of English
scientific abstracts, score any cleaner token-by-token against gold labels,
and measure how cleaning shifts embedding-based similarity rankings."""

from .corpus import (
    AbstractMeta,
    CorpusStats,
    LabeledAbstract,
    compute_stats,
    load_corpus,
    save_corpus,
)
from .detectors import (
    CATEGORY_REGISTRY,
    Detection,
    DetectorConfig,
    detect,
    to_rem_spans,
)
from .embedding import (
    CLEANED_ID_SUFFIX,
    BuiltinProvider,
    EmbeddingVector,
    ExternalVectorProvider,
    RankingDelta,
    cosine,
    rank_references,
)
from .errors import (
    CorpusError,
    DeclutterError,
    DetectorError,
    EmbeddingError,
    EvaluationError,
)
from .evaluation import (
    AbstractOutcome,
    EvalReport,
    aggregate,
    length_buckets,
    score_abstract,
    token_prf,
)
from .textspan import (
    REM_LABEL,
    Span,
    TokenMap,
    clean_text,
    ensure_finalized,
    filter_spans,
    tokenize,
    tokens_under,
)

__version__ = "0.1.0"

__all__ = [
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
    "rank_references",
    "save_corpus",
    "score_abstract",
    "to_rem_spans",
    "token_prf",
    "tokenize",
    "tokens_under",
]
