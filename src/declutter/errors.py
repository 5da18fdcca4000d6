"""Exception hierarchy shared across the package."""


class DeclutterError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(DeclutterError):
    """A corpus or prediction file is malformed or violates a record invariant."""


class DetectorError(DeclutterError):
    """A detector configuration or rule pack is invalid."""


class EvaluationError(DeclutterError):
    """Scoring input is inconsistent (bad spans, ...)."""


class EmbeddingError(DeclutterError):
    """Embedding or ranking input is unusable (zero norm, missing vector, ...)."""
