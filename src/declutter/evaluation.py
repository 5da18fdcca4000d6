"""Token-level scoring of predicted removal spans against gold labels.

Gold and predicted spans are projected onto the abstract's tokens; an
abstract is *correct* when the two token sets coincide. Predicted-but-not-gold
tokens are *excess* (over-removal), gold-but-not-predicted tokens are
*missing* (under-removal). Precision/recall/F1 are micro-averaged: token
counts are pooled over the corpus before the ratios are taken.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import LabeledAbstract
from .errors import EvaluationError
from .textspan import Span, ensure_finalized, tokenize, tokens_under


@dataclass(frozen=True)
class AbstractOutcome:
    """Per-abstract token bookkeeping from one gold/predicted comparison."""

    id: str
    gold_tokens: int
    pred_tokens: int
    excess_tokens: int
    missing_tokens: int
    correct: bool
    tokens: int


@dataclass(frozen=True)
class EvalReport:
    """One stratum row of any eval table (overall, has-labels, category or
    length bucket); shares are unrounded percentages, averages are means
    over the abstracts that actually had excess (resp. missing) tokens and
    are ``None`` when no abstract did."""

    group_key: str
    count: int
    share_correct: float
    excess_share: float
    excess_avg: float | None
    missing_share: float
    missing_avg: float | None
    precision: float
    recall: float
    f1: float


def score_abstract(
    record: LabeledAbstract, predicted: Sequence[Span]
) -> AbstractOutcome:
    """Project gold and predicted spans to token-index sets and diff them.

    ``predicted`` must be a finalized span set lying within ``record.text``;
    an out-of-bounds span is an error naming the record.
    """
    try:
        predicted = ensure_finalized(predicted, len(record.text))
    except ValueError as exc:
        raise EvaluationError(f"record {record.id!r}: {exc}") from exc
    token_map = tokenize(record.text)
    gold_idx = tokens_under(record.spans, token_map)
    pred_idx = tokens_under(predicted, token_map)
    excess = len(pred_idx - gold_idx)
    missing = len(gold_idx - pred_idx)
    return AbstractOutcome(
        id=record.id,
        gold_tokens=len(gold_idx),
        pred_tokens=len(pred_idx),
        excess_tokens=excess,
        missing_tokens=missing,
        correct=excess == 0 and missing == 0,
        tokens=len(token_map),
    )


def token_prf(outcomes: Iterable[AbstractOutcome]) -> tuple[float, float, float]:
    """Micro-averaged precision/recall/F1 over pooled token counts.

    By convention P = 1 when nothing was predicted and R = 1 when nothing was
    labeled, so a clean corpus left untouched scores perfectly.
    """
    total_pred = total_gold = total_matched = 0
    for o in outcomes:
        total_pred += o.pred_tokens
        total_gold += o.gold_tokens
        total_matched += o.pred_tokens - o.excess_tokens
    precision = total_matched / total_pred if total_pred else 1.0
    recall = total_matched / total_gold if total_gold else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _stratum_report(key: str, outcomes: Sequence[AbstractOutcome]) -> EvalReport:
    n = len(outcomes)
    n_correct = sum(1 for o in outcomes if o.correct)
    with_excess = [o.excess_tokens for o in outcomes if o.excess_tokens > 0]
    with_missing = [o.missing_tokens for o in outcomes if o.missing_tokens > 0]
    precision, recall, f1 = token_prf(outcomes)
    return EvalReport(
        group_key=key,
        count=n,
        share_correct=100.0 * n_correct / n,
        excess_share=100.0 * len(with_excess) / n,
        excess_avg=sum(with_excess) / len(with_excess) if with_excess else None,
        missing_share=100.0 * len(with_missing) / n,
        missing_avg=sum(with_missing) / len(with_missing) if with_missing else None,
        precision=precision,
        recall=recall,
        f1=f1,
    )


def aggregate(
    outcomes: Iterable[AbstractOutcome], grouping: Mapping[str, str] | None = None
) -> list[EvalReport]:
    """Fold outcomes into per-stratum report rows, in stratum name order.

    ``grouping`` is ``None`` for a single ``"all"`` row, or a mapping from
    record id to a stratum name; ids missing from it land in
    ``"(unmapped)"``. Empty strata are omitted. Every figure of a row is a
    ratio of integer counts, so the order of ``outcomes`` changes nothing.
    """
    groups: dict[str, list[AbstractOutcome]] = defaultdict(list)
    for o in outcomes:
        groups["all" if grouping is None else grouping.get(o.id, "(unmapped)")].append(o)
    return [_stratum_report(key, grp) for key, grp in sorted(groups.items())]


def length_buckets(
    outcomes: Iterable[AbstractOutcome], n_buckets: int
) -> list[EvalReport]:
    """Equal-frequency buckets over abstract token length, one row per
    bucket keyed ``"<min>-<max>"`` by its members' token lengths.

    Bucket upper bounds are the length quantiles; an abstract whose length
    ties a boundary goes to the lower bucket, so heavy ties can collapse
    adjacent buckets. Counts always sum to the number of outcomes, and, as
    in :func:`aggregate`, their order changes nothing.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    outcomes = list(outcomes)
    if not outcomes:
        return []
    ordered = sorted(o.tokens for o in outcomes)
    n = len(ordered)
    # With n buckets every index is a cut already; more add none.
    n_buckets = min(n_buckets, n)
    cuts = sorted({ordered[math.ceil(k * n / n_buckets) - 1] for k in range(1, n_buckets + 1)})
    members: list[list[AbstractOutcome]] = [[] for _ in cuts]
    for o in outcomes:
        members[bisect_left(cuts, o.tokens)].append(o)
    # Every cut is some abstract's length, so each bucket holds the
    # abstracts of that length and the cut is its maximum.
    return [
        _stratum_report(f"{min(o.tokens for o in grp)}-{cut}", grp)
        for cut, grp in zip(cuts, members)
    ]
