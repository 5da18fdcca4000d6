"""Batch command-line front door.

Four subcommands: ``clean`` runs the rule detectors over a corpus and writes
the decluttered records, ``eval`` scores a predictions file against gold
labels, ``stats`` summarizes a corpus, and ``rank-compare`` reports how a
focal document's reference ranking shifts when everything is cleaned.

The default rule-pack directory can be overridden with the ``DECLUTTER_RULES``
environment variable or the ``--rules`` flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter

from .corpus import LabeledAbstract, CorpusStats, compute_stats, load_corpus, save_corpus
from .detectors import CATEGORY_REGISTRY, DetectorConfig, detect, to_rem_spans
from .embedding import (
    DEFAULT_DIMENSION,
    BuiltinProvider,
    ExternalVectorProvider,
    rank_references,
)
from .errors import CorpusError, DeclutterError
from .evaluation import (
    EvalReport,
    aggregate,
    length_buckets,
    score_abstract,
    token_prf,
)
# filter_spans and tokenize are unused here; perfbench/tracer.py wraps
# declutter.cli.filter_spans and declutter.cli.tokenize.
from .textspan import clean_text, filter_spans, tokenize  # noqa: F401

RULES_ENV_VAR = "DECLUTTER_RULES"


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    rules_dir = args.rules or os.environ.get(RULES_ENV_VAR) or None
    raw = args.categories
    if raw is None or raw == "all":
        categories = CATEGORY_REGISTRY
    elif raw == "none":
        categories = ()
    else:
        categories = tuple(name for name in raw.split(",") if name)
    config = DetectorConfig(enabled_categories=categories, rules_dir=rules_dir)
    # Compile the packs now: an invalid pack must fail the command even when
    # the corpus is empty and detect never runs on a record.
    detect("", config)
    return config


def cmd_clean(args: argparse.Namespace) -> int:
    records = load_corpus(args.input, schema="predictions")
    config = _detector_config(args)
    counts: Counter[str] = Counter()
    cleaned_records = []
    for record in records:
        applied = to_rem_spans(detect(record.text, config))
        cleaned = clean_text(record.text, applied)
        if not applied and cleaned == record.text:
            # A no-op pass keeps the record verbatim, including whatever its
            # spans field already documented; re-cleaning is idempotent.
            cleaned_records.append(record)
            continue
        counts.update(span.label for span in applied)
        cleaned_records.append(
            LabeledAbstract(record.id, cleaned, tuple(applied), record.meta)
        )
    save_corpus(cleaned_records, args.output)
    print("removals by category:")
    for category in CATEGORY_REGISTRY:
        if category in config.enabled_categories:
            print(f"  {category}: {counts.get(category, 0)}")
    print(f"cleaned {len(records)} records -> {args.output}")
    return 0


def _pct(value: float) -> str:
    return f"{value:.2f}%"


def _avg(value: float | None) -> str:
    return "" if value is None else f"{value:.2f}"


def _format_report_table(title: str, rows: list[EvalReport]) -> str:
    key_w = max([len(title)] + [len(r.group_key) for r in rows]) + 2
    head = (
        f"{'':<{key_w}}{'':>8}{'':>16}"
        f"{'Excess':^24}{'Missing':^24}"
    )
    cols = (
        f"{title:<{key_w}}{'Count':>8}{'Share correct':>16}"
        f"{'Share pred.':>14}{'# tokens':>10}{'Share pred.':>14}{'# tokens':>10}"
    )
    lines = [head, cols]
    for r in rows:
        lines.append(
            f"{r.group_key:<{key_w}}{r.count:>8}{_pct(r.share_correct):>16}"
            f"{_pct(r.excess_share):>14}{_avg(r.excess_avg):>10}"
            f"{_pct(r.missing_share):>14}{_avg(r.missing_avg):>10}"
        )
    return "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.buckets < 1:
        raise DeclutterError("--buckets must be >= 1")
    gold = load_corpus(args.gold, schema="gold")
    predictions = {
        r.id: list(r.spans) for r in load_corpus(args.pred, schema="predictions")
    }
    gold_ids = {r.id for r in gold}
    unknown = sorted(set(predictions) - gold_ids)
    if unknown:
        raise CorpusError(
            f"{len(unknown)} prediction id(s) not present in the gold corpus, "
            f"first: {unknown[:5]}"
        )
    missing = sum(1 for r in gold if r.id not in predictions)
    if missing:
        print(
            f"warning: {missing} gold record(s) have no prediction; treated as empty",
            file=sys.stderr,
        )
    outcomes = [score_abstract(r, predictions.get(r.id, [])) for r in gold]

    overall = aggregate(outcomes)
    by_labels = aggregate(outcomes, "has_labels")
    category_map = None
    if any(r.meta.source for r in gold):
        category_map = {r.id: (r.meta.source or "(none)") for r in gold}
    by_category = aggregate(outcomes, category_map) if category_map else []
    buckets = length_buckets(outcomes, args.buckets)

    print(_format_report_table("all", overall))
    print()
    print(_format_report_table("Has labels", by_labels))
    if by_category:
        print()
        print(_format_report_table("Category", by_category))
    print()
    print(_format_report_table("Length (tokens)", buckets))
    precision, recall, f1 = token_prf(outcomes)
    print()
    print(
        f"token-level micro: precision={precision:.6f} "
        f"recall={recall:.6f} f1={f1:.6f}"
    )

    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            for table, rows in (
                ("overall", overall),
                ("has_labels", by_labels),
                ("category", by_category),
                ("length_buckets", buckets),
            ):
                for row in rows:
                    line = {"table": table, **dataclasses.asdict(row)}
                    fh.write(json.dumps(line, ensure_ascii=False) + "\n")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    records = load_corpus(args.input, schema="predictions")
    stats = compute_stats(records)
    print(_format_stats(stats))
    return 0


def _format_stats(stats: CorpusStats) -> str:
    lines = [f"total: {stats.total}", f"labeled: {stats.labeled_count}"]
    if stats.by_field:
        lines.append("fields:")
        width = max(len(name) for name in stats.by_field)
        for name, (count, share) in stats.by_field.items():
            lines.append(f"  {name:<{width}}  {count:>6}  {share:>5.1f}")
    if stats.by_year:
        lines.append("years:")
        for year, (count, share) in stats.by_year.items():
            lines.append(f"  {year}  {count:>6}  {share:>5.1f}")
    return "\n".join(lines)


def cmd_rank_compare(args: argparse.Namespace) -> int:
    records = load_corpus(args.input, schema="predictions")
    by_id = {r.id: r for r in records}
    ref_ids = [rid for rid in args.refs.split(",") if rid]
    missing = [rid for rid in [args.focal, *ref_ids] if rid not in by_id]
    if missing:
        raise CorpusError(f"id(s) not found in {args.input}: {missing}")
    focal = by_id[args.focal]
    refs = [by_id[rid] for rid in ref_ids]
    # Both providers validate --rules and --categories, used or not.
    config = _detector_config(args)

    if args.provider == "vectors":
        if not args.vectors:
            raise DeclutterError("--vectors is required with --provider vectors")
        provider = ExternalVectorProvider.load(args.vectors)
        # External vectors already encode the cleaned variants.
        spans_for = {}
    else:
        provider = BuiltinProvider(dimension=args.dim)
        spans_for = {
            r.id: to_rem_spans(detect(r.text, config)) for r in [focal, *refs]
        }

    delta = rank_references(focal, refs, spans_for, provider)
    print(f"focal: {delta.focal_id}")
    print("order before: " + ", ".join(delta.order_before))
    print("order after:  " + ", ".join(delta.order_after))
    for rid in ref_ids:
        print(
            f"  {rid}: cosine before={delta.cosines_before[rid]!r} "
            f"after={delta.cosines_after[rid]!r}"
        )
    print(f"displacement: {delta.displacement}")
    print(
        f"changed: {'yes' if delta.changed else 'no'}, "
        f"top1_changed: {'yes' if delta.top1_changed else 'no'}"
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(dataclasses.asdict(delta), ensure_ascii=False))
            fh.write("\n")
    return 0


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``_detector_config`` reads."""
    parser.add_argument("--rules", help="rule-pack directory (replaces built-ins)")
    parser.add_argument(
        "--categories",
        help="comma-separated category list, or 'all' (default) or 'none'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="declutter",
        description="Remove publisher/journal/author clutter from scientific "
        "abstracts, evaluate cleaners, and compare similarity rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_clean = sub.add_parser("clean", help="declutter a corpus with the rule packs")
    p_clean.add_argument("--input", required=True, help="input corpus (JSONL)")
    p_clean.add_argument("--output", required=True, help="output corpus (JSONL)")
    _add_detector_flags(p_clean)
    p_clean.set_defaults(func=cmd_clean)

    p_eval = sub.add_parser("eval", help="score predictions against gold labels")
    p_eval.add_argument("--gold", required=True, help="gold corpus (JSONL)")
    p_eval.add_argument("--pred", required=True, help="predictions file (JSONL)")
    p_eval.add_argument("--report", help="write machine-readable rows here (JSONL)")
    p_eval.add_argument("--buckets", type=int, default=4, help="length buckets")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="print corpus distribution tables")
    p_stats.add_argument("--input", required=True, help="corpus (JSONL)")
    p_stats.set_defaults(func=cmd_stats)

    p_rank = sub.add_parser(
        "rank-compare", help="compare reference rankings before/after cleaning"
    )
    p_rank.add_argument("--input", required=True, help="corpus (JSONL)")
    p_rank.add_argument("--focal", required=True, help="focal record id")
    p_rank.add_argument("--refs", required=True, help="comma-separated reference ids")
    p_rank.add_argument(
        "--provider", choices=("builtin", "vectors"), default="builtin"
    )
    p_rank.add_argument("--vectors", help="vector file for --provider vectors")
    p_rank.add_argument(
        "--dim", type=int, default=DEFAULT_DIMENSION, help="builtin dimension"
    )
    _add_detector_flags(p_rank)
    p_rank.add_argument("--report", help="write the ranking delta here (JSON)")
    p_rank.set_defaults(func=cmd_rank_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DeclutterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
