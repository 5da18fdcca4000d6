"""Batch command-line front door.

Four subcommands: ``clean`` runs the rule detectors over a corpus and writes
the decluttered records, ``eval`` scores a predictions file against gold
labels, ``stats`` summarizes a corpus, and ``rank-compare`` reports how a
focal document's reference ranking shifts when everything is cleaned.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from itertools import chain, islice

from .corpus import CorpusStats, compute_stats, iter_checked, iter_records
from .corpus import json_line, load_corpus, record_line, save_corpus
from .detectors import CATEGORY_REGISTRY, DetectorConfig, detect, to_rem_spans
from .embedding import (
    CLEANED_ID_SUFFIX,
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


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    raw = args.categories
    if raw is None or raw == "all":
        categories = CATEGORY_REGISTRY
    elif raw == "none":
        categories = ()
    else:
        categories = tuple(name for name in raw.split(",") if name)
    config = DetectorConfig(enabled_categories=categories, rules_dir=args.rules)
    # Compile the packs now: an invalid pack must fail the command even when
    # the corpus is empty and detect never runs on a record.
    detect("", config)
    return config


def cmd_clean(args: argparse.Namespace) -> int:
    config = _detector_config(args)
    # The output is written while the input is read, so writing over the
    # input would truncate it before it is read.
    if os.path.exists(args.output) and os.path.samefile(args.input, args.output):
        raise DeclutterError(
            f"--output {args.output} is the --input file; clean does not write in place"
        )
    counts: Counter[str] = Counter()
    total = 0

    def cleaned_lines():
        nonlocal total
        for line, obj, (_, text, _, _) in iter_checked(args.input, "predictions"):
            total += 1
            applied = to_rem_spans(detect(text, config))
            cleaned = clean_text(text, applied)
            if not applied and cleaned == text:
                # A no-op pass keeps the record's line as it was read,
                # including whatever its spans field already documented.
                yield line.removesuffix("\n")
                continue
            counts.update(span.label for span in applied)
            yield record_line({**obj, "text": cleaned, "spans": applied})

    lines = cleaned_lines()
    # The first record is read before the output is created, so an input
    # that cannot be opened or read leaves an existing output alone.
    first = list(islice(lines, 1))
    save_corpus(chain(first, lines), args.output)
    print("removals by category:")
    for category in CATEGORY_REGISTRY:
        if category in config.enabled_categories:
            print(f"  {category}: {counts.get(category, 0)}")
    print(f"cleaned {total} records -> {args.output}")
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
    predictions = {i: list(s) for i, _, s, _ in iter_records(args.pred, "predictions")}
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

    # (table, title, rows): each table is printed under its title, and its
    # rows go to --report under its name.
    has_labels = {o.id: "yes" if o.gold_tokens else "no" for o in outcomes}
    tables = [
        ("overall", "all", aggregate(outcomes)),
        ("has_labels", "Has labels", aggregate(outcomes, has_labels)),
    ]
    if any(r.meta.get("source") for r in gold):
        sources = {r.id: r.meta.get("source") or "(none)" for r in gold}
        tables.append(("category", "Category", aggregate(outcomes, sources)))
    buckets = length_buckets(outcomes, args.buckets)
    tables.append(("length_buckets", "Length (tokens)", buckets))

    # The report is written first: a report that cannot be written fails
    # the command before it prints anything.
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            for table, _title, rows in tables:
                for row in rows:
                    line = {"table": table, **dataclasses.asdict(row)}
                    fh.write(json_line(line) + "\n")
    print("\n\n".join(_format_report_table(title, rows) for _, title, rows in tables))
    precision, recall, f1 = token_prf(outcomes)
    print()
    print(
        f"token-level micro: precision={precision:.6f} "
        f"recall={recall:.6f} f1={f1:.6f}"
    )
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
    # The flags are checked before any input file is read. Both providers
    # validate --rules and --categories, used or not.
    if args.provider == "vectors":
        if not args.vectors:
            raise DeclutterError("--vectors is required with --provider vectors")
    elif args.dim < 1:
        raise DeclutterError("--dim must be >= 1")
    config = _detector_config(args)

    # Every record is checked as load_corpus checks it; only texts are kept.
    texts = {i: t for i, t, _, _ in iter_records(args.input, "predictions")}
    ref_ids = [rid for rid in args.refs.split(",") if rid]
    ids = [args.focal, *ref_ids]
    missing = [rid for rid in ids if rid not in texts]
    if missing:
        raise CorpusError(f"id(s) not found in {args.input}: {missing}")

    # Every record is embedded before and after cleaning: the builtin
    # provider embeds its text and its cleaned text, and a vector file holds
    # the vector of the cleaned text under <id>::cleaned.
    if args.provider == "vectors":
        provider = ExternalVectorProvider.load(args.vectors)
        before = {i: provider.vector(i) for i in ids}
        after = {i: provider.vector(i + CLEANED_ID_SUFFIX) for i in ids}
    else:
        provider = BuiltinProvider(dimension=args.dim)
        spans = {i: to_rem_spans(detect(texts[i], config)) for i in ids}
        before = {i: provider.vector(texts[i]) for i in ids}
        after = {i: provider.vector(clean_text(texts[i], spans[i])) for i in ids}

    delta = rank_references(args.focal, ref_ids, before, after)
    if args.report:  # written first, as eval's is
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json_line(dataclasses.asdict(delta)))
            fh.write("\n")
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
