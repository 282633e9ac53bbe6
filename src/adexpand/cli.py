"""Command-line pipeline: each subcommand is one stage of the offline flow
(embed -> cluster -> thresholds -> expand -> train-base -> train-adjust ->
tune-threshold -> build-snapshot) plus match and serve for the runtime side.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import clustering as clustering_mod
from . import reports as reports_mod
from .config import PipelineConfig, load_config
from .embeddings import (
    EmbeddingSet,
    fallback_embed,
    load_embeddings,
    read_tsv,
    save_embeddings,
)
from .errors import AdexpandError, ParseError
from .expansion import (
    expand_all,
    expand_text,
    format_expansion_table,
    record_to_doc,
    save_expansions,
)
from .matching import match_query, match_record_to_doc
from .relevance import (
    GbdtModel,
    as_stacked,
    load_dataset,
    load_model,
    save_model,
    train_adjustment,
    train_base,
    tune_market_threshold,
)
from .snapshot_store import (
    load_clustering_for,
    load_expansion_files,
    load_market_thresholds,
    load_runtime,
    save_market_thresholds,
    write_snapshot_dir,
)
from .thresholds import (
    build_threshold_table,
    load_threshold_table,
    save_threshold_table,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit(2)
        raise _UsageError(f"{self.prog}: {message}")


def _read_keyword_list(path: str) -> list[tuple[str, str]]:
    """TSV lines ``market<TAB>keyword`` (see read_tsv)."""
    return [
        (market, keyword.strip())
        for _, (market, keyword) in read_tsv(path, ("market", "keyword"))
    ]


def _parse_market_paths(values: list[str], flag: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for value in values:
        if "=" not in value:
            raise _UsageError(f"{flag} expects MARKET=PATH, got {value!r}")
        market, path = value.split("=", 1)
        out[market] = path
    return out


def _percent_to_fraction(pct: float) -> float:
    if not 0.0 < pct <= 100.0:
        raise ParseError(f"quantile percent must be in (0, 100], got {pct}")
    return pct / 100.0


def _apply_config(args) -> None:
    """Fill each flag left unset with the same-named PipelineConfig field;
    explicit flags always win."""
    config = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    for f in dataclasses.fields(PipelineConfig):
        if hasattr(args, f.name) and getattr(args, f.name) is None:
            setattr(args, f.name, getattr(config, f.name))


def _cmd_embed(args) -> int:
    keywords = _read_keyword_list(args.keywords)
    by_market: dict[str, list[str]] = {}
    for market, text in keywords:
        by_market.setdefault(market, []).append(text)
    first = True
    for market in sorted(by_market):
        pairs = [(text, fallback_embed(text, args.dim)) for text in by_market[market]]
        embedding_set = EmbeddingSet.from_pairs(market, pairs)
        save_embeddings(embedding_set, args.out, append=not first)
        first = False
    print(f"embedded {len(keywords)} keywords across {len(by_market)} markets -> {args.out}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    embedding_set = load_embeddings(args.embeddings, args.market)
    model = clustering_mod.kmeans(
        embedding_set, args.clusters, args.seed, max_iter=args.max_iter, tol=args.tol
    )
    clustering_mod.save_clustering(model, args.out)
    final = clustering_mod.wcss(model, embedding_set)
    print(f"clustered {len(embedding_set)} keywords into {args.clusters} clusters, wcss={final:.6g}")
    return EXIT_OK


def _cmd_elbow(args) -> int:
    embedding_set = load_embeddings(args.embeddings, args.market)
    k_list = [int(v) for v in args.k_list.split(",") if v.strip()]
    rows = clustering_mod.elbow_sweep(embedding_set, k_list, args.seed, folds=args.folds)
    lines = ["clusters,mean_wcss"] + [f"{m},{value!r}" for m, value in rows]
    output = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return EXIT_OK


def _cmd_stability(args) -> int:
    embedding_set = load_embeddings(args.embeddings, args.market)
    report = clustering_mod.kfold_stability(embedding_set, args.clusters, args.folds, args.seed)
    doc = {
        "folds": report.folds,
        "assignment_consistency": report.assignment_consistency,
        "mean_compactness": report.mean_compactness,
    }
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def _cmd_thresholds(args) -> int:
    embedding_set = load_embeddings(args.embeddings, args.market)
    model = load_clustering_for(embedding_set, args.clustering)
    p = _percent_to_fraction(args.quantile_pct)
    table = build_threshold_table(model, embedding_set, p, args.min_cluster_size)
    save_threshold_table(table, args.out)
    print(f"wrote {len(table.rows)} cluster thresholds (p={p}) -> {args.out}")
    return EXIT_OK


def _cmd_expand(args) -> int:
    embedding_set = load_embeddings(args.embeddings, args.market)
    context = load_expansion_files(embedding_set, args.clustering, args.thresholds)
    filters_enabled = not args.no_filters
    if args.keyword is not None:
        record = expand_text(context, args.keyword, args.k_neighbors, filters_enabled)
        print(json.dumps(record_to_doc(record), sort_keys=True))
        return EXIT_OK
    records = expand_all(context, args.k_neighbors, filters_enabled)
    save_expansions(records, args.out)
    accepted = sum(len(r.accepted_variants()) for r in records)
    print(f"expanded {len(records)} keywords, {accepted} accepted variants -> {args.out}")
    if args.table:
        print(format_expansion_table(records))
    return EXIT_OK


def _cmd_train_base(args) -> int:
    X, y, names = load_dataset(args.dataset)
    model = train_base(
        X,
        y,
        tree_count=args.trees,
        learning_rate=args.learning_rate,
        max_depth=args.max_depth,
        seed=args.seed,
        min_leaf=args.min_leaf,
        feature_names=names,
    )
    save_model(model, args.out)
    print(f"trained base model: {args.trees} trees, final train rmse={model.train_rmse[-1]:.6g}")
    return EXIT_OK


def _cmd_train_adjust(args) -> int:
    base = load_model(args.base)
    if not isinstance(base, GbdtModel):
        raise ParseError(f"{args.base}: expected a base model, got a stacked one")
    X, y, _ = load_dataset(args.dataset)
    stacked = train_adjustment(
        base,
        X,
        y,
        adjustment_trees=args.adjustment_trees,
        max_depth=args.adjustment_depth,
        adjustment_rate=args.adjustment_rate,
        min_leaf=args.min_leaf,
        allow_exceed_limits=args.allow_exceed_limits,
    )
    save_model(stacked, args.out)
    print(f"stacked {len(stacked.adjustment)} adjustment trees onto frozen base -> {args.out}")
    return EXIT_OK


def _cmd_eval_relevance(args) -> int:
    base = load_model(args.base)
    if not isinstance(base, GbdtModel):
        raise ParseError(f"{args.base}: expected a base model")
    stacked = as_stacked(load_model(args.stacked))
    X, y, _ = load_dataset(args.holdout)
    report = reports_mod.relevance_report(base, stacked, X, y)
    reports_mod.write_relevance_report(report, args.out_csv, args.out_json)
    per_grade = {str(row.grade): row.rmse_stacked for row in report.rows}
    print(
        json.dumps(
            {"overall_rmse_stacked": report.overall_stacked, "per_grade_rmse_stacked": per_grade},
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_tune_threshold(args) -> int:
    model = as_stacked(load_model(args.model))
    X, y, _ = load_dataset(args.holdout)
    predictions = model.predict(X)
    decision = tune_market_threshold(predictions, y, args.market, args.precision_target)
    try:
        existing = load_market_thresholds(args.out)
    except FileNotFoundError:
        existing = {}
    existing[args.market] = decision.threshold
    save_market_thresholds(existing, args.out)
    print(
        json.dumps(
            {
                "market": decision.market,
                "threshold": decision.threshold,
                "precision": decision.precision,
                "recall": decision.recall,
                "feasible": decision.feasible,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_sweep_tpr(args) -> int:
    embedding_set = load_embeddings(args.embeddings, args.market)
    model = load_clustering_for(embedding_set, args.clustering)
    labels = reports_mod.load_label_set(args.labels)
    p_list = [_percent_to_fraction(float(v)) for v in args.p_list.split(",") if v.strip()]
    rows = reports_mod.tpr_sweep(
        embedding_set,
        model,
        labels,
        p_list,
        k_neighbors=args.k_neighbors,
        min_cluster_size=args.min_cluster_size,
    )
    reports_mod.write_tpr_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows -> {args.out}")
    return EXIT_OK


def _cmd_threshold_report(args) -> int:
    table = load_threshold_table(args.thresholds)
    if not table.rows:
        raise ParseError(f"{args.thresholds}: no cluster rows, only a header")
    report = reports_mod.threshold_report(table)
    reports_mod.write_threshold_report_csv(report, args.out)
    print(
        json.dumps(
            {
                "mean_tau_similarity": report.mean_similarity,
                "variance_tau_similarity": report.variance_similarity,
                "size_threshold_pearson_r": report.pearson_r,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_build_snapshot(args) -> int:
    clustering_paths = _parse_market_paths(args.clustering, "--clustering")
    threshold_paths = _parse_market_paths(args.thresholds, "--thresholds")
    if set(clustering_paths) != set(threshold_paths):
        raise ParseError("clustering and thresholds must cover the same markets")
    write_snapshot_dir(
        out_dir=args.out,
        version=args.version,
        embeddings_path=args.embeddings,
        campaigns_path=args.campaigns,
        expansions_path=args.expansions,
        model_path=args.model,
        market_thresholds_path=args.market_thresholds,
        clustering_paths=clustering_paths,
        threshold_paths=threshold_paths,
        dim=args.dim,
        k_neighbors=args.k_neighbors,
        filters_enabled=not args.no_filters,
    )
    print(f"snapshot version {args.version} -> {args.out}")
    return EXIT_OK


def _cmd_match(args) -> int:
    bundle = load_runtime(args.snapshot)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        if args.query is not None:
            records = match_query(args.query, args.market, bundle.snapshot)
            for record in records:
                out.write(json.dumps(match_record_to_doc(record), sort_keys=True) + "\n")
        else:
            for _, (market, query) in read_tsv(args.queries, ("market", "query")):
                for record in match_query(query, market, bundle.snapshot):
                    out.write(json.dumps(match_record_to_doc(record), sort_keys=True) + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _cmd_serve(args) -> int:
    from .service import serve

    serve(args.snapshot, args.port)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="adexpand", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, func, help_text: str) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="pipeline config JSON supplying defaults")
        return p

    p = add("embed", _cmd_embed, "fallback-embed a keyword list into an embeddings TSV")
    p.add_argument("--keywords", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("cluster", _cmd_cluster, "train per-market k-means")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)

    p = add("elbow", _cmd_elbow, "mean held-in WCSS per candidate cluster count")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--k-list", required=True, help="comma-separated cluster counts")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out")

    p = add("stability", _cmd_stability, "k-fold clustering stability report")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)

    p = add("thresholds", _cmd_thresholds, "per-cluster quantile distance cutoffs")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--clustering", required=True)
    p.add_argument("--quantile-pct", "--p", dest="quantile_pct", type=float, default=None,
                   help="quantile as a percent, e.g. 99.9999")
    p.add_argument("--min-cluster-size", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("expand", _cmd_expand, "generate threshold-gated, filtered variants")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--clustering", required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--k-neighbors", type=int, default=None)
    p.add_argument("--no-filters", action="store_true")
    p.add_argument("--keyword", help="expand one keyword and print the record")
    p.add_argument("--out", help="JSONL output (required unless --keyword)")
    p.add_argument("--table", action="store_true", help="also print a text expansion table")

    p = add("train-base", _cmd_train_base, "train the frozen base tree ensemble")
    p.add_argument("--dataset", required=True)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--min-leaf", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("train-adjust", _cmd_train_adjust, "stack residual trees for new inventory")
    p.add_argument("--base", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--adjustment-trees", type=int, default=None)
    p.add_argument("--adjustment-depth", type=int, default=None)
    p.add_argument("--adjustment-rate", type=float, default=1.0)
    p.add_argument("--min-leaf", type=int, default=20)
    p.add_argument("--allow-exceed-limits", action="store_true")
    p.add_argument("--out", required=True)

    p = add("eval-relevance", _cmd_eval_relevance, "per-grade RMSE deltas vs the base")
    p.add_argument("--base", required=True)
    p.add_argument("--stacked", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)

    p = add("tune-threshold", _cmd_tune_threshold, "pick the market relevance cutoff")
    p.add_argument("--model", required=True)
    p.add_argument("--holdout", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--precision-target", type=float, default=None)
    p.add_argument("--out", required=True, help="market thresholds JSON (merged)")

    p = add("sweep-tpr", _cmd_sweep_tpr, "TPR vs quantile sweep against a label file")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--clustering", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--p-list", required=True, help="comma-separated percents")
    p.add_argument("--k-neighbors", type=int, default=None)
    p.add_argument("--min-cluster-size", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("threshold-report", _cmd_threshold_report, "cutoff histogram and summary stats")
    p.add_argument("--thresholds", required=True)
    p.add_argument("--out", required=True)

    p = add("build-snapshot", _cmd_build_snapshot, "assemble a serving snapshot directory")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--campaigns", required=True)
    p.add_argument("--expansions", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--market-thresholds", required=True)
    p.add_argument("--clustering", action="append", default=[], metavar="MARKET=PATH")
    p.add_argument("--thresholds", action="append", default=[], metavar="MARKET=PATH")
    p.add_argument("--version", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--k-neighbors", type=int, default=None)
    p.add_argument("--no-filters", action="store_true")
    p.add_argument("--out", required=True)

    p = add("match", _cmd_match, "match a query (or a query file) against a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--query")
    p.add_argument("--market")
    p.add_argument("--queries", help="batch file of market<TAB>query lines")
    p.add_argument("--out")

    p = add("serve", _cmd_serve, "run the HTTP service over a snapshot directory")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--port", type=int, default=8080)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.command == "expand" and args.keyword is None and not args.out:
            raise _UsageError("expand: --out is required unless --keyword is given")
        _apply_config(args)
        if args.command == "match":
            if (args.query is None) == (args.queries is None):
                raise _UsageError("match: give exactly one of --query or --queries")
            if args.query is not None and not args.market:
                raise _UsageError("match: --market is required with --query")
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except (AdexpandError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
