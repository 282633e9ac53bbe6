"""Evaluation reports: TPR versus expansion quantile, cluster threshold
distribution, and base-versus-stacked relevance deltas. All outputs are
plot-ready CSV with deterministic ordering.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .clustering import Clustering
from .embeddings import EmbeddingSet, read_tsv
from .errors import (
    DanglingReferenceError,
    DegenerateInputError,
    NoPositivePairsError,
    ParseError,
)
from .expansion import ExpansionContext, expand_keyword
from .flat_index import build_index, knn_search
from .relevance import GbdtModel, StackedModel, rmse_by_label
from .thresholds import ThresholdTable, build_threshold_table, threshold_size_correlation

TPR_DENOMINATOR_NOTE = (
    "TPR denominator: label-positive pairs among retrieved nearest-neighbor candidates"
)


@dataclass(frozen=True)
class LabeledPair:
    origin: str
    variant: str
    label: int


def load_label_set(path: str) -> list[LabeledPair]:
    """TSV rows ``origin<TAB>variant<TAB>0|1`` (see read_tsv); pairs must be
    unique."""
    pairs: list[LabeledPair] = []
    seen: set[tuple[str, str]] = set()
    for lineno, (origin, variant, label) in read_tsv(path, ("origin", "variant", "label")):
        if label not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: label must be 0 or 1")
        key = (origin, variant)
        if key in seen:
            raise ParseError(f"{path}:{lineno}: duplicate pair {key}")
        seen.add(key)
        pairs.append(LabeledPair(origin=origin, variant=variant, label=int(label)))
    return pairs


@dataclass
class TprRow:
    p: float
    tpr_raw: float
    tpr_filtered: float
    tpr_normalized: float


def tpr_sweep(
    embedding_set: EmbeddingSet,
    clustering: Clustering,
    labels: list[LabeledPair],
    p_list: list[float],
    k_neighbors: int,
    min_cluster_size: int,
) -> list[TprRow]:
    """True-positive rate of expansion, before and after consistency filters.

    For each quantile p the expansions are regenerated; the rate counts
    label-positive pairs among accepted variants over label-positive pairs
    among the retrieved nearest-neighbor candidates (fixed across p). The
    normalized column scales filtered TPR so the largest quantile of the
    sweep reads exactly 100. p_list holds at least one quantile.
    """
    index = build_index(embedding_set)
    origins = sorted({pair.origin for pair in labels})
    origin_rows = {}
    for origin in origins:
        row = embedding_set.row_of(origin)
        if row is None:
            raise DanglingReferenceError(f"label origin {origin!r} has no embedding")
        origin_rows[origin] = row
    retrieved: dict[str, set[str]] = {}
    for origin, row in origin_rows.items():
        neighbors = knn_search(index, embedding_set.matrix[row], k=k_neighbors, exclude_id=row)
        retrieved[origin] = {embedding_set.texts[nb.id] for nb in neighbors}

    positives = [
        pair for pair in labels if pair.label == 1 and pair.variant in retrieved[pair.origin]
    ]
    if not positives:
        raise NoPositivePairsError("no label-positive pair among retrieved candidates")
    denominator = len(positives)

    rows: list[TprRow] = []
    results: dict[float, tuple[float, float]] = {}
    for p in sorted(set(p_list)):
        table = build_threshold_table(clustering, embedding_set, p, min_cluster_size)
        context = ExpansionContext(embedding_set, index, clustering, table)
        raw_hits = 0
        filtered_hits = 0
        accepted_raw: dict[str, set[str]] = {}
        accepted_filtered: dict[str, set[str]] = {}
        for origin, row in origin_rows.items():
            record = expand_keyword(context, origin, row, embedding_set.matrix[row], k_neighbors)
            accepted_raw[origin] = {v.text for v in record.variants}
            accepted_filtered[origin] = {v.text for v in record.accepted_variants()}
        for pair in positives:
            if pair.variant in accepted_raw[pair.origin]:
                raw_hits += 1
            if pair.variant in accepted_filtered[pair.origin]:
                filtered_hits += 1
        results[p] = (raw_hits / denominator, filtered_hits / denominator)

    reference_filtered = results[max(p_list)][1]
    for p in sorted(p_list):
        tpr_raw, tpr_filtered = results[p]
        if reference_filtered > 0:
            normalized = 100.0 * (tpr_filtered / reference_filtered)
        else:
            normalized = float("nan")
        rows.append(
            TprRow(p=p, tpr_raw=tpr_raw, tpr_filtered=tpr_filtered, tpr_normalized=normalized)
        )
    return rows


def write_tpr_csv(rows: list[TprRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {TPR_DENOMINATOR_NOTE}\n")
        writer = csv.writer(fh)
        writer.writerow(["p", "tpr_raw", "tpr_filtered", "tpr_normalized"])
        for row in rows:
            writer.writerow(
                [repr(row.p), repr(row.tpr_raw), repr(row.tpr_filtered), repr(row.tpr_normalized)]
            )


@dataclass
class ThresholdReport:
    bin_edges: list[float]
    counts: list[int]
    mean_similarity: float
    variance_similarity: float
    pearson_r: float | None


HISTOGRAM_BINS = 20


def threshold_report(table: ThresholdTable) -> ThresholdReport:
    """Distribution of per-cluster similarity cutoffs plus summary stats.

    The size-threshold correlation is a diagnostic; with constant sizes or
    constant cutoffs it is reported as degenerate (None) rather than raised.
    DegenerateInputError when the cutoffs do not part into bins.
    """
    sims = np.array([row.tau_similarity for row in table.rows.values()], dtype=np.float64)
    lo, hi = float(sims.min()), float(sims.max())
    # Cutoffs too close for np.histogram's finite bins are binned over the
    # span widened by 0.5 each way, as it bins equal ones.
    for span in ((lo, hi), (lo - 0.5, hi + 0.5)):
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = np.linspace(*span, HISTOGRAM_BINS + 1)
        if np.all(np.isfinite(bounds)) and np.all(bounds[:-1] < bounds[1:]):
            break
    else:  # a span past the float range, or 0.5 below the cutoffs' precision
        raise DegenerateInputError(
            f"cutoffs from {lo!r} to {hi!r} do not part into {HISTOGRAM_BINS} finite bins")
    counts, edges = np.histogram(sims, bins=HISTOGRAM_BINS, range=span)
    try:
        r: float | None = threshold_size_correlation(table)
    except DegenerateInputError:
        r = None
    variance = 0.0 if np.ptp(sims) == 0.0 else float(np.var(sims))
    return ThresholdReport(
        bin_edges=[float(e) for e in edges],
        counts=[int(c) for c in counts],
        mean_similarity=float(np.mean(sims)),
        variance_similarity=variance,
        pearson_r=r,
    )


def write_threshold_report_csv(report: ThresholdReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "count"])
        for i, count in enumerate(report.counts):
            writer.writerow([repr(report.bin_edges[i]), repr(report.bin_edges[i + 1]), count])
        writer.writerow([])
        writer.writerow(["mean_tau_similarity", repr(report.mean_similarity)])
        writer.writerow(["variance_tau_similarity", repr(report.variance_similarity)])
        writer.writerow(
            ["size_threshold_pearson_r", "degenerate" if report.pearson_r is None else repr(report.pearson_r)]
        )


@dataclass
class RelevanceDeltaRow:
    grade: int
    rmse_base: float
    rmse_stacked: float
    delta_pct: float


@dataclass
class RelevanceReport:
    rows: list[RelevanceDeltaRow]
    overall_base: float
    overall_stacked: float
    overall_delta_pct: float


def relevance_report(
    base: GbdtModel, stacked: StackedModel, X: np.ndarray, y: np.ndarray
) -> RelevanceReport:
    """Per-grade RMSE of base and stacked models with relative deltas."""
    base_by_grade, overall_base = rmse_by_label(base, X, y)
    stacked_by_grade, overall_stacked = rmse_by_label(stacked, X, y)
    rows = [
        RelevanceDeltaRow(
            grade=grade,
            rmse_base=base_by_grade[grade],
            rmse_stacked=stacked_by_grade[grade],
            delta_pct=_delta_pct(base_by_grade[grade], stacked_by_grade[grade]),
        )
        for grade in base_by_grade
    ]
    return RelevanceReport(
        rows=rows,
        overall_base=overall_base,
        overall_stacked=overall_stacked,
        overall_delta_pct=_delta_pct(overall_base, overall_stacked),
    )


def _delta_pct(base: float, stacked: float) -> float:
    return 100.0 * (stacked - base) / base if base > 0 else 0.0


def write_relevance_report(report: RelevanceReport, csv_path: str, json_path: str) -> None:
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grade", "rmse_base", "rmse_stacked", "delta_pct"])
        for row in report.rows:
            writer.writerow([row.grade, repr(row.rmse_base), repr(row.rmse_stacked), repr(row.delta_pct)])
        writer.writerow(
            ["overall", repr(report.overall_base), repr(report.overall_stacked), repr(report.overall_delta_pct)]
        )
    doc = {
        "per_grade_rmse": {
            str(row.grade): {
                "base": row.rmse_base,
                "stacked": row.rmse_stacked,
                "delta_pct": row.delta_pct,
            }
            for row in report.rows
        },
        "overall_rmse": {
            "base": report.overall_base,
            "stacked": report.overall_stacked,
            "delta_pct": report.overall_delta_pct,
        },
        "deltas_vs_baseline": {str(row.grade): row.delta_pct for row in report.rows},
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
