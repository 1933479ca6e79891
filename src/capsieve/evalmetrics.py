"""Classifier evaluation over a curated manifest.

Predictions are ingested as ranked wnid lists per instance, held as one
mapping from instance id to its ranked wnids, best first (this package
never runs a model). Accuracy is the unweighted mean of per-class recalls
unless explicit class weights are supplied, in which case weights are
restricted to the evaluated classes and renormalized before use.

Per-class recall confidence intervals use the Wilson score interval, which
stays inside [0, 1] and behaves sensibly at recall 0 or 1. Differences of
recalls between two evaluations get a normal-approximation interval with
Wilson-style adjusted variances for each side; classes with fewer than two
instances on either side are reported with the maximally wide [-1, 1]
interval rather than a spuriously tight one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import index_keys, read_jsonl
from .curator import DatasetManifest
from .errors import MissingKeyError, ValidationError

log = logging.getLogger(__name__)

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class ClassStat:
    """A per-class scalar with its 95% confidence bounds and support."""

    wnid: str
    value: float
    ci_low: float
    ci_high: float
    n: int

    def __post_init__(self):
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValidationError(
                f"{self.wnid}: value {self.value} outside CI "
                f"[{self.ci_low}, {self.ci_high}]"
            )


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValidationError("wilson_interval needs total >= 1")
    p = successes / total
    z2 = Z95 * Z95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # At the extremes the bound equals the estimate analytically; keep that
    # exact rather than a rounding hair inside it.
    if successes == 0:
        low = 0.0
    if successes == total:
        high = 1.0
    return low, high


def per_class_recall(
    manifest: DatasetManifest, predictions: Mapping[str, Sequence[str]], k: int
) -> list[ClassStat]:
    """Recall@k per class: the fraction of the class's instances whose true
    wnid appears among the first k of their ranked predictions. Sorted by
    wnid."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for instance_id, wnid in zip(manifest.rows.ids, manifest.rows.wnids):
        ranked = predictions.get(instance_id)
        if ranked is None:
            raise MissingKeyError(f"no prediction for instance {instance_id!r}")
        totals[wnid] = totals.get(wnid, 0) + 1
        if wnid in ranked[:k]:
            hits[wnid] = hits.get(wnid, 0) + 1
    stats = []
    for wnid in sorted(totals):
        n = totals[wnid]
        h = hits.get(wnid, 0)
        low, high = wilson_interval(h, n)
        stats.append(ClassStat(wnid=wnid, value=h / n, ci_low=low, ci_high=high, n=n))
    return stats


def equally_weighted_accuracy(stats: list[ClassStat]) -> float:
    """Unweighted mean of per-class recalls."""
    if not stats:
        raise ValidationError("no class stats to average")
    return sum(s.value for s in stats) / len(stats)


def weighted_accuracy(stats: list[ClassStat], weights: Mapping[str, float]) -> float:
    """Recalls weighted by class frequency.

    `weights` must cover every class in `stats`; they are restricted to
    those classes and renormalized to sum to 1 (the renormalization factor
    is logged when it is not negligible).
    """
    if not stats:
        raise ValidationError("no class stats to average")
    restricted = []
    for s in stats:
        if s.wnid not in weights:
            raise MissingKeyError(f"no weight for class {s.wnid!r}")
        restricted.append(weights[s.wnid])
    total = sum(restricted)
    if total <= 0:
        raise ValidationError("class weights sum to zero over the evaluated classes")
    if abs(total - 1.0) > 1e-9:
        log.info("renormalizing class weights by 1/%.6g over %d classes", total, len(stats))
    return sum(w * s.value for w, s in zip(restricted, stats)) / total


def per_class_recall_diff_ci(
    statsA: list[ClassStat], statsB: list[ClassStat]
) -> list[ClassStat]:
    """Per shared class, recall(A) - recall(B) with a 95% interval.

    Variances on each side use the Wilson-adjusted point estimate
    p~ = (x + z^2/2) / (n + z^2) with var = p~ (1 - p~) / (n + z^2); the
    difference interval is the independent-proportion normal approximation,
    clipped to [-1, 1]. Classes with n < 2 on either side get the full
    [-1, 1] interval. Output is sorted ascending by the difference.
    """
    a_by = {s.wnid: s for s in statsA}
    b_by = {s.wnid: s for s in statsB}
    shared = sorted(set(a_by) & set(b_by))
    if not shared:
        raise ValidationError("the two evaluations share no classes")
    z2 = Z95 * Z95
    out = []
    for wnid in shared:
        a, b = a_by[wnid], b_by[wnid]
        diff = a.value - b.value
        n = min(a.n, b.n)
        if n < 2:
            log.warning("class %s has n < 2 on one side; interval widened to [-1, 1]", wnid)
            low, high = -1.0, 1.0
        else:
            variances = []
            for s in (a, b):
                adj = (s.value * s.n + z2 / 2.0) / (s.n + z2)
                variances.append(adj * (1.0 - adj) / (s.n + z2))
            half = Z95 * math.sqrt(sum(variances))
            low, high = max(-1.0, diff - half), min(1.0, diff + half)
        out.append(ClassStat(wnid=wnid, value=diff, ci_low=low, ci_high=high, n=n))
    out.sort(key=lambda s: (s.value, s.wnid))
    return out


# -- file formats -------------------------------------------------------------


def load_predictions(path) -> dict[str, list[str]]:
    """Read predictions JSONL, {"id": str, "ranked": [wnid, ...]}, as a
    mapping from id to ranked wnids. An id seen before, and then a ranked
    list that repeats a wnid, are rejected with their line."""
    path = Path(path)
    lines, columns = read_jsonl(path, {"id": str, "ranked": "wnid list"})
    ids, ranked_lists = columns["id"], columns["ranked"]
    predictions = dict(zip(ids, ranked_lists))
    if len(predictions) < len(ids):  # an id repeats: name it and its lines
        index_keys(ids, "prediction id", path=path, lines=lines)
    for lineno, instance_id, ranked in zip(lines, ids, ranked_lists):
        if len(set(ranked)) != len(ranked):
            raise ValidationError(
                f"ranked predictions for {instance_id!r} not distinct", path=path, line=lineno
            )
    return predictions
