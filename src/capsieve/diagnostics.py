"""Statistical diagnostics for curated datasets.

The central quantity is intra-class similarity: all pairwise cosine
similarities among the image embeddings sharing a class. Lower values mean
more diverse images. Datasets are compared per class by the difference of
mean intra-class similarity, with uncertainty from a bootstrap that
resamples *images* (B = 1000, percentile interval): pairwise similarities
within a class share images and are not independent, so a normal interval
over pairs would be anticonservative. Classes with fewer than two images
carry no pairwise information; they are skipped and logged, never silently
dropped.

Also here: the proportion of wrong classes outscoring the intended one for
a caption (strict inequality; exact score ties do not count against the
intended class), nearest-text dataset mining, per-class cross-modal
similarity, and Spearman rank correlation with average-rank ties.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .corpus import EmbeddingMatrix
from .curator import Candidates, DatasetManifest
from .errors import MissingKeyError, ValidationError
from .evalmetrics import ClassStat
from .provenance import config_digest
from .seeding import stream
from .vectorops import batch_cosine, cosine_blocks, require_embedding, top_k

log = logging.getLogger(__name__)

DEFAULT_BOOTSTRAP_REPLICATES = 1000


@dataclass
class ClassSimilaritySet:
    """All pairwise image-image cosine similarities within one class.

    `vectors` keeps the class's unit-normalized image embeddings so
    bootstrap procedures can resample images and recompute pair
    similarities. For n images there are n(n-1)/2 similarities; classes
    with n < 2 have an empty `sims`.
    """

    wnid: str
    sims: np.ndarray
    vectors: np.ndarray  # (n_images, dim), unit rows, float64

    @property
    def n_images(self) -> int:
        return int(self.vectors.shape[0])

    def __post_init__(self):
        n = self.n_images
        if len(self.sims) != n * (n - 1) // 2:
            raise ValidationError(
                f"{self.wnid}: {len(self.sims)} pair similarities for {n} images"
            )


@dataclass(frozen=True)
class DatasetComparison:
    """Share of classes where one dataset is significantly more diverse."""

    prop_A_lower: float
    prop_B_lower: float
    n_shared: int

    def __post_init__(self):
        for name, p in (("prop_A_lower", self.prop_A_lower), ("prop_B_lower", self.prop_B_lower)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name}={p} outside [0, 1]")
        if self.prop_A_lower + self.prop_B_lower > 1.0 + 1e-12:
            raise ValidationError("lower-similarity proportions exceed 1")


@dataclass(frozen=True)
class SimilarityBinMean:
    """Mean false-class proportion within one text-to-synset similarity bin."""

    lo: float
    hi: float
    count: int
    mean: float | None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    out = np.asarray(rows, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    return out / norms[:, np.newaxis]


def _ids_by_class(manifest: DatasetManifest) -> list[tuple[str, list[str]]]:
    """Each class's instance ids in manifest order, classes in wnid order."""
    by_class: dict[str, list[str]] = {}
    for instance_id, wnid in zip(manifest.rows.ids, manifest.rows.wnids):
        by_class.setdefault(wnid, []).append(instance_id)
    return sorted(by_class.items())


def _percentile_stat(wnid: str, value: float, replicates: np.ndarray, n: int) -> ClassStat:
    """`value` with the 95% percentile interval of its bootstrap
    `replicates`, widened if necessary to contain `value` (the percentile
    interval of a skewed bootstrap distribution can otherwise exclude it)."""
    lo, hi = np.percentile(replicates, [2.5, 97.5])
    return ClassStat(
        wnid=wnid, value=value, ci_low=min(float(lo), value), ci_high=max(float(hi), value), n=n
    )


def intra_class_sims(
    manifest: DatasetManifest, image_embeddings: EmbeddingMatrix
) -> list[ClassSimilaritySet]:
    """Pairwise similarities per class, in wnid order.

    Classes with a single instance yield an empty similarity set (logged);
    downstream comparisons skip them.
    """
    out = []
    for wnid, ids in _ids_by_class(manifest):
        vectors = np.stack([require_embedding(image_embeddings, i, "image") for i in ids])
        units = _unit_rows(vectors)
        n = len(ids)
        if n < 2:
            log.info("class %s has %d image(s); no pairwise similarities", wnid, n)
            sims = np.empty(0, dtype=np.float64)
        else:
            gram = units @ units.T
            iu, ju = np.triu_indices(n, k=1)
            sims = gram[iu, ju]
        out.append(ClassSimilaritySet(wnid=wnid, sims=sims, vectors=units))
    return out


def _bootstrap_pair_means(units: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """Mean pairwise similarity for `n_boot` image resamples.

    Uses sum-of-vectors algebra: for resampled unit vectors u_1..u_n,
    sum over pairs of u_i . u_j equals (|sum u|^2 - sum |u|^2) / 2.

    Each replicate's vector sum starts from its first image and adds the
    others one by one, in resample order: the order in which
    `units[idx].sum(axis=1)` adds, so the means are bitwise the same
    without its n_boot x n x d array.
    """
    n = units.shape[0]
    idx = rng.integers(0, n, size=(n_boot, n))
    sums = units[idx[:, 0]]
    for j in range(1, n):
        sums += units[idx[:, j]]
    norm_sq = np.einsum("ij,ij->i", units, units)
    total_sq = np.einsum("ij,ij->i", sums, sums)
    self_sq = norm_sq[idx].sum(axis=1)
    return (total_sq - self_sq) / (n * (n - 1))


def per_class_mean_diff_ci(
    setsA: list[ClassSimilaritySet],
    setsB: list[ClassSimilaritySet],
    n_boot: int = DEFAULT_BOOTSTRAP_REPLICATES,
    seed: int = 0,
) -> list[ClassStat]:
    """mean(A sims) - mean(B sims) per shared class, 95% bootstrap interval.

    Each side resamples its own images independently per replicate. The
    interval is widened, if necessary, to contain the point estimate.
    Output sorted ascending by the difference.
    """
    a_by = {s.wnid: s for s in setsA}
    b_by = {s.wnid: s for s in setsB}
    shared = sorted(set(a_by) & set(b_by))
    if not shared:
        raise ValidationError("the two datasets share no classes")
    out = []
    for class_idx, wnid in enumerate(shared):
        a, b = a_by[wnid], b_by[wnid]
        if a.n_images < 2 or b.n_images < 2:
            log.warning(
                "class %s skipped: needs >= 2 images on both sides (%d vs %d)",
                wnid,
                a.n_images,
                b.n_images,
            )
            continue
        value = float(a.sims.mean() - b.sims.mean())
        means_a = _bootstrap_pair_means(a.vectors, n_boot, stream(seed, class_idx, 0))
        means_b = _bootstrap_pair_means(b.vectors, n_boot, stream(seed, class_idx, 1))
        out.append(_percentile_stat(wnid, value, means_a - means_b, min(a.n_images, b.n_images)))
    out.sort(key=lambda s: (s.value, s.wnid))
    return out


def compare_datasets(
    setsA: list[ClassSimilaritySet],
    setsB: list[ClassSimilaritySet],
    n_boot: int = DEFAULT_BOOTSTRAP_REPLICATES,
    seed: int = 0,
) -> DatasetComparison:
    """Proportion of shared classes where each dataset's intra-class
    similarity is significantly lower (its diff interval clear of zero)."""
    return compare_from_intervals(per_class_mean_diff_ci(setsA, setsB, n_boot=n_boot, seed=seed))


def compare_from_intervals(diffs: list[ClassStat]) -> DatasetComparison:
    """`compare_datasets` from the ClassStat list `per_class_mean_diff_ci`
    returned, for a caller that already holds the intervals."""
    if not diffs:
        raise ValidationError("no shared classes with enough images to compare")
    a_lower = sum(1 for d in diffs if d.ci_high < 0.0)
    b_lower = sum(1 for d in diffs if d.ci_low > 0.0)
    return DatasetComparison(
        prop_A_lower=a_lower / len(diffs),
        prop_B_lower=b_lower / len(diffs),
        n_shared=len(diffs),
    )


def false_class_proportion(
    caption_embedding, intended_wnid: str, synset_text_embeddings: EmbeddingMatrix
) -> float:
    """Fraction of other synsets strictly more similar to the caption than
    the intended one. 0 means the intended synset is the best explanation
    of the text; exact ties do not count against it."""
    texts, intended = [caption_embedding], [intended_wnid]
    return next(_own_score_and_false_class(texts, intended, synset_text_embeddings))[1]


def _own_score_and_false_class(
    texts, intended: list[str], synsets: EmbeddingMatrix
) -> Iterator[tuple[float, float]]:
    """For each text in order, its similarity to its intended synset and the
    fraction of the other synsets that score strictly higher; the texts are
    scored in `cosine_blocks`."""
    if len(intended) and synsets.count < 2:
        raise ValidationError("need at least 2 synsets to rank the intended one")
    cols = []
    for wnid in intended:
        if wnid not in synsets.index:
            raise MissingKeyError(f"unknown wnid {wnid!r}")
        cols.append(synsets.index[wnid])
    for start, scores in cosine_blocks(texts, synsets):
        own = scores[np.arange(len(scores)), cols[start : start + len(scores)]]
        higher = np.count_nonzero(scores > own[:, np.newaxis], axis=1)
        yield from zip(own.tolist(), (higher / (synsets.count - 1)).tolist())


def binned_false_class_means(
    texts,
    intended: list[str],
    synset_text_embeddings: EmbeddingMatrix,
    bin_edges: list[float],
) -> list[SimilarityBinMean]:
    """Average false-class proportion per bin of text-to-intended-synset
    similarity. Bins are half-open [e_i, e_{i+1}); empty bins are reported
    with count 0 and no mean."""
    for a, b in zip(bin_edges, bin_edges[1:]):
        if not b > a:
            raise ValidationError(f"bin edges not strictly increasing at {a} -> {b}")
    texts = np.asarray(texts, dtype=np.float64)
    if texts.ndim != 2 or texts.shape[0] != len(intended):
        raise ValidationError(
            f"{texts.shape[0] if texts.ndim == 2 else '?'} texts for {len(intended)} intended wnids"
        )
    n_bins = len(bin_edges) - 1
    sums = [0.0] * n_bins
    counts = [0] * n_bins
    for own, prop in _own_score_and_false_class(texts, intended, synset_text_embeddings):
        b = int(np.searchsorted(bin_edges, own, side="right")) - 1
        if 0 <= b < n_bins and own < bin_edges[b + 1]:
            sums[b] += prop
            counts[b] += 1
    return [
        SimilarityBinMean(
            lo=float(bin_edges[i]),
            hi=float(bin_edges[i + 1]),
            count=counts[i],
            mean=(sums[i] / counts[i]) if counts[i] else None,
        )
        for i in range(n_bins)
    ]


def nearest_text_dataset(
    query_texts: list[tuple[np.ndarray, str]],
    corpus_matrix: EmbeddingMatrix,
    min_sim: float,
) -> DatasetManifest:
    """Label corpus items by nearest-text retrieval.

    For each (embedding, wnid) query, the corpus row with the highest
    cosine similarity is kept iff its score reaches `min_sim`, labeled with
    the query's wnid. When several queries hit the same corpus item, the
    highest-scoring hit wins (ties to the smaller wnid), so the manifest
    keeps its one-row-per-instance guarantee.
    """
    if not -1.0 <= min_sim <= 1.0:
        raise ValidationError(f"min_sim {min_sim} outside [-1, 1]")
    if corpus_matrix.count == 0:
        raise ValidationError("empty corpus matrix")
    best: dict[str, tuple[float, str]] = {}  # corpus id -> (score, wnid) of its best hit
    dropped = 0
    collapsed = 0
    nearest = top_k([embedding for embedding, _ in query_texts], corpus_matrix, 1)
    for (_, wnid), (row_index, scores) in zip(query_texts, nearest):
        rid, score = corpus_matrix.ids[row_index[0]], float(scores[0])
        if score < min_sim:
            dropped += 1
            continue
        prior = best.get(rid)
        if prior is None:
            best[rid] = (score, wnid)
        else:
            collapsed += 1
            if (-score, wnid) < (-prior[0], prior[1]):
                best[rid] = (score, wnid)
    ids = sorted(best)
    rows = Candidates(
        ids=ids,
        wnids=[best[rid][1] for rid in ids],
        scores=np.array([best[rid][0] for rid in ids], dtype=np.float64),
    )
    return DatasetManifest(
        rows=rows,
        threshold=float(min_sim),
        provenance=config_digest({"min_sim": min_sim}),
        drop_ledger={"below_min_sim": dropped, "duplicate_neighbor": collapsed},
    )


def cross_modal_class_stats(
    manifest: DatasetManifest,
    image_embeddings: EmbeddingMatrix,
    synset_text_embeddings: EmbeddingMatrix,
    n_boot: int = DEFAULT_BOOTSTRAP_REPLICATES,
    seed: int = 0,
) -> list[ClassStat]:
    """Mean image-to-synset-text similarity per class with a 95% bootstrap
    interval over images. Low means suggest the class's object is absent or
    hard to recognize in its images."""
    if image_embeddings.dim != synset_text_embeddings.dim:
        raise ValidationError(
            f"dimension mismatch: images {image_embeddings.dim} vs "
            f"synset texts {synset_text_embeddings.dim}"
        )
    out = []
    for class_idx, (wnid, ids) in enumerate(_ids_by_class(manifest)):
        synset_vec = require_embedding(synset_text_embeddings, wnid, "synset text")
        images = np.stack([require_embedding(image_embeddings, i, "image") for i in ids])
        values = batch_cosine(synset_vec, EmbeddingMatrix(rows=images, ids=list(ids)))
        value = float(values.mean())
        rng = stream(seed, class_idx)
        idx = rng.integers(0, len(ids), size=(n_boot, len(ids)))
        out.append(_percentile_stat(wnid, value, values[idx].mean(axis=1), len(ids)))
    return out


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties.

    Exactly +1/-1 when the rank vectors agree/oppose perfectly; raises on
    length mismatch or constant input (the correlation is undefined).
    """
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValidationError(f"length mismatch: {xv.shape} vs {yv.shape}")
    if xv.size < 2:
        raise ValidationError("need at least 2 observations")
    rx = _average_ranks(xv)
    ry = _average_ranks(yv)
    ax = rx - rx.mean()
    ay = ry - ry.mean()
    sx = float(np.sqrt(np.sum(ax * ax)))
    sy = float(np.sqrt(np.sum(ay * ay)))
    if sx == 0.0 or sy == 0.0:
        raise ValidationError("rank correlation undefined for constant input")
    if np.array_equal(ax, ay):
        return 1.0
    if np.array_equal(ax, -ay):
        return -1.0
    r = float(np.sum(ax * ay)) / (sx * sy)
    return max(-1.0, min(1.0, r))
