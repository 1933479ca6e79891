"""Statistical diagnostics for curated datasets.

The central quantity is intra-class similarity: the cosine similarities of
all image pairs sharing a class. Lower values mean more diverse images.
Classes are read one at a time, in wnid order, and only one class's rows
are held at once. A class's mean pair similarity comes from the sum of its
unit vectors, (|sum u|^2 - sum |u|^2) / (n(n-1)), with no n x n array; the
pair scores themselves are enumerated only for a histogram, block by block
of `triangle_blocks`, so each is bitwise the scalar `cosine` of its pair.
Datasets are compared per class by the difference of mean intra-class
similarity, with uncertainty from a bootstrap that resamples *images*
(B = 1000, percentile interval) through the same estimator: pairwise
similarities within a class share images and are not independent, so a
normal interval over pairs would be anticonservative. A replicate is the
count of draws of each image, and its vector sum one `einsum` over those
counts, which adds the images in index order like a sequential loop. The
replicates are drawn and scored a block at a time, each block's draws
taken in turn from the class's stream, so no array grows with B: a block
holds about 2**17 values (`vectorops._BLOCK_SCORES`), and its bits are
those of one (B, n) draw. Each class's random stream is keyed by its wnid,
so its interval depends only on its own images, the seed and B. Classes
with fewer than two images carry no pairwise information; they are skipped
and logged, never silently dropped.

Also here: the proportion of wrong classes outscoring the intended one for
a caption (strict inequality; exact score ties do not count against the
intended class), which keeps only the intended synset rows and scans a
synset file from disk; nearest-text dataset mining; per-class cross-modal
similarity, bootstrapped in blocks as above; and Spearman rank correlation
with average-rank ties.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .corpus import WNID_RE, EmbeddingFile, EmbeddingMatrix
from .curator import Candidates, DatasetManifest
from .errors import ValidationError
from .evalmetrics import ClassStat
from .seeding import linear_quantiles, stream
from .vectorops import (
    _block_step,
    _row_norms,
    cosine_blocks,
    nearest_rows,
    pair_cosine,
    triangle_blocks,
)

log = logging.getLogger(__name__)

DEFAULT_BOOTSTRAP_REPLICATES = 1000


@dataclass(frozen=True)
class ClassImages:
    """One class's image embeddings as loaded: one float32 row per image,
    in manifest order. A class of n images has n(n-1)/2 pairs; classes with
    n < 2 have none."""

    wnid: str
    rows: np.ndarray  # (n_images, dim), float32

    @property
    def n_images(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_pairs(self) -> int:
        return self.n_images * (self.n_images - 1) // 2


@dataclass(frozen=True)
class DatasetComparison:
    """Share of classes where one dataset is significantly more diverse.
    `compare_from_intervals` counts each class at most once, so the two
    proportions lie in [0, 1] and add up to at most 1."""

    prop_A_lower: float
    prop_B_lower: float
    n_shared: int


@dataclass(frozen=True)
class SimilarityBinMean:
    """Mean false-class proportion within one text-to-synset similarity bin."""

    lo: float
    hi: float
    count: int
    mean: float | None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    out = np.asarray(rows, dtype=np.float64)
    return out / _row_norms(out)[:, np.newaxis]


def _percentile_stat(wnid: str, value: float, replicates: np.ndarray, n: int) -> ClassStat:
    """`value` with the 95% percentile interval of its bootstrap
    `replicates`, widened if necessary to contain `value` (the percentile
    interval of a skewed bootstrap distribution can otherwise exclude it).
    The bounds are `np.percentile(replicates, [2.5, 97.5])` bit for bit:
    `linear_quantiles` at those percents over 100, divided as numpy does."""
    lo, hi = linear_quantiles(replicates, np.true_divide([2.5, 97.5], 100))
    return ClassStat(wnid=wnid, value=value, ci_low=min(lo, value), ci_high=max(hi, value), n=n)


def intra_class_sims(
    manifest: DatasetManifest, image_embeddings: EmbeddingMatrix
) -> Iterator[ClassImages]:
    """Each class's images, one class at a time, in wnid order.

    Classes with a single instance are logged; they have no pairs, and
    downstream comparisons skip them. Raises MissingKeyError, when the
    class is reached, for an instance with no image embedding.
    """
    by_class: dict[str, list[str]] = {}  # each class's instance ids, in manifest order
    for instance_id, wnid in zip(manifest.rows.ids, manifest.rows.wnids):
        by_class.setdefault(wnid, []).append(instance_id)
    for wnid, ids in sorted(by_class.items()):
        if len(ids) < 2:
            log.info("class %s has %d image(s); no pairwise similarities", wnid, len(ids))
        rows = image_embeddings.rows[image_embeddings.positions(ids, "image")]
        yield ClassImages(wnid=wnid, rows=rows)


def _pair_means(units: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean pairwise similarity of each row r of `counts`: the sample that
    holds image i counts[r, i] times, n images in all (n >= 2).

    Uses sum-of-vectors algebra: for unit vectors u_1..u_n, the sum over
    pairs of u_i . u_j equals (|sum u|^2 - sum |u|^2) / 2.

    Each row's vector sum is one `einsum` over the counts, with no BLAS: it
    adds counts[r, i] * units[i] for i = 0, 1, ... in turn, so a row's sum
    is bitwise the same whether it is computed alone or in a batch, and a
    row of ones gives the sequential sum of the class's vectors.
    """
    n = units.shape[0]
    sums = np.einsum("bi,id->bd", counts, units)
    total_sq = np.einsum("ij,ij->i", sums, sums)
    del sums  # freed before the product with the counts is formed
    self_sq = (counts * np.einsum("ij,ij->i", units, units)).sum(axis=1)
    return (total_sq - self_sq) / (n * (n - 1))


def _pair_mean(units: np.ndarray) -> float:
    """`_pair_means` of the class itself: every image drawn once."""
    return float(_pair_means(units, np.ones((1, units.shape[0]), dtype=units.dtype))[0])


def _draw_counts(n_boot: int, n: int, rng) -> np.ndarray:
    """How often each of `n_boot` resamples of n images, with replacement,
    drew each image: an (n_boot, n) integer array whose rows sum to n."""
    idx = rng.integers(0, n, size=(n_boot, n))
    idx += n * np.arange(n_boot)[:, np.newaxis]  # replicate r tallies into bins r*n .. r*n + n-1
    return np.bincount(idx.ravel(), minlength=n_boot * n).reshape(n_boot, n)


def _replicate_blocks(n_boot: int, per_replicate: int) -> Iterator[slice]:
    """Consecutive slices that cover replicates 0 .. n_boot - 1, each of
    about `_BLOCK_SCORES` values at `per_replicate` values per replicate.
    No slice holds a lone replicate unless n_boot is 1: a lone row's
    |sum u|^2 is added up in einsum's buffer pieces past 8192 values, so
    its bits could differ from the same row's in a batch."""
    step = max(2, _block_step(per_replicate))
    start = 0
    while start < n_boot:
        stop = min(start + step, n_boot)
        if n_boot - stop == 1:  # a lone last replicate joins this block
            stop = n_boot
        yield slice(start, stop)
        start = stop


def _bootstrap_pair_means(units: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """`_pair_means` of `n_boot` resamples of the images, drawn and scored
    a block of replicates at a time, each block's draws taken in turn from
    `rng`: consecutive draws from a numpy Generator equal one draw of them
    all, and a replicate's mean does not depend on the others in its
    block, so the blocks give the bits of one (n_boot, n) draw. A block
    holds at most two (k, n) arrays, or one and its (k, d) sums. A count
    is at most n, so it is exact in the units' float dtype; the draws are
    freed before the sums are formed."""
    n, d = units.shape
    means = np.empty(n_boot, dtype=units.dtype)
    for block in _replicate_blocks(n_boot, 2 * n + d):
        # one expression, so a block's counts are freed before the next is drawn
        means[block] = _pair_means(
            units, _draw_counts(block.stop - block.start, n, rng).astype(units.dtype)
        )
    return means


def _bootstrap_means(values: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The means of `n_boot` resamples of `values`, drawn a block of
    replicates at a time as `_bootstrap_pair_means` draws them: a block
    holds its (k, n) draws and the values they pick."""
    n = len(values)
    means = np.empty(n_boot)
    for block in _replicate_blocks(n_boot, 2 * n):
        means[block] = values[rng.integers(0, n, size=(block.stop - block.start, n))].mean(axis=1)
    return means


def mean_pair_similarity(images: ClassImages) -> float:
    """Mean cosine similarity over the class's n(n-1)/2 image pairs, by the
    estimator the `per_class_mean_diff_ci` bootstrap resamples. Raises
    ValidationError for a class of fewer than two images."""
    n = images.n_images
    if n < 2:
        raise ValidationError(f"class {images.wnid} has {n} image(s); no pairs")
    return _pair_mean(_unit_rows(images.rows))


def _stream_key(wnid: str) -> int:
    """The wnid's 8-digit number, which keys the class's bootstrap stream.
    Raises ValidationError for a wnid not of the form n + 8 digits."""
    if not WNID_RE.fullmatch(wnid):
        raise ValidationError(f"wnid {wnid!r} is not 'n' followed by 8 digits")
    return int(wnid[1:])


def pair_similarity_blocks(images: ClassImages) -> Iterator[np.ndarray]:
    """The class's pair similarities, one 1-D array per query block of
    `triangle_blocks`: the scores of images i < j, each bitwise equal to
    cosine(rows[i], rows[j]). The blocks hold n(n-1)/2 values in all."""
    for start, scores in triangle_blocks(images.rows):
        # scores[q, i] pairs image start + q with image start + i
        yield scores[np.arange(scores.shape[1]) > np.arange(len(scores))[:, np.newaxis]]


def _in_wnid_order(classes: Iterable[ClassImages], side: str) -> Iterator[ClassImages]:
    """`classes` as given, or ValidationError at the first class whose wnid
    is not greater than the one before it."""
    prior = None
    for images in classes:
        if prior is not None and not images.wnid > prior:
            raise ValidationError(
                f"dataset {side}: class {images.wnid} follows {prior}; "
                "classes must come in strictly increasing wnid order"
            )
        prior = images.wnid
        yield images


def _shared_classes(
    setsA: Iterable[ClassImages], setsB: Iterable[ClassImages]
) -> Iterator[tuple[ClassImages, ClassImages]]:
    """The (A, B) class pairs with the same wnid, in wnid order: a merge of
    the two sides, each read once through its own iterator and to its end,
    so a missing embedding or an out-of-order class on either side raises."""
    a_iter, b_iter = _in_wnid_order(setsA, "A"), _in_wnid_order(setsB, "B")
    a, b = next(a_iter, None), next(b_iter, None)
    while a is not None and b is not None:
        if a.wnid < b.wnid:
            a = next(a_iter, None)
        elif b.wnid < a.wnid:
            b = next(b_iter, None)
        else:
            yield a, b
            a, b = next(a_iter, None), next(b_iter, None)
    for _ in a_iter:
        pass
    for _ in b_iter:
        pass


def per_class_mean_diff_ci(
    setsA: Iterable[ClassImages],
    setsB: Iterable[ClassImages],
    n_boot: int = DEFAULT_BOOTSTRAP_REPLICATES,
    seed: int = 0,
) -> list[ClassStat]:
    """Mean pair similarity of A minus that of B per shared class, with a
    95% bootstrap interval.

    Each side is read once, one class at a time, and must come in strictly
    increasing wnid order (as `intra_class_sims` yields it). Each side
    resamples its own images independently per replicate, through the
    estimator of `mean_pair_similarity`, from a stream keyed by the seed,
    the wnid and the side, so a class's row does not depend on which other
    classes are present. The interval is widened, if necessary, to contain
    the point estimate. Output sorted ascending by the difference.
    """
    out = []
    shared = 0
    for a, b in _shared_classes(setsA, setsB):
        shared += 1
        key = _stream_key(a.wnid)
        if a.n_images < 2 or b.n_images < 2:
            log.warning(
                "class %s skipped: needs >= 2 images on both sides (%d vs %d)",
                a.wnid,
                a.n_images,
                b.n_images,
            )
            continue
        units_a, units_b = _unit_rows(a.rows), _unit_rows(b.rows)
        value = _pair_mean(units_a) - _pair_mean(units_b)
        means_a = _bootstrap_pair_means(units_a, n_boot, stream(seed, key, 0))
        means_b = _bootstrap_pair_means(units_b, n_boot, stream(seed, key, 1))
        out.append(_percentile_stat(a.wnid, value, means_a - means_b, min(a.n_images, b.n_images)))
    if not shared:
        raise ValidationError("the two datasets share no classes")
    out.sort(key=lambda s: (s.value, s.wnid))
    return out


def compare_from_intervals(diffs: list[ClassStat]) -> DatasetComparison:
    """Proportion of the classes in `diffs`, the ClassStat list
    `per_class_mean_diff_ci` returned, where each dataset's intra-class
    similarity is significantly lower (its diff interval clear of zero)."""
    if not diffs:
        raise ValidationError("no shared classes with enough images to compare")
    a_lower = sum(1 for d in diffs if d.ci_high < 0.0)
    b_lower = sum(1 for d in diffs if d.ci_low > 0.0)
    return DatasetComparison(
        prop_A_lower=a_lower / len(diffs),
        prop_B_lower=b_lower / len(diffs),
        n_shared=len(diffs),
    )


def _labelled(rows, wnids: list[str], what: str) -> np.ndarray:
    """`rows` as a 2-D array with one row per wnid of `wnids`, or ValidationError."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] != len(wnids):
        raise ValidationError(f"{what} of shape {rows.shape} for {len(wnids)} wnids")
    return rows


def _own_score_and_false_class(
    texts: np.ndarray, intended: list[str], synsets: EmbeddingMatrix | EmbeddingFile
) -> tuple[np.ndarray, np.ndarray]:
    """Per text, arrays of its similarity to its intended synset and of its
    false-class proportion: the fraction of the other synsets that score
    strictly higher (exact ties do not count against the intended one).

    Of an `EmbeddingFile`, only the intended rows are kept; every row is
    checked as they are read. Every text is checked against the synsets,
    then the own scores come from `pair_cosine`, a block of texts at a
    time, and last the higher scores are counted tile by tile of
    `cosine_blocks`, which scans a file from disk. So the call holds the
    intended rows and one block, never the whole file.
    """
    kept = synsets if isinstance(synsets, EmbeddingMatrix) else synsets.load(keep=intended)
    if len(intended) and synsets.count < 2:
        raise ValidationError("need at least 2 synsets to rank the intended one")
    cols = kept.positions(intended, "synset text")
    tiles = cosine_blocks(texts, synsets)
    own = np.empty(len(intended))
    step = _block_step(kept.dim)
    for start in range(0, len(intended), step):
        block = slice(start, start + step)
        own[block] = pair_cosine(texts[block], kept.rows[cols[block]])
    del kept, cols
    higher = np.zeros(len(intended), dtype=np.intp)
    for start, _, scores in tiles:
        block = slice(start, start + len(scores))
        higher[block] += np.count_nonzero(scores > own[block, np.newaxis], axis=1)
    return own, higher / (synsets.count - 1)


def binned_false_class_means(
    texts,
    intended: list[str],
    synset_text_embeddings: EmbeddingMatrix | EmbeddingFile,
    bin_edges: list[float],
) -> list[SimilarityBinMean]:
    """Average false-class proportion per bin of text-to-intended-synset
    similarity. Bins are half-open [e_i, e_{i+1}): a text scoring below the
    first edge, or at or above the last, is in no bin. Empty bins are
    reported with count 0 and no mean. An `EmbeddingFile` of synsets is
    scanned from disk, with only the intended rows kept."""
    for a, b in zip(bin_edges, bin_edges[1:]):
        if not b > a:
            raise ValidationError(f"bin edges not strictly increasing at {a} -> {b}")
    texts = _labelled(texts, intended, "texts")
    own, prop = _own_score_and_false_class(texts, intended, synset_text_embeddings)
    # slot i is bin i - 1; the first and last slots are in no bin. bincount adds in text order
    slot = np.searchsorted(bin_edges, own, side="right")
    sums = np.bincount(slot, weights=prop, minlength=len(bin_edges) + 1).tolist()
    counts = np.bincount(slot, minlength=len(bin_edges) + 1).tolist()
    return [
        SimilarityBinMean(
            lo=float(bin_edges[i - 1]),
            hi=float(bin_edges[i]),
            count=counts[i],
            mean=(sums[i] / counts[i]) if counts[i] else None,
        )
        for i in range(1, len(bin_edges))
    ]


def nearest_text_dataset(
    queries,
    wnids: list[str],
    corpus_matrix: EmbeddingMatrix | EmbeddingFile,
    min_sim: float,
) -> DatasetManifest:
    """Label corpus items by nearest-text retrieval.

    Row i of `queries` is a query labelled `wnids[i]`. For each query, the
    corpus row with the highest cosine similarity is kept iff its score
    reaches `min_sim`, labeled with the query's wnid. When several queries
    hit the same corpus item, the highest-scoring hit wins (ties to the
    smaller wnid), so the manifest keeps its one-row-per-instance
    guarantee. An `EmbeddingFile` corpus is scanned from disk, one checked
    row chunk at a time, after every query is checked. Raises
    ValidationError for an empty corpus, naming its file.
    """
    if not -1.0 <= min_sim <= 1.0:
        raise ValidationError(f"min_sim {min_sim} outside [-1, 1]")
    queries = _labelled(queries, wnids, "queries")
    best: dict[str, tuple[float, str]] = {}  # corpus id -> (score, wnid) of its best hit
    dropped = 0
    collapsed = 0
    rows, scores = nearest_rows(queries, corpus_matrix)
    for wnid, row, score in zip(wnids, rows.tolist(), scores.tolist()):
        rid = corpus_matrix.ids[row]
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
        scores=[best[rid][0] for rid in ids],
    )
    return DatasetManifest(
        rows=rows,
        threshold=float(min_sim),
        drop_ledger={"below_min_sim": dropped, "duplicate_neighbor": collapsed},
    )


def cross_modal_class_stats(
    classes: Iterable[ClassImages],
    synset_text_embeddings: EmbeddingMatrix,
    n_boot: int = DEFAULT_BOOTSTRAP_REPLICATES,
    seed: int = 0,
) -> list[ClassStat]:
    """Mean image-to-synset-text similarity per class, for `classes` as
    `intra_class_sims` yields them, with a 95% bootstrap interval over
    images. Low means suggest the class's object is absent or hard to
    recognize in its images. Each class resamples from a stream keyed by
    the seed and its wnid, a block of replicates at a time, as
    `per_class_mean_diff_ci` does."""
    out = []
    for images in classes:
        if images.rows.shape[1] != synset_text_embeddings.dim:
            raise ValidationError(
                f"dimension mismatch: images {images.rows.shape[1]} vs "
                f"synset texts {synset_text_embeddings.dim}"
            )
        (synset_row,) = synset_text_embeddings.positions([images.wnid], "synset text")
        values = pair_cosine(images.rows, synset_text_embeddings.rows[synset_row])
        value = float(values.mean())
        means = _bootstrap_means(values, n_boot, stream(seed, _stream_key(images.wnid)))
        out.append(_percentile_stat(images.wnid, value, means, images.n_images))
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
