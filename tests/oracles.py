"""Deliberately simple reference implementations that tests hold the
package's optimized code to."""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import replace
from itertools import groupby, islice
from statistics import NormalDist

import numpy as np

from capsieve.causalsim import (
    _GENERATION_BLOCK,
    MIN_PER_GROUP,
    BinIndependenceTest,
    GenConfig,
    Samples,
    SelectionRule,
    _keep_mask,
    class_means,
)
from capsieve.corpus import _KINDS, _SURROGATE, Captions, EmbeddingMatrix
from capsieve.curator import AssembleOptions, Candidates, DatasetManifest, SweepPoint
from capsieve.errors import FormatError, ValidationError
from capsieve.matcher import LemmaMatch
from capsieve.seeding import stream
from capsieve.taxonomy import Taxonomy, fold_text
from capsieve.vectorops import cosine


def _whole_token(text: str, start: int, end: int) -> bool:
    """The boundary rule, written independently of the matcher's: an empty
    slice is not alphanumeric, so the text's ends always count as boundaries."""
    return not text[start - 1 : start].isalnum() and not text[end : end + 1].isalnum()


def find_matches_naive(taxonomy: Taxonomy, corpus: Captions) -> list[LemmaMatch]:
    """Reference scan: try every folded lemma against every folded caption
    with str.find and keep whole-token hits. Quadratic; for testing."""
    wnid_sets: dict[str, set[str]] = {}
    for wnid, lemmas in zip(taxonomy.wnids, taxonomy.lemmas):
        for lemma in lemmas:
            wnid_sets.setdefault(fold_text(lemma), set()).add(wnid)

    results: list[LemmaMatch] = []
    for instance_id, text in zip(corpus.ids, corpus.texts):
        folded = fold_text(text)
        matches = []
        for pattern, wnids in wnid_sets.items():
            start = folded.find(pattern)
            while start != -1:
                end = start + len(pattern)
                if _whole_token(folded, start, end):
                    for wnid in wnids:
                        matches.append(
                            LemmaMatch(
                                instance_id=instance_id,
                                wnid=wnid,
                                lemma=pattern,
                                span=(start, end),
                            )
                        )
                start = folded.find(pattern, start + 1)
        matches.sort(key=lambda m: (m.span[0], m.wnid, m.span[1], m.lemma))
        results.extend(matches)
    return results


def argmax_class(query, matrix: EmbeddingMatrix, k: int) -> list[tuple[str, float]]:
    """Top-k (id, score) by cosine against `query`, ties broken by id
    ascending: one scalar `cosine` per row and a full lexsort."""
    if matrix.count == 0:
        raise ValidationError("empty matrix")
    if not 1 <= k <= matrix.count:
        raise ValidationError(f"k={k} out of range 1..{matrix.count}")
    scores = np.array([cosine(query, row) for row in matrix.rows])
    ids = np.asarray(matrix.ids)
    order = np.lexsort((ids, -scores))
    return [(str(ids[i]), float(scores[i])) for i in order[:k]]


def nearest_neighbor(query, matrix: EmbeddingMatrix) -> tuple[str, float]:
    """The single best (id, score); equivalent to argmax_class(..., 1)[0]."""
    if matrix.count == 0:
        raise ValidationError("empty matrix")
    return argmax_class(query, matrix, 1)[0]


def false_class_exhaustive(text, intended: str, synsets: EmbeddingMatrix) -> float:
    """The fraction of the other synsets whose scalar `cosine` with `text`
    is strictly above the intended synset's, one synset at a time."""
    own = cosine(text, synsets.rows[synsets.index[intended]])
    higher = sum(
        1
        for j in range(synsets.count)
        if synsets.ids[j] != intended and cosine(text, synsets.rows[j]) > own
    )
    return higher / (synsets.count - 1)


def pair_means_sequential(units: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Mean pairwise similarity of the images units[idx[r]], for each row r
    of `idx`: each row's vector sum starts from its first image and adds
    the others one by one, in `idx` order."""
    n = idx.shape[1]
    sums = units[idx[:, 0]]
    for j in range(1, n):
        sums += units[idx[:, j]]
    norm_sq = np.einsum("ij,ij->i", units, units)
    total_sq = np.einsum("ij,ij->i", sums, sums)
    self_sq = norm_sq[idx].sum(axis=1)
    return (total_sq - self_sq) / (n * (n - 1))


def bootstrap_pair_means_gather(units: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The bootstrap's mean pairwise similarities by gathering every
    resample at once: an n_boot x n x d array summed over its images."""
    n = units.shape[0]
    idx = rng.integers(0, n, size=(n_boot, n))
    sums = units[idx].sum(axis=1)
    norm_sq = np.einsum("ij,ij->i", units, units)
    total_sq = np.einsum("ij,ij->i", sums, sums)
    self_sq = norm_sq[idx].sum(axis=1)
    return (total_sq - self_sq) / (n * (n - 1))


def bootstrap_pair_means_counts(units: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The bootstrap's mean pairwise similarities from per-image draw
    counts, tallied one draw at a time: each replicate's vector sum adds
    count_i * u_i for i = 0, 1, ... in turn, and its sum of squared norms
    is one row sum of count_i * |u_i|^2."""
    n = units.shape[0]
    idx = rng.integers(0, n, size=(n_boot, n))
    counts = np.zeros((n_boot, n), dtype=units.dtype)
    for r in range(n_boot):
        for i in idx[r]:
            counts[r, i] += 1
    sums = np.zeros((n_boot, units.shape[1]), dtype=units.dtype)
    for i in range(n):
        sums += counts[:, i : i + 1] * units[i]
    norm_sq = np.einsum("ij,ij->i", units, units)
    total_sq = np.einsum("ij,ij->i", sums, sums)
    self_sq = np.array([np.sum(row * norm_sq) for row in counts], dtype=units.dtype)
    return (total_sq - self_sq) / (n * (n - 1))


def bootstrap_means_whole(values: np.ndarray, n_boot: int, rng) -> np.ndarray:
    """The means of `n_boot` resamples of `values` from one (n_boot, n)
    draw, gathered and averaged at once."""
    n = len(values)
    return values[rng.integers(0, n, size=(n_boot, n))].mean(axis=1)


def read_jsonl_per_line(path, fields, optional=None) -> tuple[list[int], dict[str, list]]:
    """What `read_jsonl` returns, read the simple way: one `json.loads` per
    line, and every check of a line made before the next line is read, so
    the first fault in file order is raised."""
    checks = [(name, kind, True) for name, kind in fields.items()]
    checks += [(name, kind, False) for name, kind in (optional or {}).items()]
    lines: list[int] = []
    columns: dict[str, list] = {name: [] for name, _, _ in checks}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            if not text.isascii() and _SURROGATE.search(text):
                raise FormatError("not UTF-8", path=path, line=lineno)
            try:
                row = json.loads(text)
            except (ValueError, RecursionError) as exc:
                reason = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise FormatError(f"invalid JSON ({reason})", path=path, line=lineno) from None
            if not isinstance(row, dict):
                raise FormatError("expected a JSON object", path=path, line=lineno)
            for name, kind, required in checks:
                _, _, is_kind, description = _KINDS[kind]
                if name not in row:
                    if required:
                        raise FormatError(f"missing field {name!r}", path=path, line=lineno)
                elif not is_kind(row[name]):
                    raise FormatError(
                        f"field {name!r} must be {description}, got {reprlib.repr(row[name])}",
                        path=path,
                        line=lineno,
                    )
            lines.append(lineno)
            for name in columns:
                columns[name].append(row.get(name))
    return lines, columns


def generate_naive(config: GenConfig, n: int) -> Samples:
    """Reference generator: each block's images made as a new array, the
    class means plus a fresh (m, x_dim) draw, then copied into x; the
    labels in the narrowest unsigned type that holds n_classes - 1."""
    means = class_means(config)
    y = np.empty(n, dtype=np.min_scalar_type(config.n_classes - 1))
    x = np.empty((n, config.x_dim))
    t = np.empty(n)
    for block_idx, start in enumerate(range(0, n, _GENERATION_BLOCK)):
        rows = slice(start, min(start + _GENERATION_BLOCK, n))
        m = rows.stop - start
        rng = stream(config.seed, block_idx)
        y[rows] = rng.integers(0, config.n_classes, size=m)
        x[rows] = means[y[rows]] + rng.standard_normal((m, config.x_dim))
        t[rows] = x[rows, 0] + config.text_noise_sd * rng.standard_normal(m)
    return Samples(y, x, t)


def class_dim_variance_gather(y: np.ndarray, x: np.ndarray, mask=None) -> np.ndarray:
    """Reference per-class variance: each class's images gathered whole
    with a boolean mask, then numpy's `var(axis=0, ddof=1)`, averaged over
    the classes with at least two members."""
    per_class = []
    for c in np.unique(y if mask is None else y[mask]):
        xc = x[y == c if mask is None else mask & (y == c)]
        if xc.shape[0] >= 2:
            per_class.append(xc.var(axis=0, ddof=1))
    if not per_class:
        raise ValidationError("no class has enough members for a variance estimate")
    return np.mean(per_class, axis=0)


def t_bins_float_keys(t: np.ndarray, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference t-bin grouping: float64 keys floor((t - t.min()) /
    bin_width), a stable argsort of them, and a bin bound wherever the
    sorted keys change. Raises FloatingPointError when a key overflows."""
    with np.errstate(over="raise"):
        keys = np.floor((t - t.min()) / bin_width)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    changes = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    return order, np.concatenate(([0], changes, [len(t)]))


def matched_ball_radius(samples: Samples, prototype, rate: float) -> float:
    """Reference matched radius: `np.quantile` at `rate` of the distances
    of the images to `prototype`, from the whole-array expression. An
    image_ball rule of this radius keeps about that share of the samples."""
    distances = np.sqrt(((samples.x - np.asarray(prototype, dtype=np.float64)) ** 2).sum(axis=1))
    return float(np.quantile(distances, rate))


def select(samples: Samples, rule: SelectionRule) -> Samples:
    """The samples the rule keeps, order preserved, as columns copied out
    of the whole set. May be empty."""
    mask = _keep_mask(samples, rule)
    return Samples(samples.y[mask], samples.x[mask], samples.t[mask])


def cond_indep_bin_test_naive(
    samples: Samples,
    rule: SelectionRule,
    bin_width: float = 0.05,
    alpha: float = 0.01,
) -> BinIndependenceTest:
    """Reference bin test: every t-bin from the first to the last, each
    with its own boolean masks over all n samples."""
    if not bin_width > 0:
        raise ValidationError(f"bin_width must be > 0, got {bin_width}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    x, t = samples.x, samples.t
    mask = _keep_mask(samples, rule)
    # Anchor bins at the observed minimum rather than a multiple of the
    # width: a grid-aligned edge can coincide with a threshold rule's
    # cutoff, leaving no bin populated on both sides and the test vacuous.
    first_edge = float(t.min())
    n_bins = int(math.floor((t.max() - first_edge) / bin_width)) + 1
    bin_of = np.minimum(
        np.floor((t - first_edge) / bin_width).astype(np.int64), n_bins - 1
    )

    stats: list[float] = []
    bins_tested = 0
    for b in range(n_bins):
        in_bin = bin_of == b
        sel = in_bin & mask
        uns = in_bin & ~mask
        ns, nu = int(sel.sum()), int(uns.sum())
        if ns < MIN_PER_GROUP or nu < MIN_PER_GROUP:
            continue
        bins_tested += 1
        xs, xu = x[sel, 1:], x[uns, 1:]
        se = np.sqrt(xs.var(axis=0, ddof=1) / ns + xu.var(axis=0, ddof=1) / nu)
        z = np.abs(xs.mean(axis=0) - xu.mean(axis=0)) / se
        stats.extend(float(v) for v in z)

    if not stats:
        return BinIndependenceTest(
            max_stat=0.0, critical=math.inf, reject=False, n_bins_tested=0, n_comparisons=0
        )
    m = len(stats)
    critical = NormalDist().inv_cdf(1.0 - alpha / (2.0 * m))
    max_stat = max(stats)
    return BinIndependenceTest(
        max_stat=max_stat,
        critical=critical,
        reject=max_stat > critical,
        n_bins_tested=bins_tested,
        n_comparisons=m,
    )


# -- curator bookkeeping, as numpy computed it before the curator moved to
# the standard library --------------------------------------------------------


def _take(candidates: Candidates, rows: np.ndarray) -> Candidates:
    picks = rows.tolist()
    return Candidates(
        ids=[candidates.ids[i] for i in picks],
        wnids=[candidates.wnids[i] for i in picks],
        scores=np.array(candidates.scores, dtype=np.float64)[rows].tolist(),
    )


def threshold_sweep_numpy(candidates: Candidates, thresholds: list[float]) -> list[SweepPoint]:
    """Rows and distinct classes scoring >= each threshold, counted with
    np.sort and searchsorted(side="left")."""
    scores = np.sort(np.array(candidates.scores, dtype=np.float64))
    class_best: dict[str, float] = {}
    for wnid, score in zip(candidates.wnids, candidates.scores):
        best = class_best.get(wnid)
        if best is None or score > best:
            class_best[wnid] = score
    best_scores = np.sort(np.array(list(class_best.values()), dtype=np.float64))
    points = []
    for t in thresholds:
        n_rows = int(len(scores) - np.searchsorted(scores, t, side="left"))
        n_classes = int(len(best_scores) - np.searchsorted(best_scores, t, side="left"))
        points.append(SweepPoint(threshold=float(t), n_classes=n_classes, n_instances=n_rows))
    return points


def assemble_numpy(
    candidates: Candidates, threshold: float, flags: dict, options: AssembleOptions
) -> DatasetManifest:
    """`curator.assemble` with boolean masks: the threshold, then the
    multi-label rule by a bincount of kept labels per instance, then the
    flags, which `flags` maps each instance id to."""
    position = {rid: pos for pos, rid in enumerate(flags)}
    where = np.array([position[i] for i in candidates.ids], dtype=np.intp)
    scores = np.array(candidates.scores, dtype=np.float64)
    ledger = {"below_threshold": 0, "multi_label": 0, "nsfw": 0, "text_in_image": 0}

    keep = scores >= threshold
    ledger["below_threshold"] = int(len(keep) - np.count_nonzero(keep))

    labels = np.bincount(where[keep], minlength=len(flags))
    multi = np.flatnonzero(keep & (labels[where] > 1)).tolist()
    keep[multi] = False
    best: dict[int, tuple[tuple[float, str], int]] = {}
    if not options.drop_multi_label:
        for row in multi:
            rank = (-scores[row].item(), candidates.wnids[row])
            prior = best.get(where[row].item())
            if prior is None or rank < prior[0]:
                best[where[row].item()] = (rank, row)
        keep[[row for _, row in best.values()]] = True
    ledger["multi_label"] = len(multi) - len(best)

    if options.drop_nsfw:
        flagged = keep & np.array([nsfw for nsfw, _ in flags.values()], dtype=bool)[where]
        ledger["nsfw"] = int(np.count_nonzero(flagged))
        keep &= ~flagged
    if options.drop_text_in_image:
        text_in_image = np.array([flag is True for _, flag in flags.values()], dtype=bool)
        flagged = keep & text_in_image[where]
        ledger["text_in_image"] = int(np.count_nonzero(flagged))
        keep &= ~flagged
    return DatasetManifest(
        rows=_take(candidates, np.flatnonzero(keep)), threshold=float(threshold),
        drop_ledger=ledger,
    )


def top_k_per_class_numpy(manifest: DatasetManifest, k: int) -> DatasetManifest:
    """Each class's k best rows by (-score, id), marked in a boolean mask
    and kept in manifest order."""
    rows = manifest.rows
    scores = rows.scores
    order = sorted(range(len(rows)), key=lambda r: (rows.wnids[r], -scores[r], rows.ids[r]))
    keep = np.zeros(len(rows), dtype=bool)
    for _, ranked in groupby(order, key=rows.wnids.__getitem__):
        keep[list(islice(ranked, k))] = True
    return replace(manifest, rows=_take(rows, np.flatnonzero(keep)))
