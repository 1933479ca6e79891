"""Synthetic generator demonstrating why text-only selection preserves
image diversity while image-aware selection does not.

The generative family is the smallest one in which "the text carries less
information than the image" is literally a dimensionality statement:

    y  ~ uniform over classes
    x  ~ Normal(mu_y, I) in x_dim dimensions, class means on a scaled
         coordinate simplex (pairwise distance `class_sep`)
    t  =  x[0] + Normal(0, text_noise_sd)

The text t reads only dimension 0 of the image, so a selection rule that
reads only t is conditionally independent of the image given the text by
construction: dimensions 1.. are untouched no matter how aggressive the
threshold. An image-aware rule (a ball around a prototype, or a threshold
on the image mean) cuts directly through every dimension.

`bottleneck_gap` quantifies both effects: per-dimension within-class
variance of the selected sets against the unselected baseline, and a
two-sample check that, inside narrow t-bins, selected and unselected
images have the same mean on the non-text dimensions. Text rules pass that
check; image rules fail it. Comparisons between rules should be made at
matched acceptance rates (an image_ball radius of None is matched), since
selection strength alone changes variances.

Samples are held as columns (`Samples`): one array each for y, x and t,
so selection is a boolean mask and every statistic reads the arrays
directly. `bottleneck_gap` builds each rule's mask once, for a matched
radius, the selected set and the bin test alike. The bin test visits
occupied t-bins only: one stable sort groups the samples by bin, the two
rules share that grouping, and a bin's selected and unselected rows are
read in ascending order, so the work is bounded by n however narrow the bins.

Memory is bounded by design, and each column is held at the size its
values need. A `simulate` run holds x and t (float64), y (the narrowest
unsigned type that holds n_classes - 1: one byte a sample up to 256
classes) and the two rules' keep masks (one byte a sample). Besides them
it holds, one phase at a time: a matched ball's distances and the copy
its radius is partitioned from (8 bytes a sample each); the t-bin keys
(2 bytes a sample on the README config) while their stable order is
sorted (8 bytes a sample, plus numpy's sort buffer), and that order
alone during the bin tests; and the row indices of one class. Every
statistic reads x in row blocks of about 1 MiB (`_rows_mean_var`),
bitwise equal to numpy's mean and variance of the gathered rows, so
nothing else of size n x x_dim is ever made: no class, bin or
selected-set copy. On the README config at n = 2M (x_dim 8) the peak RSS
of `simulate` is 214 MiB; with int64 labels, float64 bin keys and a
second distance pass for the matched ball it was 239 MiB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .errors import ValidationError
from .seeding import linear_quantiles, stream

_GENERATION_BLOCK = 8192  # samples per independently-seeded block
# Values per row block of a temporary read from x: 1 MiB of float64.
_BLOCK_VALUES = 1 << 17
# The t-bin key types, narrowest first; a key past int64 stays float64.
_KEY_TYPES = (np.int8, np.int16, np.int32, np.int64)

# A bin is tested only when it holds this many selected and this many
# unselected samples; bottleneck_gap needs this many survivors per rule.
MIN_PER_GROUP = 30
MIN_SURVIVORS = 100

# Each rule kind, with the fields it does not read and so refuses.
_UNREAD_FIELDS = {"text_threshold": ("radius", "prototype", "text_threshold_also"),
                  "image_ball": ("threshold",), "image_threshold": ("radius", "prototype")}
VALID_RULE_KINDS = tuple(_UNREAD_FIELDS)


@dataclass(frozen=True)
class GenConfig:
    n_classes: int
    x_dim: int
    text_noise_sd: float
    class_sep: float
    seed: int

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValidationError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.x_dim < 2:
            raise ValidationError(f"x_dim must be >= 2, got {self.x_dim}")
        if self.n_classes > self.x_dim:
            raise ValidationError(
                f"coordinate simplex needs n_classes <= x_dim ({self.n_classes} > {self.x_dim})"
            )
        if not (math.isfinite(self.text_noise_sd) and self.text_noise_sd >= 0):
            raise ValidationError("text_noise_sd must be finite and >= 0")
        if not (math.isfinite(self.class_sep) and self.class_sep >= 0):
            raise ValidationError("class_sep must be finite and >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Samples:
    """n samples as columns: class labels y (n,), in the narrowest unsigned
    integer type that holds the largest label (uint8 up to 256 classes),
    images x (n, x_dim) float64 and texts t (n,) float64; row i of each is
    sample i."""

    y: np.ndarray
    x: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class SelectionRule:
    """A selection mechanism over generated samples.

    kinds:
      text_threshold   keep t > threshold            (reads only the text)
      image_ball       keep |x - prototype| < radius (reads the image)
      image_threshold  keep mean(x) > threshold      (reads the image)

    An image_ball radius of None is matched to the text rule by
    `bottleneck_gap`. Image rules may additionally read the text: set
    `text_threshold_also` to AND in a t > tau condition (off by default).
    """

    kind: str
    threshold: float | None = None
    radius: float | None = None
    prototype: tuple[float, ...] | None = None
    text_threshold_also: float | None = None

    def __post_init__(self):
        if self.kind not in VALID_RULE_KINDS:
            raise ValidationError(f"unknown rule kind {self.kind!r}; expected {VALID_RULE_KINDS}")
        if self.kind in ("text_threshold", "image_threshold") and self.threshold is None:
            raise ValidationError(f"{self.kind} rule needs a threshold")
        if self.kind == "image_ball":
            if self.radius is not None and self.radius < 0:
                raise ValidationError("image_ball rule needs a radius >= 0")
            if self.prototype is None:
                raise ValidationError("image_ball rule needs a prototype vector")
        unread = ", ".join(f for f in _UNREAD_FIELDS[self.kind] if getattr(self, f) is not None)
        if unread:
            what = "reads only t" if self.kind == "text_threshold" else f"does not read {unread}"
            raise ValidationError(f"{self.kind} rule {what}")

    @property
    def reads_image(self) -> bool:
        return self.kind != "text_threshold"


def class_means(config: GenConfig) -> np.ndarray:
    """Class means on the coordinate simplex, pairwise `class_sep` apart."""
    means = np.zeros((config.n_classes, config.x_dim))
    scale = config.class_sep / math.sqrt(2.0)
    for c in range(config.n_classes):
        means[c, c] = scale
    return means


def generate(config: GenConfig, n: int) -> Samples:
    """Draw n samples; bitwise deterministic for a given config.

    Samples are generated in fixed-size blocks, each filled from its own
    counter-derived stream keyed by the block index. Labels are drawn as
    int64 and stored as `np.min_scalar_type(n_classes - 1)`: uint8 up to
    256 classes, uint16 up to 65 536. Raises ValidationError when a text
    overflows float64, as a `text_noise_sd` near the largest float makes it.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    means = class_means(config)
    y = np.empty(n, dtype=np.min_scalar_type(config.n_classes - 1))
    x = np.empty((n, config.x_dim))
    t = np.empty(n)
    for block_idx, start in enumerate(range(0, n, _GENERATION_BLOCK)):
        rows = slice(start, min(start + _GENERATION_BLOCK, n))
        m = rows.stop - start
        rng = stream(config.seed, block_idx)
        y[rows] = rng.integers(0, config.n_classes, size=m)
        rng.standard_normal(out=x[rows])
        x[rows] += means[y[rows]]
        try:
            with np.errstate(over="raise"):
                t[rows] = x[rows, 0] + config.text_noise_sd * rng.standard_normal(m)
        except FloatingPointError:
            raise ValidationError(
                f"the text t overflows float64 with text_noise_sd {config.text_noise_sd}"
            ) from None
    return Samples(y, x, t)


def _ball_distances(x: np.ndarray, prototype) -> np.ndarray:
    """Euclidean distance of each image to an image_ball prototype, in row
    blocks: each row's distance is the one the whole-array expression
    sqrt(((x - proto) ** 2).sum(axis=1)) gives, with no n x d temporary.
    Raises ValidationError when a squared distance overflows float64."""
    proto = np.asarray(prototype, dtype=np.float64)
    if proto.shape != (x.shape[1],):
        raise ValidationError(f"prototype shape {proto.shape} does not match x_dim {x.shape[1]}")
    out = np.empty(x.shape[0])
    step = max(1, _BLOCK_VALUES // x.shape[1])
    try:
        with np.errstate(over="raise"):
            for lo in range(0, x.shape[0], step):
                d = x[lo : lo + step] - proto
                d *= d
                np.sqrt(d.sum(axis=1), out=out[lo : lo + step])
                del d  # freed before the next block is made
    except FloatingPointError:
        raise ValidationError("the image_ball distances overflow float64") from None
    return out


def _keep_mask(samples: Samples, rule: SelectionRule, distances=None) -> np.ndarray:
    """The keep mask of `rule`; an image_ball rule compares `distances`,
    its `_ball_distances` if already computed, to its radius."""
    if rule.kind == "text_threshold":
        mask = samples.t > rule.threshold
    elif rule.kind == "image_ball":
        if distances is None:
            distances = _ball_distances(samples.x, rule.prototype)
        mask = distances < rule.radius
    else:  # image_threshold
        mask = samples.x.mean(axis=1) > rule.threshold
    if rule.text_threshold_also is not None:
        mask = mask & (samples.t > rule.text_threshold_also)
    return mask


@dataclass(frozen=True)
class BinIndependenceTest:
    """Mean-discrepancy test between selected and unselected images within
    narrow t-bins, restricted to the non-text dimensions (1..).

    `max_stat` is the largest |Welch z| over all tested (bin, dimension)
    pairs; `critical` is the two-sided normal quantile at alpha Bonferroni-
    corrected across those comparisons. With no bin populated on both
    sides, the test is vacuous: zero statistic, an infinite `critical`
    and no rejection.
    """

    max_stat: float
    critical: float
    reject: bool
    n_bins_tested: int
    n_comparisons: int

    def as_dict(self) -> dict:
        """The fields as JSON values: a vacuous test's infinite `critical`,
        which JSON cannot hold, as None."""
        return {**vars(self), "critical": self.critical if self.n_comparisons else None}


def _rows_mean_var(x: np.ndarray, rows: np.ndarray, cols: slice) -> tuple[np.ndarray, np.ndarray]:
    """x[rows, cols].mean(axis=0) and .var(axis=0, ddof=1), bitwise, from
    two passes over row blocks of about `_BLOCK_VALUES` values.

    numpy sums axis 0 of a C-ordered array of two or more columns row by
    row, so a block's sum carries on the total so far when that total is
    added to the block's first row. A single column it sums pairwise
    instead, so that column is gathered whole: it is no larger than `rows`.
    Raises ValidationError when either overflows float64.
    """
    n = len(rows)
    width = len(range(x.shape[1])[cols])
    step = n if width == 1 else max(1, _BLOCK_VALUES // width)

    def column_sums(center=None):
        total = None
        for lo in range(0, n, step):
            part = x[rows[lo : lo + step], cols]
            if center is not None:
                part -= center
                part *= part
            if total is not None:
                part[0] += total
            total = np.add.reduce(part, axis=0)
            del part  # freed before the next block is gathered
        return total

    try:
        with np.errstate(over="raise"):
            mean = column_sums() / np.intp(n)  # the divisors np.mean and np.var use
            return mean, column_sums(mean) / np.intp(n - 1)
    except FloatingPointError:
        raise ValidationError("a mean or variance of the images overflows float64") from None


def _t_bins(t: np.ndarray, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """The samples grouped by t-bin: `order` lists the sample indices by bin,
    ascending within each bin, and bin k holds order[bounds[k]:bounds[k + 1]].
    Only occupied bins appear, so the work is bounded by n whatever the width.

    Bins are anchored at the observed minimum rather than a multiple of the
    width: a grid-aligned edge can coincide with a threshold rule's cutoff,
    leaving no bin populated on both sides and the test vacuous.

    A sample's key, floor((t - t.min()) / bin_width), is computed as a
    float and stored, in row blocks, in the narrowest signed integer type
    that holds the largest key (float64 once that passes int64): int16 on
    the README config, whose stable argsort is a radix sort. Each step is
    monotone, so the largest key is that of t.max(). The bin bounds are
    read from the keys in `order`, a block at a time, so no sorted copy of
    the keys is made.
    """
    low = t.min()
    try:
        with np.errstate(over="raise"):
            top = float(np.floor((t.max() - low) / bin_width))
    except FloatingPointError:
        low, high = float(low), float(t.max())
        by = "itself" if math.isinf(high - low) else f"over bin_width {bin_width}"
        raise ValidationError(f"t's range, {low:g} to {high:g}, {by} overflows float64") from None
    dtype = next((d for d in _KEY_TYPES if top <= np.iinfo(d).max), np.float64)
    keys = np.empty(len(t), dtype)
    for lo in range(0, len(t), _BLOCK_VALUES):
        block = t[lo : lo + _BLOCK_VALUES] - low
        block /= bin_width
        keys[lo : lo + _BLOCK_VALUES] = np.floor(block, out=block)
        del block  # freed before the next block is made
    order = np.argsort(keys, kind="stable")
    starts = [[0]]  # a bin starts where the key changes along `order`
    for lo in range(0, len(t) - 1, _BLOCK_VALUES):
        ordered = keys[order[lo : lo + _BLOCK_VALUES + 1]]  # overlaps the next block by one
        starts.append(np.flatnonzero(ordered[1:] != ordered[:-1]) + (lo + 1))
    return order, np.concatenate((*starts, [len(t)]))


def _bin_test(
    x: np.ndarray, mask: np.ndarray, bins: tuple[np.ndarray, np.ndarray], alpha: float
) -> BinIndependenceTest:
    """The bin test of the rule whose keep mask is `mask`, over the bins
    of `_t_bins`."""
    order, bounds = bins
    # each bin's selected count, from the positions along `order` of the
    # selected samples alone: no n-length count array
    n_sel = np.diff(np.searchsorted(np.flatnonzero(mask[order]), bounds))
    n_uns = np.diff(bounds) - n_sel
    tested = np.flatnonzero((n_sel >= MIN_PER_GROUP) & (n_uns >= MIN_PER_GROUP))

    stats: list[float] = []
    for b in tested:
        rows = order[bounds[b] : bounds[b + 1]]
        in_mask = mask[rows]
        sel, uns = rows[in_mask], rows[~in_mask]
        mean_s, var_s = _rows_mean_var(x, sel, slice(1, None))
        mean_u, var_u = _rows_mean_var(x, uns, slice(1, None))
        se = np.sqrt(var_s / len(sel) + var_u / len(uns))
        z = np.abs(mean_s - mean_u) / se
        stats.extend(z.tolist())

    if not stats:
        return BinIndependenceTest(
            max_stat=0.0, critical=math.inf, reject=False, n_bins_tested=0, n_comparisons=0
        )
    m = len(stats)
    if 1.0 - alpha / (2.0 * m) == 1.0:  # inv_cdf is undefined at 1
        raise ValidationError(
            f"alpha {alpha} is too small for {m} comparisons: 1 - alpha / (2 * {m}) "
            "rounds to 1, so the test has no critical value"
        )
    critical = NormalDist().inv_cdf(1.0 - alpha / (2.0 * m))
    max_stat = max(stats)
    return BinIndependenceTest(
        max_stat=max_stat,
        critical=critical,
        reject=max_stat > critical,
        n_bins_tested=len(tested),
        n_comparisons=m,
    )


def _per_class_dim_variance(y: np.ndarray, x: np.ndarray, mask=None) -> np.ndarray:
    """Per-dimension sample variance within each class, averaged over the
    classes with at least two members; with a keep `mask`, over the kept
    samples only. The labels are counted, and each class's rows read, in
    row blocks, in sample order, so no n-length integer copy of the labels
    and no copy of a class's images is made."""
    counts = np.zeros(int(y.max()) + 1, dtype=np.intp)
    for lo in range(0, len(y), _BLOCK_VALUES):
        block = y[lo : lo + _BLOCK_VALUES]
        if mask is not None:
            block = block[mask[lo : lo + _BLOCK_VALUES]]
        counts += np.bincount(block, minlength=len(counts))
    per_class = []
    for c in np.flatnonzero(counts >= 2).tolist():
        rows = np.flatnonzero(y == c if mask is None else mask & (y == c))
        per_class.append(_rows_mean_var(x, rows, slice(None))[1])
    if not per_class:
        raise ValidationError("no class has enough members for a variance estimate")
    return np.mean(per_class, axis=0)


@dataclass(frozen=True)
class BottleneckReport:
    """Selected-set variance per dimension under each rule, the population
    baseline, and the conditional-independence bin tests."""

    baseline_var: np.ndarray
    per_dim_var_text: np.ndarray
    per_dim_var_image: np.ndarray
    acceptance_text: float
    acceptance_image: float
    cond_indep_stat: float  # text-rule statistic: the bottleneck claim
    bin_test_text: BinIndependenceTest
    bin_test_image: BinIndependenceTest
    image_rule: SelectionRule  # as applied, its radius matched; as_dict writes the radius

    def as_dict(self) -> dict:
        return {
            "image_radius": self.image_rule.radius,
            "baseline_var": [float(v) for v in self.baseline_var],
            "per_dim_var_text": [float(v) for v in self.per_dim_var_text],
            "per_dim_var_image": [float(v) for v in self.per_dim_var_image],
            "acceptance_text": self.acceptance_text,
            "acceptance_image": self.acceptance_image,
            "cond_indep_stat": self.cond_indep_stat,
            "bin_test_text": self.bin_test_text.as_dict(),
            "bin_test_image": self.bin_test_image.as_dict(),
        }


def bottleneck_gap(
    samples: Samples,
    text_rule: SelectionRule,
    image_rule: SelectionRule,
    bin_width: float = 0.05,
    alpha: float = 0.01,
) -> BottleneckReport:
    """Measure how each selection distorts the within-class image
    distribution. Variances are per class, then averaged, so class-mean
    spread does not masquerade as within-class diversity. An image_ball
    rule with radius None gets the radius at which it keeps as many
    samples as the text rule, which must keep some but not all.
    """
    if text_rule.reads_image:
        raise ValidationError(f"text rule must be text_threshold, got {text_rule.kind!r}")
    if not image_rule.reads_image:
        raise ValidationError("image rule must read the image")
    text_mask = _keep_mask(samples, text_rule)
    distances = None
    if image_rule.kind == "image_ball" and image_rule.radius is None:
        kept, n = int(np.count_nonzero(text_mask)), len(samples)
        if kept in (0, n):
            raise ValidationError(f"text rule kept {kept} of {n} samples; "
                                  '"radius": "match" needs it to keep some but not all')
        # one distance pass: the radius from a partitioned copy, the mask from the distances
        distances = _ball_distances(samples.x, image_rule.prototype)
        image_rule = replace(image_rule, radius=linear_quantiles(distances, (kept / n,))[0])
    image_mask = _keep_mask(samples, image_rule, distances)
    del distances  # freed before the bin tests
    for name, mask in (("text", text_mask), ("image", image_mask)):
        kept = int(mask.sum())
        if kept < MIN_SURVIVORS:
            raise ValidationError(f"{name} rule kept {kept} samples; need >= {MIN_SURVIVORS}")
    if not bin_width > 0:
        raise ValidationError(f"bin_width must be > 0, got {bin_width}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    bins = _t_bins(samples.t, bin_width)
    test_text = _bin_test(samples.x, text_mask, bins, alpha)
    test_image = _bin_test(samples.x, image_mask, bins, alpha)
    del bins  # n indices the variance passes below do not read; they set the peak
    return BottleneckReport(
        baseline_var=_per_class_dim_variance(samples.y, samples.x),
        per_dim_var_text=_per_class_dim_variance(samples.y, samples.x, text_mask),
        per_dim_var_image=_per_class_dim_variance(samples.y, samples.x, image_mask),
        acceptance_text=int(text_mask.sum()) / len(samples),
        acceptance_image=int(image_mask.sum()) / len(samples),
        cond_indep_stat=test_text.max_stat,
        bin_test_text=test_text,
        bin_test_image=test_image,
        image_rule=image_rule,
    )
