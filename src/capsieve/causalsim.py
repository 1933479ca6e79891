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
matched acceptance rates (see `matched_ball_radius`), since selection
strength alone changes variances.

Samples are held as columns (`Samples`): one array each for y, x and t,
so selection is a boolean mask and every statistic reads the arrays
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ValidationError
from .seeding import stream

_GENERATION_BLOCK = 8192  # samples per independently-seeded block

# A bin is tested only when it holds this many selected and this many
# unselected samples; bottleneck_gap needs this many survivors per rule.
MIN_PER_GROUP = 30
MIN_SURVIVORS = 100

VALID_RULE_KINDS = ("text_threshold", "image_ball", "image_threshold")


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
    """n samples as columns: class labels y (n,) int64, images x (n, x_dim)
    float64 and texts t (n,) float64; row i of each is sample i."""

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

    Image rules may additionally read the text: set `text_threshold_also`
    to AND in a t > tau condition (off by default).
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
            if self.radius is None or self.radius < 0:
                raise ValidationError("image_ball rule needs a radius >= 0")
            if self.prototype is None:
                raise ValidationError("image_ball rule needs a prototype vector")
        if self.kind == "text_threshold" and (
            self.radius is not None or self.prototype is not None or self.text_threshold_also is not None
        ):
            raise ValidationError("text_threshold rule reads only t")

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
    counter-derived stream keyed by the block index.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    means = class_means(config)
    y = np.empty(n, dtype=np.int64)
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


def _ball_distances(x: np.ndarray, prototype) -> np.ndarray:
    """Euclidean distance of each image to an image_ball prototype."""
    proto = np.asarray(prototype, dtype=np.float64)
    if proto.shape != (x.shape[1],):
        raise ValidationError(f"prototype shape {proto.shape} does not match x_dim {x.shape[1]}")
    return np.sqrt(((x - proto) ** 2).sum(axis=1))


def _keep_mask(samples: Samples, rule: SelectionRule) -> np.ndarray:
    if rule.kind == "text_threshold":
        mask = samples.t > rule.threshold
    elif rule.kind == "image_ball":
        mask = _ball_distances(samples.x, rule.prototype) < rule.radius
    else:  # image_threshold
        mask = samples.x.mean(axis=1) > rule.threshold
    if rule.text_threshold_also is not None:
        mask = mask & (samples.t > rule.text_threshold_also)
    return mask


def select(samples: Samples, rule: SelectionRule) -> Samples:
    """Samples passing the rule, order preserved. May be empty."""
    mask = _keep_mask(samples, rule)
    return Samples(samples.y[mask], samples.x[mask], samples.t[mask])


def matched_ball_radius(samples: Samples, prototype, rate: float) -> float:
    """Radius giving an image_ball rule approximately the target acceptance
    rate on these samples (the empirical distance quantile)."""
    if not 0.0 < rate < 1.0:
        raise ValidationError(f"rate must be in (0, 1), got {rate}")
    return float(np.quantile(_ball_distances(samples.x, prototype), rate))


@dataclass(frozen=True)
class BinIndependenceTest:
    """Mean-discrepancy test between selected and unselected images within
    narrow t-bins, restricted to the non-text dimensions (1..).

    `max_stat` is the largest |Welch z| over all tested (bin, dimension)
    pairs; `critical` is the two-sided normal quantile at alpha Bonferroni-
    corrected across those comparisons. With no bin populated on both
    sides, the test is vacuous: zero statistic, no rejection.
    """

    max_stat: float
    critical: float
    reject: bool
    n_bins_tested: int
    n_comparisons: int


def cond_indep_bin_test(
    samples: Samples,
    rule: SelectionRule,
    bin_width: float = 0.05,
    alpha: float = 0.01,
) -> BinIndependenceTest:
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


def _per_class_dim_variance(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-dimension sample variance within each class, averaged over the
    classes with at least two members."""
    per_class = []
    for c in np.unique(y):
        xc = x[y == c]
        if xc.shape[0] >= 2:
            per_class.append(xc.var(axis=0, ddof=1))
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

    def as_dict(self) -> dict:
        return {
            "baseline_var": [float(v) for v in self.baseline_var],
            "per_dim_var_text": [float(v) for v in self.per_dim_var_text],
            "per_dim_var_image": [float(v) for v in self.per_dim_var_image],
            "acceptance_text": self.acceptance_text,
            "acceptance_image": self.acceptance_image,
            "cond_indep_stat": self.cond_indep_stat,
            "bin_test_text": vars(self.bin_test_text),
            "bin_test_image": vars(self.bin_test_image),
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
    spread does not masquerade as within-class diversity.
    """
    if text_rule.reads_image:
        raise ValidationError(f"text rule must be text_threshold, got {text_rule.kind!r}")
    if not image_rule.reads_image:
        raise ValidationError("image rule must read the image")
    text_selected = select(samples, text_rule)
    image_selected = select(samples, image_rule)
    for name, subset in (("text", text_selected), ("image", image_selected)):
        if len(subset) < MIN_SURVIVORS:
            raise ValidationError(
                f"{name} rule kept {len(subset)} samples; need >= {MIN_SURVIVORS}"
            )
    test_text = cond_indep_bin_test(samples, text_rule, bin_width, alpha)
    test_image = cond_indep_bin_test(samples, image_rule, bin_width, alpha)
    return BottleneckReport(
        baseline_var=_per_class_dim_variance(samples.y, samples.x),
        per_dim_var_text=_per_class_dim_variance(text_selected.y, text_selected.x),
        per_dim_var_image=_per_class_dim_variance(image_selected.y, image_selected.x),
        acceptance_text=len(text_selected) / len(samples),
        acceptance_image=len(image_selected) / len(samples),
        cond_indep_stat=test_text.max_stat,
        bin_test_text=test_text,
        bin_test_image=test_image,
    )
