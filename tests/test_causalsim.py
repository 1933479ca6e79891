from __future__ import annotations

import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsieve import causalsim
from capsieve.causalsim import (
    _BLOCK_VALUES,
    _GENERATION_BLOCK,
    GenConfig,
    VALID_RULE_KINDS,
    SelectionRule,
    _ball_distances,
    _bin_test,
    _keep_mask,
    _per_class_dim_variance,
    _rows_mean_var,
    _t_bins,
    bottleneck_gap,
    class_means,
    generate,
)
from capsieve.errors import ValidationError
from capsieve.seeding import stream

from oracles import (
    class_dim_variance_gather,
    cond_indep_bin_test_naive,
    generate_naive,
    matched_ball_radius,
    select,
    t_bins_float_keys,
)


def config(**kw):
    base = dict(n_classes=2, x_dim=4, text_noise_sd=0.5, class_sep=1.0, seed=11)
    base.update(kw)
    return GenConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        config(x_dim=1)
    with pytest.raises(ValidationError):
        config(n_classes=0)
    with pytest.raises(ValidationError):
        config(n_classes=9, x_dim=4)
    with pytest.raises(ValidationError):
        config(text_noise_sd=-0.1)
    with pytest.raises(ValidationError):
        config(class_sep=float("inf"))
    with pytest.raises(ValidationError):
        config(seed=-1)


def test_class_means_pairwise_distance():
    means = class_means(config(n_classes=3, x_dim=5, class_sep=2.5))
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(2.5, abs=1e-12)


def test_noiseless_text_channel_is_dim0():
    samples = generate(config(text_noise_sd=0.0), 5000)
    assert samples.t.tobytes() == samples.x[:, 0].tobytes()


def test_columns_span_generation_blocks():
    n = 2 * 8192 + 5  # two full generation blocks and a partial third
    samples = generate(config(x_dim=5, text_noise_sd=0.0), n)
    assert len(samples) == n
    assert samples.y.shape == (n,) and samples.y.dtype == np.uint8
    assert samples.x.shape == (n, 5) and samples.x.dtype == np.float64
    assert samples.t.shape == (n,) and samples.t.dtype == np.float64
    assert samples.t.tobytes() == samples.x[:, 0].tobytes()
    rule = SelectionRule(kind="image_threshold", threshold=0.1, text_threshold_also=-0.5)
    mask = (samples.x.mean(axis=1) > 0.1) & (samples.t > -0.5)
    kept = select(samples, rule)
    assert kept.y.tobytes() == samples.y[mask].tobytes()
    assert kept.x.tobytes() == samples.x[mask].tobytes()
    assert kept.t.tobytes() == samples.t[mask].tobytes()


@pytest.mark.parametrize("n_classes, x_dim, dtype", [(2, 4, np.uint8), (300, 300, np.uint16)])
def test_labels_are_the_int64_draw_in_the_narrowest_unsigned_type(n_classes, x_dim, dtype):
    n = _GENERATION_BLOCK + 5  # a full generation block and a partial second
    samples = generate(config(n_classes=n_classes, x_dim=x_dim), n)
    assert samples.y.dtype == dtype
    draw = np.concatenate([stream(11, 0).integers(0, n_classes, size=_GENERATION_BLOCK),
                           stream(11, 1).integers(0, n_classes, size=5)])
    assert draw.dtype == np.int64
    assert np.array_equal(samples.y, draw)


def test_prototype_must_match_x_dim():
    samples = generate(config(), 1000)
    short = (0.0, 0.0)
    with pytest.raises(ValidationError, match="x_dim"):
        select(samples, SelectionRule(kind="image_ball", radius=1.0, prototype=short))
    text_rule = SelectionRule(kind="text_threshold", threshold=0.0)
    with pytest.raises(ValidationError, match="x_dim"):  # a matched ball
        bottleneck_gap(samples, text_rule, SelectionRule(kind="image_ball", prototype=short))


def test_generate_refuses_a_sample_count_below_one():
    with pytest.raises(ValidationError, match=r"^n must be >= 1, got 0$"):
        generate(config(), 0)


def bin_test(samples, rule, bin_width=0.05, alpha=0.01):
    """The bin test of `rule` as `bottleneck_gap` runs it."""
    return _bin_test(samples.x, _keep_mask(samples, rule), _t_bins(samples.t, bin_width), alpha)


def test_bin_test_parameter_validation():
    samples = generate(config(), 1000)
    text_rule = SelectionRule(kind="text_threshold", threshold=0.0)
    image_rule = SelectionRule(kind="image_threshold", threshold=0.0)
    # both rules keep MIN_SURVIVORS samples, so the bin parameters are checked
    bottleneck_gap(samples, text_rule, image_rule)
    cases = [({"bin_width": 0.0}, "bin_width"), ({"bin_width": math.nan}, "bin_width"),
             ({"alpha": 0.0}, "alpha"), ({"alpha": 1.0}, "alpha"),
             ({"bin_width": 5e-324}, "over bin_width 5e-324 overflows")]
    for kwargs, message in cases:
        with pytest.raises(ValidationError, match=message):
            bottleneck_gap(samples, text_rule, image_rule, **kwargs)


def test_generation_deterministic_bitwise():
    cfg = config()
    a = generate(cfg, 20000)  # spans multiple generation blocks
    b = generate(cfg, 20000)
    assert (a.y == b.y).all()
    assert a.x.tobytes() == b.x.tobytes()
    assert a.t.tobytes() == b.t.tobytes()
    different = generate(config(seed=12), 20000)
    assert different.x.tobytes() != a.x.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    # n on both sides of one 8192-sample generation block
    n=st.one_of(st.integers(1, 8192), st.integers(8193, 20_000)),
    x_dim=st.integers(2, 64),
    n_classes=st.integers(1, 2),
    text_noise_sd=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**16),
)
def test_generation_in_place_equals_the_per_block_copy(n, x_dim, n_classes, text_noise_sd, seed):
    cfg = config(n_classes=n_classes, x_dim=x_dim, text_noise_sd=text_noise_sd, seed=seed)
    got, expected = generate(cfg, n), generate_naive(cfg, n)
    assert got.y.tobytes() == expected.y.tobytes()
    assert got.x.tobytes() == expected.x.tobytes()
    assert got.t.tobytes() == expected.t.tobytes()


def test_zero_separation_classes_indistinguishable():
    samples = generate(config(n_classes=2, class_sep=0.0, seed=3), 60000)
    y, x = samples.y, samples.x
    mean0 = x[y == 0].mean(axis=0)
    mean1 = x[y == 1].mean(axis=0)
    n0 = (y == 0).sum()
    # identical distributions: means agree within a few standard errors
    assert np.abs(mean0 - mean1).max() < 4.0 / math.sqrt(n0)


def test_sample_mean_near_class_mean():
    cfg = config(n_classes=3, x_dim=6, class_sep=3.0, seed=8)
    samples = generate(cfg, 100_000)
    y, x = samples.y, samples.x
    means = class_means(cfg)
    for c in range(3):
        xc = x[y == c]
        tolerance = 3.0 / math.sqrt(xc.shape[0])
        assert np.abs(xc.mean(axis=0) - means[c]).max() < tolerance


def test_select_low_threshold_keeps_all():
    samples = generate(config(), 2000)
    kept = select(samples, SelectionRule(kind="text_threshold", threshold=-1e9))
    assert np.array_equal(kept.y, samples.y)
    assert np.array_equal(kept.x, samples.x)
    assert np.array_equal(kept.t, samples.t)


def test_select_zero_radius_keeps_none():
    samples = generate(config(), 2000)
    rule = SelectionRule(kind="image_ball", radius=0.0, prototype=(0.0, 0.0, 0.0, 0.0))
    kept = select(samples, rule)
    assert len(kept) == 0
    assert kept.x.shape == (0, 4)


def test_select_preserves_order():
    samples = generate(config(), 2000)
    kept = select(samples, SelectionRule(kind="text_threshold", threshold=0.0))
    assert kept.t.tobytes() == samples.t[samples.t > 0.0].tobytes()


def test_gaussian_tail_acceptance_rate():
    # class_sep 0 and no noise: t is standard normal, so P(t > 1) = 0.1587
    cfg = GenConfig(n_classes=1, x_dim=4, text_noise_sd=0.0, class_sep=0.0, seed=5)
    samples = generate(cfg, 100_000)
    kept = select(samples, SelectionRule(kind="text_threshold", threshold=1.0))
    rate = len(kept) / len(samples)
    assert rate == pytest.approx(0.15866, abs=0.01)


def test_rule_validation():
    with pytest.raises(ValidationError):
        SelectionRule(kind="nope", threshold=0.0)
    with pytest.raises(ValidationError):
        SelectionRule(kind="text_threshold")
    with pytest.raises(ValidationError):
        SelectionRule(kind="image_ball", radius=1.0)  # no prototype
    with pytest.raises(ValidationError):
        SelectionRule(kind="image_ball", radius=-1.0, prototype=(0.0,))
    with pytest.raises(ValidationError):
        SelectionRule(kind="text_threshold", threshold=0.0, radius=1.0)


@pytest.mark.parametrize("kind, fields, message", [
    ("text_threshold", {"threshold": 0.0, "prototype": (0.0, 0.0)},
     "text_threshold rule reads only t"),
    ("text_threshold", {"threshold": 0.0, "text_threshold_also": 0.5},
     "text_threshold rule reads only t"),
    ("image_threshold", {"threshold": 0.0, "radius": 1.0},
     "image_threshold rule does not read radius"),
    ("image_threshold", {"threshold": 0.0, "prototype": (0.0, 0.0)},
     "image_threshold rule does not read prototype"),
    ("image_threshold", {"threshold": 0.0, "radius": 1.0, "prototype": (0.0, 0.0)},
     "image_threshold rule does not read radius, prototype"),
    ("image_ball", {"threshold": 0.0, "radius": 1.0, "prototype": (0.0, 0.0)},
     "image_ball rule does not read threshold"),
    ("image_ball", {"threshold": 0.0, "prototype": (0.0, 0.0)},  # a matched ball too
     "image_ball rule does not read threshold"),
])
def test_a_rule_refuses_a_field_its_kind_does_not_read(kind, fields, message):
    with pytest.raises(ValidationError) as caught:
        SelectionRule(kind=kind, **fields)
    assert str(caught.value) == message


def test_image_rule_may_also_read_text():
    samples = generate(config(), 5000)
    plain = SelectionRule(kind="image_threshold", threshold=0.0)
    with_text = SelectionRule(kind="image_threshold", threshold=0.0, text_threshold_also=0.5)
    kept_plain = select(samples, plain)
    kept_both = select(samples, with_text)
    assert len(kept_both) < len(kept_plain)
    assert (kept_both.t > 0.5).all()


def test_matched_ball_radius_hits_target_rate():
    cfg = GenConfig(n_classes=1, x_dim=6, text_noise_sd=0.2, class_sep=0.0, seed=17)
    samples = generate(cfg, 50_000)
    text_rule = SelectionRule(kind="text_threshold", threshold=0.6745)  # keeps about 0.25
    ball = SelectionRule(kind="image_ball", prototype=(0.0,) * 6)
    report = bottleneck_gap(samples, text_rule, ball)
    assert report.acceptance_image == pytest.approx(report.acceptance_text, abs=0.001)
    rule = report.image_rule
    assert len(select(samples, rule)) / len(samples) == report.acceptance_image
    assert rule.radius == matched_ball_radius(samples, rule.prototype, report.acceptance_text)


@pytest.mark.parametrize("text_also", [None, 0.2])
def test_a_ball_with_no_radius_gets_the_report_of_its_matched_radius(monkeypatch, text_also):
    samples = generate(config(n_classes=3, x_dim=5, seed=5), 20_000)
    text_rule = SelectionRule(kind="text_threshold", threshold=0.4)
    prototype = (1.0, 0.0, 0.0, 0.0, 0.0)
    matched = SelectionRule(kind="image_ball", prototype=prototype, text_threshold_also=text_also)
    kept = int(np.count_nonzero(samples.t > 0.4))
    radius = matched_ball_radius(samples, prototype, kept / len(samples))
    explicit = SelectionRule(kind="image_ball", radius=radius, prototype=prototype,
                             text_threshold_also=text_also)
    expected = bottleneck_gap(samples, text_rule, explicit)
    passes = []
    monkeypatch.setattr(causalsim, "_ball_distances",
                        lambda x, proto: passes.append(proto) or _ball_distances(x, proto))
    report = bottleneck_gap(samples, text_rule, matched)
    assert passes == [prototype]  # the radius and the mask read one distance pass
    assert report.image_rule == explicit
    assert report.acceptance_text == len(select(samples, text_rule)) / len(samples)
    assert report.acceptance_image == len(select(samples, explicit)) / len(samples)
    for field in vars(expected):
        a, b = getattr(report, field), getattr(expected, field)
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), field
        else:
            assert a == b, field


@pytest.mark.parametrize("threshold, kept", [(1e308, 0), (-1e308, 4000)])
def test_a_matched_ball_refuses_a_text_rule_that_keeps_none_or_all(threshold, kept):
    samples = generate(config(), 4000)
    text_rule = SelectionRule(kind="text_threshold", threshold=threshold)
    ball = SelectionRule(kind="image_ball", prototype=(0.0,) * 4)
    message = f'^text rule kept {kept} of 4000 samples; "radius": "match" needs it'
    with pytest.raises(ValidationError, match=message):
        bottleneck_gap(samples, text_rule, ball)


def test_noiseless_text_rule_shrinks_only_dim0():
    cfg = GenConfig(n_classes=2, x_dim=6, text_noise_sd=0.0, class_sep=1.0, seed=23)
    samples = generate(cfg, 50_000)
    text_rule = SelectionRule(kind="text_threshold", threshold=0.5)
    image_rule = SelectionRule(
        kind="image_ball",
        radius=matched_ball_radius(samples, class_means(cfg)[0], 0.3),
        prototype=tuple(class_means(cfg)[0]),
    )
    report = bottleneck_gap(samples, text_rule, image_rule)
    assert report.per_dim_var_text[0] < 0.7  # selection cuts x[0] through t
    assert np.abs(report.per_dim_var_text[1:] - 1.0).max() < 0.05
    assert np.abs(report.baseline_var - 1.0).max() < 0.05


def test_small_ball_shrinks_every_dimension():
    # truncated-normal oracle at radius 1, d=6: per-dim variance ~ 0.12,
    # far below the baseline of 1; assert with a wide margin
    cfg = GenConfig(n_classes=1, x_dim=6, text_noise_sd=0.0, class_sep=0.0, seed=29)
    samples = generate(cfg, 60_000)
    text_rule = SelectionRule(kind="text_threshold", threshold=0.5)
    ball = SelectionRule(kind="image_ball", radius=1.0, prototype=(0.0,) * 6)
    report = bottleneck_gap(samples, text_rule, ball)
    assert (report.per_dim_var_image < 0.3).all()
    assert (report.per_dim_var_image < report.baseline_var - 0.5).all()


def test_bin_test_vacuous_when_groups_never_share_a_bin():
    # noiseless text rule with bins aligned exactly on the threshold
    cfg = GenConfig(n_classes=1, x_dim=2, text_noise_sd=0.0, class_sep=0.0, seed=2)
    samples = generate(cfg, 5000)
    rule = SelectionRule(kind="text_threshold", threshold=float(samples.t.min()))
    # threshold at the minimum: everything selected, no unselected group
    result = bin_test(samples, rule)
    assert result.n_comparisons == 0
    assert result.reject is False


def test_bottleneck_gap_insufficient_survivors():
    samples = generate(config(), 500)
    text_rule = SelectionRule(kind="text_threshold", threshold=50.0)
    image_rule = SelectionRule(kind="image_threshold", threshold=0.0)
    with pytest.raises(ValidationError, match="need >="):
        bottleneck_gap(samples, text_rule, image_rule)


def test_bottleneck_gap_requires_matching_rule_kinds():
    samples = generate(config(), 1000)
    text_rule = SelectionRule(kind="text_threshold", threshold=0.0)
    image_rule = SelectionRule(kind="image_threshold", threshold=0.0)
    with pytest.raises(ValidationError):
        bottleneck_gap(samples, image_rule, image_rule)
    with pytest.raises(ValidationError):
        bottleneck_gap(samples, text_rule, text_rule)


def _rule(kind: str, x_dim: int, with_text: bool) -> SelectionRule:
    text_also = 0.2 if with_text else None
    if kind == "text_threshold":
        return SelectionRule(kind=kind, threshold=0.4)
    if kind == "image_ball":
        prototype = (1.0,) + (0.0,) * (x_dim - 1)
        return SelectionRule(
            kind=kind, radius=math.sqrt(x_dim), prototype=prototype, text_threshold_also=text_also
        )
    return SelectionRule(kind=kind, threshold=0.1, text_threshold_also=text_also)


bin_test_cases = dict(
    x_dim=st.integers(2, 5),
    text_noise_sd=st.sampled_from([0.0, 0.25, 1.0]),
    seed=st.integers(0, 2**16),
    bin_width=st.sampled_from([0.01, 0.05, 0.5, 5.0]),
)


@settings(max_examples=40, deadline=None)
@given(
    **bin_test_cases,
    # n on both sides of one 8192-sample generation block
    n=st.one_of(st.integers(100, 8192), st.integers(8193, 20_000)),
    kind=st.sampled_from(VALID_RULE_KINDS),
    with_text=st.booleans(),
)
def test_bin_test_equals_the_per_bin_mask_oracle(
    n, x_dim, text_noise_sd, seed, bin_width, kind, with_text
):
    samples = generate(config(x_dim=x_dim, text_noise_sd=text_noise_sd, seed=seed), n)
    rule = _rule(kind, x_dim, with_text)
    result = bin_test(samples, rule, bin_width)
    expected = cond_indep_bin_test_naive(samples, rule, bin_width)
    assert vars(result) == vars(expected)
    assert result.max_stat == expected.max_stat


@settings(max_examples=15, deadline=None)
@given(
    **bin_test_cases,
    # large enough for both rules to keep MIN_SURVIVORS samples
    n=st.one_of(st.integers(2000, 8192), st.integers(8193, 20_000)),
    kind=st.sampled_from(["image_ball", "image_threshold"]),
)
def test_bottleneck_gap_bin_tests_equal_the_oracle(
    n, x_dim, text_noise_sd, seed, bin_width, kind
):
    samples = generate(config(x_dim=x_dim, text_noise_sd=text_noise_sd, seed=seed), n)
    text_rule = _rule("text_threshold", x_dim, False)
    image_rule = _rule(kind, x_dim, False)
    report = bottleneck_gap(samples, text_rule, image_rule, bin_width)
    assert vars(report.bin_test_text) == vars(
        cond_indep_bin_test_naive(samples, text_rule, bin_width)
    )
    assert vars(report.bin_test_image) == vars(
        cond_indep_bin_test_naive(samples, image_rule, bin_width)
    )


@st.composite
def times_and_widths(draw):
    """t on a grid of 2**f steps, with repeats, negative values and values
    on bin edges, and a bin width m * 2**e: its largest key spans from 0
    past int16, int64 and float64's overflow, which a width a few ulps
    either side of (t.max() - t.min()) / float64's max reaches exactly."""
    steps = draw(st.lists(st.integers(-300, 300) | st.integers(-2**52, 2**52),
                          min_size=1, max_size=60))
    t = np.array([s * 2.0 ** draw(st.integers(-30, 30)) for s in steps])
    if draw(st.booleans()):
        span = float(t.max() - t.min()) or 1.0
        width = float(np.nextafter(span / np.finfo(np.float64).max,
                                   draw(st.sampled_from([0.0, math.inf]))))
    else:
        exponent = draw(st.integers(-60, 30) | st.integers(-1074, 60))
        width = draw(st.floats(1.0, 2.0, exclude_max=True)) * 2.0 ** exponent
    return t, width


@settings(max_examples=300, deadline=None, derandomize=True)
@given(times_widths=times_and_widths(), block=st.sampled_from([1, 2, 5, _BLOCK_VALUES]))
def test_integer_bin_keys_give_the_float_key_order_and_bounds(times_widths, block):
    t, width = times_widths
    try:
        expected = t_bins_float_keys(t, width)
    except FloatingPointError:
        expected = None
    with patch.object(causalsim, "_BLOCK_VALUES", block):  # block edges at any n
        if expected is None:
            with pytest.raises(ValidationError, match="overflows float64"):
                _t_bins(t, width)
            return
        order, bounds = _t_bins(t, width)
    assert order.tobytes() == expected[0].tobytes() and order.dtype == expected[0].dtype
    assert bounds.tobytes() == expected[1].tobytes() and bounds.dtype == expected[1].dtype


# 1, 2 and 3 rows per block at x_dim 2**17, 2**16 and about 2**17 / 3
@pytest.mark.parametrize("x_dim", [2, 3, 16, 100, 43691, 1 << 16, 1 << 17])
def test_blocked_ball_distances_equal_the_whole_array_expression(x_dim):
    rng = np.random.default_rng(x_dim)
    step = max(1, (1 << 17) // x_dim)
    n = 3 * step + 5  # three block edges and a partial last block
    x = rng.standard_normal((n, x_dim)) * rng.uniform(0.1, 10.0, size=(n, 1))
    proto = rng.standard_normal(x_dim)
    expected = np.sqrt(((x - proto) ** 2).sum(axis=1))
    assert _ball_distances(x, tuple(proto)).tobytes() == expected.tobytes()


def test_masked_class_variance_equals_the_variance_of_the_selected_copy():
    samples = generate(config(n_classes=3, x_dim=5), 30_000)
    for rule in (_rule("text_threshold", 5, False), _rule("image_ball", 5, True)):
        mask = _keep_mask(samples, rule)
        got = _per_class_dim_variance(samples.y, samples.x, mask)
        expected = _per_class_dim_variance(samples.y[mask], samples.x[mask])
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [1, 2, 5, _BLOCK_VALUES])
def test_class_variance_counts_the_labels_across_row_blocks(block):
    rng = np.random.default_rng(block)
    y = rng.integers(1, 3, size=23).astype(np.uint8)
    y[:4] = (0, 3, 3, 4)  # class 0 has one member; classes 3 and 4 none kept
    x = rng.standard_normal((23, 3))
    mask = rng.random(23) < 0.6
    mask[1:4] = False
    with patch.object(causalsim, "_BLOCK_VALUES", block):
        got = _per_class_dim_variance(y, x), _per_class_dim_variance(y, x, mask)
    assert got[0].tobytes() == class_dim_variance_gather(y, x).tobytes()
    assert got[1].tobytes() == class_dim_variance_gather(y, x, mask).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    # one x_dim above the block's value count: one row per block
    x_dim=st.sampled_from([2, 8, 64, _BLOCK_VALUES + 1]),
    cols=st.sampled_from([slice(None), slice(1, None)]),
    # 2 rows, one block, one block -1 and +1, and several blocks
    rows_case=st.sampled_from(["two", "block", "block-1", "block+1", "several"]),
    seed=st.integers(0, 2**16),
)
def test_blocked_mean_and_variance_equal_numpy_on_the_gathered_rows(x_dim, cols, rows_case, seed):
    # rows in one row block; a single column, read whole, counts
    # _BLOCK_VALUES rows, so "several" holds more than one block would
    step = max(1, _BLOCK_VALUES // len(range(x_dim)[cols]))
    n_rows = {"two": 2, "block": step, "block-1": step - 1, "block+1": step + 1,
              "several": 3 * step + 5}[rows_case]
    n_rows = max(2, n_rows)
    rng = np.random.default_rng(seed)
    n = n_rows + rng.integers(1, 8)
    # rows of very different scales, so a changed summation order shows
    x = rng.standard_normal((n, x_dim)) * rng.uniform(0.01, 100.0, size=(n, 1))
    rows = np.sort(rng.choice(n, n_rows, replace=False))
    mean, var = _rows_mean_var(x, rows, cols)
    gathered = x[rows, cols]
    assert mean.tobytes() == gathered.mean(axis=0).tobytes()
    assert var.tobytes() == gathered.var(axis=0, ddof=1).tobytes()

    # class 0 has one member, too few to count; class 1 at least two kept
    y = rng.integers(1, 4, size=n)
    y[:3] = (0, 1, 1)
    mask = rng.random(n) < 0.7
    mask[1:3] = True
    got = _per_class_dim_variance(y, x)
    assert got.tobytes() == class_dim_variance_gather(y, x).tobytes()
    got = _per_class_dim_variance(y, x, mask)
    assert got.tobytes() == class_dim_variance_gather(y, x, mask).tobytes()


@pytest.mark.parametrize("kind", ["text_threshold", "image_ball", "image_threshold"])
def test_bin_test_of_one_bin_across_row_blocks_equals_the_oracle(kind):
    # one bin holds every sample, and each side of it more rows than one
    # row block of the four non-text dimensions
    samples = generate(config(x_dim=5, seed=4), 100_000)
    rule = _rule(kind, 5, False)
    mask = _keep_mask(samples, rule)
    assert min(mask.sum(), (~mask).sum()) > _BLOCK_VALUES // 4
    result = bin_test(samples, rule, bin_width=1e6)
    assert result.n_bins_tested == 1
    assert vars(result) == vars(cond_indep_bin_test_naive(samples, rule, 1e6))


def test_bottleneck_gap_holds_no_copy_of_the_images():
    # x is 20 MiB; one class, so a whole-class copy would be all of x
    cfg = GenConfig(n_classes=1, x_dim=64, text_noise_sd=0.25, class_sep=0.0, seed=31)
    samples = generate(cfg, 40_000)
    text_rule, image_rule = _rule("text_threshold", 64, False), _rule("image_ball", 64, False)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        bottleneck_gap(samples, text_rule, image_rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry < 8 * 2**20
