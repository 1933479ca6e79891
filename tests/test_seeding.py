"""`seeding.linear_quantiles` against numpy's own linear quantiles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsieve.seeding import linear_quantiles

# The quantiles every case checks: both ends, and the 95% interval's.
QS = (0.0, 1.0, 0.025, 0.975)
PERCENTS = (0.0, 100.0, 2.5, 97.5)
# Values a case may mix in: signed zeros, the extremes of float64 and subnormals.
SPECIAL = (0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-300)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def value_arrays(draw) -> np.ndarray:
    """n values from a pool of `distinct` normal draws at one scale plus
    some special values, so ties are common when the pool is small."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 3000)))
    distinct = draw(st.integers(1, n))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e-310, 1e300, 1e307)))
    specials = draw(st.lists(st.sampled_from(SPECIAL), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate([rng.standard_normal(distinct) * scale, specials])
    return pool[rng.integers(0, pool.size, size=n)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=value_arrays(), drawn=st.lists(st.floats(0.0, 1.0), max_size=4))
@example(values=np.array([-0.0] * 5), drawn=[0.5])
@example(values=np.array([7.0]), drawn=[0.5])
@example(values=np.array([-1e308, 1e308]), drawn=[0.5, 0.25, 0.75])
def test_linear_quantiles_are_np_quantile_bit_for_bit(values, drawn):
    qs = [*QS, *drawn]
    with np.errstate(all="ignore"):  # numpy warns where hi - lo overflows
        want = bits(np.quantile(values, qs))
    before = values.copy()
    assert bits(linear_quantiles(values, qs)) == want
    assert bits(values) == bits(before), "linear_quantiles changed its input"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(values=value_arrays(), drawn=st.lists(st.floats(0.0, 100.0), max_size=4))
def test_linear_quantiles_at_q_over_100_are_np_percentile_bit_for_bit(values, drawn):
    percents = [*PERCENTS, *drawn]
    with np.errstate(all="ignore"):
        want = bits(np.percentile(values, percents))
    assert bits(linear_quantiles(values, np.true_divide(percents, 100))) == want


@pytest.mark.parametrize("values", [
    [1.0, np.nan, 3.0],
    [np.inf, 1.0, 2.0],
    [-np.inf, np.inf],
    [-np.inf, 0.0, 0.0, np.inf],
], ids=["nan", "inf", "both-infs", "infs-and-zeros"])
def test_linear_quantiles_propagate_nan_and_infinity_as_numpy_does(values):
    qs = [*QS, 0.5, 0.3]
    with np.errstate(all="ignore"):
        want = bits(np.quantile(values, qs))
    assert bits(linear_quantiles(np.array(values), qs)) == want


def test_linear_quantiles_refuse_no_values():
    with pytest.raises(ValueError, match="no values"):
        linear_quantiles(np.empty(0), [0.5])
