"""Deterministic random streams, and the quantiles of what they draw.

Every sampling operation in the package draws from Philox4x64, a
counter-based generator whose output is identical across platforms and
numpy builds for a given key. Independent streams are derived from a root
seed plus an integer path (e.g. per bin, per class, per shard), so
parallel work never shares or splits a sequential stream.

`linear_quantiles` gives numpy's default ("linear") quantiles bit for bit
with one partition, without `np.quantile`, which imports `numpy.ma`.
"""

from __future__ import annotations

import math

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Philox stream for `seed` at the given derivation path."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def linear_quantiles(values, qs) -> list[float]:
    """`np.quantile(values, qs)` for each q in `qs` (each in [0, 1]), bit
    for bit, as a list of floats.

    The q quantile of n values lies at index (n - 1) * q of their sorted
    order; one `ndarray.partition` places the order statistics on either
    side of each index (the last one, for an index at or past it), and
    numpy's two-sided lerp joins them. numpy's own path calls `np.unique`,
    which imports all of `numpy.ma`. A NaN among the values makes every
    quantile NaN, as in numpy. A copy is partitioned, so `values` is left
    as it was.
    """
    arr = np.array(values, np.float64).reshape(-1)
    last = arr.shape[0] - 1
    if last < 0:
        raise ValueError("quantiles of no values")
    picks = []
    for q in qs:
        index = last * float(q)
        if index >= last:  # numpy takes the top value as index -1, so its gamma is index + 1
            picks.append((last, last, index + 1))
        else:
            below = math.floor(index)
            picks.append((below, below + 1, index - below))
    arr.partition(sorted({last, *(k for below, above, _ in picks for k in (below, above))}))
    if math.isnan(arr[last]):  # NaN sorts last
        return [float(arr[last])] * len(picks)
    out = []
    for below, above, gamma in picks:
        lo, hi = float(arr[below]), float(arr[above])
        d = hi - lo
        out.append(hi - d * (1 - gamma) if gamma >= 0.5 else lo + d * gamma)
    return out
