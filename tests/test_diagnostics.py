from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsieve import diagnostics, vectorops
from capsieve.corpus import EmbeddingFile, EmbeddingMatrix, write_embeddings
from capsieve.curator import DatasetManifest
from capsieve.diagnostics import (
    ClassImages,
    binned_false_class_means,
    compare_from_intervals,
    cross_modal_class_stats,
    intra_class_sims,
    mean_pair_similarity,
    nearest_text_dataset,
    pair_similarity_blocks,
    per_class_mean_diff_ci,
    spearman,
)
from capsieve.errors import MissingKeyError, ValidationError
from capsieve.seeding import stream
from capsieve.vectorops import cosine

from conftest import candidate_rows, make_candidates, random_matrix, unit
from oracles import (
    bootstrap_means_whole,
    bootstrap_pair_means_counts,
    bootstrap_pair_means_gather,
    false_class_exhaustive,
    nearest_neighbor,
    pair_means_sequential,
)


def manifest_of(pairs):
    return DatasetManifest(rows=make_candidates((i, w, 1.0) for i, w in pairs), threshold=0.0)


def embeddings(ids, rows):
    return EmbeddingMatrix(rows=np.asarray(rows, dtype=np.float32), ids=list(ids))


def class_set_from_vectors(wnid, vectors):
    manifest = manifest_of([(f"{wnid}-img{i}", wnid) for i in range(len(vectors))])
    m = embeddings([f"{wnid}-img{i}" for i in range(len(vectors))], vectors)
    return next(iter(intra_class_sims(manifest, m)))


def pair_sims(images):
    """All of a class's pair similarities, in (i, j) order for i < j."""
    return np.concatenate([np.empty(0), *pair_similarity_blocks(images)])


# -- intra_class_sims ----------------------------------------------------------


def test_intra_identical_vectors():
    s = class_set_from_vectors("n00000001", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert len(pair_sims(s)) == 1
    assert pair_sims(s)[0] == pytest.approx(1.0, abs=1e-12)
    assert mean_pair_similarity(s) == pytest.approx(1.0, abs=1e-12)


def test_intra_matches_pairwise_oracle(rng, monkeypatch):
    # d = 9000 is past einsum's 8192-value buffer, where a lone pair of rows
    # would otherwise be added up in pieces
    for d in (5, 9000):
        vectors = rng.standard_normal((7, d)).astype(np.float32)
        s = class_set_from_vectors("n00000001", vectors)
        expected = [cosine(vectors[i], vectors[j]) for i in range(7) for j in range(i + 1, 7)]
        assert pair_sims(s).tolist() == expected
        with monkeypatch.context() as m:
            m.setattr(vectorops, "_BLOCK_SCORES", 2 * 7)  # blocks of 2 query rows
            assert [len(b) for b in pair_similarity_blocks(s)] == [11, 7, 3, 0]
            assert pair_sims(s).tolist() == expected


def test_mean_pair_similarity_matches_exact_pairs(rng):
    for n, d in [(2, 3), (12, 512), (40, 9000), (300, 16)]:
        s = class_set_from_vectors("n00000001", rng.standard_normal((n, d)).astype(np.float32))
        assert abs(mean_pair_similarity(s) - pair_sims(s).mean()) <= 1e-12


# d on both sides of einsum's 8192-value buffer
dims = st.one_of(st.integers(1, 64), st.integers(8180, 8200))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    d=dims,
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, d=8180, dtype=np.float32, seed=1)  # where einsum('bi,i->b') sums differently
def test_mean_pair_similarity_equals_sequential_sum_bitwise(n, d, dtype, seed):
    # the counts form with every image drawn once adds the class's vectors
    # in the same order as a plain loop over them
    rows = np.random.default_rng(seed).standard_normal((n, d)).astype(dtype)
    s = ClassImages(wnid="n00000001", rows=rows)
    units = diagnostics._unit_rows(rows)
    assert mean_pair_similarity(s) == pair_means_sequential(units, np.arange(n)[np.newaxis])[0]


# d on both sides of einsum's 8192-value buffer, and past it
@pytest.mark.parametrize("d", [8191, 8192, 8193, 20000])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_unit_rows_divide_by_the_cosine_norms_bitwise(rng, d, n):
    # each row's norm as `cosine` takes it: the row contracted with itself
    # in a two-row call, so its sum never depends on the other rows
    rows = (rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, size=(n, 1))).astype(np.float32)
    wide = rows.astype(np.float64)
    norms = [np.sqrt(np.einsum("ij,ij->i", wide[[i, i]], wide[[i, i]])[0]) for i in range(n)]
    expected = wide / np.array(norms)[:, np.newaxis]
    assert diagnostics._unit_rows(rows).tobytes() == expected.tobytes()


def test_intra_singleton_class_flagged():
    s = class_set_from_vectors("n00000001", [[1.0, 0.0]])
    assert s.n_images == 1
    assert s.n_pairs == 0
    assert len(pair_sims(s)) == 0
    with pytest.raises(ValidationError, match="no pairs"):
        mean_pair_similarity(s)


def test_intra_pair_count_law(rng):
    for _ in range(20):
        n = int(rng.integers(1, 15))
        s = class_set_from_vectors("n00000001", rng.standard_normal((n, 4)).astype(np.float32))
        assert len(pair_sims(s)) == s.n_pairs == n * (n - 1) // 2


def test_intra_missing_embedding():
    manifest = manifest_of([("ghost", "n00000001")])
    m = embeddings(["x"], [[1.0, 0.0]])
    with pytest.raises(MissingKeyError, match="ghost"):
        list(intra_class_sims(manifest, m))


def test_intra_yields_classes_in_wnid_order_with_one_gather(rng):
    pairs = [("i0", "n00000003"), ("i1", "n00000001"), ("i2", "n00000003"), ("i3", "n00000002")]
    m = embeddings(["i3", "i2", "i1", "i0"], rng.standard_normal((4, 3)))
    classes = list(intra_class_sims(manifest_of(pairs), m))
    assert [(c.wnid, c.n_images) for c in classes] == [
        ("n00000001", 1), ("n00000002", 1), ("n00000003", 2)
    ]
    assert np.array_equal(classes[2].rows, m.rows[[3, 1]])  # i0, i2 in manifest order
    assert classes[2].rows.dtype == np.float32


# -- per_class_mean_diff_ci / compare_from_intervals -------------------------------


def tight_cluster(rng, n, d):
    base = unit(np.ones(d))
    return np.stack([base + 0.001 * rng.standard_normal(d).astype(np.float32) for _ in range(n)])


def orthogonal_set(n, d):
    assert n <= d
    return np.eye(d, dtype=np.float32)[:n]


def test_mean_diff_same_sets_is_zero(rng):
    sets = [
        class_set_from_vectors(f"n{j:08d}", rng.standard_normal((6, 4)).astype(np.float32))
        for j in range(1, 4)
    ]
    for d in per_class_mean_diff_ci(sets, sets, n_boot=200, seed=3):
        assert d.value == 0.0
        assert d.ci_low <= 0.0 <= d.ci_high


def test_mean_diff_tight_vs_orthogonal(rng):
    a = [class_set_from_vectors("n00000001", tight_cluster(rng, 6, 8))]
    b = [class_set_from_vectors("n00000001", orthogonal_set(6, 8))]
    d = per_class_mean_diff_ci(a, b, n_boot=500, seed=3)[0]
    # tight cluster: sims ~ 1; orthogonal: sims = 0 -> diff ~ +1, clear of 0
    assert d.value == pytest.approx(1.0, abs=0.01)
    assert d.ci_low > 0.0


def test_mean_diff_sorted_ascending(rng):
    sets_a, sets_b = [], []
    for j in range(1, 7):
        sets_a.append(
            class_set_from_vectors(f"n{j:08d}", rng.standard_normal((7, 5)).astype(np.float32))
        )
        sets_b.append(
            class_set_from_vectors(f"n{j:08d}", rng.standard_normal((7, 5)).astype(np.float32))
        )
    values = [d.value for d in per_class_mean_diff_ci(sets_a, sets_b, n_boot=100, seed=1)]
    assert values == sorted(values)


def test_mean_diff_skips_small_classes(rng):
    ok_a = class_set_from_vectors("n00000001", rng.standard_normal((5, 4)).astype(np.float32))
    ok_b = class_set_from_vectors("n00000001", rng.standard_normal((5, 4)).astype(np.float32))
    tiny_a = class_set_from_vectors("n00000002", rng.standard_normal((1, 4)).astype(np.float32))
    tiny_b = class_set_from_vectors("n00000002", rng.standard_normal((4, 4)).astype(np.float32))
    out = per_class_mean_diff_ci([ok_a, tiny_a], [ok_b, tiny_b], n_boot=100, seed=0)
    assert [d.wnid for d in out] == ["n00000001"]


def test_mean_diff_needs_classes_in_wnid_order(rng):
    def side(*wnids):
        return [
            class_set_from_vectors(w, rng.standard_normal((4, 3)).astype(np.float32))
            for w in wnids
        ]

    ordered = side("n00000001", "n00000002", "n00000003")
    for a, b in [
        (side("n00000002", "n00000001"), ordered),
        (ordered, side("n00000001", "n00000003", "n00000002")),
        (ordered, side("n00000002", "n00000002")),  # a repeated wnid
        (ordered[:1], side("n00000001", "n00000005", "n00000004")),  # past the last shared
    ]:
        with pytest.raises(ValidationError, match="strictly increasing wnid order"):
            per_class_mean_diff_ci(a, b, n_boot=10)


def test_mean_diff_streams_keyed_by_wnid(rng):
    # each side of a shared class draws from stream(seed, wnid number, side),
    # whatever classes come before it, skipped or on one side only
    def images(wnid, n):
        return class_set_from_vectors(wnid, rng.standard_normal((n, 4)).astype(np.float32))

    a = [images("n00000001", 3), images("n00000002", 1), images("n00000003", 6)]
    b = [images("n00000002", 4), images("n00000003", 5), images("n00000004", 3)]
    (d,) = per_class_mean_diff_ci(iter(a), iter(b), n_boot=50, seed=2)
    units_a, units_b = diagnostics._unit_rows(a[2].rows), diagnostics._unit_rows(b[1].rows)
    replicates = diagnostics._bootstrap_pair_means(
        units_a, 50, stream(2, 3, 0)
    ) - diagnostics._bootstrap_pair_means(units_b, 50, stream(2, 3, 1))
    lo, hi = np.percentile(replicates, [2.5, 97.5])
    assert d.wnid == "n00000003"
    assert d.value == mean_pair_similarity(a[2]) - mean_pair_similarity(b[1])
    assert (d.ci_low, d.ci_high) == (min(lo, d.value), max(hi, d.value))


def test_mean_diff_refuses_a_malformed_wnid(rng):
    sets = [ClassImages(wnid="n0000001x", rows=rng.standard_normal((3, 4)).astype(np.float32))]
    with pytest.raises(ValidationError, match="8 digits"):
        per_class_mean_diff_ci(sets, sets, n_boot=10)


def stat_bits(stat):
    return (stat.wnid, stat.n, np.array([stat.value, stat.ci_low, stat.ci_high]).tobytes())


def without(items, drop):
    return [x for x in items if x != drop]


class_cases = dict(
    wnids=st.lists(st.integers(0, 99_999_999), min_size=2, max_size=5, unique=True).map(sorted),
    picks=st.tuples(st.integers(0, 4), st.integers(0, 3)),
    seed=st.integers(0, 2**32 - 1),
)


def pick_classes(wnids, picks):
    """The wnid kept and the other wnid dropped, from two drawn positions."""
    keep = picks[0] % len(wnids)
    others = without(range(len(wnids)), keep)
    return f"n{wnids[keep]:08d}", f"n{wnids[others[picks[1] % len(others)]]:08d}"


@settings(max_examples=30, deadline=None)
@given(**class_cases)
def test_mean_diff_row_does_not_depend_on_other_classes(wnids, picks, seed):
    keep, drop = pick_classes(wnids, picks)
    data = np.random.default_rng(seed)

    def side():
        # one image is allowed beside the kept class, so skipped classes occur
        return {
            f"n{w:08d}": data.standard_normal((int(data.integers(1, 7)), 3)).astype(np.float32)
            for w in wnids
        }

    a, b = side(), side()
    for rows in (a, b):
        rows[keep] = data.standard_normal((int(data.integers(2, 7)), 3)).astype(np.float32)

    def row_of(wnids_kept):
        diffs = per_class_mean_diff_ci(
            [ClassImages(w, a[w]) for w in wnids_kept],
            [ClassImages(w, b[w]) for w in wnids_kept],
            n_boot=30,
            seed=seed,
        )
        return next(stat_bits(s) for s in diffs if s.wnid == keep)

    assert row_of(sorted(a)) == row_of(without(sorted(a), drop))


def test_mean_diff_no_shared_classes(rng):
    a = [class_set_from_vectors("n00000001", rng.standard_normal((4, 4)).astype(np.float32))]
    b = [class_set_from_vectors("n00000002", rng.standard_normal((4, 4)).astype(np.float32))]
    with pytest.raises(ValidationError):
        per_class_mean_diff_ci(a, b)


def test_compare_identical_datasets(rng):
    sets = [
        class_set_from_vectors(f"n{j:08d}", rng.standard_normal((5, 6)).astype(np.float32))
        for j in range(1, 5)
    ]
    comparison = compare_from_intervals(per_class_mean_diff_ci(sets, sets, n_boot=200, seed=11))
    assert comparison.prop_A_lower == 0.0
    assert comparison.prop_B_lower == 0.0
    assert comparison.n_shared == 4


def test_compare_constructed_proportion(rng):
    sets_a, sets_b = [], []
    for j in range(1, 11):
        wnid = f"n{j:08d}"
        if j <= 7:  # A is the diverse (orthogonal) dataset in 7 of 10 classes
            sets_a.append(class_set_from_vectors(wnid, orthogonal_set(6, 8)))
            sets_b.append(class_set_from_vectors(wnid, tight_cluster(rng, 6, 8)))
        else:  # identical vectors on both sides: no significant difference
            shared = rng.standard_normal((6, 8)).astype(np.float32)
            sets_a.append(class_set_from_vectors(wnid, shared))
            sets_b.append(class_set_from_vectors(wnid, shared.copy()))
    comparison = compare_from_intervals(
        per_class_mean_diff_ci(sets_a, sets_b, n_boot=400, seed=5)
    )
    assert comparison.prop_A_lower == pytest.approx(0.7)
    assert comparison.prop_B_lower == 0.0
    assert comparison.prop_A_lower + comparison.prop_B_lower <= 1.0


def unit_rows(rows, dtype=np.float64):
    rows = np.asarray(rows, dtype=dtype)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "n, d, n_boot", [(2, 3, 300), (5, 1, 300), (24, 512, 300), (13, 700, 300), (4, 40000, 9)]
)
def test_streamed_bootstrap_equals_gather_bitwise(rng, n, d, n_boot, dtype):
    # bitwise the sequential counts oracle; the gather oracle, which adds the
    # draws in draw order rather than image order, agrees to rounding
    units = unit_rows(rng.standard_normal((n, d)), dtype)
    for seed in (0, 7):
        streamed = diagnostics._bootstrap_pair_means(units, n_boot, stream(seed))
        counted = bootstrap_pair_means_counts(units, n_boot, stream(seed))
        assert np.array_equal(streamed, counted)
        if dtype == np.float64:
            gathered = bootstrap_pair_means_gather(units, n_boot, stream(seed))
            np.testing.assert_allclose(streamed, gathered, rtol=1e-12, atol=0)


@settings(max_examples=30, deadline=None)
@given(
    # d either side of einsum's 8192-value buffer, or n either side of it
    shape=st.one_of(
        st.tuples(st.integers(2, 40), dims), st.tuples(st.integers(8180, 8200), st.integers(1, 64))
    ),
    n_boot=st.integers(1, 12),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_bootstrap_equals_sequential_oracle(shape, n_boot, dtype, seed):
    n, d = shape
    units = unit_rows(np.random.default_rng(seed).standard_normal((n, d)), dtype)
    streamed = diagnostics._bootstrap_pair_means(units, n_boot, stream(seed))
    assert np.array_equal(streamed, bootstrap_pair_means_counts(units, n_boot, stream(seed)))


def test_one_replicate_alone_equals_it_in_the_batch(rng):
    # up to einsum's 8192-value buffer: past it, a lone row's |sum u|^2 is
    # added up in buffer pieces, as the point estimate always has been
    for n, d, n_boot in [(24, 512, 200), (7, 8192, 20), (3000, 3, 10)]:
        units = unit_rows(rng.standard_normal((n, d)))
        counts = rng.integers(0, 4, size=(n_boot, n)).astype(np.float64)
        batch = diagnostics._pair_means(units, counts)
        alone = [diagnostics._pair_means(units, counts[r : r + 1])[0] for r in range(n_boot)]
        assert np.array_equal(batch, alone)


@pytest.mark.parametrize("n_boot", [1, 5, 1000])
@pytest.mark.parametrize("k", [1, 3, 7, 64])
@pytest.mark.parametrize("high, width", [(5, 5), (1300, 1300), (2**32 - 1, 9), (2**32, 9),
                                         (2**32 + 7, 9), (2**40, 3)])
def test_consecutive_draws_equal_one_draw(n_boot, k, high, width):
    # the property the blocked bootstraps rest on: a Generator's draws, taken
    # k replicates at a time, are the rows of one (n_boot, width) draw, with
    # 32-bit draws below 2**32 (odd blocks split a 64-bit output) and 64-bit
    # ones past it
    whole = stream(3, 9).integers(0, high, size=(n_boot, width))
    rng = stream(3, 9)
    blocks = [rng.integers(0, high, size=(min(k, n_boot - s), width))
              for s in range(0, n_boot, k)]
    assert np.array_equal(np.concatenate(blocks), whole)


@pytest.mark.parametrize("n_boot", [1, 2, 3, 4, 5, 6, 7, 10, 11, 1000])
@pytest.mark.parametrize("step", [2, 3, 5])
def test_replicate_blocks_cover_the_replicates_with_no_lone_one(monkeypatch, n_boot, step):
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", step * 10)
    blocks = list(diagnostics._replicate_blocks(n_boot, 10))
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n_boot
    assert all(step <= b.stop - b.start <= step + 1 for b in blocks[:-1])
    assert all(b.stop - b.start >= 2 for b in blocks) or n_boot == 1


@pytest.mark.parametrize(
    "n, d, n_boot, block_values",
    [(5, 3, 300, 40), (24, 512, 301, 2000), (13, 700, 100, 3000), (4, 9000, 7, 1),
     (4, 9000, 1, 1), (3, 20000, 5, 50000)],
)
def test_blocked_bootstrap_equals_one_draw_bitwise(rng, monkeypatch, n, d, n_boot,
                                                   block_values):
    # many blocks and a ragged tail; past d = 8192 the blocks are of 2 or 3
    # replicates, since a lone one's |sum u|^2 would be added up in pieces
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block_values)
    units = unit_rows(rng.standard_normal((n, d)))
    blocked = diagnostics._bootstrap_pair_means(units, n_boot, stream(4))
    assert np.array_equal(blocked, bootstrap_pair_means_counts(units, n_boot, stream(4)))


@pytest.mark.parametrize("n, n_boot, block_values", [(2, 1, 4), (7, 300, 30), (1300, 101, 5000)])
def test_blocked_cross_modal_resample_equals_one_draw_bitwise(rng, monkeypatch, n, n_boot,
                                                              block_values):
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block_values)
    values = rng.uniform(-1.0, 1.0, size=n)
    blocked = diagnostics._bootstrap_means(values, n_boot, stream(6))
    assert np.array_equal(blocked, bootstrap_means_whole(values, n_boot, stream(6)))


def test_cross_modal_interval_does_not_depend_on_the_block_size(rng, monkeypatch):
    n = 40
    ids = [f"i{j:02d}" for j in range(n)]
    images = random_matrix(rng, ids, 6)
    synsets = random_matrix(rng, ["n00000001"], 6)
    manifest = manifest_of([(i, "n00000001") for i in ids])
    stats = []
    for block_values in (2**17, 240):  # one block, then 333 blocks, the last of 4 replicates
        monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block_values)
        stats.append(cross_modal_class_stats(intra_class_sims(manifest, images), synsets,
                                             n_boot=1000, seed=3))
    values = vectorops.pair_cosine(images.rows, synsets.rows[0])
    replicates = bootstrap_means_whole(values, 1000, stream(3, 1))
    assert stats[0] == stats[1] == [
        diagnostics._percentile_stat("n00000001", float(values.mean()), replicates, n)
    ]


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mean_diff_ci_memory_is_bounded(rng):
    # the gather form would hold a 1000 x 200 x 512 float64 array: 781 MiB;
    # whole (1000, 200) draws and counts and (1000, 512) sums peak at 8.6 MiB
    n, d = 200, 512
    sets = [
        ClassImages(wnid="n00000001", rows=rng.standard_normal((n, d)).astype(np.float32))
        for _ in range(2)
    ]
    peak = traced_peak(lambda: per_class_mean_diff_ci(sets[:1], sets[1:], n_boot=1000, seed=0))
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_bootstrap_peak_does_not_grow_with_the_replicates(rng):
    n, d = 200, 512
    rows = rng.standard_normal((n, d)).astype(np.float32)
    sets = [ClassImages(wnid="n00000001", rows=r) for r in (rows, rows[::-1])]
    ids = [f"i{j:03d}" for j in range(n)]
    manifest, images = manifest_of([(i, "n00000001") for i in ids]), embeddings(ids, rows)
    synsets = random_matrix(rng, ["n00000001"], d)
    runs = {
        "compare": lambda b: per_class_mean_diff_ci(sets[:1], sets[1:], n_boot=b, seed=0),
        "cross-modal": lambda b: cross_modal_class_stats(
            intra_class_sims(manifest, images), synsets, n_boot=b, seed=0),
    }
    for name, run in runs.items():
        run(10)  # any first-call allocations are made before the peaks are taken
        few, many = traced_peak(lambda: run(1000)), traced_peak(lambda: run(4000))
        assert many - few < 2**20, (
            f"{name}: {few / 2**20:.2f} MiB at B = 1000, {many / 2**20:.2f} at 4000")


def test_paper_scale_bootstrap_holds_under_one_mib(rng):
    # a 1300-image class at d = 512 and B = 1000: the whole-array form peaked
    # at 23.8 MiB
    units = unit_rows(rng.standard_normal((1300, 512)))
    peak = traced_peak(lambda: diagnostics._bootstrap_pair_means(units, 1000, stream(0)))
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_mean_diff_ci_memory_does_not_grow_with_classes(rng):
    # one class of 200 images on each side is held at a time, so the peak is
    # set by the per-class bootstrap, not by the number of classes
    n, d, n_boot = 200, 64, 200

    def peak_over(n_classes):
        ids = [(f"n{c + 1:08d}-{i}", f"n{c + 1:08d}") for c in range(n_classes) for i in range(n)]
        rows = rng.standard_normal((len(ids), d)).astype(np.float32)
        sides = [(manifest_of(ids), embeddings([i for i, _ in ids], rows)) for _ in range(2)]
        tracemalloc.start()
        try:
            diffs = per_class_mean_diff_ci(
                intra_class_sims(*sides[0]), intra_class_sims(*sides[1]), n_boot=n_boot, seed=0
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(diffs) == n_classes
        return peak

    few, many = peak_over(5), peak_over(50)
    assert many <= 1.5 * few, f"peak {few / 2**20:.2f} MiB at 5 classes, {many / 2**20:.2f} at 50"


def test_compare_from_intervals_counts_intervals_clear_of_zero(rng):
    sets_a, sets_b = [], []
    for j in range(1, 7):
        sets_a.append(class_set_from_vectors(f"n{j:08d}", tight_cluster(rng, 5, 6)))
        sets_b.append(class_set_from_vectors(f"n{j:08d}", rng.standard_normal((6, 6))))
    diffs = per_class_mean_diff_ci(sets_a, sets_b, n_boot=200, seed=4)
    comparison = compare_from_intervals(diffs)
    assert comparison.n_shared == 6
    assert comparison.prop_A_lower == sum(d.ci_high < 0.0 for d in diffs) / 6
    assert comparison.prop_B_lower == sum(d.ci_low > 0.0 for d in diffs) / 6
    with pytest.raises(ValidationError, match="enough images"):
        compare_from_intervals([])


# -- false-class proportion ------------------------------------------------------


def false_class_proportion(text, intended, synsets):
    """The package's false-class proportion of one text: the fraction of
    the other synsets strictly more similar to it than the intended one."""
    return diagnostics._own_score_and_false_class(np.asarray([text]), [intended], synsets)[1][0]


def synset_matrix():
    # five well-separated synset directions in 5-d
    return embeddings(
        [f"n{j:08d}" for j in range(1, 6)], np.eye(5, dtype=np.float32)
    )


def test_false_class_zero_when_intended_is_argmax():
    synsets = synset_matrix()
    assert false_class_proportion([1.0, 0.0, 0.0, 0.0, 0.0], "n00000001", synsets) == 0.0


def test_false_class_ranked_third_of_five():
    synsets = synset_matrix()
    text = [0.5, 0.8, 0.9, 0.1, 0.0]  # intended n00000001 ranks third
    assert false_class_proportion(text, "n00000001", synsets) == 0.5


def test_false_class_ranked_last():
    synsets = synset_matrix()
    text = [0.01, 0.5, 0.6, 0.7, 0.8]
    assert false_class_proportion(text, "n00000001", synsets) == 1.0


def test_false_class_ties_do_not_count():
    synsets = embeddings(
        ["n00000001", "n00000002"], [[1.0, 0.0], [1.0, 0.0]]
    )
    # identical synset rows: scores tie exactly; strict inequality keeps 0
    assert false_class_proportion([1.0, 0.5], "n00000001", synsets) == 0.0


def test_false_class_errors():
    synsets = synset_matrix()
    with pytest.raises(MissingKeyError):
        false_class_proportion([1, 0, 0, 0, 0], "n09999999", synsets)
    single = embeddings(["n00000001"], [[1.0, 0.0]])
    with pytest.raises(ValidationError):
        false_class_proportion([1.0, 0.0], "n00000001", single)


def test_false_class_in_unit_range(rng):
    synsets = embeddings(
        [f"n{j:08d}" for j in range(1, 9)], rng.standard_normal((8, 4)).astype(np.float32)
    )
    for _ in range(50):
        text = rng.standard_normal(4)
        wnid = f"n{int(rng.integers(1, 9)):08d}"
        assert 0.0 <= false_class_proportion(text, wnid, synsets) <= 1.0


# -- binned_false_class_means ----------------------------------------------------


def test_binned_all_texts_identical_to_synsets():
    synsets = synset_matrix()
    texts = np.eye(5, dtype=np.float64)
    intended = [f"n{j:08d}" for j in range(1, 6)]
    bins = binned_false_class_means(texts, intended, synsets, [0.0, 0.5, 1.01])
    nonempty = [b for b in bins if b.count]
    assert nonempty and all(b.mean == 0.0 for b in nonempty)
    empty = [b for b in bins if not b.count]
    assert all(b.mean is None for b in empty)


def test_binned_low_similarity_ranks_last():
    synsets = synset_matrix()
    # text far from intended n00000001 and close to the others
    texts = np.array([[0.05, 0.9, 0.8, 0.85, 0.7], [1.0, 0.0, 0.0, 0.0, 0.0]])
    intended = ["n00000001", "n00000001"]
    bins = binned_false_class_means(texts, intended, synsets, [0.0, 0.5, 1.01])
    low, high = bins[0], bins[1]
    assert low.count == 1 and low.mean == 1.0
    assert high.count == 1 and high.mean == 0.0


def test_binned_bins_are_half_open_at_every_edge():
    synsets = embeddings(["n00000001", "n00000002"], np.eye(2, dtype=np.float32))
    # own scores, exactly: 0.0 (orthogonal), 1.0 (parallel), -1.0, 0.8
    texts = np.array([[0.0, 1.0], [2.0, 0.0], [-1.0, 0.0], [0.8, 0.6]])
    bins = binned_false_class_means(texts, ["n00000001"] * 4, synsets, [-0.5, 0.0, 1.0])
    # 0.0, an inner edge, is in the upper bin; 1.0, the last edge, and
    # -1.0, below the first, are in none
    assert [(b.count, b.mean) for b in bins] == [(0, None), (2, 0.5)]


def test_binned_requires_increasing_edges():
    with pytest.raises(ValidationError):
        binned_false_class_means(np.zeros((0, 2)), [], synset_matrix(), [0.5, 0.5])


def test_binned_means_agree_with_false_class_proportion(rng):
    synsets = embeddings(
        [f"n{j:08d}" for j in range(1, 9)], rng.standard_normal((8, 4)).astype(np.float32)
    )
    texts = rng.standard_normal((40, 4))
    intended = [f"n{int(j):08d}" for j in rng.integers(1, 9, size=40)]
    bins = binned_false_class_means(texts, intended, synsets, [-1.01, 1.01])
    props = [false_class_proportion(t, w, synsets) for t, w in zip(texts, intended)]
    assert bins[0].count == 40 and bins[0].mean == sum(props) / 40


def test_binned_errors_match_false_class_proportion():
    with pytest.raises(MissingKeyError):
        binned_false_class_means([[1.0, 0, 0, 0, 0]], ["n09999999"], synset_matrix(), [0, 1])
    single = embeddings(["n00000001"], [[1.0, 0.0]])
    with pytest.raises(ValidationError, match="at least 2 synsets"):  # was ZeroDivisionError
        binned_false_class_means([[1.0, 0.0]], ["n00000001"], single, [0, 1])


def test_false_class_blocks_agree_with_one_text_at_a_time(rng, monkeypatch):
    synsets = embeddings(
        [f"n{j:08d}" for j in range(1, 10)], rng.standard_normal((9, 5)).astype(np.float32)
    )
    texts = rng.standard_normal((23, 5))
    intended = [f"n{int(j):08d}" for j in rng.integers(1, 10, size=23)]
    # chunks of 4, 4 and 1 synsets, each scored against blocks of 4 texts
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 4 * 5)
    tiles = [(start, lo) for start, lo, _ in vectorops.cosine_blocks(texts, synsets)]
    assert tiles == [(start, lo) for lo in (0, 4, 8) for start in range(0, 23, 4)]
    scored = list(zip(*diagnostics._own_score_and_false_class(texts, intended, synsets)))
    for (own, prop), text, wnid in zip(scored, texts, intended):
        assert own == cosine(text, synsets.rows[synsets.index[wnid]])
        assert prop == false_class_exhaustive(text, wnid, synsets)
    assert len(scored) == 23


def test_false_class_from_a_file_equals_false_class_from_its_rows(tmp_path, rng, monkeypatch):
    # 23 texts in query blocks of 4, against 9 synset rows read in chunks of 4
    ids = [f"n{j:08d}" for j in range(1, 10)]
    synsets = embeddings(ids, rng.standard_normal((9, 5)))
    write_embeddings(synsets, tmp_path / "synsets.emb")
    texts = rng.standard_normal((23, 5))
    intended = [ids[int(j)] for j in rng.integers(0, 3, size=23)]  # 3 of the 9 are intended
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 4 * 5)
    from_file = diagnostics._own_score_and_false_class(
        texts, intended, EmbeddingFile(tmp_path / "synsets.emb"))
    from_rows = diagnostics._own_score_and_false_class(texts, intended, synsets)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(from_file, from_rows))


def test_false_class_holds_the_intended_rows_not_the_synset_file(tmp_path, rng):
    # 4000 synsets at d = 1024: a 15.6 MiB payload, of which 50 texts intend 5 rows
    ids = [f"n{j:08d}" for j in range(1, 4001)]
    rows = rng.standard_normal((4000, 1024)).astype(np.float32)
    write_embeddings(embeddings(ids, rows), tmp_path / "synsets.emb")
    texts = rng.standard_normal((50, 1024))
    intended = [ids[int(j)] for j in rng.integers(0, 5, size=50)]
    peak = traced_peak(lambda: binned_false_class_means(
        texts, intended, EmbeddingFile(tmp_path / "synsets.emb"), [-1.0, 0.0, 1.0]))
    assert peak < rows.nbytes / 2, f"peak {peak / 2**20:.2f} MiB"


# -- nearest_text_dataset ---------------------------------------------------------


def test_nearest_text_keeps_exact_match(rng):
    corpus = random_matrix(rng, [f"c{i}" for i in range(10)], 6)
    query = corpus.rows[4].copy()
    manifest = nearest_text_dataset([query], ["n00000001"], corpus, min_sim=0.7)
    assert len(manifest.rows) == 1
    instance_id, wnid, score = candidate_rows(manifest.rows)[0]
    assert instance_id == "c4"
    assert wnid == "n00000001"
    assert score == pytest.approx(1.0, abs=1e-9)


def test_nearest_text_drops_below_threshold():
    corpus = embeddings(["c0", "c1"], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    manifest = nearest_text_dataset([[1.0, 0.0, 0.0]], ["n00000001"], corpus, min_sim=0.7)
    assert len(manifest.rows) == 0
    assert manifest.drop_ledger["below_min_sim"] == 1


@pytest.mark.parametrize("min_sim", [-1.5, 1.0000001, math.nan])
def test_nearest_text_refuses_a_min_sim_outside_the_cosine_range(min_sim):
    corpus = embeddings(["c0"], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match=rf"^min_sim {min_sim} outside \[-1, 1\]$"):
        nearest_text_dataset([[1.0, 0.0, 0.0]], ["n00000001"], corpus, min_sim=min_sim)


def test_nearest_text_monotone_in_min_sim(rng):
    corpus = random_matrix(rng, [f"c{i}" for i in range(30)], 5)
    queries = rng.standard_normal((20, 5))
    wnids = [f"n{j:08d}" for j in range(1, 21)]
    sizes = []
    for min_sim in (0.0, 0.3, 0.6, 0.9):
        manifest = nearest_text_dataset(queries, wnids, corpus, min_sim)
        assert all(score >= min_sim for score in manifest.rows.scores)
        sizes.append(len(manifest.rows))
    assert sizes == sorted(sizes, reverse=True)


def test_nearest_text_collapses_duplicates():
    corpus = embeddings(["c0"], [[1.0, 0.0]])
    queries = [[1.0, 0.0], [2.0, 0.0]]  # same direction: same neighbor, same score
    manifest = nearest_text_dataset(queries, ["n00000002", "n00000001"], corpus, min_sim=0.5)
    assert len(manifest.rows) == 1
    assert manifest.rows.wnids == ["n00000001"]  # tie resolved to the smaller wnid
    assert manifest.drop_ledger["duplicate_neighbor"] == 1


def test_nearest_text_empty_corpus():
    corpus = EmbeddingMatrix(rows=np.empty((0, 3), dtype=np.float32), ids=[])
    with pytest.raises(ValidationError, match="empty"):
        nearest_text_dataset([[1.0, 0.0, 0.0]], ["n00000001"], corpus, 0.5)


def test_nearest_text_needs_one_wnid_per_query():
    corpus = embeddings(["c0"], [[1.0, 0.0]])
    with pytest.raises(ValidationError, match=r"queries of shape \(2, 2\) for 1 wnids"):
        nearest_text_dataset([[1.0, 0.0], [0.0, 1.0]], ["n00000001"], corpus, 0.5)


def nearest_text_oracle(query_texts, corpus, min_sim):
    """Rows (id, wnid, score) from a per-query `nearest_neighbor` scan."""
    best = {}
    for embedding, wnid in query_texts:
        rid, score = nearest_neighbor(embedding, corpus)
        if score >= min_sim and (-score, wnid) < best.get(rid, (math.inf, ""))[:2]:
            best[rid] = (-score, wnid)
    return [(rid, wnid, -neg) for rid, (neg, wnid) in sorted(best.items())]


def test_nearest_text_agrees_with_per_query_oracle(rng, monkeypatch):
    rows = rng.standard_normal((40, 8)).astype(np.float32)
    rows[[7, 19, 30]] = rows[2]  # exact score ties between ids
    ids = [f"c{int(i):02d}" for i in rng.permutation(40)]
    corpus = embeddings(ids, rows)
    queries = [(rng.standard_normal(8), f"n{j:08d}") for j in range(1, 26)]
    queries += [(rows[2] * 2.0, "n00000031"), (rows[7].astype(np.float64), "n00000032")]
    # blocks of 6 queries, each scored against chunks of 6 rows: the tied
    # rows 2, 7, 19 and 30 fall in four different chunks
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 6 * 8)
    vectors, wnids = np.array([q for q, _ in queries]), [w for _, w in queries]
    for min_sim in (-1.0, 0.3):
        manifest = nearest_text_dataset(vectors, wnids, corpus, min_sim)
        got = candidate_rows(manifest.rows)
        assert got == nearest_text_oracle(queries, corpus, min_sim)
    tied = [i for i, w, _ in candidate_rows(manifest.rows) if w in ("n00000031", "n00000032")]
    assert tied == [min(ids[i] for i in (2, 7, 19, 30))]


# -- cross_modal_class_stats ------------------------------------------------------


def test_cross_modal_identity():
    synsets = embeddings(["n00000001"], [[0.6, 0.8]])
    images = embeddings(["i0", "i1"], [[0.6, 0.8], [1.2, 1.6]])
    manifest = manifest_of([("i0", "n00000001"), ("i1", "n00000001")])
    classes = intra_class_sims(manifest, images)
    stats = cross_modal_class_stats(classes, synsets, n_boot=100, seed=0)
    assert stats[0].value == pytest.approx(1.0, abs=1e-9)


def test_cross_modal_hand_mean():
    synsets = embeddings(["n00000001"], [[1.0, 0.0]])
    images = embeddings(
        ["i0", "i1"],
        [[0.2, math.sqrt(1 - 0.2**2)], [0.4, math.sqrt(1 - 0.4**2)]],
    )
    manifest = manifest_of([("i0", "n00000001"), ("i1", "n00000001")])
    classes = intra_class_sims(manifest, images)
    stats = cross_modal_class_stats(classes, synsets, n_boot=100, seed=0)
    assert stats[0].value == pytest.approx(0.3, abs=1e-6)
    assert stats[0].n == 2


def test_cross_modal_dim_mismatch(rng):
    synsets = random_matrix(rng, ["n00000001"], 3)
    images = random_matrix(rng, ["i0"], 4)
    classes = intra_class_sims(manifest_of([("i0", "n00000001")]), images)
    with pytest.raises(ValidationError, match="^dimension mismatch: images 4 vs synset texts 3$"):
        cross_modal_class_stats(classes, synsets)


def test_cross_modal_reports_a_missing_image_before_a_missing_synset(rng):
    synsets = random_matrix(rng, ["n00000002"], 3)
    images = random_matrix(rng, ["i1"], 3)
    classes = intra_class_sims(manifest_of([("i0", "n00000001")]), images)
    with pytest.raises(MissingKeyError, match="missing image embedding for id 'i0'"):
        cross_modal_class_stats(classes, synsets)


def test_cross_modal_scores_a_class_without_a_copy_per_image(rng):
    # a class of 1300 images at d = 512 is 5.1 MiB in float64; scoring it
    # against a broadcast float64 copy of its synset vector peaked at 17.8 MiB
    n, d = 1300, 512
    ids = [f"i{j:04d}" for j in range(n)]
    images = random_matrix(rng, ids, d)
    synsets = random_matrix(rng, ["n00000001"], d)
    manifest = manifest_of([(i, "n00000001") for i in ids])
    tracemalloc.start()
    try:
        classes = intra_class_sims(manifest, images)
        stat = cross_modal_class_stats(classes, synsets, n_boot=1, seed=0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    synset = synsets.rows[0]
    assert stat.value == float(np.mean([cosine(row, synset) for row in images.rows]))


@settings(max_examples=30, deadline=None)
@given(**class_cases)
def test_cross_modal_row_does_not_depend_on_other_classes(wnids, picks, seed):
    keep, drop = pick_classes(wnids, picks)
    data = np.random.default_rng(seed)
    pairs = [(f"{w}-{i}", w) for w in (f"n{v:08d}" for v in wnids)
             for i in range(int(data.integers(1, 7)))]
    images = data.standard_normal((len(pairs), 3))
    synsets = data.standard_normal((len(wnids), 3))

    def row_of(dropped):
        kept = [j for j, (_, w) in enumerate(pairs) if w != dropped]
        kept_wnids = without([f"n{v:08d}" for v in wnids], dropped)
        stats = cross_modal_class_stats(
            intra_class_sims(manifest_of([pairs[j] for j in kept]),
                             embeddings([pairs[j][0] for j in kept], images[kept])),
            embeddings(kept_wnids, synsets[[f"n{v:08d}" in kept_wnids for v in wnids]]),
            n_boot=30,
            seed=seed,
        )
        return next(stat_bits(s) for s in stats if s.wnid == keep)

    assert row_of(None) == row_of(drop)


def test_cross_modal_ci_coverage_monte_carlo():
    """The bootstrap interval straddles the true class mean ~95% of the time
    on synthetic Gaussian images (truth pinned by a large independent draw)."""
    from capsieve.seeding import stream as mk_stream

    dim = 8
    direction = np.zeros(dim)
    direction[0] = 1.0
    synsets = embeddings(["n00000001"], direction[None])
    oracle = mk_stream(555)
    big = direction * 2.0 + oracle.standard_normal((400_000, dim))
    big /= np.linalg.norm(big, axis=1, keepdims=True)
    true_mean = float(big[:, 0].mean())  # cosine to e0 is the unit vector's coord 0

    rng_mc = mk_stream(4242)
    trials, n_img = 400, 100
    hits = 0
    for trial in range(trials):
        x = direction * 2.0 + rng_mc.standard_normal((n_img, dim))
        ids = [f"i{j}" for j in range(n_img)]
        images = embeddings(ids, x)
        manifest = manifest_of([(i, "n00000001") for i in ids])
        s = cross_modal_class_stats(intra_class_sims(manifest, images), synsets, n_boot=800,
                                    seed=trial)[0]
        hits += s.ci_low <= true_mean <= s.ci_high
    assert 0.92 <= hits / trials <= 0.98


# -- spearman ----------------------------------------------------------------------


def rank_formula_oracle(x, y):
    """Independent implementation: tie-averaged ranks by double loop, then
    the explicit Pearson formula."""
    def ranks(v):
        out = []
        for vi in v:
            less = sum(1 for vj in v if vj < vi)
            equal = sum(1 for vj in v if vj == vi)
            out.append(less + (equal + 1) / 2.0)
        return out

    rx, ry = ranks(x), ranks(y)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def test_spearman_monotone():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman(x, [10.0, 20.0, 21.0, 30.0]) == 1.0
    assert spearman(x, [5.0, 4.0, 3.0, -1.0]) == -1.0


def test_spearman_hand_case():
    assert spearman([1.0, 2.0, 3.0, 4.0], [2.0, 1.0, 4.0, 3.0]) == pytest.approx(0.6, abs=1e-15)


def test_spearman_matches_rank_formula_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 15))
        x = [float(rng.integers(0, 6)) for _ in range(n)]  # small range forces ties
        y = [float(rng.integers(0, 6)) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(rank_formula_oracle(x, y), abs=1e-12)


def test_spearman_monotone_transform_invariance(rng):
    x = rng.uniform(-3, 3, size=20)
    y = rng.uniform(-3, 3, size=20)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, y**3) == pytest.approx(base, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ValidationError, match="mismatch"):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="constant"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        spearman([1.0], [1.0])
