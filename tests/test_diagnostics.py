from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from capsieve import diagnostics, vectorops
from capsieve.corpus import EmbeddingMatrix
from capsieve.curator import DatasetManifest
from capsieve.diagnostics import (
    ClassSimilaritySet,
    binned_false_class_means,
    compare_datasets,
    compare_from_intervals,
    cross_modal_class_stats,
    false_class_proportion,
    intra_class_sims,
    nearest_text_dataset,
    per_class_mean_diff_ci,
    spearman,
)
from capsieve.errors import MissingKeyError, ValidationError
from capsieve.seeding import stream
from capsieve.vectorops import cosine

from conftest import candidate_rows, make_candidates, random_matrix, unit
from oracles import bootstrap_pair_means_gather, nearest_neighbor


def manifest_of(pairs):
    return DatasetManifest(rows=make_candidates((i, w, 1.0) for i, w in pairs), threshold=0.0)


def embeddings(ids, rows):
    return EmbeddingMatrix(rows=np.asarray(rows, dtype=np.float32), ids=list(ids))


def class_set_from_vectors(wnid, vectors):
    manifest = manifest_of([(f"{wnid}-img{i}", wnid) for i in range(len(vectors))])
    m = embeddings([f"{wnid}-img{i}" for i in range(len(vectors))], vectors)
    return intra_class_sims(manifest, m)[0]


# -- intra_class_sims ----------------------------------------------------------


def test_intra_identical_vectors():
    s = class_set_from_vectors("n00000001", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert len(s.sims) == 1
    assert s.sims[0] == pytest.approx(1.0, abs=1e-12)


def test_intra_matches_pairwise_oracle(rng):
    vectors = rng.standard_normal((3, 5)).astype(np.float32)
    s = class_set_from_vectors("n00000001", vectors)
    expected = [
        cosine(vectors[0], vectors[1]),
        cosine(vectors[0], vectors[2]),
        cosine(vectors[1], vectors[2]),
    ]
    assert s.sims == pytest.approx(expected, abs=1e-12)


def test_intra_singleton_class_flagged():
    s = class_set_from_vectors("n00000001", [[1.0, 0.0]])
    assert s.n_images == 1
    assert len(s.sims) == 0


def test_intra_pair_count_law(rng):
    for _ in range(20):
        n = int(rng.integers(1, 15))
        s = class_set_from_vectors("n00000001", rng.standard_normal((n, 4)).astype(np.float32))
        assert len(s.sims) == n * (n - 1) // 2


def test_intra_missing_embedding():
    manifest = manifest_of([("ghost", "n00000001")])
    m = embeddings(["x"], [[1.0, 0.0]])
    with pytest.raises(MissingKeyError, match="ghost"):
        intra_class_sims(manifest, m)


# -- per_class_mean_diff_ci / compare_datasets ----------------------------------


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
    comparison = compare_datasets(sets, sets, n_boot=200, seed=11)
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
    comparison = compare_datasets(sets_a, sets_b, n_boot=400, seed=5)
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
    # at d = 40000, 9 replicates keep the gather oracle's array under 30 MiB
    units = unit_rows(rng.standard_normal((n, d)), dtype)
    for seed in (0, 7):
        streamed = diagnostics._bootstrap_pair_means(units, n_boot, stream(seed))
        gathered = bootstrap_pair_means_gather(units, n_boot, stream(seed))
        assert np.array_equal(streamed, gathered)


def test_mean_diff_ci_memory_is_bounded(rng):
    # the gather form would hold a 1000 x 200 x 512 float64 array: 781 MiB
    n, d = 200, 512
    sets = [
        ClassSimilaritySet(
            wnid="n00000001",
            sims=np.zeros(n * (n - 1) // 2),
            vectors=unit_rows(rng.standard_normal((n, d))),
        )
        for _ in range(2)
    ]
    tracemalloc.start()
    try:
        per_class_mean_diff_ci(sets[:1], sets[1:], n_boot=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_compare_from_intervals_equals_compare_from_sets(rng):
    sets_a, sets_b = [], []
    for j in range(1, 7):
        sets_a.append(class_set_from_vectors(f"n{j:08d}", tight_cluster(rng, 5, 6)))
        sets_b.append(class_set_from_vectors(f"n{j:08d}", rng.standard_normal((6, 6))))
    diffs = per_class_mean_diff_ci(sets_a, sets_b, n_boot=200, seed=4)
    assert compare_from_intervals(diffs) == compare_datasets(sets_a, sets_b, n_boot=200, seed=4)
    with pytest.raises(ValidationError, match="enough images"):
        compare_from_intervals([])


# -- false_class_proportion ------------------------------------------------------


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
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 4 * synsets.count)  # blocks of 4 texts
    scored = list(diagnostics._own_score_and_false_class(texts, intended, synsets))
    for (own, prop), text, wnid in zip(scored, texts, intended):
        assert own == cosine(text, synsets.rows[synsets.index[wnid]])
        assert prop == false_class_proportion(text, wnid, synsets)
    assert len(scored) == 23


# -- nearest_text_dataset ---------------------------------------------------------


def test_nearest_text_keeps_exact_match(rng):
    corpus = random_matrix(rng, [f"c{i}" for i in range(10)], 6)
    query = corpus.rows[4].copy()
    manifest = nearest_text_dataset([(query, "n00000001")], corpus, min_sim=0.7)
    assert len(manifest.rows) == 1
    instance_id, wnid, score = candidate_rows(manifest.rows)[0]
    assert instance_id == "c4"
    assert wnid == "n00000001"
    assert score == pytest.approx(1.0, abs=1e-9)


def test_nearest_text_drops_below_threshold():
    corpus = embeddings(["c0", "c1"], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    manifest = nearest_text_dataset([([1.0, 0.0, 0.0], "n00000001")], corpus, min_sim=0.7)
    assert len(manifest.rows) == 0
    assert manifest.drop_ledger["below_min_sim"] == 1


def test_nearest_text_monotone_in_min_sim(rng):
    corpus = random_matrix(rng, [f"c{i}" for i in range(30)], 5)
    queries = [(rng.standard_normal(5), f"n{j:08d}") for j in range(1, 21)]
    sizes = []
    for min_sim in (0.0, 0.3, 0.6, 0.9):
        manifest = nearest_text_dataset(queries, corpus, min_sim)
        assert all(score >= min_sim for score in manifest.rows.scores)
        sizes.append(len(manifest.rows))
    assert sizes == sorted(sizes, reverse=True)


def test_nearest_text_collapses_duplicates():
    corpus = embeddings(["c0"], [[1.0, 0.0]])
    queries = [
        ([1.0, 0.0], "n00000002"),
        ([2.0, 0.0], "n00000001"),  # same direction: same neighbor, same score
    ]
    manifest = nearest_text_dataset(queries, corpus, min_sim=0.5)
    assert len(manifest.rows) == 1
    assert manifest.rows.wnids == ["n00000001"]  # tie resolved to the smaller wnid
    assert manifest.drop_ledger["duplicate_neighbor"] == 1


def test_nearest_text_empty_corpus():
    corpus = EmbeddingMatrix(rows=np.empty((0, 3), dtype=np.float32), ids=[])
    with pytest.raises(ValidationError, match="empty"):
        nearest_text_dataset([([1.0, 0.0, 0.0], "n00000001")], corpus, 0.5)


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
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 6 * corpus.count)  # blocks of 6 queries
    for min_sim in (-1.0, 0.3):
        manifest = nearest_text_dataset(queries, corpus, min_sim)
        got = candidate_rows(manifest.rows)
        assert got == nearest_text_oracle(queries, corpus, min_sim)
    tied = [i for i, w, _ in candidate_rows(manifest.rows) if w in ("n00000031", "n00000032")]
    assert tied == [min(ids[i] for i in (2, 7, 19, 30))]


# -- cross_modal_class_stats ------------------------------------------------------


def test_cross_modal_identity():
    synsets = embeddings(["n00000001"], [[0.6, 0.8]])
    images = embeddings(["i0", "i1"], [[0.6, 0.8], [1.2, 1.6]])
    manifest = manifest_of([("i0", "n00000001"), ("i1", "n00000001")])
    stats = cross_modal_class_stats(manifest, images, synsets, n_boot=100, seed=0)
    assert stats[0].value == pytest.approx(1.0, abs=1e-9)


def test_cross_modal_hand_mean():
    synsets = embeddings(["n00000001"], [[1.0, 0.0]])
    images = embeddings(
        ["i0", "i1"],
        [[0.2, math.sqrt(1 - 0.2**2)], [0.4, math.sqrt(1 - 0.4**2)]],
    )
    manifest = manifest_of([("i0", "n00000001"), ("i1", "n00000001")])
    stats = cross_modal_class_stats(manifest, images, synsets, n_boot=100, seed=0)
    assert stats[0].value == pytest.approx(0.3, abs=1e-6)
    assert stats[0].n == 2


def test_cross_modal_dim_mismatch(rng):
    synsets = random_matrix(rng, ["n00000001"], 3)
    images = random_matrix(rng, ["i0"], 4)
    with pytest.raises(ValidationError, match="mismatch"):
        cross_modal_class_stats(manifest_of([("i0", "n00000001")]), images, synsets)


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
        s = cross_modal_class_stats(manifest, images, synsets, n_boot=800, seed=trial)[0]
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
