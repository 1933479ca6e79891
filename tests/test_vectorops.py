from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from capsieve import vectorops
from capsieve.corpus import EmbeddingFile, EmbeddingMatrix, load_embeddings, write_embeddings
from capsieve.errors import ValidationError
from capsieve.vectorops import cosine, cosine_blocks, nearest_rows, pair_cosine, triangle_blocks

from oracles import argmax_class, nearest_neighbor


def matrix(rows, ids):
    return EmbeddingMatrix(rows=np.asarray(rows, dtype=np.float32), ids=ids)


def full_sort_oracle(query, m, k):
    """Independent ranking: per-pair cosine, full sort by (-score, id)."""
    pairs = [(m.ids[i], cosine(query, m.rows[i])) for i in range(m.count)]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs[:k]


def scan(queries, m):
    """The full score array of `cosine_blocks`, assembled from its tiles,
    checking that the tiles cover every (query, row) pair exactly once and
    that no tile, row chunk or query block exceeds its bound."""
    bound = max(vectorops._BLOCK_SCORES, m.dim)
    out = np.full((len(queries), m.count), np.nan)
    seen = np.zeros(out.shape, dtype=int)
    for start, lo, scores in cosine_blocks(queries, m):
        assert scores.size <= vectorops._BLOCK_SCORES
        assert len(scores) * m.dim <= bound and scores.shape[1] * m.dim <= bound
        out[start : start + len(scores), lo : lo + scores.shape[1]] = scores
        seen[start : start + len(scores), lo : lo + scores.shape[1]] += 1
    assert (seen == 1).all()
    return out


def nearest_row(query, m):
    """`nearest_rows` for one query, as the (id, score) `nearest_neighbor` returns."""
    (row,), (score,) = nearest_rows([query], m)
    return m.ids[row], float(score)


# each nearest-row contract holds for the package's `nearest_rows` and for its oracle
NEAREST = (nearest_row, nearest_neighbor)


def test_cosine_identity(rng):
    v = rng.standard_normal(16).astype(np.float32)
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)


def test_cosine_orthogonal():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_value():
    # dot = 1, |a| = sqrt(2), |b| = 1  ->  1/sqrt(2)
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-7)


def test_cosine_errors():
    with pytest.raises(ValidationError, match="mismatch"):
        cosine([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="zero"):
        cosine([0.0, 0.0], [1.0, 0.0])


def test_cosine_symmetry_bitwise(rng):
    for _ in range(100):
        a = rng.standard_normal(33).astype(np.float32)
        b = rng.standard_normal(33).astype(np.float32)
        assert cosine(a, b) == cosine(b, a)


def test_cosine_range(rng):
    for _ in range(200):
        a = rng.standard_normal(8).astype(np.float32) * 100
        b = rng.standard_normal(8).astype(np.float32) * 0.01
        assert -1.0 - 1e-6 <= cosine(a, b) <= 1.0 + 1e-6


def test_batch_matches_scalar_bitwise(rng):
    m = matrix(rng.standard_normal((50, 12)).astype(np.float32), [f"r{i:02d}" for i in range(50)])
    q = rng.standard_normal(12).astype(np.float32)
    scores = scan([q], m)[0]
    for i in range(m.count):
        assert scores[i] == cosine(q, m.rows[i])


def test_shard_invariance_bitwise(rng):
    rows = rng.standard_normal((40, 7)).astype(np.float32)
    m = matrix(rows, [f"r{i:02d}" for i in range(40)])
    q = rng.standard_normal(7).astype(np.float32)
    full = scan([q], m)[0]
    for lo, hi in [(0, 13), (13, 29), (29, 40)]:
        shard = matrix(rows[lo:hi], [f"r{i:02d}" for i in range(lo, hi)])
        assert (scan([q], shard)[0] == full[lo:hi]).all()


def test_argmax_rank1_is_query_row(rng):
    rows = rng.standard_normal((6, 5)).astype(np.float32)
    m = matrix(rows, [f"r{i}" for i in range(6)])
    for nearest in NEAREST:
        rid, score = nearest(rows[3], m)
        assert rid == "r3"
        assert score == pytest.approx(1.0, abs=1e-9)


def test_argmax_tie_broken_by_id():
    # two identical rows: exactly equal scores, the smaller id wins
    m = matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["zz", "aa", "mm"])
    for nearest in NEAREST:
        assert nearest([2.0, 0.0], m)[0] == "aa"


def test_argmax_matches_full_sort_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 9))
        m = matrix(rng.standard_normal((n, d)).astype(np.float32), [f"r{i}" for i in range(n)])
        q = rng.standard_normal(d).astype(np.float32)
        for nearest in NEAREST:
            assert nearest(q, m) == full_sort_oracle(q, m, 1)[0]


def test_scale_invariance_exact_for_power_of_two(rng):
    m = matrix(rng.standard_normal((10, 6)).astype(np.float32), [f"r{i}" for i in range(10)])
    q = rng.standard_normal(6).astype(np.float32)
    base = scan([q], m)
    for c in (2.0, 0.5, 4.0):
        assert scan([q * c], m).tobytes() == base.tobytes()
        for nearest in NEAREST:
            assert nearest(q * c, m) == nearest(q, m)


def test_scale_invariance_ranking_for_general_scale(rng):
    m = matrix(rng.standard_normal((10, 6)).astype(np.float32), [f"r{i}" for i in range(10)])
    q = rng.standard_normal(6).astype(np.float32)
    base_order = np.argsort(-scan([q], m)[0]).tolist()
    for c in (3.7, 0.013, 812.0):
        scaled = (q.astype(np.float64) * c).astype(np.float32)
        assert np.argsort(-scan([scaled], m)[0]).tolist() == base_order
        for nearest in NEAREST:
            assert nearest(scaled, m)[0] == nearest(q, m)[0]


def test_nearest_neighbor_single_row():
    m = matrix([[0.5, 0.5]], ["only"])
    for nearest in NEAREST:
        rid, score = nearest([1.0, 1.0], m)
        assert rid == "only"
        assert score == pytest.approx(1.0, abs=1e-9)


def test_nearest_neighbor_orthogonal_but_one():
    m = matrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.1, 0.0]], ["u", "v", "w"])
    for nearest in NEAREST:
        assert nearest([1.0, 0.0, 0.0], m)[0] == "w"


def test_nearest_neighbor_equals_argmax(rng):
    for _ in range(100):
        n = int(rng.integers(1, 12))
        m = matrix(rng.standard_normal((n, 4)).astype(np.float32), [f"r{i}" for i in range(n)])
        q = rng.standard_normal(4).astype(np.float32)
        expected = full_sort_oracle(q, m, 1)[0]
        assert nearest_row(q, m) == nearest_neighbor(q, m) == argmax_class(q, m, 1)[0] == expected


def test_empty_matrix_rejected():
    m = EmbeddingMatrix(rows=np.empty((0, 3), dtype=np.float32), ids=[])
    for nearest in NEAREST:
        with pytest.raises(ValidationError, match="empty"):
            nearest([1.0, 0.0, 0.0], m)


# -- tiles and pair kernels --------------------------------------------------------


def scaled_rows(rng, n, d):
    """Rows of widely different norms, so the norms matter to every score."""
    rows = rng.standard_normal((n, d)) * rng.uniform(0.01, 100.0, size=(n, 1))
    return rows.astype(np.float32)


# d = 20000 is past einsum's 8192-value buffer, where a lone pair of rows
# would otherwise be added up in pieces
@pytest.mark.parametrize("d", [7, 64, 512, 768, 20000])
@pytest.mark.parametrize("block", [1, 5, None])
def test_block_kernel_equals_scalar_bitwise(rng, monkeypatch, d, block):
    m = matrix(scaled_rows(rng, 23, d), [f"r{i:02d}" for i in range(23)])
    queries = scaled_rows(rng, 12, d)
    if block is not None:  # query blocks and row chunks of `block`
        monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block * d)
        assert [(start, lo) for start, lo, _ in cosine_blocks(queries, m)] == [
            (start, lo) for lo in range(0, 23, block) for start in range(0, 12, block)
        ]
    scores = scan(queries, m)
    for q in range(len(queries)):
        for i in range(m.count):
            assert scores[q, i] == cosine(queries[q], m.rows[i])


# The tiles of a scan: counts on either side of a chunk boundary, d on
# either side of einsum's 8192-value buffer, and past it.
@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    d=st.sampled_from([5, 8191, 8192, 8193, 20000]),
    width=st.integers(1, 4),
    chunks=st.integers(0, 3),
    extra=st.integers(-1, 1),
    n_queries=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=8193, width=3, chunks=2, extra=1, n_queries=1, seed=0)  # last chunk: 1 row, 1 query
@example(d=8193, width=1, chunks=1, extra=0, n_queries=1, seed=0)  # one row, one query
@example(d=20000, width=2, chunks=2, extra=1, n_queries=3, seed=0)  # 1-row chunk, 1-query block
def test_row_chunks_equal_scalar_bitwise(d, width, chunks, extra, n_queries, seed):
    rng = np.random.default_rng(seed)
    count = max(1, width * chunks + extra)
    m = matrix(scaled_rows(rng, count, d), [f"r{i}" for i in range(count)])
    queries = scaled_rows(rng, n_queries, d)
    with mock.patch.object(vectorops, "_BLOCK_SCORES", width * d):
        scores = scan(queries, m)
    for q in range(n_queries):
        for i in range(count):
            assert scores[q, i] == cosine(queries[q], m.rows[i])


def test_scan_holds_no_float64_copy_of_the_matrix(rng):
    # 600 queries make three query blocks at d = 512: one scan holds a query
    # block, a row chunk and a tile of at most _BLOCK_SCORES values each
    rows = rng.standard_normal((4000, 512)).astype(np.float32)
    m = matrix(rows, [f"r{i}" for i in range(4000)])
    queries = rng.standard_normal((600, 512)).astype(np.float32)
    bound = 4 * vectorops._BLOCK_SCORES * 8  # 4 MiB: 1 MiB buffers and their temporaries
    for reduce in (lambda: sum(1 for _ in cosine_blocks(queries, m)),
                   lambda: nearest_rows(queries, m)):
        tracemalloc.start()
        try:
            reduce()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound < rows.nbytes, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("d", [7, 512, 20000])
@pytest.mark.parametrize("block", [1, 5, None])
def test_triangle_blocks_are_the_upper_part_of_the_full_blocks(rng, monkeypatch, d, block):
    rows = scaled_rows(rng, 12, d)
    if block is not None:  # triangle blocks of `block` rows
        monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block * 12)
    full = scan(rows, matrix(rows, [f"r{i:02d}" for i in range(12)]))
    triangle = list(triangle_blocks(rows))
    assert [start for start, _ in triangle] == list(range(0, 12, block or 12))
    for start, scores in triangle:
        held = full[start : start + len(scores), start:]
        assert scores.shape == held.shape
        assert scores.tobytes() == held.tobytes()
    with pytest.raises(ValidationError, match="zero"):
        list(triangle_blocks(np.vstack([rows[:3], np.zeros((1, d))])))


@pytest.mark.parametrize("d", [9, 20000])
def test_one_query_tiles_equal_the_block_rows(rng, d):
    m = matrix(scaled_rows(rng, 30, d), [f"r{i:02d}" for i in range(30)])
    queries = scaled_rows(rng, 4, d)
    scores = scan(queries, m)
    for q, row in zip(queries, scores):
        assert scan([q], m)[0].tobytes() == row.tobytes()
        lone = matrix(m.rows[:1], ["r00"])  # one query against one row
        assert scan([q], lone)[0, 0] == row[0]


@pytest.mark.parametrize("d", [7, 64, 512, 768, 20000])
def test_pair_kernel_equals_cosine_bitwise(rng, d):
    a, b = scaled_rows(rng, 40, d), scaled_rows(rng, 40, d)
    scores = pair_cosine(a, b)
    assert scores.dtype == np.float64
    for i in range(40):
        assert scores[i] == cosine(a[i], b[i])


@pytest.mark.parametrize("d", [7, 64, 512, 20000])
@pytest.mark.parametrize("n", [1, 2, 40])
def test_pair_kernel_scores_one_vector_as_its_broadcast_copy(rng, n, d):
    a, vec = scaled_rows(rng, n, d), scaled_rows(rng, 1, d)[0]
    scores = pair_cosine(a, vec)
    assert scores.tobytes() == pair_cosine(a, np.tile(vec, (n, 1))).tobytes()
    assert [float(s) for s in scores] == [cosine(row, vec) for row in a]


def test_kernel_errors(rng):
    # `cosine_blocks` checks its queries when called, before any tile is taken
    m = matrix(scaled_rows(rng, 3, 4), ["a", "b", "c"])
    with pytest.raises(ValidationError, match="mismatch"):
        cosine_blocks(np.ones((2, 5)), m)
    with pytest.raises(ValidationError, match="mismatch"):
        cosine_blocks([np.ones(4), np.ones(3)], m)
    with pytest.raises(ValidationError, match="zero"):
        cosine_blocks(np.zeros((1, 4)), m)
    with pytest.raises(ValidationError, match="mismatch"):
        pair_cosine(np.ones((2, 4)), np.ones((2, 3)))
    with pytest.raises(ValidationError, match="zero"):
        pair_cosine(np.ones((2, 4)), np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
    with pytest.raises(ValidationError, match="mismatch"):
        pair_cosine(np.ones((2, 4)), np.ones(3))
    with pytest.raises(ValidationError, match="zero"):
        pair_cosine(np.ones((2, 4)), np.zeros(4))
    with pytest.raises(ValidationError, match="empty"):
        nearest_rows([np.ones(3)], EmbeddingMatrix(rows=np.empty((0, 3), dtype=np.float32), ids=[]))
    with pytest.raises(ValidationError, match="mismatch"):
        nearest_rows([np.ones(5)], m)


@pytest.mark.parametrize("ids", [["a\x00", "a"], ["a", "a\x00"]])
def test_nearest_rows_ties_go_to_the_smallest_id_in_python_order(ids):
    # numpy's unicode dtype drops trailing NULs, and would read both ids as "a"
    m = matrix([[1.0, 2.0], [1.0, 2.0], [2.0, -1.0]], ids + ["b"])
    (row,), _ = nearest_rows([np.array([1.0, 1.0])], m)
    assert m.ids[row] == "a"


def test_nearest_rows_matches_oracle_across_blocks_with_ties(rng, monkeypatch):
    rows = scaled_rows(rng, 20, 6)
    rows[[3, 11, 17]] = rows[5]  # exact ties among four ids
    rows[8] = rows[5] * 4.0  # a power-of-two multiple ties exactly too
    m = matrix(rows, [f"r{int(i):02d}" for i in rng.permutation(20)])
    queries = np.concatenate([scaled_rows(rng, 9, 6), rows[[5, 3]]])
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 4 * 6)  # blocks of 4 queries, chunks of 4 rows
    got = list(zip(*nearest_rows(queries, m)))
    assert [(m.ids[row], float(score)) for row, score in got] == [
        nearest_neighbor(q, m) for q in queries
    ]


# Rows tied exactly with a planted row, in other chunks and query blocks:
# copies and power-of-two multiples of it, under permuted ids.
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    count=st.integers(1, 40),
    d=st.integers(1, 9),
    n_queries=st.integers(1, 12),
    block=st.integers(1, 6),
    ties=st.lists(st.tuples(st.integers(0, 39), st.sampled_from([1.0, 2.0, 0.25, 8.0]))),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_rows_equals_the_oracle_with_planted_ties(
    count, d, n_queries, block, ties, seed
):
    rng = np.random.default_rng(seed)
    rows = scaled_rows(rng, count, d)
    for i, scale in ties:
        rows[i % count] = rows[0] * np.float32(scale)
    m = matrix(rows, [f"r{int(i)}" for i in rng.permutation(count)])
    queries = scaled_rows(rng, n_queries, d)
    queries[:: 2] = rows[rng.integers(0, count, size=len(queries[::2]))]  # queries on a tied row
    with mock.patch.object(vectorops, "_BLOCK_SCORES", block * d):
        got = list(zip(*nearest_rows(queries, m)))
    assert [(m.ids[row], float(score)) for row, score in got] == [
        nearest_neighbor(q, m) for q in queries
    ]


def test_a_streamed_file_scans_bitwise_as_the_loaded_matrix(tmp_path, rng):
    # 600 rows at d = 512 are read in row chunks of 256, 256 and 88; 300
    # queries make query blocks of 256 and 44
    rows = scaled_rows(rng, 600, 512)
    rows[[255, 256, 511, 512, 599]] = rows[100]  # exact ties on either side of each chunk edge
    ids = [f"r{int(i):03d}" for i in rng.permutation(600)]
    path = tmp_path / "corpus.emb"
    write_embeddings(matrix(rows, ids), path)
    queries = scaled_rows(rng, 300, 512)
    queries[::50] = rows[100]
    loaded, streamed = load_embeddings(path), EmbeddingFile(path)
    tiles = [(start, lo, scores.tobytes()) for start, lo, scores in cosine_blocks(queries, loaded)]
    assert [(start, lo) for start, lo, _ in tiles] == [
        (start, lo) for lo in (0, 256, 512) for start in (0, 256)
    ]
    assert [(start, lo, s.tobytes()) for start, lo, s in cosine_blocks(queries, streamed)] == tiles
    best, score = nearest_rows(queries, streamed)
    whole_best, whole_score = nearest_rows(queries, loaded)
    assert best.tobytes() == whole_best.tobytes() and score.tobytes() == whole_score.tobytes()
    assert [(ids[row], float(s)) for row, s in zip(best[::50], score[::50])] == [
        nearest_neighbor(q, loaded) for q in queries[::50]
    ]


# Files of 1 to 20 rows at d = 3, scanned in row chunks of 1 to 5 rows.
@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    count=st.integers(1, 20),
    n_queries=st.integers(1, 9),
    block=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_nearest_rows_equal_the_loaded_matrix_across_chunk_edges(
    tmp_path, count, n_queries, block, seed
):
    rng = np.random.default_rng(seed)
    rows = scaled_rows(rng, count, 3)
    rows[rng.integers(0, count, size=count // 3)] = rows[0]  # ties in other chunks
    path = tmp_path / "corpus.emb"
    write_embeddings(matrix(rows, [f"r{int(i)}" for i in rng.permutation(count)]), path)
    queries = scaled_rows(rng, n_queries, 3)
    queries[::2] = rows[0]
    with mock.patch.object(vectorops, "_BLOCK_SCORES", block * 3):
        got = nearest_rows(queries, EmbeddingFile(path))
        want = nearest_rows(queries, load_embeddings(path))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_streamed_scan_holds_no_copy_of_the_file(tmp_path, rng):
    path = tmp_path / "corpus.emb"
    write_embeddings(matrix(rng.standard_normal((4000, 512)), [f"r{i}" for i in range(4000)]), path)
    streamed = EmbeddingFile(path)
    queries = rng.standard_normal((600, 512)).astype(np.float32)
    tracemalloc.start()
    try:
        nearest_rows(queries, streamed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scan's float64 buffers and the file's float32 chunk; the payload is 7.8 MiB
    assert peak < 5 * vectorops._BLOCK_SCORES * 8, f"peak {peak / 2**20:.2f} MiB"


# Names of numpy's BLAS routes. No reported number may pass through one:
# BLAS may change its summation order with the operand shapes (see the
# vectorops docstring), and calling none is also why the CLI can leave
# OpenBLAS on one thread.
BLAS_NAMES = frozenset(
    {"dot", "matmul", "inner", "vdot", "tensordot", "outer", "kron", "cov", "corrcoef",
     "lstsq", "linalg"}
)


def blas_routes(source: str) -> list[str]:
    """Every BLAS route in a module's source, as "line N: what": the `@`
    operator, an attribute or import named in BLAS_NAMES, and an einsum
    whose optimize= is not the literal False (an optimized einsum may
    contract through tensordot)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{where}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{where}: .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            hits = sorted({part for name in names for part in name.split(".")} & BLAS_NAMES)
            found += [f"{where}: import {hit}" for hit in hits]
        elif isinstance(node, ast.Call) and "einsum" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        ):
            for kw in node.keywords:
                literal_false = isinstance(kw.value, ast.Constant) and kw.value.value is False
                if kw.arg is None or (kw.arg == "optimize" and not literal_false):
                    found.append(f"{where}: einsum {ast.unparse(kw)}")
    return found


def test_the_package_calls_no_blas():
    sources = sorted(Path(vectorops.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    routes = {p.name: blas_routes(p.read_text(encoding="utf-8")) for p in sources}
    assert {name: found for name, found in routes.items() if found} == {}


def imported_names(source: str) -> set[str]:
    """Each part of every dotted module name that a module's source
    imports, anywhere in it, and each name a `from` import takes."""
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            parts.update(part for name in names for part in name.split("."))
    return parts


def test_only_the_cli_imports_provenance():
    # a run's config is digested once, by the stage runner, into provenance.json
    sources = sorted(Path(vectorops.__file__).parent.glob("*.py"))
    importers = {p.stem for p in sources
                 if "provenance" in imported_names(p.read_text(encoding="utf-8"))}
    assert importers == {"cli"}


@pytest.mark.parametrize(
    "source, found",
    [
        ("c = a @ b", ["line 1: @"]),
        ("c @= b", ["line 1: @"]),
        ("s = np.dot(a, b)", ["line 1: .dot"]),
        ("s = a.dot(b)", ["line 1: .dot"]),
        ("n = np.linalg.norm(a)", ["line 1: .linalg"]),
        ("x = 1\nfrom numpy.linalg import norm", ["line 2: import linalg"]),
        ("from numpy import einsum, outer", ["line 1: import outer"]),
        ("import numpy.linalg as la", ["line 1: import linalg"]),
        ("np.einsum('ij,jk->ik', a, b, optimize=True)", ["line 1: einsum optimize=True"]),
        ("einsum('ij,jk->ik', a, b, optimize='greedy')", ["line 1: einsum optimize='greedy'"]),
        ("np.einsum('ij,jk->ik', a, b, **opts)", ["line 1: einsum **opts"]),
        ("np.einsum('ij,ij->i', a, b)", []),
        ("np.einsum('ij,ij->i', a, b, optimize=False)", []),
        ("@dataclass\nclass A:\n    inner_rows: int = 0", []),
    ],
)
def test_blas_scan_finds_each_route(source, found):
    assert blas_routes(source) == found
