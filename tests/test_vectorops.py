from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capsieve import vectorops
from capsieve.corpus import EmbeddingMatrix
from capsieve.errors import ValidationError
from capsieve.vectorops import (
    batch_cosine,
    cosine,
    cosine_blocks,
    pair_cosine,
    top_k,
    triangle_blocks,
)

from oracles import argmax_class, nearest_neighbor


def matrix(rows, ids):
    return EmbeddingMatrix(rows=np.asarray(rows, dtype=np.float32), ids=ids)


def full_sort_oracle(query, m, k):
    """Independent ranking: per-pair cosine, full sort by (-score, id)."""
    pairs = [(m.ids[i], cosine(query, m.rows[i])) for i in range(m.count)]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return pairs[:k]


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
    scores = batch_cosine(q, m)
    for i in range(m.count):
        assert scores[i] == cosine(q, m.rows[i])


def test_shard_invariance_bitwise(rng):
    rows = rng.standard_normal((40, 7)).astype(np.float32)
    m = matrix(rows, [f"r{i:02d}" for i in range(40)])
    q = rng.standard_normal(7).astype(np.float32)
    full = batch_cosine(q, m)
    for lo, hi in [(0, 13), (13, 29), (29, 40)]:
        shard = matrix(rows[lo:hi], [f"r{i:02d}" for i in range(lo, hi)])
        assert (batch_cosine(q, shard) == full[lo:hi]).all()


def top_k_ranked(query, m, k):
    """`top_k` for one query, as the (id, score) list `argmax_class` returns."""
    order, scores = next(top_k([query], m, k))
    return [(m.ids[i], float(s)) for i, s in zip(order, scores)]


def top_k_nearest(query, m):
    return top_k_ranked(query, m, 1)[0]


# each ranking contract holds for the package's `top_k` and for its oracle
RANKERS = (top_k_ranked, argmax_class)
NEAREST = (top_k_nearest, nearest_neighbor)


def test_argmax_rank1_is_query_row(rng):
    rows = rng.standard_normal((6, 5)).astype(np.float32)
    m = matrix(rows, [f"r{i}" for i in range(6)])
    for rank in RANKERS:
        top = rank(rows[3], m, 1)
        assert top[0][0] == "r3"
        assert top[0][1] == pytest.approx(1.0, abs=1e-9)


def test_argmax_tie_broken_by_id():
    # two identical rows: exactly equal scores, smaller id must come first
    m = matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ["zz", "aa", "mm"])
    for rank in RANKERS:
        assert [t[0] for t in rank([2.0, 0.0], m, 2)] == ["aa", "zz"]
        assert rank([2.0, 0.0], m, 1)[0][0] == "aa"


def test_argmax_matches_full_sort_oracle(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 9))
        m = matrix(rng.standard_normal((n, d)).astype(np.float32), [f"r{i}" for i in range(n)])
        q = rng.standard_normal(d).astype(np.float32)
        k = int(rng.integers(1, n + 1))
        for rank in RANKERS:
            assert rank(q, m, k) == full_sort_oracle(q, m, k)


def test_argmax_k_bounds(rng):
    m = matrix(rng.standard_normal((3, 4)).astype(np.float32), ["a", "b", "c"])
    q = np.ones(4, dtype=np.float32)
    for rank in RANKERS:
        with pytest.raises(ValidationError, match="out of range"):
            rank(q, m, 0)
        with pytest.raises(ValidationError, match="out of range"):
            rank(q, m, 4)


def test_scale_invariance_exact_for_power_of_two(rng):
    m = matrix(rng.standard_normal((10, 6)).astype(np.float32), [f"r{i}" for i in range(10)])
    q = rng.standard_normal(6).astype(np.float32)
    for rank in RANKERS:
        base = rank(q, m, 10)
        for c in (2.0, 0.5, 4.0):
            assert rank(q * c, m, 10) == base


def test_scale_invariance_ranking_for_general_scale(rng):
    m = matrix(rng.standard_normal((10, 6)).astype(np.float32), [f"r{i}" for i in range(10)])
    q = rng.standard_normal(6).astype(np.float32)
    for rank in RANKERS:
        base_ids = [t[0] for t in rank(q, m, 10)]
        for c in (3.7, 0.013, 812.0):
            scaled = rank((q.astype(np.float64) * c).astype(np.float32), m, 10)
            assert [t[0] for t in scaled] == base_ids


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
        assert top_k_nearest(q, m) == nearest_neighbor(q, m) == argmax_class(q, m, 1)[0] == expected


def test_empty_matrix_rejected():
    m = EmbeddingMatrix(rows=np.empty((0, 3), dtype=np.float32), ids=[])
    for nearest in NEAREST:
        with pytest.raises(ValidationError, match="empty"):
            nearest([1.0, 0.0, 0.0], m)


# -- block and pair kernels ------------------------------------------------------


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
    if block is not None:  # split the 12 queries into blocks of `block`
        monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block * m.count)
    starts = []
    for start, scores in cosine_blocks(queries, m):
        starts.append(start)
        assert scores.shape == (min(block or 12, 12 - start), m.count)
        for q, row in enumerate(scores):
            for i in range(m.count):
                assert row[i] == cosine(queries[start + q], m.rows[i])
    assert starts == list(range(0, 12, block or 12))


# The matrix is read in row chunks of `width` rows: counts on either side of
# a chunk boundary, d on either side of einsum's 8192-value buffer.
@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    d=st.sampled_from([5, 8191, 8192, 8193]),
    width=st.integers(1, 4),
    chunks=st.integers(0, 3),
    extra=st.integers(-1, 1),
    n_queries=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=8193, width=3, chunks=2, extra=1, n_queries=1, seed=0)  # last chunk: 1 row, 1 query
@example(d=8193, width=1, chunks=1, extra=0, n_queries=1, seed=0)  # one row, one query
def test_row_chunks_equal_scalar_bitwise(d, width, chunks, extra, n_queries, seed):
    rng = np.random.default_rng(seed)
    count = max(1, width * chunks + extra)
    m = matrix(scaled_rows(rng, count, d), [f"r{i}" for i in range(count)])
    queries = scaled_rows(rng, n_queries, d)
    with mock.patch.object(vectorops, "_BLOCK_SCORES", width * d):
        blocks = list(cosine_blocks(queries, m))
    scores = np.concatenate([block for _, block in blocks])
    assert scores.shape == (n_queries, count)
    for q in range(n_queries):
        for i in range(count):
            assert scores[q, i] == cosine(queries[q], m.rows[i])


def test_scan_holds_no_float64_copy_of_the_matrix(rng):
    rows = rng.standard_normal((4000, 512)).astype(np.float32)
    m = matrix(rows, [f"r{i}" for i in range(4000)])
    queries = rng.standard_normal((4, 512)).astype(np.float32)
    tracemalloc.start()
    try:
        for _ in cosine_blocks(queries, m):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("d", [7, 512, 20000])
@pytest.mark.parametrize("block", [1, 5, None])
def test_triangle_blocks_are_the_upper_part_of_the_full_blocks(rng, monkeypatch, d, block):
    rows = scaled_rows(rng, 12, d)
    if block is not None:
        monkeypatch.setattr(vectorops, "_BLOCK_SCORES", block * 12)
    full = list(cosine_blocks(rows, matrix(rows, [f"r{i:02d}" for i in range(12)])))
    triangle = list(triangle_blocks(rows))
    assert [start for start, _ in triangle] == [start for start, _ in full]
    for (start, scores), (_, full_scores) in zip(triangle, full):
        assert scores.shape == (len(full_scores), 12 - start)
        assert scores.tobytes() == full_scores[:, start:].tobytes()
    with pytest.raises(ValidationError, match="zero"):
        list(triangle_blocks(np.vstack([rows[:3], np.zeros((1, d))])))


@pytest.mark.parametrize("d", [9, 20000])
def test_batch_cosine_is_the_one_query_block(rng, d):
    m = matrix(scaled_rows(rng, 30, d), [f"r{i:02d}" for i in range(30)])
    queries = scaled_rows(rng, 4, d)
    (_, scores), = cosine_blocks(queries, m)
    for q, row in zip(queries, scores):
        assert (batch_cosine(q, m) == row).all()
        lone = matrix(m.rows[:1], ["r00"])  # one query against one row
        assert batch_cosine(q, lone)[0] == row[0]


@pytest.mark.parametrize("d", [7, 64, 512, 768, 20000])
def test_pair_kernel_equals_cosine_bitwise(rng, d):
    a, b = scaled_rows(rng, 40, d), scaled_rows(rng, 40, d)
    scores = pair_cosine(a, b)
    assert scores.dtype == np.float64
    for i in range(40):
        assert scores[i] == cosine(a[i], b[i])


def test_kernel_errors(rng):
    m = matrix(scaled_rows(rng, 3, 4), ["a", "b", "c"])
    with pytest.raises(ValidationError, match="mismatch"):
        list(cosine_blocks(np.ones((2, 5)), m))
    with pytest.raises(ValidationError, match="mismatch"):
        list(cosine_blocks([np.ones(4), np.ones(3)], m))
    with pytest.raises(ValidationError, match="zero"):
        list(cosine_blocks(np.zeros((1, 4)), m))
    with pytest.raises(ValidationError, match="mismatch"):
        pair_cosine(np.ones((2, 4)), np.ones((2, 3)))
    with pytest.raises(ValidationError, match="zero"):
        pair_cosine(np.ones((2, 4)), np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
    with pytest.raises(ValidationError, match="empty"):
        top_k([np.ones(3)], EmbeddingMatrix(rows=np.empty((0, 3), dtype=np.float32), ids=[]), 1)
    with pytest.raises(ValidationError, match="out of range"):
        top_k([np.ones(4)], m, 4)


def test_top_k_matches_oracle_across_blocks_with_ties(rng, monkeypatch):
    rows = scaled_rows(rng, 20, 6)
    rows[[3, 11, 17]] = rows[5]  # exact ties among four ids
    rows[8] = rows[5] * 4.0  # a power-of-two multiple ties exactly too
    m = matrix(rows, [f"r{int(i):02d}" for i in rng.permutation(20)])
    queries = np.concatenate([scaled_rows(rng, 9, 6), rows[[5, 3]]])
    monkeypatch.setattr(vectorops, "_BLOCK_SCORES", 4 * m.count)
    for k in (1, 2, 7, 20):
        for q, (order, scores) in zip(queries, top_k(queries, m, k)):
            assert [(m.ids[i], float(s)) for i, s in zip(order, scores)] == argmax_class(q, m, k)


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
