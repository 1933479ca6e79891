"""Exact cosine-similarity kernels.

Exactness contract: every score is accumulated in float64, whatever the
input dtype, and is bitwise equal to the scalar `cosine` of its pair. A
score never depends on which other rows or queries share a call, so
sharded or blocked scans are bitwise identical to serial ones. Two kernels
carry the contract:

- `cosine_blocks`, many queries against every row of a matrix: the
  package's one query-vs-matrix scan. It yields tiles, one bounded block
  of queries against one float64 row chunk, each scored with
  einsum("ij,kj->ki"). A row chunk, a query block and a tile each hold at
  most max(2**17, dim) values (1 MiB of float64 at d <= 2**17), sized by
  the dimension, not by the matrix's row count. The row-chunk loop is the
  outer one: each row chunk is read and converted to float64 once, so no
  float64 copy of the whole matrix is made, and the matrix may be an
  `EmbeddingFile` that is read from disk chunk by chunk, once.
  `nearest_rows` keeps a running best over the tiles. `triangle_blocks`
  scores a matrix against itself, each query block only against the rows
  from its own start on, so no pair is scored twice.
- `pair_cosine`, row i of one array against row i of another, or every
  row against one vector, with einsum("ij,ij->i") over the gathered pairs;
  one vector is broadcast, never copied per row. `cosine` is its one-pair
  case.

Both contract with einsum, never with BLAS (`@`, `np.dot`, `matmul`): a
BLAS kernel may change its summation order with the operand shapes, and
`Q @ A.T` differs from `cosine` by up to 1e-13. Every cosine score in the
package, the within-class image pairs of `diagnose intra` included, comes
from one of these two kernels.

No approximate index is provided by design; exact scans keep every
downstream statistic reproducible and testable. The module only scores:
finding an id's row is `EmbeddingMatrix.positions`, in `corpus`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .corpus import EmbeddingFile, EmbeddingMatrix
from .errors import ValidationError

# Values in one row chunk, query block or tile of `cosine_blocks`, and
# scores in one query block of `triangle_blocks`: 1 MiB of float64 each.
_BLOCK_SCORES = 1 << 17


def _f64(a) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def _contract(subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.einsum of two 2-D float64 operands.

    numpy's einsum may add up a contraction with a single output element
    in pieces of its buffer (8192 values), and any other in one pass. So a
    lone pair of rows is contracted as the first of two identical pairs:
    at any dimension, a score never depends on how many rows share a call.
    """
    if len(a) == 1 and len(b) == 1:
        out = np.einsum(subscripts, np.concatenate([a, a]), np.concatenate([b, b]))
        return out[(slice(0, 1),) * out.ndim]
    return np.einsum(subscripts, a, b)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_contract("ij,ij->i", rows, rows))


def pair_cosine(a, b) -> np.ndarray:
    """Cosine of row i of `a` with row i of `b`, for every i; element i
    equals cosine(a[i], b[i]) bitwise. A 1-D `b` is one vector scored
    against every row: element i equals cosine(a[i], b), and `b` and its
    norm are neither copied nor recomputed per row.

    Raises ValidationError when the shapes differ or a row is all zero.
    """
    a, b = _f64(a), _f64(b)
    if a.ndim != 2 or b.shape not in (a.shape, a.shape[1:]):
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = _row_norms(a), _row_norms(np.atleast_2d(b))
    if not (na.all() and nb.all()):
        raise ValidationError("cosine undefined for all-zero vector")
    return _contract("ij,ij->i", a, np.broadcast_to(b, a.shape)) / (na * nb)


def cosine(a, b) -> float:
    """Cosine similarity of two vectors, accumulated in float64.

    Raises ValidationError on dimension mismatch or an all-zero input.
    """
    av, bv = _f64(a).ravel(), _f64(b).ravel()
    if av.shape != bv.shape:
        raise ValidationError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return float(pair_cosine(av[np.newaxis], bv[np.newaxis])[0])


def _block_step(count: int) -> int:
    return max(1, _BLOCK_SCORES // max(count, 1))


def _query_block(queries, start: int, step: int, dim: int) -> np.ndarray:
    """Queries start .. start + step - 1 as a 2-D float64 array, or
    ValidationError when their dimensions differ from each other or from
    `dim`."""
    block = queries[start : start + step]
    try:
        q = _f64(block).reshape(len(block), -1)
    except ValueError:  # vectors of different lengths
        raise ValidationError("dimension mismatch among the queries") from None
    if q.shape[1] != dim:
        raise ValidationError(f"dimension mismatch: query {q.shape[1]} vs matrix {dim}")
    return q


def cosine_blocks(queries, matrix: EmbeddingMatrix | EmbeddingFile
                  ) -> Iterator[tuple[int, int, np.ndarray]]:
    """An iterator of (start, lo, scores) tiles, row chunk by row chunk
    and, within a chunk, query block by query block: scores[q, i] is the
    cosine of query start + q with matrix row lo + i, bitwise equal to
    cosine(queries[start + q], matrix.rows[lo + i]). Every query is checked
    by the call itself, before the first row chunk is read, so a caller may
    do other work between the checks and the scan. Each row chunk is read
    once, from `matrix.chunks`, so an `EmbeddingFile` is read from disk
    once whatever the number of queries. The scan holds one float64 row
    chunk, one query block and one tile, never a float64 copy of the matrix.

    Raises ValidationError, when called, if a query's dimension differs
    from the matrix's or a query is all zero.
    """
    width = min(_block_step(matrix.dim), max(matrix.count, 1))
    step = _block_step(max(width, matrix.dim))
    query_norms = [_row_norms(_query_block(queries, start, step, matrix.dim))
                   for start in range(0, len(queries), step)]
    if not all(qn.all() for qn in query_norms):
        raise ValidationError("cosine undefined for all-zero query")
    return _tiles(queries, matrix, width, step, query_norms)


def _tiles(queries, matrix, width: int, step: int, query_norms: list[np.ndarray]
           ) -> Iterator[tuple[int, int, np.ndarray]]:
    """The tiles of `cosine_blocks`, whose queries are checked and whose
    query blocks of `step` have the norms `query_norms`."""
    starts = range(0, len(queries), step)
    for lo, rows in matrix.chunks(width):
        rows = _f64(rows)  # freed when the loop takes the next chunk, before that is converted
        norms = _row_norms(rows)
        for start, qn in zip(starts, query_norms):
            scores = _contract("ij,kj->ki", rows, _query_block(queries, start, step, matrix.dim))
            scores /= norms * qn[:, np.newaxis]
            yield start, lo, scores


def triangle_blocks(rows) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, scores) for consecutive blocks of `rows`, each scored
    only against the rows from its own start on: scores[q, i] is the
    cosine of rows start + q and start + i, bitwise equal to
    cosine(rows[start + q], rows[start + i]) and so to the matching score
    of the `cosine_blocks` tiles of `rows` against themselves. Every pair
    above the diagonal is scored once.

    Raises ValidationError when a row is all zero.
    """
    rows = _f64(rows)
    norms = _row_norms(rows)
    if not norms.all():
        raise ValidationError("cosine undefined for all-zero row")
    step = _block_step(len(rows))
    for start in range(0, len(rows), step):
        q = rows[start : start + step]
        scores = _contract("ij,kj->ki", rows[start:], q)
        yield start, scores / (norms[start:] * _row_norms(q)[:, np.newaxis])


def nearest_rows(queries, matrix: EmbeddingMatrix | EmbeddingFile
                 ) -> tuple[np.ndarray, np.ndarray]:
    """For each query, the index of its nearest matrix row and that row's
    score: the highest cosine, exact ties to the smallest id. A running
    best per query is kept over the tiles of `cosine_blocks`.

    Raises ValidationError, naming the matrix's file if it has one, for
    an empty matrix.
    """
    if matrix.count == 0:
        raise ValidationError("empty matrix", path=matrix.path)
    rank = np.empty(matrix.count, dtype=np.intp)  # each row's place in id order
    rank[sorted(range(matrix.count), key=matrix.ids.__getitem__)] = np.arange(matrix.count)
    best = np.zeros(len(queries), dtype=np.intp)
    best_score = np.full(len(queries), -np.inf)
    for start, lo, scores in cosine_blocks(queries, matrix):
        top = scores.max(axis=1)
        chunk_rank = rank[lo : lo + scores.shape[1]]
        pick = lo + np.where(scores == top[:, np.newaxis], chunk_rank, matrix.count).argmin(axis=1)
        held = slice(start, start + len(scores))
        prior = best_score[held]
        wins = (top > prior) | ((top == prior) & (rank[pick] < rank[best[held]]))
        best[held] = np.where(wins, pick, best[held])
        best_score[held] = np.where(wins, top, prior)
    return best, best_score

