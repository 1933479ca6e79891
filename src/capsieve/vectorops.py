"""Exact cosine-similarity kernels.

Exactness contract: every score is accumulated in float64, whatever the
input dtype, and is bitwise equal to the scalar `cosine` of its pair. A
score never depends on which other rows or queries share a call, so
sharded or blocked scans are bitwise identical to serial ones. Two kernels
carry the contract:

- `cosine_blocks`, many queries against every row of a matrix. It scores
  consecutive query blocks with einsum("ij,kj->ki"); no block holds more
  than max(1, 2**18 // rows) queries. The matrix is read in row chunks of
  max(1, 2**18 // dim) rows, each converted to float64 as it is used (at
  most 2 MiB, so it stays in cache across a query block): no float64 copy
  of the whole matrix is made. `batch_cosine` is its one-query case and
  `top_k` ranks its blocks. `triangle_blocks` scores a matrix against
  itself in the same query blocks, each block only against the rows from
  its own start on, so no pair is scored twice.
- `pair_cosine`, row i of one array against row i of another, with
  einsum("ij,ij->i") over the gathered pairs. `cosine` is its one-pair case.

Both contract with einsum, never with BLAS (`@`, `np.dot`, `matmul`): a
BLAS kernel may change its summation order with the operand shapes, and
`Q @ A.T` differs from `cosine` by up to 1e-13. Every cosine score in the
package, the within-class image pairs of `diagnose intra` included, comes
from one of these two kernels.

No approximate index is provided by design; exact scans keep every
downstream statistic reproducible and testable.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .corpus import EmbeddingMatrix
from .errors import MissingKeyError, ValidationError

# Scores in one query block of `cosine_blocks`, and values in one of its
# float64 row chunks: 2 MiB of float64 each.
_BLOCK_SCORES = 1 << 18


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
    equals cosine(a[i], b[i]) bitwise.

    Raises ValidationError when the shapes differ or a row is all zero.
    """
    a, b = _f64(a), _f64(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = _row_norms(a), _row_norms(b)
    if not (na.all() and nb.all()):
        raise ValidationError("cosine undefined for all-zero vector")
    return _contract("ij,ij->i", a, b) / (na * nb)


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


def cosine_blocks(queries, matrix: EmbeddingMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, scores) for consecutive blocks of `queries`, one query
    vector per entry: scores[q, i] is the cosine of query start + q with
    matrix row i, bitwise equal to cosine(queries[start + q], matrix.rows[i]).
    Each block's scores are filled one float64 row chunk at a time, so the
    call holds one block, one chunk and the row norms, never a float64
    copy of the matrix.

    Raises ValidationError when a query's dimension differs from the
    matrix's or a query is all zero.
    """
    width = _block_step(matrix.dim)
    chunks = [slice(lo, lo + width) for lo in range(0, matrix.count, width)]
    norms = np.empty(matrix.count)
    for chunk in chunks:
        norms[chunk] = _row_norms(_f64(matrix.rows[chunk]))
    step = _block_step(matrix.count)
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        try:
            q = _f64(block).reshape(len(block), -1)
        except ValueError:  # vectors of different lengths
            raise ValidationError("dimension mismatch among the queries") from None
        if q.shape[1] != matrix.dim:
            raise ValidationError(f"dimension mismatch: query {q.shape[1]} vs matrix {matrix.dim}")
        qn = _row_norms(q)
        if not qn.all():
            raise ValidationError("cosine undefined for all-zero query")
        scores = np.empty((len(q), matrix.count))
        for chunk in chunks:
            scores[:, chunk] = _contract("ij,kj->ki", _f64(matrix.rows[chunk]), q)
        scores /= norms * qn[:, np.newaxis]
        yield start, scores


def triangle_blocks(rows) -> Iterator[tuple[int, np.ndarray]]:
    """The blocks of `cosine_blocks` with `rows` as both queries and matrix,
    each scored only against the rows from its own start on: scores[q, i]
    is the cosine of rows start + q and start + i, bitwise equal to
    cosine(rows[start + q], rows[start + i]). Every pair above the
    diagonal is scored once.

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


def batch_cosine(query, matrix: EmbeddingMatrix) -> np.ndarray:
    """Cosine of `query` against every row; element i equals
    cosine(query, matrix.rows[i]) bitwise."""
    return next(cosine_blocks(_f64(query).ravel()[np.newaxis], matrix))[1][0]


def top_k(queries, matrix: EmbeddingMatrix, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each query in order, the row indices of its k best rows and their
    scores: by cosine descending, exact ties by id ascending (in numpy's
    string order, stable by row).

    Raises ValidationError for an empty matrix or k outside 1..count.
    """
    if matrix.count == 0:
        raise ValidationError("empty matrix")
    if not 1 <= k <= matrix.count:
        raise ValidationError(f"k={k} out of range 1..{matrix.count}")
    return _ranked(queries, matrix, k)


def _ranked(queries, matrix: EmbeddingMatrix, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    ids = np.asarray(matrix.ids)
    for _, scores in cosine_blocks(queries, matrix):
        for row in scores:
            order = np.lexsort((ids, -row))[:k]
            yield order, row[order]


def require_embedding(matrix: EmbeddingMatrix, rid: str, kind: str) -> np.ndarray:
    """Fetch a row or raise MissingKeyError naming the id and its role."""
    try:
        return matrix.rows[matrix.index[rid]]
    except KeyError:
        raise MissingKeyError(f"missing {kind} embedding for id {rid!r}") from None
