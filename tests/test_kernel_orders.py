"""Pinned bits of the cosine kernels.

The exactness contract (README) rests on numpy's einsum loops, whose
summation order is the build's: its SIMD width decides how the products
of a row are added up. So the bits hold per numpy build and CPU
architecture. A numpy that adds them up in another order changes some
output bytes; these pins then fail naming the kernel and the numpy
version, where a golden digest mismatch would name neither. The pins were
taken with numpy 2.4.6 on x86_64; aarch64, whose builds may fuse
multiply-add, is unverified. Each pinned score differed, when pinned, from
a sequential Python sum of the same products in its last bits.
"""

from __future__ import annotations

import numpy as np

from capsieve.corpus import EmbeddingMatrix
from capsieve.vectorops import cosine_blocks, pair_cosine, triangle_blocks

D = 301  # not a multiple of any SIMD width, so each row has a tail


def lehmer_rows(count: int, seed: int) -> np.ndarray:
    """count x D float32 rows from the Lehmer (MINSTD) generator, in
    [-0.5, 0.5): integer arithmetic and one rounding each, so the same on
    every build and platform."""
    values, x = [], seed
    for _ in range(count * D):
        x = 48271 * x % 2147483647
        values.append(x / 2147483647 - 0.5)
    return np.array(values, dtype=np.float32).reshape(count, D)


A = lehmer_rows(3, 12345)
B = lehmer_rows(3, 67890)

# cosine(A[i], B[i]) for each i
PAIR = ["0x1.369f5ff52f789p-7", "0x1.23518f6455a88p-4", "-0x1.2fd69f22c9015p-5"]
# cosine(B[q], A[i]) for q in 0, 1 and i in 0, 1, 2
BLOCKS = ["0x1.369f5ff52f789p-7", "0x1.cbabec28a08e5p-6", "-0x1.54b92a10b6187p-5",
          "0x1.fd6d7fed0696dp-9", "0x1.23518f6455a88p-4", "-0x1.677687bb03a7cp-4"]
# cosine(A[0], A[1]), cosine(A[0], B[1]) and cosine(A[2], B[0])
TRIANGLE = ["0x1.bf3bdcffc4896p-7", "0x1.fd6d7fed0696dp-9", "-0x1.54b92a10b6187p-5"]


def check(kernel: str, scores, pinned: list[str]) -> None:
    got = [float(s).hex() for s in scores]
    assert got == pinned, (
        f"{kernel} scores changed under numpy {np.__version__}: got {got}, pinned {pinned}"
    )


def test_pair_cosine_bits():
    check("pair_cosine", pair_cosine(A, B), PAIR)


def test_cosine_blocks_bits():
    tiles = list(cosine_blocks(B[:2], EmbeddingMatrix(A, ["a0", "a1", "a2"])))
    assert [(start, lo) for start, lo, _ in tiles] == [(0, 0)]
    check("cosine_blocks", tiles[0][2].ravel(), BLOCKS)


def test_triangle_blocks_bits():
    blocks = list(triangle_blocks(np.concatenate([A, B])))
    assert [start for start, _ in blocks] == [0]
    scores = blocks[0][1]
    check("triangle_blocks", [scores[0, 1], scores[0, 4], scores[2, 3]], TRIANGLE)
