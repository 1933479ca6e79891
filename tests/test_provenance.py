from __future__ import annotations

import hashlib

import pytest

from capsieve.provenance import _READ_BUFFER, file_digest

B = _READ_BUFFER


@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 7],
                         ids=["empty", "one", "B-1", "B", "B+1", "3B+7"])
def test_file_digest_equals_sha256_of_the_whole_file(tmp_path, size):
    # bytes that differ from chunk to chunk, so a chunk hashed twice or
    # a stale tail of the reused buffer changes the digest
    data = (bytes(range(251)) * (size // 251 + 1))[:size]  # 251 is prime, B a power of 2
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert file_digest(str(path)) == hashlib.sha256(data).hexdigest()


def test_file_digest_of_a_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        file_digest(tmp_path / "missing.bin")
