"""Content digests for each run's provenance.json.

Digests are SHA-256 over canonical JSON (sorted keys, compact separators)
for configs and over raw bytes for files. No timestamps or host details
are ever included: two runs with the same inputs and config must produce
byte-identical provenance.

Only `cli` imports this module: its stage runner records how a run was
made once, the whole config's digest beside its inputs' and outputs',
and no library function takes a digest of its own. `hashlib` is imported
by each digest function, not here: it loads OpenSSL's libcrypto, about
3.6 MiB of resident memory, and a stage takes its digests only after its
command has returned and freed its arrays. So `import capsieve.cli`
loads no OpenSSL, and the library stays out of every stage's working
peak, except where a stage that draws random numbers loads it anyway:
`numpy.random` imports `secrets`, which imports `hmac`.
A file is hashed through one reused read buffer of `_READ_BUFFER` bytes
rather than a new bytes object per chunk, so the digest phase adds
little to the resident memory the work left behind.
"""

from __future__ import annotations

import json
from pathlib import Path

_READ_BUFFER = 1 << 18  # bytes read into one reused buffer per chunk


def config_digest(config) -> str:
    import hashlib

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_digest(path) -> str:
    import hashlib

    h = hashlib.sha256()
    buffer = bytearray(_READ_BUFFER)
    view = memoryview(buffer)
    with Path(path).open("rb") as fh:
        while n := fh.readinto(buffer):
            h.update(view[:n])
    return h.hexdigest()
