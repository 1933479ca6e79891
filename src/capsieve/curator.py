"""Dataset assembly: similarity scoring, threshold sweeps, exclusion rules.

From lemma matches to a curated dataset:

    matches -> score_candidates -> threshold_sweep (pick threshold)
            -> assemble (exclusion rules) -> DatasetManifest

`assemble` applies its filters in a fixed, logged order (similarity
threshold, then single-label reduction, then the NSFW flag, then the
text-in-image flag) and accounts every dropped row to exactly one stage,
so input count minus output count always equals the drop-ledger sum.
Threshold sweeps count raw candidates before any exclusion: the sweep
exists to choose the threshold, which happens before the other rules run.

No automatic threshold selection is offered; the operator reads the sweep
curve and chooses the largest threshold that keeps class coverage.

`score_candidates` reads the caption embeddings chunk by chunk, so
`match` scans its caption file from disk and holds none of its rows, only
the pair columns and the rows of its matched synsets.

Everything here but `score_candidates` runs on the standard library: the
scores are a tuple of Python floats, the sweep counts with `sorted` and
`bisect_left`, and assembly keeps rows with lists and a `Counter`. So the
`sweep`, `assemble` and `eval` stages never load numpy, whose import costs
a CLI child more than its work on these columns. `score_candidates`,
which only `match` calls, imports `vectorops` and numpy when it runs.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import InitVar, dataclass, field, replace
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .corpus import index_keys, read_jsonl
from .errors import MissingKeyError, ValidationError
from .provenance import config_digest

if TYPE_CHECKING:
    from .corpus import EmbeddingFile, EmbeddingMatrix
    from .matcher import Matches

# Values in each gathered operand of one `pair_cosine` call, whose float64
# copy so stays 128 KiB: 64 pairs at d = 256.
_PAIR_VALUES = 1 << 14
# Values per chunk of the caption scan: 256 KiB of float32.
_CAPTION_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class Candidates:
    """(caption, synset) pairs with their text-to-synset cosine similarity,
    as columns: row i pairs instance `ids[i]` with synset `wnids[i]` at
    `scores[i]`.

    `scores` is stored as a tuple of finite Python floats, so it cannot be
    changed in place. Two Candidates are equal when their columns are.
    """

    ids: list[str]
    wnids: list[str]
    scores: tuple[float, ...]

    def __post_init__(self):
        scores = tuple(map(float, self.scores))
        if not len(self.ids) == len(self.wnids) == len(scores):
            raise ValidationError(
                f"candidate columns differ: {len(self.ids)} ids, {len(self.wnids)} wnids, "
                f"{len(scores)} scores"
            )
        if not all(map(math.isfinite, scores)):
            row = next(row for row, score in enumerate(scores) if not math.isfinite(score))
            raise ValidationError(
                f"non-finite score for candidate ({self.ids[row]}, {self.wnids[row]})"
            )
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> Candidates:
        """The candidates at the positions `rows`, in that order."""
        return Candidates(
            ids=[self.ids[i] for i in rows],
            wnids=[self.wnids[i] for i in rows],
            scores=[self.scores[i] for i in rows],
        )


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    n_classes: int
    n_instances: int


@dataclass(frozen=True)
class AssembleOptions:
    drop_multi_label: bool = False
    drop_nsfw: bool = False
    drop_text_in_image: bool = False


@dataclass
class DatasetManifest:
    """The curated dataset: one row per kept instance, single label each.

    `class_counts` is derived from the rows; `drop_ledger` records how many
    candidate rows each assembly stage removed; `provenance` is the digest
    of the configuration that produced the manifest. `path` and `lines`,
    the file and the line of each row when the rows were read from one, are
    named in a repeated instance's error.
    """

    rows: Candidates
    threshold: float
    provenance: str = ""
    drop_ledger: dict[str, int] = field(default_factory=dict)
    class_counts: dict[str, int] = field(init=False)
    path: InitVar[Path | None] = None
    lines: InitVar[list[int] | None] = None

    def __post_init__(self, path, lines):
        rows = self.rows
        index_keys(rows.ids, "instance id", path=path, lines=lines)
        threshold = self.threshold
        below = next((row for row, score in enumerate(rows.scores) if not score >= threshold), None)
        if below is not None:
            raise ValidationError(
                f"row ({rows.ids[below]}, {rows.wnids[below]}) score {rows.scores[below]} "
                f"below threshold {threshold}"
            )
        self.class_counts = dict(Counter(rows.wnids))


def score_candidates(
    matches: Matches,
    caption_embeddings: EmbeddingMatrix | EmbeddingFile,
    synset_text_embeddings: EmbeddingMatrix,
) -> Candidates:
    """One candidate per distinct (instance, wnid) pair in `matches`, in
    first-occurrence order, scored by `pair_cosine`. Each instance's
    matches must be one run, as `find_matches` gives them: a pair is new
    unless its wnid came earlier in its run, so no object is made per match.

    The captions are read once, in chunks of about _CAPTION_CHUNK_VALUES
    values, so an `EmbeddingFile` is scanned from disk and never held: the
    pairs are ordered by caption row, and each chunk's pairs are scored in
    blocks of about _PAIR_VALUES values. A `pair_cosine` score does not
    depend on which pairs share its call, so no score depends on the chunk
    size or the file's row order.

    Raises MissingKeyError for the first pair with a missing embedding,
    naming its caption before its synset, ValidationError when the caption
    and synset dimensions differ, then ValidationError naming the instance
    whose matches first resume after another's, all before any caption row
    is read; the scan then raises at an `EmbeddingFile`'s non-finite or
    all-zero row. The only function here that scores vectors, so the only
    one that loads numpy (on its first call).
    """
    import numpy as np

    from .vectorops import pair_cosine

    ids: list[str] = []
    wnids: list[str] = []
    run_id, run_wnids = None, []  # the current caption run, and its wnids so far
    for instance_id, wnid in zip(matches.ids, matches.wnids):
        if instance_id != run_id:
            run_id, run_wnids = instance_id, [wnid]
        elif wnid in run_wnids:
            continue
        else:
            run_wnids.append(wnid)
        ids.append(instance_id)
        wnids.append(wnid)
    caption_rows = caption_embeddings.rows_of(ids)
    synset_rows = synset_text_embeddings.rows_of(wnids)
    missing = np.flatnonzero((caption_rows < 0) | (synset_rows < 0))
    if len(missing):  # the first pair with a missing row: one of these raises
        row = int(missing[0])
        caption_embeddings.positions([ids[row]], "caption")
        synset_text_embeddings.positions([wnids[row]], "synset text")
    if ids and caption_embeddings.dim != synset_text_embeddings.dim:
        raise ValidationError(f"dimension mismatch: captions {caption_embeddings.dim} vs "
                              f"synset texts {synset_text_embeddings.dim}")
    runs = np.count_nonzero(caption_rows[1:] != caption_rows[:-1])  # boundaries between runs
    order = np.argsort(caption_rows, kind="stable")  # pair slots by caption row
    caption_rows, synset_rows = caption_rows[order], synset_rows[order]
    if np.count_nonzero(caption_rows[1:] != caption_rows[:-1]) != runs:  # one id's runs joined
        resumed = 1 + np.flatnonzero((caption_rows[1:] == caption_rows[:-1]) & (np.diff(order) != 1))
        raise ValidationError(f"matches of instance {ids[order[resumed].min()]!r} are not one run")
    scores = np.empty(len(ids), dtype=np.float64)
    step = max(1, _PAIR_VALUES // caption_embeddings.dim)
    chunk_rows = max(1, _CAPTION_CHUNK_VALUES // caption_embeddings.dim)
    for lo, chunk in caption_embeddings.chunks(chunk_rows):
        first, end = np.searchsorted(caption_rows, (lo, lo + len(chunk)))
        for start in range(first, end, step):
            block = slice(start, min(start + step, end))
            scores[order[block]] = pair_cosine(
                chunk[caption_rows[block] - lo], synset_text_embeddings.rows[synset_rows[block]]
            )
    return Candidates(ids=ids, wnids=wnids, scores=scores.tolist())


def threshold_sweep(candidates: Candidates, thresholds: list[float]) -> list[SweepPoint]:
    """Raw candidate coverage (rows and distinct classes) at each threshold.

    `thresholds` must be strictly increasing; both counts are non-increasing
    along the sweep. Each count is of the scores >= the threshold: the
    sorted scores past `bisect_left` of it.
    """
    for a, b in zip(thresholds, thresholds[1:]):
        if not b > a:
            raise ValidationError(f"thresholds not strictly increasing at {a} -> {b}")
    class_best: dict[str, float] = {}
    for wnid, score in zip(candidates.wnids, candidates.scores):
        best = class_best.get(wnid)
        if best is None or score > best:
            class_best[wnid] = score
    scores = sorted(candidates.scores)
    best_scores = sorted(class_best.values())
    return [
        SweepPoint(
            threshold=float(t),
            n_classes=len(best_scores) - bisect_left(best_scores, t),
            n_instances=len(scores) - bisect_left(scores, t),
        )
        for t in thresholds
    ]


def assemble(
    candidates: Candidates,
    threshold: float,
    flags: Mapping[str, tuple[bool, bool | None]],
    options: AssembleOptions = AssembleOptions(),
) -> DatasetManifest:
    """Apply the exclusion pipeline and build the manifest.

    `flags` maps each instance id to its (NSFW, text-in-image) flags, as
    `corpus.load_corpus` reads them; no caption text is needed. Stages, in
    order, each accounting the rows it removes:

    1. "below_threshold": score < threshold.
    2. "multi_label": instances left with two or more distinct labels are
       dropped entirely when `drop_multi_label` is set; otherwise reduced
       to their best-scoring label (ties to the smaller wnid). Either way
       the manifest holds at most one row per instance.
    3. "nsfw": rows whose instance carries the NSFW flag, when enabled.
    4. "text_in_image": rows whose instance has text_in_image == True,
       when enabled. Unset flags (None) are never treated as True.

    Kept rows stay in candidate order. Raises MissingKeyError for the first
    candidate whose instance is not in `flags`.
    """
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    ids = candidates.ids
    try:
        row_flags = [flags[i] for i in ids]
    except KeyError as exc:
        raise MissingKeyError(f"candidate instance {exc.args[0]!r} not in corpus") from None
    ledger = {"below_threshold": 0, "multi_label": 0, "nsfw": 0, "text_in_image": 0}

    keep = [score >= threshold for score in candidates.scores]
    ledger["below_threshold"] = keep.count(False)

    labels = Counter(instance for instance, kept in zip(ids, keep) if kept)
    multi = [row for row, instance in enumerate(ids) if keep[row] and labels[instance] > 1]
    best: dict[str, tuple[tuple[float, str], int]] = {}  # instance -> its best label's row
    for row in multi:
        keep[row] = False
        if not options.drop_multi_label:
            rank = (-candidates.scores[row], candidates.wnids[row])
            prior = best.get(ids[row])
            if prior is None or rank < prior[0]:  # ties keep the earlier row
                best[ids[row]] = (rank, row)
    for _, row in best.values():
        keep[row] = True
    ledger["multi_label"] = len(multi) - len(best)

    if options.drop_nsfw:
        flagged = [row for row, (nsfw, _) in enumerate(row_flags) if keep[row] and nsfw]
        ledger["nsfw"] = len(flagged)
        for row in flagged:
            keep[row] = False
    if options.drop_text_in_image:
        flagged = [row for row, (_, flag) in enumerate(row_flags) if keep[row] and flag is True]
        ledger["text_in_image"] = len(flagged)
        for row in flagged:
            keep[row] = False

    digest = config_digest(
        {
            "threshold": threshold,
            "drop_multi_label": options.drop_multi_label,
            "drop_nsfw": options.drop_nsfw,
            "drop_text_in_image": options.drop_text_in_image,
        }
    )
    return DatasetManifest(
        rows=candidates.take([row for row, kept in enumerate(keep) if kept]),
        threshold=float(threshold),
        provenance=digest,
        drop_ledger=ledger,
    )


def top_k_per_class(manifest: DatasetManifest, k: int) -> DatasetManifest:
    """Keep each class's k best-scoring rows (ties to the smaller instance
    id), in manifest order; classes with fewer than k rows keep all.
    Idempotent for fixed k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    rows = manifest.rows
    order = sorted(range(len(rows)), key=lambda r: (rows.wnids[r], -rows.scores[r], rows.ids[r]))
    kept = []
    for _, ranked in groupby(order, key=rows.wnids.__getitem__):
        kept.extend(islice(ranked, min(k, len(rows))))  # islice takes no k past sys.maxsize
    return replace(manifest, rows=rows.take(sorted(kept)))


def relative_frequencies(manifest: DatasetManifest) -> dict[str, float]:
    """Per-class share of the manifest rows; values sum to 1."""
    total = len(manifest.rows)
    if total == 0:
        raise ValidationError("empty manifest has no class frequencies")
    return {wnid: count / total for wnid, count in manifest.class_counts.items()}


# -- file formats -------------------------------------------------------------
#
# Candidates and manifest rows share one JSONL schema:
#     {"id": str, "wnid": str, "score": float}
# The manifest sidecar is a single JSON object:
#     {"threshold": float, "counts": {wnid: int}, "drop_ledger": {stage: int},
#      "config_digest": str}


def write_candidates(candidates: Candidates, path) -> None:
    """One line per row, the bytes `json.dumps` gives for the row object:
    ASCII-escaped strings and `float.__repr__` of each score."""
    rows = zip(candidates.ids, candidates.wnids, candidates.scores)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f'{{"id": {encode_basestring_ascii(i)}, "wnid": {encode_basestring_ascii(w)}, '
            f'"score": {score!r}}}\n'
            for i, w, score in rows
        )


def _read_rows(path) -> tuple[list[int], Candidates]:
    """The rows of a candidates or manifest JSONL file, with their line
    numbers."""
    lines, columns = read_jsonl(path, {"id": str, "wnid": "wnid", "score": float})
    return lines, Candidates(ids=columns["id"], wnids=columns["wnid"], scores=columns["score"])


def load_candidates(path) -> Candidates:
    """Read candidates JSONL; a repeated (id, wnid) pair is rejected with
    both its lines. A set of the pairs finds a repeat; only then are they
    indexed, to name its lines."""
    lines, candidates = _read_rows(path)
    if len(set(zip(candidates.ids, candidates.wnids))) < len(candidates):
        pairs = list(zip(candidates.ids, candidates.wnids))
        index_keys(pairs, "candidate", path=Path(path), lines=lines)
    return candidates


def write_manifest(manifest: DatasetManifest, rows_path, meta_path) -> None:
    write_candidates(manifest.rows, rows_path)
    sidecar = {
        "threshold": manifest.threshold,
        "counts": manifest.class_counts,
        "drop_ledger": manifest.drop_ledger,
        "config_digest": manifest.provenance,
    }
    Path(meta_path).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_manifest(rows_path) -> DatasetManifest:
    """Read manifest rows, one per instance (a repeated id is rejected with
    both its lines); the threshold is their lowest score (-1.0 for none)."""
    lines, rows = _read_rows(rows_path)
    threshold = min(rows.scores) if len(rows) else -1.0
    return DatasetManifest(rows=rows, threshold=threshold, path=Path(rows_path), lines=lines)

