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
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .corpus import Corpus, EmbeddingMatrix, first_repeat, read_jsonl
from .errors import MissingKeyError, ValidationError
from .matcher import LemmaMatch
from .provenance import config_digest
from .vectorops import pair_cosine, require_embedding

# Pairs scored per `pair_cosine` call; a bounded block keeps the float64
# copies of the gathered rows small.
_PAIR_BLOCK = 256


@dataclass(frozen=True, eq=False)
class Candidates:
    """(caption, synset) pairs with their text-to-synset cosine similarity,
    as columns: row i pairs instance `ids[i]` with synset `wnids[i]` at
    `scores[i]`.

    `scores` is stored as a read-only float64 array of finite values. Two
    Candidates are equal when their columns are.
    """

    ids: list[str]
    wnids: list[str]
    scores: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)
        if scores.ndim != 1 or not len(self.ids) == len(self.wnids) == len(scores):
            raise ValidationError(
                f"candidate columns differ: {len(self.ids)} ids, {len(self.wnids)} wnids, "
                f"scores of shape {scores.shape}"
            )
        finite = np.isfinite(scores)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValidationError(
                f"non-finite score for candidate ({self.ids[row]}, {self.wnids[row]})"
            )
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Candidates)
            and self.ids == other.ids
            and self.wnids == other.wnids
            and np.array_equal(self.scores, other.scores)
        )

    def take(self, rows) -> Candidates:
        """The candidates at the positions `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        picks = rows.tolist()
        return Candidates(
            ids=[self.ids[i] for i in picks],
            wnids=[self.wnids[i] for i in picks],
            scores=self.scores[rows],
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
    of the configuration that produced the manifest.
    """

    rows: Candidates
    threshold: float
    provenance: str = ""
    drop_ledger: dict[str, int] = field(default_factory=dict)
    class_counts: dict[str, int] = field(init=False)

    def __post_init__(self):
        rows = self.rows
        repeat = first_repeat(rows.ids)
        below = np.flatnonzero(~(rows.scores >= self.threshold))
        # The first faulty row is reported; on one row the repeat comes first.
        if repeat is not None and not (len(below) and below[0] < repeat[1]):
            raise ValidationError(f"instance {rows.ids[repeat[1]]!r} appears more than once")
        if len(below):
            row = int(below[0])
            raise ValidationError(
                f"row ({rows.ids[row]}, {rows.wnids[row]}) score {rows.scores[row].item()} "
                f"below threshold {self.threshold}"
            )
        self.class_counts = dict(Counter(rows.wnids))


def score_candidates(
    matches: list[LemmaMatch],
    caption_embeddings: EmbeddingMatrix,
    synset_text_embeddings: EmbeddingMatrix,
) -> Candidates:
    """One candidate per distinct (instance, wnid) pair in `matches`, in
    first-occurrence order, scored by `pair_cosine` in blocks of pairs.

    Raises MissingKeyError for the first pair with a missing embedding,
    naming its caption before its synset.
    """
    pairs = dict.fromkeys((m.instance_id, m.wnid) for m in matches)
    ids = [instance_id for instance_id, _ in pairs]
    wnids = [wnid for _, wnid in pairs]
    caption_rows = np.array([caption_embeddings.index.get(i, -1) for i in ids], dtype=np.intp)
    synset_rows = np.array([synset_text_embeddings.index.get(w, -1) for w in wnids], dtype=np.intp)
    missing = np.flatnonzero((caption_rows < 0) | (synset_rows < 0))
    if len(missing):  # the first pair with a missing row: one of these raises
        row = int(missing[0])
        require_embedding(caption_embeddings, ids[row], "caption")
        require_embedding(synset_text_embeddings, wnids[row], "synset text")
    scores = np.empty(len(ids), dtype=np.float64)
    for lo in range(0, len(ids), _PAIR_BLOCK):
        block = slice(lo, lo + _PAIR_BLOCK)
        scores[block] = pair_cosine(
            caption_embeddings.rows[caption_rows[block]],
            synset_text_embeddings.rows[synset_rows[block]],
        )
    return Candidates(ids=ids, wnids=wnids, scores=scores)


def threshold_sweep(candidates: Candidates, thresholds: list[float]) -> list[SweepPoint]:
    """Raw candidate coverage (rows and distinct classes) at each threshold.

    `thresholds` must be strictly increasing; both counts are non-increasing
    along the sweep.
    """
    for a, b in zip(thresholds, thresholds[1:]):
        if not b > a:
            raise ValidationError(f"thresholds not strictly increasing at {a} -> {b}")
    scores = np.sort(candidates.scores)
    class_best: dict[str, float] = {}
    for wnid, score in zip(candidates.wnids, candidates.scores.tolist()):
        best = class_best.get(wnid)
        if best is None or score > best:
            class_best[wnid] = score
    best_scores = np.sort(np.array(list(class_best.values()), dtype=np.float64))
    points = []
    for t in thresholds:
        n_rows = int(len(scores) - np.searchsorted(scores, t, side="left"))
        n_classes = int(len(best_scores) - np.searchsorted(best_scores, t, side="left"))
        points.append(SweepPoint(threshold=float(t), n_classes=n_classes, n_instances=n_rows))
    return points


def assemble(
    candidates: Candidates,
    threshold: float,
    corpus: Corpus,
    options: AssembleOptions = AssembleOptions(),
) -> DatasetManifest:
    """Apply the exclusion pipeline and build the manifest.

    Stages, in order, each accounting the rows it removes:

    1. "below_threshold": score < threshold.
    2. "multi_label": instances left with two or more distinct labels are
       dropped entirely when `drop_multi_label` is set; otherwise reduced
       to their best-scoring label (ties to the smaller wnid). Either way
       the manifest holds at most one row per instance.
    3. "nsfw": rows whose instance carries the NSFW flag, when enabled.
    4. "text_in_image": rows whose instance has text_in_image == True,
       when enabled. Unset flags (None) are never treated as True.

    Kept rows stay in candidate order. Raises MissingKeyError for the first
    candidate whose instance is not in the corpus.
    """
    if not np.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    try:
        where = np.array([corpus.index[i] for i in candidates.ids], dtype=np.intp)
    except KeyError as exc:
        raise MissingKeyError(f"candidate instance {exc.args[0]!r} not in corpus") from None
    ledger = {"below_threshold": 0, "multi_label": 0, "nsfw": 0, "text_in_image": 0}

    keep = candidates.scores >= threshold
    ledger["below_threshold"] = int(len(keep) - np.count_nonzero(keep))

    labels = np.bincount(where[keep], minlength=len(corpus))
    multi = np.flatnonzero(keep & (labels[where] > 1)).tolist()
    keep[multi] = False
    best: dict[int, tuple[tuple[float, str], int]] = {}  # instance -> its best label's row
    if not options.drop_multi_label:
        for row in multi:
            rank = (-candidates.scores[row].item(), candidates.wnids[row])
            prior = best.get(where[row].item())
            if prior is None or rank < prior[0]:  # ties keep the earlier row
                best[where[row].item()] = (rank, row)
        keep[[row for _, row in best.values()]] = True
    ledger["multi_label"] = len(multi) - len(best)

    if options.drop_nsfw:
        flagged = keep & np.array(corpus.nsfw, dtype=bool)[where]
        ledger["nsfw"] = int(np.count_nonzero(flagged))
        keep &= ~flagged
    if options.drop_text_in_image:
        text_in_image = np.array([flag is True for flag in corpus.text_in_image], dtype=bool)
        flagged = keep & text_in_image[where]
        ledger["text_in_image"] = int(np.count_nonzero(flagged))
        keep &= ~flagged

    digest = config_digest(
        {
            "threshold": threshold,
            "drop_multi_label": options.drop_multi_label,
            "drop_nsfw": options.drop_nsfw,
            "drop_text_in_image": options.drop_text_in_image,
        }
    )
    return DatasetManifest(
        rows=candidates.take(np.flatnonzero(keep)),
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
    scores = rows.scores.tolist()
    order = sorted(range(len(rows)), key=lambda r: (rows.wnids[r], -scores[r], rows.ids[r]))
    keep = np.zeros(len(rows), dtype=bool)
    for _, ranked in groupby(order, key=rows.wnids.__getitem__):
        keep[list(islice(ranked, k))] = True
    return replace(manifest, rows=rows.take(np.flatnonzero(keep)))


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
    rows = zip(candidates.ids, candidates.wnids, candidates.scores.tolist())
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f'{{"id": {encode_basestring_ascii(i)}, "wnid": {encode_basestring_ascii(w)}, '
            f'"score": {score!r}}}\n'
            for i, w, score in rows
        )


def load_candidates(path) -> Candidates:
    """Read candidates JSONL; a repeated (id, wnid) pair is rejected with
    its line."""
    path = Path(path)
    lines, columns = read_jsonl(path, {"id": str, "wnid": "wnid", "score": float})
    ids, wnids = columns["id"], columns["wnid"]
    repeat = first_repeat(list(zip(ids, wnids)))
    if repeat is not None:
        row = repeat[1]
        raise ValidationError(
            f"duplicate candidate {(ids[row], wnids[row])}", path=path, line=lines[row]
        )
    return Candidates(ids=ids, wnids=wnids, scores=np.array(columns["score"], dtype=np.float64))


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
    """Read manifest rows; the threshold is their lowest score (-1.0 for
    none)."""
    rows = load_candidates(rows_path)
    threshold = float(rows.scores.min()) if len(rows) else -1.0
    return DatasetManifest(rows=rows, threshold=threshold)

