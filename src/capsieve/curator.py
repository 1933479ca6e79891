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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, EmbeddingMatrix, read_jsonl
from .errors import MissingKeyError, ValidationError
from .matcher import LemmaMatch
from .provenance import config_digest
from .seeding import stream
from .vectorops import pair_cosine, require_embedding

# Pairs scored per `pair_cosine` call; a bounded block keeps the float64
# copies of the gathered rows small.
_PAIR_BLOCK = 256


@dataclass(frozen=True)
class ScoredCandidate:
    """A (caption, synset) pair with its text-to-synset cosine similarity."""

    instance_id: str
    wnid: str
    score: float


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

    rows: list[ScoredCandidate]
    threshold: float
    provenance: str = ""
    drop_ledger: dict[str, int] = field(default_factory=dict)
    class_counts: dict[str, int] = field(init=False)

    def __post_init__(self):
        seen: set[str] = set()
        counts: dict[str, int] = {}
        for row in self.rows:
            if row.instance_id in seen:
                raise ValidationError(f"instance {row.instance_id!r} appears more than once")
            seen.add(row.instance_id)
            if not row.score >= self.threshold:
                raise ValidationError(
                    f"row ({row.instance_id}, {row.wnid}) score {row.score} "
                    f"below threshold {self.threshold}"
                )
            counts[row.wnid] = counts.get(row.wnid, 0) + 1
        self.class_counts = counts


def score_candidates(
    matches: list[LemmaMatch],
    caption_embeddings: EmbeddingMatrix,
    synset_text_embeddings: EmbeddingMatrix,
) -> list[ScoredCandidate]:
    """One ScoredCandidate per distinct (instance, wnid) pair in `matches`,
    in first-occurrence order, scored by `pair_cosine` in blocks of pairs."""
    pairs = list(dict.fromkeys((m.instance_id, m.wnid) for m in matches))
    candidates: list[ScoredCandidate] = []
    for lo in range(0, len(pairs), _PAIR_BLOCK):
        block = pairs[lo : lo + _PAIR_BLOCK]
        captions, synsets = [], []
        for instance_id, wnid in block:
            captions.append(require_embedding(caption_embeddings, instance_id, "caption"))
            synsets.append(require_embedding(synset_text_embeddings, wnid, "synset text"))
        scores = pair_cosine(captions, synsets).tolist()
        candidates.extend(ScoredCandidate(i, w, score) for (i, w), score in zip(block, scores))
    return candidates


def threshold_sweep(
    candidates: list[ScoredCandidate], thresholds: list[float]
) -> list[SweepPoint]:
    """Raw candidate coverage (rows and distinct classes) at each threshold.

    `thresholds` must be strictly increasing; both counts are non-increasing
    along the sweep.
    """
    for a, b in zip(thresholds, thresholds[1:]):
        if not b > a:
            raise ValidationError(f"thresholds not strictly increasing at {a} -> {b}")
    scores = np.sort(np.array([c.score for c in candidates], dtype=np.float64))
    class_best: dict[str, float] = {}
    for c in candidates:
        best = class_best.get(c.wnid)
        if best is None or c.score > best:
            class_best[c.wnid] = c.score
    best_scores = np.sort(np.array(list(class_best.values()), dtype=np.float64))
    points = []
    for t in thresholds:
        n_rows = int(len(scores) - np.searchsorted(scores, t, side="left"))
        n_classes = int(len(best_scores) - np.searchsorted(best_scores, t, side="left"))
        points.append(SweepPoint(threshold=float(t), n_classes=n_classes, n_instances=n_rows))
    return points


def assemble(
    candidates: list[ScoredCandidate],
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
    """
    if not np.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    ledger = {"below_threshold": 0, "multi_label": 0, "nsfw": 0, "text_in_image": 0}

    surviving: list[ScoredCandidate] = []
    for c in candidates:
        if c.instance_id not in corpus:
            raise MissingKeyError(f"candidate instance {c.instance_id!r} not in corpus")
        if c.score >= threshold:
            surviving.append(c)
        else:
            ledger["below_threshold"] += 1

    by_instance: dict[str, list[ScoredCandidate]] = {}
    for c in surviving:
        by_instance.setdefault(c.instance_id, []).append(c)

    single: list[ScoredCandidate] = []
    for c in surviving:
        group = by_instance[c.instance_id]
        if len(group) == 1:
            single.append(c)
            continue
        if options.drop_multi_label:
            ledger["multi_label"] += 1
            continue
        best = min(group, key=lambda g: (-g.score, g.wnid))
        if c is best:
            single.append(c)
        else:
            ledger["multi_label"] += 1

    rows: list[ScoredCandidate] = []
    for c in single:
        record = corpus.get(c.instance_id)
        if options.drop_nsfw and record.nsfw:
            ledger["nsfw"] += 1
            continue
        if options.drop_text_in_image and record.text_in_image is True:
            ledger["text_in_image"] += 1
            continue
        rows.append(c)

    digest = config_digest(
        {
            "threshold": threshold,
            "drop_multi_label": options.drop_multi_label,
            "drop_nsfw": options.drop_nsfw,
            "drop_text_in_image": options.drop_text_in_image,
        }
    )
    return DatasetManifest(rows=rows, threshold=float(threshold), provenance=digest, drop_ledger=ledger)


def top_k_per_class(manifest: DatasetManifest, k: int) -> DatasetManifest:
    """Keep each class's k best-scoring rows (ties to the smaller instance
    id); classes with fewer than k rows keep all. Idempotent for fixed k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    by_class: dict[str, list[ScoredCandidate]] = {}
    for row in manifest.rows:
        by_class.setdefault(row.wnid, []).append(row)
    keep: set[tuple[str, str]] = set()
    for wnid, group in by_class.items():
        ranked = sorted(group, key=lambda r: (-r.score, r.instance_id))
        keep.update((r.instance_id, r.wnid) for r in ranked[:k])
    rows = [r for r in manifest.rows if (r.instance_id, r.wnid) in keep]
    return replace(manifest, rows=rows)


def relative_frequencies(manifest: DatasetManifest) -> dict[str, float]:
    """Per-class share of the manifest rows; values sum to 1."""
    total = len(manifest.rows)
    if total == 0:
        raise ValidationError("empty manifest has no class frequencies")
    return {wnid: count / total for wnid, count in manifest.class_counts.items()}


def sample_by_similarity_bins(
    candidates: list[ScoredCandidate],
    bin_edges: list[float],
    n_per_bin: int,
    seed: int,
) -> dict[tuple[float, float], list[str]]:
    """Uniform sample (without replacement) of candidate instance ids from
    each half-open score bin [e_i, e_{i+1}).

    Bins short of `n_per_bin` return all their members. Each bin draws from
    its own stream, so the sample in one bin never depends on another.
    """
    for a, b in zip(bin_edges, bin_edges[1:]):
        if not b > a:
            raise ValidationError(f"bin edges not strictly increasing at {a} -> {b}")
    out: dict[tuple[float, float], list[str]] = {}
    for i, (lo, hi) in enumerate(zip(bin_edges, bin_edges[1:])):
        members = [c.instance_id for c in candidates if lo <= c.score < hi]
        if len(members) <= n_per_bin:
            out[(lo, hi)] = members
        else:
            rng = stream(seed, i)
            picks = rng.choice(len(members), size=n_per_bin, replace=False)
            out[(lo, hi)] = [members[j] for j in picks]
    return out


# -- file formats -------------------------------------------------------------
#
# Candidates and manifest rows share one JSONL schema:
#     {"id": str, "wnid": str, "score": float}
# The manifest sidecar is a single JSON object:
#     {"threshold": float, "counts": {wnid: int}, "drop_ledger": {stage: int},
#      "config_digest": str}


def write_candidates(candidates: list[ScoredCandidate], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for c in candidates:
            fh.write(json.dumps({"id": c.instance_id, "wnid": c.wnid, "score": c.score}))
            fh.write("\n")


def load_candidates(path) -> list[ScoredCandidate]:
    path = Path(path)
    candidates: list[ScoredCandidate] = []
    seen: set[tuple[str, str]] = set()
    for lineno, row in read_jsonl(path, {"id": str, "wnid": "wnid", "score": float}):
        candidate = ScoredCandidate(
            instance_id=row["id"], wnid=row["wnid"], score=float(row["score"])
        )
        key = (candidate.instance_id, candidate.wnid)
        if key in seen:
            raise ValidationError(f"duplicate candidate {key}", path=path, line=lineno)
        seen.add(key)
        candidates.append(candidate)
    return candidates


def write_manifest(manifest: DatasetManifest, rows_path, sidecar_path=None) -> None:
    write_candidates(manifest.rows, rows_path)
    if sidecar_path is not None:
        sidecar = {
            "threshold": manifest.threshold,
            "counts": manifest.class_counts,
            "drop_ledger": manifest.drop_ledger,
            "config_digest": manifest.provenance,
        }
        Path(sidecar_path).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def load_manifest(rows_path, sidecar_path=None) -> DatasetManifest:
    rows = load_candidates(rows_path)
    threshold = min((r.score for r in rows), default=-1.0)
    provenance = ""
    ledger: dict[str, int] = {}
    if sidecar_path is not None:
        sidecar = json.loads(Path(sidecar_path).read_text(encoding="utf-8"))
        threshold = float(sidecar["threshold"])
        provenance = sidecar.get("config_digest", "")
        ledger = {k: int(v) for k, v in sidecar.get("drop_ledger", {}).items()}
    return DatasetManifest(rows=rows, threshold=threshold, provenance=provenance, drop_ledger=ledger)


def write_sweep_csv(points: list[SweepPoint], path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,n_classes,n_instances\n")
        for p in points:
            fh.write(f"{p.threshold!r},{p.n_classes},{p.n_instances}\n")
