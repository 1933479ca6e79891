"""Output checks for one pass of a benchmark workload.

    python3 bench/checks.py <workload> <workdir> <pass dir> <seed> <full|tiny>

Every expected value is recomputed here with numpy and the standard
library from the generated inputs, never through capsieve, so a defect in
a measured code path cannot also hide in its check. Scores are recomputed
with the same float64 einsum contractions the package documents as its
exactness contract and compared bitwise; values the package computes
through BLAS (intra-class means) are compared to 1e-9. Prints one JSON
object: {"checks": [{"stage": index, "name", "ok", "detail"}]}.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import workloads as W

SCORE_SAMPLE = 2000  # candidate pairs re-scored
CAPTION_SAMPLE = 200  # captions re-matched by brute force
TOL = 1e-9


def _jsonl(path: Path) -> list:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _emb(path: Path) -> tuple[np.ndarray, dict[str, int]]:
    rows, ids = W.read_emb(path)
    return rows.astype(np.float64), {rid: i for i, rid in enumerate(ids)}


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _scan(rows: np.ndarray, row_norms: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine of `query` against every row, accumulated in float64."""
    qn = _norms(query[np.newaxis, :])[0]
    return np.einsum("ij,j->i", rows, query) / (row_norms * qn)


def _pair_cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(_scan(a[np.newaxis, :], _norms(a[np.newaxis, :]), b)[0])


def _fold(text: str) -> str:
    return " ".join(text.lower().replace("_", " ").split())


def _parse_range(spec: str) -> list[float]:
    a, b, step = (float(p) for p in spec.split(":"))
    n = int(round((b - a) / step))
    return [round(a + i * step, 12) for i in range(n + 1)]


class Checks:
    def __init__(self, stage_names: list[str]):
        self.stage = {name: i for i, name in enumerate(stage_names)}
        self.items: list[dict] = []

    def add(self, stage: str, name: str, ok, detail: str = "") -> None:
        self.items.append({"stage": self.stage[stage], "name": name, "ok": bool(ok),
                           "detail": "" if ok else detail})


# -- curate -------------------------------------------------------------------


def _brute_matches(text: str, patterns: dict[str, list[str]]) -> list[tuple]:
    norm = _fold(text)
    out = []
    for pattern, wnids in patterns.items():
        start = norm.find(pattern)
        while start != -1:
            end = start + len(pattern)
            if (start == 0 or not norm[start - 1].isalnum()) and (
                end == len(norm) or not norm[end].isalnum()
            ):
                out.extend((start, w, end, pattern) for w in wnids)
            start = norm.find(pattern, start + 1)
    return sorted(out)


def check_curate(c: Checks, work: Path, out: Path, rng, sizes: dict) -> None:
    taxonomy = _jsonl(work / "taxonomy.jsonl")
    corpus = _jsonl(work / "corpus.jsonl")
    patterns: dict[str, set] = defaultdict(set)
    for s in taxonomy:
        for lemma in s["lemmas"]:
            patterns[_fold(lemma)].add(s["wnid"])
    patterns = {p: sorted(w) for p, w in patterns.items()}

    matches = _jsonl(out / "match" / "matches.jsonl")
    cands = _jsonl(out / "match" / "candidates.jsonl")
    by_id = defaultdict(list)
    for m in matches:
        by_id[m["id"]].append((m["start"], m["wnid"], m["end"], m["lemma"]))
    cands_by_id = defaultdict(list)
    for row in cands:
        cands_by_id[row["id"]].append(row["wnid"])
    sample = rng.choice(len(corpus), size=min(CAPTION_SAMPLE, len(corpus)), replace=False)
    bad = [corpus[i]["id"] for i in sample
           if by_id.get(corpus[i]["id"], []) != _brute_matches(corpus[i]["text"], patterns)]
    c.add("match", "matches equal a brute-force scan of sampled captions", not bad,
          f"{len(bad)} captions differ, e.g. {bad[:3]}")
    bad = [corpus[i]["id"] for i in sample
           if cands_by_id.get(corpus[i]["id"], [])
           != list(dict.fromkeys(w for _, w, _, _ in by_id.get(corpus[i]["id"], [])))]
    c.add("match", "candidates are the distinct matched pairs", not bad,
          f"{len(bad)} captions differ, e.g. {bad[:3]}")

    caps, cap_index = _emb(work / "captions.emb")
    syns, syn_index = _emb(work / "synsets.emb")
    picks = rng.choice(len(cands), size=min(SCORE_SAMPLE, len(cands)), replace=False)
    bad = [i for i in picks
           if _pair_cosine(caps[cap_index[cands[i]["id"]]], syns[syn_index[cands[i]["wnid"]]])
           != cands[i]["score"]]
    c.add("match", "sampled candidate scores equal a float64 einsum bitwise", not bad,
          f"{len(bad)} of {len(picks)} scores differ")

    scores = np.sort(np.array([r["score"] for r in cands]))
    best: dict[str, float] = {}
    for r in cands:
        best[r["wnid"]] = max(best.get(r["wnid"], -np.inf), r["score"])
    best_scores = np.sort(np.array(list(best.values())))
    sweep = _csv(out / "sweep" / "sweep.csv")
    expect = [(t, int((best_scores >= t).sum()), int((scores >= t).sum()))
              for t in _parse_range(W.SWEEP)]
    got = [(float(r["threshold"]), int(r["n_classes"]), int(r["n_instances"])) for r in sweep]
    c.add("sweep", "sweep counts recomputed from candidates.jsonl", got == expect,
          f"first difference at {next((g for g, e in zip(got, expect) if g != e), None)}")

    flags = {r["id"]: r for r in corpus}
    _check_assemble(c, "assemble", out / "dataset", cands, flags, W.THRESHOLD, True, None)
    _check_assemble(c, "assemble.top-k", out / "val", cands, flags, W.VAL_THRESHOLD, False,
                    sizes["top_k"])

    manifest = _jsonl(out / "dataset" / "manifest.jsonl")
    preds = {r["id"]: r["ranked"] for r in _jsonl(work / "predictions.jsonl")}
    for k in (1, 5):
        hits, totals = Counter(), Counter()
        for r in manifest:
            totals[r["wnid"]] += 1
            hits[r["wnid"]] += r["wnid"] in preds[r["id"]][:k]
        expect = {w: (hits[w] / n, n) for w, n in totals.items()}
        got = {r["wnid"]: (float(r["value"]), int(r["n"]))
               for r in _csv(out / "eval" / f"recall_k{k}.csv")}
        c.add("eval", f"recall@{k} per class recomputed", got == expect,
              f"{sum(got.get(w) != v for w, v in expect.items())} classes differ")


def _check_assemble(c, stage, out, cands, flags, threshold, drop_all, top_k) -> None:
    rows = [(r["id"], r["wnid"], r["score"]) for r in _jsonl(out / "manifest.jsonl")]
    meta = json.loads((out / "manifest.meta.json").read_text(encoding="utf-8"))
    ledger = meta["drop_ledger"]
    surviving = [(r["id"], r["wnid"], r["score"]) for r in cands if r["score"] >= threshold]
    groups = defaultdict(list)
    for row in surviving:
        groups[row[0]].append(row)
    expect_ledger = {"below_threshold": len(cands) - len(surviving), "multi_label": 0,
                     "nsfw": 0, "text_in_image": 0}
    single = []
    for row in surviving:
        group = groups[row[0]]
        if len(group) == 1 or (not drop_all and row == min(group, key=lambda g: (-g[2], g[1]))):
            single.append(row)
        else:
            expect_ledger["multi_label"] += 1
    expect = []
    for row in single:
        if drop_all and flags[row[0]]["nsfw"]:
            expect_ledger["nsfw"] += 1
        elif drop_all and flags[row[0]]["text_in_image"] is True:
            expect_ledger["text_in_image"] += 1
        else:
            expect.append(row)
    c.add(stage, "drop ledger: candidates - manifest rows = sum of ledger",
          len(cands) - len(expect) == sum(ledger.values()) and ledger == expect_ledger,
          f"ledger {ledger}, expected {expect_ledger}")
    if top_k is not None:
        by_class = defaultdict(list)
        for row in expect:
            by_class[row[1]].append(row)
        keep = set()
        for group in by_class.values():
            keep.update(sorted(group, key=lambda r: (-r[2], r[0]))[:top_k])
        expect = [r for r in expect if r in keep]
    c.add(stage, "manifest rows recomputed from candidates and flags", rows == expect,
          f"{len(rows)} rows, expected {len(expect)}")


# -- diagnose -----------------------------------------------------------------


def _manifest_classes(path: Path) -> dict[str, list[str]]:
    out = defaultdict(list)
    for r in _jsonl(path):
        out[r["wnid"]].append(r["id"])
    return out


def _mean_pair_sim(rows: np.ndarray) -> float:
    units = rows / _norms(rows)[:, np.newaxis]
    total = units.sum(axis=0)
    n = len(units)
    return float((total @ total - np.einsum("ij,ij->", units, units)) / (n * (n - 1)))


def check_diagnose(c: Checks, work: Path, out: Path, rng, sizes: dict) -> None:
    texts, text_index = _emb(work / "texts.emb")
    text_ids = sorted(text_index, key=text_index.get)
    text_norms = _norms(texts)
    queries, query_index = _emb(work / "queries.emb")
    best: dict[str, tuple] = {}
    dropped = collapsed = 0
    for label in _jsonl(work / "query_labels.jsonl"):
        scores = _scan(texts, text_norms, queries[query_index[label["id"]]])
        top = scores.max()
        rid = min(text_ids[i] for i in np.flatnonzero(scores == top))
        if top < W.MIN_SIM:
            dropped += 1
            continue
        row = (rid, label["wnid"], float(top))
        if rid in best:
            collapsed += 1
            if (-row[2], row[1]) >= (-best[rid][2], best[rid][1]):
                continue
        best[rid] = row
    expect = [best[r] for r in sorted(best)]
    got = [(r["id"], r["wnid"], r["score"]) for r in _jsonl(out / "nearest" / "manifest.jsonl")]
    ledger = json.loads((out / "nearest" / "manifest.meta.json").read_text())["drop_ledger"]
    c.add("diagnose.nearest-text", "nearest-text winners equal a brute-force scan",
          got == expect and ledger == {"below_min_sim": dropped, "duplicate_neighbor": collapsed},
          f"{len(got)} rows vs {len(expect)} expected; ledger {ledger}")

    syns, syn_index = _emb(work / "synsets.emb")
    syn_norms = _norms(syns)
    edges = _parse_range(W.BIN_EDGES)
    sums, counts = [0.0] * (len(edges) - 1), [0] * (len(edges) - 1)
    for pair in _jsonl(work / "pairs.jsonl"):
        scores = _scan(syns, syn_norms, texts[text_index[pair["id"]]])
        own = scores[syn_index[pair["wnid"]]]
        b = int(np.searchsorted(edges, own, side="right")) - 1
        if 0 <= b < len(counts) and own < edges[b + 1]:
            sums[b] += int(np.sum(scores > own)) / (len(syns) - 1)
            counts[b] += 1
    got = [(int(r["count"]), r["mean_false_class_proportion"])
           for r in _csv(out / "false_class" / "false_class_bins.csv")]
    expect = [(n, repr(s / n) if n else "") for s, n in zip(sums, counts)]
    c.add("diagnose.false-class", "false-class bins recomputed", got == expect,
          f"got {got}, expected {expect}")

    images, image_index = _emb(work / "images_a.emb")
    classes_a = _manifest_classes(work / "manifest_a.jsonl")
    intra = {r["wnid"]: r for r in _csv(out / "intra" / "intra_class_sims.csv")}
    bad = [w for w, ids in classes_a.items()
           if int(intra[w]["n_images"]) != len(ids)
           or abs(float(intra[w]["mean_sim"])
                  - _mean_pair_sim(images[[image_index[i] for i in ids]])) > TOL]
    c.add("diagnose.intra", "intra-class mean similarity recomputed", not bad,
          f"classes differ: {bad[:3]}")
    hist_total = sum(int(r["count"]) for r in _csv(out / "intra" / "intra_hist.csv"))
    pairs = sum(len(v) * (len(v) - 1) // 2 for v in classes_a.values())
    c.add("diagnose.intra", "histogram counts every pair", hist_total == pairs,
          f"{hist_total} counted, {pairs} pairs")

    images_b, image_b_index = _emb(work / "images_b.emb")
    classes_b = _manifest_classes(work / "manifest_b.jsonl")
    diffs = _csv(out / "compare" / "intra_class_diff.csv")
    shared = sorted(w for w in set(classes_a) & set(classes_b)
                    if len(classes_a[w]) > 1 and len(classes_b[w]) > 1)
    bad = [r["wnid"] for r in diffs
           if not float(r["ci_low"]) <= float(r["value"]) <= float(r["ci_high"])
           or abs(float(r["value"])
                  - _mean_pair_sim(images[[image_index[i] for i in classes_a[r["wnid"]]]])
                  + _mean_pair_sim(images_b[[image_b_index[i] for i in classes_b[r["wnid"]]]]))
           > TOL]
    summary = json.loads((out / "compare" / "comparison.json").read_text())
    n = len(diffs)
    c.add("diagnose.compare", "compare intervals contain their values", not bad and
          sorted(r["wnid"] for r in diffs) == shared, f"classes differ: {bad[:3]}")
    c.add("diagnose.compare", "comparison summary agrees with the per-class intervals",
          summary == {"n_shared": n,
                      "prop_A_lower": sum(float(r["ci_high"]) < 0 for r in diffs) / n,
                      "prop_B_lower": sum(float(r["ci_low"]) > 0 for r in diffs) / n},
          f"summary {summary}")

    rows = _csv(out / "cross_modal" / "cross_modal.csv")
    bad = [] if sorted(r["wnid"] for r in rows) == sorted(classes_a) else ["class set"]
    for r in rows:
        ids = classes_a[r["wnid"]]
        syn = syns[syn_index[r["wnid"]]]
        mean = float(np.mean([_pair_cosine(syn, images[image_index[i]]) for i in ids]))
        if (not float(r["ci_low"]) <= float(r["value"]) <= float(r["ci_high"])
                or abs(float(r["value"]) - mean) > TOL or int(r["n"]) != len(ids)):
            bad.append(r["wnid"])
    c.add("diagnose.cross-modal", "cross-modal means recomputed, intervals contain them",
          not bad, f"classes differ: {bad[:3]}")


# -- simulate -----------------------------------------------------------------


def check_simulate(c: Checks, work: Path, out: Path, rng, sizes: dict) -> None:
    report = json.loads((out / "sim" / "report.json").read_text())
    c.add("simulate", "text-rule bin test passes, image-rule bin test rejects",
          not report["bin_test_text"]["reject"] and report["bin_test_image"]["reject"],
          f"text {report['bin_test_text']}, image {report['bin_test_image']}")
    c.add("simulate", "image rule accepts at the text rule's rate",
          abs(report["acceptance_text"] - report["acceptance_image"]) < 0.01,
          f"{report['acceptance_text']} vs {report['acceptance_image']}")
    config = json.loads((work / "sim.json").read_text())
    rows = _csv(out / "sim" / "variances.csv")
    c.add("simulate", "one variance row per image dimension", len(rows) == config["x_dim"],
          f"{len(rows)} rows")


CHECKS = {"curate": check_curate, "diagnose": check_diagnose, "simulate": check_simulate}


def run_checks(workload: str, work: Path, out: Path, seed: int, sizes: dict) -> list[dict]:
    c = Checks(W.stage_names(workload))
    try:
        CHECKS[workload](c, work, out, np.random.default_rng([seed, 99]), sizes[workload])
    except Exception as exc:  # a missing or malformed output fails the checks, not the run
        c.items.append({"stage": 0, "name": "outputs readable", "ok": False,
                        "detail": f"{type(exc).__name__}: {exc}"})
    return c.items


def main(argv: list[str]) -> int:
    workload, work, out, seed, scale = argv
    work = Path(work)
    sizes = W.TINY if scale == "tiny" else W.SIZES
    print(json.dumps({"checks": run_checks(workload, work, work / out, int(seed), sizes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
