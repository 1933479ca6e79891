"""Command-line front end.

Subcommands: match, sweep, assemble, eval, diagnose, simulate. Every value
can come from a JSON config file (--config); command-line flags win over
config entries. Every run writes a provenance.json next to its outputs
with the package version, the digest of the resolved configuration, and
content digests of all inputs and outputs. Nothing time- or host-
dependent is recorded, so identical runs produce identical bytes.

Exit codes: 0 ok, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__, causalsim, curator, diagnostics, evalmetrics, matcher, vectorops
from .corpus import load_corpus, load_embeddings
from .errors import CapsieveError, FormatError
from .provenance import config_digest, file_digest
from .taxonomy import load_taxonomy


class ConfigError(CapsieveError):
    """Bad flags, malformed config, or out-of-range parameters."""


def _parse_thresholds(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"threshold range must be a:b:step, got {spec!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-numeric threshold range {spec!r}") from None
        if step <= 0 or b < a:
            raise ConfigError(f"threshold range needs step > 0 and b >= a, got {spec!r}")
        values = []
        i = 0
        while True:
            v = a + i * step
            if v > b + 1e-12:
                break
            values.append(round(v, 12))
            i += 1
        return values
    try:
        values = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"non-numeric thresholds {spec!r}") from None
    if not values:
        raise ConfigError("no thresholds given")
    return values


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config


def _resolve(args, config: dict, key: str, default=None, required: bool = False):
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key, default)
    if required and value is None:
        raise ConfigError(f"missing required option --{key}")
    return value


def _resolve_flag(args, config: dict, key: str) -> bool:
    """Resolve an on/off option; config entries must be JSON true or false."""
    value = _resolve(args, config, key, default=False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _input_path(args, config: dict, key: str, required: bool = False):
    """Resolve an input path option; referenced paths must exist."""
    value = _resolve(args, config, key, required=required)
    if value is not None and not Path(value).exists():
        raise ConfigError(f"--{key}: no such file {value}")
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_provenance(out_dir: Path, command: str, params: dict, inputs: dict, outputs: list[Path]):
    payload = {
        "artifact_version": __version__,
        "command": command,
        "config_digest": config_digest(params),
        "inputs": {name: file_digest(p) for name, p in sorted(inputs.items())},
        "outputs": {p.name: file_digest(p) for p in sorted(outputs)},
    }
    _write_json(out_dir / "provenance.json", payload)


def _out_dir(args, config) -> Path:
    out = Path(_resolve(args, config, "out", required=True))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pairs(path) -> list[tuple[str, str]]:
    """JSONL of {"id": str, "wnid": str} pairs (extra keys ignored)."""
    pairs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                row = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", path=path, line=lineno) from exc
            if not isinstance(row, dict):
                raise FormatError("expected a JSON object", path=path, line=lineno)
            try:
                pairs.append((row["id"], row["wnid"]))
            except KeyError as exc:
                raise ConfigError(f"{path}: line {lineno}: missing {exc.args[0]!r}") from None
    return pairs


def _load_weights(path) -> dict[str, float]:
    """JSON object mapping wnid to class weight."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise FormatError(f"invalid JSON ({exc})", path=path) from None
    if not isinstance(document, dict):
        raise FormatError("expected a JSON object of class weights", path=path)
    weights = {}
    for wnid, value in document.items():
        try:
            weights[wnid] = float(value)
        except (TypeError, ValueError):
            raise FormatError(f"non-numeric weight {value!r} for {wnid!r}", path=path) from None
    return weights


# -- subcommands ---------------------------------------------------------------


def _cmd_match(args) -> int:
    config = _load_config_file(args.config)
    out = _out_dir(args, config)
    taxonomy_path = _input_path(args, config, "taxonomy", required=True)
    corpus_path = _input_path(args, config, "corpus", required=True)
    caption_emb_path = _input_path(args, config, "caption-embeddings")
    synset_emb_path = _input_path(args, config, "synset-embeddings")
    max_lemmas = _resolve(args, config, "max-lemmas")
    if bool(caption_emb_path) != bool(synset_emb_path):
        raise ConfigError(
            "scoring needs both --caption-embeddings and --synset-embeddings, or neither"
        )

    taxonomy = load_taxonomy(taxonomy_path)
    corpus = load_corpus(corpus_path)
    auto = matcher.build_matcher(taxonomy, max_lemmas_per_synset=max_lemmas)
    matches = matcher.find_matches(auto, corpus)

    matches_path = out / "matches.jsonl"
    with matches_path.open("w", encoding="utf-8", newline="\n") as fh:
        for m in matches:
            fh.write(
                json.dumps(
                    {
                        "id": m.instance_id,
                        "wnid": m.wnid,
                        "lemma": m.lemma,
                        "start": m.span[0],
                        "end": m.span[1],
                    }
                )
            )
            fh.write("\n")
    outputs = [matches_path]
    inputs = {"taxonomy": taxonomy_path, "corpus": corpus_path}

    if caption_emb_path:
        candidates = curator.score_candidates(
            matches, load_embeddings(caption_emb_path), load_embeddings(synset_emb_path)
        )
        candidates_path = out / "candidates.jsonl"
        curator.write_candidates(candidates, candidates_path)
        outputs.append(candidates_path)
        inputs["caption_embeddings"] = caption_emb_path
        inputs["synset_embeddings"] = synset_emb_path

    params = {"command": "match", "max_lemmas": max_lemmas}
    _write_provenance(out, "match", params, inputs, outputs)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config_file(args.config)
    out = _out_dir(args, config)
    candidates_path = _input_path(args, config, "candidates", required=True)
    thresholds = _parse_thresholds(_resolve(args, config, "thresholds", required=True))

    candidates = curator.load_candidates(candidates_path)
    points = curator.threshold_sweep(candidates, thresholds)
    sweep_path = out / "sweep.csv"
    curator.write_sweep_csv(points, sweep_path)
    params = {"command": "sweep", "thresholds": thresholds}
    _write_provenance(out, "sweep", params, {"candidates": candidates_path}, [sweep_path])
    return 0


def _cmd_assemble(args) -> int:
    config = _load_config_file(args.config)
    out = _out_dir(args, config)
    candidates_path = _input_path(args, config, "candidates", required=True)
    corpus_path = _input_path(args, config, "corpus", required=True)
    threshold = float(_resolve(args, config, "threshold", required=True))
    if not -1.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold {threshold} outside [-1, 1]")
    top_k = _resolve(args, config, "top-k")
    options = curator.AssembleOptions(
        drop_multi_label=_resolve_flag(args, config, "drop-multi-label"),
        drop_nsfw=_resolve_flag(args, config, "drop-nsfw"),
        drop_text_in_image=_resolve_flag(args, config, "drop-text-in-image"),
    )

    manifest = curator.assemble(
        curator.load_candidates(candidates_path), threshold, load_corpus(corpus_path), options
    )
    if top_k is not None:
        manifest = curator.top_k_per_class(manifest, int(top_k))
    rows_path = out / "manifest.jsonl"
    meta_path = out / "manifest.meta.json"
    curator.write_manifest(manifest, rows_path, meta_path)
    params = {
        "command": "assemble",
        "threshold": threshold,
        "top_k": top_k,
        "drop_multi_label": options.drop_multi_label,
        "drop_nsfw": options.drop_nsfw,
        "drop_text_in_image": options.drop_text_in_image,
    }
    _write_provenance(
        out,
        "assemble",
        params,
        {"candidates": candidates_path, "corpus": corpus_path},
        [rows_path, meta_path],
    )
    return 0


def _cmd_eval(args) -> int:
    config = _load_config_file(args.config)
    out = _out_dir(args, config)
    manifest_path = _input_path(args, config, "manifest", required=True)
    predictions_path = _input_path(args, config, "predictions", required=True)
    weights_mode = _resolve(args, config, "weights", default="freq")
    ks = [int(v) for v in str(_resolve(args, config, "k", default="1,5")).split(",") if v.strip()]
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"--k must list integers >= 1, got {ks}")

    manifest = curator.load_manifest(manifest_path)
    predictions = evalmetrics.load_predictions(predictions_path)
    inputs = {"manifest": manifest_path, "predictions": predictions_path}

    if weights_mode == "freq":
        weights = curator.relative_frequencies(manifest)
    elif weights_mode == "uniform":
        weights = {wnid: 1.0 / len(manifest.class_counts) for wnid in manifest.class_counts}
    else:
        inputs["weights"] = _input_path(args, config, "weights")
        weights = _load_weights(inputs["weights"])

    outputs = []
    summary: dict[str, dict] = {}
    for k in ks:
        stats = evalmetrics.per_class_recall(manifest, predictions, k)
        stats_path = out / f"recall_k{k}.csv"
        evalmetrics.write_class_stats_csv(stats, stats_path)
        outputs.append(stats_path)
        summary[str(k)] = {
            "equally_weighted": evalmetrics.equally_weighted_accuracy(stats),
            "weighted": evalmetrics.weighted_accuracy(stats, weights),
            "n_classes": len(stats),
        }
    accuracy_path = out / "accuracy.json"
    _write_json(accuracy_path, {"weights_mode": weights_mode, "topk": summary})
    outputs.append(accuracy_path)

    params = {"command": "eval", "k": ks, "weights_mode": weights_mode}
    _write_provenance(out, "eval", params, inputs, outputs)
    return 0


def _write_diff_curve_csv(stats, path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("wnid,value,ci_low,ci_high\n")
        for s in stats:
            fh.write(f"{s.wnid},{s.value!r},{s.ci_low!r},{s.ci_high!r}\n")


def _cmd_diagnose(args) -> int:
    config = _load_config_file(args.config)
    out = _out_dir(args, config)
    analysis = args.analysis
    seed = int(_resolve(args, config, "seed", default=0))
    n_boot = int(_resolve(args, config, "boot", default=diagnostics.DEFAULT_BOOTSTRAP_REPLICATES))
    inputs: dict[str, str] = {}
    outputs: list[Path] = []
    params: dict = {"command": "diagnose", "analysis": analysis, "seed": seed, "boot": n_boot}

    if analysis == "intra":
        manifest_path = _input_path(args, config, "manifest", required=True)
        emb_path = _input_path(args, config, "image-embeddings", required=True)
        hist_edges = _resolve(args, config, "hist-edges")
        sets = diagnostics.intra_class_sims(
            curator.load_manifest(manifest_path), load_embeddings(emb_path)
        )
        path = out / "intra_class_sims.csv"
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("wnid,n_images,n_pairs,mean_sim\n")
            for s in sets:
                mean = repr(float(s.sims.mean())) if len(s.sims) else ""
                fh.write(f"{s.wnid},{s.n_images},{len(s.sims)},{mean}\n")
        inputs = {"manifest": manifest_path, "image_embeddings": emb_path}
        outputs = [path]
        if hist_edges is not None:
            edges = _parse_thresholds(hist_edges)
            pooled = np.concatenate([s.sims for s in sets]) if sets else np.empty(0)
            counts, _ = np.histogram(pooled, bins=np.asarray(edges))
            hist_path = out / "intra_hist.csv"
            with hist_path.open("w", encoding="utf-8", newline="\n") as fh:
                fh.write("lo,hi,count\n")
                for i, count in enumerate(counts):
                    fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(count)}\n")
            outputs.append(hist_path)
            params["hist_edges"] = edges

    elif analysis == "compare":
        a_path = _input_path(args, config, "manifest-a", required=True)
        b_path = _input_path(args, config, "manifest-b", required=True)
        emb_a = _input_path(args, config, "image-embeddings-a", required=True)
        emb_b = _input_path(args, config, "image-embeddings-b", required=True)
        sets_a = diagnostics.intra_class_sims(curator.load_manifest(a_path), load_embeddings(emb_a))
        sets_b = diagnostics.intra_class_sims(curator.load_manifest(b_path), load_embeddings(emb_b))
        diffs = diagnostics.per_class_mean_diff_ci(sets_a, sets_b, n_boot=n_boot, seed=seed)
        comparison = diagnostics.compare_datasets(sets_a, sets_b, n_boot=n_boot, seed=seed)
        curve_path = out / "intra_class_diff.csv"
        _write_diff_curve_csv(diffs, curve_path)
        summary_path = out / "comparison.json"
        _write_json(
            summary_path,
            {
                "prop_A_lower": comparison.prop_A_lower,
                "prop_B_lower": comparison.prop_B_lower,
                "n_shared": comparison.n_shared,
            },
        )
        inputs = {
            "manifest_a": a_path,
            "manifest_b": b_path,
            "image_embeddings_a": emb_a,
            "image_embeddings_b": emb_b,
        }
        outputs = [curve_path, summary_path]

    elif analysis == "false-class":
        texts_path = _input_path(args, config, "text-embeddings", required=True)
        pairs_path = _input_path(args, config, "pairs", required=True)
        synset_path = _input_path(args, config, "synset-embeddings", required=True)
        edges = _parse_thresholds(_resolve(args, config, "bin-edges", required=True))
        texts_matrix = load_embeddings(texts_path)
        synsets = load_embeddings(synset_path)
        pairs = _load_pairs(pairs_path)
        vectors = np.stack(
            [vectorops.require_embedding(texts_matrix, i, "text") for i, _ in pairs]
        )
        intended = [wnid for _, wnid in pairs]
        bins = diagnostics.binned_false_class_means(vectors, intended, synsets, edges)
        path = out / "false_class_bins.csv"
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("lo,hi,count,mean_false_class_proportion\n")
            for b in bins:
                mean = repr(b.mean) if b.mean is not None else ""
                fh.write(f"{b.lo!r},{b.hi!r},{b.count},{mean}\n")
        inputs = {"text_embeddings": texts_path, "pairs": pairs_path, "synset_embeddings": synset_path}
        outputs = [path]
        params["bin_edges"] = edges

    elif analysis == "nearest-text":
        queries_path = _input_path(args, config, "query-embeddings", required=True)
        labels_path = _input_path(args, config, "query-labels", required=True)
        corpus_emb_path = _input_path(args, config, "corpus-embeddings", required=True)
        min_sim = float(_resolve(args, config, "min-sim", default=0.7))
        queries = load_embeddings(queries_path)
        labels = _load_pairs(labels_path)
        query_texts = [
            (vectorops.require_embedding(queries, i, "query"), wnid) for i, wnid in labels
        ]
        manifest = diagnostics.nearest_text_dataset(
            query_texts, load_embeddings(corpus_emb_path), min_sim
        )
        rows_path = out / "manifest.jsonl"
        meta_path = out / "manifest.meta.json"
        curator.write_manifest(manifest, rows_path, meta_path)
        inputs = {
            "query_embeddings": queries_path,
            "query_labels": labels_path,
            "corpus_embeddings": corpus_emb_path,
        }
        outputs = [rows_path, meta_path]
        params["min_sim"] = min_sim

    elif analysis == "cross-modal":
        manifest_path = _input_path(args, config, "manifest", required=True)
        image_path = _input_path(args, config, "image-embeddings", required=True)
        synset_path = _input_path(args, config, "synset-embeddings", required=True)
        stats = diagnostics.cross_modal_class_stats(
            curator.load_manifest(manifest_path),
            load_embeddings(image_path),
            load_embeddings(synset_path),
            n_boot=n_boot,
            seed=seed,
        )
        path = out / "cross_modal.csv"
        evalmetrics.write_class_stats_csv(stats, path)
        inputs = {
            "manifest": manifest_path,
            "image_embeddings": image_path,
            "synset_embeddings": synset_path,
        }
        outputs = [path]

    elif analysis == "correlate":
        csv_path = _input_path(args, config, "csv", required=True)
        x_col = _resolve(args, config, "x-col", required=True)
        y_col = _resolve(args, config, "y-col", required=True)
        with Path(csv_path).open("r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            try:
                xi, yi = header.index(x_col), header.index(y_col)
            except ValueError as exc:
                raise ConfigError(f"column not found in {csv_path}: {exc}") from None
            xs, ys = [], []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.rstrip("\n").split(",")
                try:
                    x, y = float(cells[xi]), float(cells[yi])
                except (IndexError, ValueError):
                    raise FormatError(
                        f"missing or non-numeric {x_col!r}/{y_col!r} cell",
                        path=csv_path,
                        line=lineno,
                    ) from None
                xs.append(x)
                ys.append(y)
        rho = diagnostics.spearman(xs, ys)
        path = out / "correlation.json"
        _write_json(path, {"spearman": rho, "n": len(xs), "x": x_col, "y": y_col})
        inputs = {"csv": csv_path}
        outputs = [path]
        params.update({"x_col": x_col, "y_col": y_col})

    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown diagnose analysis {analysis!r}")

    _write_provenance(out, f"diagnose {analysis}", params, inputs, outputs)
    return 0


def _number(value, what: str, convert=float):
    """`convert(value)`, raising ConfigError for a value of the wrong type."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def _rule_from_config(spec) -> causalsim.SelectionRule:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"selection rule must be an object with a 'kind', got {spec!r}")

    def optional(key):
        value = spec.get(key)
        return None if value is None else _number(value, f"selection rule {key}")

    prototype = spec.get("prototype")
    if prototype is not None:
        if not isinstance(prototype, list):
            raise ConfigError(f"selection rule prototype must be a list, got {prototype!r}")
        prototype = tuple(_number(v, "selection rule prototype entry") for v in prototype)
    return causalsim.SelectionRule(
        kind=spec["kind"],
        threshold=optional("threshold"),
        radius=optional("radius"),
        prototype=prototype,
        text_threshold_also=optional("text_threshold_also"),
    )


def _cmd_simulate(args) -> int:
    config = _load_config_file(args.config)
    if not config:
        raise ConfigError("simulate needs --config with the generator and rule parameters")
    out = _out_dir(args, config)
    try:
        gen = causalsim.GenConfig(
            n_classes=_number(config["n_classes"], "n_classes", int),
            x_dim=_number(config["x_dim"], "x_dim", int),
            text_noise_sd=_number(config["text_noise_sd"], "text_noise_sd"),
            class_sep=_number(config["class_sep"], "class_sep"),
            seed=_number(_resolve(args, config, "seed", default=0), "seed", int),
        )
        n = _number(_resolve(args, config, "n", default=100_000), "n", int)
        bin_width = _number(config.get("bin_width", 0.05), "bin_width")
        alpha = _number(config.get("alpha", 0.01), "alpha")
        text_rule = _rule_from_config(config["text_rule"])
        image_spec = config["image_rule"]
    except KeyError as exc:
        raise ConfigError(f"simulate config missing {exc.args[0]!r}") from None
    # With "radius": "match", pick the ball radius so the image rule accepts
    # at the same rate as the text rule; selection strength would otherwise
    # confound the variance comparison.
    match_radius = (
        isinstance(image_spec, dict)
        and image_spec.get("kind") == "image_ball"
        and image_spec.get("radius") == "match"
    )
    image_rule = _rule_from_config({**image_spec, "radius": 0.0} if match_radius else image_spec)

    samples = causalsim.generate(gen, n)
    if match_radius:
        rate = len(causalsim.select(samples, text_rule)) / len(samples)
        radius = causalsim.matched_ball_radius(samples, image_rule.prototype, rate)
        image_rule = dataclasses.replace(image_rule, radius=radius)
        image_spec = {**image_spec, "radius": radius}
    report = causalsim.bottleneck_gap(samples, text_rule, image_rule, bin_width, alpha)

    report_path = out / "report.json"
    _write_json(report_path, report.as_dict())
    csv_path = out / "variances.csv"
    with csv_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("dim,baseline,text_rule,image_rule\n")
        for d in range(gen.x_dim):
            fh.write(
                f"{d},{report.baseline_var[d]!r},"
                f"{report.per_dim_var_text[d]!r},{report.per_dim_var_image[d]!r}\n"
            )
    params = {
        "command": "simulate",
        "n": n,
        "n_classes": gen.n_classes,
        "x_dim": gen.x_dim,
        "text_noise_sd": gen.text_noise_sd,
        "class_sep": gen.class_sep,
        "seed": gen.seed,
        "text_rule": config["text_rule"],
        "image_rule": image_spec,
    }
    _write_provenance(out, "simulate", params, {"config": args.config}, [report_path, csv_path])
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="capsieve", description=__doc__)
    parser.add_argument("--version", action="version", version=f"capsieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its entries")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="root random seed")

    p = sub.add_parser("match", help="find lemma occurrences (and score candidates)")
    common(p)
    p.add_argument("--taxonomy")
    p.add_argument("--corpus")
    p.add_argument("--caption-embeddings")
    p.add_argument("--synset-embeddings")
    p.add_argument("--max-lemmas", type=int)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("sweep", help="candidate coverage per similarity threshold")
    common(p)
    p.add_argument("--candidates")
    p.add_argument("--thresholds", help="a:b:step or comma list")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("assemble", help="apply exclusion rules and emit the manifest")
    common(p)
    p.add_argument("--candidates")
    p.add_argument("--corpus")
    p.add_argument("--threshold", type=float)
    p.add_argument("--drop-multi-label", action="store_const", const=True)
    p.add_argument("--drop-nsfw", action="store_const", const=True)
    p.add_argument("--drop-text-in-image", action="store_const", const=True)
    p.add_argument("--top-k", type=int)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("eval", help="score ranked predictions against a manifest")
    common(p)
    p.add_argument("--manifest")
    p.add_argument("--predictions")
    p.add_argument("--weights", help="freq | uniform | JSON file of class weights")
    p.add_argument("--k", help="comma list of cutoffs, e.g. 1,5")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diagnose", help="statistical analyses over curated datasets")
    p.add_argument(
        "analysis",
        choices=["intra", "compare", "false-class", "nearest-text", "cross-modal", "correlate"],
    )
    common(p)
    p.add_argument("--boot", type=int, help="bootstrap replicates")
    p.add_argument("--manifest")
    p.add_argument("--manifest-a")
    p.add_argument("--manifest-b")
    p.add_argument("--image-embeddings")
    p.add_argument("--image-embeddings-a")
    p.add_argument("--image-embeddings-b")
    p.add_argument("--synset-embeddings")
    p.add_argument("--text-embeddings")
    p.add_argument("--query-embeddings")
    p.add_argument("--query-labels")
    p.add_argument("--corpus-embeddings")
    p.add_argument("--pairs")
    p.add_argument("--bin-edges")
    p.add_argument("--hist-edges")
    p.add_argument("--min-sim", type=float)
    p.add_argument("--csv")
    p.add_argument("--x-col")
    p.add_argument("--y-col")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="run the selection-bias simulator")
    common(p)
    p.add_argument("--n", type=int, help="number of samples")
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv, run the subcommand, map errors to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"capsieve: config error: {exc}", file=sys.stderr)
        return 2
    except CapsieveError as exc:
        print(f"capsieve: data error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"capsieve: data error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    logging.basicConfig(level=logging.WARNING)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
