"""Traced in-process run of a workload's stages, for per-layer metrics.

    python3 bench/trace.py <seconds> <span file>

Run from the workload directory, which holds the stage list in
`stages.json`. Imports `capsieve.cli` (timed as
`cli.import_s`), then alternates untraced and traced passes of the
workload's stages through `capsieve.cli.run` until `seconds` have
elapsed, and ends with one memory pass. Each pass writes a fresh output
tree; `run.py` checks that all of them are byte-identical.

Tracing wraps every public function of the measured modules at each
module attribute that holds it, so calls made through `from x import y`
aliases (`capsieve.curator.cosine`, `capsieve.cli.load_embeddings`) are
seen too. A function that no longer exists is skipped, so a rename
yields zero counts rather than a crash. Spans are (name, start, end,
parent, run id), kept in memory and written out at the end; every
stage's spans nest under a `cli.<stage>` span. Self time is a span's
duration minus that of its children. Calls made from threads other than
the main one (the matcher's scan shards) pass through unrecorded; their
time stays inside the calling span.

The memory pass wraps only the functions whose peak is reported, with
tracemalloc started at span entry, so its cost stays out of the timed
passes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import shutil
import statistics
import sys
import threading
import time
import tracemalloc
import traceback
from collections import defaultdict
from pathlib import Path

from run import more_passes, stage_argv, tree_digest

LAYERS = ("taxonomy", "corpus", "matcher", "vectorops", "curator", "evalmetrics",
          "diagnostics", "causalsim", "provenance")
PEAK_FUNCTIONS = {
    "diagnostics.per_class_mean_diff_ci": "diagnostics.mean_diff_ci_peak_mib",
    "causalsim.generate": "causalsim.peak_mib",
    "causalsim.select": "causalsim.peak_mib",
    "causalsim.matched_ball_radius": "causalsim.peak_mib",
    "causalsim.bottleneck_gap": "causalsim.peak_mib",
}
MIB = float(1 << 20)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counter hooks, keyed by span name: (tracer, fn, args, kwargs, result, cpu seconds).
def _find_matches(t, fn, args, kwargs, result, cpu):
    a = _bound(fn, args, kwargs)
    t.count["matcher.captions_scanned"] += len(a["corpus"])
    t.count["matcher.matches"] += len(result)
    t.count["matcher.captions_hit"] += len({m.instance_id for m in result})
    t.count["matcher.find_matches_cpu_s"] += cpu


def _load(t, fn, args, kwargs, result, cpu):
    path = str(next(iter(_bound(fn, args, kwargs).values())))
    t.count["corpus.bytes_loaded"] += _size(path)
    t.files_loaded[os.path.realpath(path)] = _size(path)


def _file_digest(t, fn, args, kwargs, result, cpu):
    path = str(next(iter(_bound(fn, args, kwargs).values())))
    t.count["provenance.bytes_hashed"] += _size(path)
    t.files_hashed[os.path.realpath(path)] = _size(path)


def _batch_cosine(t, fn, args, kwargs, result, cpu):
    t.count["vectorops.rows_scored"] += _bound(fn, args, kwargs)["matrix"].count


def _score_candidates(t, fn, args, kwargs, result, cpu):
    t.count["curator.candidates"] += len(result)


def _assemble(t, fn, args, kwargs, result, cpu):
    t.count["curator.assemble_in"] += len(_bound(fn, args, kwargs)["candidates"])
    t.count["curator.assemble_kept"] += len(result.rows)


def _mean_diff_ci(t, fn, args, kwargs, result, cpu):
    a = _bound(fn, args, kwargs)
    replicates = a["n_boot"] * len(result)
    t.count["diagnostics.bootstrap_replicates"] += replicates
    key = (id(a["setsA"]), id(a["setsB"]), a["n_boot"], a["seed"])
    if key not in t.bootstrap_keys:  # an identical repeat reaches no output
        t.bootstrap_keys.add(key)
        t.count["diagnostics.bootstrap_useful"] += replicates


def _as_arrays(t, fn, args, kwargs, result, cpu):
    t.count["causalsim.as_arrays_rows"] += len(result[0])


def _generate(t, fn, args, kwargs, result, cpu):
    t.count["causalsim.samples"] += len(result)


HOOKS = {
    "matcher.find_matches": _find_matches,
    "corpus.load_corpus": _load,
    "corpus.load_embeddings": _load,
    "provenance.file_digest": _file_digest,
    "vectorops.batch_cosine": _batch_cosine,
    "curator.score_candidates": _score_candidates,
    "curator.assemble": _assemble,
    "diagnostics.per_class_mean_diff_ci": _mean_diff_ci,
    "causalsim.as_arrays": _as_arrays,
    "causalsim.generate": _generate,
}


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.main = threading.get_ident()
        self.spans: list = []  # (name, start, end, parent index, run id)
        self.stack: list[int] = []
        self.count: dict[str, float] = defaultdict(float)
        self.files_loaded: dict[str, int] = {}
        self.files_hashed: dict[str, int] = {}
        self.bootstrap_keys: set = set()
        self.peaks: dict[str, float] = defaultdict(float)
        self.mem_stack: list[list[int]] = []

    def span(self, name: str, fn, *args, **kwargs):
        if threading.get_ident() != self.main:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:  # a new stage: object ids from earlier stages may be reused
            self.bootstrap_keys.clear()
        self.spans.append(None)
        self.stack.append(idx)
        hook = HOOKS.get(name)
        cpu0 = time.process_time() if hook else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run_id)
        if hook:
            hook(self, fn, args, kwargs, result, time.process_time() - cpu0)
        return result

    def peak(self, name: str, fn, *args, **kwargs):
        """Run `fn` recording its tracemalloc peak above the memory in use
        at entry; nested spans fold their peak into the enclosing one."""
        if not self.mem_stack:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self.mem_stack:
            self.mem_stack[-1][1] = max(self.mem_stack[-1][1], peak)
        frame = [current, current]
        self.mem_stack.append(frame)
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            self.mem_stack.pop()
            metric = PEAK_FUNCTIONS[name]
            self.peaks[metric] = max(self.peaks[metric], (frame[1] - frame[0]) / MIB)
            if self.mem_stack:
                self.mem_stack[-1][1] = max(self.mem_stack[-1][1], frame[1])
                tracemalloc.reset_peak()
            else:
                tracemalloc.stop()


def public_functions() -> dict[str, object]:
    """`layer.function` -> function, for every public function each
    measured module defines."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"capsieve.{layer}")
        if module is None:
            continue
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found[f"{layer}.{attr}"] = value
    return found


class Patch:
    """Replace every capsieve module attribute that holds a traced
    function with a wrapper; `undo` restores the originals."""

    def __init__(self, tracer: Tracer, memory: bool):
        self.saved: list[tuple[object, str, object]] = []
        wrappers = {}
        for name, fn in public_functions().items():
            if memory and name not in PEAK_FUNCTIONS:
                continue
            method = tracer.peak if memory else tracer.span
            wrappers[id(fn)] = functools.wraps(fn)(functools.partial(method, name, fn))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "capsieve" or mod_name.startswith("capsieve.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def undo(self) -> None:
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)


def run_pass(cli, stages, out: str, tracer: Tracer | None) -> list[dict]:
    results = []
    for label, argv in stages:
        argv = stage_argv(argv, out)
        start = time.perf_counter()
        try:
            if tracer is not None:
                code = tracer.span(f"cli.{label}", cli.run, argv)
            else:
                code = cli.run(argv)
        except Exception:  # a crashing stage is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = 1
        results.append({"code": code, "wall_s": time.perf_counter() - start})
    return results


def _sum(by_name: dict, *names: str) -> float:
    return sum(by_name.get(n, 0.0) for n in names)


def layer_metrics(t: Tracer) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and per stage its self time by
    layer (the stage's own self time under "cli"), its duration "wall",
    and "gap": the duration minus the sum of all self times in its tree."""
    spans = t.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    incl, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    stages: dict[str, dict[str, float]] = {}
    root_of = [0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        own = end - start - child_time[i]
        root_of[i] = i if parent < 0 else root_of[parent]
        incl[name] += end - start
        self_time[name] += own
        calls[name] += 1
        root = spans[root_of[i]]
        layers = stages.setdefault(root[0][len("cli."):], defaultdict(float))
        layers[name.split(".")[0]] += own
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0:
            layers = stages[name[len("cli."):]]
            layers["gap"] = end - start - sum(layers.values())
            layers["wall"] = end - start

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_time.items() if k.startswith(layer + "."))

    c = t.count
    stage_names = [n for n in calls if n.startswith("cli.")]
    find_s = incl.get("matcher.find_matches", 0.0)
    return {
        "matcher.build_s": incl["matcher.build_matcher"],
        "matcher.find_matches_s": find_s,
        "matcher.cpu_ratio": c["matcher.find_matches_cpu_s"] / find_s if find_s else 0.0,
        "matcher.captions_scanned": c["matcher.captions_scanned"],
        "matcher.matches": c["matcher.matches"],
        "matcher.hit_ratio": (c["matcher.captions_hit"] / c["matcher.captions_scanned"]
                              if c["matcher.captions_scanned"] else 0.0),
        "taxonomy.load_s": incl["taxonomy.load_taxonomy"],
        "corpus.load_corpus_s": incl["corpus.load_corpus"],
        "corpus.load_embeddings_s": incl["corpus.load_embeddings"],
        "corpus.load_calls": calls["corpus.load_corpus"] + calls["corpus.load_embeddings"],
        "corpus.distinct_files": len(t.files_loaded),
        "corpus.bytes_loaded": c["corpus.bytes_loaded"],
        "corpus.distinct_bytes": sum(t.files_loaded.values()),
        "vectorops.cosine_calls": calls["vectorops.cosine"],
        "vectorops.cosine_s": incl["vectorops.cosine"],
        "vectorops.batch_cosine_calls": calls["vectorops.batch_cosine"],
        "vectorops.batch_cosine_s": incl["vectorops.batch_cosine"],
        "vectorops.rows_scored": c["vectorops.rows_scored"],
        "curator.score_candidates_self_s": self_time["curator.score_candidates"],
        "curator.candidates_io_s": _sum(self_time, "curator.write_candidates",
                                        "curator.load_candidates", "curator.write_manifest",
                                        "curator.load_manifest"),
        "curator.threshold_sweep_s": incl["curator.threshold_sweep"],
        "curator.assemble_s": _sum(incl, "curator.assemble", "curator.top_k_per_class"),
        "curator.candidates": c["curator.candidates"],
        "curator.kept_ratio": (c["curator.assemble_kept"] / c["curator.assemble_in"]
                               if c["curator.assemble_in"] else 0.0),
        "evalmetrics.eval_s": layer_self("evalmetrics"),
        "diagnostics.nearest_text_s": incl["diagnostics.nearest_text_dataset"],
        "diagnostics.false_class_s": incl["diagnostics.binned_false_class_means"],
        "diagnostics.intra_class_sims_s": incl["diagnostics.intra_class_sims"],
        "diagnostics.cross_modal_s": incl["diagnostics.cross_modal_class_stats"],
        "diagnostics.mean_diff_ci_s": incl["diagnostics.per_class_mean_diff_ci"],
        "diagnostics.mean_diff_ci_calls": calls["diagnostics.per_class_mean_diff_ci"],
        "diagnostics.compare_runs": calls["cli.diagnose.compare"],
        "diagnostics.bootstrap_replicates": c["diagnostics.bootstrap_replicates"],
        "diagnostics.bootstrap_useful_ratio": (
            c["diagnostics.bootstrap_useful"] / c["diagnostics.bootstrap_replicates"]
            if c["diagnostics.bootstrap_replicates"] else 0.0),
        "causalsim.generate_s": incl["causalsim.generate"],
        "causalsim.select_s": incl["causalsim.select"],
        "causalsim.bottleneck_gap_s": incl["causalsim.bottleneck_gap"],
        "causalsim.as_arrays_calls": calls["causalsim.as_arrays"],
        "causalsim.as_arrays_rows": c["causalsim.as_arrays_rows"],
        "causalsim.samples": c["causalsim.samples"],
        "cli.self_s": sum(self_time[n] for n in stage_names),
        "provenance.digest_s": _sum(incl, "provenance.config_digest", "provenance.file_digest"),
        "provenance.bytes_hashed": c["provenance.bytes_hashed"],
        "provenance.distinct_bytes": sum(t.files_hashed.values()),
        "trace.spans": len(spans),
    }, stages


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if "bytes" in name else "count"


def main(seconds: float, span_file: str) -> int:
    start = time.perf_counter()
    import capsieve.cli as cli
    import_s = time.perf_counter() - start

    stages = json.loads(Path("stages.json").read_text())
    passes, digests, walls, tracers = [], [], {False: [], True: []}, []

    def one_pass(tracer: Tracer | None, memory: bool = False) -> None:
        out = f"pass{len(passes)}"
        patch = Patch(tracer, memory) if tracer else None
        try:
            results = run_pass(cli, stages, out, None if memory else tracer)
        finally:
            if patch:
                patch.undo()
        passes.append({"stages": results})
        digests.append(tree_digest(Path(out)))
        if len(passes) > 1:
            shutil.rmtree(out, ignore_errors=True)
        if not memory:
            walls[tracer is not None].append(sum(r["wall_s"] for r in results))

    start = time.perf_counter()
    while more_passes(start, seconds, len(tracers)):
        one_pass(None)
        tracers.append(Tracer(len(passes)))
        one_pass(tracers[-1])
    memory = Tracer(len(passes))
    one_pass(memory, memory=True)

    per_pass, per_stage = zip(*(layer_metrics(t) for t in tracers))
    layers = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    layers["cli.import_s"] = import_s
    layers["cli.stages"] = sum(len(p["stages"]) for p in passes)
    layers["cli.failed_stages"] = sum(r["code"] != 0 for p in passes for r in p["stages"])
    for metric in sorted(set(PEAK_FUNCTIONS.values())):
        layers[metric] = memory.peaks[metric]
    layers["trace.wall_s"] = statistics.median(walls[True])
    layers["trace.untraced_wall_s"] = statistics.median(walls[False])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    stage_layers = {
        stage: {layer: statistics.median(s[stage][layer] for s in per_stage)
                for layer in per_stage[0][stage]}
        for stage in per_stage[0]
    }
    layers["trace.self_time_gap_s"] = max(abs(s["gap"]) for s in stage_layers.values())

    Path(span_file).parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(span_file, "wt", encoding="utf-8", compresslevel=1) as fh:
        for t in tracers:
            for span in t.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "passes": passes,
        "digests": digests,
        "layers": {k: (float(v), unit(k)) for k, v in sorted(layers.items())},
        "stage_layers": stage_layers,
        "span_file": span_file,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), sys.argv[2]))
