"""capsieve benchmark: seeded workloads run through the real CLI.

    python3 bench/run.py --workload curate --seed 1 --seconds 20 --trace 0

With `--trace 0` every pass runs each stage as its own
`python -m capsieve.cli <stage>` child, as a shell pipeline would, and
reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mib, setup_s).
With `--trace 1` the same stages run in-process through
`capsieve.cli.run` in one child, with the package's public functions
wrapped by `bench/trace.py`, and the per-layer metrics are reported.
Either way the outputs are checked by `bench/checks.py`, which shares no
code with the package, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

This driving process imports only the standard library: a stage child's
`ru_maxrss` starts from the RSS of the process that spawned it, so the
process must stay small for `peak_rss_mib` to be the stage's own.
Generated inputs live in `.bench_work/` and are removed at exit; the
full results, with run metadata and spans, go to `.bench_results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

WORKLOADS = ("curate", "diagnose", "simulate")
SETUP_REPS = 7  # fresh processes per run; setup_s is their median
MIN_PASSES = 3
STAGE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 170

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not run (missing program, broken helper)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_json(argv: list[str], cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run a helper child and parse the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed no result")
    return json.loads(lines[-1])


def run_stage(argv: list[str], cwd: Path, err_path: Path) -> dict:
    """One `python -m capsieve.cli` child: wall time, and CPU and peak RSS
    from its own rusage via wait4 (RUSAGE_CHILDREN only ever grows)."""
    with err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "capsieve.cli", *argv], cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,  # Linux reports KiB
    }
    if proc.returncode != 0:
        result["stderr"] = err_path.read_text(errors="replace")[-2000:]
    return result


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stage_argv(argv: list[str], out: str) -> list[str]:
    return [a.replace("{out}", out) for a in argv]


def untraced_passes(stages, workdir: Path, seconds: float) -> tuple[list[dict], list[str]]:
    """Run whole passes until `seconds` have elapsed (at least MIN_PASSES).
    Each pass writes a fresh output tree; all but the first are removed
    once digested."""
    passes, digests = [], []
    start = time.perf_counter()
    while more_passes(start, seconds, len(passes)):
        i = len(passes)
        out = f"pass{i}"
        results = [
            run_stage(stage_argv(argv, out), workdir, workdir / f"{out}.stage{k}.err")
            for k, (_, argv) in enumerate(stages)
        ]
        passes.append({"stages": results})
        digests.append(tree_digest(workdir / out))
        if i > 0:
            shutil.rmtree(workdir / out, ignore_errors=True)
    return passes, digests


def more_passes(start: float, seconds: float, done: int) -> bool:
    """Measure for `seconds`; take at least MIN_PASSES if a slow program
    leaves time for them within the run's limit."""
    elapsed = time.perf_counter() - start
    return elapsed < seconds or (done < MIN_PASSES and elapsed < 2 * seconds + 10)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def machine_info(numpy_info: dict) -> dict:
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        mem = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_info.get("version"),
        "blas": numpy_info.get("blas"),
        "nproc": os.cpu_count(),
        "mem_total_bytes": mem,
        # The CLI's default --workers, which every stage here runs with.
        "cli_workers": os.cpu_count() or 1,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, sizes: str) -> dict:
    workdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        gen_start = time.perf_counter()
        meta = run_json(
            [str(BENCH / "workloads.py"), workload, str(seed), str(workdir), sizes], ROOT
        )
        gen_s = time.perf_counter() - gen_start
        stages = meta["stages"]

        setups = []
        for _ in range(SETUP_REPS):
            probe = run_json([str(BENCH / "setup_probe.py"), workload], workdir)
            if not Path(probe["capsieve"]).resolve().is_relative_to(SRC.resolve()):
                raise BenchError(f"imported capsieve from {probe['capsieve']}, not {SRC}")
            setups.append(probe["setup_s"])

        if trace:
            (workdir / "stages.json").write_text(json.dumps(stages))
            traced = run_json(
                [str(BENCH / "trace.py"), str(seconds), str(RESULTS / f"{workload}.spans.jsonl.gz")],
                workdir,
            )
            passes, digests = traced["passes"], traced["digests"]
        else:
            passes, digests = untraced_passes(stages, workdir, seconds)
            traced = None

        checks = run_json(
            [str(BENCH / "checks.py"), workload, str(workdir), "pass0", str(seed), sizes],
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another workload's directory is still there
            pass

    # A stage invocation fails if it exits non-zero, if its outputs differ
    # from the first pass's, or (first pass) if an output check fails.
    failed: set[tuple[int, int]] = set()
    for i, p in enumerate(passes):
        for k, s in enumerate(p["stages"]):
            if s["code"] != 0:
                failed.add((i, k))
    for i, d in enumerate(digests):
        if d != digests[0]:
            failed.update((i, k) for k in range(len(stages)))
    for c in checks["checks"]:
        if not c["ok"]:
            failed.add((0, c["stage"]))
    attempted = sum(len(p["stages"]) for p in passes)

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_info(meta["numpy"]),
        "inputs": {"sizes": meta["sizes"], "file_bytes": meta["files"]},
        "generate_s": gen_s,
        "setup_s_samples": setups,
        "stages": [name for name, _ in stages],
        "passes": passes,
        "output_digest": digests[0],
        "checks": checks["checks"],
        "attempted": attempted,
        "failed": len(failed),
        "failed_ops": len(failed) / attempted,
    }
    if trace:
        result["layers"] = traced["layers"]
        result["stage_layers"] = traced["stage_layers"]
        result["span_file"] = traced["span_file"]
    else:
        walls = [sum(s["wall_s"] for s in p["stages"]) for p in passes]
        cpus = [sum(s["cpu_s"] for s in p["stages"]) for p in passes]
        rss = [max(s["rss_mib"] for s in p["stages"]) for p in passes]
        result["end_to_end"] = {
            "wall_s": walls, "cpu_s": cpus, "peak_rss_mib": rss, "setup_s": setups,
        }
    return result


def report(result: dict) -> dict:
    """Print the human-readable summary; return the metrics object."""
    m = result["machine"]
    print(f"capsieve benchmark  workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={int(result['trace'])}")
    print(f"  machine  python {m['python']}, numpy {m['numpy']} ({m['blas']}), "
          f"nproc {m['nproc']}, mem {m['mem_total_bytes'] / 2**30:.1f} GiB, "
          f"cli --workers {m['cli_workers']}")
    sizes = ", ".join(f"{k}={v}" for k, v in result["inputs"]["sizes"].items())
    total = sum(result["inputs"]["file_bytes"].values())
    print(f"  inputs   {sizes}; {len(result['inputs']['file_bytes'])} files, "
          f"{total / 2**20:.1f} MiB; generated in {result['generate_s']:.2f} s (not gated)")
    print(f"  stages   {' -> '.join(result['stages'])}")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED  {c['name']}: {c['detail']}")
    for i, p in enumerate(result["passes"]):
        for name, s in zip(result["stages"], p["stages"]):
            if s["code"] != 0:
                print(f"  STAGE FAILED  pass {i} {name} exit {s['code']} {s.get('stderr', '')}")
    print(f"  checks   {sum(c['ok'] for c in result['checks'])}/{len(result['checks'])} ok; "
          f"failed_ops {result['failed']}/{result['attempted']} = {result['failed_ops']:.3f}")
    print(f"  output digest {result['output_digest'][:16]} (informational)")
    metrics = {}
    if result["trace"]:
        for name, (value, unit) in sorted(result["layers"].items()):
            print(f"  {name:<36} {value:>14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        metrics["failed_ops"] = {"value": result["failed_ops"], "unit": "ratio"}
        print("  stage wall time and its self time by layer (s), median over traced passes:")
        for stage, layers in result["stage_layers"].items():
            parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
            print(f"    cli.{stage:<24} {parts}")
        print(f"  spans written to {result['span_file']}")
    else:
        for name, values in result["end_to_end"].items():
            q1, med, q3 = quartiles(values)
            print(f"  {name:<14} median {med:10.4f} {UNITS[name]:<4} "
                  f"q1 {q1:.4f} q3 {q3:.4f} max {max(values):.4f}  n={len(values)}")
            metrics[name] = {"value": med, "unit": UNITS[name]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help="input scale; tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "capsieve" / "cli.py").is_file():
        print(f"bench: no capsieve sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.sizes)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}.json").write_text(json.dumps(result, indent=1) + "\n")
    metrics = report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
