"""Benchmark for bipergm: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload profile-30x15 --seed 1 --seconds 25 --trace 0

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  An op is one fit
(profile-30x15, mple-400x200) or one chain configuration (chain-2x2); an
op whose output fails its check counts as failed.  Lines before it report
each op, the environment and, in a traced run, each fit's breakdown.

The program is imported from ./src, never from an installed copy; without
it the benchmark exits with status 2 and prints no result.  Scratch files
go to ./.perfbench_work.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Median set-up time over fresh interpreters, at the reference speed."""
    from perfbench.speed import scale

    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_time.py"), workload, str(seed), str(work)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, mean_burst = map(float, done.stdout.split())
        samples.append(scale(seconds, mean_burst))
    return statistics.median(samples)


def run_ops(workload, probe=None, tracer=None) -> list:
    """Run one pass and time each op.  With a SpeedProbe, op times exclude
    its bursts and are also scaled to the reference speed."""
    from perfbench.workloads import Op

    ops = []
    for name, call in workload.pass_ops(tracer):
        if probe is None:
            start = time.perf_counter()
            result = call()
            ops.append(Op(name, time.perf_counter() - start, result=result))
        else:
            result, seconds, scaled = probe.timed(call)
            ops.append(Op(name, seconds, scaled, result=result))
    return ops


def timed_passes(workload, seconds: float) -> list[list]:
    """Repeat the workload's pass while the next one is expected to end
    within `seconds`; always at least one pass."""
    from perfbench.speed import SpeedProbe

    passes, took = [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            t0 = time.perf_counter()
            passes.append(run_ops(workload, probe))
            took.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(took) > seconds:
                return passes


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bipergm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_info() -> dict:
    info = {"model": None, "cache": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["model"] = value.strip()
                elif key.strip() == "cache size":
                    info["cache"] = value.strip()
                if info["cache"] and info["model"]:
                    break
    except OSError:
        pass
    return info


def environment(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_seeds": workload.seeds(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "cores": os.cpu_count(),
        "cpu": cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(args, work: Path) -> int:
    from perfbench import layers, probes, workloads
    from perfbench.tracing import Tracer
    from perfbench.workloads import Op

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    workload.prepare()
    values = {"setup_s": setup_seconds(args.workload, args.seed, work)}
    workload.setup()
    passes = timed_passes(workload, args.seconds)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = [op for one_pass in passes for op in one_pass]
    values["wall_s"] = statistics.median(sum(op.scaled for op in one_pass) for one_pass in passes)

    breakdown = []
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = run_ops(workload, tracer=tracer)
            start = time.perf_counter()
            code = probes.run_probe_fit(work)
            probe_fit = Op("probe-fit", time.perf_counter() - start, failure=None if code == 0 else f"exit {code}")
            ops += traced
        finally:
            tracer.restore()
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
        values.update(layers.span_metrics(tracer.spans))
        untraced_s = statistics.median(sum(op.seconds for op in one_pass) for one_pass in passes)
        values["trace.overhead_s"] = sum(op.seconds for op in traced) - untraced_s
        values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_s
        values["trace.spans"] = float(len(tracer.spans))
        values.update(probes.layer_metrics())
        breakdown = layers.fit_breakdown(tracer.spans)

    workload.verify(ops)
    if args.trace:
        ops.append(probe_fit)
    failed = sum(1 for op in ops if op.failure is not None)
    values["ops_ok_share"] = 1.0 - failed / len(ops)

    for op in ops:
        status = "ok" if op.failure is None else "FAILED: " + op.failure
        print(f"op {op.name}: {op.seconds:.4f} s, scaled {op.scaled:.4f} s, {status}")
    for row in breakdown:
        parts = " ".join(f"{k} {row[k]:.4f}" for k in ("anchors", "bridge", "hull", "mple", "self"))
        residual = row["wall"] - sum(row[k] for k in ("anchors", "bridge", "hull", "mple", "self"))
        print(f"fit {row['wall']:.4f} s = {parts} (residual {residual:.2e}) loglik_sd {row['info']['loglik_sd']:.4f}")
    env = environment(args, workload)
    print("environment:", json.dumps(env, sort_keys=True))
    metrics = {}
    for metric in SPEC["per_layer" if args.trace else "end_to_end"]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']}: {value!r} {metric['unit']}")
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bipergm" / "__init__.py").is_file():
        print(f"error: the bipergm sources are missing from {SRC}", file=sys.stderr)
        return 2
    # single-threaded BLAS, fixed before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import bipergm

    if Path(bipergm.__file__).resolve().parent != SRC / "bipergm":
        print(f"error: imported bipergm from {bipergm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
