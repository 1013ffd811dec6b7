"""Layered pipeline benchmark for urbanbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark writes the workload's
inputs from the seed (set-up), then for S seconds repeats a closed loop of
one complete `urbanbench run` into an empty directory, a rerun of the same
command over the complete store and an `urbanbench report`, each a fresh
process of the CLI entry point. Every run passes the output check or counts
all of its groups as failed; failed runs are never retried. The last line
of standard output is one JSON object: with `--trace 0` the end-to-end
metrics (medians over the repetitions, CPU times scaled to a reference host
speed; see REF_NOMINAL_S), with `--trace 1` the per-layer
metrics of traced repetitions interleaved with untraced ones.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_PY = Path(__file__).resolve().parent / "layertrace.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
# Gated times and the raw CPU times they are scaled from.
SCALED = {"run_ref_s": "run_cpu_s", "resume_ref_s": "resume_cpu_s", "setup_s": "synth.s"}

STORE_HEADER = ["model", "task", "city", "seed", "protocol", "metric", "value", "n_test"]
METRICS_PER_GROUP = 3
# One BLAS thread. On a 2-vCPU Xeon VM whose vCPUs behave as SMT siblings (a
# busy sibling slowed the other by about 1.5x), a second BLAS thread raised
# the spread of mlp-train's run_s over five seeds from 0.06 to 0.19.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
CHILD_LIMIT_S = 150.0
# Host-speed reference. On a shared 2-vCPU VM the CPU time of one unchanged
# command moved by up to 1.5x between phases lasting minutes, which no number
# of repetitions within one run averages out. `reference_work`, a fixed
# allocation-heavy piece of pure Python that runs no urbanbench code, moves
# with it: over 60-second blocks the mean CPU time of `import urbanbench.cli`
# in a fresh process varied by 6.6% (coefficient of variation), its ratio to
# the reference by 1.7%. The benchmark times the reference after every CLI
# process and every set-up batch, and scales the gated times to a host on
# which one unit takes REF_NOMINAL_S CPU seconds.
REF_KEYS = 150_000
REF_NOMINAL_S = 0.2
# Set-up is timed in batches of writes of at least SETUP_BATCH_S CPU seconds,
# one before the loop and one after each of its iterations. On a 2-vCPU VM
# each vCPU's speed toggled between two levels about 1.4x apart, for stretches
# of tens of milliseconds to seconds. Single writes (12-25 ms on mlp-train),
# and batches made back to back before the loop, took the level of that moment,
# and their median moved by 1.7x from run to run.
SETUP_BATCH_S = 0.4


@dataclass
class Rep:
    """One repetition: a complete run, then a rerun plus report over its store."""
    run_s: float = 0.0
    run_cpu_s: float = 0.0
    resume_s: float = 0.0
    resume_cpu_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)   # reference_work after each process


class Timing(NamedTuple):
    wall: float   # seconds
    cpu: float    # user + system seconds of the process
    code: int     # exit code
    rss: float    # peak resident set in MiB


def timed(cmd: list[str], log: Path) -> Timing:
    """Run `cmd` to completion and time it."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    with log.open("ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timing(wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                  usage.ru_maxrss / 1024.0)


def reference_work() -> float:
    """CPU seconds of one unit of the host-speed reference: build a dict of
    REF_KEYS string keys and sort them."""
    t0 = time.process_time()
    table = {str(i * 7919 % 1_000_003): (i, float(i)) for i in range(REF_KEYS)}
    sorted(table)
    return time.process_time() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out: Path, exit_code: int, workload, expected_digest: str | None) -> list[str]:
    """Problems with a complete run's outputs; empty when the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems = []
    if (out / "failures.csv").exists():
        problems.append("failures.csv present")
    store = out / "results.csv"
    if not store.is_file():
        return problems + ["results.csv missing"]
    with store.open(encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != STORE_HEADER:
        return problems + ["results.csv header mismatch"]
    want = workload.groups * METRICS_PER_GROUP
    if len(rows) - 1 != want:
        problems.append(f"results.csv holds {len(rows) - 1} records, expected {want}")
    metrics: dict[tuple, set[str]] = {}
    for r in rows[1:]:
        if len(r) != len(STORE_HEADER):
            return problems + [f"malformed results.csv row {r}"]
        metrics.setdefault(tuple(r[:5]), set()).add(r[5])
        try:
            value = float(r[6])
        except ValueError:
            return problems + [f"unparsable value in row {r}"]
        if not math.isfinite(value) and not (r[5] == "r2" and math.isnan(value)):
            problems.append(f"non-finite value in row {r}")
    if set(metrics) != workload.expected_groups():
        problems.append("results.csv groups differ from the planned groups")
    elif any(len(m) != METRICS_PER_GROUP for m in metrics.values()):
        problems.append("a group lacks some of its metrics")
    if expected_digest is not None and sha256(store) != expected_digest:
        problems.append(f"results.csv sha256 {sha256(store)} != expected {expected_digest}")
    return problems


def run_rep(workload, manifest: Path, out: Path, expected_digest: str | None,
            traced: bool, tag: str) -> Rep:
    rep = Rep()
    if out.exists():
        shutil.rmtree(out)
    log = out.parent / f"{tag}.log"

    def cli(args: list[str], step: str) -> Timing:
        if traced:
            spans = out.parent / f"{tag}.{step}.spans.json"
            rep.spans.append(spans)
            t = timed([sys.executable, str(TRACE_PY), str(spans), *args], log)
            rep.walls.append(t.wall)
        else:
            t = timed([sys.executable, "-m", "urbanbench.cli", *args], log)
        rep.refs.append(reference_work())
        return t

    run_args = workload.run_args(manifest, out)
    run = cli(run_args, "run")
    rep.run_s, rep.run_cpu_s, rep.rss_mb = run.wall, run.cpu, run.rss
    rep.problems = check_outputs(out, run.code, workload, expected_digest)
    if rep.problems:
        return rep
    store = out / "results.csv"
    rep.digest = sha256(store)
    rerun = cli(run_args, "rerun")
    if rerun.code != 0:
        rep.problems.append(f"rerun exit code {rerun.code}")
    elif sha256(store) != rep.digest or (out / "failures.csv").exists():
        rep.problems.append("rerun over a complete store changed its outputs")
    report = cli(["report", str(out)], "report")
    if report.code != 0 or not (out / "leaderboard.txt").is_file():
        rep.problems.append(f"report exit code {report.code} or no leaderboard.txt")
    rep.resume_s = rerun.wall + report.wall
    rep.resume_cpu_s = rerun.cpu + report.cpu
    return rep


def set_up(workload, seed: int, inputs: Path) -> tuple[Path, float]:
    """Write the inputs into `inputs` for at least SETUP_BATCH_S CPU seconds;
    return the manifest and the mean CPU seconds of one write."""
    from workloads import generate

    writes, cpu = 0, 0.0
    while writes == 0 or cpu < SETUP_BATCH_S:
        if inputs.exists():
            shutil.rmtree(inputs)
        t0 = time.process_time()
        manifest = generate(workload, seed, inputs)
        cpu += time.process_time() - t0
        writes += 1
    return manifest, cpu / writes


def git_commit() -> str:
    """Commit of the checkout; 'unknown' outside a git repository."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def environment(args, workload, setup_batches: int, reps: int, traced_reps: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "workload": workload.name, "workload_seed": args.seed, "size": args.size,
        "groups_per_run": workload.groups, "setup_batches": setup_batches,
        "untraced_reps": reps, "traced_reps": traced_reps, "seconds": args.seconds,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "urbanbench" / "cli.py").is_file():
        print(f"error: no urbanbench sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = workloads.tiny(workload)
    pinned = workload.digest if args.seed == workloads.DEFAULT_SEED else None

    base = WORK / f"{workload.name}-{args.size}"
    base.mkdir(parents=True, exist_ok=True)
    for stale in base.glob("*.log"):
        stale.unlink()
    manifest, setup_cpu = set_up(workload, args.seed, base / "inputs")
    setup_times = [setup_cpu]
    refs = [reference_work()]

    reps: list[Rep] = []
    traced: list[Rep] = []
    reference = pinned
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        for is_traced in ((False, True) if args.trace else (False,)):
            tag = f"{'traced' if is_traced else 'rep'}{len(reps):03d}"
            rep = run_rep(workload, manifest, base / "out", reference, is_traced, tag)
            (traced if is_traced else reps).append(rep)
            if rep.problems:
                print(f"{tag}: output check failed: {'; '.join(rep.problems)}")
                log = base / f"{tag}.log"
                if log.is_file():
                    print(log.read_text(encoding="utf-8", errors="replace")[-2000:])
            elif reference is None:
                reference = rep.digest
        setup_times.append(set_up(workload, args.seed, base / "setup")[1])
        refs.append(reference_work())
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break

    every = reps + traced
    attempted = workload.groups * len(every)
    failed = workload.groups * sum(1 for r in every if r.problems)
    env = environment(args, workload, len(setup_times), len(reps), len(traced))
    print("environment " + json.dumps(env, sort_keys=True))

    refs += [x for r in every for x in r.refs]
    speed = statistics.fmean(refs) / REF_NOMINAL_S
    values = {
        "run_cpu_s": [r.run_cpu_s for r in reps], "resume_cpu_s": [r.resume_cpu_s for r in reps],
        "synth.s": setup_times, "peak_rss_mb": [r.rss_mb for r in reps],
        "run_s": [r.run_s for r in reps], "resume_s": [r.resume_s for r in reps],
        "host.ref_s": refs,
    }
    for name, raw in SCALED.items():
        values[name] = [v / speed for v in values[raw]]
    # Peak RSS is the highest over the repetitions: it takes one of two levels
    # about 6% apart on mlp-train, and the median flips between them. The host
    # speed is the mean reference time, which follows the share of time the
    # host runs slow.
    value = {name: statistics.median(vs) for name, vs in values.items()}
    value["peak_rss_mb"] = max(values["peak_rss_mb"])
    value["host.ref_s"] = statistics.fmean(refs)
    for name, vs in values.items():
        q1, q2, q3 = quartiles(vs)
        print(f"{name:>12} {value[name]:.4f} {units[name]}  quartiles {q1:.4f} .. {q3:.4f}  "
              f"n={len(vs)}  values {' '.join(f'{v:.4f}' for v in vs)}")
    print(f"{'failed_frac':>12} {failed / attempted:.4f}  ({failed} of {attempted} groups)")

    if args.trace:
        per_rep = [trace_layers(r) for r in traced]
        metrics = {}
        for entry in bench["per_layer"]:
            name = entry["name"]
            if name in value:
                v = value[name]
            elif name == "trace.overhead_s":
                v = (statistics.median(r.run_cpu_s for r in traced) - value["run_cpu_s"])
            else:
                v = statistics.median(m.get(name, 0.0) for m in per_rep)
            metrics[name] = {"value": v, "unit": entry["unit"]}
        print_shares(metrics, statistics.median(r.run_s + r.resume_s for r in traced))
    else:
        metrics = {m["name"]: {"value": value[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def trace_layers(rep: Rep) -> dict[str, float]:
    from layertrace import layer_metrics

    return layer_metrics(rep.spans, rep.walls) if not rep.problems else {}


def print_shares(metrics: dict, traced_wall: float) -> None:
    """Span times as shares of the traced repetition's wall time. The heads.batch_*
    and heads.train_self spans lie inside heads.train_head."""
    print(f"layer shares of the traced run + rerun + report ({traced_wall:.3f} s):")
    spans = [n for n in metrics if n.endswith(".s") and n not in ("synth.s", "host.ref_s")]
    for name in sorted(spans, key=lambda n: -metrics[n]["value"]):
        value = metrics[name]["value"]
        print(f"  {name:<28} {value:9.4f} s  {100 * value / traced_wall:5.1f}%")


if __name__ == "__main__":
    sys.exit(main())
