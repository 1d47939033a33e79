#!/usr/bin/env python3
"""Benchmark for shellqm: one seeded workload per run.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Workloads are `spectral`, `minimize` and `cli` (see perfbench/README.md).
With `--trace 0` the run reports the end-to-end metrics, with timings scaled
to the machine's nominal speed (calibration.py); with `--trace 1` it wraps
the package's layers in spans and reports per-layer metrics instead.
The program under test runs from `src/` of the checkout holding this file,
with OMP, OpenBLAS and MKL pinned to one thread, and never more than one
program process at a time.

Everything printed before the last line is a human-readable report.  The last
line is one JSON object with the keys correct, attempted, failed and metrics.
Files written: `perfbench/out/` (results with their environment, spans, and
the counts that later runs of the same code must repeat).
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
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("spectral", "minimize", "cli")
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
GOLDEN = ("spectrum.csv", "probs.csv", "mean.csv", "evolve.csv", "sample.csv", "verify.json")
REQUIRED = ("src/shellqm/__init__.py", "src/shellqm/cli.py", "scenarios/equal_q2.json",
            *(f"scenarios/golden/{name}" for name in GOLDEN))
CLI_COMMANDS = ("spectrum", "probs", "mean", "evolve", "sample", "verify")


def program_env() -> dict:
    env = dict(os.environ, **THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_probe(args: list[str], env: dict) -> tuple[float, str]:
    """Wall time of one fresh interpreter running probe.py, and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def code_digest() -> str:
    """Hash of the program and benchmark sources; counts are keyed by it."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(numpy_version: str) -> dict:
    commit = "unknown"  # a checkout without .git, or without git installed
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "code_sha256": code_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": THREADS,
    }


def measure(workload, seconds: float, reference, tracer=None):
    """Closed loop, one client: run operations until `seconds` of measured
    time have passed and a whole block of the workload's mix is done (and,
    when traced, the count pass).

    Each output is checked as soon as its operation returns, so no output is
    kept.  The machine-speed reference is sampled between operations.  Time
    spent checking and sampling is left out of the measured time.  Returns
    latencies, failures as (operation, reason), measured time and the counts
    at the end of the count pass.
    """
    latencies, failed = [], []
    count_pass = None
    excluded = 0.0
    k = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = k
            span = tracer.begin(workload.op_name(k))
        t0 = time.perf_counter()
        try:
            out, err = workload.op(k), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(span)
        latencies.append(t1 - t0)
        problems = [err] if err else workload.check(k, out)
        if problems:
            failed.append((k, "; ".join(problems)))
        k += 1
        if tracer is not None and k == workload.count_pass:
            count_pass = Counter(tracer.counts)
        reference.sample()
        excluded += time.perf_counter() - t1
        measured = time.perf_counter() - start - excluded
        if k % workload.block == 0 and measured >= seconds and (tracer is None or count_pass):
            return latencies, failed, measured, count_pass


def end_to_end_metrics(setup, latencies, elapsed, failed_ops, failed, attempted,
                       peak_rss_mb, scale) -> dict:
    """Timings are multiplied by `scale` (see calibration.py); the note gives
    the measured value.  `failed_ops` counts failed timed operations;
    `failed` and `attempted` also count the untimed golden commands."""
    n = len(latencies)
    ok = n - failed_ops
    centiles = statistics.quantiles(latencies, n=100, method="inclusive")
    setup_s = statistics.median(setup)
    return {
        "setup_s": (setup_s * scale, "s",
                    f"median of {len(setup)} fresh interpreters, measured {setup_s:.6g} s"),
        "ops_per_s": (ok / elapsed / scale, "1/s",
                      f"{ok} ops in {elapsed:.2f} s measured, one client, closed loop"),
        "op_s.p50": (centiles[49] * scale, "s", f"n={n}, measured {centiles[49]:.6g} s"),
        "op_s.p90": (centiles[89] * scale, "s",
                     f"n={n}, {n - int(0.9 * n)} beyond, measured {centiles[89]:.6g} s"),
        "failed_ops_frac": (failed / attempted, "ratio", f"{failed}/{attempted}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "max resident set"),
    }


def per_layer_metrics(tracer, count_pass, workload, imports, failed, bytes_per_step) -> dict:
    from spans import TRACED, span_overhead_s

    total, own, busy = tracer.layer_times()
    win = tracer.counts
    cp = count_pass
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for module_name, func in TRACED:
        name = f"{module_name.rsplit('.', 1)[1]}.{func}"
        m[f"{name}.s"] = (total.get(name, 0.0), "s")
        m[f"{name}.self_s"] = (own.get(name, 0.0), "s")
    for name in ("linalg.eigh", "measurement.constrained_min", "measurement.born_probabilities",
                 "measurement.mean_value", "measurement.measure", "dynamics.flow",
                 "experiments.verification_suite", "scenario.parse_scenario"):
        m[f"{name}.calls"] = (cp[f"{name}.calls"], "count")
    m["linalg.eigh.s_per_call"] = (ratio(total.get("linalg.eigh", 0.0), win["linalg.eigh.calls"]), "s")
    cm = "measurement.constrained_min"
    for key in ("iterations", "restarts", "failures"):
        m[f"{cm}.{key}"] = (cp[f"{cm}.{key}"], "count")
    m[f"{cm}.converged_ratio"] = (ratio(cp[f"{cm}.converged"], cp[f"{cm}.starts"]), "ratio")
    m[f"{cm}.s_per_iteration"] = (ratio(total.get(cm, 0.0), win[f"{cm}.iterations"]), "s")
    fn = "dynamics.flow_numeric"
    m[f"{fn}.steps"] = (cp[f"{fn}.steps"], "count")
    m[f"{fn}.s_per_step"] = (ratio(total.get(fn, 0.0), win[f"{fn}.steps"]), "s")
    m[f"{fn}.peak_bytes_per_step"] = (bytes_per_step, "B")
    rt = "experiments.run_trials"
    m[f"{rt}.draws"] = (cp[f"{rt}.draws"], "count")
    m[f"{rt}.draws_per_s"] = (ratio(win[f"{rt}.draws"], total.get(rt, 0.0)), "1/s")
    m["cli.numpy_import_s"] = (imports["numpy_import_s"], "s")
    m["cli.import_s"] = (imports["import_s"], "s")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = (total.get(f"cli.{command}", 0.0), "s")
    m["cli.failures"] = (failed if workload.name == "cli" else 0, "count")
    roots = {span[0] for span in tracer.spans if span[3] < 0}
    m["op.self_s"] = (sum(own[name] for name in roots), "s")
    m["trace.ops"] = (len({span[4] for span in tracer.spans if span[3] < 0}), "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead_frac"] = (ratio(len(tracer.spans) * span_overhead_s(), busy), "ratio")
    return m


def compare_counts(counts: dict, workload: str, seed: int, digest: str) -> str:
    """Store the count pass's exact counts, or compare them with the counts
    an earlier run of the same code, workload and seed stored."""
    path = OUT / "counts" / f"{digest[:16]}-{workload}-seed{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return "repeat" if earlier == counts else "DIFFER"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return "first record"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        sys.stderr.write(f"shellqm sources not found next to perfbench/: missing {missing}\n")
        return 2
    os.environ.update(THREADS)  # before numpy loads in this process
    sys.path.insert(0, str(ROOT / "src"))
    env = program_env()
    from calibration import Reference

    reference = Reference()
    setup = []
    if not args.trace:
        timed_probe(["setup", args.workload], env)  # warms the file cache; not a sample
    for _ in range(0 if args.trace else SETUP_REPEATS):
        reference.sample(force=True)
        setup.append(timed_probe(["setup", args.workload], env)[0])

    import numpy as np
    import shellqm

    if not Path(shellqm.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"imported shellqm from {shellqm.__file__}, not from src/\n")
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"cli-seed{args.seed}"
    if args.workload == "cli":
        w = workloads.Cli(args.seed, bool(args.trace), ROOT, work, env)
        extra_failures = w.golden_failures()
    else:
        w = {"spectral": workloads.Spectral, "minimize": workloads.Minimize}[args.workload](args.seed)
        extra_failures = []
    workloads.warmup(args.workload, ROOT)
    w.op(0)  # untimed warm-up on the workload's own inputs

    tracer = count_pass = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        restore = tracer.install()
        try:
            latencies, failed_ops, elapsed, count_pass = measure(w, args.seconds, reference, tracer)
        finally:
            restore()
    else:
        latencies, failed_ops, elapsed, _ = measure(w, args.seconds, reference)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    failed = len(failed_ops) + len(extra_failures)
    attempted = len(latencies) + (len(workloads.GOLDEN_COMMANDS) if args.workload == "cli" else 0)
    env_record = environment(np.__version__)
    notes = [f"{k}: {why}" for k, why in failed_ops[:5]] + extra_failures

    counts_status = None
    if args.trace:
        bytes_per_step = w.rk4_bytes_per_step() if args.workload == "spectral" else 0.0
        probes = [json.loads(timed_probe(["imports"], env)[1]) for _ in range(IMPORT_REPEATS)]
        imports = {key: statistics.median(p[key] for p in probes) for key in probes[0]}
        metrics = per_layer_metrics(tracer, count_pass, w, imports, len(failed_ops), bytes_per_step)
        counts = dict(sorted(count_pass.items()))
        counts_status = compare_counts(counts, args.workload, args.seed, env_record["code_sha256"])
        if counts_status == "DIFFER":
            notes.append("deterministic counts differ from an earlier run of the same code")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        total, _, busy = tracer.layer_times()
        shares = {name: t / busy for name, t in sorted(total.items()) if busy}
    else:
        metrics = end_to_end_metrics(setup, latencies, elapsed, len(failed_ops), failed, attempted,
                                     peak_rss_mb, reference.scale())
        counts, shares = None, None

    correct = failed == 0 and counts_status != "DIFFER"
    print(f"shellqm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    for name, (value, unit, *note) in metrics.items():
        print(f"  {name:<44} {value:<14.6g} {unit:<6} {note[0] if note else ''}")
    if shares:
        print(f"busy-time shares (inclusive, of {busy:.3f} s busy): "
              + ", ".join(f"{name} {share:.1%}" for name, share in shares.items()))
    if counts_status:
        print(f"deterministic counts (first {w.count_pass} operations): {counts_status}")
    print(f"machine-speed scale: {reference.scale():.4f} from {len(reference.samples)} reference "
          f"samples (timings above {'are measured' if args.trace else 'are scaled; notes give measured'})")
    for note in notes:
        print("FAILED " + note)

    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit, *_) in metrics.items() if name != "failed_ops_frac"}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    record = {**result, "environment": env_record, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "ops": len(latencies),
              "setup_samples": setup, "reference_samples": reference.samples,
              "scale": reference.scale(), "counts": counts, "notes": notes}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
