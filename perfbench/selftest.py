#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every workload, with and without tracing, runs for one second and prints
   each metric BENCHMARK.json names, with its unit, and passes its gates.
2. Deliberately corrupted results fed to the gates count as failures.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

Writes only under perfbench/out/.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_outputs(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run(workload, trace)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected))}")
            for name, unit in expected.items():
                if not any(line.split()[:1] == [name] and f" {unit} " in f"{line} "
                           for line in proc.stdout.splitlines()):
                    problems.append(f"{where}: report lacks '{name} ... {unit}'")
    return problems


def check_gates() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl

    problems = []

    def expect(label: str, found: list[str], should_fail: bool) -> None:
        if bool(found) != should_fail:
            problems.append(f"gate {label}: {'missed corruption' if should_fail else found}")

    spectral = wl.Spectral(seed=5)
    out = spectral.op(6)
    expect("spectral clean", spectral.check(6, out), False)
    eigenvalues = out["eigenvalues"].copy()
    eigenvalues[0] += 1e-6
    expect("spectral perturbed eigenvalue", spectral.check(6, dict(out, eigenvalues=eigenvalues)), True)
    expect("spectral probabilities", spectral.check(6, dict(out, probabilities=out["probabilities"] * 1.001)), True)
    expect("spectral mean", spectral.check(6, dict(out, mean=out["mean"] + 1e-6)), True)
    expect("spectral rk4", spectral.check(6, dict(out, rk4=out["rk4"] * (1 + 1e-4))), True)
    flowed = list(out["flowed"])
    flowed[4] = flowed[4] * (1 + 1e-8)
    expect("spectral flow norm", spectral.check(6, dict(out, flowed=flowed)), True)

    minimize = wl.Minimize(seed=5)
    level = minimize.op(1)
    expect("minimize clean", minimize.check(1, level), False)
    expect("minimize perturbed level", minimize.check(1, level + 1e-5), True)

    work = HERE / "out" / "selftest-cli"
    cli = wl.Cli(seed=5, in_process=True, root=ROOT, work=work, env={})
    for k in range(cli.block):
        code, text = cli.op(k)
        command = cli.ops[k][0]
        expect(f"cli {command} clean", cli.check(k, (code, text)), False)
        expect(f"cli {command} exit code", cli.check(k, (1, text)), True)
        if command == "verify":
            broken = text.replace('"passed": true', '"passed": false')
        else:
            lines = text.splitlines()
            header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            cells = lines[header + 1].split(",")
            col = 1 if command == "spectrum" else -1  # an eigenvalue, else the checked column
            cells[col] = repr(float(cells[col]) + 1e-3)
            broken = "\n".join(lines[: header + 1] + [",".join(cells)] + lines[header + 2:]) + "\n"
        expect(f"cli {command} corrupted output", cli.check(k, (code, broken)), True)
    shutil.rmtree(work, ignore_errors=True)
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("spectral", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: exit 0")
    if proc.stdout.strip():
        problems.append(f"bare directory printed {proc.stdout.strip()[:200]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_gates() + check_bare_directory() + check_outputs(spec)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
