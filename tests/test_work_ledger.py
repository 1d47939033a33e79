"""The work ledger: deterministic work counts of the benchmark's inputs, and
digests of the command line's outputs.

Iteration, restart, sweep and rotation counts carry none of a timing's noise,
so a change that alters the work done shows here exactly.  The inputs are made
with the same `master_rng` calls, in the same order, as `perfbench`'s
`Minimize`, `Spectral` and `Cli` workloads, without importing `perfbench`:
every `Minimize` level of seeds 1, 2 and 11, with a digest of each level's
eigenvalue and argmin bits and its counts; one Jacobi solve per observable
of the seed-1 `Spectral` pool; and one per observable of the first seed-1
`Cli` round, at d = 64, 48, 32, 24 and 16 (the round's d = 4 scenario comes
after them and is not solved here).

The command line's SHA-256 digests cover the exit code, stdout and stderr of every command
in both formats on the two committed scenarios and on random ones, so a
change that means to keep the same bits shows that it does.  Like the
goldens, the digests (and the minimizer's counts and bits) depend on numpy's build:
Jacobi's products and the minimizer's 3x3 LAPACK `eigh` round as it does.

`tests/work_ledger.json` holds the counts and digests.  A change that means to
alter them rewrites it deliberately, by running this file as a script:

    PYTHONPATH=src python tests/test_work_ledger.py
"""

from __future__ import annotations

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from shellqm import AdmissibleSubspace, constrained_min, eigh, parse_scenario
from shellqm.cli import COMMANDS, main
from shellqm.experiments import random_hermitian, random_state
from shellqm.rng import master_rng

LEDGER = Path(__file__).with_name("work_ledger.json")
SEED = 1
MINIMIZE_SEEDS, MINIMIZE_DIMS, MINIMIZE_CYCLES = (1, 2, 11), (4, 8, 12, 16), 24
SPECTRAL_POOL, HBARS = 7 * 160, (0.5, 1.0, 2.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CLI_SCENARIOS, CLI_SEED, CLI_DIMS = ("equal_q2", "degenerate_d5"), 7, (2, 3, 8, 16)
CLI_ROUND_DIMS = (64, 48, 32, 24, 16)  # perfbench's Cli round before its verify scenario


def scenario_text(matrix: np.ndarray, state: np.ndarray, hbar: float) -> str:
    return json.dumps({
        "dimension": int(matrix.shape[0]),
        "hbar": hbar,
        "observable": {"re": matrix.real.tolist(), "im": matrix.imag.tolist()},
        "state": {"re": state.real.tolist(), "im": state.imag.tolist()},
        "normalize": False,
        "seed": 0,
        "trials": 10000,
    })


def random_text(rng: np.random.Generator, d: int, hbar: float) -> tuple[str, np.ndarray]:
    matrix = random_hermitian(d, rng).matrix
    return scenario_text(matrix, random_state(d, rng, hbar).components, hbar), matrix


def minimize_work(seed: int) -> dict:
    """Minimizer work over every level of one block cycle after another, and a
    SHA-256 of each level's eigenvalue bits, counts and argmin bits in turn."""
    rng = master_rng(seed)
    levels = iterations = restarts = 0
    digest = hashlib.sha256()
    for _ in range(MINIMIZE_CYCLES):
        for d in MINIMIZE_DIMS:
            for n in range(1, d + 1):
                text, matrix = random_text(rng, d, 1.0)
                obs = parse_scenario(text).observable()
                sub = AdmissibleSubspace(level=n, basis=np.linalg.eigh(matrix)[1][:, : n - 1])
                result = constrained_min(obs, sub, seed=int(rng.integers(2**31)), hbar=1.0)
                levels += 1
                iterations += result.iterations
                restarts += result.restarts
                digest.update(np.float64(result.eigenvalue).tobytes())
                digest.update(np.array([result.iterations, result.restarts]).tobytes())
                digest.update(result.argmin.components.tobytes())
    return {"seed": seed, "levels": levels, "iterations": iterations, "restarts": restarts,
            "sha256": digest.hexdigest()}


def spectral_work() -> dict:
    """Jacobi work of one solve per observable of the spectral pool."""
    rng = master_rng(SEED)
    solves = sweeps = rotations = 0
    for k in range(SPECTRAL_POOL):
        hbar = HBARS[int(rng.integers(len(HBARS)))]
        text, _ = random_text(rng, 2 + k % 7, hbar)
        rng.integers(2**31)  # the pool's measurement seed
        es = eigh(parse_scenario(text).observable())
        solves += 1
        sweeps += es.sweeps
        rotations += es.rotations
    return {"seed": SEED, "solves": solves, "sweeps": sweeps, "rotations": rotations}


def cli_jacobi_work() -> list:
    """Jacobi work of one solve per observable of the first seed-1 `Cli` round."""
    rng = master_rng(SEED)
    work = []
    for d in CLI_ROUND_DIMS:
        hbar = HBARS[int(rng.integers(len(HBARS)))]
        text, _ = random_text(rng, d, hbar)
        rng.integers(2**31)  # the scenario's seed
        es = eigh(parse_scenario(text).observable())
        work.append({"dimension": d, "sweeps": es.sweeps, "rotations": es.rotations})
    return work


def cli_digests() -> dict:
    """SHA-256 of the exit code, stdout and stderr of each command and format,
    keyed "scenario command format"."""
    digests = {}
    rng = master_rng(CLI_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: SCENARIOS / f"{name}.json" for name in CLI_SCENARIOS}
        for d in CLI_DIMS:
            paths[f"random_d{d}"] = Path(tmp, f"random_d{d}.json")
            paths[f"random_d{d}"].write_text(random_text(rng, d, 1.0)[0])
        for name, path in paths.items():
            for command in COMMANDS:
                for fmt in ("csv", "structured"):
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = main([command, "--scenario", str(path), "--format", fmt])
                    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
                    digests[f"{name} {command} {fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def counts() -> dict:
    return {"minimize": [minimize_work(seed) for seed in MINIMIZE_SEEDS],
            "spectral": spectral_work(), "cli_jacobi": cli_jacobi_work()}


def test_work_matches_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    assert counts() == {name: ledger[name] for name in ("minimize", "spectral", "cli_jacobi")}


def test_cli_outputs_match_the_ledger():
    assert cli_digests() == json.loads(LEDGER.read_text())["cli"]


if __name__ == "__main__":
    LEDGER.write_text(json.dumps({**counts(), "cli": cli_digests()}, indent=2, sort_keys=True)
                      + "\n")
    print(LEDGER.read_text(), end="")
