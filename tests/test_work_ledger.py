"""The work ledger: deterministic work counts of the benchmark's seed-1 inputs.

Iteration, restart, sweep and rotation counts carry none of a timing's noise,
so a change that alters the work done shows here exactly.  The inputs are made
with the same `master_rng(1)` calls, in the same order, as `perfbench`'s
`Minimize` and `Spectral` workloads, without importing `perfbench`.

`tests/work_ledger.json` holds the counts.  A change that means to alter them
rewrites it deliberately, by running this file as a script:

    PYTHONPATH=src python tests/test_work_ledger.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from shellqm import AdmissibleSubspace, constrained_min, eigh, parse_scenario
from shellqm.experiments import random_hermitian, random_state
from shellqm.rng import master_rng

LEDGER = Path(__file__).with_name("work_ledger.json")
SEED = 1
MINIMIZE_DIMS, MINIMIZE_CYCLES = (4, 8, 12, 16), 24
SPECTRAL_POOL, HBARS = 7 * 160, (0.5, 1.0, 2.0)


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


def minimize_work() -> dict:
    """Minimizer work over every level of one block cycle after another."""
    rng = master_rng(SEED)
    levels = iterations = restarts = 0
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
    return {"seed": SEED, "levels": levels, "iterations": iterations, "restarts": restarts}


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


def work() -> dict:
    return {"minimize": minimize_work(), "spectral": spectral_work()}


def test_work_matches_the_ledger():
    assert work() == json.loads(LEDGER.read_text())


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(work(), indent=2, sort_keys=True) + "\n")
    print(LEDGER.read_text(), end="")
