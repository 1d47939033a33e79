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
change that means to keep the same bits shows that it does.  The refusal
digests cover the same of every command on each edit of `equal_q2` that puts
one fault in it, so a change to how a scenario is admitted shows whether any
refusal moved.  The option digests cover the same of every command on `equal_q2`
with one option at or past its edge, or with a one-fault edit that an option
replaces, so a change to how options are admitted shows whether any moved.  Like the
goldens, the digests (and the minimizer's counts and bits) depend on numpy's build:
Jacobi's products, its LAPACK start above d = 8 and the minimizer's 3x3 LAPACK `eigh`
round as it does.

`tests/work_ledger.json` holds the counts and digests.  A change that means to
alter them rewrites it deliberately, by running this file as a script:

    PYTHONPATH=src python tests/test_work_ledger.py

which prints each key it adds, removes or changes against the committed
ledger, one a line, before it writes the file.
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


def command_digest(command: str, path: Path, fmt: str, options: tuple = ()) -> str:
    """SHA-256 of the exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--scenario", str(path), "--format", fmt, *options])
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def cli_digests() -> dict:
    """Digests of each command and format, keyed "scenario command format"."""
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
                    digests[f"{name} {command} {fmt}"] = command_digest(command, path, fmt)
    return digests


MISSING = object()  # the edit deletes the field
OBSERVABLE = {"re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]}
FAULTS = {  # each edit puts one fault in `equal_q2`
    "dimension missing": ("dimension", MISSING),
    "dimension 2.5": ("dimension", 2.5),
    "dimension true": ("dimension", True),
    "dimension 0": ("dimension", 0),
    "dimension 3": ("dimension", 3),
    "hbar string": ("hbar", "x"),
    "hbar true": ("hbar", True),
    "hbar 0": ("hbar", 0),
    "hbar 10^400": ("hbar", 10**400),
    "mass -1": ("mass", -1),
    "omega null": ("omega", None),
    "trials 0": ("trials", 0),
    "trials 2.5": ("trials", 2.5),
    "trials true": ("trials", True),
    "trials 10^8+1": ("trials", 10**8 + 1),
    "seed 1.5": ("seed", 1.5),
    "normalize 1": ("normalize", 1),
    "tolerances 5": ("tolerances", 5),
    "tolerances unknown": ("tolerances", {"bogus": 1}),
    "tolerances negative": ("tolerances", {"herm": -1}),
    "observable missing": ("observable", MISSING),
    "observable list": ("observable", OBSERVABLE["re"]),
    "observable without im": ("observable", {"re": OBSERVABLE["re"]}),
    "observable wrong shape": ("observable", {"re": [[1, 0, 0]], "im": [[0, 0, 0]]}),
    "observable non-numeric": ("observable", {**OBSERVABLE, "re": [["a", 0], [0, 2]]}),
    "observable non-hermitian": ("observable", {**OBSERVABLE, "re": [[1, 1], [0, 2]]}),
    "observable 1e200": ("observable", {**OBSERVABLE, "re": [[1e200, 0], [0, 2]]}),
    "state off shell": ("normalize", False),
    "state zero": ("state", {"re": [0, 0], "im": [0, 0]}),
    "state 1e300": ("state", {"re": [1e300, 1], "im": [0, 0]}),
    "trails 100": ("trails", 100),
    "tolerance shell": ("tolerance", {"shell": 1e-3}),
    "observable imag": ("observable", {**OBSERVABLE, "imag": OBSERVABLE["im"]}),
    "state imag": ("state", {"re": [1, 1], "im": [0, 0], "imag": [0, 0]}),
}


OPTION_FAULTS = {  # each puts one option at or past its edge, or replaces a faulty field
    "--trials 0": (None, ("--trials", "0")),
    "--trials 10^8+1": (None, ("--trials", str(10**8 + 1))),
    "--trials 10^400": (None, ("--trials", str(10**400))),
    "--trials junk": (None, ("--trials", "junk")),
    "--seed junk": (None, ("--seed", "junk")),
    "--seed 1.5": (None, ("--seed", "1.5")),
    "--tol shell=nan": (None, ("--tol", "shell=nan")),
    "--tol zero=1e-12": (None, ("--tol", "zero=1e-12")),
    "--tol repeated": (None, ("--tol", "shell=1e-3", "--tol", "shell=1e-3")),
    "--tol without =": (None, ("--tol", "shell")),
    "--samples 0": (None, ("--samples", "0")),
    "--samples 100001": (None, ("--samples", "100001")),
    "--time nan": (None, ("--time", "nan")),
    "--time=1e308": (None, ("--time=1e308",)),
    "trials 0 --trials 100": (FAULTS["trials 0"], ("--trials", "100")),
    "seed 1.5 --seed 3": (FAULTS["seed 1.5"], ("--seed", "3")),
    "shell -1 --tol shell=1e-3": (("tolerances", {"shell": -1}), ("--tol", "shell=1e-3")),
}


def edited(tmp: str, edit: tuple | None) -> Path:
    """`equal_q2` written under `tmp`, with an `edit` (name, value) that sets
    or, for MISSING, deletes one field."""
    doc = json.loads((SCENARIOS / "equal_q2.json").read_text())
    if edit is not None:
        name, value = edit
        if value is MISSING:
            del doc[name]
        else:
            doc[name] = value
    path = Path(tmp, "scenario.json")
    path.write_text(json.dumps(doc))
    return path


def case_digests(cases: dict) -> dict:
    """Digests of each command in each case, an (edit, options) pair, keyed "case command"."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, (edit, options) in cases.items():
            path = edited(tmp, edit)
            for command in COMMANDS:
                digests[f"{key} {command}"] = command_digest(command, path, "csv", options)
    return digests


def refusal_digests() -> dict:
    """Digests of each command on each one-fault edit of `equal_q2`, keyed "edit command"."""
    return case_digests({key: (edit, ()) for key, edit in FAULTS.items()})


def option_digests() -> dict:
    """Digests of each command under each entry of OPTION_FAULTS, keyed "entry command"."""
    return case_digests(OPTION_FAULTS)


def counts() -> dict:
    return {"minimize": [minimize_work(seed) for seed in MINIMIZE_SEEDS],
            "spectral": spectral_work(), "cli_jacobi": cli_jacobi_work()}


def leaves(value, path: tuple = ()) -> dict:
    """The ledger's numbers and digests keyed by their path, such as "minimize/0/iterations"."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {"/".join(map(str, path)): value}
    return {key: leaf for name, item in items for key, leaf in leaves(item, (*path, name)).items()}


def test_work_matches_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    assert counts() == {name: ledger[name] for name in ("minimize", "spectral", "cli_jacobi")}


def test_cli_outputs_match_the_ledger():
    assert cli_digests() == json.loads(LEDGER.read_text())["cli"]


def test_refusals_match_the_ledger():
    assert refusal_digests() == json.loads(LEDGER.read_text())["refusals"]


def test_options_match_the_ledger():
    assert option_digests() == json.loads(LEDGER.read_text())["options"]


if __name__ == "__main__":
    ledger = {**counts(), "cli": cli_digests(), "refusals": refusal_digests(),
              "options": option_digests()}
    old, new = leaves(json.loads(LEDGER.read_text())), leaves(ledger)
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            print("added  ", key)
        elif key not in new:
            print("removed", key)
        elif old[key] != new[key]:
            print("changed", key)
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
