"""The benchmark's workloads: seeded inputs, the timed operation, and the
correctness gates applied to each operation's output.

Inputs are made here from the workload seed, through
`experiments.random_hermitian` / `random_state` under `rng.master_rng`, and
are never timed.  The program receives them only as scenario JSON text or
files.  The gates check each output against numpy's LAPACK eigensolver as
an independent oracle.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import shellqm as sq
from shellqm import cli as sq_cli
from shellqm.experiments import chi2_threshold_999, random_hermitian, random_state
from shellqm.rng import master_rng

EIG_RTOL = 1e-10        # eigenvalues against eigvalsh, times max(1, ||A||_2)
SUM_TOL = 1e-12         # probabilities sum to one
RK4_TOL = 1e-6          # RK4 against the exact flow, times sqrt(hbar)
LEVEL_TOL = 1e-6        # Courant-Fischer acceptance bound

EVOLVE_GRID = np.linspace(0.0, 2.0 * np.pi, 9)  # the `evolve --samples 8` grid
RK4_STEPS = 200  # keeps the calls that decompose (eigh, flow, mean_value) most of busy time
HBARS = (0.5, 1.0, 2.0)

GOLDEN_COMMANDS = {
    "spectrum": ["spectrum"],
    "probs": ["probs"],
    "mean": ["mean"],
    "evolve": ["evolve", "--samples", "8"],
    "sample": ["sample"],
    "verify": ["verify"],
}


def scenario_text(matrix: np.ndarray, state: np.ndarray, hbar: float, seed: int = 0) -> str:
    return json.dumps({
        "dimension": int(matrix.shape[0]),
        "hbar": hbar,
        "observable": {"re": matrix.real.tolist(), "im": matrix.imag.tolist()},
        "state": {"re": state.real.tolist(), "im": state.imag.tolist()},
        "normalize": False,
        "seed": seed,
        "trials": 10000,
    })


def eig_tol(reference: np.ndarray) -> float:
    return EIG_RTOL * max(1.0, float(np.max(np.abs(reference))))


def eig_mismatch(values, reference: np.ndarray) -> str | None:
    values = np.asarray(values, dtype=float)
    if values.shape != reference.shape:
        return f"{values.shape[0]} eigenvalues, expected {reference.shape[0]}"
    err = float(np.max(np.abs(values - reference)))
    if err > eig_tol(reference):
        return f"eigenvalue error {err:.3e}"
    return None


def _random_case(rng: np.random.Generator, d: int, hbar: float):
    obs = random_hermitian(d, rng)
    psi = random_state(d, rng, hbar)
    return obs.matrix, psi.components


# --------------------------------------------------------------------- spectral


@dataclass(frozen=True)
class SpectralInput:
    text: str
    seed: int               # key of the rng the four measurements draw from
    reference: np.ndarray   # eigvalsh of the observable


def spectral_op(text: str, seed: int) -> dict:
    """The README tour on one scenario: parse, decompose, probabilities, mean,
    four measurements, the exact flow on the evolve grid and an RK4 check."""
    scenario = sq.parse_scenario(text)
    obs = scenario.observable()
    state = scenario.state()
    es = sq.eigh(obs)
    dist = sq.born_probabilities(obs, state, system=es)
    mean = sq.mean_value(obs, state)
    rng = master_rng(seed)
    outcomes = [sq.measure(obs, state, rng, system=es).value for _ in range(4)]
    flowed = [sq.flow(obs, state, float(t)).components for t in EVOLVE_GRID]
    rk4 = sq.flow_numeric(obs, state, float(EVOLVE_GRID[1]), RK4_STEPS).final.components
    return {"obs": obs, "state": state, "eigenvalues": es.eigenvalues, "values": dist.values,
            "probabilities": dist.probabilities, "mean": mean, "outcomes": outcomes,
            "flowed": flowed, "rk4": rk4}


def check_spectral(out: dict, reference: np.ndarray) -> list[str]:
    problems = []
    bad = eig_mismatch(out["eigenvalues"], reference)
    if bad:
        problems.append(bad)
    total = float(np.sum(out["probabilities"]))
    if abs(total - 1.0) > SUM_TOL:
        problems.append(f"probabilities sum to {total!r}")
    state = out["state"]
    direct = sq.evaluate_observable(out["obs"], state) / state.hbar
    if abs(out["mean"] - direct) > eig_tol(reference):
        problems.append(f"mean_value {out['mean']!r} != evaluate_observable/hbar {direct!r}")
    if not all(v in set(out["values"].tolist()) for v in out["outcomes"]):
        problems.append("measured value is not an outcome")
    for t, comp in zip(EVOLVE_GRID, out["flowed"]):
        drift = abs(float(np.vdot(comp, comp).real) - state.hbar)
        if drift > 1e-10 * state.hbar:
            problems.append(f"flow norm drift {drift:.3e} at t={t:.4f}")
    gap = float(np.max(np.abs(out["rk4"] - out["flowed"][1])))
    if gap > RK4_TOL * np.sqrt(state.hbar):
        problems.append(f"RK4 differs from flow by {gap:.3e}")
    return problems


class Spectral:
    """Many small observables, d = 2..8 in rotation, one README tour each."""

    name = "spectral"
    block = 7          # one operation per dimension 2..8
    count_pass = 28
    # Distinct inputs for more operations than a run makes: latency within
    # one d depends on the matrix (Jacobi sweeps), so a run's median is
    # steadier over many matrices than over a few reused ones.
    pool = 7 * 160

    def __init__(self, seed: int):
        rng = master_rng(seed)
        self.inputs = []
        for k in range(self.pool):
            d = 2 + k % 7
            hbar = HBARS[int(rng.integers(len(HBARS)))]
            matrix, psi = _random_case(rng, d, hbar)
            text = scenario_text(matrix, psi, hbar)
            self.inputs.append(SpectralInput(text, int(rng.integers(2**31)),
                                             np.linalg.eigvalsh(matrix)))

    def op_name(self, k: int) -> str:
        return "op"

    def op(self, k: int):
        inp = self.inputs[k % self.pool]
        return spectral_op(inp.text, inp.seed)

    def check(self, k: int, out) -> list[str]:
        return check_spectral(out, self.inputs[k % self.pool].reference)

    def rk4_bytes_per_step(self) -> float:
        """Peak bytes tracemalloc sees per RK4 step, largest over one block
        of inputs; run untimed, outside any span."""
        worst = 0.0
        for inp in self.inputs[: self.block]:
            scenario = sq.parse_scenario(inp.text)
            obs, state = scenario.observable(), scenario.state()
            tracemalloc.start()
            try:
                sq.flow_numeric(obs, state, float(EVOLVE_GRID[1]), RK4_STEPS)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            worst = max(worst, peak / RK4_STEPS)
        return worst


# --------------------------------------------------------------------- minimize


@dataclass(frozen=True)
class MinimizeInput:
    obs: object
    sub: object
    seed: int
    target: float


def check_level(eigenvalue: float, target: float) -> list[str]:
    dev = abs(eigenvalue - target) / max(1.0, abs(target))
    return [f"level deviates by {dev:.3e}"] if not dev <= LEVEL_TOL else []


class Minimize:
    """Courant-Fischer: one constrained_min call per level.

    A block is levels 1..d for each d in DIMS, each level on a random matrix
    of its own: the iteration count of a level depends on the matrix's
    gaps, and independent matrices make a run's latencies steadier than all
    levels of a few.  The orthogonality basis comes from numpy, so the inputs
    do not depend on the package's own eigensolver.
    """

    name = "minimize"
    DIMS = (4, 8, 12, 16)
    block = sum(DIMS)
    count_pass = block
    cycles = 24

    def __init__(self, seed: int):
        rng = master_rng(seed)
        self.inputs = []
        for _ in range(self.cycles):
            for d in self.DIMS:
                for n in range(1, d + 1):
                    matrix, psi = _random_case(rng, d, 1.0)
                    obs = sq.parse_scenario(scenario_text(matrix, psi, 1.0)).observable()
                    values, vectors = np.linalg.eigh(matrix)
                    sub = sq.AdmissibleSubspace(level=n, basis=vectors[:, : n - 1])
                    self.inputs.append(MinimizeInput(obs, sub, int(rng.integers(2**31)),
                                                     float(values[n - 1])))

    def op_name(self, k: int) -> str:
        return "op"

    def op(self, k: int):
        inp = self.inputs[k % len(self.inputs)]
        return sq.constrained_min(inp.obs, inp.sub, seed=inp.seed, hbar=1.0).eigenvalue

    def check(self, k: int, out) -> list[str]:
        return check_level(out, self.inputs[k % len(self.inputs)].target)


# -------------------------------------------------------------------------- cli


def csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header, rows, name) -> np.ndarray:
    k = header.index(name)
    return np.array([float(row[k]) for row in rows])


@dataclass(frozen=True)
class CliCase:
    matrix: np.ndarray
    state: np.ndarray
    hbar: float
    path: str


def check_cli(command: str, argv: list[str], case: CliCase, code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        if command == "verify":
            return [] if json.loads(stdout).get("passed") is True else ["verify did not pass"]
        header, rows = csv_rows(stdout)
        reference = np.linalg.eigvalsh(case.matrix)
        tol = eig_tol(reference)
        problems = []
        if command == "spectrum":
            problems.append(eig_mismatch(_column(header, rows, "eigenvalue"), reference))
        elif command in ("probs", "sample"):
            problems.append(eig_mismatch(_column(header, rows, "outcome"), reference))
            prob_col = "probability" if command == "probs" else "reference"
            total = float(np.sum(_column(header, rows, prob_col)))
            if abs(total - 1.0) > SUM_TOL:
                problems.append(f"probabilities sum to {total!r}")
            if command == "sample":
                trials = int(argv[argv.index("--trials") + 1])
                if int(np.sum(_column(header, rows, "count"))) != trials:
                    problems.append("counts do not sum to trials")
        elif command == "mean":
            diff = float(_column(header, rows, "difference")[0])
            direct = float(np.vdot(case.state, case.matrix @ case.state).real) / case.hbar
            got = float(_column(header, rows, "observable_over_hbar")[0])
            if abs(diff) > tol or abs(got - direct) > tol:
                problems.append(f"mean differs from observable/hbar by {diff:.3e}")
        elif command == "evolve":
            residual = _column(header, rows, "norm_residual")
            if len(residual) != len(EVOLVE_GRID):
                problems.append(f"{len(residual)} evolve rows")
            elif np.max(np.abs(residual)) > 1e-10 * case.hbar:
                problems.append("flow does not conserve the norm")
        return [p for p in problems if p]
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc}"]


def _verify_margin(matrix, state, hbar, seed, trials) -> bool:
    """True when numpy's own replica of `verify`'s two statistical tests
    passes with half the threshold to spare.

    `verify` is a 99.9% test, so about one random scenario in a thousand
    fails it by design.  Drawing the scenario seed until the replica passes
    with margin leaves a failure in the run to a change in the program.
    """
    values, vectors = np.linalg.eigh(matrix)
    probs = np.abs(vectors.conj().T @ state) ** 2 / hbar
    expected = probs * trials
    if expected.min() < 5.0:
        return False
    u = np.random.Generator(np.random.Philox(key=seed)).random(trials)
    outcome = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), len(probs) - 1)
    counts = np.bincount(outcome, minlength=len(probs))
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    mean = float(values @ probs)
    sd = float(np.sqrt(probs @ (values - mean) ** 2))
    z = abs(float(values @ counts) / trials - mean) / (sd / np.sqrt(trials))
    return chi2 <= 0.5 * chi2_threshold_999(len(probs) - 1) and z <= 2.0


class Cli:
    """One fresh `python -m shellqm.cli` process per operation.

    A round runs the six commands, each on its own size, and `spectrum` a
    second time at d=48.  That seventh process costs between the cheap
    commands (probs, mean, verify) and the dear ones (spectrum at d=64,
    evolve, sample), so the median latency falls inside one command's
    group rather than on the edge between two.  ROUNDS rounds of scenario
    files are generated and cycled.
    """

    name = "cli"
    ROUND = (
        ("spectrum", 64, []),
        ("spectrum", 48, []),
        ("probs", 32, []),
        ("mean", 32, []),
        ("evolve", 24, ["--samples", "8"]),
        ("sample", 16, ["--trials", "10000000"]),
        ("verify", 4, ["--trials", "1000000"]),
    )
    block = len(ROUND)
    count_pass = block
    ROUNDS = 4

    def __init__(self, seed: int, in_process: bool, root: Path, work: Path, env: dict):
        self.root, self.env, self.in_process = root, env, in_process
        work.mkdir(parents=True, exist_ok=True)
        rng = master_rng(seed)
        self.ops = []
        for r in range(self.ROUNDS):
            cases = {}
            for command, d, extra in self.ROUND:
                if d not in cases:
                    hbar = HBARS[int(rng.integers(len(HBARS)))]
                    matrix, psi = _random_case(rng, d, hbar)
                    scen_seed = int(rng.integers(2**31))
                    if command == "verify":
                        trials = int(extra[1])
                        while not _verify_margin(matrix, psi, hbar, scen_seed, trials):
                            scen_seed = int(rng.integers(2**31))
                    path = work / f"round{r}-d{d}.json"
                    path.write_text(scenario_text(matrix, psi, hbar, seed=scen_seed),
                                    encoding="utf-8")
                    cases[d] = CliCase(matrix, psi, hbar, str(path))
                argv = [command, "--scenario", cases[d].path, *extra]
                self.ops.append((command, argv, cases[d]))

    def op_name(self, k: int) -> str:
        return "cli." + self.ops[k % len(self.ops)][0]

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = sq_cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "shellqm.cli", *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def op(self, k: int):
        return self.run_cli(self.ops[k % len(self.ops)][1])

    def check(self, k: int, out) -> list[str]:
        command, argv, case = self.ops[k % len(self.ops)]
        return check_cli(command, argv, case, *out)

    def golden_failures(self) -> list[str]:
        """Each command on scenarios/equal_q2.json, byte for byte against
        scenarios/golden/, each in a fresh process."""
        scenario = str(self.root / "scenarios" / "equal_q2.json")
        golden = self.root / "scenarios" / "golden"
        problems = []
        for name, argv in GOLDEN_COMMANDS.items():
            proc = subprocess.run([sys.executable, "-m", "shellqm.cli", *argv, "--scenario", scenario],
                                  cwd=self.root, env=self.env, capture_output=True, timeout=120)
            ext = "json" if name == "verify" else "csv"
            if proc.returncode != 0 or proc.stdout != (golden / f"{name}.{ext}").read_bytes():
                problems.append(f"golden {name} differs")
        return problems


def warmup(workload: str, root: Path) -> None:
    """One small operation of the workload's kind, on scenarios/equal_q2.json."""
    path = root / "scenarios" / "equal_q2.json"
    text = path.read_text(encoding="utf-8")
    if workload == "spectral":
        spectral_op(text, 0)
    elif workload == "minimize":
        obs = sq.parse_scenario(text).observable()
        sq.constrained_min(obs, sq.AdmissibleSubspace.full_shell(obs.dimension), seed=0)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            sq_cli.main(["spectrum", "--scenario", str(path)])
