"""The benchmark in perfbench/ drives the package through its public API.
These tests run its warmups, its `spectral` gate and its `cli` gates
in-process, so an API change that would break the benchmark fails here
first."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from shellqm import cli
from shellqm.experiments import random_hermitian, random_state
from shellqm.rng import master_rng

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["spectral", "minimize", "cli"])
def test_warmup(workloads, name):
    workloads.warmup(name, REPO)


def degenerate_d5(workloads) -> tuple[str, np.ndarray]:
    """A non-diagonal d = 5 scenario whose spectrum has a degenerate pair."""
    rng = master_rng(5)
    u = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    matrix = (u * np.array([-1.5, 0.25, 0.25, 1.0, 3.0])) @ u.conj().T
    matrix = 0.5 * (matrix + matrix.conj().T)
    raw = rng.normal(size=5) + 1j * rng.normal(size=5)
    return workloads.scenario_text(matrix, raw / np.linalg.norm(raw), 1.0), matrix


def test_spectral_gate_passes(workloads):
    text = (REPO / "scenarios" / "equal_q2.json").read_text(encoding="utf-8")
    reference = np.array([1.0, 2.0])
    assert workloads.check_spectral(workloads.spectral_op(text, 0), reference) == []
    text, matrix = degenerate_d5(workloads)
    out = workloads.spectral_op(text, 0)
    assert len(out["values"]) == 4  # the pair is one outcome
    assert workloads.check_spectral(out, np.linalg.eigvalsh(matrix)) == []


TRIALS = 10**5  # the `cli` workload draws 10^7 (sample) and 10^6 (verify)


@pytest.mark.parametrize("command, d", [("spectrum", 64), ("probs", 32), ("mean", 32),
                                        ("sample", 16), ("verify", 4)])
def test_cli_gate_passes(workloads, tmp_path, command, d):
    """The `cli` workload's commands at the large sizes where the eigensolver
    is most of their time, and its `--trials` commands, gated as the
    benchmark gates them."""
    rng = master_rng(d)
    matrix = random_hermitian(d, rng).matrix
    state = random_state(d, rng, 2.0).components
    seed = int(rng.integers(2**31))
    while command == "verify" and not workloads._verify_margin(matrix, state, 2.0, seed, TRIALS):
        seed = int(rng.integers(2**31))  # as `Cli` draws it, so only the program can fail
    path = tmp_path / "scenario.json"
    path.write_text(workloads.scenario_text(matrix, state, 2.0, seed=seed), encoding="utf-8")
    argv = [command, "--scenario", str(path)]
    if command in ("sample", "verify"):
        argv += ["--trials", str(TRIALS)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    case = workloads.CliCase(matrix, state, 2.0, str(path))
    assert workloads.check_cli(command, argv, case, code, out.getvalue()) == []
