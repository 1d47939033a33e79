"""The benchmark in perfbench/ drives the package through its public API.
These tests run its warmups and its `spectral` gate in-process, so an API
change that would break the benchmark fails here first."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

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
