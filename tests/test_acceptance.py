"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import time
from pathlib import Path

import numpy as np

from shellqm import (
    HermitianObservable,
    born_probabilities,
    chi_square,
    config_observable,
    courant_fischer_suite,
    eigh,
    evaluate_observable,
    flow,
    flow_numeric,
    make_state,
    poisson_bracket,
    run_trials,
    shell_defect,
)
from shellqm.cli import main
from shellqm.core import GeneralQuadraticObservable
from shellqm.phasespace import evaluate_general

REPO = Path(__file__).resolve().parents[1]


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _random_hermitian(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianObservable(0.5 * (g + g.conj().T))


def _random_direction(d, rng):
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    return raw / np.linalg.norm(raw)


def born_chain_probabilities(hbar: float) -> list[np.ndarray]:
    """Criterion 1 workload: mean-of-outcomes vs form-value identity and
    normalization over 1000 random observables and states."""
    rng = np.random.default_rng(1234)
    collected = []
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        obs = _random_hermitian(d, rng)
        state = make_state(_random_direction(d, rng) * np.sqrt(hbar), hbar)
        es = eigh(obs)
        dist = born_probabilities(obs, state, system=es)
        mean = float(np.dot(dist.values, dist.probabilities))
        direct = evaluate_observable(obs, state) / hbar
        scale = max(1.0, float(np.linalg.norm(obs.matrix)))
        assert abs(mean - direct) <= 1e-10 * scale
        assert abs(float(np.sum(dist.probabilities)) - 1.0) <= 1e-10
        collected.append(dist.probabilities)
    return collected


def config_born_probabilities(hbar: float) -> list[np.ndarray]:
    """Criterion 2 workload: for the configuration observable the Born weights
    are the component moduli squared over hbar, to 1e-12."""
    rng = np.random.default_rng(4321)
    collected = []
    for _ in range(100):
        d = int(rng.integers(1, 9))
        q = config_observable(d)
        state = make_state(_random_direction(d, rng) * np.sqrt(hbar), hbar)
        dist = born_probabilities(q, state)
        componentwise = np.abs(state.components) ** 2 / hbar
        assert np.max(np.abs(dist.probabilities - componentwise)) <= 1e-12
        collected.append(dist.probabilities)
    return collected


def monte_carlo_born(hbar: float):
    """Criterion 3 workload: equal-weight two-level scenario at N = 1e5 over
    50 fixed seeds; returns in-band and chi-square pass counts plus the
    reference probabilities."""
    obs = config_observable(2)
    state = make_state(np.sqrt(hbar / 2) * np.ones(2), hbar)
    n = 10**5
    band = 3 * np.sqrt(0.25 / n)
    in_band = chi_ok = 0
    reference = None
    for seed in range(50):
        table = run_trials(obs, state, n, seed=seed)
        reference = table.reference
        if np.max(np.abs(table.frequencies - table.reference)) <= band:
            in_band += 1
        if chi_square(table).passed:
            chi_ok += 1
    return in_band, chi_ok, reference


def test_criterion_1_born_rule_derivation_chain():
    t0 = time.perf_counter()
    born_chain_probabilities(1.0)
    elapsed = time.perf_counter() - t0
    _report(1, "born-rule derivation chain", elapsed < 10.0)


def test_criterion_2_configuration_born_rule():
    t0 = time.perf_counter()
    config_born_probabilities(1.0)
    elapsed = time.perf_counter() - t0
    _report(2, "configuration-observable born rule", elapsed < 1.0)


def test_criterion_3_monte_carlo_frequencies():
    t0 = time.perf_counter()
    in_band, chi_ok, _ = monte_carlo_born(1.0)
    elapsed = time.perf_counter() - t0
    _report(3, "monte carlo born frequencies",
            in_band >= 49 and chi_ok >= 49 and elapsed < 30.0)


def test_criterion_4_constrained_minimization():
    t0 = time.perf_counter()
    reports = courant_fischer_suite([2, 4, 6, 8], per_dim=15, seed=600)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 60
    _report(4, "constrained minimization vs spectrum",
            all(r.passed for r in reports) and elapsed < 60.0)


def test_criterion_5_bracket_commutator_isomorphism():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    step = 1e-5

    def hermitian_form(obs):
        d = obs.dimension
        return GeneralQuadraticObservable(
            constant=0.0,
            linear=np.zeros(d, dtype=complex),
            hermitian=obs.matrix,
            anomalous=np.zeros((d, d), dtype=complex),
        )

    def fd_grad_conj(gen, psi):
        d = psi.shape[0]
        out = np.zeros(d, dtype=complex)
        for n in range(d):
            e = np.zeros(d, dtype=complex)
            e[n] = 1.0
            fx = (evaluate_general(gen, psi + step * e)
                  - evaluate_general(gen, psi - step * e)) / (2 * step)
            fy = (evaluate_general(gen, psi + 1j * step * e)
                  - evaluate_general(gen, psi - 1j * step * e)) / (2 * step)
            out[n] = 0.5 * (fx + 1j * fy)
        return out

    for _ in range(200):
        d = int(rng.integers(2, 7))
        a, b = _random_hermitian(d, rng), _random_hermitian(d, rng)
        state = make_state(_random_direction(d, rng), 1.0)
        commutator_path = poisson_bracket(a, b, state)
        ga = fd_grad_conj(hermitian_form(a), state.components)
        gb = fd_grad_conj(hermitian_form(b), state.components)
        derivative_path = float(np.real(
            1j * np.sum(np.conj(ga) * gb - ga * np.conj(gb))
        ))
        assert abs(commutator_path - derivative_path) <= 1e-6

    from shellqm import commutator

    for _ in range(100):
        d = int(rng.integers(2, 6))
        a, b, c = (_random_hermitian(d, rng) for _ in range(3))
        state = make_state(_random_direction(d, rng), 1.0)

        def inner(x, y):
            return HermitianObservable(1j * commutator(x, y))

        residual = (
            poisson_bracket(a, inner(b, c), state)
            + poisson_bracket(b, inner(c, a), state)
            + poisson_bracket(c, inner(a, b), state)
        )
        assert abs(residual) <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(5, "bracket-commutator isomorphism", elapsed < 10.0)


def test_criterion_6_flow_invariants():
    rng = np.random.default_rng(606)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        a = _random_hermitian(d, rng)
        state = make_state(_random_direction(d, rng), 1.0)
        t = float(rng.uniform(-10, 10))
        out = flow(a, state, t)
        assert abs(out.norm_squared() - 1.0) <= 1e-9
        assert abs(evaluate_observable(a, out) - evaluate_observable(a, state)) <= 1e-9

    ratios = []
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = _random_hermitian(d, rng)
        a = HermitianObservable(a.matrix / np.linalg.norm(a.matrix))
        state = make_state(_random_direction(d, rng), 1.0)
        exact = flow(a, state, 2.0)
        e1 = np.max(np.abs(flow_numeric(a, state, 2.0, steps=40).final.components
                           - exact.components))
        e2 = np.max(np.abs(flow_numeric(a, state, 2.0, steps=80).final.components
                           - exact.components))
        ratios.append(e1 / e2)
    _report(6, "flow invariants and rk4 order",
            all(13.0 <= r <= 19.0 for r in ratios))


def test_criterion_7_shell_preservation_selection():
    rng = np.random.default_rng(707)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        gen = GeneralQuadraticObservable(
            constant=0.0,
            linear=np.zeros(d, dtype=complex),
            hermitian=_random_hermitian(d, rng).matrix,
            anomalous=np.zeros((d, d), dtype=complex),
        )
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert abs(shell_defect(gen, psi)) <= 1e-10

    violations = 0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        sym = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gen = GeneralQuadraticObservable(
            constant=0.0,
            linear=rng.normal(size=d) + 1j * rng.normal(size=d),
            hermitian=_random_hermitian(d, rng).matrix,
            anomalous=0.5 * (sym + sym.T),
        )
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        if abs(shell_defect(gen, psi)) > 1e-8:
            violations += 1
    _report(7, "shell-preservation selection", violations >= 95)


def test_criterion_8_hbar_scale_invariance():
    small = 1e-3
    for p_unit, p_small in zip(born_chain_probabilities(1.0), born_chain_probabilities(small)):
        assert np.max(np.abs(p_unit - p_small)) <= 1e-10
    for p_unit, p_small in zip(config_born_probabilities(1.0), config_born_probabilities(small)):
        assert np.max(np.abs(p_unit - p_small)) <= 1e-10
    in_band, chi_ok, ref_small = monte_carlo_born(small)
    _, _, ref_unit = monte_carlo_born(1.0)
    assert np.max(np.abs(ref_small - ref_unit)) <= 1e-10
    _report(8, "hbar-scale invariance", in_band >= 49 and chi_ok >= 49)


def test_criterion_9_reproducible_verify(tmp_path):
    scenario = REPO / "scenarios" / "equal_q2.json"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["verify", "--scenario", str(scenario), "--out", str(out1)])
    code2 = main(["verify", "--scenario", str(scenario), "--out", str(out2)])
    same = (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    _report(9, "byte-identical verify reruns", code1 == 0 and code2 == 0 and same)
