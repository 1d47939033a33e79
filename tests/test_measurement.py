import ast
import contextlib
import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core.umath import _extobj_contextvar

import shellqm.measurement
from shellqm import (
    AdmissibleSubspace,
    HermitianObservable,
    born_probabilities,
    config_observable,
    constrained_min,
    eigh,
    evaluate_observable,
    make_state,
    mean_value,
    measure,
    states_equal,
    unitary_propagator,
)
from shellqm.core import TOL_START, fro_norm
from shellqm.errors import (DegenerateProjectionUnderflowError, DimensionMismatchError,
                            InvalidArgumentError)
from shellqm.measurement import (NUMPY_PRIVATE, PG_MAX_ITER, PG_RESTARTS, _lowest_eigenvector,
                                 _normalized_cdf, _orthonormal_columns, outcome_index)
from shellqm.rng import master_rng

from conftest import SIGMA_Z, random_hermitian, random_state


def projected_min(a: np.ndarray, basis: np.ndarray, seed: int, hbar: float):
    """Projected gradient descent on the shell of radius sqrt(hbar), with a
    fixed step of 0.1 / ||A||_F, projecting the start, each gradient and each
    step off `basis`, until the gradient falls to 1e-9 ||A||_F hbar: an oracle
    for `constrained_min`'s minimum that shares none of its algorithm.
    Returns the eigenvalue."""
    def off(v):
        return v - basis @ (basis.conj().T @ v)

    d = a.shape[0]
    fro = float(np.linalg.norm(a)) or 1.0
    step, grad_tol, radius = 0.1 / fro, 1e-9 * fro * hbar, np.sqrt(hbar)
    rng = master_rng(seed)
    for _ in range(PG_RESTARTS):
        psi = off(rng.normal(size=d) + 1j * rng.normal(size=d))
        norm = float(np.linalg.norm(psi))
        if norm < 1e-8:
            continue
        psi = psi * (radius / norm)
        for _ in range(PG_MAX_ITER):
            grad = off(2.0 * (a @ psi))
            grad = grad - (np.real(np.vdot(psi, grad)) / hbar) * psi
            if float(np.linalg.norm(grad)) <= grad_tol:
                return float(np.real(np.vdot(psi, a @ psi))) / hbar
            psi = off(psi - step * grad)
            psi = psi * (radius / float(np.linalg.norm(psi)))
    raise AssertionError("oracle did not converge")


def random_level(rng, max_d: int = 8):
    """A random observable, a level of it and its admissible subspace, with the
    orthogonality basis taken from numpy."""
    d = int(rng.integers(1, max_d + 1))
    obs = random_hermitian(d, rng)
    vectors = np.linalg.eigh(obs.matrix)[1]
    n = int(rng.integers(1, d + 1))
    return obs, AdmissibleSubspace(level=n, basis=vectors[:, : n - 1])


class TestSpectrum:
    def test_configuration_outcomes(self):
        es = eigh(config_observable(3))
        assert np.allclose(es.cluster_values, [1, 2, 3])
        assert es.cluster.tolist() == [0, 1, 2]

    def test_fully_degenerate(self):
        es = eigh(HermitianObservable(np.eye(3, dtype=complex)))
        assert es.cluster.tolist() == [0, 0, 0]
        assert np.allclose(es.cluster_values, [1.0])

    def test_sigma_z_outcomes(self):
        es = eigh(HermitianObservable(SIGMA_Z))
        assert np.allclose(es.cluster_values, [-1.0, 1.0])


class TestBornProbabilities:
    def test_eigenstate_is_certain(self, rng):
        obs = random_hermitian(4, rng)
        es = eigh(obs)
        hbar = 1.0
        s = make_state(np.sqrt(hbar) * es.eigenvectors[:, 2], hbar=hbar)
        dist = born_probabilities(obs, s)
        expect = np.zeros(4)
        expect[2] = 1.0
        assert np.allclose(dist.probabilities, expect, atol=1e-12)

    def test_equal_weight_two_level(self):
        hbar = 1.0
        s = make_state([np.sqrt(hbar / 2), np.sqrt(hbar / 2)], hbar=hbar)
        dist = born_probabilities(config_observable(2), s)
        # oracle: p_n = |psi_n|^2 / hbar componentwise
        assert np.allclose(dist.probabilities, [0.5, 0.5], atol=1e-14)

    def test_half_third_sixth(self):
        hbar = 1.0
        s = make_state([np.sqrt(hbar / 2), np.sqrt(hbar / 3), np.sqrt(hbar / 6)], hbar=hbar)
        dist = born_probabilities(config_observable(3), s)
        assert np.allclose(dist.probabilities, [0.5, 1 / 3, 1 / 6], atol=1e-14)

    def test_normalized_for_random_inputs(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 8))
            dist = born_probabilities(random_hermitian(d, rng), random_state(d, rng))
            assert abs(np.sum(dist.probabilities) - 1.0) <= 1e-10
            assert np.all(dist.probabilities >= 0.0)

    def test_unitary_invariance(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            obs = random_hermitian(d, rng)
            s = random_state(d, rng)
            u = unitary_propagator(random_hermitian(d, rng), float(rng.uniform(-3, 3)))
            obs_rot = HermitianObservable(u @ obs.matrix @ u.conj().T)
            s_rot = make_state(u @ s.components, s.hbar)
            d0 = born_probabilities(obs, s)
            d1 = born_probabilities(obs_rot, s_rot)
            assert np.max(np.abs(d0.values - d1.values)) <= 1e-9
            assert np.max(np.abs(d0.probabilities - d1.probabilities)) <= 1e-9

    def test_hbar_invariance(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            obs = random_hermitian(d, rng)
            raw = rng.normal(size=d) + 1j * rng.normal(size=d)
            raw /= np.linalg.norm(raw)
            p1 = born_probabilities(obs, make_state(raw, 1.0)).probabilities
            small = 1e-3
            p2 = born_probabilities(
                obs, make_state(raw * np.sqrt(small), small)
            ).probabilities
            assert np.max(np.abs(p1 - p2)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            born_probabilities(random_hermitian(3, rng), random_state(2, rng))


class TestMeanValue:
    def test_eigenstate_mean_is_eigenvalue(self, rng):
        obs = random_hermitian(3, rng)
        es = eigh(obs)
        s = make_state(es.eigenvectors[:, 1], hbar=1.0)
        assert mean_value(obs, s) == pytest.approx(es.eigenvalues[1], abs=1e-10)

    def test_equal_weight_q(self):
        s = make_state([np.sqrt(0.5), np.sqrt(0.5)], hbar=1.0)
        assert mean_value(config_observable(2), s) == pytest.approx(1.5, abs=1e-12)

    def test_proportionality_rule(self, rng):
        # mean of outcomes equals the observable value divided by hbar
        for _ in range(200):
            d = int(rng.integers(2, 8))
            obs = random_hermitian(d, rng)
            hbar = float(rng.choice([1.0, 1e-3]))
            s = random_state(d, rng, hbar=hbar)
            direct = evaluate_observable(obs, s) / hbar
            scale = max(1.0, float(np.linalg.norm(obs.matrix)))
            assert abs(mean_value(obs, s) - direct) <= 1e-10 * scale


class TestConstrainedMin:
    def test_sigma_z_ground_level(self):
        obs = HermitianObservable(SIGMA_Z)
        sub = AdmissibleSubspace.full_shell(2)
        result = constrained_min(obs, sub, seed=3)
        assert result.eigenvalue == pytest.approx(-1.0, abs=1e-8)
        assert result.form_value == pytest.approx(-1.0, abs=1e-8)
        assert states_equal(result.argmin, make_state([0, 1], hbar=1.0), tol=1e-6)

    def test_sigma_z_second_level(self):
        obs = HermitianObservable(SIGMA_Z)
        es = eigh(obs)
        sub = AdmissibleSubspace.for_level(es, 2)
        result = constrained_min(obs, sub, seed=3)
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-8)

    def test_configuration_observable_all_levels(self):
        obs = config_observable(4)
        es = eigh(obs)
        for n in range(1, 5):
            sub = AdmissibleSubspace.for_level(es, n)
            result = constrained_min(obs, sub, seed=11)
            assert result.eigenvalue == pytest.approx(float(n), abs=1e-7)

    def test_form_value_scales_with_hbar(self):
        obs = HermitianObservable(SIGMA_Z)
        sub = AdmissibleSubspace.full_shell(2)
        hbar = 0.25
        result = constrained_min(obs, sub, seed=5, hbar=hbar)
        assert result.eigenvalue == pytest.approx(-1.0, abs=1e-8)
        assert result.form_value == pytest.approx(-hbar, abs=1e-8)
        assert result.argmin.hbar == hbar

    def test_matches_eigensolver_random(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            obs = random_hermitian(d, rng)
            es = eigh(obs)
            for n in range(1, d + 1):
                sub = AdmissibleSubspace.for_level(es, n)
                result = constrained_min(obs, sub, seed=int(rng.integers(10**6)))
                target = es.eigenvalues[n - 1]
                assert abs(result.eigenvalue - target) <= 1e-6 * max(1.0, abs(target))

    @pytest.mark.parametrize("d", [16, 64])
    def test_every_level_converges_from_its_first_start(self, rng, d):
        obs = random_hermitian(d, rng)
        values, vectors = np.linalg.eigh(obs.matrix)
        for n in range(1, d + 1):
            sub = AdmissibleSubspace(level=n, basis=vectors[:, : n - 1])
            result = constrained_min(obs, sub, seed=n)
            assert result.restarts == 0
            assert result.iterations <= 10 * d
            assert abs(result.eigenvalue - values[n - 1]) <= 1e-12 * max(1.0, abs(values[n - 1]))

    def test_matches_projected_oracle(self, rng):
        for _ in range(40):
            obs, sub = random_level(rng)
            seed = int(rng.integers(10**6))
            want = projected_min(obs.matrix, sub.basis, seed, 1.0)
            result = constrained_min(obs, sub, seed=seed)
            assert result.iterations <= 10 * obs.dimension
            assert abs(result.eigenvalue - want) <= 1e-12 * max(1.0, abs(want))

    def test_argmin_is_admissible(self, rng):
        for _ in range(40):
            obs, sub = random_level(rng)
            hbar = (1e-30, 1.0, 1e30)[int(rng.integers(3))]
            result = constrained_min(obs, sub, seed=int(rng.integers(10**6)), hbar=hbar)
            overlap = np.abs(sub.basis.conj().T @ result.argmin.components)
            assert np.max(overlap, initial=0.0) <= 1e-13 * np.sqrt(hbar)
            assert result.form_value == hbar * result.eigenvalue

    def test_descent_does_not_depend_on_hbar(self, rng):
        # hbar only sets the shell's radius: the eigenvalue and the iteration
        # count are the same numbers on every shell
        for _ in range(10):
            obs, sub = random_level(rng)
            seed = int(rng.integers(10**6))
            unit = constrained_min(obs, sub, seed=seed)
            for hbar in (1e-30, 1e-6, 0.5, 2.0, 1e6, 1e30):
                result = constrained_min(obs, sub, seed=seed, hbar=hbar)
                assert result.eigenvalue == unit.eigenvalue
                assert result.iterations == unit.iterations

    def test_huge_hbar_still_converges(self):
        sub = AdmissibleSubspace.full_shell(3)
        result = constrained_min(config_observable(3), sub, seed=0, hbar=1e30)
        assert result.eigenvalue == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("hbar", [np.inf, 0.0, -1.0])
    @pytest.mark.filterwarnings("error")
    def test_hbar_not_positive_and_finite_refused(self, hbar):
        obs = HermitianObservable(SIGMA_Z)
        with pytest.raises(InvalidArgumentError, match="hbar"):
            constrained_min(obs, AdmissibleSubspace.full_shell(2), seed=0, hbar=hbar)

    def test_near_degenerate_reports_no_convergence(self, monkeypatch):
        # a 1e-4 gap below a spectrum in [0.5, 1] takes about 30 steps to
        # resolve, more than a budget of 10; the error still carries the best
        # value found, which is near the true minimum
        import shellqm.measurement as measurement_mod
        from shellqm.errors import NoConvergenceError

        monkeypatch.setattr(measurement_mod, "PG_MAX_ITER", 10)
        values = np.concatenate([[0.0, 1e-4], np.linspace(0.5, 1.0, 14)])
        obs = HermitianObservable(np.diag(values).astype(complex))
        sub = AdmissibleSubspace.full_shell(16)
        with pytest.raises(NoConvergenceError) as err:
            constrained_min(obs, sub, seed=1)
        assert err.value.best_value == pytest.approx(0.0, abs=1e-4)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def public_columns(m, complete=False):
    """The public call `_orthonormal_columns` stands for."""
    return np.linalg.qr(m, mode="complete" if complete else "reduced")[0]


complete_columns = functools.partial(_orthonormal_columns, complete=True)


def public_lowest(h):
    """The public call `_lowest_eigenvector` stands for."""
    return np.linalg.eigh(h)[1][:, 0]


def outcome(f, *args):
    """f(*args)'s bits, or the type and message of what it raised."""
    try:
        return bits(f(*args))
    except np.linalg.LinAlgError as err:
        return type(err), str(err)


@st.composite
def ritz_blocks(draw):
    """A complex (d, 2) or (d, 3) block, d = 1..16, as the minimizer builds it
    (a transposed fresh array): random, with the third column in the span of
    the first two, or with a zero column; scaled by 1, 1e-150 or 1e150."""
    d = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["random", "spanned", "zero"]))
    k = 3 if kind == "spanned" else draw(st.sampled_from([2, 3]))
    rng = master_rng(draw(st.integers(0, 2**32)))
    m = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
    if kind == "spanned":
        m[2] = (rng.normal() + 1j * rng.normal()) * m[0] + rng.normal() * m[1]
    elif kind == "zero":
        m[draw(st.integers(0, k - 1))] = 0.0
    return (draw(st.sampled_from([1.0, 1e-150, 1e150])) * m).T


@st.composite
def complement_bases(draw):
    """A complex (d, n) block, d = 1..16, n = 0..d-1, as `constrained_min`
    takes the complete QR of it: the first n columns of a unitary (a strided
    view, as `AdmissibleSubspace.for_level` gives), random columns, or either
    with a zero column; scaled by 1, 1e-150 or 1e150."""
    d = draw(st.integers(1, 16))
    n = draw(st.integers(0, d - 1))
    rng = master_rng(draw(st.integers(0, 2**32)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = np.linalg.qr(g)[0] if draw(st.booleans()) else g
    if n and draw(st.booleans()):
        m[:, draw(st.integers(0, n - 1))] = 0.0
    return (draw(st.sampled_from([1.0, 1e-150, 1e150])) * m)[:, :n]


class TestLapackHelpers:
    """The minimizer's QR and 3x3 eigh give the public calls' bits."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(ritz_blocks())
    def test_same_bits_as_the_public_calls(self, block):
        q = public_columns(block)
        assert outcome(_orthonormal_columns, block.T.copy().T) == bits(q)
        # a Hermitian Ritz matrix of the block's own size and scale
        h = q.conj().T @ (block @ block.conj().T) @ q
        assert outcome(_lowest_eigenvector, h) == outcome(public_lowest, h)

    @pytest.mark.parametrize("d, k", [(2, 2), (4, 3), (16, 3)])
    def test_nan_block(self, d, k):
        block = np.full((k, d), np.nan + 0j).T
        q = public_columns(block)
        assert np.isnan(q).all()
        assert outcome(_orthonormal_columns, block.T.copy().T) == bits(q)
        # LAPACK returns NaN at 2x2 and does not converge at 3x3: the same either way
        h = np.full((k, k), np.nan + 0j)
        assert outcome(_lowest_eigenvector, h) == outcome(public_lowest, h)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(complement_bases())
    def test_complete_qr_same_bits_as_the_public_call(self, block):
        # constrained_min hands the helper a fresh copy, which it overwrites
        assert outcome(complete_columns, block.copy()) == outcome(public_columns, block, True)

    @pytest.mark.parametrize("d, n", [(2, 1), (4, 3), (16, 7)])
    def test_complete_qr_of_a_nan_block(self, d, n):
        block = np.full((d, n), np.nan + 0j)
        assert outcome(complete_columns, block.copy()) == outcome(public_columns, block, True)

    @pytest.mark.parametrize("case", ["d1", "d4", "d16", "degenerate"])
    def test_minimizer_is_bit_exact_against_the_public_calls(self, case, rng, monkeypatch):
        if case == "degenerate":
            u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
            matrix = (u * np.array([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0])) @ u.conj().T
            obs = HermitianObservable(0.5 * (matrix + matrix.conj().T))
        else:
            obs = random_hermitian(int(case[1:]), rng)
        vectors = np.linalg.eigh(obs.matrix)[1]

        def levels():
            out = []
            for n in range(1, obs.dimension + 1):
                sub = AdmissibleSubspace(level=n, basis=vectors[:, : n - 1])
                r = constrained_min(obs, sub, seed=n)
                out.append((bits(r.eigenvalue), r.iterations, r.restarts,
                            bits(r.argmin.components)))
            return out

        fast = levels()
        monkeypatch.setattr(shellqm.measurement, "_orthonormal_columns", public_columns)
        monkeypatch.setattr(shellqm.measurement, "_lowest_eigenvector", public_lowest)
        assert levels() == fast


def matmul_min(obs, sub, seed):
    """`constrained_min`'s loop at hbar = 1 with `@` at every product, on the
    same LAPACK helpers and starts: the oracle for its `.dot` products.
    Returns the eigenvalue bits, iterations, restarts and argmin bits."""
    d = obs.dimension
    q = _orthonormal_columns(sub.basis.copy(), complete=True)[:, sub.level - 1:]
    qh = q.conj().T
    b = qh @ obs.matrix @ q

    def rayleigh(x, bx):
        return float(np.vdot(x, bx).real) / float(np.vdot(x, x).real)

    rng = master_rng(seed)
    total_iters = 0
    for restart in range(PG_RESTARTS):
        x = qh @ (rng.normal(size=d) + 1j * rng.normal(size=d))
        norm = fro_norm(x)
        if norm < TOL_START:
            continue
        x = x * (1.0 / norm)
        bx = b @ x
        value = rayleigh(x, bx)
        previous = []
        for _ in range(PG_MAX_ITER):
            total_iters += 1
            basis = _orthonormal_columns(np.array([x, bx - value * x, *previous]).T)
            y = _lowest_eigenvector(basis.conj().T @ b @ basis)
            step = basis @ y
            b_step = b @ step
            step_value = rayleigh(step, b_step)
            if not step_value < value:
                argmin = make_state(q @ x, 1.0)
                return bits(value), total_iters, restart, bits(argmin.components)
            previous = [basis[:, 1:] @ y[1:]]
            x, bx, value = step, b_step, step_value
    raise AssertionError("oracle did not converge")


@st.composite
def minimizer_observables(draw):
    """A d x d observable, d = 1..16: complex with a random spectrum, real
    symmetric, or complex with a spectrum in {-2, ..., 2} (degenerate levels);
    scaled by 1, 1e-150 or 1e150."""
    d = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["complex", "real", "degenerate"]))
    rng = master_rng(draw(st.integers(0, 2**32)))
    if kind == "real":
        g = rng.normal(size=(d, d))
        m = (g + g.T).astype(complex)
    else:
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        values = rng.integers(-2, 3, size=d) if kind == "degenerate" else rng.normal(size=d)
        m = (u * values) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
    return HermitianObservable(draw(st.sampled_from([1.0, 1e-150, 1e150])) * m)


class TestProducts:
    """`constrained_min` forms its products with `ndarray.dot` where that gives
    `@`'s bits, and keeps `@` at the two sites where it does not."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(minimizer_observables(), st.integers(0, 2**31 - 1))
    def test_every_level_matches_the_matmul_loop(self, obs, seed):
        vectors = np.linalg.eigh(obs.matrix)[1]
        for n in range(1, obs.dimension + 1):
            sub = AdmissibleSubspace(level=n, basis=vectors[:, : n - 1])
            r = constrained_min(obs, sub, seed=seed + n)
            got = bits(r.eigenvalue), r.iterations, r.restarts, bits(r.argmin.components)
            assert got == matmul_min(obs, sub, seed + n)


def edge_block(kind: str, rows: int, cols: int, seed: int) -> np.ndarray:
    """A complex (rows, cols) block of NaNs, or of entries +-1e308 or
    +-1e-320 (subnormal) in each part with random signs."""
    if kind == "nan":
        return np.full((rows, cols), np.nan + 0j)
    rng = master_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(2, rows, cols))
    return {"huge": 1e308, "subnormal": 1e-320}[kind] * (signs[0] + 1j * signs[1])


def edge_hermitian(kind: str, k: int, seed: int) -> np.ndarray:
    """An exactly Hermitian k x k matrix of `edge_block`'s entries."""
    m = edge_block(kind, k, k, seed)
    upper = np.triu(m, 1)
    h = upper + upper.conj().T
    h[np.diag_indices(k)] = m.diagonal().real
    return h


def under_outer_state(mode, f, *args):
    """`outcome(f, *args)` with warnings as errors, inside an outer
    `np.errstate(all=mode)` (mode None: the default state), also giving a
    FloatingPointError or RuntimeWarning as its type and message.  Asserts
    that the call leaves np.geterr() as it found it, raised or not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all=mode) if mode else contextlib.nullcontext():
            before = np.geterr()
            try:
                return outcome(f, *args)
            except (FloatingPointError, RuntimeWarning) as err:
                return type(err), str(err)
            finally:
                assert np.geterr() == before


class TestLapackErrorStates:
    """The helpers enter the error states of `np.linalg.qr` and `eigh`, so the
    caller's state changes neither their bits nor what they raise or warn,
    and is restored after they return or raise."""

    MODES = ["raise", "warn", "ignore", None]

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["nan", "huge", "subnormal"])
    @pytest.mark.parametrize("d, k", [(1, 2), (2, 2), (4, 3), (16, 3)])
    def test_qr_and_eigh_match_the_public_calls(self, mode, kind, d, k):
        block = edge_block(kind, k, d, seed=d + k).T  # a transposed fresh array
        got = under_outer_state(mode, _orthonormal_columns, block.T.copy().T)
        assert got == under_outer_state(mode, public_columns, block)
        h = edge_hermitian(kind, k, seed=d + k)
        assert under_outer_state(mode, _lowest_eigenvector, h) == \
            under_outer_state(mode, public_lowest, h)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["nan", "huge", "subnormal"])
    @pytest.mark.parametrize("d, n", [(2, 1), (4, 3), (16, 7)])
    def test_complete_qr_matches_the_public_call(self, mode, kind, d, n):
        block = edge_block(kind, d, n, seed=d + n)
        assert under_outer_state(mode, complete_columns, block.copy()) == \
            under_outer_state(mode, public_columns, block, True)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("state, handler", [
        (shellqm.measurement._QR_ERRSTATE, shellqm.measurement._raise_qr_error),
        (shellqm.measurement._EIGH_ERRSTATE, shellqm.measurement._raise_eigh_error)])
    def test_prebuilt_states_are_the_public_calls_states(self, mode, state, handler):
        # every field, including over, divide and under, which no case above trips
        with np.errstate(all=mode) if mode else contextlib.nullcontext():
            with np.errstate(call=handler, invalid="call", over="ignore", divide="ignore",
                             under="ignore"):
                want = np.geterr(), np.geterrcall()
            token = _extobj_contextvar.set(state)
            try:
                got = np.geterr(), np.geterrcall()
            finally:
                _extobj_contextvar.reset(token)
        assert got == want

    def test_the_nan_cases_raise_and_restore_the_callers_state(self):
        # the cases above include a raised LinAlgError under every mode
        h = np.full((3, 3), np.nan + 0j)
        for mode in self.MODES:
            assert under_outer_state(mode, _lowest_eigenvector, h) == (
                np.linalg.LinAlgError, "Eigenvalues did not converge")
        assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore",
                               "invalid": "warn"}


class TestNumpyPrivateNames:
    """The private numpy names the package calls are exactly NUMPY_PRIVATE,
    which is checked once, at import."""

    def test_private_names_used_are_the_checked_ones(self):
        used = set()
        for path in Path(shellqm.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "_umath_linalg"):
                    used.add(f"numpy.linalg._umath_linalg.{node.attr}")
                elif (isinstance(node, ast.ImportFrom)
                        and (node.module or "").startswith("numpy._core")):
                    used.update(f"{node.module}.{alias.name}" for alias in node.names)
                elif isinstance(node, ast.Import):
                    assert not any(a.name.startswith("numpy._core") for a in node.names)
        assert len(set(NUMPY_PRIVATE)) == len(NUMPY_PRIVATE)
        assert used == set(NUMPY_PRIVATE)

    @pytest.mark.parametrize("path", NUMPY_PRIVATE)
    def test_a_missing_name_is_an_import_error_naming_it(self, path):
        module, _, name = path.rpartition(".")
        code = (f"import importlib\n"
                f"delattr(importlib.import_module({module!r}), {name!r})\n"
                f"try:\n"
                f"    import shellqm\n"
                f"except ImportError as err:\n"
                f"    print(err)\n")
        src = str(Path(shellqm.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert run.returncode == 0 and run.stderr == ""
        assert "numpy>=2.0" in run.stdout and f"has no {path}\n" in run.stdout


class TestAdmissibleSubspace:
    def test_full_shell_has_empty_basis(self):
        sub = AdmissibleSubspace.full_shell(3)
        assert sub.level == 1
        assert sub.basis.shape == (3, 0)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError):
            AdmissibleSubspace(level=2, basis=np.array([[1.0], [1.0]], dtype=complex))

    def test_level_out_of_range(self, rng):
        es = eigh(random_hermitian(3, rng))
        with pytest.raises(ValueError):
            AdmissibleSubspace.for_level(es, 4)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_basis_without_a_warning(self, entry):
        # a NaN Gram deviation compares False against any bound, and an
        # infinite entry makes the Gram product warn: both are refused first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="non-finite"):
                AdmissibleSubspace(level=2, basis=np.array([[entry], [0.0]], dtype=complex))

    @pytest.mark.parametrize("entry", [1e200, 1e200 + 1e200j])
    def test_rejects_overflowing_basis_without_a_warning(self, entry):
        # finite, but its Gram product overflows to inf (and NaN for the
        # complex entry): the deviation test is NaN-safe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not orthonormal"):
                AdmissibleSubspace(level=2, basis=np.array([[entry], [0.0]], dtype=complex))

    def test_minimizer_leaves_a_read_only_basis_as_it_was(self, rng):
        obs = random_hermitian(5, rng)
        es = eigh(obs)
        sub = AdmissibleSubspace.for_level(es, 3)
        before = sub.basis.copy()
        result = constrained_min(obs, sub, seed=3)
        assert abs(result.eigenvalue - es.eigenvalues[2]) <= 1e-10
        assert bits(sub.basis) == bits(before)


class TestSampling:
    def test_certain_outcome(self):
        u = master_rng(0).random(100)
        assert np.all(outcome_index(_normalized_cdf(np.array([1.0, 0.0, 0.0])), u) == 0)

    def test_certain_second_outcome(self):
        u = master_rng(0).random(100)
        assert np.all(outcome_index(_normalized_cdf(np.array([0.0, 1.0])), u) == 1)

    def test_fair_coin_frequency(self):
        n = 10**5
        cdf = _normalized_cdf(np.array([0.5, 0.5]))
        freq = np.mean(outcome_index(cdf, master_rng(2026).random(n)))
        assert 0.49 <= freq <= 0.51
        assert 0.49 <= 1 - freq <= 0.51

    def test_scalar_draw_matches_array_draw(self):
        cdf = _normalized_cdf(np.array([0.2, 0.0, 0.5, 0.3]))
        u = master_rng(3).random(64)
        assert [int(outcome_index(cdf, x)) for x in u] == outcome_index(cdf, u).tolist()

    def test_top_draw_skips_zero_probability_tail(self):
        # probabilities of an on-shell state may sum to just below 1; a draw
        # above that total must still land on an outcome that can occur
        cdf = _normalized_cdf(np.array([0.99999999995, 0.0]))
        assert outcome_index(cdf, 1.0 - 2.0**-53) == 0
        assert outcome_index(cdf, np.full(3, 1.0 - 2.0**-53)).tolist() == [0, 0, 0]


class TestMeasure:
    def test_repeatability_from_eigenstate(self, rng):
        obs = random_hermitian(3, rng)
        es = eigh(obs)
        s = make_state(es.eigenvectors[:, 1], hbar=1.0)
        rec = measure(obs, s, master_rng(1))
        assert rec.cluster == 1
        assert states_equal(rec.post_state, s, tol=1e-9)

    def test_equal_weight_collapse_targets(self):
        hbar = 1.0
        s = make_state([np.sqrt(hbar / 2), np.sqrt(hbar / 2)], hbar=hbar)
        obs = config_observable(2)
        seen = set()
        for seed in range(30):
            rec = measure(obs, s, master_rng(seed))
            assert rec.value in (1.0, 2.0)
            target = make_state([np.sqrt(hbar), 0] if rec.value == 1.0 else [0, np.sqrt(hbar)], hbar)
            assert states_equal(rec.post_state, target, tol=1e-9)
            seen.add(rec.value)
        assert seen == {1.0, 2.0}

    def test_identity_observable_is_transparent(self, rng):
        s = random_state(3, rng)
        obs = HermitianObservable(np.eye(3, dtype=complex))
        rec = measure(obs, s, master_rng(7))
        assert rec.cluster == 0
        assert rec.value == pytest.approx(1.0)
        assert states_equal(rec.post_state, s, tol=1e-10)

    def test_repeat_measurement_is_stable(self, rng):
        for seed in range(20):
            d = int(rng.integers(2, 6))
            obs = random_hermitian(d, rng)
            s = random_state(d, rng)
            stream = master_rng(seed)
            first = measure(obs, s, stream)
            second = measure(obs, first.post_state, stream)
            assert second.cluster == first.cluster

    def test_post_state_value_matches_outcome(self, rng):
        for seed in range(20):
            d = int(rng.integers(2, 6))
            obs = random_hermitian(d, rng)
            s = random_state(d, rng)
            rec = measure(obs, s, master_rng(seed))
            got = evaluate_observable(obs, rec.post_state) / s.hbar
            assert abs(got - rec.value) <= 1e-8 * max(1.0, abs(rec.value))

    def test_top_draw_on_short_shell_collapses_onto_possible_outcome(self):
        # the state's probabilities are [1 - 5e-11, 0]; the largest draw below
        # 1 must not select the zero-probability outcome
        class TopDraw:
            def random(self):
                return 1.0 - 2.0**-53

        s = make_state([np.sqrt(1 - 5e-11), 0], hbar=1.0)
        rec = measure(config_observable(2), s, TopDraw())
        assert rec.value == 1.0
        assert rec.cluster == 0

    def test_collapse_onto_a_vanishing_projection(self):
        # the draw 0.0 selects outcome 1.0, whose amplitude is 1e-13: below
        # TOL_ZERO * sqrt(hbar) the collapse is refused, and at 1e-11 it holds
        class ZeroDraw:
            def random(self):
                return 0.0

        with pytest.raises(DegenerateProjectionUnderflowError):
            measure(config_observable(2), make_state([1e-13, 1.0], hbar=1.0), ZeroDraw())
        rec = measure(config_observable(2), make_state([1e-11, 1.0], hbar=1.0), ZeroDraw())
        assert (rec.value, rec.cluster) == (1.0, 0)
        assert states_equal(rec.post_state, make_state([1.0, 0.0], hbar=1.0), tol=1e-12)

    def test_degenerate_outcome_collapses_within_eigenspace(self, rng):
        # two-fold degenerate block keeps the in-plane direction
        m = np.diag([1.0, 1.0, 5.0]).astype(complex)
        obs = HermitianObservable(m)
        s = make_state([0.6, 0.8, 0.0], hbar=1.0)
        rec = measure(obs, s, master_rng(4))
        assert rec.value == pytest.approx(1.0)
        assert states_equal(rec.post_state, s, tol=1e-10)
