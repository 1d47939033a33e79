import numpy as np
import pytest

import shellqm.linalg
from shellqm import (
    HermitianObservable,
    check_hermitian,
    commutator,
    config_observable,
    eigh,
    flow,
    make_state,
    mean_value,
    measure,
    unitary_propagator,
)
from shellqm.rng import master_rng
from shellqm.errors import NotSquareError

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, random_hermitian


class TestCheckHermitian:
    def test_identity(self):
        assert check_hermitian(np.eye(3))

    def test_symmetric_imaginary_off_diagonal_fails(self):
        assert not check_hermitian(np.array([[0, 1j], [1j, 0]]))

    def test_sigma_y(self):
        # oracle: conj(i) = -i, so the off-diagonal pair matches
        assert check_hermitian(SIGMA_Y)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            check_hermitian(np.zeros((2, 3)))


class TestEigh:
    def test_diagonal_input_sorted(self):
        es = eigh(HermitianObservable(np.diag([3.0, 1.0, 2.0]).astype(complex)))
        assert np.array_equal(es.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors are the permuted standard basis
        assert np.allclose(np.abs(es.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_sigma_x_closed_form(self):
        # oracle: closed-form 2x2 eigenproblem
        es = eigh(HermitianObservable(SIGMA_X))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)
        r = 1 / np.sqrt(2)
        assert np.allclose(es.eigenvectors[:, 0], [r, -r], atol=1e-12)
        assert np.allclose(es.eigenvectors[:, 1], [r, r], atol=1e-12)

    def test_reconstruction_random_6x6(self, rng):
        obs = random_hermitian(6, rng)
        es = eigh(obs)
        scale = max(1.0, float(np.max(np.abs(es.eigenvalues))))
        assert np.max(np.abs(es.reconstruct() - obs.matrix)) <= 1e-9 * scale

    def test_500_random_matrices_invariants(self, rng):
        for _ in range(500):
            d = int(rng.integers(1, 9))
            obs = random_hermitian(d, rng)
            es = eigh(obs)
            assert np.all(np.diff(es.eigenvalues) >= 0)
            v = es.eigenvectors
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-9
            completeness = v @ v.conj().T
            assert np.max(np.abs(completeness - np.eye(d))) <= 1e-9
            scale = max(1.0, float(np.max(np.abs(es.eigenvalues))))
            assert np.max(np.abs(es.reconstruct() - obs.matrix)) <= 1e-9 * scale

    def test_orthonormality_and_completeness_tight(self, rng):
        for _ in range(50):
            obs = random_hermitian(int(rng.integers(2, 9)), rng)
            es = eigh(obs)
            v = es.eigenvectors
            d = es.dimension
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
            assert np.max(np.abs(v @ v.conj().T - np.eye(d))) <= 1e-10

    def test_trace_preserved(self, rng):
        for _ in range(100):
            obs = random_hermitian(int(rng.integers(1, 9)), rng)
            es = eigh(obs)
            assert abs(np.sum(es.eigenvalues) - np.trace(obs.matrix).real) <= 1e-9

    def test_matches_lapack_eigenvalues(self, rng):
        for _ in range(100):
            obs = random_hermitian(int(rng.integers(2, 9)), rng)
            mine = eigh(obs).eigenvalues
            ref = np.linalg.eigvalsh(obs.matrix)
            assert np.allclose(mine, ref, atol=1e-10 * max(1.0, np.max(np.abs(ref))))

    def test_deterministic_output(self, rng):
        obs = random_hermitian(5, rng)
        a, b = eigh(obs), eigh(obs)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert a.clusters == b.clusters

    def test_phase_convention(self, rng):
        # first above-threshold component of every eigenvector is real positive
        for _ in range(20):
            es = eigh(random_hermitian(int(rng.integers(2, 7)), rng))
            for k in range(es.dimension):
                v = es.eigenvectors[:, k]
                lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
                assert abs(lead.imag) <= 1e-15
                assert lead.real > 0

    def test_degenerate_clusters(self):
        es = eigh(HermitianObservable(np.eye(3, dtype=complex)))
        assert es.clusters == ((0, 1, 2),)
        es = eigh(config_observable(3))
        assert es.clusters == ((0,), (1,), (2,))

    @pytest.mark.parametrize("raw", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]]])
    def test_raw_matrix_refused(self, raw):
        with pytest.raises(TypeError, match="HermitianObservable"):
            eigh(raw)


class TestEighCache:
    def test_same_instance_returns_same_system(self, rng):
        obs = random_hermitian(4, rng)
        assert eigh(obs) is eigh(obs)

    def test_cached_system_matches_fresh_solve_bytes(self, rng):
        obs = random_hermitian(6, rng)
        cached = eigh(obs)
        fresh = eigh(HermitianObservable(obs.matrix))
        assert cached.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert cached.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
        assert cached.clusters == fresh.clusters

    def test_fresh_instance_solved_again(self, rng):
        m = random_hermitian(3, rng).matrix
        assert eigh(HermitianObservable(m)) is not eigh(HermitianObservable(m))

    def test_source_array_writes_do_not_reach_observable(self, rng):
        source = random_hermitian(4, rng).matrix.copy()
        original = source.copy()
        obs = HermitianObservable(source)
        source.setflags(write=True)
        source[0, 0] += 100.0
        assert np.array_equal(obs.matrix, original)
        fresh = eigh(HermitianObservable(original))
        assert eigh(obs).eigenvalues.tobytes() == fresh.eigenvalues.tobytes()

    def test_one_solve_across_flow_grid_mean_and_measure(self, rng, monkeypatch):
        solves = []
        solve = shellqm.linalg._jacobi_eigh

        def counting(matrix):
            solves.append(1)
            return solve(matrix)

        monkeypatch.setattr(shellqm.linalg, "_jacobi_eigh", counting)
        obs = random_hermitian(5, rng)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = make_state(raw / np.linalg.norm(raw), hbar=1.0)
        for t in np.linspace(0.0, 2.0 * np.pi, 9):
            flow(obs, psi, float(t))
        mean_value(obs, psi)
        measure(obs, psi, master_rng(3))
        assert len(solves) == 1


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_hermitian(4, rng)
        assert np.max(np.abs(commutator(a, a))) == 0.0

    def test_pauli_algebra(self):
        # oracle: [sigma_x, sigma_y] = 2i sigma_z by hand
        got = commutator(HermitianObservable(SIGMA_X), HermitianObservable(SIGMA_Y))
        assert np.allclose(got, 2j * SIGMA_Z)

    def test_identity_commutes(self, rng):
        a = random_hermitian(3, rng)
        eye = HermitianObservable(np.eye(3, dtype=complex))
        assert np.max(np.abs(commutator(a, eye))) == 0.0

    def test_anti_hermitian_output(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            c = commutator(random_hermitian(d, rng), random_hermitian(d, rng))
            assert np.max(np.abs(c + c.conj().T)) <= 1e-12
            assert check_hermitian(1j * c, tol=1e-12)


class TestUnitaryPropagator:
    def test_t_zero_is_identity(self, rng):
        a = random_hermitian(5, rng)
        assert np.allclose(unitary_propagator(a, 0.0), np.eye(5), atol=1e-14)

    def test_sigma_x_quarter_turn(self):
        # oracle: exp(-i sx theta) = cos(theta) I - i sin(theta) sx at theta = pi/2
        u = unitary_propagator(HermitianObservable(SIGMA_X), np.pi / 2)
        assert np.allclose(u, -1j * SIGMA_X, atol=1e-14)

    def test_integer_spectrum_full_period(self):
        # oracle: eigenvalues 1 and 2 complete full turns at t = 2 pi
        u = unitary_propagator(config_observable(2), 2 * np.pi)
        assert np.allclose(u, np.eye(2), atol=1e-13)

    def test_unitarity(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 9))
            a = random_hermitian(d, rng)
            u = unitary_propagator(a, float(rng.uniform(-10, 10)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-10

    def test_group_property(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 7))
            a = random_hermitian(d, rng)
            s, t = rng.uniform(-10, 10, size=2)
            lhs = unitary_propagator(a, float(s)) @ unitary_propagator(a, float(t))
            rhs = unitary_propagator(a, float(s + t))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
