import numpy as np
import pytest

from shellqm import (
    GeneralQuadraticObservable,
    HermitianObservable,
    OscillatorParams,
    PhaseSpacePoint,
    commutator,
    config_observable,
    evaluate_general,
    evaluate_observable,
    hermitian_from_function,
    make_state,
    poisson_bracket,
    shell_residual,
    to_complex,
    to_real,
)
from shellqm.errors import DimensionMismatchError, NonRealValueError, NotVanishingAtRestError

from conftest import SIGMA_X, SIGMA_Y, random_hermitian, random_state


def grad_conj(obs: HermitianObservable, psi: np.ndarray) -> np.ndarray:
    """Wirtinger derivative of the Hermitian form with respect to conj(psi_n):
    (A psi)_n.  The derivative with respect to psi_n is its conjugate."""
    return obs.matrix @ np.asarray(psi, dtype=complex)


def quadratic_only(matrix: np.ndarray) -> GeneralQuadraticObservable:
    d = matrix.shape[0]
    return GeneralQuadraticObservable(
        constant=0.0,
        linear=np.zeros(d, dtype=complex),
        hermitian=matrix,
        anomalous=np.zeros((d, d), dtype=complex),
    )


def bracket_from_gradients(a, b, state) -> float:
    """Derivative-path oracle: i (dA/dpsi dB/dpsi* - dA/dpsi* dB/dpsi) with
    the analytic Wirtinger gradients; reduces to -2 Im <A psi|B psi>."""
    ga = grad_conj(a, state.components)
    gb = grad_conj(b, state.components)
    total = 1j * np.sum(np.conj(ga) * gb - ga * np.conj(gb))
    assert abs(total.imag) < 1e-10
    return float(total.real)


class TestCoordinateMaps:
    def test_hand_substitution(self):
        # oracle: sqrt(2/2)*1 = 1 and i*2/sqrt(4) = i
        params = OscillatorParams(dimension=2, mass=1.0, omega=2.0)
        pt = PhaseSpacePoint(q=np.array([1.0, 0.0]), p=np.array([0.0, 2.0]))
        assert np.allclose(to_complex(pt, params), [1.0, 1.0j])

    def test_rest_maps_to_zero(self):
        params = OscillatorParams(dimension=3)
        pt = PhaseSpacePoint(q=np.zeros(3), p=np.zeros(3))
        assert np.array_equal(to_complex(pt, params), np.zeros(3, dtype=complex))

    def test_unit_scale_when_m_omega_cancel(self):
        # oracle: sqrt(2*1/2) = 1
        params = OscillatorParams(dimension=1, mass=2.0, omega=1.0)
        pt = PhaseSpacePoint(q=np.array([1.0]), p=np.array([0.0]))
        assert np.allclose(to_complex(pt, params), [1.0])

    def test_inverse_of_hand_example(self):
        params = OscillatorParams(dimension=2, mass=1.0, omega=2.0)
        pt = to_real(np.array([1.0, 1.0j]), params)
        assert np.allclose(pt.q, [1.0, 0.0])
        assert np.allclose(pt.p, [0.0, 2.0])

    def test_round_trip_identity(self, rng):
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            m, w = rng.uniform(0.1, 10.0, size=2)
            params = OscillatorParams(dimension=d, mass=float(m), omega=float(w))
            pt = PhaseSpacePoint(q=rng.normal(size=d), p=rng.normal(size=d))
            back = to_real(to_complex(pt, params), params)
            assert np.max(np.abs(back.q - pt.q)) <= 1e-12
            assert np.max(np.abs(back.p - pt.p)) <= 1e-12

    def test_dimension_mismatch(self):
        params = OscillatorParams(dimension=3)
        with pytest.raises(DimensionMismatchError):
            to_complex(PhaseSpacePoint(q=np.zeros(2), p=np.zeros(2)), params)


class TestShellResidual:
    def test_single_mode_on_shell(self):
        # oracle: (m w / 2) * 2 hbar / (m w) = hbar
        params = OscillatorParams(dimension=3, mass=1.7, omega=0.9, hbar=2.0)
        q = np.zeros(3)
        q[0] = np.sqrt(2 * params.hbar / (params.mass * params.omega))
        pt = PhaseSpacePoint(q=q, p=np.zeros(3))
        assert abs(shell_residual(pt, params)) <= 1e-14

    def test_rest_point_off_by_minus_hbar(self):
        params = OscillatorParams(dimension=2, hbar=1.5)
        pt = PhaseSpacePoint(q=np.zeros(2), p=np.zeros(2))
        assert shell_residual(pt, params) == -1.5

    def test_agrees_with_complex_norm(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 6))
            m, w = rng.uniform(0.1, 10.0, size=2)
            params = OscillatorParams(dimension=d, mass=float(m), omega=float(w))
            pt = PhaseSpacePoint(q=rng.normal(size=d), p=rng.normal(size=d))
            psi = to_complex(pt, params)
            other = float(np.sum(np.abs(psi) ** 2)) - params.hbar
            assert abs(shell_residual(pt, params) - other) <= 1e-12


class TestEvaluateObservable:
    def test_identity_gives_shell_norm(self, rng):
        for hbar in (1.0, 1e-3):
            s = random_state(3, rng, hbar=hbar)
            eye = HermitianObservable(np.eye(3, dtype=complex))
            assert evaluate_observable(eye, s) == pytest.approx(hbar, rel=1e-12)

    def test_diagonal_contraction(self):
        hbar = 2.0
        s = make_state([np.sqrt(hbar), 0], hbar=hbar)
        assert evaluate_observable(config_observable(2), s) == pytest.approx(hbar)

    def test_equal_weight_q(self):
        # oracle: (1 + 2)/2 weighting
        hbar = 2.0
        s = make_state([np.sqrt(hbar / 2), np.sqrt(hbar / 2)], hbar=hbar)
        assert evaluate_observable(config_observable(2), s) == pytest.approx(1.5 * hbar)


class TestEvaluateGeneral:
    def test_reduces_to_hermitian_form_exactly(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 6))
            obs = random_hermitian(d, rng)
            s = random_state(d, rng)
            got = evaluate_general(quadratic_only(obs.matrix), s.components)
            assert got == evaluate_observable(obs, s)

    def test_constant_only(self, rng):
        g = GeneralQuadraticObservable(
            constant=5.0,
            linear=np.zeros(2, dtype=complex),
            hermitian=np.zeros((2, 2), dtype=complex),
            anomalous=np.zeros((2, 2), dtype=complex),
        )
        for _ in range(5):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert evaluate_general(g, psi) == 5.0

    def test_anomalous_term_direct_substitution(self):
        # oracle: conj(1)^2 + 1^2 = 2
        g = GeneralQuadraticObservable(
            constant=0.0,
            linear=np.zeros(1, dtype=complex),
            hermitian=np.zeros((1, 1), dtype=complex),
            anomalous=np.array([[1.0]], dtype=complex),
        )
        assert evaluate_general(g, np.array([1.0 + 0j])) == pytest.approx(2.0)

    def test_linear_term(self):
        # A_1 = i, psi = 2: i* conj... value = conj(i)*2 + i*conj(2) = -2i + 2i = 0
        g = GeneralQuadraticObservable(
            constant=0.0,
            linear=np.array([1j]),
            hermitian=np.zeros((1, 1), dtype=complex),
            anomalous=np.zeros((1, 1), dtype=complex),
        )
        assert evaluate_general(g, np.array([2.0 + 0j])) == pytest.approx(0.0)


class TestPoissonBracket:
    def test_antisymmetry_self(self, rng):
        a = random_hermitian(3, rng)
        s = random_state(3, rng)
        assert poisson_bracket(a, a, s).value == 0.0

    def test_pauli_pair_at_basis_state(self):
        # oracle: [sx, sy] = 2i sz, so i<psi|2i sz|psi> = -2 <sz> = -2
        a = HermitianObservable(SIGMA_X)
        b = HermitianObservable(SIGMA_Y)
        s = make_state([1, 0], hbar=1.0)
        assert poisson_bracket(a, b, s).value == pytest.approx(-2.0)

    def test_overflowing_bracket_refused(self):
        # finite operands whose products overflow to inf, and inf - inf to NaN
        hbar = 1e300
        a = HermitianObservable(1e150 * np.eye(2))
        s = make_state(np.full(2, (1 + 1j) / 2 * np.sqrt(hbar)), hbar=hbar)
        with pytest.raises(NonRealValueError, match="not finite"):
            poisson_bracket(a, a, s)

    def test_identity_commutes(self, rng):
        a = random_hermitian(4, rng)
        eye = HermitianObservable(np.eye(4, dtype=complex))
        s = random_state(4, rng)
        assert poisson_bracket(a, eye, s).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_derivative_path(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 7))
            a, b = random_hermitian(d, rng), random_hermitian(d, rng)
            s = random_state(d, rng)
            got = poisson_bracket(a, b, s).value
            assert got == pytest.approx(bracket_from_gradients(a, b, s), abs=1e-10)

    def test_bilinearity_and_antisymmetry(self, rng):
        d = 4
        a, b, c = (random_hermitian(d, rng) for _ in range(3))
        s = random_state(d, rng)
        lam = 0.73
        combo = HermitianObservable(a.matrix + lam * b.matrix)
        lhs = poisson_bracket(combo, c, s).value
        rhs = poisson_bracket(a, c, s).value + lam * poisson_bracket(b, c, s).value
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert poisson_bracket(a, b, s).value == pytest.approx(
            -poisson_bracket(b, a, s).value, abs=1e-12
        )

    def test_jacobi_identity(self, rng):
        # inner brackets realized as the Hermitian matrix i[.,.]
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a, b, c = (random_hermitian(d, rng) for _ in range(3))
            s = random_state(d, rng)

            def inner(x, y):
                return HermitianObservable(1j * commutator(x, y))

            total = (
                poisson_bracket(a, inner(b, c), s).value
                + poisson_bracket(b, inner(c, a), s).value
                + poisson_bracket(c, inner(a, b), s).value
            )
            assert abs(total) <= 1e-8

    def test_analytic_gradient_matches_finite_differences(self, rng):
        # central differences of the raw form at step 1e-5 agree within 1e-6
        step = 1e-5
        for _ in range(20):
            d = int(rng.integers(1, 5))
            obs = random_hermitian(d, rng)
            s = random_state(d, rng)
            gen = quadratic_only(obs.matrix)
            psi = s.components
            analytic = grad_conj(obs, psi)
            for n in range(d):
                e = np.zeros(d, dtype=complex)
                e[n] = 1.0
                fx = (evaluate_general(gen, psi + step * e) - evaluate_general(gen, psi - step * e)) / (2 * step)
                fy = (evaluate_general(gen, psi + 1j * step * e) - evaluate_general(gen, psi - 1j * step * e)) / (2 * step)
                numeric = 0.5 * (fx + 1j * fy)
                assert abs(numeric - analytic[n]) <= 1e-6


class TestHermitianFromFunction:
    def test_recovers_configuration_kernel(self):
        q = config_observable(2)
        s_hbar = 1.0

        def f(psi):
            return float(np.real(np.vdot(psi, q.matrix @ psi)))

        got = hermitian_from_function(f, d=2, step=1e-3)
        assert np.max(np.abs(got.matrix - q.matrix)) <= 1e-6

    def test_zero_function(self):
        got = hermitian_from_function(lambda psi: 0.0, d=3)
        assert np.array_equal(got.matrix, np.zeros((3, 3)))

    def test_recovers_sigma_x(self):
        def f(psi):
            return float(np.real(np.vdot(psi, SIGMA_X @ psi)))

        got = hermitian_from_function(f, d=2, step=1e-3)
        assert np.max(np.abs(got.matrix - SIGMA_X)) <= 1e-6

    def test_recovers_complex_kernel(self, rng):
        obs = random_hermitian(3, rng)

        def f(psi):
            return float(np.real(np.vdot(psi, obs.matrix @ psi)))

        got = hermitian_from_function(f, d=3, step=1e-3)
        assert np.max(np.abs(got.matrix - obs.matrix)) <= 1e-6

    def test_exactly_hermitian_output(self, rng):
        obs = random_hermitian(2, rng)

        def f(psi):
            return float(np.real(np.vdot(psi, obs.matrix @ psi)))

        got = hermitian_from_function(f, d=2).matrix
        assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_general_observable_hermitian_part_in_8_d_squared_calls(self, rng, d):
        # the linear and anomalous terms cancel out of every form value
        hermitian = random_hermitian(d, rng).matrix
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        linear = rng.normal(size=d) + 1j * rng.normal(size=d)
        gen = GeneralQuadraticObservable(0.0, linear, hermitian, g + g.T)
        calls = []

        def f(psi):
            calls.append(psi)
            return evaluate_general(gen, psi)

        got = hermitian_from_function(f, d=d).matrix
        assert len(calls) <= 8 * d * d + 1
        assert np.max(np.abs(got - hermitian)) <= 1e-9 * np.max(np.abs(hermitian))

    def test_rejects_nonvanishing_at_rest(self):
        with pytest.raises(NotVanishingAtRestError):
            hermitian_from_function(lambda psi: 1.0, d=2)
