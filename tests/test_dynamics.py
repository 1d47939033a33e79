import tracemalloc

import numpy as np
import pytest

from shellqm import (
    GeneralQuadraticObservable,
    HermitianObservable,
    commutator,
    config_observable,
    evaluate_observable,
    flow,
    flow_numeric,
    make_state,
    shell_defect,
    states_equal,
)
from shellqm import dynamics, linalg
from shellqm.core import RK4_SHELL_TOL
from shellqm.dynamics import Trajectory
from shellqm.errors import DimensionMismatchError, InvalidArgumentError, OffShellError

from conftest import SIGMA_X, random_hermitian, random_state


def general_velocity(gen: GeneralQuadraticObservable, psi: np.ndarray) -> np.ndarray:
    """Velocity field of the generalized motion for arbitrary quadratic
    generators (the production code only integrates the Hermitian case)."""
    return -1j * (gen.linear + gen.hermitian @ psi + 2.0 * (gen.anomalous @ np.conj(psi)))


def rk4_step(gen, psi, h):
    k1 = general_velocity(gen, psi)
    k2 = general_velocity(gen, psi + 0.5 * h * k1)
    k3 = general_velocity(gen, psi + 0.5 * h * k2)
    k4 = general_velocity(gen, psi + h * k3)
    return psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def staged_rk4(matrix: np.ndarray, psi: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Classical four-stage RK4 for psi-dot = -i A psi, with no shell check:
    the oracle for `flow_numeric`'s step matrix."""
    d = matrix.shape[0]
    gen = GeneralQuadraticObservable(0.0, np.zeros(d), matrix, np.zeros((d, d)))
    for _ in range(steps):
        psi = rk4_step(gen, psi, t / steps)
    return psi


def rk4_norm_factor(y: float) -> float:
    """|R(-iy)|^2 = 1 - y^6/72 + y^8/576: the factor one RK4 step of size h
    applies to |c|^2 along an eigenvector of A with eigenvalue y/h."""
    return 1.0 - y**6 / 72.0 + y**8 / 576.0


class TestFlow:
    def test_zero_time_is_identity(self, rng):
        s = random_state(4, rng)
        out = flow(random_hermitian(4, rng), s, 0.0)
        assert np.allclose(out.components, s.components, atol=1e-14)

    def test_sigma_x_quarter_turn(self):
        # oracle: apply -i sigma_x to the state
        hbar = 1.0
        s = make_state([np.sqrt(hbar), 0], hbar=hbar)
        out = flow(HermitianObservable(SIGMA_X), s, np.pi / 2)
        assert np.allclose(out.components, [0, -1j * np.sqrt(hbar)], atol=1e-14)
        assert states_equal(out, make_state([0, np.sqrt(hbar)], hbar=hbar))

    @pytest.mark.parametrize("t", [1e308, -1e308, np.inf, np.nan])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_phase_refused(self, t):
        # a_n * t overflows for a_n = 2; inf and NaN are never a phase
        s = make_state([1.0, 0.0], hbar=1.0)
        with pytest.raises(InvalidArgumentError, match="not finite"):
            flow(config_observable(2), s, t)

    def test_integer_spectrum_periodicity(self):
        # oracle: diagonal phases exp(-2 pi i) and exp(-4 pi i)
        hbar = 1.0
        s = make_state([np.sqrt(hbar / 2), np.sqrt(hbar / 2)], hbar=hbar)
        out = flow(config_observable(2), s, 2 * np.pi)
        assert states_equal(out, s)

    def test_norm_and_generator_conserved(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            a = random_hermitian(d, rng)
            s = random_state(d, rng)
            t = float(rng.uniform(-10, 10))
            out = flow(a, s, t)
            assert abs(out.norm_squared() - s.hbar) <= 1e-9
            assert abs(evaluate_observable(a, out) - evaluate_observable(a, s)) <= 1e-9

    def test_commuting_observable_conserved(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a = random_hermitian(d, rng)
            b = HermitianObservable(a.matrix @ a.matrix)  # commutes with a
            assert np.max(np.abs(commutator(a, b))) <= 1e-12
            s = random_state(d, rng)
            out = flow(a, s, float(rng.uniform(-5, 5)))
            assert abs(evaluate_observable(b, out) - evaluate_observable(b, s)) <= 1e-9


class TestFlowNumeric:
    def test_matches_exact_flow(self):
        hbar = 1.0
        s = make_state([np.sqrt(hbar), 0], hbar=hbar)
        a = HermitianObservable(SIGMA_X)
        traj = flow_numeric(a, s, np.pi / 2, steps=10**4)
        exact = flow(a, s, np.pi / 2)
        assert np.max(np.abs(traj.final.components - exact.components)) <= 1e-10

    def test_zero_generator_is_constant(self, rng):
        s = random_state(3, rng)
        a = HermitianObservable(np.zeros((3, 3), dtype=complex))
        traj = flow_numeric(a, s, 2.0, steps=50)
        for state in traj.states:
            assert np.array_equal(state.components, s.components)

    def test_fourth_order_convergence(self, rng):
        # error ratio approaches 2^4 = 16 per step doubling
        for _ in range(5):
            d = int(rng.integers(2, 5))
            a = random_hermitian(d, rng)
            a = HermitianObservable(a.matrix / np.linalg.norm(a.matrix))
            s = random_state(d, rng)
            exact = flow(a, s, 2.0)
            errs = []
            for steps in (40, 80, 160):
                traj = flow_numeric(a, s, 2.0, steps=steps)
                errs.append(np.max(np.abs(traj.final.components - exact.components)))
            for e1, e2 in zip(errs, errs[1:]):
                assert 13.0 <= e1 / e2 <= 19.0

    def test_reports_truncation_constant(self, rng):
        # C = err * (steps/t)^4 is stable across resolutions for a 4th-order scheme
        a = random_hermitian(3, rng)
        a = HermitianObservable(a.matrix / np.linalg.norm(a.matrix))
        s = random_state(3, rng)
        exact = flow(a, s, 2.0)
        constants = []
        for steps in (50, 100, 200):
            err = np.max(np.abs(flow_numeric(a, s, 2.0, steps=steps).final.components
                                - exact.components))
            constants.append(err * (steps / 2.0) ** 4)
        assert max(constants) <= 2.0 * min(constants)

    def test_times_and_states_aligned(self, rng):
        s = random_state(2, rng)
        traj = flow_numeric(random_hermitian(2, rng), s, 1.0, steps=10)
        assert traj.times.tolist() == [0.0, 1.0]
        assert len(traj.states) == 2
        assert traj.states[0] is s

    def test_trajectory_refuses_misaligned_times(self, rng):
        with pytest.raises(DimensionMismatchError, match="different lengths"):
            Trajectory(np.array([0.0, 1.0]), (random_state(2, rng),))

    def test_memory_does_not_grow_with_steps(self, rng):
        # the RK4_BLOCK powers of the step matrix are formed whatever the steps
        def peak(a, s, steps):
            tracemalloc.start()
            try:
                flow_numeric(a, s, 1.0, steps=steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for d in (2, 8):
            a, s = random_hermitian(d, rng), random_state(d, rng)
            a = HermitianObservable(a.matrix / np.linalg.norm(a.matrix))
            peak(a, s, 20)  # warm up lazily allocated interpreter state
            assert peak(a, s, 2000) <= peak(a, s, 20) + 4096

    def test_matches_staged_rk4(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 9))
            hbar = (1e-30, 1.0, 1e30)[int(rng.integers(3))]
            a = random_hermitian(d, rng)
            a = HermitianObservable(a.matrix / np.linalg.norm(a.matrix))
            s = random_state(d, rng, hbar)
            # |h a_n| <= 0.1 keeps the drift of every step far inside RK4_SHELL_TOL
            t, steps = float(rng.uniform(-3, 3)), int(rng.integers(30, 400))
            want = staged_rk4(a.matrix, s.components, t, steps)
            got = flow_numeric(a, s, t, steps).final.components
            assert np.max(np.abs(got - want)) <= 1e-13 * np.sqrt(hbar)

    @pytest.mark.parametrize("steps", [1, 31, 32, 33, 64, 65])
    def test_block_edges_match_staged_rk4(self, steps, rng):
        assert dynamics.RK4_BLOCK == 32
        for hbar in (1e-30, 1.0, 1e30):
            a = random_hermitian(5, rng)
            a = HermitianObservable(a.matrix / np.linalg.norm(a.matrix))
            s = random_state(5, rng, hbar)
            want = staged_rk4(a.matrix, s.components, 0.1 * steps, steps)
            got = flow_numeric(a, s, 0.1 * steps, steps).final.components
            assert np.max(np.abs(got - want)) <= 1e-13 * np.sqrt(hbar)

    def test_unoccupied_mode_past_the_float_range(self):
        # one step scales the unoccupied mode by |R(-600i)| = 5.4e9, so P^32
        # overflows, while the state's own mode stays on the shell
        a = HermitianObservable(np.diag([0.05, 600.0]).astype(complex))
        s = make_state([1.0, 0.0], hbar=1.0)
        got = flow_numeric(a, s, 64.0, 64).final.components
        want = staged_rk4(a.matrix, s.components, 64.0, 64)
        assert got[1] == 0.0 and np.max(np.abs(got - want)) <= 1e-13

    def test_every_state_of_a_block_is_checked(self):
        # weights chosen so that 128 unit steps return the norm to the shell;
        # steps 21 to 41 drift between half the tolerance and the tolerance,
        # so the screen flags them and StateVector admits them, step 33 among
        # them, the first of the second block; step 42, later in that block,
        # is the first beyond the tolerance
        tol, steps = RK4_SHELL_TOL, 128
        r1, r2 = rk4_norm_factor(0.11), rk4_norm_factor(2.84)
        w2 = (1 - r1**steps) / (r2**steps - r1**steps)
        drift = [(1 - w2) * r1**k + w2 * r2**k - 1.0 for k in range(steps + 1)]
        assert all(-0.5 * tol <= x <= 0.0 for x in drift[:21])
        assert all(-tol <= x < -0.5 * tol for x in drift[21:42])
        assert drift[42] < -tol
        a = HermitianObservable(np.diag([0.11, 2.84]).astype(complex))
        s = make_state([np.sqrt(1 - w2), np.sqrt(w2)], hbar=1.0)
        end = staged_rk4(a.matrix, s.components, float(steps), steps)
        assert abs(np.vdot(end, end).real - 1.0) <= 1e-13
        with pytest.raises(OffShellError) as err:
            flow_numeric(a, s, float(steps), steps)
        assert err.value.residual == pytest.approx(drift[42], rel=1e-4)

    def test_every_step_is_checked(self):
        # weights chosen so that 40 unit steps return the norm to the shell
        # exactly, after the first step has already left it by 2.1e-4
        r1, r2 = rk4_norm_factor(0.5), rk4_norm_factor(2.9)
        w2 = (1 - r1**40) / (r2**40 - r1**40)
        a = HermitianObservable(np.diag([0.5, 2.9]).astype(complex))
        s = make_state([np.sqrt(1 - w2), np.sqrt(w2)], hbar=1.0)
        end = staged_rk4(a.matrix, s.components, 40.0, 40)
        assert abs(np.vdot(end, end).real - 1.0) <= 1e-13
        with pytest.raises(OffShellError) as err:
            flow_numeric(a, s, 40.0, 40)
        assert err.value.residual == pytest.approx(-2.102e-4, rel=1e-3)

    @pytest.mark.parametrize("y, passes", [(0.2, True), (0.21, False)])
    def test_step_drift_is_judged_at_the_shell_tolerance(self, y, passes):
        # one step loses 1 - r(y): 8.8e-7 at y = 0.2, between the screen's
        # half bound and RK4_SHELL_TOL, so StateVector must admit it; 1.2e-6
        # at y = 0.21, beyond the bound
        drift = 1.0 - rk4_norm_factor(y)
        assert (drift <= RK4_SHELL_TOL) == passes and drift > 0.5 * RK4_SHELL_TOL
        a, s = HermitianObservable(np.array([[1.0 + 0j]])), make_state([1.0], hbar=1.0)
        if passes:
            final = flow_numeric(a, s, y, steps=1).final
            assert final.norm_squared() - 1.0 == pytest.approx(-drift, rel=1e-6)
        else:
            with pytest.raises(OffShellError):
                flow_numeric(a, s, y, steps=1)

    def test_independent_of_the_eigensolver(self, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("flow_numeric must not decompose its generator")

        monkeypatch.setattr(linalg, "_jacobi_eigh", refuse)
        monkeypatch.setattr(linalg, "unitary_propagator", refuse)
        monkeypatch.setattr(dynamics, "unitary_propagator", refuse)
        s = random_state(4, rng)
        traj = flow_numeric(random_hermitian(4, rng), s, 1.0, steps=100)
        assert abs(traj.final.norm_squared() - s.hbar) <= RK4_SHELL_TOL * s.hbar

    @pytest.mark.parametrize("hbar, t, match", [
        (1.0, 1e80, "step matrix is not finite"),  # (hM)^4 overflows while P is built
        (1e300, 1e40, "non-finite component"),    # P is finite, P @ psi overflows
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflow_refused_without_a_warning(self, hbar, t, match):
        s = make_state([np.sqrt(hbar), 0.0], hbar=hbar)
        with pytest.raises(InvalidArgumentError, match=match):
            flow_numeric(HermitianObservable(SIGMA_X), s, t, steps=1)

    def test_step_cap(self, rng):
        s = random_state(2, rng)
        with pytest.raises(InvalidArgumentError, match="exceeds the cap"):
            flow_numeric(random_hermitian(2, rng), s, 1.0, steps=10**8 + 1)


class TestShellDefect:
    def hermitian_only(self, matrix):
        d = matrix.shape[0]
        return GeneralQuadraticObservable(
            constant=0.0,
            linear=np.zeros(d, dtype=complex),
            hermitian=matrix,
            anomalous=np.zeros((d, d), dtype=complex),
        )

    def test_hermitian_generator_preserves_shell(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 6))
            gen = self.hermitian_only(random_hermitian(d, rng).matrix)
            for _ in range(100):
                psi = rng.normal(size=d) + 1j * rng.normal(size=d)
                assert abs(shell_defect(gen, psi)) <= 1e-10

    def test_anomalous_hand_case(self):
        # oracle: 2 Im(conj(i) * 2 * conj(i)) = 2 Im(-2) = 0
        gen = GeneralQuadraticObservable(
            constant=0.0,
            linear=np.zeros(1, dtype=complex),
            hermitian=np.zeros((1, 1), dtype=complex),
            anomalous=np.array([[1.0]], dtype=complex),
        )
        assert shell_defect(gen, np.array([1j])) == pytest.approx(0.0, abs=1e-14)

    def test_linear_hand_case(self):
        # oracle: 2 Im(conj(i sqrt(hbar))) = -2 sqrt(hbar)
        hbar = 2.0
        gen = GeneralQuadraticObservable(
            constant=0.0,
            linear=np.array([1.0 + 0j]),
            hermitian=np.zeros((1, 1), dtype=complex),
            anomalous=np.zeros((1, 1), dtype=complex),
        )
        got = shell_defect(gen, np.array([1j * np.sqrt(hbar)]))
        assert got == pytest.approx(-2.0 * np.sqrt(hbar))

    def test_matches_finite_difference_oracle(self, rng):
        # central difference of |psi(t)|^2 through one tiny integrator step
        h = 1e-6
        for _ in range(50):
            d = int(rng.integers(1, 5))
            lin = rng.normal(size=d) + 1j * rng.normal(size=d)
            sym = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gen = GeneralQuadraticObservable(
                constant=0.0,
                linear=lin,
                hermitian=random_hermitian(d, rng).matrix,
                anomalous=0.5 * (sym + sym.T),
            )
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            fwd = rk4_step(gen, psi, h)
            bwd = rk4_step(gen, psi, -h)
            numeric = (np.sum(np.abs(fwd) ** 2) - np.sum(np.abs(bwd) ** 2)) / (2 * h)
            assert shell_defect(gen, psi) == pytest.approx(float(numeric), abs=1e-6)

    def test_generic_generators_violate_shell(self, rng):
        violations = 0
        trials = 100
        for _ in range(trials):
            d = int(rng.integers(1, 5))
            lin = rng.normal(size=d) + 1j * rng.normal(size=d)
            sym = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gen = GeneralQuadraticObservable(
                constant=0.0,
                linear=lin,
                hermitian=random_hermitian(d, rng).matrix,
                anomalous=0.5 * (sym + sym.T),
            )
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            if abs(shell_defect(gen, psi)) > 1e-8:
                violations += 1
        assert violations >= 95
