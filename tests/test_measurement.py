import numpy as np
import pytest

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
from shellqm.errors import DimensionMismatchError, InvalidArgumentError
from shellqm.measurement import outcome_index
from shellqm.rng import master_rng

from conftest import SIGMA_Z, random_hermitian, random_state


class TestSpectrum:
    def test_configuration_outcomes(self):
        es = eigh(config_observable(3))
        assert np.allclose(es.cluster_values(), [1, 2, 3])
        assert es.clusters == ((0,), (1,), (2,))

    def test_fully_degenerate(self):
        es = eigh(HermitianObservable(np.eye(3, dtype=complex)))
        assert es.clusters == ((0, 1, 2),)
        assert np.allclose(es.cluster_values(), [1.0])

    def test_sigma_z_outcomes(self):
        es = eigh(HermitianObservable(SIGMA_Z))
        assert np.allclose(es.cluster_values(), [-1.0, 1.0])


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

    @pytest.mark.parametrize("hbar", [np.inf, 0.0, -1.0])
    @pytest.mark.filterwarnings("error")
    def test_hbar_not_positive_and_finite_refused(self, hbar):
        obs = HermitianObservable(SIGMA_Z)
        with pytest.raises(InvalidArgumentError, match="hbar"):
            constrained_min(obs, AdmissibleSubspace.full_shell(2), seed=0, hbar=hbar)

    def test_near_degenerate_reports_no_convergence(self, monkeypatch):
        # a 1e-4 gap decays too slowly for the iteration budget; the error
        # still carries the best value found, which is near the true minimum
        import shellqm.measurement as measurement_mod
        from shellqm.errors import NoConvergenceError

        monkeypatch.setattr(measurement_mod, "PG_MAX_ITER", 2000)
        obs = HermitianObservable(np.diag([0.0, 1e-4, 1.0]).astype(complex))
        sub = AdmissibleSubspace.full_shell(3)
        with pytest.raises(NoConvergenceError) as err:
            constrained_min(obs, sub, seed=1)
        assert err.value.best_value == pytest.approx(0.0, abs=1e-4)


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


class TestSampling:
    def test_certain_outcome(self):
        u = master_rng(0).random(100)
        assert np.all(outcome_index(np.array([1.0, 0.0, 0.0]), u) == 0)

    def test_certain_second_outcome(self):
        u = master_rng(0).random(100)
        assert np.all(outcome_index(np.array([0.0, 1.0]), u) == 1)

    def test_fair_coin_frequency(self):
        n = 10**5
        freq = np.mean(outcome_index(np.array([0.5, 0.5]), master_rng(2026).random(n)))
        assert 0.49 <= freq <= 0.51
        assert 0.49 <= 1 - freq <= 0.51

    def test_scalar_draw_matches_array_draw(self):
        probs = np.array([0.2, 0.0, 0.5, 0.3])
        u = master_rng(3).random(64)
        assert [int(outcome_index(probs, x)) for x in u] == outcome_index(probs, u).tolist()

    def test_top_draw_skips_zero_probability_tail(self):
        # probabilities of an on-shell state may sum to just below 1; a draw
        # above that total must still land on an outcome that can occur
        probs = np.array([0.99999999995, 0.0])
        assert outcome_index(probs, 1.0 - 2.0**-53) == 0
        assert outcome_index(probs, np.full(3, 1.0 - 2.0**-53)).tolist() == [0, 0, 0]


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

    def test_degenerate_outcome_collapses_within_eigenspace(self, rng):
        # two-fold degenerate block keeps the in-plane direction
        m = np.diag([1.0, 1.0, 5.0]).astype(complex)
        obs = HermitianObservable(m)
        s = make_state([0.6, 0.8, 0.0], hbar=1.0)
        rec = measure(obs, s, master_rng(4))
        assert rec.value == pytest.approx(1.0)
        assert states_equal(rec.post_state, s, tol=1e-10)
