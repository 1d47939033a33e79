import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import shellqm.experiments
import shellqm.measurement
from shellqm import (
    AdmissibleSubspace,
    HermitianObservable,
    chi_square,
    config_observable,
    constrained_min,
    courant_fischer_suite,
    eigh,
    make_state,
    measure,
    run_trials,
    verification_suite,
)
from shellqm.core import TOL_CF, TOL_NORM_DRIFT
from shellqm.errors import InsufficientTrialsError, InvalidArgumentError, NoConvergenceError
from shellqm.experiments import (
    CHI2_999,
    MAX_TRIALS,
    FrequencyTable,
    _mean_report,
    chi2_threshold_999,
    courant_fischer_report,
)
from shellqm.measurement import _normalized_cdf, outcome_index
from shellqm.rng import TRIAL_CHUNK, master_rng, trial_chunks

from conftest import SIGMA_Z, random_hermitian, random_state


def equal_weight_scenario(hbar=1.0):
    obs = config_observable(2)
    state = make_state([np.sqrt(hbar / 2), np.sqrt(hbar / 2)], hbar=hbar)
    return obs, state


class TestRngStreams:
    def test_vectorized_equals_sequential(self):
        for n, sizes in ((64, [64]), (2 * TRIAL_CHUNK + 3, [TRIAL_CHUNK, TRIAL_CHUNK, 3])):
            chunks = list(trial_chunks(99, n))
            assert [len(c) for c in chunks] == sizes
            seq = master_rng(99)
            drawn = np.array([seq.random() for _ in range(n)])
            assert np.array_equal(np.concatenate(chunks), drawn)

    def test_prefix_stability(self):
        longest = np.concatenate(list(trial_chunks(5, 2 * TRIAL_CHUNK + 3)))
        for n in (10, TRIAL_CHUNK + 1):
            assert np.array_equal(np.concatenate(list(trial_chunks(5, n))), longest[:n])

    @staticmethod
    def draws(g: np.random.Generator) -> list[bytes]:
        """The bits of a run of mixed draws from one generator, small integer
        ranges included (those consume half words)."""
        return [np.asarray(x).tobytes() for x in (
            g.random(1000), g.normal(size=1000), g.integers(0, 10, size=7),
            g.integers(-2**62, 2**62, size=1000), g.random(), g.normal(), g.integers(3))]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 2**64 + 3, 2**127 - 1, 2**128 + 5,
                                      -5, 10**30, np.int64(-9)])
    def test_streams_are_philox_keyed_by_the_seed(self, seed):
        def keyed():
            return np.random.Generator(np.random.Philox(key=int(seed) & (2**128 - 1)))

        assert self.draws(master_rng(seed)) == self.draws(keyed())
        n = TRIAL_CHUNK + 5
        chunks = np.concatenate(list(trial_chunks(seed, n)))
        assert chunks.tobytes() == keyed().random(n).tobytes()

    def test_seeding_reads_no_entropy(self):
        first, second = (master_rng(12345).bit_generator for _ in range(2))
        assert repr(first.state) == repr(second.state)
        # Philox(key=...) seeds itself from a fresh SeedSequence() of OS
        # entropy before the key replaces its state
        for bit_generator in (first, second):
            assert isinstance(bit_generator.seed_seq, np.random.bit_generator.ISeedSequence)
            assert not isinstance(bit_generator.seed_seq, np.random.SeedSequence)
        with pytest.raises(ValueError):
            first.seed_seq.generate_state(4)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None, np.float64(1.0)],
                             ids=["1.5", "1.0", "True", "str", "None", "float64"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
            master_rng(seed)

    def test_import_does_not_load_numpy_random(self):
        # most CLI commands draw nothing, and numpy.random takes about 13 ms
        # of a fresh process to import
        src = str(Path(shellqm.experiments.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = "import sys, shellqm.cli; print('numpy.random' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


class TestRunTrials:
    def test_eigenstate_single_outcome(self, rng):
        obs = random_hermitian(3, rng)
        es = eigh(obs)
        s = make_state(es.eigenvectors[:, 0], hbar=1.0)
        table = run_trials(obs, s, 1000, seed=1)
        assert table.counts[0] == 1000
        assert np.sum(table.counts) == 1000

    def test_single_trial(self):
        obs, state = equal_weight_scenario()
        table = run_trials(obs, state, 1, seed=9)
        assert np.sum(table.counts) == 1
        assert np.count_nonzero(table.counts) == 1

    def test_equal_weight_within_three_sigma(self):
        obs, state = equal_weight_scenario()
        n = 10**5
        table = run_trials(obs, state, n, seed=42)
        band = 3 * np.sqrt(0.25 / n)
        assert np.max(np.abs(table.frequencies - 0.5)) <= band

    def test_frequencies_are_exact_ratios(self):
        obs, state = equal_weight_scenario()
        table = run_trials(obs, state, 777, seed=3)
        assert np.array_equal(table.frequencies, table.counts / 777)

    def test_deterministic_per_seed(self):
        obs, state = equal_weight_scenario()
        a = run_trials(obs, state, 5000, seed=11)
        b = run_trials(obs, state, 5000, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert a.seed == b.seed

    def test_matches_explicit_measure_loop(self, rng):
        # trial i consumes draw i of the seed-keyed stream, so a sequential
        # loop of measure() calls tallies identically
        d = 3
        obs = random_hermitian(d, rng)
        s = random_state(d, rng)
        n, seed = 500, 17
        table = run_trials(obs, s, n, seed=seed)
        stream = master_rng(seed)
        counts = np.zeros(len(table.counts), dtype=np.int64)
        for _ in range(n):
            counts[measure(obs, s, stream).cluster] += 1
        assert np.array_equal(table.counts, counts)

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**400], ids=["cap+1", "1e400"])
    def test_trials_above_cap_refused_before_drawing(self, monkeypatch, trials):
        def refuse(seed, n):
            raise AssertionError("no trial may be drawn")

        monkeypatch.setattr(shellqm.experiments, "trial_chunks", refuse)
        obs, state = equal_weight_scenario()
        with pytest.raises(InvalidArgumentError, match="trials"):
            run_trials(obs, state, trials, seed=0)

    @pytest.mark.parametrize("trials", [100.5, 100.0, True], ids=["100.5", "100.0", "True"])
    def test_trials_must_be_an_integer(self, monkeypatch, trials):
        def refuse(seed, n):
            raise AssertionError("no trial may be drawn")

        monkeypatch.setattr(shellqm.experiments, "trial_chunks", refuse)
        obs, state = equal_weight_scenario()
        with pytest.raises(InvalidArgumentError, match="trials must be a positive integer"):
            run_trials(obs, state, trials, seed=0)

    def test_numpy_integer_trials_accepted(self):
        obs, state = equal_weight_scenario()
        table = run_trials(obs, state, np.int64(1000), seed=0)
        assert table.trials == 1000
        assert np.array_equal(table.counts, run_trials(obs, state, 1000, seed=0).counts)

    def test_top_draws_skip_zero_probability_outcome(self, monkeypatch):
        # probabilities [1 - 5e-11, 0]: draws above their total still tally
        # on the only possible outcome
        def top_draws(seed, n):
            yield np.full(n, 1.0 - 2.0**-53)

        monkeypatch.setattr(shellqm.experiments, "trial_chunks", top_draws)
        s = make_state([np.sqrt(1 - 5e-11), 0], hbar=1.0)
        table = run_trials(config_observable(2), s, 3, seed=0)
        assert table.counts.tolist() == [3, 0]

    @pytest.mark.parametrize("trials", [TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1,
                                        2 * TRIAL_CHUNK + 3],
                             ids=["chunk-1", "chunk", "chunk+1", "2chunk+3"])
    def test_equals_bincount_of_outcome_index(self, rng, trials):
        obs = random_hermitian(5, rng)
        s = random_state(5, rng)
        table = run_trials(obs, s, trials, seed=23)
        draws = master_rng(23).random(trials)
        ref = np.bincount(outcome_index(_normalized_cdf(table.reference), draws),
                          minlength=len(table.reference))
        assert table.counts.dtype == np.int64
        assert np.array_equal(table.counts, ref)

    def test_memory_is_one_chunk_whatever_the_trials(self, rng):
        # the caller asks only for counts, so no array grows with `trials`
        # (2e6 draws and their indices would be 32 MB); the bound is one
        # 512 KiB chunk and a little, which two chunks alive at once, or a
        # sorted copy of one, would reach
        obs = random_hermitian(16, rng)
        s = random_state(16, rng)
        eigh(obs)  # the memoized solve is not part of the tally
        tracemalloc.start()
        try:
            table = run_trials(obs, s, 2 * 10**6, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(table.counts.sum()) == 2 * 10**6
        assert peak < 2**20


class TestChiSquare:
    def test_exact_match_scores_zero(self):
        table = FrequencyTable(
            trials=1000,
            values=np.array([1.0, 2.0]),
            counts=np.array([500, 500]),
            frequencies=np.array([0.5, 0.5]),
            reference=np.array([0.5, 0.5]),
            seed=0,
        )
        report = chi_square(table)
        assert report.statistic == 0.0
        assert report.passed

    def test_dof_one_boundary(self):
        # oracle: 99.9th chi-square percentile for dof 1
        threshold = chi2_threshold_999(1)
        assert threshold == pytest.approx(10.827566170662733)
        at = FrequencyTable(
            trials=1000,
            values=np.array([1.0, 2.0]),
            counts=np.array([552, 448]),  # statistic 4*52^2/1000 = 10.816
            frequencies=np.array([0.552, 0.448]),
            reference=np.array([0.5, 0.5]),
            seed=0,
        )
        report = chi_square(at)
        assert report.statistic == pytest.approx(10.816)
        assert report.passed
        over = FrequencyTable(
            trials=1000,
            values=np.array([1.0, 2.0]),
            counts=np.array([553, 447]),  # statistic 11.236 > threshold
            frequencies=np.array([0.553, 0.447]),
            reference=np.array([0.5, 0.5]),
            seed=0,
        )
        assert not chi_square(over).passed

    def test_all_mass_on_one_of_four(self):
        # oracle: hand evaluation of sum (o-e)^2/e with uniform reference
        table = FrequencyTable(
            trials=1000,
            values=np.arange(1.0, 5.0),
            counts=np.array([1000, 0, 0, 0]),
            frequencies=np.array([1.0, 0, 0, 0]),
            reference=np.full(4, 0.25),
            seed=0,
        )
        report = chi_square(table)
        assert report.statistic == pytest.approx(3000.0)
        assert not report.passed

    def test_pooling_insufficient(self):
        table = FrequencyTable(
            trials=8,
            values=np.array([1.0, 2.0]),
            counts=np.array([4, 4]),
            frequencies=np.array([0.5, 0.5]),
            reference=np.array([0.5, 0.5]),
            seed=0,
        )
        with pytest.raises(InsufficientTrialsError):
            chi_square(table)

    def test_certain_outcome_has_zero_dof(self):
        # even MAX_TRIALS would pool everything into one category
        table = FrequencyTable(
            trials=MAX_TRIALS,
            values=np.array([1.0, 2.0]),
            counts=np.array([MAX_TRIALS, 0]),
            frequencies=np.array([1.0, 0.0]),
            reference=np.array([1.0 - 1e-9, 1e-9]),
            seed=3,
        )
        report = chi_square(table)
        assert (report.statistic, report.threshold, report.passed) == (0.0, 0.0, True)
        assert report.digest == {"dimension": 2, "seed": 3, "trials": MAX_TRIALS}

    def test_thin_outcome_more_trials_would_test_raises(self):
        # expected count 1e-4 now, 100 at MAX_TRIALS
        table = FrequencyTable(
            trials=100,
            values=np.array([1.0, 2.0]),
            counts=np.array([100, 0]),
            frequencies=np.array([1.0, 0.0]),
            reference=np.array([1.0 - 1e-6, 1e-6]),
            seed=0,
        )
        with pytest.raises(InsufficientTrialsError, match="increase trials"):
            chi_square(table)

    def test_pooling_merges_thin_tail(self):
        # expected counts (90, 6, 2, 2): the two thin cells pool with the
        # next smallest to clear the threshold
        table = FrequencyTable(
            trials=100,
            values=np.arange(1.0, 5.0),
            counts=np.array([90, 6, 2, 2]),
            frequencies=np.array([0.9, 0.06, 0.02, 0.02]),
            reference=np.array([0.9, 0.06, 0.02, 0.02]),
            seed=0,
        )
        report = chi_square(table)
        assert report.statistic == 0.0
        assert report.passed

    def test_embedded_table_matches_scipy(self):
        for dof, value in CHI2_999.items():
            assert value == pytest.approx(scipy.stats.chi2.ppf(0.999, dof), rel=1e-12)

    def test_wilson_hilferty_above_table(self):
        for dof in (33, 40, 64, 100):
            approx = chi2_threshold_999(dof)
            exact = scipy.stats.chi2.ppf(0.999, dof)
            assert approx == pytest.approx(exact, rel=5e-3)


class TestMeanReport:
    def test_eigenstate_exact(self, rng):
        obs = random_hermitian(3, rng)
        es = eigh(obs)
        s = make_state(es.eigenvectors[:, 2], hbar=1.0)
        report = _mean_report(obs, s, run_trials(obs, s, 100, 0))
        assert report.passed
        assert report.statistic <= 1e-10

    def test_equal_weight_within_four_sigma(self):
        obs, state = equal_weight_scenario()
        report = _mean_report(obs, state, run_trials(obs, state, 10**5, 42))
        assert report.passed
        # outcome sd is 0.5 for values (1,2) at p=(1/2,1/2)
        assert report.threshold == pytest.approx(4 * 0.5 / np.sqrt(10**5), rel=0.05)

    def test_single_outcome_distribution(self):
        obs = HermitianObservable(np.eye(2, dtype=complex))
        s = make_state([1, 0], hbar=1.0)
        report = _mean_report(obs, s, run_trials(obs, s, 100, 5))
        assert report.passed

    def test_requires_hundred_trials(self):
        obs, state = equal_weight_scenario()
        with pytest.raises(ValueError):
            _mean_report(obs, state, run_trials(obs, state, 99, 0))


class TestVerificationSuite:
    def test_one_table_shared_by_both_statistical_checks(self, rng, monkeypatch):
        obs = random_hermitian(3, rng)
        state = random_state(3, rng, hbar=2.5)
        tables = []

        def counting(*args):
            tables.append(run_trials(*args))
            return tables[-1]

        monkeypatch.setattr(shellqm.experiments, "run_trials", counting)
        reports = verification_suite(obs, state, trials=5000, seed=11)
        assert len(tables) == 1
        assert reports[0] == _mean_report(obs, state, run_trials(obs, state, 5000, 11))
        assert reports[1] == chi_square(tables[0])
        # each report prints the threshold it tested (Courant-Fischer also fails on
        # NoConvergenceError: test_exhausted_budget_fails_with_the_best_value)
        assert [r.passed for r in reports] == [r.statistic <= r.threshold for r in reports]
        assert [r.name for r in reports[2:]] == ["courant-fischer", "norm-conservation"]
        assert reports[2].threshold == TOL_CF
        assert reports[3].threshold == TOL_NORM_DRIFT * state.hbar

    def test_reports_hold_python_scalars_above_the_embedded_table(self):
        # 40 outcomes pool to more than 32 degrees of freedom, where the
        # threshold comes from the Wilson-Hilferty formula
        rng = master_rng(40)
        obs, state = random_hermitian(40, rng), random_state(40, rng)
        reports = verification_suite(obs, state, 100000, 7)
        assert reports[1].name == "chi-square" and reports[1].threshold > CHI2_999[32]
        for r in reports:
            assert (type(r.statistic), type(r.threshold), type(r.passed)) == (float, float, bool)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5 must scale the mean guard and the "
                       "Courant-Fischer deviation by TOL_RESOLUTION")
    def test_eigenstate_of_a_wide_spectrum_passes(self):
        # the eigenvalue-0 eigenstate of a +-1e11 spectrum: the mean check reads
        # 6.2e-7 against its 1e-12 guard, Courant-Fischer 2.7e-6 against TOL_CF
        rng = np.random.default_rng(1)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        m = u @ np.diag([-1e11, 0.0, 1e11]) @ u.conj().T
        obs = HermitianObservable(0.5 * (m + m.conj().T))
        reports = verification_suite(obs, make_state(u[:, 1], 1.0), trials=10**4, seed=7)
        assert all(r.passed for r in reports)

    def test_too_few_trials_is_an_argument_error(self):
        obs, state = equal_weight_scenario()
        with pytest.raises(InvalidArgumentError):
            verification_suite(obs, state, trials=50, seed=0)


class TestCourantFischer:
    def test_single_dimension(self):
        reports = courant_fischer_suite([1], per_dim=3, seed=0)
        assert all(r.passed for r in reports)

    def test_sigma_z_levels(self):
        report = courant_fischer_report(HermitianObservable(SIGMA_Z), seed=2)
        assert report.passed
        assert report.statistic <= 1e-6

    def test_small_random_suite(self):
        reports = courant_fischer_suite([2, 3], per_dim=3, seed=8)
        assert len(reports) == 6
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("dims, per_dim, name", [
        ([2], 1.5, "per_dim"), ([2], 0, "per_dim"), ([2], -1, "per_dim"), ([2], True, "per_dim"),
        ([], 1, "dims"), (iter([]), 1, "dims"),
    ])
    def test_refuses_what_is_not_a_positive_integer(self, dims, per_dim, name):
        with pytest.raises(InvalidArgumentError, match=name):
            courant_fischer_suite(dims, per_dim=per_dim, seed=0)

    def test_dims_may_be_an_iterator(self):
        reports = courant_fischer_suite(iter([2, 3]), per_dim=1, seed=8)
        assert reports == courant_fischer_suite([2, 3], per_dim=1, seed=8)
        assert [r.digest["dimension"] for r in reports] == [2, 3]

    @pytest.mark.parametrize("levels", [(0.0, 1.0, 1e9), (0.0, 1.0, 1e9, 2e9)])
    @pytest.mark.parametrize("rotation_seed", [1, 2, 3])
    def test_wide_spectrum_resolves_its_low_levels(self, levels, rotation_seed):
        # levels 0 and 1 lie 1e-9 of the spectral radius apart, so a stop
        # rule scaled by the spectrum ends the descent on a mix of the two
        d = len(levels)
        rng = np.random.default_rng(rotation_seed)
        u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        m = u @ np.diag(levels) @ u.conj().T
        report = courant_fischer_report(HermitianObservable(0.5 * (m + m.conj().T)), seed=0)
        assert report.passed
        assert report.statistic <= 1e-6

    def test_exhausted_budget_fails_with_the_best_value(self, monkeypatch):
        # one step per start cannot show that the value stopped falling, so
        # every level with room to descend raises NoConvergenceError
        monkeypatch.setattr(shellqm.measurement, "PG_MAX_ITER", 1)
        obs = random_hermitian(4, master_rng(5))
        es = eigh(obs)
        deviations = []
        for n in range(1, 5):
            sub = AdmissibleSubspace.for_level(es, n)
            try:
                value = constrained_min(obs, sub, seed=9 + n).eigenvalue
            except NoConvergenceError as err:
                value = err.best_value
            target = float(es.eigenvalues[n - 1])
            deviations.append(abs(value - target) / max(1.0, abs(target)))
        report = courant_fischer_report(obs, seed=9)
        assert not report.passed
        assert report.statistic == max(deviations) > 0.0


class TestStatisticalSoundness:
    def test_pass_rate_budget(self):
        # fair scenario over 200 independent seeds: >= 99% pass at 99.9%
        obs, state = equal_weight_scenario()
        passed = 0
        for seed in range(200):
            table = run_trials(obs, state, 2000, seed=seed)
            if chi_square(table).passed:
                passed += 1
        assert passed >= 198

    def test_law_of_large_numbers(self):
        obs, state = equal_weight_scenario()
        errors = []
        for n in (10**2, 10**3, 10**4, 10**5):
            table = run_trials(obs, state, n, seed=123)
            err = float(np.max(np.abs(table.frequencies - table.reference)))
            errors.append(err)
            assert err <= 3 * np.sqrt(0.25 / n)
        assert errors[-1] < errors[0]
