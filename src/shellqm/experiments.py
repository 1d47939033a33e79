"""Monte Carlo harness and statistical verification: empirical outcome
frequencies against the Born distribution, empirical means against the
mean-value proportionality rule, and batch eigenvalue-vs-minimization checks.

Trial i of a run consumes draw i of the seed-keyed counter-based stream, so
tallies are bit-identical however the trials are executed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (MAX_TRIALS, POOL_MIN_EXPECTED, TOL_CF, TOL_MEAN_GUARD, TOL_NORM_DRIFT,
                   HermitianObservable, StateVector, fro_norm, make_state, require_positive_int)
from .dynamics import flow
from .errors import InsufficientTrialsError, InvalidArgumentError, NoConvergenceError, OffShellError
from .linalg import eigh
from .measurement import AdmissibleSubspace, born_probabilities, constrained_min, outcome_counts
from .phasespace import evaluate_observable
from .rng import master_rng, trial_chunks

# 99.9th percentile of the chi-square distribution, dof 1..32.
CHI2_999 = {
    1: 10.827566170662733,
    2: 13.815510557964274,
    3: 16.26623619623813,
    4: 18.46682695290317,
    5: 20.515005652432873,
    6: 22.457744484825323,
    7: 24.321886347856854,
    8: 26.12448155837614,
    9: 27.877164871256568,
    10: 29.58829844507442,
    11: 31.264133620239985,
    12: 32.90949040736021,
    13: 34.52817897487089,
    14: 36.12327368039813,
    15: 37.69729821835383,
    16: 39.252354790768464,
    17: 40.79021670690253,
    18: 42.31239633167996,
    19: 43.82019596451753,
    20: 45.31474661812586,
    21: 46.797038041561315,
    22: 48.26794229083518,
    23: 49.7282324664315,
    24: 51.17859777737739,
    25: 52.619655776172834,
    26: 54.05196238857664,
    27: 55.47602020574521,
    28: 56.892285393353625,
    29: 58.301173489794905,
    30: 59.70306430442994,
    31: 61.098306081058126,
    32: 62.487219057088474,
}

_Z_999 = 3.090232306167813  # standard normal 99.9th percentile


def chi2_threshold_999(dof: int) -> float:
    """99.9th chi-square percentile: embedded table for dof <= 32, the
    Wilson-Hilferty cube approximation beyond."""
    require_positive_int(dof, "dof")
    if dof in CHI2_999:
        return CHI2_999[dof]
    return float(dof * (1.0 - 2.0 / (9.0 * dof) + _Z_999 * np.sqrt(2.0 / (9.0 * dof))) ** 3)


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Tallied outcomes of N repeated measurements of one prepared state."""

    trials: int
    values: np.ndarray        # cluster outcome values
    counts: np.ndarray
    frequencies: np.ndarray   # counts / trials, exact
    reference: np.ndarray     # Born probabilities
    seed: int


@dataclass(frozen=True)
class VerificationReport:
    """One named check: statistic against threshold, with an inputs digest."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    digest: dict


def run_trials(
    obs: HermitianObservable, state: StateVector, trials: int, seed: int
) -> FrequencyTable:
    """Tally `trials` independent measurements, each from the freshly prepared
    state.

    Trial i consumes draw i of the seed-keyed stream.  The draws come in
    fixed chunks (`rng.trial_chunks`); `outcome_counts` sorts each chunk in
    place and counts it against the distribution's normalized `cdf`.
    Those counts are the bincount of `outcome_index`, the sampler `measure`
    uses on its one draw, so the table is reproducible byte for byte and a
    loop of measure() calls over `master_rng(seed)` tallies the same counts.
    Each chunk is released before the next is drawn, so memory is one chunk
    whatever `trials` is.
    """
    require_positive_int(trials, "trials")
    if trials > MAX_TRIALS:
        raise InvalidArgumentError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    dist = born_probabilities(obs, state)
    counts = np.zeros(len(dist.cdf), dtype=np.int64)
    for u in trial_chunks(seed, trials):
        counts += outcome_counts(dist.cdf, u)
        del u  # otherwise the loop variable holds this chunk while the next is drawn
    return FrequencyTable(
        trials=trials,
        values=dist.values,
        counts=counts,
        frequencies=counts / trials,
        reference=dist.probabilities,
        seed=seed,
    )


def _pooled(observed: np.ndarray, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge categories with expected count below the pooling threshold into a
    single pool, placed last.  A pool still below the threshold absorbs the
    smallest kept category (the first of equal ones), which clears the
    threshold alone, so one absorption always suffices."""
    keep, small = expected >= POOL_MIN_EXPECTED, expected < POOL_MIN_EXPECTED
    if not small.any():
        return observed[keep], expected[keep]
    pool_obs, pool_exp = float(np.sum(observed[small])), float(np.sum(expected[small]))
    if pool_exp < POOL_MIN_EXPECTED and keep.any():
        k = np.flatnonzero(keep)[np.argmin(expected[keep])]
        keep[k] = False
        pool_obs, pool_exp = pool_obs + observed[k], pool_exp + expected[k]
    return np.append(observed[keep], pool_obs), np.append(expected[keep], pool_exp)


def chi_square(table: FrequencyTable) -> VerificationReport:
    """Pearson goodness-of-fit of the tally against its Born reference.

    Outcomes with expected count below the pooling threshold are pooled;
    passes when the statistic is at or below the 99.9th chi-square percentile
    for the post-pooling degrees of freedom.  When pooling leaves a single
    category even at MAX_TRIALS (a state certain of one outcome, up to thin
    tails), there is nothing to test: the report has zero degrees of freedom,
    statistic and threshold 0, and passes.  Raises InsufficientTrialsError
    when more trials would leave two categories or more.
    """
    digest = {"dimension": len(table.reference), "seed": table.seed, "trials": table.trials}
    observed, expected = _pooled(table.counts.astype(float), table.reference * table.trials)
    if len(expected) < 2:
        most = table.reference * MAX_TRIALS
        if len(_pooled(most, most)[1]) < 2:  # no number of trials leaves a second category
            return VerificationReport("chi-square", 0.0, 0.0, True, digest)
        raise InsufficientTrialsError(
            f"pooling left {len(expected)} category(ies); increase trials"
        )
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    dof = len(expected) - 1
    threshold = chi2_threshold_999(dof)
    return VerificationReport(
        name="chi-square",
        statistic=statistic,
        threshold=threshold,
        passed=statistic <= threshold,
        digest=digest,
    )


def _mean_report(
    obs: HermitianObservable, state: StateVector, table: FrequencyTable
) -> VerificationReport:
    """Empirical mean of the table's outcomes against the observable's value
    divided by hbar; passes within four standard errors.

    A rounding guard of TOL_MEAN_GUARD * max(1, |expected|) keeps the zero-variance
    case (single-outcome distribution) from failing on accumulation error.
    """
    trials = table.trials
    if trials < 100:
        raise InvalidArgumentError(f"the mean check needs at least 100 trials, got {trials}")
    empirical = float(np.dot(table.values, table.counts)) / trials
    expected = evaluate_observable(obs, state) / state.hbar
    # the spread in units of a power of two near the largest |value|, as
    # `_jacobi_eigh` scales a tiny matrix, so no square overflows
    shift = -int(np.frexp(np.max(np.abs(table.values)))[1])
    centered = np.ldexp(table.values - empirical, shift)
    var = float(np.dot(centered**2, table.counts)) / (trials - 1)
    sd = float(np.ldexp(np.sqrt(max(var, 0.0)), -shift))
    threshold = 4.0 * sd / float(np.sqrt(trials)) + TOL_MEAN_GUARD * max(1.0, abs(expected))
    diff = abs(empirical - expected)
    return VerificationReport(
        name="mean-proportionality",
        statistic=diff,
        threshold=threshold,
        passed=diff <= threshold,
        digest={"dimension": obs.dimension, "seed": table.seed, "trials": trials},
    )


def random_hermitian(d: int, rng: np.random.Generator) -> HermitianObservable:
    """Random Hermitian matrix with Gaussian entries, symmetrized."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianObservable(0.5 * (g + g.conj().T))


def random_state(d: int, rng: np.random.Generator, hbar: float = 1.0) -> StateVector:
    """Random state drawn uniformly on the shell."""
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    return make_state(raw * np.sqrt(hbar) / fro_norm(raw), hbar)


def courant_fischer_report(obs: HermitianObservable, seed: int) -> VerificationReport:
    """Compare constrained minimization at every level against the
    eigensolver; the statistic is the worst relative deviation."""
    es = eigh(obs)
    worst = 0.0
    failed = False
    for n in range(1, obs.dimension + 1):
        sub = AdmissibleSubspace.for_level(es, n)
        target = float(es.eigenvalues[n - 1])
        try:
            value = constrained_min(obs, sub, seed=seed + n).eigenvalue
        except NoConvergenceError as err:
            value, failed = err.best_value, True
        worst = max(worst, abs(value - target) / max(1.0, abs(target)))
    return VerificationReport(
        name="courant-fischer",
        statistic=worst,
        threshold=TOL_CF,
        passed=(not failed) and worst <= TOL_CF,
        digest={"dimension": obs.dimension, "seed": seed},
    )


def courant_fischer_suite(
    dims: list[int], per_dim: int, seed: int
) -> list[VerificationReport]:
    """One report per random Hermitian matrix: constrained minimization must
    reproduce every eigenvalue.  Failures are reported, not thrown."""
    dims = list(dims)
    if not dims:
        raise InvalidArgumentError("dims must be a nonempty list of positive integers")
    for d in dims:
        require_positive_int(d, "dimension")
    require_positive_int(per_dim, "per_dim")
    rng = master_rng(seed)
    reports = []
    for d in dims:
        for k in range(per_dim):
            obs = random_hermitian(d, rng)
            reports.append(courant_fischer_report(obs, seed=seed + 1000 * d + k))
    return reports


def norm_conservation_report(
    obs: HermitianObservable, state: StateVector, seed: int
) -> VerificationReport:
    """Shell-norm drift of the exact flow over a spread of parameter values."""
    rng = master_rng(seed)
    times = rng.uniform(-10.0, 10.0, size=16)
    worst = 0.0
    for t in times:
        try:  # flow refuses a drift beyond TOL_SHELL, which this report must see
            drift = flow(obs, state, float(t)).norm_squared() - state.hbar
        except OffShellError as exc:
            drift = exc.residual
        worst = max(worst, abs(drift))
    threshold = TOL_NORM_DRIFT * state.hbar
    return VerificationReport(
        name="norm-conservation",
        statistic=worst,
        threshold=threshold,
        passed=worst <= threshold,
        digest={"dimension": obs.dimension, "seed": seed},
    )


def verification_suite(
    obs: HermitianObservable, state: StateVector, trials: int, seed: int
) -> list[VerificationReport]:
    """Full battery for one scenario: Born-frequency goodness of fit, mean
    proportionality, minimization-vs-spectrum, and flow norm conservation.

    The two statistical checks share one Monte Carlo table."""
    table = run_trials(obs, state, trials, seed)
    return [
        _mean_report(obs, state, table),
        chi_square(table),
        courant_fischer_report(obs, seed),
        norm_conservation_report(obs, state, seed),
    ]
