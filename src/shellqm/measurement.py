"""Measurement as constrained minimization on the shell, outcome probabilities,
sampling, and collapse.

The two measurement rules realized here: the measured observable relaxes to
its minimum over the admissible subset of the shell (so outcomes are the
eigenvalues, recovered level by level through nested orthogonality
constraints), and the mean of the sampled outcome equals 1/hbar times the
observable's value at the prepared state.  Together they fix the outcome
probabilities p_n = |<a_n|psi>|^2 / hbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core import (TOL_GRAM, TOL_START, TOL_ZERO, HermitianObservable, StateVector, make_state,
                   project_to_shell, require_dim, require_positive, require_positive_int)
from .errors import (
    DegenerateProjectionUnderflowError,
    DimensionMismatchError,
    NoConvergenceError,
)
from .linalg import EigenSystem, eigh
from .rng import master_rng

# Minimizer budget: each start gets PG_MAX_ITER Rayleigh-Ritz steps to stop
# falling, and there are PG_RESTARTS starts.
PG_MAX_ITER = 10**5
PG_RESTARTS = 8


@dataclass(frozen=True, eq=False)
class AdmissibleSubspace:
    """Admissible states for measuring level n: shell vectors orthogonal to
    the eigenvectors of the n-1 levels below.

    Level 1 is the full shell (empty orthogonality basis).
    """

    level: int
    basis: np.ndarray  # columns are the vectors to stay orthogonal to

    def __post_init__(self):
        require_positive_int(self.level, "level")
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2:
            raise DimensionMismatchError("basis must be a 2-d array of column vectors")
        if basis.shape[1] != self.level - 1:
            raise DimensionMismatchError(
                f"level {self.level} needs {self.level - 1} basis vectors, "
                f"got {basis.shape[1]}"
            )
        if basis.shape[1]:
            gram = basis.conj().T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > TOL_GRAM:
                raise ValueError("orthogonality basis is not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def full_shell(cls, dimension: int) -> "AdmissibleSubspace":
        return cls(level=1, basis=np.zeros((dimension, 0), dtype=complex))

    @classmethod
    def for_level(cls, system: EigenSystem, n: int) -> "AdmissibleSubspace":
        """Admissible set for the n-th level of a solved spectrum."""
        if not 1 <= n <= system.dimension:
            raise ValueError(f"level {n} out of range 1..{system.dimension}")
        return cls(level=n, basis=system.eigenvectors[:, : n - 1])


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Outcome probabilities over degeneracy clusters, summing to one."""

    values: np.ndarray         # representative value per cluster
    probabilities: np.ndarray  # in [0, 1], sum 1

    def __post_init__(self):
        if self.values.shape != self.probabilities.shape:
            raise DimensionMismatchError("values and probabilities differ in length")

    @property
    def outcomes(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probabilities.tolist()))


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One measurement: sampled outcome value, its cluster index, post state."""

    value: float
    cluster: int
    post_state: StateVector


@dataclass(frozen=True, eq=False)
class ConstrainedMin:
    """Result of minimizing a Hermitian form over an admissible subspace.

    `eigenvalue` is the outcome value a_n; `form_value` is the raw minimum of
    the form on the shell, hbar * a_n.  They are reported separately to avoid
    unit confusion.
    """

    eigenvalue: float
    form_value: float
    argmin: StateVector
    iterations: int
    restarts: int


def born_probabilities(
    obs: HermitianObservable, state: StateVector, system: EigenSystem | None = None
) -> ProbabilityDistribution:
    """Outcome distribution p = |<a_n|psi>|^2 / hbar, summed over each
    degeneracy cluster.

    `eigh(obs)` is memoized on `obs`, so `system` is needed only to supply
    a decomposition obtained some other way.
    """
    require_dim(state.dimension, obs.dimension, "state")
    es = eigh(obs) if system is None else system
    amplitudes = es.eigenvectors.conj().T @ state.components
    weights = np.abs(amplitudes) ** 2 / state.hbar
    return ProbabilityDistribution(es.cluster_values, np.bincount(es.cluster, weights))


def mean_value(obs: HermitianObservable, state: StateVector) -> float:
    """Mean of the measured quantity: sum of a_n p_n over outcome clusters.

    Equals evaluate_observable(obs, state) / hbar up to rounding -- the
    proportionality rule that pins down the Born distribution.
    """
    dist = born_probabilities(obs, state)
    return float(np.dot(dist.values, dist.probabilities))


def _raise_qr_error(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _raise_eigh_error(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """`np.linalg.qr(m)[0]` of a complex block m, bit for bit, from the two
    LAPACK gufuncs behind it, without the wrapper's checks, copy and unused R
    factor.  Overwrites m, so m must be a fresh array.  The one `qr_r_raw`
    gufunc is numpy 2's layout (numpy 1 split it by shape), hence the
    `numpy>=2.0` floor."""
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        tau = _umath_linalg.qr_r_raw(m, signature="D->D")
        return _umath_linalg.qr_reduced(m, tau, signature="DD->D")


def _lowest_eigenvector(h: np.ndarray) -> np.ndarray:
    """`np.linalg.eigh(h)[1][:, 0]` of a complex Hermitian h, bit for bit, from
    the LAPACK gufunc behind it."""
    with np.errstate(call=_raise_eigh_error, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.eigh_lo(h, signature="D->dD")[1][:, 0]


def constrained_min(
    obs: HermitianObservable,
    sub: AdmissibleSubspace,
    seed: int = 0,
    hbar: float = 1.0,
) -> ConstrainedMin:
    """Minimize <psi|A|psi> over shell states orthogonal to sub.basis by a
    locally optimal descent on the unit sphere of the admissible subspace.

    With q an orthonormal basis of the complement of sub.basis (the identity at
    level 1), every admissible state is psi = sqrt(hbar) q x with |x| = 1, and
    <psi|A|psi> = hbar x^H (q^H A q) x.  So the descent runs on x: each
    iteration forms the tangent residual r = b x - rho x of b = q^H A q at the
    Rayleigh quotient rho = x^H b x / x^H x, the value reported, and moves x
    to the lowest Ritz vector of b on span{x, r, p}, p being the previous
    step's direction (LOBPCG without a preconditioner).  That span contains x,
    so the Ritz value never increases: the observable only descends, and a
    start ends at the first step that does not lower it, reporting the lowest
    value and its vector.  Nothing scales that rule: the descent ends only
    where rounding ends it.  The 3x3 problem is solved by numpy, so the
    minimizer does not depend on the eigensolver it checks, and hbar only
    scales the result.  The block's QR and the 3x3 eigh call numpy's LAPACK
    gufuncs directly, the ones `np.linalg.qr` and `np.linalg.eigh` call,
    inside the same errstate: the same bits, warnings and errors, without
    the wrappers' Python overhead, which is most of a step at these sizes.
    Starts are drawn from the seed-keyed stream; a start still falling after
    PG_MAX_ITER steps is restarted, and after the restart budget
    NoConvergenceError reports the best form value found.
    """
    d = obs.dimension
    require_dim(sub.basis.shape[0], d, "basis vectors")
    require_positive(hbar, "hbar")
    if sub.level > d:
        raise ValueError(f"level {sub.level} exceeds dimension {d}")
    q = np.linalg.qr(sub.basis, mode="complete")[0][:, sub.level - 1:]
    qh = q.conj().T
    b = qh @ obs.matrix @ q

    def rayleigh(x, bx):
        return float(np.real(np.vdot(x, bx))) / float(np.real(np.vdot(x, x)))

    rng = master_rng(seed)
    best = np.inf
    total_iters = 0
    for restart in range(PG_RESTARTS):
        x = qh @ (rng.normal(size=d) + 1j * rng.normal(size=d))
        norm = float(np.linalg.norm(x))
        if norm < TOL_START:
            continue
        x = x * (1.0 / norm)
        bx = b @ x
        value = rayleigh(x, bx)
        previous = []  # the last step's direction, from the second step on
        for _ in range(PG_MAX_ITER):
            total_iters += 1
            # Householder QR keeps the basis orthonormal even when p lies in
            # span{x, r}: the spare column is then a unit vector orthogonal to
            # both, and the Ritz value still cannot rise
            basis = _orthonormal_columns(np.array([x, bx - value * x, *previous]).T)
            y = _lowest_eigenvector(basis.conj().T @ b @ basis)
            step = basis @ y
            b_step = b @ step
            step_value = rayleigh(step, b_step)
            if not step_value < value:
                return ConstrainedMin(
                    eigenvalue=value,
                    form_value=hbar * value,
                    argmin=make_state(np.sqrt(hbar) * (q @ x), hbar),
                    iterations=total_iters,
                    restarts=restart,
                )
            previous = [basis[:, 1:] @ y[1:]]
            x, bx, value = step, b_step, step_value
        best = min(best, value)
    raise NoConvergenceError(
        f"minimizer did not converge after {PG_RESTARTS} restarts "
        f"(best form value {hbar * best:.12g})",
        best_value=hbar * best,
    )


def _normalized_cdf(probabilities: np.ndarray) -> np.ndarray:
    """CDF divided by its total.  On-shell probabilities sum to 1 only within
    the shell tolerance; divided, the last entry is exactly 1 > u for every
    draw u in [0, 1), so no draw lands on a zero-probability cluster."""
    cdf = np.cumsum(probabilities)
    return cdf / cdf[-1]


def outcome_index(probabilities: np.ndarray, u: float | np.ndarray):
    """Inverse-CDF cluster index of a uniform draw u in [0, 1), or of an array
    of draws: the one sampler behind `measure`, and the oracle of
    `outcome_counts`.  A draw equal to a CDF entry c[k] goes to cluster k + 1."""
    return np.searchsorted(_normalized_cdf(probabilities), u, side="right")


def outcome_counts(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-cluster tally of the draws `u` against the normalized CDF `cdf`:
    exactly the bincount of their `outcome_index`, without per-draw indices.

    Cluster k takes the draws in [c[k-1], c[k]), so the tallies are the first
    differences of #{u < c[k]}, binary-searched in the draws once sorted.
    Sorts `u` in place, so the caller's array is reordered and no copy is made.
    """
    u.sort()
    return np.diff(np.searchsorted(u, cdf, side="left"), prepend=0)


def measure(
    obs: HermitianObservable,
    state: StateVector,
    rng: np.random.Generator,
    system: EigenSystem | None = None,
) -> MeasurementRecord:
    """Sample an outcome from the Born distribution and collapse the state.

    The post state is the shell-normalized projection of the input onto the
    outcome's eigenspace (cluster eigenspace for degenerate outcomes), so an
    immediate repeat measurement returns the same outcome with probability 1.
    Maps exactly one draw from `rng` through `outcome_index`.  `run_trials`
    tallies its draws with `outcome_counts`, whose counts are that sampler's
    bincount, so a loop of measure() calls over `master_rng(seed)` tallies
    exactly what `run_trials(..., seed)` does.
    """
    es = eigh(obs) if system is None else system
    dist = born_probabilities(obs, state, system=es)
    k = int(outcome_index(dist.probabilities, rng.random()))
    vectors = es.eigenvectors[:, es.cluster == k]
    projected = vectors @ (vectors.conj().T @ state.components)
    norm = float(np.linalg.norm(projected))
    if norm < TOL_ZERO * np.sqrt(state.hbar):
        raise DegenerateProjectionUnderflowError(
            f"projection norm {norm:.3e} too small to collapse onto outcome {k}"
        )
    post = project_to_shell(projected, state.hbar)
    return MeasurementRecord(value=float(dist.values[k]), cluster=k, post_state=post)
