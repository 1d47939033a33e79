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

import functools
from dataclasses import dataclass

import numpy as np

from .core import (TOL_GRAM, TOL_START, TOL_ZERO, HermitianObservable, StateVector, Value,
                   fro_norm, make_state, project_to_shell, readonly_copy, require_dim,
                   require_positive, require_positive_int)
from .errors import (
    DegenerateProjectionUnderflowError,
    DimensionMismatchError,
    InvalidArgumentError,
    NoConvergenceError,
)
from .linalg import EigenSystem, _eigenvectors, _orthonormal_columns, eigh
from .rng import master_rng

# Minimizer budget: each start gets PG_MAX_ITER Rayleigh-Ritz steps to stop
# falling, and there are PG_RESTARTS starts.
PG_MAX_ITER = 10**5
PG_RESTARTS = 8


@dataclass(frozen=True, eq=False)
class AdmissibleSubspace(Value):
    """Admissible states for measuring level n: shell vectors orthogonal to
    the eigenvectors of the n-1 levels below.

    Level 1 is the full shell (empty orthogonality basis).  A basis with a
    non-finite entry, or one whose Gram matrix is more than TOL_GRAM off the
    identity or overflows, raises InvalidArgumentError.
    """

    level: int
    basis: np.ndarray  # columns are the vectors to stay orthogonal to

    def __post_init__(self):
        require_positive_int(self.level, "level")
        basis = readonly_copy(self.basis, complex)
        if basis.ndim != 2:
            raise DimensionMismatchError("basis must be a 2-d array of column vectors")
        if basis.shape[1] != self.level - 1:
            raise DimensionMismatchError(
                f"level {self.level} needs {self.level - 1} basis vectors, "
                f"got {basis.shape[1]}"
            )
        if not np.isfinite(basis).all():
            raise InvalidArgumentError("orthogonality basis has a non-finite entry")
        if basis.shape[1]:
            # a finite basis far from unit length overflows the product to
            # inf or NaN, which the test below refuses without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                gram = basis.conj().T @ basis
            if not np.max(np.abs(gram - np.eye(basis.shape[1]))) <= TOL_GRAM:
                raise InvalidArgumentError("orthogonality basis is not orthonormal")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def full_shell(cls, dimension: int) -> "AdmissibleSubspace":
        require_positive_int(dimension, "dimension")
        return cls(level=1, basis=np.zeros((dimension, 0), dtype=complex))


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution(Value):
    """Outcome probabilities over degeneracy clusters, summing to one."""

    values: np.ndarray         # representative value per cluster
    probabilities: np.ndarray  # in [0, 1], sum 1

    def __post_init__(self):
        object.__setattr__(self, "values", readonly_copy(self.values))
        object.__setattr__(self, "probabilities", readonly_copy(self.probabilities))
        if self.values.shape != self.probabilities.shape:
            raise DimensionMismatchError("values and probabilities differ in length")

    @functools.cached_property
    def cdf(self) -> np.ndarray:
        """The normalized CDF of `probabilities` that `outcome_index` samples
        from, computed on first use and kept, read-only."""
        return readonly_copy(_normalized_cdf(self.probabilities))


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One measurement: sampled outcome value, its cluster index, post state."""

    value: float
    cluster: int
    post_state: StateVector


@dataclass(frozen=True, eq=False)
class ConstrainedMin:
    """Result of minimizing a Hermitian form over an admissible subspace:
    `eigenvalue` is the outcome value a_n."""

    eigenvalue: float
    argmin: StateVector
    iterations: int
    restarts: int


def born_probabilities(
    obs: HermitianObservable, state: StateVector, system: EigenSystem | None = None
) -> ProbabilityDistribution:
    """Outcome distribution p = |<a_n|psi>|^2 / hbar, summed over each
    degeneracy cluster.

    `eigh(obs)` is memoized on `obs`, so `system` is needed only to supply
    a decomposition obtained some other way.  The distribution depends only
    on the decomposition and the state, so it is memoized on the state, keyed
    on the decomposition: a later call with the same decomposition returns
    the same distribution, with its CDF, so `mean_value` and `measure` on one
    state reuse it.
    """
    require_dim(state.dimension, obs.dimension, "state")
    es = eigh(obs) if system is None else system
    memo = state.__dict__.get("_born")
    if memo is None or memo[0] is not es:
        amplitudes = es.eigenvectors.conj().T @ state.components
        weights = np.abs(amplitudes) ** 2 / state.hbar
        probabilities = np.bincount(es.cluster, weights)
        memo = (es, ProbabilityDistribution(es.cluster_values, probabilities))
        object.__setattr__(state, "_born", memo)
    return memo[1]


def mean_value(obs: HermitianObservable, state: StateVector) -> float:
    """Mean of the measured quantity: sum of a_n p_n over outcome clusters.

    Equals evaluate_observable(obs, state) / hbar up to rounding -- the
    proportionality rule that pins down the Born distribution.
    """
    dist = born_probabilities(obs, state)
    return float(np.dot(dist.values, dist.probabilities))


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
    scales the result.  The complete QR that gives q, the block's QR and the
    3x3 eigh call the LAPACK gufuncs behind `np.linalg.qr` and `eigh` in their
    error states, built once at import, and the products are `ndarray.dot`,
    which skips `@`'s gufunc dispatch: the same bits, warnings and errors with
    less per-call overhead, most of a step at these sizes.  `q @ x` and
    `basis[:, 1:] @ y[1:]`, on column slices, keep `@`: `.dot` rounds them
    differently.  Starts are drawn from the seed-keyed stream; a start still
    falling after PG_MAX_ITER steps is restarted, and after the restart budget
    NoConvergenceError reports the best form value found.
    """
    d = obs.dimension
    require_dim(sub.basis.shape[0], d, "basis vectors")
    require_positive(hbar, "hbar")
    if sub.level > d:
        raise InvalidArgumentError(f"level {sub.level} exceeds dimension {d}")
    # level - 1 < d columns, so the complete QR has more rows than columns;
    # it overwrites its input and sub.basis is read-only, hence the copy
    q = _orthonormal_columns(sub.basis.copy(), complete=True)[:, sub.level - 1:]
    qh = q.conj().T
    b = qh.dot(obs.matrix).dot(q)

    def rayleigh(x, bx):
        return float(np.vdot(x, bx).real) / float(np.vdot(x, x).real)

    rng = master_rng(seed)
    best = np.inf
    total_iters = 0
    for restart in range(PG_RESTARTS):
        x = qh.dot(rng.normal(size=d) + 1j * rng.normal(size=d))
        norm = fro_norm(x)
        if norm < TOL_START:
            continue
        x = x * (1.0 / norm)
        bx = b.dot(x)
        value = rayleigh(x, bx)
        previous = []  # the last step's direction, from the second step on
        for _ in range(PG_MAX_ITER):
            total_iters += 1
            # Householder QR keeps the basis orthonormal even when p lies in
            # span{x, r}: the spare column is then a unit vector orthogonal to
            # both, and the Ritz value still cannot rise
            basis = _orthonormal_columns(np.array([x, bx - value * x, *previous]).T)
            y = _eigenvectors(basis.conj().T.dot(b).dot(basis))[:, 0]
            step = basis.dot(y)
            b_step = b.dot(step)
            step_value = rayleigh(step, b_step)
            if not step_value < value:
                return ConstrainedMin(
                    eigenvalue=value,
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
    cdf = probabilities.cumsum()
    return cdf / cdf[-1]


def outcome_index(cdf: np.ndarray, u: float | np.ndarray):
    """Inverse-CDF cluster index of a uniform draw u in [0, 1), or of an array
    of draws, against a normalized CDF (`_normalized_cdf`, kept on a
    distribution as its `cdf`): the one sampler behind `measure`, and the
    oracle of `outcome_counts`.  A draw equal to a CDF entry c[k] goes to
    cluster k + 1."""
    return cdf.searchsorted(u, side="right")


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
    Maps exactly one draw from `rng` through `outcome_index`, on the
    distribution's kept `cdf`.  `run_trials` tallies its draws with
    `outcome_counts`, whose counts are that sampler's bincount, so a loop of
    measure() calls over `master_rng(seed)` tallies exactly what
    `run_trials(..., seed)` does.
    """
    es = eigh(obs) if system is None else system
    dist = born_probabilities(obs, state, system=es)
    k = int(outcome_index(dist.cdf, rng.random()))
    vectors = es.eigenvectors[:, es.cluster == k]
    projected = vectors @ (vectors.conj().T @ state.components)
    norm = fro_norm(projected)
    if norm < TOL_ZERO * np.sqrt(state.hbar):
        raise DegenerateProjectionUnderflowError(
            f"projection norm {norm:.3e} too small to collapse onto outcome {k}"
        )
    post = project_to_shell(projected, state.hbar)
    return MeasurementRecord(value=float(dist.values[k]), cluster=k, post_state=post)
