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

from .core import (TOL_ZERO, HermitianObservable, StateVector, make_state, project_to_shell,
                   require_dim, require_positive, require_positive_int)
from .errors import (
    DegenerateProjectionUnderflowError,
    DimensionMismatchError,
    NoConvergenceError,
)
from .linalg import EigenSystem, eigh
from .rng import master_rng

# Projected-gradient controls (step and convergence are Frobenius-scaled).
PG_STEP = 0.1
PG_GRAD_TOL = 1e-9
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
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-10:
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
    dimension: int

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
    probs = np.array([float(np.sum(weights[list(c)])) for c in es.clusters])
    return ProbabilityDistribution(es.cluster_values(), probs, obs.dimension)


def mean_value(obs: HermitianObservable, state: StateVector) -> float:
    """Mean of the measured quantity: sum of a_n p_n over outcome clusters.

    Equals evaluate_observable(obs, state) / hbar up to rounding -- the
    proportionality rule that pins down the Born distribution.
    """
    dist = born_probabilities(obs, state)
    return float(np.dot(dist.values, dist.probabilities))


def _project_off(basis: np.ndarray, vec: np.ndarray) -> np.ndarray:
    if basis.shape[1] == 0:
        return vec
    return vec - basis @ (basis.conj().T @ vec)


def constrained_min(
    obs: HermitianObservable,
    sub: AdmissibleSubspace,
    seed: int = 0,
    hbar: float = 1.0,
) -> ConstrainedMin:
    """Minimize <psi|A|psi> over shell states orthogonal to sub.basis by
    projected gradient descent.

    Each iteration projects the gradient off the orthogonality basis and the
    radial direction, takes a fixed Frobenius-scaled step, and renormalizes to
    the shell of radius sqrt(hbar).  Starts are drawn from the seed-keyed
    stream; on failure to meet the gradient tolerance the descent restarts,
    and after the restart budget NoConvergenceError reports the best value
    found.
    """
    d = obs.dimension
    require_dim(sub.basis.shape[0], d, "basis vectors")
    require_positive(hbar, "hbar")
    if sub.level > d:
        raise ValueError(f"level {sub.level} exceeds dimension {d}")
    a = obs.matrix
    basis = sub.basis
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        fro = 1.0
    step = PG_STEP / fro
    grad_tol = PG_GRAD_TOL * fro * hbar
    radius = np.sqrt(hbar)

    rng = master_rng(seed)
    best_value = np.inf
    total_iters = 0
    for restart in range(PG_RESTARTS):
        raw = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi = _project_off(basis, raw)
        norm = float(np.linalg.norm(psi))
        if norm < 1e-8:
            continue
        psi = psi * (radius / norm)
        converged = False
        for _ in range(PG_MAX_ITER):
            total_iters += 1
            grad = 2.0 * (a @ psi)
            grad = _project_off(basis, grad)
            grad = grad - (np.real(np.vdot(psi, grad)) / hbar) * psi
            if float(np.linalg.norm(grad)) <= grad_tol:
                converged = True
                break
            psi = psi - step * grad
            psi = _project_off(basis, psi)
            psi = psi * (radius / float(np.linalg.norm(psi)))
        value = float(np.real(np.vdot(psi, a @ psi)))
        best_value = min(best_value, value)
        if converged:
            return ConstrainedMin(
                eigenvalue=value / hbar,
                form_value=value,
                argmin=make_state(psi, hbar),
                iterations=total_iters,
                restarts=restart,
            )
    raise NoConvergenceError(
        f"projected gradient did not converge after {PG_RESTARTS} restarts "
        f"(best form value {best_value:.12g})",
        best_value=best_value,
    )


def outcome_index(probabilities: np.ndarray, u: float | np.ndarray):
    """Inverse-CDF cluster index of a uniform draw u in [0, 1), or of an array
    of draws: the one sampler behind `measure` and `run_trials`.

    On-shell probabilities sum to 1 only within the shell tolerance, so the
    CDF is divided by its total: its last entry is then exactly 1 > u, and no
    draw lands on a zero-probability cluster."""
    cdf = np.cumsum(probabilities)
    return np.minimum(np.searchsorted(cdf / cdf[-1], u, side="right"), len(cdf) - 1)


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
    Maps exactly one draw from `rng` through `outcome_index`, as `run_trials` does.
    """
    es = eigh(obs) if system is None else system
    dist = born_probabilities(obs, state, system=es)
    k = int(outcome_index(dist.probabilities, rng.random()))
    members = list(es.clusters[k])
    vectors = es.eigenvectors[:, members]
    projected = vectors @ (vectors.conj().T @ state.components)
    norm = float(np.linalg.norm(projected))
    if norm < TOL_ZERO * np.sqrt(state.hbar):
        raise DegenerateProjectionUnderflowError(
            f"projection norm {norm:.3e} too small to collapse onto outcome {k}"
        )
    post = project_to_shell(projected, state.hbar)
    return MeasurementRecord(value=float(dist.values[k]), cluster=k, post_state=post)
