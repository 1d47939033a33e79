"""Dense Hermitian eigensolver, commutators, and unitary propagators.

The eigensolver is a self-contained Jacobi iteration with complex rotations,
applied directly to the complex Hermitian matrix.  Jacobi is unconditionally
stable for Hermitian input and highly accurate at the small dimensions this
package targets (d up to a few dozen), with no dependency on an external
eigensolver.  A sweep is rounds in round-robin order (d - 1 of them, or d
for odd d), and each round's disjoint rotations are applied as one
vectorised update, to the columns of the matrix and of the accumulated
rotations at once.  It takes only a `HermitianObservable`, whose type
guarantees a square, exactly Hermitian matrix with a finite norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (JACOBI_REL_TOL, TOL_CLUSTER, TOL_RESOLUTION, HermitianObservable, phase_fix,
                   require_dim)
from .errors import InvalidArgumentError, NoConvergenceError

JACOBI_SWEEPS = 50  # sweep budget of one Jacobi solve


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; column k of `eigenvectors` is the unit-norm
    eigenvector of eigenvalues[k], phase-fixed so its first above-threshold
    component is real positive.  Eigenvalues equal within TOL_CLUSTER or
    TOL_RESOLUTION (see _cluster_labels) form one degeneracy cluster, one measurement
    outcome: `cluster[n]` is the outcome index of eigenvalue n (0 first, never
    decreasing) and `cluster_values[k]` the member mean of outcome k.  All
    four arrays are read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cluster: np.ndarray
    cluster_values: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Sum of a_n |a_n><a_n| over the spectrum."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _round_robin(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One sweep's rounds for dimension d >= 2: index arrays (P, Q) with P < Q
    elementwise, the pairs of a round disjoint, and every pair p < q in
    exactly one round.

    The circle method (Brent & Luk's round-robin ordering): index 0 stays put
    and the others turn one place per round.  Odd d pairs one index per round
    with a padded dummy index d, and those pairs are dropped.
    """
    n = d + d % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [(min(x, y), max(x, y)) for x, y in zip(ring[: n // 2], reversed(ring[n // 2:]))
                 if max(x, y) < d]
        rounds.append(tuple(np.array(side, dtype=np.intp) for side in zip(*pairs)))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def _jacobi_rotate_round(av: np.ndarray, p: np.ndarray, q: np.ndarray, pq: np.ndarray,
                         qp: np.ndarray, skip: float) -> None:
    """Annihilate a[p[k], q[k]] (and a[q[k], p[k]]) for every pair of one
    round with complex plane rotations.

    `av` stacks the matrix A over the accumulated rotations V, (2d, d), and
    pq, qp are the concatenations (p, q) and (q, p).  For the 2x2 Hermitian
    block [[app, b], [conj(b), aqq]] with b = |b| w, the unitary
    [[c, -s w], [s conj(w), c]] zeroes the off-diagonal entry when tan(2*phi)
    solves the standard symmetric-Jacobi equation with |b| in place of the
    real coupling.  The pairs are disjoint, so their rotations commute: the
    P/Q columns of A and V are rotated together, then A's P/Q rows.  Pairs
    whose entry is at most `skip` are dropped before any division.
    """
    a = av[: av.shape[1]]
    b = a[p, q]
    absb = np.abs(b)
    keep = absb > skip
    if not keep.all():
        if not keep.any():
            return
        p, q, b, absb = p[keep], q[keep], b[keep], absb[keep]
        pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
    w = b / absb
    theta = (a[q, q].real - a[p, p].real) / (2.0 * absb)
    # -sign(theta), and t = 1 at theta == 0
    t = np.where(theta > 0.0, -1.0, 1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    sw = s * w
    swc = s * np.conj(w)

    # Entry k of pq is rotated with entry k of qp: new_p = c p + swc q on
    # columns, and new_q = c q - sw p; the rows take the conjugate mix.
    cc = np.concatenate((c, c))
    col_mix = np.concatenate((swc, -sw))
    row_mix = np.concatenate((sw, -swc))[:, None]
    av[:, pq] = cc * av[:, pq] + col_mix * av[:, qp]
    a[pq, :] = cc[:, None] * a[pq, :] + row_mix * a[qp, :]
    a[pq, qp] = 0.0
    a.imag[pq, pq] = 0.0


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _cluster_labels(values: np.ndarray) -> np.ndarray:
    """Outcome index of each ascending eigenvalue: a cluster starts at a gap above both
    TOL_CLUSTER times the pair and TOL_RESOLUTION times the spectral radius (each at least 1)."""
    a = np.maximum(1.0, np.abs(values))
    tol = np.maximum(TOL_CLUSTER * np.maximum(a[:-1], a[1:]), TOL_RESOLUTION * a.max())
    return np.concatenate(([0], np.cumsum(~(np.diff(values) <= tol))))


def eigh(observable: HermitianObservable) -> EigenSystem:
    """Full spectral decomposition of an observable by Jacobi rotations.

    Output is deterministic for identical input: fixed round order, eigenvalues
    ascending, eigenvector phases fixed, and vectors inside a degeneracy
    cluster ordered by the index of their largest-modulus component.

    The decomposition is memoized per HermitianObservable instance: the first
    call solves and stores the system on the (immutable) observable, and later
    calls return that same EigenSystem.  A fresh instance built from the same
    matrix is solved again.

    Raises TypeError for anything but a HermitianObservable, and
    NoConvergenceError if the off-diagonal mass has not dropped below
    JACOBI_REL_TOL * ||A||_F within the sweep budget.
    """
    if not isinstance(observable, HermitianObservable):
        raise TypeError(f"eigh takes a HermitianObservable, got {type(observable).__name__}")
    system = observable.__dict__.get("_eigensystem")
    if system is None:
        system = _jacobi_eigh(observable.matrix)
        object.__setattr__(observable, "_eigensystem", system)
    return system


def _jacobi_eigh(matrix: np.ndarray) -> EigenSystem:
    # An observable's matrix is square, exactly Hermitian (so every rotation is
    # exactly unitary) and of finite norm (so the target below is finite).
    d = matrix.shape[0]
    av = np.concatenate((matrix, np.eye(d, dtype=complex)))  # A over V: one column update
    a, v = av[:d], av[d:]
    fro = float(np.linalg.norm(a))

    if d > 1 and fro > 0.0:
        target = JACOBI_REL_TOL * fro
        # Entries all below target/d cannot push the off-diagonal norm above
        # the target, so they are not worth a rotation.
        skip = target / d
        rounds = [(p, q, np.concatenate((p, q)), np.concatenate((q, p)))
                  for p, q in _round_robin(d)]
        for _ in range(JACOBI_SWEEPS):
            if _offdiag_norm(a) <= target:
                break
            for p, q, pq, qp in rounds:
                _jacobi_rotate_round(av, p, q, pq, qp, skip)
        else:
            raise NoConvergenceError(
                f"Jacobi sweep budget ({JACOBI_SWEEPS}) exhausted; "
                f"off-diagonal norm {_offdiag_norm(a):.3e} vs target {target:.3e}"
            )

    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]

    cluster = _cluster_labels(values)
    # Deterministic order inside a cluster: by largest-modulus component index,
    # ties by position (lexsort is stable).  Eigenvalues stay in sorted order;
    # members of a cluster agree to within the cluster tolerance, so the
    # pairing is unaffected at that resolution.
    vectors = vectors[:, np.lexsort((np.argmax(np.abs(vectors), axis=0), cluster))]
    for k in range(d):
        vectors[:, k] = phase_fix(vectors[:, k])
    cluster_values = np.bincount(cluster, values) / np.bincount(cluster)
    for array in (values, vectors, cluster, cluster_values):
        array.setflags(write=False)
    return EigenSystem(values, vectors, cluster, cluster_values)


def commutator(a: HermitianObservable, b: HermitianObservable) -> np.ndarray:
    """Matrix commutator AB - BA; anti-Hermitian for Hermitian inputs."""
    require_dim(b.dimension, a.dimension, "observable")
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def unitary_propagator(a: HermitianObservable, t: float) -> np.ndarray:
    """U(t) = sum_n exp(-i a_n t) |a_n><a_n| via the spectral decomposition.

    Exactly unitary up to rounding: U(0) is the identity and U U^dag = 1.
    The decomposition comes from `eigh`, memoized per observable instance, so
    propagators of one observable at many t share a single Jacobi solve.
    Raises InvalidArgumentError when some a_n * t is not finite.
    """
    es = eigh(a)
    extreme = max(-float(es.eigenvalues[0]), float(es.eigenvalues[-1]))  # the largest |a_n|
    if not math.isfinite(extreme * float(t)):  # Python floats overflow without a warning
        raise InvalidArgumentError(f"a_n * t is not finite for t = {t}, |a_n| up to {extreme:.6g}")
    phases = np.exp(-1j * es.eigenvalues * t)
    v = es.eigenvectors
    return (v * phases) @ v.conj().T
