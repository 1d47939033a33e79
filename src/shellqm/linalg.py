"""Dense Hermitian eigensolver, commutators, and unitary propagators.

The eigensolver is a self-contained Jacobi iteration with complex rotations,
applied directly to the complex Hermitian matrix.  Jacobi is unconditionally
stable for Hermitian input and highly accurate at the small dimensions this
package targets (d up to a few dozen), with no dependency on an external
eigensolver.  A sweep is rounds in round-robin order (d - 1 of them, or d
for odd d), built per solve in closed form as two (rounds, pairs) index
arrays, and each round's disjoint rotations are applied as one vectorised
update, to the columns of the matrix and of the accumulated rotations at
once.  A round's few real rotation angles are computed on Python floats,
which round exactly as numpy does and cost less than numpy calls on
arrays of d / 2 entries.  It takes only a `HermitianObservable`, whose type
guarantees a square, exactly Hermitian matrix with a finite norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (JACOBI_REL_TOL, JACOBI_TINY_NORM, TOL_CLUSTER, TOL_RESOLUTION,
                   HermitianObservable, phase_fix, require_dim)
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


def _round_robin(d: int) -> tuple[np.ndarray, np.ndarray]:
    """One sweep for dimension d >= 2 as two (rounds, pairs) index arrays P, Q:
    P < Q elementwise, the pairs of a row (one round) disjoint, and every
    pair p < q in exactly one row.

    The circle method (Brent & Luk's round-robin ordering): index 0 stays put
    and the others turn one place per round, so in round r position j >= 1
    holds 1 + (j - 1 - r) mod (n - 1), n = d rounded up to even, and position
    j is paired with position n - 1 - j.  Odd d pads a dummy index d, which
    is in exactly one pair of every round; dropping those pairs keeps the
    arrays rectangular.
    """
    n = d + d % 2
    ring = 1 + (np.arange(n) - 1 - np.arange(n - 1)[:, None]) % (n - 1)
    ring[:, 0] = 0
    x, y = ring[:, : n // 2], ring[:, n // 2:][:, ::-1]
    p, q = np.minimum(x, y), np.maximum(x, y)
    real = q < d
    return p[real].reshape(n - 1, -1), q[real].reshape(n - 1, -1)


def _round_indices(d: int, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index arrays of rounds p, q (along the last axis) of a d x d matrix
    held as the top of a (2d, d) buffer: pq = (p, q), qp = (q, p), the flat
    indices `at` of a[p, q], a[p, p] and a[q, q], and the flat indices
    `zeroed`, in the buffer viewed as floats, of the entries a rotation sets
    to zero: both parts of a[p, q] and a[q, p], and the imaginary parts of
    a[p, p] and a[q, q]."""
    pq, qp = np.concatenate((p, q), axis=-1), np.concatenate((q, p), axis=-1)
    off = 2 * (d * pq + qp)
    at = np.concatenate((d * p + q, (d + 1) * pq), axis=-1)
    zeroed = np.concatenate((off, off + 1, 2 * (d + 1) * pq + 1), axis=-1)
    return pq, qp, at, zeroed


def _jacobi_rotate_round(av: np.ndarray, pq: np.ndarray, qp: np.ndarray, at: np.ndarray,
                         zeroed: np.ndarray, skip: float) -> None:
    """Annihilate a[p[k], q[k]] (and a[q[k], p[k]]) for every pair of one
    round with complex plane rotations.

    `av` stacks the matrix A over the accumulated rotations V, (2d, d), and
    the index arrays are the round's from `_round_indices`.  For the 2x2
    Hermitian block [[app, b], [conj(b), aqq]] with b = |b| w, the unitary
    [[c, -s w], [s conj(w), c]] zeroes the off-diagonal entry when
    tan(2*phi) solves the standard symmetric-Jacobi equation with |b| in
    place of the real coupling.  That real chain runs on Python floats,
    whose + - * / and sqrt round exactly as numpy's do.  The pairs are
    disjoint, so their rotations commute: the P/Q columns of A and V are
    rotated together, then A's P/Q rows.  Pairs whose entry is at most
    `skip` are dropped before any division.
    """
    k = pq.shape[0] // 2
    gathered = av.reshape(-1)[at]
    b = gathered[:k]
    absb = np.abs(b)
    moduli = absb.tolist()
    if min(moduli) <= skip:
        keep = absb > skip
        if keep.any():
            _jacobi_rotate_round(av, *_round_indices(av.shape[1], pq[:k][keep], pq[k:][keep]),
                                 skip)
        return
    diagonal = gathered.real[k:].tolist()
    cs, ss = [], []
    for modulus, app, aqq in zip(moduli, diagonal[:k], diagonal[k:]):
        theta = (aqq - app) / (2.0 * modulus)
        # -sign(theta), and t = 1 at theta == 0
        t = (-1.0 if theta > 0.0 else 1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        cs.append(c)
        ss.append(t * c)
    w = b / absb
    s = np.array(ss)
    sw = s * w
    swc = s * np.conj(w)

    # Entry k of pq is rotated with entry k of qp: new_p = c p + swc q on
    # columns, and new_q = c q - sw p; the rows take the conjugate mix.
    cc = np.array(cs + cs)
    col_mix = np.concatenate((swc, -sw))
    row_mix = np.concatenate((sw, -swc))[:, None]
    a = av[: av.shape[1]]
    av[:, pq] = cc * av[:, pq] + col_mix * av[:, qp]
    a[pq, :] = cc[:, None] * a[pq, :] + row_mix * a[qp, :]
    av.view(float).reshape(-1)[zeroed] = 0.0


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    off.flat[:: a.shape[0] + 1] = 0
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
    # The norms square the entries, which underflow for a tiny A: solve
    # 2^shift A, its largest part in [0.5, 1), and scale the eigenvalues back.
    # Multiplying by a power of two is exact.
    shift = 0
    if fro < JACOBI_TINY_NORM:
        parts = a.view(float)
        shift = -int(np.frexp(np.max(np.abs(parts)))[1])  # 0 for the zero matrix
        np.ldexp(parts, shift, out=parts)
        fro = float(np.linalg.norm(a))

    if d > 1 and fro > 0.0:
        target = JACOBI_REL_TOL * fro
        # Entries all below target/d cannot push the off-diagonal norm above
        # the target, so they are not worth a rotation.
        skip = target / d
        rounds = list(zip(*_round_indices(d, *_round_robin(d))))
        for _ in range(JACOBI_SWEEPS):
            if _offdiag_norm(a) <= target:
                break
            for indices in rounds:
                _jacobi_rotate_round(av, *indices, skip)
        else:
            raise NoConvergenceError(
                f"Jacobi sweep budget ({JACOBI_SWEEPS}) exhausted; "
                f"off-diagonal norm {_offdiag_norm(a):.3e} vs target {target:.3e}"
            )

    values = np.ldexp(np.diag(a).real, -shift)
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
