"""Dense Hermitian eigensolver, commutators, and unitary propagators.

The eigensolver is a self-contained cyclic Jacobi iteration with complex
rotations, applied directly to the complex Hermitian matrix.  Jacobi is
unconditionally stable for Hermitian input and highly accurate at the small
dimensions this package targets (d up to a few dozen), with no dependency on
an external eigensolver.  It takes only a `HermitianObservable`, whose type
guarantees a square, exactly Hermitian matrix with a finite norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HermitianObservable, phase_fix, require_dim
from .errors import InvalidArgumentError, NoConvergenceError

# Convergence and clustering controls for the Jacobi sweep.
JACOBI_REL_TOL = 1e-12   # off-diagonal Frobenius norm relative to ||A||_F
JACOBI_SWEEPS = 50
TOL_CLUSTER = 1e-8       # relative eigenvalue gap treated as degenerate


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; column k of `eigenvectors` is the unit-norm
    eigenvector of eigenvalues[k], phase-fixed so its first above-threshold
    component is real positive.  `clusters` partitions the indices into groups
    of eigenvalues equal within the relative tolerance TOL_CLUSTER; each
    cluster is one measurement outcome.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def cluster_values(self) -> np.ndarray:
        """Representative value (member mean) of each degeneracy cluster."""
        return np.array([float(np.mean(self.eigenvalues[list(c)])) for c in self.clusters])

    def reconstruct(self) -> np.ndarray:
        """Sum of a_n |a_n><a_n| over the spectrum."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Annihilate a[p, q] (and a[q, p]) with a complex plane rotation.

    For the 2x2 Hermitian block [[app, b], [conj(b), aqq]] with b = |b| w,
    the unitary [[c, -s w], [s conj(w), c]] zeroes the off-diagonal entry
    when tan(2*phi) solves the standard symmetric-Jacobi equation with |b|
    in place of the real coupling.
    """
    b = a[p, q]
    absb = abs(b)
    w = b / absb
    theta = (a[q, q].real - a[p, p].real) / (2.0 * absb)
    if theta == 0.0:
        t = 1.0
    else:
        t = -np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    sw = s * w
    swc = s * np.conj(w)

    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = c * colp + swc * colq
    a[:, q] = -sw * colp + c * colq
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = c * rowp + sw * rowq
    a[q, :] = -swc * rowp + c * rowq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = c * vp + swc * vq
    v[:, q] = -sw * vp + c * vq


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _cluster_indices(values: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Group ascending eigenvalues whose consecutive relative gap is within
    TOL_CLUSTER (transitive closure along the sorted order)."""
    clusters: list[list[int]] = [[0]]
    for k in range(1, values.shape[0]):
        prev, cur = values[k - 1], values[k]
        scale = max(1.0, abs(prev), abs(cur))
        if cur - prev <= TOL_CLUSTER * scale:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return tuple(tuple(c) for c in clusters)


def eigh(observable: HermitianObservable) -> EigenSystem:
    """Full spectral decomposition of an observable by cyclic Jacobi.

    Output is deterministic for identical input: fixed sweep order, eigenvalues
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
    a = matrix.copy()
    fro = float(np.linalg.norm(a))
    d = a.shape[0]
    v = np.eye(d, dtype=complex)

    if d > 1 and fro > 0.0:
        target = JACOBI_REL_TOL * fro
        # Entries all below target/d cannot push the off-diagonal norm above
        # the target, so they are not worth a rotation.
        skip = target / d
        for _ in range(JACOBI_SWEEPS):
            if _offdiag_norm(a) <= target:
                break
            for p in range(d - 1):
                for q in range(p + 1, d):
                    if abs(a[p, q]) > skip:
                        _jacobi_rotate(a, v, p, q)
        else:
            raise NoConvergenceError(
                f"Jacobi sweep budget ({JACOBI_SWEEPS}) exhausted; "
                f"off-diagonal norm {_offdiag_norm(a):.3e} vs target {target:.3e}"
            )

    values = np.diag(a).real.copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]

    clusters = _cluster_indices(values)
    # Deterministic order inside a cluster: by largest-modulus component index.
    # Eigenvalues stay in sorted order; members of a cluster agree to within
    # the cluster tolerance, so the pairing is unaffected at that resolution.
    for cluster in clusters:
        if len(cluster) > 1:
            sub = list(cluster)
            keys = [int(np.argmax(np.abs(vectors[:, k]))) for k in sub]
            vectors[:, sub] = vectors[:, [k for _, k in sorted(zip(keys, sub))]]
    for k in range(d):
        vectors[:, k] = phase_fix(vectors[:, k])
    vectors.setflags(write=False)
    values.setflags(write=False)
    return EigenSystem(values, vectors, clusters)


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
