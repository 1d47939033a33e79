"""Dense Hermitian eigensolver, commutators, and unitary propagators.

The eigensolver is a Jacobi iteration with complex rotations, applied
directly to the complex Hermitian matrix.  Jacobi is unconditionally stable
for Hermitian input and highly accurate at the small dimensions this package
targets.  Up to LAPACK_START_DIM it starts from the identity; above, from the
eigenvectors of numpy's LAPACK `eigh`, which its convergence test then
certifies, most often with no rotation at all.  A sweep is rounds in
round-robin order (d - 1 of them, or d for odd d), built in closed form as
two (rounds, pairs) index arrays and turned into a per-round plan once per
dimension and cached.  Each round's disjoint rotations are one update in
index order: every index takes its pair's coefficients and one gather of its
partner, first over the columns of the matrix and of the accumulated
rotations at once, then over the matrix's rows, with no scatter.  A round's
few rotation angles and complex coefficients are computed on Python numbers,
which round exactly as numpy does and cost less than numpy calls on arrays
of d / 2 entries.  It takes only a `HermitianObservable`, whose type
guarantees a square, exactly Hermitian matrix with a finite norm.

This module also binds numpy's private names the package calls: the LAPACK
gufuncs behind `np.linalg.qr` and `np.linalg.eigh`, and the FP-error state
machinery behind `np.errstate`.  A numpy that lacks one stops this import,
naming it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError
from numpy.linalg._umath_linalg import eigh_lo, qr_complete, qr_r_raw, qr_reduced

from .core import (JACOBI_REL_TOL, JACOBI_TINY_NORM, LAPACK_START_DIM, TOL_CLUSTER,
                   TOL_RESOLUTION, HermitianObservable, Value, fro_norm, phase_fix,
                   readonly_copy, require_dim)
from .errors import InvalidArgumentError, NoConvergenceError

JACOBI_SWEEPS = 50  # sweep budget of one Jacobi solve


def _raise_qr_error(err, flag):
    raise LinAlgError("Incorrect argument found while performing QR factorization")


def _raise_eigh_error(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# The FP-error states `np.linalg.qr` and `np.linalg.eigh` enter, built once:
# every field is set, so entering one does not depend on the caller's state
# (the buffer size, which these gufuncs do not use, is the one at import).
_QR_ERRSTATE = _make_extobj(call=_raise_qr_error, invalid="call", over="ignore",
                            divide="ignore", under="ignore")
_EIGH_ERRSTATE = _make_extobj(call=_raise_eigh_error, invalid="call", over="ignore",
                              divide="ignore", under="ignore")


def _orthonormal_columns(m: np.ndarray, complete: bool = False) -> np.ndarray:
    """`np.linalg.qr(m)[0]` of a complex block m, bit for bit, from the two
    LAPACK gufuncs behind it, without the wrapper's checks, copy and unused R
    factor; with `complete`, `np.linalg.qr(m, mode="complete")[0]` of a block
    with more rows than columns.  Overwrites m, so m must be a fresh array.
    The calls run in `np.linalg.qr`'s error state, prebuilt once as
    _QR_ERRSTATE and entered and left through numpy's context variable as
    `np.errstate` enters and leaves its own, but with no state built per
    call: the same warnings and errors, and the caller's state is back on
    return or raise.
    The one `qr_r_raw` gufunc is numpy 2's layout (numpy 1 split it by
    shape), hence the `numpy>=2.0` floor."""
    token = _extobj_contextvar.set(_QR_ERRSTATE)
    try:
        tau = qr_r_raw(m, signature="D->D")
        if complete:
            return qr_complete(m, tau, signature="DD->D")
        return qr_reduced(m, tau, signature="DD->D")
    finally:
        _extobj_contextvar.reset(token)


def _eigenvectors(h: np.ndarray) -> np.ndarray:
    """`np.linalg.eigh(h)[1]` of a complex Hermitian h, bit for bit, from the
    LAPACK gufunc behind it, in `np.linalg.eigh`'s error state, prebuilt once
    as _EIGH_ERRSTATE and entered as in `_orthonormal_columns`."""
    token = _extobj_contextvar.set(_EIGH_ERRSTATE)
    try:
        return eigh_lo(h, signature="D->dD")[1]
    finally:
        _extobj_contextvar.reset(token)


@dataclass(frozen=True, eq=False)
class EigenSystem(Value):
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are ascending; column k of `eigenvectors` is the unit-norm
    eigenvector of eigenvalues[k], phase-fixed so its first above-threshold
    component is real positive.  Eigenvalues equal within TOL_CLUSTER or
    TOL_RESOLUTION (see _cluster_labels) form one degeneracy cluster, one measurement
    outcome: `cluster[n]` is the outcome index of eigenvalue n (0 first, never
    decreasing) and `cluster_values[k]` the member mean of outcome k.  All
    four arrays are read-only.  `sweeps` and `rotations` count the solve's
    work: the Jacobi sweeps made, at most JACOBI_SWEEPS (most often 0 after
    the LAPACK start above LAPACK_START_DIM), and the pairs
    rotated in them (a pair skipped as already small is not counted); a
    solve of the same matrix repeats them exactly.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cluster: np.ndarray
    cluster_values: np.ndarray
    sweeps: int
    rotations: int

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors", "cluster", "cluster_values"):
            object.__setattr__(self, name, readonly_copy(getattr(self, name)))

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


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


@functools.lru_cache(maxsize=16)
def _sweep(d: int) -> tuple[tuple, ...]:
    """One sweep's rounds for dimension d >= 2, read-only and built once per
    dimension from `_round_robin(d)`: per round with pairs (p, q), the pairs
    as Python ints; each index's `partner`, itself for the odd-d index
    paired with the dummy; that `idle` index (None for even d); the flat
    indices `at` of a[p, q], a[p, p] and a[q, q] in the (2d, d) buffer; the
    flat indices `zeroed`, in the buffer viewed as floats, of the six
    entries per pair a rotation zeroes (both parts of a[p, q] and a[q, p],
    the imaginary parts of a[p, p] and a[q, q])."""
    p, q = _round_robin(d)
    rounds, k = p.shape
    r = np.arange(rounds)[:, None]
    partner = np.tile(np.arange(d), (rounds, 1))
    partner[r, p], partner[r, q] = q, p
    pq, qp = np.concatenate((p, q), axis=1), np.concatenate((q, p), axis=1)
    off = 2 * (d * pq + qp)
    at = np.concatenate((d * p + q, (d + 1) * pq), axis=1)
    zeroed = np.concatenate((off, off + 1, 2 * (d + 1) * pq + 1), axis=1).reshape(rounds, 6, k)
    for array in (partner, at, zeroed):
        array.setflags(write=False)
    idle = (partner == np.arange(d)).argmax(axis=1).tolist() if d % 2 else [None] * rounds
    pairs = [tuple(zip(p_row, q_row)) for p_row, q_row in zip(p.tolist(), q.tolist())]
    return tuple(zip(pairs, partner, idle, at, zeroed))


def _rotate_round(av: np.ndarray, plan: tuple, skip: float) -> int:
    """Annihilate a[p, q] (and a[q, p]) for every pair (p, q) of one round
    with complex plane rotations, and return how many pairs were rotated.

    `av` stacks the matrix A over the accumulated rotations V, (2d, d), and
    `plan` is the round's entry of `_sweep`.  For the 2x2 Hermitian block
    [[app, b], [conj(b), aqq]] with b = |b| w, the unitary
    [[c, -s w], [s conj(w), c]] zeroes the off-diagonal entry when
    tan(2*phi) solves the standard symmetric-Jacobi equation with |b| in
    place of the real coupling.  That real chain runs on Python floats,
    whose + - * / and sqrt round exactly as numpy's do.  The pairs are
    disjoint, so their rotations commute, and each index x with partner y
    is updated at once: A's and V's columns to cc x + col_mix y, then A's
    rows to cc x + row_mix y (cc = c; col_mix = s conj(w) on p and -s w on
    q; row_mix = s w on p and -s conj(w) on q).  A pair whose entry is at
    most `skip` is not rotated, nor is the odd-d idle index: they take
    cc = 1 and no mix, and their columns and rows are copied back from the
    gathers, because 1 x + 0 y turns a -0.0 into 0.0.

    The bits are those of separate updates of each pair (README, numerical
    notes): |b| is numpy's `abs`, which is not Python's; w = b / |b| and
    s w are numpy's complex division and product, formed on Python numbers
    with numpy's exact formulas; and the mixes multiply the gathers out of
    place, because numpy's in-place complex multiply with a broadcast operand
    rounds differently (cc, being real, scales the same either way).
    """
    pairs, partner, idle, at, zeroed = plan
    k = len(pairs)
    d = av.shape[1]
    gathered = av.reshape(-1)[at]
    absb = np.abs(gathered[:k])
    moduli = absb.tolist()
    entries = gathered.tolist()
    cc, col_mix, row_mix = [1.0] * d, [0.0] * d, [0.0] * d
    skipped, sources = [], []
    for (p, q), modulus, b, app, aqq in zip(pairs, moduli, entries, entries[k:], entries[2 * k:]):
        if modulus <= skip:  # dropped before any division
            skipped += p, q
            sources += q, p
            continue
        theta = (aqq.real - app.real) / (2.0 * modulus)
        # -sign(theta), and t = 1 at theta == 0
        t = (-1.0 if theta > 0.0 else 1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
        c = 1.0 / math.sqrt(t * t + 1.0)
        s = t * c
        # numpy's b / (|b| + 0j), whose scale 1 / (|b| + 0 * 0) is 1 / |b|
        r = 1.0 / modulus
        wr, wi = (b.real + b.imag * 0.0) * r, (b.imag - b.real * 0.0) * r
        # numpy's (s + 0j) * w and (s + 0j) * conj(w)
        sw = complex(s * wr - 0.0 * wi, s * wi + 0.0 * wr)
        swc = complex(s * wr - 0.0 * -wi, s * -wi + 0.0 * wr)
        cc[p] = cc[q] = c
        col_mix[p], col_mix[q] = swc, -sw
        row_mix[p], row_mix[q] = sw, -swc
    rotated = k - len(skipped) // 2
    if not rotated:
        return 0
    if rotated < k:
        zeroed = zeroed[:, absb > skip]
    coefficients = np.array(cc + col_mix + row_mix)
    cc, col_mix, row_mix = coefficients[:d], coefficients[d:2 * d], coefficients[2 * d:]

    y = av[:, partner]
    av *= cc
    av += col_mix * y
    if idle is not None:
        av[:, idle] = y[:, idle]
    if skipped:
        av[:, skipped] = y[:, sources]
    a = av[:d]
    y = a[partner]
    a *= cc[:, None]
    a += row_mix[:, None] * y
    if idle is not None:
        a[idle] = y[idle]
    if skipped:
        a[skipped] = y[sources]
    av.view(float).reshape(-1)[zeroed] = 0.0
    return rotated


def _offdiag_norm(a: np.ndarray) -> float:
    off = a.copy()
    off.flat[:: a.shape[0] + 1] = 0
    return fro_norm(off)


def _cluster_labels(values: np.ndarray) -> np.ndarray:
    """Outcome index of each ascending eigenvalue: a cluster starts at a gap above both
    TOL_CLUSTER times the pair and TOL_RESOLUTION times the spectral radius (each at least 1)."""
    a = np.maximum(1.0, np.abs(values))
    tol = np.maximum(TOL_CLUSTER * np.maximum(a[:-1], a[1:]), TOL_RESOLUTION * a.max())
    return np.concatenate(([0], (~(values[1:] - values[:-1] <= tol)).cumsum()))


def eigh(observable: HermitianObservable) -> EigenSystem:
    """Full spectral decomposition of an observable by Jacobi rotations.

    Output is deterministic for identical input: fixed round order, eigenvalues
    ascending, eigenvector phases fixed, and vectors inside a degeneracy
    cluster ordered by the index of their largest-modulus component.

    The decomposition is memoized per HermitianObservable instance: the first
    call solves and stores the system on the (immutable) observable, and later
    calls return that same EigenSystem.  A fresh instance built from the same
    matrix is solved again.

    Above LAPACK_START_DIM the rotations start from the eigenvectors of
    numpy's LAPACK `eigh`, so those spectra round as numpy's LAPACK build
    does; the same sweep loop certifies them.

    Raises TypeError for anything but a HermitianObservable, and
    NoConvergenceError if LAPACK fails on the start or the off-diagonal mass
    has not dropped below JACOBI_REL_TOL * ||A||_F within the sweep budget.
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
    fro = fro_norm(a)
    # The norms square the entries, which underflow for a tiny A: solve
    # 2^shift A, its largest part in [0.5, 1), and scale the eigenvalues back.
    # Multiplying by a power of two is exact.
    shift = 0
    if fro < JACOBI_TINY_NORM:
        parts = a.view(float)
        shift = -int(np.frexp(np.max(np.abs(parts)))[1])  # 0 for the zero matrix
        np.ldexp(parts, shift, out=parts)
        fro = fro_norm(a)

    sweeps = rotations = 0
    if d > 1 and fro > 0.0:
        if d > LAPACK_START_DIM:
            # Start from LAPACK's eigenvectors W: A becomes the Hermitian part
            # of W^H A W, formed so that it is exactly Hermitian, and V becomes
            # W.  The loop below certifies the start and rotates only if the
            # start misses its target.
            try:
                w = _eigenvectors(a)
            except LinAlgError as exc:
                raise NoConvergenceError(f"LAPACK eigh for the Jacobi start: {exc}") from None
            m = w.conj().T @ a @ w
            a[...] = 0.5 * m + 0.5 * m.conj().T
            v[...] = w
        target = JACOBI_REL_TOL * fro
        # Entries all below target/d cannot push the off-diagonal norm above
        # the target, so they are not worth a rotation.
        skip = target / d
        plans = _sweep(d)
        for sweeps in range(JACOBI_SWEEPS):
            if _offdiag_norm(a) <= target:
                break
            for plan in plans:
                rotations += _rotate_round(av, plan, skip)
        else:
            raise NoConvergenceError(
                f"Jacobi sweep budget ({JACOBI_SWEEPS}) exhausted; "
                f"off-diagonal norm {_offdiag_norm(a):.3e} vs target {target:.3e}"
            )

    values = np.ldexp(a.diagonal().real, -shift)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = v[:, order]

    for k in range(d):
        vectors[:, k] = phase_fix(vectors[:, k])
    cluster = _cluster_labels(values)
    # Deterministic order inside a cluster: by largest-modulus component index
    # of the phase-fixed vectors (a phase can move a modulus tie by a rounding),
    # ties by position (lexsort is stable).  Eigenvalues stay in sorted order;
    # members of a cluster agree to within the cluster tolerance, so the
    # pairing is unaffected at that resolution.
    vectors = vectors[:, np.lexsort((np.argmax(np.abs(vectors), axis=0), cluster))]
    cluster_values = np.bincount(cluster, values) / np.bincount(cluster)
    return EigenSystem(values, vectors, cluster, cluster_values, sweeps, rotations)


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
