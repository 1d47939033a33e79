"""Domain types shared by every module: oscillator parameters, phase-space
points, on-shell state vectors with phase-equivalence semantics, and Hermitian
observables.

States live on the sphere <psi|psi> = hbar.  Two state vectors differing by a
unit-modulus factor describe the same physical state; `canonical_phase` picks
a deterministic representative and `states_equal` compares up to phase.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotHermitianError,
    OffShellError,
    ZeroVectorError,
)

# Every threshold of the package, each relative to what its comment names.
TOL_SHELL = 1e-10        # shell norm residual, relative to hbar
TOL_HERM = 1e-12         # Hermiticity residual of O(1) entries, relative to nothing
TOL_ZERO = 1e-12         # "numerically zero" component modulus, relative to the norm
TOL_SAME_STATE = 1e-9    # overlap deficit of one physical state, relative to hbar
JACOBI_REL_TOL = 1e-12   # Jacobi's off-diagonal Frobenius norm, relative to ||A||_F
JACOBI_TINY_NORM = 1e-100  # ||A||_F below which Jacobi solves 2^k A, relative to nothing
LAPACK_START_DIM = 8     # d above which Jacobi starts from LAPACK's eigenvectors: both goldens
                         # (d = 2, 5) and the `spectral` pool (d = 2..8) keep their bits
TOL_RESOLUTION = 100.0 * JACOBI_REL_TOL  # eigenvalues, relative to the spectral radius (at least 1)
TOL_CLUSTER = 1e-8       # eigenvalue gap of one outcome, relative to the pair (at least 1)
TOL_GRAM = 1e-10         # admissible basis's max |Gram - I|, relative to nothing
TOL_START = 1e-8         # minimizer start norm below which it is skipped, relative to nothing
RK4_SHELL_TOL = 1e-6     # RK4 shell residual (RK4 drifts off the shell), relative to hbar
TOL_REST = 1e-6          # |f(0)| of a black-box phase-space function, relative to nothing
TOL_MEAN_GUARD = 1e-12   # mean check's rounding guard, relative to the level (at least 1)
TOL_CF = 1e-6            # Courant-Fischer deviation, relative to the level (at least 1)
TOL_NORM_DRIFT = 1e-9    # shell-norm drift of the exact flow, relative to hbar
POOL_MIN_EXPECTED = 5.0  # expected count below which chi-square pools, relative to nothing
MAX_TRIALS = 10**8  # bounds time only (1 to 2 s at d = 2 to 64); run_trials holds one chunk of draws


def readonly_copy(x, dtype=None) -> np.ndarray:
    """A read-only copy of `x`, in its layout: how every value type stores an array."""
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


class Value:
    """Base of the value types: a copy or a pickle is rebuilt by the constructor from the fields,
    so it is admitted again (a state on its shell), read-only and without a memo."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def require_positive(value, name: str) -> None:
    """Refuse a `value` that is not a positive finite real number (a bool is not
    one): the package's one rule for hbar, mass, omega, tolerances and step sizes."""
    number = value
    if type(value) is not float:  # a float is a Real and no bool: it skips the costly checks
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            number = math.nan
        elif isinstance(value, (np.float16, np.float32)):  # the bound cast to either overflows
            number = float(value)
    if not 0 < number <= sys.float_info.max:  # NaN fails too
        raise InvalidArgumentError(f"{name} must be a positive finite number, got {value!r}")


def require_positive_int(value, name: str) -> None:
    """Refuse a `value` that is not an integer of at least 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidArgumentError(f"{name} must be a positive integer, got {value!r}")


def require_dim(actual: int, expected: int, what: str) -> None:
    """Refuse an operand whose dimension differs from the one it must match."""
    if actual != expected:
        raise DimensionMismatchError(f"{what}: dimension {actual} does not match {expected}")


@dataclass(frozen=True)
class OscillatorParams:
    """Parameters of the d-dimensional oscillator model.

    The derived energy is hbar*omega; the derived spin (d-1)/2 is interpretive
    metadata with no operational role.
    """

    dimension: int
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        require_positive_int(self.dimension, "dimension")
        for name in ("mass", "omega", "hbar"):
            require_positive(getattr(self, name), name)

    @property
    def energy(self) -> float:
        return self.hbar * self.omega

    @property
    def spin(self) -> float:
        return (self.dimension - 1) / 2


@dataclass(frozen=True, eq=False)
class PhaseSpacePoint(Value):
    """Real coordinates and momenta (q_n, p_n) of the oscillator."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(readonly_copy(self.q, float))
        p = np.atleast_1d(readonly_copy(self.p, float))
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise DimensionMismatchError(
                f"q and p must be 1-d vectors of equal length, got {q.shape} and {p.shape}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dimension(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector(Value):
    """Complex state vector on the shell <psi|psi> = hbar, however it is built: the constructor
    admits a nonempty 1-d vector (a scalar is a 1-vector) of finite components whose squared
    norm, for a positive finite hbar, does not overflow and lies within RK4_SHELL_TOL*hbar of it,
    the loosest bound of any state the package keeps (`make_state` holds its own to TOL_SHELL).
    Compare with `states_equal`, never `==`: vectors differing by a pure phase are one state."""

    components: np.ndarray
    hbar: float

    def __post_init__(self):
        psi = np.atleast_1d(readonly_copy(self.components, complex))
        if psi.ndim != 1 or psi.shape[0] == 0:
            raise DimensionMismatchError("state components must be a nonempty 1-d vector")
        require_positive(self.hbar, "hbar")
        hbar, norm_sq = float(self.hbar), _squared_norm(psi)
        if abs(norm_sq - hbar) > RK4_SHELL_TOL * hbar:
            raise OffShellError(norm_sq - hbar)
        object.__setattr__(self, "components", psi)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "_norm_sq", norm_sq)

    @property
    def dimension(self) -> int:
        return self.components.shape[0]

    def norm_squared(self) -> float:
        return self._norm_sq


def fro_norm(x: np.ndarray) -> float:
    """`np.linalg.norm(x)` of a complex array x, bit for bit (the same dot products of
    the real and imaginary parts of `x.ravel(order="K")`), without the wrapper's dispatch."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _hermitian_residual(matrix) -> float:
    """max |M_nm - conj(M_mn)|: 0 when empty, NaN or inf when an entry is."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: refused, not warned about
        return float(np.abs(m - m.conj().T).max(initial=0.0))


def hermitian_part(matrix, tol: float = TOL_HERM) -> np.ndarray:
    """Exact Hermitian part (M + M^H) / 2, halved before the sum so it cannot overflow, of
    a nonempty matrix within `tol` of Hermitian (NotHermitianError otherwise, and for a NaN
    or inf entry).  An exactly Hermitian matrix is returned as is, signed zeros included."""
    m = np.asarray(matrix, dtype=complex)
    resid = _hermitian_residual(m)
    if m.shape[0] == 0:
        raise DimensionMismatchError("matrix must have at least one row")
    if resid == 0.0:
        return m
    if not resid <= tol:
        raise NotHermitianError(f"matrix is not Hermitian (max residual {resid:.3e})")
    return 0.5 * m + 0.5 * m.conj().T


@dataclass(frozen=True, eq=False)
class HermitianObservable(Value):
    """Quantum observable: the Hermitian matrix of the form <psi|A|psi>.

    The input must be Hermitian within the fixed TOL_HERM (no override reaches it)
    and have a finite norm.  The matrix is a read-only copy of its exact Hermitian
    part, so an instance is immutable and `linalg.eigh` can keep its decomposition.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = hermitian_part(self.matrix)
        with np.errstate(over="ignore"):  # an overflow is refused, not warned about
            if not math.isfinite(fro_norm(m)):
                raise InvalidArgumentError("observable matrix is too large: its norm overflows")
        object.__setattr__(self, "matrix", readonly_copy(m))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class GeneralQuadraticObservable(Value):
    """Quadratic truncation of a real phase-space function: constant + linear
    + Hermitian form + anomalous (conjugate-pair) terms."""

    constant: float
    linear: np.ndarray
    hermitian: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        lin = np.atleast_1d(readonly_copy(self.linear, complex))
        herm = np.asarray(self.hermitian, dtype=complex)
        anom = readonly_copy(self.anomalous, complex)
        d = lin.shape[0]
        if herm.shape != (d, d) or anom.shape != (d, d):
            raise DimensionMismatchError(
                f"linear part has length {d} but matrices have shapes "
                f"{herm.shape} and {anom.shape}"
            )
        herm = readonly_copy(hermitian_part(herm))
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: refused, not warned about
            if not np.max(np.abs(anom - anom.T), initial=0.0) <= TOL_HERM:
                raise NotHermitianError("anomalous part must be symmetric")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "hermitian", herm)
        object.__setattr__(self, "anomalous", anom)

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]


def _squared_norm(psi: np.ndarray) -> float:
    """sum |psi_n|^2, refusing a non-finite entry and a sum that overflows."""
    with np.errstate(over="ignore"):
        norm_sq = float(np.add.reduce(np.abs(psi) ** 2))  # np.sum's reduction, without its dispatch
    if not math.isfinite(norm_sq):
        if not np.isfinite(psi).all():
            raise InvalidArgumentError("state has a non-finite component")
        raise InvalidArgumentError("state is too large: its norm overflows")
    return norm_sq


def make_state(components, hbar: float) -> StateVector:
    """Admit `components` as a StateVector (which keeps a copy) held to the shell at TOL_SHELL.

    Raises OffShellError when |sum |psi_n|^2 - hbar| > TOL_SHELL*hbar, and the constructor's
    refusals: InvalidArgumentError on a non-finite component, an overflowing sum or an hbar
    that is not positive and finite, DimensionMismatchError on empty input.
    """
    state = StateVector(components, hbar)
    residual = state.norm_squared() - state.hbar
    if abs(residual) > TOL_SHELL * state.hbar:
        raise OffShellError(residual)
    return state


def project_to_shell(raw, hbar: float) -> StateVector:
    """Rescale an arbitrary nonzero vector onto the shell of radius sqrt(hbar)."""
    raw = np.array(raw, dtype=complex, copy=None, ndmin=1)
    if raw.ndim != 1 or raw.shape[0] == 0:
        raise DimensionMismatchError("input must be a nonempty 1-d vector")
    require_positive(hbar, "hbar")
    norm_sq = _squared_norm(raw)
    if not norm_sq >= sys.float_info.min:  # zero, or too small to rescale: its square underflows
        raise ZeroVectorError("cannot project the zero vector onto the shell")
    return make_state(raw * np.sqrt(hbar / norm_sq), hbar)


def phase_fix(components: np.ndarray) -> np.ndarray:
    """Rotate a nonzero vector so its first component above TOL_ZERO * ||v||_2
    is real and positive.  Keyed on the first such component (not the largest)
    so the representative is stable under small perturbations of other entries."""
    idx = (np.abs(components) > TOL_ZERO * fro_norm(components)).nonzero()[0]
    lead = components[idx[0]]
    if lead.imag == 0.0 and lead.real > 0.0:
        return np.array(components, dtype=complex)
    phase = lead / abs(lead)
    out = components * np.conj(phase)
    # pin the lead entry exactly real positive so the map is idempotent
    out[idx[0]] = abs(lead)
    return out


def canonical_phase(state: StateVector) -> StateVector:
    """Phase-equivalent representative with the leading component real positive.

    Idempotent, and preserves the shell norm up to a unit-modulus rounding.
    """
    return StateVector(phase_fix(state.components), state.hbar)


def states_equal(a: StateVector, b: StateVector, tol: float = TOL_SAME_STATE) -> bool:
    """True iff a and b are the same physical state: |<a|b>| >= hbar*(1 - tol)."""
    require_dim(b.dimension, a.dimension, "state")
    if a.hbar != b.hbar:
        raise DimensionMismatchError("states live on shells of different radius")
    overlap = abs(np.vdot(a.components, b.components))
    return overlap >= a.hbar * (1.0 - tol)


def config_observable(d: int) -> HermitianObservable:
    """Configuration observable: diagonal matrix with entries 1, 2, ..., d.

    Its outcome n labels the plane (q_n, p_n) the oscillator is confined to.
    """
    require_positive_int(d, "dimension")
    return HermitianObservable(np.diag(np.arange(1, d + 1).astype(complex)))
