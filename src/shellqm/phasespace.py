"""Maps between real phase-space coordinates and complex state vectors,
observable evaluation on the shell, and the Poisson-bracket structure.

The complex coordinates are psi_n = sqrt(m*omega/2) q_n + i p_n / sqrt(2 m
omega); in them the constant-energy ellipsoid becomes the sphere
<psi|psi> = hbar, and quadratic observables become Hermitian forms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import (
    TOL_REST,
    GeneralQuadraticObservable,
    HermitianObservable,
    OscillatorParams,
    PhaseSpacePoint,
    StateVector,
    require_dim,
    require_positive,
    require_positive_int,
)
from .errors import NonRealValueError, NotVanishingAtRestError


def to_complex(pt: PhaseSpacePoint, params: OscillatorParams) -> np.ndarray:
    """Complex coordinates psi_n = sqrt(m w / 2) q_n + i (2 m w)^(-1/2) p_n."""
    require_dim(pt.dimension, params.dimension, "phase-space point")
    scale = np.sqrt(params.mass * params.omega / 2.0)
    return scale * pt.q + 1j * pt.p / (2.0 * scale)


def to_real(psi: np.ndarray, params: OscillatorParams) -> PhaseSpacePoint:
    """Exact inverse of `to_complex`."""
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    require_dim(psi.shape[0], params.dimension, "complex coordinates")
    scale = np.sqrt(params.mass * params.omega / 2.0)
    return PhaseSpacePoint(q=psi.real / scale, p=psi.imag * 2.0 * scale)


def shell_residual(pt: PhaseSpacePoint, params: OscillatorParams) -> float:
    """Energy-shell residual sum_n (p_n^2/(2 m w) + (m w/2) q_n^2) - hbar.

    Zero exactly when the point's complex coordinates lie on the sphere
    <psi|psi> = hbar; the two constraint forms are algebraically identical.
    """
    require_dim(pt.dimension, params.dimension, "phase-space point")
    mw = params.mass * params.omega
    energy_form = float(np.sum(pt.p**2 / (2.0 * mw) + (mw / 2.0) * pt.q**2))
    return energy_form - params.hbar


def evaluate_observable(obs: HermitianObservable, state: StateVector) -> float:
    """Value of the Hermitian form <psi|A|psi> at the state.  A is exactly
    Hermitian, so the form is real: the computed imaginary part is rounding."""
    require_dim(state.dimension, obs.dimension, "state")
    return float(np.vdot(state.components, obs.matrix @ state.components).real)


def evaluate_general(gen: GeneralQuadraticObservable, psi: np.ndarray) -> float:
    """Value of a general quadratic observable at arbitrary complex coordinates.

    constant + 2 Re(sum conj(A_n) psi_n) + <psi|A|psi>
             + 2 Re(sum B_nm conj(psi_n) conj(psi_m)),
    each term real (the stored A is exactly Hermitian).
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    require_dim(psi.shape[0], gen.dimension, "coordinates")
    linear = 2.0 * np.real(np.vdot(gen.linear, psi))
    hermitian = np.vdot(psi, gen.hermitian @ psi).real
    conj_psi = np.conj(psi)
    anomalous = 2.0 * np.real(conj_psi @ gen.anomalous @ conj_psi)
    return float(gen.constant + linear + hermitian + anomalous)


def poisson_bracket(
    a: HermitianObservable, b: HermitianObservable, state: StateVector
) -> float:
    """Poisson bracket {A, B} at the state, computed as i <psi|[A, B]|psi>;
    a value that is not finite raises NonRealValueError.

    The commutator path is exact up to rounding; the equivalent derivative
    form i (dA/dpsi dB/dpsi* - dA/dpsi* dB/dpsi) is kept to tests as the
    oracle for the bracket-commutator isomorphism.
    """
    require_dim(b.dimension, a.dimension, "observable")
    require_dim(state.dimension, a.dimension, "state")
    psi = state.components
    apsi = a.matrix @ psi
    bpsi = b.matrix @ psi
    # i(<A psi|B psi> - <B psi|A psi>) = -2 Im <A psi|B psi>
    value = -2.0 * float(np.imag(np.vdot(apsi, bpsi)))
    if not math.isfinite(value):
        raise NonRealValueError(f"bracket value is not finite: {value!r}")
    return value


def hermitian_from_function(
    f: Callable[[np.ndarray], float], d: int, step: float = 1e-3
) -> HermitianObservable:
    """Extract the Hermitian kernel of a black-box quadratic observable.

    form(u) = u^H A u is half the mean of f's central second differences
    along u and i u (the anomalous term flips sign between them; the linear
    one is odd).
    Polarization gives Re A_nm = (form(e_n + e_m) - form(e_n - e_m)) / 4 and
    Im A_nm = (form(e_n - i e_m) - form(e_n + i e_m)) / 4; the lower triangle
    mirrors the upper, so the result is exactly Hermitian.  8 d^2 - 4 d + 1
    calls of f.  f must vanish at rest: |f(0)| <= TOL_REST.
    """
    require_positive_int(d, "dimension")
    require_positive(step, "step")
    f0 = float(f(np.zeros(d, dtype=complex)))
    if abs(f0) > TOL_REST:
        raise NotVanishingAtRestError(f"|f(0)| = {abs(f0):.3e} exceeds {TOL_REST:g}")

    h = step
    eye = np.eye(d, dtype=complex)

    def form(u: np.ndarray) -> float:
        along_u = f(h * u) - 2.0 * f0 + f(-h * u)
        along_iu = f(1j * h * u) - 2.0 * f0 + f(-1j * h * u)
        return 0.25 * (along_u / (h * h) + along_iu / (h * h))

    kernel = np.zeros((d, d), dtype=complex)
    for n in range(d):
        kernel[n, n] = form(eye[n])
        for m in range(n + 1, d):
            re = form(eye[n] + eye[m]) - form(eye[n] - eye[m])
            im = form(eye[n] - 1j * eye[m]) - form(eye[n] + 1j * eye[m])
            kernel[n, m] = 0.25 * complex(re, im)
            kernel[m, n] = np.conj(kernel[n, m])
    return HermitianObservable(kernel)
