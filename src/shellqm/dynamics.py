"""Generalized flows psi-dot = -i dA/dpsi*: exact spectral solution, an
independent fixed-step RK4 integrator for cross-checks, and the shell-defect
functional that quantifies which quadratic generators preserve the shell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GeneralQuadraticObservable,
    HermitianObservable,
    StateVector,
    make_state,
    require_dim,
    require_positive_int,
)
from .errors import DimensionMismatchError, InvalidArgumentError, StepCountError
from .linalg import unitary_propagator

MAX_STEPS = 10**8
RK4_SHELL_TOL = 1e-6  # RK4 does not conserve the norm exactly; drift is measured


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States along a flow at ascending parameter values; `flow_numeric`
    records the two endpoints."""

    times: np.ndarray
    states: tuple[StateVector, ...]

    def __post_init__(self):
        if self.times.shape[0] != len(self.states):
            raise DimensionMismatchError("times and states have different lengths")

    @property
    def final(self) -> StateVector:
        return self.states[-1]


def flow(a: HermitianObservable, psi0: StateVector, t: float) -> StateVector:
    """Exact flow of the state under generator A for parameter t.

    Applies the unitary propagator U(t), the closed-form solution of
    psi-dot = -i A psi; the shell norm is preserved structurally.  The
    decomposition of A is memoized on the observable instance, so flowing
    along a grid of t with one `a` solves the eigenproblem once.
    """
    require_dim(psi0.dimension, a.dimension, "state")
    u = unitary_propagator(a, t)
    return make_state(u @ psi0.components, psi0.hbar)


def flow_numeric(
    a: HermitianObservable, psi0: StateVector, t: float, steps: int
) -> Trajectory:
    """Fixed-step classical RK4 integration of psi-dot = -i A psi, built from
    `a.matrix` alone as an independent cross-check of `flow`.

    For this linear ODE one RK4 step is exactly the matrix P = I + hM + (hM)^2/2
    + (hM)^3/6 + (hM)^4/24, M = -iA, h = t/steps, formed once in Horner form.
    Every step's state is checked against the shell at RK4_SHELL_TOL, so drift
    raises: a scalar screen at half that bound passes it, and `make_state`
    decides any step the screen does not.  Only the endpoints are kept.
    """
    require_dim(psi0.dimension, a.dimension, "state")
    require_positive_int(steps, "steps")
    if steps > MAX_STEPS:
        raise StepCountError(f"steps {steps} exceeds the cap of {MAX_STEPS}")

    hbar = psi0.hbar
    psi = psi0.components
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are refused, not warned about
        hm = (-1j * t / steps) * a.matrix
        eye = np.eye(a.dimension)
        step = eye
        for k in (4, 3, 2, 1):  # I + hM(I + hM/2(I + hM/3(I + hM/4)))
            step = eye + (hm / k) @ step
        if not np.isfinite(step).all():
            raise InvalidArgumentError(f"RK4 step matrix is not finite: step {t / steps:.3e}")
        for _ in range(steps):
            psi = step @ psi
            if not abs(np.vdot(psi, psi).real - hbar) <= 0.5 * RK4_SHELL_TOL * hbar:  # NaN fails
                make_state(psi, hbar, tol=RK4_SHELL_TOL)
    return Trajectory(np.array([0.0, t]), (psi0, make_state(psi, hbar, tol=RK4_SHELL_TOL)))


def shell_defect(gen: GeneralQuadraticObservable, psi: np.ndarray) -> float:
    """Rate of change of the shell norm sum |psi_n|^2 under the flow of `gen`.

    The generalized motion is psi_n-dot = -i (A_n + sum_m A_nm psi_m
    + 2 sum_m B_nm conj(psi_m)); the Hermitian part contributes exactly zero
    to the norm derivative, so the defect is
    2 Im(sum_n conj(psi_n) (A_n + 2 sum_m B_nm conj(psi_m))).

    Identically zero over all states iff the generator has no linear and no
    anomalous part -- the selection argument for Hermitian-form observables.
    """
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    require_dim(psi.shape[0], gen.dimension, "coordinates")
    conj_psi = np.conj(psi)
    inner = gen.linear + 2.0 * (gen.anomalous @ conj_psi)
    return 2.0 * float(np.imag(np.dot(conj_psi, inner)))
