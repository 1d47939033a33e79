"""Generalized flows psi-dot = -i dA/dpsi*: exact spectral solution, an
independent fixed-step RK4 integrator for cross-checks (its steps taken in
blocks of precomputed step-matrix powers, every step checked against the
shell), and the shell-defect functional that quantifies which quadratic
generators preserve the shell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RK4_SHELL_TOL,
    GeneralQuadraticObservable,
    HermitianObservable,
    StateVector,
    make_state,
    require_dim,
    require_positive_int,
)
from .errors import InvalidArgumentError
from .linalg import unitary_propagator

MAX_STEPS = 10**8  # bounds time only (45, 56 and 300 s at d = 2, 8 and 64, from 1e6 and 1e5 steps)
RK4_BLOCK = 32  # steps per batched product, a power of two; its powers hold RK4_BLOCK * d^2 numbers


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The final state of a flow that `flow_numeric` integrates."""

    final: StateVector


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
    + (hM)^3/6 + (hM)^4/24, M = -iA, h = t/steps, formed once in Horner form,
    with its powers P, P^2, .., P^RK4_BLOCK by doubling.  The steps run in
    blocks: the block's states are one batched product of the powers with the
    state it starts from, and the last carries on to the next block.  Every
    step's state is checked against the shell at RK4_SHELL_TOL, so drift
    raises even mid-block: a norm screen at half that bound passes a state, and
    the `StateVector` constructor decides, in step order, every state it does not.
    Powers past the first that leaves the float range are not used (a mode
    the state does not occupy may outgrow it), so a block is then shorter.
    Only the final state is kept.
    """
    require_dim(psi0.dimension, a.dimension, "state")
    require_positive_int(steps, "steps")
    if steps > MAX_STEPS:
        raise InvalidArgumentError(f"steps {steps} exceeds the cap of {MAX_STEPS}")

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
        powers = step[None]
        while powers.shape[0] < min(RK4_BLOCK, steps):
            powers = np.concatenate((powers, powers[-1] @ powers))
        finite = np.isfinite(powers).all(axis=(1, 2))
        if not finite.all():
            powers = powers[: np.argmin(finite)]
        block = powers.shape[0]
        screen = 0.5 * RK4_SHELL_TOL * hbar
        for start in range(0, steps, block):
            states = powers[: steps - start] @ psi
            parts = states.view(float)
            dev = np.abs(np.add.reduce(parts * parts, axis=1) - hbar)
            if not np.maximum.reduce(dev) <= screen:  # NaN fails: only then mask and decide
                for off in states[~(dev <= screen)]:  # refused beyond RK4_SHELL_TOL
                    StateVector(off, hbar)
            psi = states[-1]
    return Trajectory(StateVector(psi, hbar))


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
