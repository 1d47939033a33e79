"""Shared helpers for the test suite."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

# When a property fails, hypothesis' pytest plugin imports its patch helper,
# which imports mypy_extensions, whose DeprecationWarning the suite's
# filterwarnings = ["error"] turns into an INTERNALERROR that hides the
# falsifying example.  Imported once here, ignoring only that category.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from shellqm.core import TOL_HERM, _hermitian_residual
from shellqm.experiments import random_hermitian, random_state

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def check_hermitian(matrix) -> bool:
    """True iff max |M_nm - conj(M_mn)| <= TOL_HERM (NotSquareError when not square)."""
    return _hermitian_residual(matrix) <= TOL_HERM


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
