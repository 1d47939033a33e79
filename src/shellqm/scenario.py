"""Scenario documents: a JSON description of one measurement setup.

Complex data is carried as separate re/im arrays, since complex literals are
not portable across serialization formats.  A scenario round-trips exactly:
serializing and re-parsing reproduces every field bit for bit.

Example document:

    {
      "dimension": 2,
      "hbar": 1.0,
      "mass": 1.0,
      "omega": 1.0,
      "observable": {"re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]]},
      "state": {"re": [1, 1], "im": [0, 0]},
      "normalize": true,
      "seed": 42,
      "trials": 100000
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (MAX_TRIALS, TOL_HERM, TOL_SHELL, HermitianObservable, OscillatorParams,
                   StateVector, Value, hermitian_part, make_state, project_to_shell,
                   readonly_copy, require_positive)
from .errors import (InvalidArgumentError, NotHermitianError, OffShellError, ScenarioParseError,
                     ScenarioValidationError, ZeroVectorError)

KNOWN_TOLERANCES = ("shell", "herm")


@dataclass(frozen=True, eq=False)
class Scenario(Value):
    """Validated measurement setup: dimensions, observable, prepared state.

    However it is built, it makes every field check with the error and message that
    `parse_scenario` reports.  The core then admits the Hermitian part and the on-shell state
    (`parse_scenario` reports its refusals as ScenarioValidationError), and both are kept.
    `tolerances`, a mapping or pairs kept as (name, value) pairs, only decide admission."""

    dimension: int
    hbar: float
    mass: float
    omega: float
    observable_re: np.ndarray
    observable_im: np.ndarray
    state_re: np.ndarray
    state_im: np.ndarray
    normalize: bool
    seed: int
    trials: int
    tolerances: tuple = ()

    def __post_init__(self):
        tolerances = dict(self.tolerances)
        object.__setattr__(self, "tolerances", tuple(tolerances.items()))
        for key, value in tolerances.items():
            if key not in KNOWN_TOLERANCES:
                raise ScenarioParseError(f"unknown tolerance {key!r} (known: {KNOWN_TOLERANCES})")
            try:
                require_positive(value, f"tolerance {key!r}")
            except InvalidArgumentError as exc:
                raise ScenarioParseError(str(exc)) from None
        try:
            OscillatorParams(self.dimension, mass=self.mass, omega=self.omega, hbar=self.hbar)
        except InvalidArgumentError as exc:
            raise ScenarioValidationError(str(exc)) from None
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ScenarioValidationError(f"trials must be between 1 and {MAX_TRIALS}, got {self.trials}")
        for name, shape in (("observable", (self.dimension,) * 2), ("state", (self.dimension,))):
            try:
                re = readonly_copy(getattr(self, f"{name}_re"), float)
                im = readonly_copy(getattr(self, f"{name}_im"), float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioParseError(f"field {name!r} is not numeric: {exc}") from None
            if re.shape != shape or im.shape != shape:
                raise ScenarioParseError(
                    f"field {name!r} must have shape {shape}, got re {re.shape} / im {im.shape}")
            if not (np.isfinite(re).all() and np.isfinite(im).all()):
                raise ScenarioParseError(f"field {name!r} contains non-finite entries")
            object.__setattr__(self, f"{name}_re", re)
            object.__setattr__(self, f"{name}_im", im)
        m = self.observable_re + 1j * self.observable_im
        obs = HermitianObservable(hermitian_part(m, tolerances.get("herm", TOL_HERM)))
        raw = self.state_re + 1j * self.state_im
        if not self.normalize:
            make_state(raw, self.hbar, tol=tolerances.get("shell", TOL_SHELL))
        object.__setattr__(self, "_observable", obs)
        object.__setattr__(self, "_state", project_to_shell(raw, self.hbar))

    def observable(self) -> HermitianObservable:
        return self._observable

    def state(self) -> StateVector:
        return self._state

    def to_dict(self) -> dict:
        doc = {
            "dimension": self.dimension,
            "hbar": self.hbar,
            "mass": self.mass,
            "omega": self.omega,
            "observable": {"re": self.observable_re.tolist(), "im": self.observable_im.tolist()},
            "state": {"re": self.state_re.tolist(), "im": self.state_im.tolist()},
            "normalize": self.normalize,
            "seed": self.seed,
            "trials": self.trials,
        }
        if self.tolerances:
            doc["tolerances"] = dict(self.tolerances)
        return doc


def _field(doc: dict, name: str, kind, required: bool = True, default=None):
    if name not in doc:
        if required:
            raise ScenarioParseError(f"missing required field {name!r}")
        return default
    value = doc[name]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioParseError(f"field {name!r} must be an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioParseError(f"field {name!r} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ScenarioParseError(f"field {name!r} is beyond the range of a double") from None
    elif kind is bool:
        if not isinstance(value, bool):
            raise ScenarioParseError(f"field {name!r} must be a boolean, got {value!r}")
    elif kind is dict:
        if not isinstance(value, dict):
            raise ScenarioParseError(f"field {name!r} must be an object, got {value!r}")
    return value


def _complex_parts(doc: dict, name: str) -> tuple:
    entry = _field(doc, name, dict)
    for part in ("re", "im"):
        if part not in entry:
            raise ScenarioParseError(f"field {name!r} needs {part!r} array")
    return entry["re"], entry["im"]


def parse_scenario(text: str | bytes, overrides: dict | None = None) -> Scenario:
    """Read a scenario document: its JSON, each field's type and default, and the
    `overrides`, tolerance values that replace the document's own entries.  The
    `Scenario` built from it checks every value (a tolerance must be a known name
    with a positive finite value).

    ScenarioParseError carries the line/field context of a malformed document;
    ScenarioValidationError flags a well-formed one that violates the model
    constraints (non-Hermitian observable, off-shell state without normalize,
    non-positive dimension/hbar, trials outside 1..MAX_TRIALS).
    """
    if not text.strip():
        raise ScenarioParseError("empty scenario document")
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # malformed JSON or UTF-8, or an integer past the digit limit
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise ScenarioParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")

    d = _field(doc, "dimension", int)
    hbar = _field(doc, "hbar", float, required=False, default=1.0)
    mass = _field(doc, "mass", float, required=False, default=1.0)
    omega = _field(doc, "omega", float, required=False, default=1.0)
    normalize = _field(doc, "normalize", bool, required=False, default=False)
    seed = _field(doc, "seed", int, required=False, default=0)
    trials = _field(doc, "trials", int, required=False, default=10000)
    tolerances = {**_field(doc, "tolerances", dict, required=False, default={}),
                  **(overrides or {})}
    obs_re, obs_im = _complex_parts(doc, "observable")
    state_re, state_im = _complex_parts(doc, "state")

    try:
        return Scenario(dimension=d, hbar=hbar, mass=mass, omega=omega, observable_re=obs_re,
                        observable_im=obs_im, state_re=state_re, state_im=state_im,
                        normalize=normalize, seed=seed, trials=trials, tolerances=tolerances)
    except OffShellError as exc:
        raise ScenarioValidationError(
            f"state is off shell (residual {exc.residual:.6g}); set normalize=true to rescale"
        ) from None
    except (InvalidArgumentError, NotHermitianError, ZeroVectorError) as exc:
        raise ScenarioValidationError(str(exc)) from None
