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
from dataclasses import dataclass, fields

import numpy as np

from .core import (MAX_TRIALS, TOL_HERM, TOL_SHELL, HermitianObservable, OscillatorParams,
                   StateVector, Value, _squared_norm, hermitian_part, project_to_shell,
                   readonly_copy, require_positive)
from .errors import (InvalidArgumentError, NotHermitianError, OffShellError, ScenarioParseError,
                     ScenarioValidationError, ZeroVectorError)

KNOWN_TOLERANCES = ("shell", "herm")
# A document's top-level fields: Scenario's, with each complex array one {re, im} object
DOCUMENT_FIELDS = ("dimension", "hbar", "mass", "omega", "observable", "state", "normalize",
                   "seed", "trials", "tolerances")


@dataclass(frozen=True, eq=False)
class Scenario(Value):
    """Validated measurement setup: dimensions, observable, prepared state.

    However it is built (by `parse_scenario`, directly, by `dataclasses.replace`, as a copy
    or a pickle), it decides every field's type, default and refusal.  A scalar field takes
    the JSON type its annotation names (a bool is no number, a number is kept as a float);
    `tolerances`, a mapping or (name, value) pairs kept as pairs, only decide admission.  The
    core then admits the Hermitian part and the on-shell state, and both are kept.

    ScenarioParseError flags a field of the wrong type or shape, a non-finite entry or an
    unknown or non-positive tolerance; ScenarioValidationError a well-typed field that violates
    the model constraints (non-Hermitian observable, off-shell state without normalize, zero
    state, non-positive dimension/hbar/mass/omega, trials outside 1..MAX_TRIALS)."""

    dimension: int
    observable_re: np.ndarray
    observable_im: np.ndarray
    state_re: np.ndarray
    state_im: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    normalize: bool = False
    seed: int = 0
    trials: int = 10000
    tolerances: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _typed(f.name, getattr(self, f.name), f.type))
        tolerances = dict(self.tolerances)
        for key, value in tolerances.items():
            if key not in KNOWN_TOLERANCES:
                raise ScenarioParseError(f"unknown tolerance {key!r} (known: {KNOWN_TOLERANCES})")
            try:
                require_positive(value, f"tolerance {key!r}")
            except InvalidArgumentError as exc:
                raise ScenarioParseError(str(exc)) from None
        try:
            OscillatorParams(self.dimension, mass=self.mass, omega=self.omega, hbar=self.hbar)
            if not 1 <= self.trials <= MAX_TRIALS:
                raise ScenarioValidationError(
                    f"trials must be between 1 and {MAX_TRIALS}, got {self.trials}")
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
            if not self.normalize:  # the shell override decides; the state kept is projected
                residual = _squared_norm(raw) - self.hbar
                if abs(residual) > tolerances.get("shell", TOL_SHELL) * self.hbar:
                    raise OffShellError(residual)
            state = project_to_shell(raw, self.hbar)
        except OffShellError as exc:
            raise ScenarioValidationError(
                f"state is off shell (residual {exc.residual:.6g}); set normalize=true to rescale"
            ) from None
        except (InvalidArgumentError, NotHermitianError, ZeroVectorError) as exc:
            raise ScenarioValidationError(str(exc)) from None
        object.__setattr__(self, "_observable", obs)
        object.__setattr__(self, "_state", state)

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


def _typed(name: str, value, kind: str):
    """`value` of field `name` if it has the JSON type that its annotation `kind` names (a
    string: this module's annotations are postponed), a number as a float and tolerances as pairs."""
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioParseError(f"field {name!r} must be an integer, got {value!r}")
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioParseError(f"field {name!r} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ScenarioParseError(f"field {name!r} is beyond the range of a double") from None
    elif kind == "bool":
        if not isinstance(value, bool):
            raise ScenarioParseError(f"field {name!r} must be a boolean, got {value!r}")
    elif kind == "tuple":
        try:
            value = tuple(dict(value).items())
        except (TypeError, ValueError):
            raise ScenarioParseError(f"field {name!r} must be an object, got {value!r}") from None
    return value


def _object(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ScenarioParseError(f"missing required field {name!r}")
    if not isinstance(doc[name], dict):
        raise ScenarioParseError(f"field {name!r} must be an object, got {doc[name]!r}")
    return doc[name]


def parse_scenario(text: str | bytes, overrides: dict | None = None) -> Scenario:
    """Read a scenario document's structure: its JSON, the presence of `dimension`, and the
    objects `observable` and `state`, each with `re` and `im` arrays, and `tolerances`
    (ScenarioParseError if one is missing or malformed).  `overrides` maps document field
    names, such as `seed`, `trials` and `tolerances`, to values that replace the document's
    (tolerances by name, read as the document's are) before the one `Scenario` built from the
    fields present decides their types, defaults and refusals, so an override is refused as the
    same value in the document is.  A key the format does not have, in the document, in
    `overrides` or in `observable` or `state` beyond `re` and `im`, is refused."""
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
    if "dimension" not in doc:
        raise ScenarioParseError("missing required field 'dimension'")

    if "tolerances" in doc:
        _object(doc, "tolerances")
    for name, value in (overrides or {}).items():
        doc[name] = ({**doc.get(name, {}), **_object(overrides, name)} if name == "tolerances"
                     else value)
    for name in doc:
        if name not in DOCUMENT_FIELDS:
            raise ScenarioParseError(f"unknown field {name!r}")
    present = {f.name: doc[f.name] for f in fields(Scenario) if f.name in doc}
    for name in ("observable", "state"):
        entry = _object(doc, name)
        for part in entry:
            if part not in ("re", "im"):
                raise ScenarioParseError(f"unknown field {name + '.' + part!r}")
        for part in ("re", "im"):
            if part not in entry:
                raise ScenarioParseError(f"field {name!r} needs {part!r} array")
            present[f"{name}_{part}"] = entry[part]
    return Scenario(**present)
