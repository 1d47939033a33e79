"""Command-line entry point: scenario ingestion, subcommand dispatch, and
machine-readable result emission.

Exit status: 0 on success, 1 when a verification fails, 2 on input errors.
Every emitted file embeds the seed, RNG identifier, hbar, and package version
in its header, so any output is reproducible from the file alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import flow
from .errors import InvalidArgumentError, ShellQMError
from .experiments import MAX_TRIALS, run_trials, verification_suite
from .linalg import eigh
from .measurement import born_probabilities, mean_value
from .phasespace import evaluate_observable
from .rng import RNG_ID
from .scenario import Scenario, parse_scenario

COMMANDS = ("spectrum", "probs", "mean", "evolve", "sample", "verify")
MAX_SAMPLES = 10**5  # evolve holds every row until it writes: up to 17 KB and 0.45 ms per row at d = 64


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _meta(scenario: Scenario, seed: int, trials: int) -> dict:
    return {
        "artifact": "shellqm",
        "version": __version__,
        "rng": RNG_ID,
        "seed": seed,
        "hbar": scenario.hbar,
        "dimension": scenario.dimension,
        "trials": trials,
    }


def _csv_text(meta: dict, header: list[str], rows: list[list]) -> str:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(meta: dict, payload: dict) -> str:
    # numpy arrays in a payload are written as (nested) lists
    return json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True,
                      default=np.ndarray.tolist, allow_nan=False) + "\n"


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / filename).write_text(text, encoding="utf-8", newline="\n")


def dispatch(command: str, scenario: Scenario, args: argparse.Namespace) -> int:
    """Run one subcommand against a parsed scenario; returns the exit status."""
    seed = scenario.seed if args.seed is None else args.seed
    trials = scenario.trials if args.trials is None else args.trials
    obs = scenario.observable()
    state = scenario.state()
    meta = _meta(scenario, seed, trials)
    structured = args.format == "structured"

    if command == "spectrum":
        es = eigh(obs)
        header = ["level", "eigenvalue", "cluster"]
        rows = [[n + 1, float(es.eigenvalues[n]), int(es.cluster[n])] for n in range(es.dimension)]
        payload = {
            "eigenvalues": es.eigenvalues,
            "clusters": np.split(np.arange(es.dimension), np.flatnonzero(np.diff(es.cluster)) + 1),
            "eigenvectors_re": es.eigenvectors.real,
            "eigenvectors_im": es.eigenvectors.imag,
        }
    elif command == "probs":
        dist = born_probabilities(obs, state)
        header = ["outcome", "probability"]
        rows = list(zip(dist.values.tolist(), dist.probabilities.tolist()))
        payload = {"values": dist.values, "probabilities": dist.probabilities}
    elif command == "mean":
        mean = mean_value(obs, state)
        direct = evaluate_observable(obs, state) / state.hbar
        header = ["mean_of_outcomes", "observable_over_hbar", "difference"]
        rows = [[mean, direct, mean - direct]]
        payload = {"mean_of_outcomes": mean, "observable_over_hbar": direct,
                   "difference": mean - direct}
    elif command == "evolve":
        times = np.linspace(0.0, args.time, args.samples + 1)
        header = ["t"]
        for k in range(scenario.dimension):
            header += [f"re_{k + 1}", f"im_{k + 1}"]
        header.append("norm_residual")
        evolved = ((float(t), flow(obs, state, float(t))) for t in times)
        if structured:  # build only the container this format prints
            payload = {"trajectory": [{"t": t, "re": e.components.real, "im": e.components.imag}
                                      for t, e in evolved]}
        else:
            rows = [[t, *np.column_stack((e.components.real, e.components.imag)).ravel().tolist(),
                     e.norm_squared() - state.hbar] for t, e in evolved]
    elif command == "sample":
        table = run_trials(obs, state, trials, seed)
        header = ["outcome", "count", "frequency", "reference"]
        rows = [
            [float(table.values[k]), int(table.counts[k]),
             float(table.frequencies[k]), float(table.reference[k])]
            for k in range(len(table.values))
        ]
        payload = {"values": table.values, "counts": table.counts,
                   "frequencies": table.frequencies, "reference": table.reference}
    elif command == "verify":
        reports = verification_suite(obs, state, trials, seed)
        payload = {"reports": [dataclasses.asdict(r) for r in reports],
                   "passed": all(r.passed for r in reports)}
        _emit(_json_text(meta, payload), args.out, "verify.json")
        return 0 if payload["passed"] else 1
    else:
        raise ValueError(f"unknown command {command!r}")

    if structured:
        _emit(_json_text(meta, payload), args.out, f"{command}.json")
    else:
        _emit(_csv_text(meta, header, rows), args.out, f"{command}.csv")
    return 0


def _parse_tol(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--tol expects NAME=VALUE, got {pair!r}")
        if name in out:
            raise ValueError(f"--tol {name} is given more than once")
        out[name] = float(value)
    return out


def _check_ranges(args: argparse.Namespace) -> None:
    if args.trials is not None and not 1 <= args.trials <= MAX_TRIALS:
        raise InvalidArgumentError(f"--trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise InvalidArgumentError(f"--samples must be between 1 and {MAX_SAMPLES}, got {args.samples}")
    if not np.isfinite(args.time):
        raise InvalidArgumentError(f"--time must be finite, got {args.time}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` reports it as one JSON line, not as usage text
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shellqm",
        description="Oscillator-shell observables, flows, and measurement statistics",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--trials", type=int, default=None, help="override the scenario trials")
    parser.add_argument("--out", default=None, help="directory for emitted files (default: stdout)")
    parser.add_argument("--format", choices=("csv", "structured"), default="csv")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="tolerance override, each NAME at most once")
    parser.add_argument("--time", type=float, default=2.0 * np.pi,
                        help="flow parameter span for evolve; a negative value with an "
                             "exponent is written --time=-1e308")
    parser.add_argument("--samples", type=int, default=50,
                        help="number of sample intervals for evolve")
    return parser


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        tol_overrides = _parse_tol(args.tol)
    except (argparse.ArgumentError, ValueError) as exc:
        _diagnostic("ArgumentError", str(exc))
        return 2
    try:
        text = Path(args.scenario).read_bytes()
        _check_ranges(args)
        scenario = parse_scenario(text, overrides=tol_overrides)
        return dispatch(args.command, scenario, args)
    except OSError as exc:  # reading the scenario or writing the output
        _diagnostic("IOError", str(exc))
        return 2
    except ShellQMError as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
