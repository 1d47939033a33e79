"""Command-line entry point: scenario ingestion, subcommand dispatch, and
machine-readable result emission.

Exit status: 0 on success, 1 when a verification fails, 2 on input errors.
Every emitted file embeds the seed, RNG identifier, hbar, and package version
in its header, so any output is reproducible from the file alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import require_positive_int
from .dynamics import flow
from .errors import InvalidArgumentError, ShellQMError
from .experiments import MAX_TRIALS, run_trials, verification_suite
from .linalg import eigh
from .measurement import born_probabilities, mean_value
from .phasespace import evaluate_observable
from .rng import RNG_ID
from .scenario import Scenario, parse_scenario

COMMANDS = ("spectrum", "probs", "mean", "evolve", "sample", "verify")


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
    return json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n"


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

    if command == "spectrum":
        es = eigh(obs)
        cluster_of = {}
        for cid, members in enumerate(es.clusters):
            for k in members:
                cluster_of[k] = cid
        header = ["level", "eigenvalue", "cluster"]
        rows = [[n + 1, float(es.eigenvalues[n]), cluster_of[n]] for n in range(es.dimension)]
        payload = {
            "eigenvalues": es.eigenvalues.tolist(),
            "clusters": [list(c) for c in es.clusters],
            "eigenvectors_re": es.eigenvectors.real.tolist(),
            "eigenvectors_im": es.eigenvectors.imag.tolist(),
        }
    elif command == "probs":
        dist = born_probabilities(obs, state)
        header = ["outcome", "probability"]
        rows = [[float(v), float(p)] for v, p in dist.outcomes]
        payload = {
            "values": dist.values.tolist(),
            "probabilities": dist.probabilities.tolist(),
        }
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
        rows = []
        trajectory = []
        for t in times:
            evolved = flow(obs, state, float(t))
            comp = evolved.components
            row = [float(t)]
            for k in range(scenario.dimension):
                row += [float(comp[k].real), float(comp[k].imag)]
            row.append(evolved.norm_squared() - state.hbar)
            rows.append(row)
            trajectory.append({"t": float(t), "re": comp.real.tolist(), "im": comp.imag.tolist()})
        payload = {"trajectory": trajectory}
    elif command == "sample":
        table = run_trials(obs, state, trials, seed)
        header = ["outcome", "count", "frequency", "reference"]
        rows = [
            [float(table.values[k]), int(table.counts[k]),
             float(table.frequencies[k]), float(table.reference[k])]
            for k in range(len(table.values))
        ]
        payload = {
            "values": table.values.tolist(),
            "counts": table.counts.tolist(),
            "frequencies": table.frequencies.tolist(),
            "reference": table.reference.tolist(),
        }
    elif command == "verify":
        reports = verification_suite(obs, state, trials, seed)
        payload = {
            "reports": [
                {
                    "name": r.name,
                    "statistic": float(r.statistic),
                    "threshold": float(r.threshold),
                    "passed": bool(r.passed),
                    "digest": r.digest,
                }
                for r in reports
            ],
            "passed": all(bool(r.passed) for r in reports),
        }
        _emit(_json_text(meta, payload), args.out, "verify.json")
        return 0 if payload["passed"] else 1
    else:
        raise ValueError(f"unknown command {command!r}")

    if args.format == "structured":
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
        out[name] = float(value)
    return out


def _check_ranges(args: argparse.Namespace) -> None:
    if args.trials is not None and not 1 <= args.trials <= MAX_TRIALS:
        raise InvalidArgumentError(f"--trials must be between 1 and {MAX_TRIALS}, got {args.trials}")
    require_positive_int(args.samples, "--samples")
    if not np.isfinite(args.time):
        raise InvalidArgumentError(f"--time must be finite, got {args.time}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                        help="tolerance override, repeatable")
    parser.add_argument("--time", type=float, default=2.0 * np.pi,
                        help="flow parameter span for evolve")
    parser.add_argument("--samples", type=int, default=50,
                        help="number of sample intervals for evolve")
    return parser


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol_overrides = _parse_tol(args.tol)
    except ValueError as exc:
        _diagnostic("ArgumentError", str(exc))
        return 2
    try:
        text = Path(args.scenario).read_bytes()
    except OSError as exc:
        _diagnostic("IOError", str(exc))
        return 2
    try:
        _check_ranges(args)
        scenario = parse_scenario(text, overrides=tol_overrides)
        return dispatch(args.command, scenario, args)
    except ShellQMError as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
