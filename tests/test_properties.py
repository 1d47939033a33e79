"""Property-based tests: Born probabilities and the shared sampler over
random Hermitian matrices and shell states, the CLI's exit-code contract
over fuzzed scenario documents and fuzzed command lines, and loose tolerance
overrides that admit a scenario and then never fail it."""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import shellqm.measurement
from shellqm import HermitianObservable, born_probabilities, make_state, project_to_shell
from shellqm.cli import COMMANDS, main
from shellqm.core import TOL_SHELL
from shellqm.measurement import outcome_index
from shellqm.rng import master_rng
from shellqm.scenario import parse_scenario

TOP_DRAW = 1.0 - 2.0**-53  # the largest double below 1

draws = st.one_of(st.just(0.0), st.just(TOP_DRAW), st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def observable_and_raw_state(draw):
    """A random Hermitian matrix (d = 1..6) and a nonzero raw state vector.

    Diagonal matrices come out of the eigensolver with the standard basis as
    eigenvectors, so a masked-out component gives an outcome of probability
    exactly zero.
    """
    d = draw(st.integers(1, 6))
    rng = master_rng(draw(st.integers(0, 2**32)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = 0.5 * (g + g.conj().T)
    if draw(st.booleans()):
        m = np.diag(np.diag(m).real)
    mask = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any)))
    raw = (rng.normal(size=d) + 1j * rng.normal(size=d)) * mask
    return HermitianObservable(m), raw


hbars = st.sampled_from([0.5, 1.0, 2.0])


@settings(max_examples=150, deadline=None)
@given(observable_and_raw_state(), hbars)
def test_born_probabilities_sum_to_one(case, hbar):
    obs, raw = case
    probs = born_probabilities(obs, project_to_shell(raw, hbar)).probabilities
    assert abs(float(np.sum(probs)) - 1.0) <= 1e-12
    assert np.all(probs >= 0.0)


@settings(max_examples=150, deadline=None)
@given(observable_and_raw_state(), hbars, st.floats(-0.9, 0.9), draws,
       st.lists(draws, min_size=1, max_size=8))
def test_sampler_never_returns_zero_probability_outcome(case, hbar, offset, u, us):
    # the squared norm is off hbar by up to 0.9 shell tolerances, so the
    # probabilities sum to just below or above 1
    obs, raw = case
    scale = np.sqrt(hbar * (1.0 + offset * TOL_SHELL)) / np.linalg.norm(raw)
    probs = born_probabilities(obs, make_state(raw * scale, hbar)).probabilities
    assert probs[outcome_index(probs, u)] > 0.0
    assert np.all(probs[outcome_index(probs, np.array(us))] > 0.0)


# ------------------------------------------------------------ CLI fuzzing

finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.integers(-5, 5), finite,
    st.sampled_from([0.0, -0.0, 1e-300, 1e154, 1e300, 10**400, float("nan"), float("inf"),
                     float("-inf")]),
)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), numbers,
                 st.lists(numbers, max_size=3), st.dictionaries(st.text(max_size=2), numbers,
                                                                max_size=2))


@st.composite
def scenario_documents(draw):
    d = draw(st.integers(1, 3))
    entries = st.one_of(st.integers(-3, 3), numbers)
    doc = {
        "dimension": d,
        "hbar": draw(st.sampled_from([0.5, 1.0, 2.0])),
        "observable": {
            "re": [[draw(entries) for _ in range(d)] for _ in range(d)],
            "im": [[draw(entries) for _ in range(d)] for _ in range(d)],
        },
        "state": {"re": [draw(entries) for _ in range(d)],
                  "im": [draw(entries) for _ in range(d)]},
        "normalize": draw(st.booleans()),
        "seed": draw(st.integers(-2**70, 2**70)),
        "trials": draw(st.integers(-10, 10**4)),
    }
    if draw(st.booleans()):
        # a symmetric real part and a zero imaginary part pass validation
        re = doc["observable"]["re"]
        doc["observable"]["re"] = [[re[min(i, j)][max(i, j)] for j in range(d)]
                                   for i in range(d)]
        doc["observable"]["im"] = [[0] * d for _ in range(d)]
    if draw(st.booleans()):
        doc["tolerances"] = draw(st.dictionaries(
            st.sampled_from(["shell", "herm", "zero"]), junk, max_size=2))
    fields = sorted(doc) + ["mass", "omega"]
    for name in draw(st.lists(st.sampled_from(fields), max_size=2, unique=True)):
        if draw(st.booleans()):
            doc.pop(name, None)
        elif name == "trials":  # at most 10**4, so no example allocates a large table
            doc[name] = draw(junk.filter(lambda v: not isinstance(v, int) or v <= 10**4))
        else:
            doc[name] = draw(junk)
    return doc


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario_documents(), st.sampled_from(COMMANDS),
       st.sampled_from([[], ["--format", "structured"]]))
def test_cli_exit_codes_on_fuzzed_scenarios(tmp_path_factory, doc, command, extra):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    # a short descent keeps near-degenerate fuzzed observables fast; a level
    # that does not converge is a failed verification (exit 1), not a crash
    with mock.patch.object(shellqm.measurement, "PG_MAX_ITER", 500), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(path), "--samples", "4", *extra])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        diagnostic = json.loads(err.getvalue().splitlines()[-1])
        assert set(diagnostic["error"]) == {"type", "message"}


# ----------------------------------------------------------- CLI argv fuzz

EQUAL_Q2 = Path(__file__).resolve().parents[1] / "scenarios" / "equal_q2.json"
SPECIAL_VALUES = ["junk", "", "nan", "inf", "-inf", "1e308", "-1e308"]
VALID_VALUES = {
    "--seed": st.integers(-2**70, 2**70),
    "--trials": st.integers(-2, 10**4),  # small enough to draw quickly
    "--samples": st.integers(-2, 64),
    "--time": st.floats(),
    "--tol": st.floats(),
    "--format": st.sampled_from(["csv", "structured"]),
}


@st.composite
def command_lines(draw):
    """A command on `equal_q2.json` with up to three fuzzed options.  A value is
    junk, non-finite or huge one time in three, and otherwise in the option's
    own type; each is given as `--name=value`, so a negative value is not read
    as an option."""
    argv = [draw(st.sampled_from(COMMANDS)), "--scenario", str(EQUAL_Q2)]
    for name in draw(st.lists(st.sampled_from(sorted(VALID_VALUES)), max_size=3)):
        if draw(st.integers(0, 2)) == 2:
            value = draw(st.sampled_from(SPECIAL_VALUES))
        else:
            value = str(draw(VALID_VALUES[name]))
        if name == "--tol":
            value = f"{draw(st.sampled_from(['shell', 'herm', 'zero']))}={value}"
        argv.append(f"{name}={value}")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example(["evolve", "--scenario", str(EQUAL_Q2), "--time=1e308"])
@example(["evolve", "--scenario", str(EQUAL_Q2), "--time=-1e308", "--samples=1"])
@example(["sample", "--scenario", str(EQUAL_Q2), "--trials=1e308"])
def test_cli_exit_codes_on_fuzzed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, refused_by_argparse = main(argv), False
        except SystemExit as exc:  # argparse's own usage error
            code, refused_by_argparse = exc.code, True
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 2 and not refused_by_argparse:
        diagnostic = json.loads(err.getvalue().splitlines()[-1])
        assert set(diagnostic["error"]) == {"type", "message"}


# ------------------------------------------------- loose tolerance overrides

log_tolerances = st.floats(-10.0, -2.0).map(lambda e: 10.0**e)


@st.composite
def loosely_admitted_documents(draw):
    """A Hermitian matrix (d = 1..4) plus anti-Hermitian noise of residual up
    to half of `herm`, and a state off the shell by up to half of `shell`,
    with `normalize: false`."""
    d = draw(st.integers(1, 4))
    herm, shell = draw(log_tolerances), draw(log_tolerances)
    hbar = draw(hbars)
    rng = master_rng(draw(st.integers(0, 2**32)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    noise = g - g.conj().T  # anti-Hermitian: M + noise has residual 2 |noise|
    scale = draw(st.floats(0.0, 0.5)) * herm / (2.0 * max(np.max(np.abs(noise)), 1e-300))
    m = 0.5 * (g + g.conj().T) + scale * noise
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    off = draw(st.floats(-0.5, 0.5)) * shell
    psi = raw * np.sqrt(hbar * (1.0 + off)) / np.linalg.norm(raw)
    doc = {
        "dimension": d,
        "hbar": hbar,
        "observable": {"re": m.real.tolist(), "im": m.imag.tolist()},
        "state": {"re": psi.real.tolist(), "im": psi.imag.tolist()},
        "normalize": False,
        "tolerances": {"herm": herm, "shell": shell},
    }
    return json.dumps(doc)


@settings(max_examples=100, deadline=None)
@given(loosely_admitted_documents())
def test_admitted_scenario_runs_under_loose_tolerances(tmp_path_factory, text):
    parse_scenario(text)
    path = tmp_path_factory.mktemp("loose") / "scenario.json"
    path.write_text(text)
    for command in ("probs", "mean", "evolve"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(path), "--samples", "2",
                         "--format", "structured"])
        assert (code, err.getvalue()) == (0, ""), command
        if command == "probs":
            assert abs(sum(json.loads(out.getvalue())["probabilities"]) - 1.0) <= 1e-12
