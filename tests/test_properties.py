"""Property-based tests: Born probabilities and the shared sampler over
random Hermitian matrices and shell states, the sorted-chunk tally against
the sampler's bincount, chi-square pooling against a
sorting loop, a minimizer that only descends, form values that are returned
at every scale, the CLI's exit-code contract over fuzzed scenario documents
and fuzzed command lines, and loose tolerance overrides that admit a scenario
and then never fail it, and one admission path for a scenario however it
is built."""

import contextlib
import dataclasses
import io
import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import shellqm.measurement
from shellqm import (AdmissibleSubspace, HermitianObservable, born_probabilities, constrained_min,
                     evaluate_observable, make_state, mean_value, project_to_shell)
from shellqm.cli import COMMANDS, main
from shellqm.core import JACOBI_REL_TOL, MAX_TRIALS, POOL_MIN_EXPECTED, TOL_SHELL
from shellqm.errors import NoConvergenceError, ShellQMError
from shellqm.experiments import _pooled, random_hermitian
from shellqm.measurement import _normalized_cdf, outcome_counts, outcome_index
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
    dist = born_probabilities(obs, make_state(raw * scale, hbar))
    probs = dist.probabilities
    assert probs[outcome_index(dist.cdf, u)] > 0.0
    assert np.all(probs[outcome_index(dist.cdf, np.array(us))] > 0.0)


@st.composite
def probabilities_and_draws(draw):
    """Probabilities of 1..8 clusters, zero and repeated entries included, and
    draws on the entries of their normalized CDF, one double either side of
    them, at 0.0, at the largest double below 1, and anywhere in [0, 1)."""
    size = draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0 / 3.0]), st.floats(0.0, 1.0))
    p = np.array(draw(st.lists(entry, min_size=size, max_size=size).filter(lambda ps: sum(ps) > 0)))
    edges = {float(x) for c in _normalized_cdf(p)
             for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))}
    on_edges = st.sampled_from(sorted(x for x in edges if 0.0 <= x < 1.0))
    return p, np.array(draw(st.lists(st.one_of(on_edges, draws), min_size=1, max_size=40)))


@settings(max_examples=300, deadline=None)
@given(probabilities_and_draws())
def test_tally_is_the_bincount_of_the_sampler(case):
    p, u = case
    want = np.bincount(outcome_index(_normalized_cdf(p), u), minlength=len(p))
    got = outcome_counts(_normalized_cdf(p), u.copy())
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_draws_on_the_cdf_entries_go_to_the_next_cluster():
    # outcome_index sends u == c[k] to cluster k + 1, so the tally counts
    # #{u < c[k]}; counting #{u <= c[k]} would read [3, 1, 2]
    p = np.array([0.25, 0.25, 0.5])
    u = np.array([0.9, 0.5, 0.0, 0.25, 0.7, 0.1])
    assert outcome_index(_normalized_cdf(p), u).tolist() == [2, 2, 0, 1, 2, 0]
    assert outcome_counts(_normalized_cdf(p), u).tolist() == [2, 1, 3]


# ------------------------------------------------------ chi-square pooling

def pooled_by_sorting(observed, expected):
    """The pooling rule as a loop: pool the categories expected below the
    threshold, then absorb the smallest others, in a stable sort's order,
    until the pool clears it.  An oracle for `experiments._pooled`."""
    big = [k for k in range(len(expected)) if expected[k] >= POOL_MIN_EXPECTED]
    small = [k for k in range(len(expected)) if expected[k] < POOL_MIN_EXPECTED]
    pool_obs = float(np.sum(observed[small])) if small else 0.0
    pool_exp = float(np.sum(expected[small])) if small else 0.0
    big.sort(key=lambda k: expected[k])
    while small and pool_exp < POOL_MIN_EXPECTED and big:
        k = big.pop(0)
        pool_obs += observed[k]
        pool_exp += expected[k]
        small.append(k)
    obs_out = [float(observed[k]) for k in sorted(big)]
    exp_out = [float(expected[k]) for k in sorted(big)]
    if small:
        obs_out.append(pool_obs)
        exp_out.append(pool_exp)
    return np.array(obs_out), np.array(exp_out)


@st.composite
def tallies(draw):
    """Observed and expected counts of 0..8 categories; expected counts tie
    and sit at, just below and far below the pooling threshold."""
    size = draw(st.integers(0, 8))
    expected = st.one_of(st.sampled_from([0.0, 1.0, 4.5, POOL_MIN_EXPECTED, 6.0]),
                         st.floats(0.0, 50.0))
    return (np.array(draw(st.lists(st.integers(0, 60), min_size=size, max_size=size)), float),
            np.array(draw(st.lists(expected, min_size=size, max_size=size)), float))


@settings(max_examples=300, deadline=None)
@given(tallies())
def test_pooling_absorbs_as_the_sorting_loop_does(tally):
    for got, want in zip(_pooled(*tally), pooled_by_sorting(*tally)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ------------------------------------------------- the minimizer descends


@st.composite
def observable_and_level(draw):
    """A random Hermitian matrix (d = 2..8), a level of it and its admissible
    subspace, with the lower eigenvectors taken from numpy."""
    d = draw(st.integers(2, 8))
    obs = random_hermitian(d, master_rng(draw(st.integers(0, 2**32))))
    n = draw(st.integers(1, d))
    return obs, AdmissibleSubspace(level=n, basis=np.linalg.eigh(obs.matrix)[1][:, : n - 1])


@settings(max_examples=40, deadline=None)
@given(observable_and_level(), st.integers(0, 2**32))
def test_minimizer_only_descends(case, seed):
    """The paper's assumption i): the measured observable relaxes towards its
    minimum over the admissible states.  Under budgets of 1, 2, 3, ... steps
    per start, the best value that NoConvergenceError reports never rises,
    and the converged minimum lies below all of them."""
    obs, sub = case
    slack = 1e-14 * float(np.linalg.norm(obs.matrix))
    best = np.inf
    for budget in itertools.count(1):
        with mock.patch.object(shellqm.measurement, "PG_MAX_ITER", budget):
            try:
                value = constrained_min(obs, sub, seed=seed).eigenvalue
            except NoConvergenceError as err:
                assert err.best_value <= best + slack
                best = err.best_value
                continue
        assert value <= best + slack
        return


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(0, 12), st.integers(0, 2**32), hbars)
def test_form_value_near_zero_is_real_at_every_scale(d, k, seed, hbar):
    """The value of 10^k M at a state of zero mean is rounding of the size
    eps * ||A|| * hbar, imaginary part included: the form returns it, finite
    and proportional to the measured mean.  The state mixes the lowest and
    highest eigenvectors of the traceless M so that their weights cancel.
    mean_value reads a Jacobi solve stopped at an off-diagonal mass of
    JACOBI_REL_TOL ||A||_F, hence that bound, doubled for rounding."""
    m = random_hermitian(d, master_rng(seed)).matrix
    m = m - np.trace(m).real / d * np.eye(d)
    values, vectors = np.linalg.eigh(m)
    raw = np.sqrt(values[-1]) * vectors[:, 0] + np.sqrt(-values[0]) * vectors[:, -1]
    obs, state = HermitianObservable(10.0**k * m), project_to_shell(raw, hbar)
    value = evaluate_observable(obs, state)
    assert np.isfinite(value)
    tol = 2 * JACOBI_REL_TOL * float(np.linalg.norm(obs.matrix)) * hbar
    assert abs(value - mean_value(obs, state) * hbar) <= tol


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
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 2:
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


# -------------------------------------------------- one admission path

@st.composite
def edited_documents(draw):
    """An admissible document's text, the document with one field moved to an
    edge (or to another admissible value), and `fields(scenario)`, which
    gives the same edit as keyword arguments of `dataclasses.replace`.

    Every edit is decided by the field checks: no edit reaches the core's
    admission of the observable and the state, whose refusals `parse_scenario`
    reports as ScenarioValidationError and a direct build as the core's own
    error (another hbar would move the state off its shell)."""
    text = draw(loosely_admitted_documents())
    doc = json.loads(text)
    d = doc["dimension"]
    kind = draw(st.sampled_from(["dimension", "parameter", "trials", "tolerance", "entry"]))
    if kind != "entry":
        if kind == "dimension":
            name, value = "dimension", d + draw(st.sampled_from([-1, 1]))
        elif kind == "parameter":
            name = draw(st.sampled_from(["hbar", "mass", "omega"]))
            value = draw(st.sampled_from([0.0, float("nan")] + [2.0] * (name != "hbar")))
        elif kind == "trials":
            name, value = "trials", draw(st.sampled_from([0, 1, MAX_TRIALS, MAX_TRIALS + 1]))
        else:
            name = "tolerances"
            key = draw(st.sampled_from(["shell", "herm", "zero"]))
            value = {**doc["tolerances"], key: draw(st.sampled_from([0.0, -1e-3, 1e-2]))}
        doc[name] = value
        return text, doc, lambda scenario: {name: value}
    field, part = draw(st.sampled_from(["observable", "state"])), draw(st.sampled_from(["re", "im"]))
    index = (draw(st.integers(0, d - 1)),) * (2 if field == "observable" else 1)
    value = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    row = doc[field][part][index[0]] if field == "observable" else doc[field][part]
    row[index[-1]] = value

    def fields(scenario):
        array = getattr(scenario, f"{field}_{part}").copy()
        array[index] = value
        return {f"{field}_{part}": array}
    return text, doc, fields


def admission(build):
    """`to_dict()` of the scenario `build` returns, or the type and message of its refusal."""
    try:
        return build().to_dict()
    except ShellQMError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_documents())
def test_parse_and_replace_admit_alike(case):
    text, doc, fields = case
    scenario = parse_scenario(text)
    parsed = admission(lambda: parse_scenario(json.dumps(doc)))
    assert parsed == admission(lambda: dataclasses.replace(scenario, **fields(scenario)))
    if isinstance(parsed, dict):
        assert parse_scenario(json.dumps(parsed)).to_dict() == parsed
