import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

import shellqm
import shellqm.core
import shellqm.errors
from shellqm import (
    AdmissibleSubspace,
    EigenSystem,
    FrequencyTable,
    GeneralQuadraticObservable,
    HermitianObservable,
    OscillatorParams,
    PhaseSpacePoint,
    ProbabilityDistribution,
    Scenario,
    StateVector,
    born_probabilities,
    canonical_phase,
    config_observable,
    constrained_min,
    eigh,
    flow,
    flow_numeric,
    make_state,
    measure,
    project_to_shell,
    states_equal,
)
from shellqm.core import require_positive
from shellqm.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotHermitianError,
    OffShellError,
    ShellQMError,
    ZeroVectorError,
)

from conftest import check_hermitian, random_hermitian, random_state


class TestOscillatorParams:
    def test_energy_is_exact_product(self):
        params = OscillatorParams(dimension=3, mass=2.0, omega=0.7, hbar=1.5)
        assert params.energy == 1.5 * 0.7

    def test_spin_metadata(self):
        assert OscillatorParams(dimension=1).spin == 0.0
        assert OscillatorParams(dimension=2).spin == 0.5
        assert OscillatorParams(dimension=4).spin == 1.5

    @pytest.mark.parametrize("kwargs", [
        {"dimension": 0}, {"dimension": -1},
        {"dimension": 2, "mass": 0.0},
        {"dimension": 2, "omega": -1.0},
        {"dimension": 2, "hbar": 0.0},
        {"dimension": 2, "mass": np.inf},
        {"dimension": 2, "omega": np.inf},
        {"dimension": 2, "hbar": np.inf},
        {"dimension": 2, "hbar": np.nan},
        {"dimension": 2.0}, {"dimension": True},
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            OscillatorParams(**kwargs)

    @pytest.mark.parametrize("value, admitted", [
        (np.float16(2.0), True), (np.float32(2.0), True), (np.float64(2.0), True),
        (np.longdouble(2.0), True), (np.int8(2), True), (10**400, False),
        (np.float32(np.inf), False), (np.longdouble("1e400"), False),
    ], ids=["float16", "float32", "float64", "longdouble", "int8", "1e400", "float32-inf",
            "longdouble-1e400"])
    @pytest.mark.filterwarnings("error")
    def test_numpy_scalars_checked_without_a_warning(self, value, admitted):
        # the bound compared in a float16 or float32 would overflow to inf, with a warning
        checks = (lambda: require_positive(value, "hbar"),
                  lambda: OscillatorParams(2, mass=value),
                  lambda: make_state(np.array([1.0, 1.0]), value))
        for check in checks:
            if admitted:
                check()
            else:
                with pytest.raises(InvalidArgumentError, match="positive finite number"):
                    check()


class TestPhaseSpacePoint:
    def test_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError):
            PhaseSpacePoint(q=np.zeros(2), p=np.zeros(3))

    def test_arrays_read_only(self):
        pt = PhaseSpacePoint(q=np.zeros(2), p=np.zeros(2))
        with pytest.raises(ValueError):
            pt.q[0] = 1.0


class TestMakeState:
    def test_unit_vector_on_unit_shell(self):
        s = make_state([1, 0], hbar=1.0)
        assert s.norm_squared() == 1.0

    def test_off_shell_reports_residual(self):
        with pytest.raises(OffShellError) as err:
            make_state([1, 1], hbar=1.0)
        assert err.value.residual == pytest.approx(1.0)

    def test_hand_summed_moduli(self):
        # oracle: |sqrt(hbar/2)|^2 + |i sqrt(hbar/2)|^2 = 1 + 1 = 2 = hbar
        hbar = 2.0
        s = make_state([np.sqrt(hbar / 2), 1j * np.sqrt(hbar / 2)], hbar=hbar)
        assert s.norm_squared() == pytest.approx(hbar, rel=1e-15)

    def test_empty_input(self):
        with pytest.raises(DimensionMismatchError):
            make_state([], hbar=1.0)

    def test_components_stored_unchanged(self):
        comp = np.array([0.6, 0.8j])
        s = make_state(comp, hbar=1.0)
        assert np.array_equal(s.components, comp)

    def test_the_callers_array_is_copied_not_locked(self):
        comp = np.array([0.6, 0.8j])
        s = make_state(comp, hbar=1.0)
        assert comp.flags.writeable and not np.shares_memory(comp, s.components)
        comp[:] = [1.0, 0.0]
        assert s.components.tolist() == [0.6, 0.8j]

    def test_writes_through_a_viewed_buffer_do_not_reach_the_state(self):
        buf = np.array([0.6, 0.8j, 5.0])
        s = make_state(buf[:2], hbar=1.0)
        buf[:2] = [1.0, 0.0]
        assert s.components.tolist() == [0.6, 0.8j]
        with pytest.raises(ValueError):
            s.components[0] = 1.0


class TestProjectToShell:
    def test_pure_rescale(self):
        s = project_to_shell([2, 0], hbar=1.0)
        assert np.allclose(s.components, [1, 0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            project_to_shell([0, 0], hbar=1.0)

    @pytest.mark.parametrize("raw", [[[1, 0]], []])
    def test_rejects_a_matrix_or_empty_input(self, raw):
        with pytest.raises(DimensionMismatchError, match="nonempty 1-d vector"):
            project_to_shell(raw, hbar=1.0)

    def test_three_four_five(self):
        # oracle: norm is 5, divide through
        s = project_to_shell([3, 4], hbar=1.0)
        assert np.allclose(s.components, [0.6, 0.8], atol=1e-15)

    def test_always_passes_make_state(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 9))
            raw = rng.normal(size=d) + 1j * rng.normal(size=d)
            hbar = float(rng.uniform(0.1, 10.0))
            s = project_to_shell(raw, hbar)
            make_state(s.components, hbar)  # must not raise

    def test_tiny_vector_on_a_tiny_shell(self):
        # the zero test is scale-free: an on-shell state at hbar = 1e-30 has
        # components far below 1e-12 and must still project
        s = project_to_shell([1e-15, 0], hbar=1e-30)
        assert abs(s.norm_squared() - 1e-30) <= 1e-40

    def test_vector_whose_square_underflows_is_zero(self):
        with pytest.raises(ZeroVectorError):
            project_to_shell([1e-200, 0], hbar=1.0)

    @pytest.mark.parametrize("build", [project_to_shell, make_state])
    def test_overflowing_norm_refused(self, build):
        with pytest.raises(InvalidArgumentError, match="overflows"):
            build([1e300, 1], hbar=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
    @pytest.mark.parametrize("build", [project_to_shell, make_state])
    def test_non_finite_component_refused(self, build, bad):
        with pytest.raises(InvalidArgumentError, match="non-finite component"):
            build([bad, 1], hbar=1.0)

    @pytest.mark.parametrize("hbar", [np.inf, 0.0, -1.0, np.nan])
    @pytest.mark.parametrize("build", [project_to_shell, make_state])
    @pytest.mark.filterwarnings("error")
    def test_hbar_not_positive_and_finite_refused(self, build, hbar):
        with pytest.raises(InvalidArgumentError, match="hbar"):
            build([1, 0], hbar=hbar)


class TestCanonicalPhase:
    def test_rotates_leading_imaginary(self):
        s = make_state([1j, 0], hbar=1.0)
        assert np.allclose(canonical_phase(s).components, [1, 0])

    def test_identity_on_representative(self):
        s = make_state([1, 0], hbar=1.0)
        assert np.array_equal(canonical_phase(s).components, s.components)

    def test_unit_phase_divided_out(self):
        # oracle: divide by the unit phase exp(i pi/4)
        hbar = 3.0
        s = make_state([0, (1 + 1j) / np.sqrt(2) * np.sqrt(hbar)], hbar=hbar)
        fixed = canonical_phase(s)
        assert np.allclose(fixed.components, [0, np.sqrt(hbar)], atol=1e-14)

    def test_rotates_on_a_tiny_shell(self):
        # every component is below TOL_ZERO = 1e-12; the threshold scales with the norm
        s = make_state([1e-15j, 0], hbar=1e-30)
        assert np.array_equal(canonical_phase(s).components, [1e-15, 0])

    def test_commutes_with_rescaling(self, rng):
        for hbar in (1e-30, 1e30):
            s = random_state(int(rng.integers(1, 7)), rng)
            scaled = make_state(s.components * np.sqrt(hbar), hbar)
            assert np.allclose(canonical_phase(scaled).components / np.sqrt(hbar),
                               canonical_phase(s).components, rtol=0, atol=1e-15)

    def test_idempotent_and_norm_preserving(self, rng):
        for _ in range(100):
            s = random_state(int(rng.integers(1, 7)), rng, hbar=float(rng.uniform(0.5, 4)))
            once = canonical_phase(s)
            twice = canonical_phase(once)
            assert np.array_equal(once.components, twice.components)
            # norm preserved to floating granularity (unit-modulus rotation)
            assert abs(once.norm_squared() - s.norm_squared()) <= 1e-15 * s.hbar


class TestStatesEqual:
    def test_pure_phase_is_same_state(self):
        a = make_state([1, 0], hbar=1.0)
        for theta in (0.1, np.pi / 3, 2.5, -1.0):
            b = make_state([np.exp(1j * theta), 0], hbar=1.0)
            assert states_equal(a, b)

    def test_orthogonal_states_differ(self):
        a = make_state([1, 0], hbar=1.0)
        b = make_state([0, 1], hbar=1.0)
        assert not states_equal(a, b)

    def test_partial_overlap_differs(self):
        # oracle: overlap modulus 0.6 < 1 - tol
        a = make_state([1, 0], hbar=1.0)
        b = make_state([0.6, 0.8], hbar=1.0)
        assert not states_equal(a, b)

    def test_dimension_mismatch(self):
        a = make_state([1, 0], hbar=1.0)
        b = make_state([1, 0, 0], hbar=1.0)
        with pytest.raises(DimensionMismatchError):
            states_equal(a, b)

    def test_different_shells_refused(self):
        a = make_state([1, 0], hbar=1.0)
        b = make_state([2, 0], hbar=4.0)
        with pytest.raises(DimensionMismatchError, match="different radius"):
            states_equal(a, b)

    def test_equivalence_relation_up_to_tolerance(self, rng):
        # reflexive / symmetric always; transitivity holds at the documented
        # doubled tolerance when both links hold at tol.
        tol = 1e-9
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a = random_state(d, rng)
            phase1, phase2 = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
            b = make_state(a.components * phase1, a.hbar)
            c = make_state(b.components * phase2, b.hbar)
            assert states_equal(a, a, tol)
            assert states_equal(a, b, tol) == states_equal(b, a, tol)
            if states_equal(a, b, tol) and states_equal(b, c, tol):
                assert states_equal(a, c, 2 * tol)

    def test_canonical_phase_agreement_matches_overlap(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a = random_state(d, rng)
            b = make_state(a.components * np.exp(1j * rng.uniform(0, 2 * np.pi)), a.hbar)
            fa, fb = canonical_phase(a), canonical_phase(b)
            assert np.allclose(fa.components, fb.components, atol=1e-10)


class TestConfigObservable:
    def test_one_dimensional(self):
        assert np.array_equal(config_observable(1).matrix, [[1]])

    def test_diagonal_one_to_d(self):
        assert np.array_equal(config_observable(3).matrix, np.diag([1, 2, 3]).astype(complex))

    def test_eigensystem_is_standard_basis(self):
        es = eigh(config_observable(2))
        assert np.allclose(es.eigenvalues, [1, 2])
        assert np.allclose(es.eigenvectors, np.eye(2))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_hermitian_for_all_small_dimensions(self, d):
        assert check_hermitian(config_observable(d).matrix)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            config_observable(0)


class TestHermitianObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            HermitianObservable(np.array([[0, 1j], [1j, 0]]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(DimensionMismatchError):
            HermitianObservable(np.zeros((0, 0)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            HermitianObservable(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_entry(self, bad, where):
        m = np.eye(2, dtype=complex)
        m[where] = bad
        if where != (0, 0):
            m[where[::-1]] = np.conj(bad)
        with pytest.raises(NotHermitianError):
            HermitianObservable(m)
        assert not check_hermitian(m)

    def test_large_matrix_is_solved(self):
        es = eigh(HermitianObservable(np.array([[1, 1], [1, 2]], dtype=complex) * 1e150))
        golden = (1.5 + np.array([-1, 1]) * np.sqrt(5) / 2) * 1e150
        assert np.allclose(es.eigenvalues, golden, rtol=1e-12)

    def test_norm_overflow_refused(self):
        m = np.array([[1, 1], [1, 2]], dtype=complex) * 1e154
        with pytest.raises(InvalidArgumentError, match="norm overflows"):
            HermitianObservable(m)


class TestGeneralQuadraticObservable:
    @staticmethod
    def parts(hermitian=None, anomalous=None):
        return dict(constant=0.0, linear=np.zeros(2),
                    hermitian=np.eye(2) if hermitian is None else hermitian,
                    anomalous=np.zeros((2, 2)) if anomalous is None else anomalous)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["hermitian", "anomalous"])
    def test_rejects_non_finite_entry(self, bad, part):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(NotHermitianError):
            GeneralQuadraticObservable(**self.parts(**{part: m}))

    def test_rejects_empty_parts(self):
        with pytest.raises(DimensionMismatchError):
            GeneralQuadraticObservable(0.0, np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))

    def test_rejects_a_linear_part_of_another_length(self):
        with pytest.raises(DimensionMismatchError, match="linear part has length 3"):
            GeneralQuadraticObservable(0.0, np.zeros(3), np.eye(2), np.zeros((2, 2)))

    def test_accepts_finite_parts(self):
        gen = GeneralQuadraticObservable(**self.parts(anomalous=np.array([[0, 1j], [1j, 0]])))
        assert gen.dimension == 2


# Each value type that holds arrays, with writable arrays of the dtype it stores
# (so storing one as given would share it) and its other fields.
HERM_2 = np.array([[1, 1j], [-1j, 2]])
VALUE_TYPES = [
    (PhaseSpacePoint, dict(q=np.array([1.0, 2.0]), p=np.array([0.5, 0.0])), {}),
    (StateVector, dict(components=np.array([1, 0], dtype=complex)), dict(hbar=1.0)),
    (HermitianObservable, dict(matrix=HERM_2), {}),
    (GeneralQuadraticObservable,
     dict(linear=np.zeros(2, dtype=complex), hermitian=HERM_2,
          anomalous=np.array([[0, 1j], [1j, 0]])),
     dict(constant=0.0)),
    (AdmissibleSubspace, dict(basis=np.array([[1], [0]], dtype=complex)), dict(level=2)),
    (EigenSystem,
     dict(eigenvalues=np.array([1.0, 2.0]), eigenvectors=np.eye(2, dtype=complex),
          cluster=np.array([0, 1]), cluster_values=np.array([1.0, 2.0])),
     dict(sweeps=0, rotations=0)),
    (ProbabilityDistribution,
     dict(values=np.array([1.0, 2.0]), probabilities=np.array([0.25, 0.75])), {}),
    (FrequencyTable,
     dict(values=np.array([1.0, 2.0]), counts=np.array([1, 3]),
          frequencies=np.array([0.25, 0.75]), reference=np.array([0.25, 0.75])),
     dict(trials=4, seed=0)),
    (Scenario,
     dict(observable_re=np.diag([1.0, 2.0]), observable_im=np.zeros((2, 2)),
          state_re=np.array([1.0, 0.0]), state_im=np.zeros(2)),
     dict(dimension=2, hbar=1.0, mass=1.0, omega=1.0, normalize=False, seed=0, trials=10)),
]


@pytest.mark.parametrize("cls, arrays, fields", VALUE_TYPES,
                         ids=[cls.__name__ for cls, *_ in VALUE_TYPES])
def test_a_value_type_stores_read_only_copies(cls, arrays, fields):
    given = {name: array.copy() for name, array in arrays.items()}
    value = cls(**given, **fields)
    kept = {name: getattr(value, name) for name in given}
    before = {name: array.copy() for name, array in kept.items()}
    doc = value.to_dict() if cls is Scenario else None
    for name, array in given.items():
        assert array.flags.writeable and not np.shares_memory(array, kept[name])
        assert not kept[name].flags.writeable
        with pytest.raises(ValueError):
            kept[name][...] = 0
        array[...] = 7
    for name, array in kept.items():
        assert array.tobytes() == before[name].tobytes()
    if doc is not None:
        assert value.to_dict() == doc


def fill_memos(value) -> None:
    """Compute what the package memoizes on `value`, so a copy could carry it."""
    if isinstance(value, HermitianObservable):
        eigh(value)
    elif isinstance(value, StateVector):
        born_probabilities(config_observable(value.dimension), value)
    elif isinstance(value, ProbabilityDistribution):
        value.cdf
    elif isinstance(value, Scenario):
        born_probabilities(value.observable(), value.state())


def pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, pickled])
@pytest.mark.parametrize("cls, arrays, fields", VALUE_TYPES,
                         ids=[cls.__name__ for cls, *_ in VALUE_TYPES])
def test_a_copy_is_admitted_again(cls, arrays, fields, copier):
    value = cls(**arrays, **fields)
    fresh = cls(**arrays, **fields)
    fill_memos(value)
    twin = copier(value)
    assert type(twin) is cls
    for name in arrays:
        kept, copied = getattr(value, name), getattr(twin, name)
        assert not copied.flags.writeable and not np.shares_memory(kept, copied)
        assert copied.tobytes() == kept.tobytes()
    # no memo travels: the copy holds what a fresh instance holds, none of it the original's
    assert set(vars(twin)) == set(vars(fresh))
    for name in set(vars(twin)) - {f.name for f in dataclasses.fields(cls)}:
        assert vars(twin)[name] is not vars(value)[name]


@pytest.mark.parametrize("copier", [copy.deepcopy, pickled])
@pytest.mark.parametrize("value, name, forged, error", [
    (config_observable(2), "matrix", np.array([[1.0, 1.0], [0.0, 2.0]]), NotHermitianError),
    (make_state([1, 0], 1.0), "components", np.array([1.0, 1.0]), OffShellError),
], ids=["observable", "state"])
def test_a_copy_is_refused_where_its_constructor_refuses(copier, value, name, forged, error):
    # a field forced past admission is checked again on the way through the copy
    value = copy.copy(value)
    object.__setattr__(value, name, forged)
    with pytest.raises(error):
        copier(value)


# Inputs that make_state refuses, as (components, hbar): off the shell, a non-finite
# entry, a negative hbar, no entry, a matrix, and a squared norm that overflows.
REFUSED_STATES = {
    "off-shell": ([1, 1], 1.0),
    "nan": ([np.nan, 1], 1.0),
    "negative-hbar": ([1, 0], -1.0),
    "empty": ([], 1.0),
    "matrix": (np.eye(2), 1.0),
    "overflow": ([1e200, 1e200], 1.0),
}


def replaced_state(components, hbar):
    return dataclasses.replace(make_state([1, 0], 1.0), components=components, hbar=hbar)


@pytest.mark.parametrize("build", [StateVector, replaced_state], ids=["direct", "replace"])
@pytest.mark.parametrize("components, hbar", REFUSED_STATES.values(), ids=REFUSED_STATES.keys())
def test_a_state_is_refused_as_make_state_refuses(build, components, hbar):
    with pytest.raises(ShellQMError) as want:
        make_state(components, hbar)
    with pytest.raises(ShellQMError) as got:
        build(components, hbar)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def scenario_state(d, rng):
    obs = random_hermitian(d, rng)
    raw = rng.normal(size=d)
    return Scenario(d, obs.matrix.real, obs.matrix.imag, raw, np.zeros(d), normalize=True).state()


# Every way the package returns a state, each given a dimension and a generator.
RETURNED_STATES = {
    "make_state": lambda d, rng: make_state(random_state(d, rng, 2.5).components, 2.5),
    "project_to_shell": lambda d, rng: project_to_shell(rng.normal(size=d) + 1j, 0.5),
    "canonical_phase": lambda d, rng: canonical_phase(random_state(d, rng, 3.0)),
    "random_state": lambda d, rng: random_state(d, rng, 1e-3),
    "flow": lambda d, rng: flow(random_hermitian(d, rng), random_state(d, rng, 2.0), 7.3),
    "flow_numeric": lambda d, rng: flow_numeric(
        random_hermitian(d, rng), random_state(d, rng), 1.0, steps=200).final,
    "measure": lambda d, rng: measure(random_hermitian(d, rng), random_state(d, rng), rng).post_state,
    "constrained_min": lambda d, rng: constrained_min(
        random_hermitian(d, rng),
        AdmissibleSubspace(level=2, basis=eigh(config_observable(d)).eigenvectors[:, :1]),
        seed=3, hbar=1.5).argmin,
    "Scenario.state": scenario_state,
}


@pytest.mark.parametrize("copier", [copy.deepcopy, pickled])
@pytest.mark.parametrize("produce", RETURNED_STATES.values(), ids=RETURNED_STATES.keys())
def test_every_returned_state_survives_a_copy(produce, copier):
    rng = np.random.default_rng(20261021)
    for d in range(2, 9):
        state = produce(d, rng)
        twin = copier(state)
        assert twin.components.tobytes() == state.components.tobytes()
        assert twin.hbar == state.hbar and twin.norm_squared() == state.norm_squared()


class TestThresholdTable:
    """Every threshold is assigned once, in core's table."""

    TABLE = ("TOL_SHELL", "TOL_HERM", "TOL_ZERO", "TOL_SAME_STATE", "JACOBI_REL_TOL",
             "JACOBI_TINY_NORM", "TOL_RESOLUTION", "TOL_CLUSTER", "TOL_GRAM", "TOL_START",
             "RK4_SHELL_TOL", "TOL_REST", "TOL_MEAN_GUARD", "TOL_CF", "TOL_NORM_DRIFT",
             "POOL_MIN_EXPECTED")

    @staticmethod
    def modules():
        return {path.name: ast.parse(path.read_text())
                for path in sorted(Path(shellqm.__file__).parent.glob("*.py"))}

    def test_no_small_float_literal_outside_core(self):
        # 1e-5 leaves out step sizes such as hermitian_from_function's step=1e-3
        found = [(name, node.lineno, node.value)
                 for name, tree in self.modules().items() if name != "core.py"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and type(node.value) is float
                 and 0.0 < node.value <= 1e-5]
        assert found == []

    def test_every_raise_is_a_package_error(self):
        # a refusal is a ShellQMError, which `cli.main` reports as one JSON
        # line; the rest are cli's own usage errors and exit, eigh's type
        # check, numpy's gufunc error contract and the seed protocol's error
        allowed = {("cli.py", "ValueError"): 2, ("cli.py", "argparse.ArgumentError"): 1,
                   ("cli.py", "SystemExit"): 2, ("linalg.py", "TypeError"): 1,
                   ("linalg.py", "LinAlgError"): 2, ("rng.py", "ValueError"): 1}
        others = {}
        for name, tree in self.modules().items():
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise):
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    kind = ast.unparse(exc) if exc is not None else "bare raise"
                    error = getattr(shellqm.errors, kind, None)
                    if not (isinstance(error, type) and issubclass(error, ShellQMError)):
                        others[name, kind] = others.get((name, kind), 0) + 1
        assert others == allowed

    def test_each_module_imports_only_its_listed_siblings(self):
        # the package imports its own modules relatively; `from . import x`
        # names the package itself.  The document layer (scenario) stands on
        # core and errors alone.  A change that adds an edge edits this table.
        graph = {
            "__init__": {"core", "dynamics", "experiments", "linalg", "measurement",
                         "phasespace", "scenario"},
            "cli": {"__init__", "dynamics", "errors", "experiments", "linalg", "measurement",
                    "phasespace", "rng", "scenario"},
            "core": {"errors"},
            "dynamics": {"core", "errors", "linalg"},
            "errors": set(),
            "experiments": {"core", "errors", "linalg", "measurement", "phasespace", "rng"},
            "linalg": {"core", "errors"},
            "measurement": {"core", "errors", "linalg", "rng"},
            "phasespace": {"core", "errors"},
            "rng": {"core", "errors"},
            "scenario": {"core", "errors"},
        }
        found = {name.removesuffix(".py"): {node.module or "__init__" for node in ast.walk(tree)
                                            if isinstance(node, ast.ImportFrom) and node.level}
                 for name, tree in self.modules().items()}
        assert found == graph

    def test_each_threshold_is_assigned_only_in_core(self):
        assigned = {}
        for name, tree in self.modules().items():
            for stmt in tree.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in self.TABLE:
                        assigned.setdefault(target.id, []).append(name)
        assert assigned == {threshold: ["core.py"] for threshold in self.TABLE}
        assert all(isinstance(getattr(shellqm.core, t), float) for t in self.TABLE)


def norm_case(kind: str) -> np.ndarray:
    """A seeded complex 6x6 array of Gaussian entries scaled to `kind`: "unit",
    "subnormal" (about 1e-320), "huge" (1e154 to 1e308 by row, so the sum of
    squares overflows) or with one NaN or one inf entry."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    if kind == "subnormal":
        g *= 1e-320
    elif kind == "huge":
        g *= np.logspace(154, 307.5, 6)[:, None]
    elif kind in ("nan", "inf"):
        g[2, 3] = complex(float(kind), 1.0)
    return g


class TestFroNorm:
    """`fro_norm` is `np.linalg.norm` of a complex array, bit for bit, on the
    shapes its callers pass, and the package calls no `np.linalg.norm`."""

    @pytest.mark.parametrize("kind", ["unit", "subnormal", "huge", "nan", "inf"])
    @pytest.mark.parametrize("view", ["matrix", "row", "column", "top rows"])
    def test_same_bits_as_np_linalg_norm(self, kind, view):
        g = norm_case(kind)
        # a C-contiguous matrix and vector, a strided column (`vectors[:, k]`), and
        # the top of a stacked (2d, d) buffer (Jacobi's A over V)
        x = {"matrix": g, "row": g[2].copy(), "column": g[:, 3],
             "top rows": np.concatenate((g, np.eye(6)))[:6]}[view]
        with np.errstate(over="ignore"):
            got, want = shellqm.core.fro_norm(x), np.linalg.norm(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()

    def test_package_does_not_call_np_linalg_norm(self):
        calls = [(name, node.lineno)
                 for name, tree in TestThresholdTable.modules().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "norm"
                 and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                 or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                 and any(alias.name == "norm" for alias in node.names)]
        assert calls == []


class TestPublicNames:
    def test_all_is_unique_and_resolves(self):
        assert len(set(shellqm.__all__)) == len(shellqm.__all__)
        missing = [name for name in shellqm.__all__ if not hasattr(shellqm, name)]
        assert missing == []

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from shellqm import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(shellqm.__all__)
