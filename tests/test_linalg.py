import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shellqm.linalg
import shellqm.measurement
from shellqm import (
    HermitianObservable,
    StateVector,
    born_probabilities,
    commutator,
    config_observable,
    eigh,
    flow,
    make_state,
    mean_value,
    measure,
    project_to_shell,
    unitary_propagator,
)
from shellqm.core import JACOBI_REL_TOL, JACOBI_TINY_NORM, TOL_CLUSTER, phase_fix
from shellqm.linalg import JACOBI_SWEEPS, _cluster_labels, _rotate_round, _round_robin, _sweep
from shellqm.rng import master_rng
from shellqm.errors import NoConvergenceError, NotSquareError

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, check_hermitian, random_hermitian


def reconstruct(es) -> np.ndarray:
    """Sum of a_n |a_n><a_n| over the spectrum."""
    v = es.eigenvectors
    return (v * es.eigenvalues) @ v.conj().T


def cluster_indices(values: np.ndarray) -> list[list[int]]:
    """Group ascending eigenvalues one level at a time, joining a level to the
    cluster before it when the gap is within TOL_CLUSTER relative, or within
    100 * JACOBI_REL_TOL times the spectral radius: the oracle for
    `EigenSystem.cluster`."""
    clusters = [[0]]
    floor = 100.0 * JACOBI_REL_TOL * float(np.max(np.abs(values)))
    for k in range(1, values.shape[0]):
        prev, cur = values[k - 1], values[k]
        scale = max(1.0, abs(prev), abs(cur))
        if cur - prev <= max(TOL_CLUSTER * scale, floor):
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def rotate_round_apart(a, v, p, q, skip):
    """One round-robin round with A's columns, A's rows and V's columns
    updated one after another: the oracle for the fused update of A and V.
    Returns the number of pairs rotated."""
    b = a[p, q]
    absb = np.abs(b)
    keep = absb > skip
    if not keep.all():
        if not keep.any():
            return 0
        p, q, b, absb = p[keep], q[keep], b[keep], absb[keep]
    w = b / absb
    theta = (a[q, q].real - a[p, p].real) / (2.0 * absb)
    t = np.where(theta > 0.0, -1.0, 1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    sw = s * w
    swc = s * np.conj(w)
    pq = np.concatenate((p, q))
    qp = np.concatenate((q, p))
    cc = np.concatenate((c, c))
    col_mix = np.concatenate((swc, -sw))
    row_mix = np.concatenate((sw, -swc))[:, None]
    a[:, pq] = cc * a[:, pq] + col_mix * a[:, qp]
    a[pq, :] = cc[:, None] * a[pq, :] + row_mix * a[qp, :]
    a[pq, qp] = 0.0
    a[pq, pq] = a[pq, pq].real
    v[:, pq] = cc * v[:, pq] + col_mix * v[:, qp]
    return p.shape[0]


def round_robin_lists(d: int) -> list[list[tuple[int, int]]]:
    """The circle method one round at a time in Python lists, each round's
    pairs (p, q), p < q, in order: the oracle for `_round_robin`."""
    n = d + d % 2
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = zip(ring[: n // 2], reversed(ring[n // 2:]))
        rounds.append([(min(x, y), max(x, y)) for x, y in pairs if max(x, y) < d])
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return rounds


def sweep_plan_lists(d: int) -> list[tuple]:
    """Each round of `round_robin_lists(d)` as the tuple `_sweep(d)` keeps,
    entry by entry in Python lists: the oracle for `_sweep`."""
    plans = []
    for pairs in round_robin_lists(d):
        k = len(pairs)
        ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
        partner = list(range(d))
        for p, q in pairs:
            partner[p], partner[q] = q, p
        [idle] = [i for i in range(d) if i not in ps + qs] or [None]
        at = [d * p + q for p, q in pairs] + [(d + 1) * i for i in ps + qs]
        off = [2 * (d * i + j) for i, j in zip(ps + qs, qs + ps)]
        zeroed = [off[:k], off[k:], [x + 1 for x in off[:k]], [x + 1 for x in off[k:]],
                  [2 * (d + 1) * p + 1 for p in ps], [2 * (d + 1) * q + 1 for q in qs]]
        slot = [(ps + qs).index(i) if i in ps + qs else 2 * k for i in range(d)]
        slots = [[x + (2 * k + 1) * row for x in slot] for row in range(3)]
        plans.append((tuple(pairs), partner, idle, at, zeroed, slots))
    return plans


def jacobi_eigh_apart(matrix: np.ndarray) -> tuple:
    """The whole solve over the list-built schedule, with each round's A and
    V updates made apart by `rotate_round_apart` and the off-diagonal norm of
    A - diag(A), after the same power-of-two prescale of a tiny A: the oracle
    for `_jacobi_eigh`'s eigenvalues and eigenvectors, bit for bit, and for
    its counts of sweeps and of pairs rotated."""
    d = matrix.shape[0]
    a, v = np.array(matrix, dtype=complex), np.eye(d, dtype=complex)
    fro = float(np.linalg.norm(a))
    shift = 0
    if fro < JACOBI_TINY_NORM:
        shift = -int(np.frexp(np.max(np.abs(a.view(float))))[1])
        a = np.ldexp(a.view(float), shift).view(complex)
        fro = float(np.linalg.norm(a))
    sweeps = rotations = 0
    if d > 1 and fro > 0.0:
        target = JACOBI_REL_TOL * fro
        rounds = [tuple(np.array(side, dtype=np.intp) for side in zip(*pairs))
                  for pairs in round_robin_lists(d)]
        for _ in range(JACOBI_SWEEPS):
            if np.linalg.norm(a - np.diag(np.diag(a))) <= target:
                break
            sweeps += 1
            for p, q in rounds:
                rotations += rotate_round_apart(a, v, p, q, target / d)
    values = np.ldexp(np.diag(a).real, -shift)
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], v[:, order]
    vectors = np.column_stack([phase_fix(vectors[:, k]) for k in range(d)])
    cluster = _cluster_labels(values)
    vectors = vectors[:, np.lexsort((np.argmax(np.abs(vectors), axis=0), cluster))]
    return values, vectors, sweeps, rotations


def assert_same_bits(matrix: np.ndarray) -> None:
    """`_jacobi_eigh` and `jacobi_eigh_apart` agree bit for bit, signed zeros
    included, and on the counts of sweeps and rotations."""
    es = shellqm.linalg._jacobi_eigh(matrix)
    values, vectors, sweeps, rotations = jacobi_eigh_apart(matrix)
    for got, want in zip((es.eigenvalues, es.eigenvectors), (values, vectors)):
        assert bits(got) == bits(want)
    assert (es.sweeps, es.rotations) == (sweeps, rotations)


def bits(array: np.ndarray) -> bytes:
    """The bytes of an array: equal only when every entry is, -0.0 against 0.0
    included, which `np.array_equal` does not tell apart."""
    return np.ascontiguousarray(array).tobytes()


def decoupled_signed_zero(d: int) -> np.ndarray:
    """diag(-0.0 - 0.0j, 1, 2, ...) with indices 1 and 2 coupled: index 0 is
    never rotated, so its -0.0 eigenvalue survives only if its column and
    row come back unchanged from the rounds that leave it idle (d = 3) or
    skip its pairs (d = 5, 6)."""
    matrix = np.diag(np.arange(d).astype(complex))
    matrix[0, 0] = complex(-0.0, -0.0)
    matrix[1, 2], matrix[2, 1] = 0.5 + 0.25j, 0.5 - 0.25j
    return HermitianObservable(matrix).matrix


@st.composite
def hermitian_edge_matrices(draw):
    """An exactly Hermitian matrix, d = 2..12: random, real-only, or with a
    repeated eigenvalue; with exact zeros and -0.0 parts; scaled by 1, 1e-300,
    1e-150 or 1e150.  The lower triangle is the conjugate of the upper one
    entry for entry, so signed zeros survive."""
    d = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["random", "real", "repeated"]))
    rng = master_rng(draw(st.integers(0, 2**32)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "real":
        g = g.real.astype(complex)
    elif kind == "repeated":
        levels = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=d,
                                        max_size=d)))
        u = np.linalg.qr(g)[0]
        g = (u * levels) @ u.conj().T
    upper = np.triu_indices(d, 1)
    entries = g[upper]
    zeros = rng.random(entries.shape) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    signs = rng.choice([-1.0, 1.0], size=(2, entries.shape[0]))
    entries.real[zeros] = np.copysign(0.0, signs[0])[zeros]
    entries.imag[zeros] = np.copysign(0.0, signs[1])[zeros]
    diagonal = g.diagonal().real.copy()
    diagonal[rng.random(d) < 0.3] = -0.0
    scale = draw(st.sampled_from([1.0, 1e-300, 1e-150, 1e150]))
    matrix = np.zeros((d, d), dtype=complex)
    matrix[upper] = scale * entries
    matrix.T[upper] = np.conj(scale * entries)
    matrix[np.diag_indices(d)] = scale * diagonal
    return HermitianObservable(matrix).matrix


def three_levels(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U diag(v) U^H, v = (-2, 0.5, 3, -2, ...), for a seeded random unitary U:
    the matrix, U and v."""
    rng = master_rng(d)
    v = np.array([-2.0, 0.5, 3.0])[np.arange(d) % 3]
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    matrix = (u * v) @ u.conj().T
    return 0.5 * (matrix + matrix.conj().T), u, v


def block_diagonal(rng) -> np.ndarray:
    """Two random 8x8 Hermitian blocks on the diagonal: most rounds pair some
    indices across the blocks, whose entries are exact zeros and are
    skipped, and others inside one block."""
    matrix = np.zeros((16, 16), dtype=complex)
    matrix[:8, :8] = random_hermitian(8, rng).matrix
    matrix[8:, 8:] = random_hermitian(8, rng).matrix
    return matrix


@st.composite
def degenerate_observable_and_state(draw):
    """U diag(v) U^H with repeated entries in v (d = 1..8) and a shell state."""
    d = draw(st.integers(1, 8))
    levels = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=d, unique=True))
    v = np.array([levels[draw(st.integers(0, len(levels) - 1))] for _ in range(d)])
    rng = master_rng(draw(st.integers(0, 2**32)))
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    hbar = draw(st.sampled_from([0.5, 1.0, 2.0]))
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    return HermitianObservable((u * v) @ u.conj().T), project_to_shell(raw, hbar)


class TestCheckHermitian:
    def test_identity(self):
        assert check_hermitian(np.eye(3))

    def test_symmetric_imaginary_off_diagonal_fails(self):
        assert not check_hermitian(np.array([[0, 1j], [1j, 0]]))

    def test_sigma_y(self):
        # oracle: conj(i) = -i, so the off-diagonal pair matches
        assert check_hermitian(SIGMA_Y)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            check_hermitian(np.zeros((2, 3)))


class TestEigh:
    def test_diagonal_input_sorted(self):
        es = eigh(HermitianObservable(np.diag([3.0, 1.0, 2.0]).astype(complex)))
        assert np.array_equal(es.eigenvalues, [1.0, 2.0, 3.0])
        # eigenvectors are the permuted standard basis
        assert np.allclose(np.abs(es.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_sigma_x_closed_form(self):
        # oracle: closed-form 2x2 eigenproblem
        es = eigh(HermitianObservable(SIGMA_X))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-14)
        r = 1 / np.sqrt(2)
        assert np.allclose(es.eigenvectors[:, 0], [r, -r], atol=1e-12)
        assert np.allclose(es.eigenvectors[:, 1], [r, r], atol=1e-12)

    def test_reconstruction_random_6x6(self, rng):
        obs = random_hermitian(6, rng)
        es = eigh(obs)
        scale = max(1.0, float(np.max(np.abs(es.eigenvalues))))
        assert np.max(np.abs(reconstruct(es) - obs.matrix)) <= 1e-9 * scale

    def test_500_random_matrices_invariants(self, rng):
        for _ in range(500):
            d = int(rng.integers(1, 9))
            obs = random_hermitian(d, rng)
            es = eigh(obs)
            assert np.all(np.diff(es.eigenvalues) >= 0)
            v = es.eigenvectors
            gram = v.conj().T @ v
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-9
            completeness = v @ v.conj().T
            assert np.max(np.abs(completeness - np.eye(d))) <= 1e-9
            scale = max(1.0, float(np.max(np.abs(es.eigenvalues))))
            assert np.max(np.abs(reconstruct(es) - obs.matrix)) <= 1e-9 * scale

    def test_orthonormality_and_completeness_tight(self, rng):
        for _ in range(50):
            obs = random_hermitian(int(rng.integers(2, 9)), rng)
            es = eigh(obs)
            v = es.eigenvectors
            d = es.dimension
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
            assert np.max(np.abs(v @ v.conj().T - np.eye(d))) <= 1e-10

    def test_trace_preserved(self, rng):
        for _ in range(100):
            obs = random_hermitian(int(rng.integers(1, 9)), rng)
            es = eigh(obs)
            assert abs(np.sum(es.eigenvalues) - np.trace(obs.matrix).real) <= 1e-9

    def test_matches_lapack_eigenvalues(self, rng):
        for _ in range(100):
            obs = random_hermitian(int(rng.integers(2, 9)), rng)
            mine = eigh(obs).eigenvalues
            ref = np.linalg.eigvalsh(obs.matrix)
            assert np.allclose(mine, ref, atol=1e-10 * max(1.0, np.max(np.abs(ref))))

    def test_deterministic_output(self, rng):
        obs = random_hermitian(5, rng)
        a, b = eigh(obs), eigh(obs)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert np.array_equal(a.cluster, b.cluster)
        assert np.array_equal(a.cluster_values, b.cluster_values)

    def test_phase_convention(self, rng):
        # first above-threshold component of every eigenvector is real positive
        for _ in range(20):
            es = eigh(random_hermitian(int(rng.integers(2, 7)), rng))
            for k in range(es.dimension):
                v = es.eigenvectors[:, k]
                lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
                assert abs(lead.imag) <= 1e-15
                assert lead.real > 0

    def test_degenerate_clusters(self):
        es = eigh(HermitianObservable(np.eye(3, dtype=complex)))
        assert es.cluster.tolist() == [0, 0, 0]
        es = eigh(config_observable(3))
        assert es.cluster.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("s", [10.0**k for k in range(2, 13)])
    def test_degenerate_zero_of_a_wide_spectrum_is_one_outcome(self, s):
        # the doubled 0 comes out about eps * s apart, far above 1e-8 at large
        # s, so the gap is judged against the spectral radius, not against 0
        rng = master_rng(int(np.log10(s)))
        for _ in range(20):
            u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            m = (u * np.array([-s, 0.0, 0.0, s])) @ u.conj().T
            es = eigh(HermitianObservable(0.5 * (m + m.conj().T)))
            assert es.cluster.tolist() == [0, 1, 1, 2]
            assert np.allclose(es.cluster_values, [-s, 0.0, s], rtol=0.0, atol=1e-12 * s)

    @pytest.mark.parametrize("levels", [(0.0, 1.0, 1e8), (0.0, 1.0, 1e9), (0.0, 10.0, 1e9),
                                        (-1e9, 0.0, 1.0)])
    def test_distinct_levels_of_a_wide_spectrum_stay_apart(self, levels):
        # a diagonal matrix is solved exactly, so 0 and 1 are two outcomes
        # however wide the rest of the spectrum is
        obs = HermitianObservable(np.diag(levels).astype(complex))
        es = eigh(obs)
        assert es.cluster.tolist() == [0, 1, 2]
        assert es.cluster_values.tolist() == list(levels)
        state = make_state(np.eye(3)[levels.index(0.0)], hbar=1.0)
        assert measure(obs, state, master_rng(0)).value == 0.0

    @pytest.mark.parametrize("raw", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]]])
    def test_raw_matrix_refused(self, raw):
        with pytest.raises(TypeError, match="HermitianObservable"):
            eigh(raw)


def tied_moduli_case() -> tuple[HermitianObservable, StateVector]:
    """diag(1e-323) beside the block [[2t, -t+ti], [-t-ti, 2t]], t = 5e-324,
    and a state: one cluster of three subnormal eigenvalues whose vectors tie
    in modulus until the phase fix rounds the ties apart (found by the
    property below, which ordered the members before the phase fix)."""
    t = 5e-324
    matrix = np.zeros((3, 3), dtype=complex)
    matrix[0, 0] = 1e-323
    matrix[1:, 1:] = [[2 * t, -t + 1j * t], [-t - 1j * t, 2 * t]]
    return HermitianObservable(matrix), make_state([0.6, 0.8j, 0.0], hbar=1.0)


class TestClustersAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_observable_and_state(), st.integers(0, 2**32))
    @example(tied_moduli_case(), 0)
    def test_labels_probabilities_and_collapse(self, case, seed):
        obs, state = case
        es = eigh(obs)
        clusters = cluster_indices(es.eigenvalues)
        labels = [k for k, members in enumerate(clusters) for _ in members]
        assert es.cluster.tolist() == labels
        # in-cluster order: by largest-modulus component, ties by position
        keys = np.argmax(np.abs(es.eigenvectors), axis=0).tolist()
        for members in clusters:
            assert [n for _, n in sorted(zip([keys[n] for n in members], members))] == members

        weights = np.abs(es.eigenvectors.conj().T @ state.components) ** 2 / state.hbar
        want_probs = [float(np.sum(weights[c])) for c in clusters]
        want_values = [float(np.mean(es.eigenvalues[c])) for c in clusters]
        dist = born_probabilities(obs, state)
        for c, p, want_p, value, want_value in zip(clusters, dist.probabilities, want_probs,
                                                   dist.values, want_values):
            if len(c) <= 7:  # np.sum adds in sequence below 8 members, as bincount does
                assert (p, value) == (want_p, want_value)
            else:
                assert p == pytest.approx(want_p, rel=1e-15, abs=0.0)
                assert value == pytest.approx(want_value, rel=1e-15, abs=0.0)

        record = measure(obs, state, master_rng(seed))
        span = es.eigenvectors[:, clusters[record.cluster]]
        post = record.post_state.components
        assert np.linalg.norm(post - span @ (span.conj().T @ post)) <= 1e-12 * np.sqrt(state.hbar)
        assert record.value == es.cluster_values[record.cluster]

    def test_arrays_are_read_only(self, rng):
        es = eigh(random_hermitian(4, rng))
        for array in (es.eigenvalues, es.eigenvectors, es.cluster, es.cluster_values):
            assert not array.flags.writeable


class TestEighCache:
    def test_same_instance_returns_same_system(self, rng):
        obs = random_hermitian(4, rng)
        assert eigh(obs) is eigh(obs)

    def test_cached_system_matches_fresh_solve_bytes(self, rng):
        obs = random_hermitian(6, rng)
        cached = eigh(obs)
        fresh = eigh(HermitianObservable(obs.matrix))
        assert cached.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert cached.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
        assert cached.cluster.tobytes() == fresh.cluster.tobytes()
        assert cached.cluster_values.tobytes() == fresh.cluster_values.tobytes()

    def test_fresh_instance_solved_again(self, rng):
        m = random_hermitian(3, rng).matrix
        assert eigh(HermitianObservable(m)) is not eigh(HermitianObservable(m))

    def test_source_array_writes_do_not_reach_observable(self, rng):
        source = random_hermitian(4, rng).matrix.copy()
        original = source.copy()
        obs = HermitianObservable(source)
        source.setflags(write=True)
        source[0, 0] += 100.0
        assert np.array_equal(obs.matrix, original)
        fresh = eigh(HermitianObservable(original))
        assert eigh(obs).eigenvalues.tobytes() == fresh.eigenvalues.tobytes()

    def test_one_solve_across_flow_grid_mean_and_measure(self, rng, monkeypatch):
        calls = []

        def counting(name, function):
            def counted(*args):
                calls.append(name)
                return function(*args)
            return counted

        monkeypatch.setattr(shellqm.linalg, "_jacobi_eigh",
                            counting("solve", shellqm.linalg._jacobi_eigh))
        monkeypatch.setattr(shellqm.measurement, "ProbabilityDistribution",
                            counting("born", shellqm.measurement.ProbabilityDistribution))
        monkeypatch.setattr(shellqm.measurement, "_normalized_cdf",
                            counting("cdf", shellqm.measurement._normalized_cdf))
        obs = random_hermitian(5, rng)
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi = make_state(raw / np.linalg.norm(raw), hbar=1.0)
        for t in np.linspace(0.0, 2.0 * np.pi, 9):
            flow(obs, psi, float(t))
        dist = born_probabilities(obs, psi)
        mean_value(obs, psi)
        stream = master_rng(3)
        for _ in range(3):
            measure(obs, psi, stream)
        measure(obs, psi, stream, system=eigh(obs))
        assert sorted(calls) == ["born", "cdf", "solve"]
        assert born_probabilities(obs, psi) is dist
        with pytest.raises(ValueError):
            dist.probabilities[0] = 0.5
        with pytest.raises(ValueError):
            dist.cdf[0] = 0.5
        # another observable instance, even of the same matrix, is computed anew
        other = HermitianObservable(obs.matrix)
        fresh = born_probabilities(other, psi)
        assert fresh is not dist and calls.count("born") == 2
        assert fresh.probabilities.tobytes() == dist.probabilities.tobytes()


def assert_decomposes(obs: HermitianObservable, es) -> None:
    """Ascending, orthonormal, complete, reconstructs the input, and agrees with
    LAPACK's eigenvalues."""
    d = obs.dimension
    ref = np.linalg.eigvalsh(obs.matrix)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.all(np.diff(es.eigenvalues) >= 0)
    v = es.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-12 * d
    assert np.max(np.abs(v @ v.conj().T - np.eye(d))) <= 1e-12 * d
    assert np.max(np.abs(reconstruct(es) - obs.matrix)) <= 1e-12 * d * scale
    assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-13 * d * scale


class TestRoundRobin:
    """Sweeps in round-robin order: disjoint rotations, one round at a time."""

    @pytest.mark.parametrize("d", range(2, 66))
    def test_schedule_covers_each_pair_once_in_disjoint_rounds(self, d):
        big_p, big_q = _round_robin(d)
        assert big_p.shape == big_q.shape == (d + d % 2 - 1, d // 2)
        seen = []
        for p, q in zip(big_p, big_q):
            assert np.all(p < q)
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * p.shape[0]
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(i, j) for i in range(d) for j in range(i + 1, d)]
        again = _round_robin(d)
        assert np.array_equal(again[0], big_p) and np.array_equal(again[1], big_q)

    @pytest.mark.parametrize("d", range(2, 66))
    def test_schedule_is_the_circle_method_in_order(self, d):
        big_p, big_q = _round_robin(d)
        got = [list(zip(p.tolist(), q.tolist())) for p, q in zip(big_p, big_q)]
        assert got == round_robin_lists(d)

    def test_sweep_plan_is_cached_per_dimension(self):
        assert _sweep(5) is _sweep(5)
        assert _sweep(5) is not _sweep(6)
        assert _sweep(5) is not _sweep.__wrapped__(5)

    @pytest.mark.parametrize("d", range(2, 66))
    def test_sweep_plan_is_a_fresh_plan_made_read_only(self, d):
        fresh = sweep_plan_lists(d)
        plan = _sweep(d)
        assert len(plan) == len(fresh) == d + d % 2 - 1
        for got, want in zip(plan, fresh):
            assert len(got) == len(want) == 6
            assert got[0] == want[0] and got[2] == want[2]
            for a, b in zip(got[1:2] + got[3:], want[1:2] + want[3:]):
                assert a.dtype == np.intp and np.array_equal(a, b)
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            # an involution whose one fixed point, for odd d, is the idle index
            partner = got[1]
            assert np.array_equal(partner[partner], np.arange(d))
            fixed = (partner == np.arange(d)).nonzero()[0].tolist()
            assert fixed == ([got[2]] if d % 2 else [])

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 9, 16, 33, 64])
    def test_random_matrices_against_lapack(self, d, rng):
        for _ in range(3):
            obs = random_hermitian(d, rng)
            es = eigh(obs)
            assert_decomposes(obs, es)
            # nondegenerate: each eigenvector is LAPACK's up to its phase, to
            # within the convergence target over the smallest gap
            values, vectors = np.linalg.eigh(obs.matrix)
            ref = np.column_stack([phase_fix(vectors[:, k]) for k in range(d)])
            tol = 10.0 * JACOBI_REL_TOL * np.linalg.norm(obs.matrix) / np.min(np.diff(values))
            assert np.max(np.abs(es.eigenvectors - ref)) <= tol

    @pytest.mark.parametrize("d", [16, 33])
    def test_degenerate_three_levels(self, d):
        levels = np.array([-2.0, 0.5, 3.0])
        matrix, u, v = three_levels(d)
        obs = HermitianObservable(matrix)
        es = eigh(obs)
        assert_decomposes(obs, es)
        sizes = [int(np.sum(v == level)) for level in levels]
        assert es.cluster.tolist() == [k for k, n in enumerate(sizes) for _ in range(n)]
        assert np.allclose(es.cluster_values, levels, rtol=0.0, atol=1e-12 * d)
        for k, level in enumerate(levels):
            span = es.eigenvectors[:, es.cluster == k]
            want = u[:, v == level]
            assert np.max(np.abs(span @ span.conj().T - want @ want.conj().T)) <= 1e-12 * d

    def test_block_diagonal_leaves_whole_rounds_idle(self, rng):
        # Two 8x8 blocks: the first round pairs every index of one block with
        # one of the other, so in every sweep it has nothing to rotate, and the
        # exact zeros between the blocks stay exact.
        big_p, big_q = _round_robin(16)
        assert np.all(big_p[0] < 8) and np.all(big_q[0] >= 8)
        obs = HermitianObservable(block_diagonal(rng))
        es = eigh(obs)
        assert_decomposes(obs, es)
        upper = np.any(es.eigenvectors[:8] != 0.0, axis=0)
        lower = np.any(es.eigenvectors[8:] != 0.0, axis=0)
        assert np.all(upper != lower)
        assert np.sum(upper) == 8

    @pytest.mark.parametrize("case", [*(f"random-{d}" for d in (*range(2, 10), 16, 33, 64)),
                                      *(f"{kind}-{d}" for kind in ("real", "imaginary")
                                        for d in (5, 7, 9)),
                                      *(f"decoupled-{d}" for d in (3, 5, 6)),
                                      "block-diagonal", "three-levels"])
    def test_fused_round_is_bit_exact(self, case, rng):
        # signed zeros count: compare the bits.  Odd d leaves one index idle
        # per round, whose column and row must come back unchanged; a real
        # or purely imaginary matrix carries signed zeros through every mix.
        kind, _, d = case.partition("-")
        if kind == "block":
            matrix = block_diagonal(rng)
        elif kind == "three":
            matrix = three_levels(33)[0]
        elif kind == "imaginary":
            k = rng.normal(size=(int(d), int(d)))
            matrix = HermitianObservable(1j * (k - k.T)).matrix
        elif kind == "decoupled":
            matrix = decoupled_signed_zero(int(d))
            assert np.signbit(eigh(HermitianObservable(matrix)).eigenvalues[0])
        else:
            matrix = random_hermitian(int(d), rng).matrix
            if kind == "real":
                matrix = HermitianObservable(matrix.real).matrix
        assert_same_bits(matrix)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(hermitian_edge_matrices())
    def test_solve_is_bit_exact_on_edge_matrices(self, matrix):
        assert_same_bits(matrix)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(hermitian_edge_matrices(), st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from([0, 64]))
    def test_each_round_is_bit_exact_on_edge_matrices(self, matrix, skip, small_round):
        # every entry of A and V after each round of a sweep, off-diagonal
        # signed zeros included, on A as the solve prescales it and with a
        # skip threshold that drops some pairs, with the coefficients formed
        # in numpy (SMALL_ROUND 0) or on Python numbers (64) at every d
        d = matrix.shape[0]
        fro = float(np.linalg.norm(matrix))
        if fro < JACOBI_TINY_NORM:
            parts = matrix.view(float)
            matrix = np.ldexp(parts, -int(np.frexp(np.max(np.abs(parts)))[1])).view(complex)
            fro = float(np.linalg.norm(matrix))
        skip = max(skip * float(np.median(np.abs(matrix))), JACOBI_REL_TOL * fro / d)
        av = np.concatenate((matrix, np.eye(d, dtype=complex)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shellqm.linalg, "SMALL_ROUND", small_round)
            for plan, pairs in zip(_sweep(d), round_robin_lists(d)):
                a, v = av[:d].copy(), av[d:].copy()
                p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
                assert _rotate_round(av, plan, skip) == rotate_round_apart(a, v, p, q, skip)
                assert bits(av) == bits(np.concatenate((a, v)))

    @pytest.mark.parametrize("small_round", [0, 64], ids=["numpy", "python"])
    @pytest.mark.parametrize("case", ["random-7", "random-16", "random-33", "real-9",
                                      "imaginary-9", "imaginary-16", "decoupled-5"])
    def test_both_coefficient_paths_are_bit_exact(self, case, small_round, rng, monkeypatch):
        # each path alone, at dimensions where the solve would take the other
        monkeypatch.setattr(shellqm.linalg, "SMALL_ROUND", small_round)
        self.test_fused_round_is_bit_exact(case, rng)

    # below 1e-154 the squares in ||A||_F underflow: 1e-200 and 1e-300 are
    # solved only through the power-of-two prescale
    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-200, 1e-300])
    @pytest.mark.filterwarnings("error")
    def test_extreme_scale_raises_no_warning(self, scale, rng):
        base = random_hermitian(16, rng).matrix
        obs = HermitianObservable(base * scale)
        es = eigh(obs)
        ref = np.linalg.eigvalsh(base) * scale
        assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-13 * 16 * np.max(np.abs(ref))
        v = es.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(16))) <= 1e-12 * 16

    @pytest.mark.parametrize("d", [1, 2, 5, 8, 16, 33])
    def test_work_counts_repeat_exactly(self, d, rng):
        matrix = random_hermitian(d, rng).matrix
        es = eigh(HermitianObservable(matrix))
        again = eigh(HermitianObservable(matrix))
        assert (es.sweeps, es.rotations) == (again.sweeps, again.rotations)
        assert 0 <= es.sweeps <= JACOBI_SWEEPS
        assert es.rotations <= es.sweeps * d * (d - 1) // 2
        assert (es.sweeps > 0) == (es.rotations > 0) == (d > 1)

    def test_work_counts_exclude_skipped_pairs(self, rng):
        diagonal = eigh(HermitianObservable(np.diag([3.0, 1.0, 2.0])))
        assert (diagonal.sweeps, diagonal.rotations) == (0, 0)
        # the 64 pairs across the two 8x8 blocks are skipped in every sweep
        es = eigh(HermitianObservable(block_diagonal(rng)))
        assert 0 < es.rotations <= es.sweeps * 2 * 28

    def test_sweep_budget_exhausted(self, rng, monkeypatch):
        monkeypatch.setattr(shellqm.linalg, "JACOBI_SWEEPS", 1)
        with pytest.raises(NoConvergenceError, match=r"Jacobi sweep budget \(1\) exhausted"):
            eigh(random_hermitian(32, rng))


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = random_hermitian(4, rng)
        assert np.max(np.abs(commutator(a, a))) == 0.0

    def test_pauli_algebra(self):
        # oracle: [sigma_x, sigma_y] = 2i sigma_z by hand
        got = commutator(HermitianObservable(SIGMA_X), HermitianObservable(SIGMA_Y))
        assert np.allclose(got, 2j * SIGMA_Z)

    def test_identity_commutes(self, rng):
        a = random_hermitian(3, rng)
        eye = HermitianObservable(np.eye(3, dtype=complex))
        assert np.max(np.abs(commutator(a, eye))) == 0.0

    def test_anti_hermitian_output(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            c = commutator(random_hermitian(d, rng), random_hermitian(d, rng))
            assert np.max(np.abs(c + c.conj().T)) <= 1e-12
            assert check_hermitian(1j * c)


class TestUnitaryPropagator:
    def test_t_zero_is_identity(self, rng):
        a = random_hermitian(5, rng)
        assert np.allclose(unitary_propagator(a, 0.0), np.eye(5), atol=1e-14)

    def test_sigma_x_quarter_turn(self):
        # oracle: exp(-i sx theta) = cos(theta) I - i sin(theta) sx at theta = pi/2
        u = unitary_propagator(HermitianObservable(SIGMA_X), np.pi / 2)
        assert np.allclose(u, -1j * SIGMA_X, atol=1e-14)

    def test_integer_spectrum_full_period(self):
        # oracle: eigenvalues 1 and 2 complete full turns at t = 2 pi
        u = unitary_propagator(config_observable(2), 2 * np.pi)
        assert np.allclose(u, np.eye(2), atol=1e-13)

    def test_unitarity(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 9))
            a = random_hermitian(d, rng)
            u = unitary_propagator(a, float(rng.uniform(-10, 10)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-10

    def test_group_property(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 7))
            a = random_hermitian(d, rng)
            s, t = rng.uniform(-10, 10, size=2)
            lhs = unitary_propagator(a, float(s)) @ unitary_propagator(a, float(t))
            rhs = unitary_propagator(a, float(s + t))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
