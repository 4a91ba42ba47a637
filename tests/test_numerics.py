import tracemalloc

import numpy as np
import pytest

import kraussim.numerics as numerics
from helpers import EIGEN_LEVELS, count_eigvalsh, decision, random_density, random_pure, random_unitary, with_spectrum
from kraussim.channels import KrausChannel, WignerBoost, WignerRotation
from kraussim.dilation import spectral_input
from kraussim.qsp import Gate, GrayWalk, Multiplexor
from kraussim.tomography import TomographyResult
from kraussim.numerics import (
    ConfigError,
    DensityMatrix,
    PureState,
    basis_state,
    bloch_state,
    herm_eig,
    kron,
    partial_trace,
    read_complex,
    read_integer,
    read_list,
    read_matrix,
    read_object,
    read_real,
    read_string,
    trace_distance,
    uniform_state,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_readers_accept_only_their_own_json_type():
    assert read_integer(7, "f") == 7 and type(read_integer(7.0, "f")) is int and read_integer(7.0, "f") == 7
    assert read_real(3, "f") == 3.0 and type(read_real(3, "f")) is float
    assert read_complex(0.5, "f") == 0.5 and read_complex([0.5, -1], "f") == complex(0.5, -1.0)
    assert read_string("s", "f") == "s" and read_list([1], "f") == [1] and read_object({}, "f") == {}
    rejected = [
        (read_integer, (True, "7", 2.9, float("nan"), float("inf"), None, [7]), "must be an integer"),
        (read_real, (True, False, "0.5", "NaN", None, [0.5], {}), "must be a real number"),
        (read_complex, (True, "0.5", [0.5, True], ["0.5", 0], [0.5], [0.5, 0, 0], None), r"must be a number or \[re, im\]"),
        (read_string, (True, 5, None, ["s"]), "must be a string"),
        (read_list, (True, "[1]", None, {}), "must be a list"),
        (read_object, (True, "{}", None, []), "must be an object"),
    ]
    for reader, values, problem in rejected:
        for value in values:
            with pytest.raises(ConfigError, match=f"^sweep.points: {problem}, got "):
                reader(value, "sweep.points")


def test_reader_bounds_defaults_and_huge_integers():
    assert read_integer(None, "seed", 0, default=0) == 0 and read_string(None, "mode", default="exact") == "exact"
    assert read_object(None, "output", {}) == {} and read_integer(10**400, "seed", 0) == 10**400
    with pytest.raises(ConfigError, match="^seed: must be >= 0, got -1$"):
        read_integer(-1, "seed", 0)
    with pytest.raises(ConfigError, match=f"^shots: must be <= {2**63 - 1}, got {2**63}$"):
        read_integer(2**63, "shots", maximum=2**63 - 1)
    with pytest.raises(ConfigError, match="^g: int too large to convert to float$"):
        read_real(10**400, "g")
    with pytest.raises(ConfigError, match="^g: must be finite, got nan$"):
        read_real(float("nan"), "g", finite=True)
    assert np.isnan(read_real(float("nan"), "g"))


def test_matrix_reader_names_the_row_and_entry():
    assert read_matrix([[1, [0, 1]], [[0, -1], 0.5]], "m").tolist() == [[1, 1j], [-1j, 0.5]]
    with pytest.raises(ConfigError, match="^m row 1: must have 2 entries, got 3$"):
        read_matrix([[1, 0], [0, 1, 0]], "m")
    with pytest.raises(ConfigError, match="^m row 0: must be a list, got 1$"):
        read_matrix([1, 0], "m")
    with pytest.raises(ConfigError, match=r"^m entry \(1, 0\): must be a number or \[re, im\], got True$"):
        read_matrix([[1, 0], [True, 1]], "m")


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_placement():
    m = kron(X, np.diag([1.0, 0.0]).astype(complex))
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 0] = expected[0, 2] = 1.0
    assert np.array_equal(m, expected)


def test_kron_matches_factorwise_action():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.allclose(kron(a, b) @ kron(u[:, None], v[:, None]).ravel(), np.kron(a @ u, b @ v), atol=1e-12)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    sig = random_density(rng, 3)
    joint = DensityMatrix(kron(rho.matrix, sig.matrix))
    left = partial_trace(joint, [2, 3], keep=[0])
    right = partial_trace(joint, [2, 3], keep=[1])
    assert np.allclose(left.matrix, rho.matrix, atol=1e-12)
    assert np.allclose(right.matrix, sig.matrix, atol=1e-12)


def test_partial_trace_sequential_orders_agree():
    # tracing out subsystems one at a time must match doing it in one shot,
    # in any order
    rng = np.random.default_rng(11)
    dims = [2, 3, 2]
    rho = random_density(rng, 12)
    direct = partial_trace(rho, dims, keep=[1])
    via_0_first = partial_trace(partial_trace(rho, dims, keep=[1, 2]), [3, 2], keep=[0])
    via_2_first = partial_trace(partial_trace(rho, dims, keep=[0, 1]), [2, 3], keep=[1])
    assert np.allclose(direct.matrix, via_0_first.matrix, atol=1e-10)
    assert np.allclose(direct.matrix, via_2_first.matrix, atol=1e-10)
    assert abs(np.trace(direct.matrix) - 1.0) < 1e-12


def test_partial_trace_keep_order_is_original_order():
    rng = np.random.default_rng(5)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    c = random_density(rng, 2)
    joint = DensityMatrix(kron(a.matrix, kron(b.matrix, c.matrix)))
    red = partial_trace(joint, [2, 2, 2], keep=[2, 0])
    assert np.allclose(red.matrix, kron(a.matrix, c.matrix), atol=1e-12)


def test_partial_trace_of_pure_state_matches_density_path_bitwise():
    rng = np.random.default_rng(11)
    for dims, keep in (([2] * 9, range(3)), ([3, 4, 2], [0, 2]), ([2, 2], [1])):
        psi = random_pure(rng, int(np.prod(dims)))
        via_state = partial_trace(psi, dims, keep)
        via_density = partial_trace(psi.to_density(), dims, keep)
        assert np.array_equal(via_state.matrix, via_density.matrix)
    with pytest.raises(ValueError):
        partial_trace(psi, [2, 3], keep=[0])


def test_partial_trace_of_sparse_pure_states_matches_density_path_bitwise():
    # exact zeros, and real or imaginary amplitudes, make terms of -0.0: an
    # entry whose every term is -0.0 still reads the density path's +0.0
    rng = np.random.default_rng(13)
    # the last two trace nothing and a dimension-1 factor only
    cases = (
        ([2] * 6, range(5)), ([2] * 5, [0, 1, 3]), ([3, 4, 2], [0, 2]), ([4, 2, 3], [1]),
        ([2] * 3, range(3)), ([2, 1, 4], [0, 2]),
    )
    for dims, keep in cases:
        dim = int(np.prod(dims))
        for part in [lambda z: z, lambda z: z.real, lambda z: 1j * z.imag] * 4:
            amps = part(random_pure(rng, dim).amplitudes).astype(complex)
            amps[rng.random(dim) < 0.5] = 0.0
            amps[0] = 1.0
            psi = PureState(amps / np.linalg.norm(amps))
            via_state = partial_trace(psi, dims, keep).matrix
            assert via_state.tobytes() == partial_trace(psi.to_density(), dims, keep).matrix.tobytes()


def test_partial_trace_of_a_ten_qubit_pure_state_forms_no_outer_product():
    # the 1024 x 1024 outer product alone takes 16 MiB; the products on the
    # traced diagonal of 3 kept qubits take 128 KiB
    psi = random_pure(np.random.default_rng(14), 2**10)
    tracemalloc.start()
    try:
        reduced = partial_trace(psi, [2] * 10, range(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(reduced.matrix, partial_trace(psi.to_density(), [2] * 10, range(3)).matrix)


def test_partial_trace_dimension_mismatch():
    rho = random_density(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        partial_trace(rho, [2, 3], keep=[0])
    with pytest.raises(ValueError):
        partial_trace(rho, [2, 2], keep=[])


def test_herm_eig_reconstruction_and_order():
    rng = np.random.default_rng(19)
    for dim in (2, 3, 5, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        vals, vecs = herm_eig(h)
        assert np.all(np.diff(vals) <= 0)  # descending
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - h) < 1e-8
        assert np.allclose(vecs.conj().T @ vecs, np.eye(dim), atol=1e-10)


def test_stacked_herm_eig_matches_each_matrix_alone():
    # one call on a (P, d, d) stack gives each matrix's own call byte for
    # byte, repeated eigenvalues included; a failing matrix is named by its
    # stack row, and a stack of one fails as its one matrix does
    rng = np.random.default_rng(4021)
    for dim in (1, 2, 4, 16):
        stack = [with_spectrum(rng, rng.standard_normal(dim)) for _ in range(3)]
        stack.append(with_spectrum(rng, np.repeat([0.5, -0.25], [dim - dim // 2, dim // 2])))
        w, v = herm_eig(np.stack(stack))
        assert w.shape == (4, dim) and v.shape == (4, dim, dim)
        for row, matrix in enumerate(stack):
            alone = herm_eig(matrix)
            assert w[row].tobytes() == alone[0].tobytes() and v[row].tobytes() == alone[1].tobytes(), (dim, row)
    skewed = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
    assert decision(lambda: herm_eig(skewed)) == "stack row 1: herm_eig input is not Hermitian"
    assert decision(lambda: herm_eig(skewed[1:2])) == decision(lambda: herm_eig(skewed[1]))
    assert decision(lambda: herm_eig(skewed[1])) == "herm_eig input is not Hermitian"
    assert decision(lambda: herm_eig(np.zeros((2, 2, 3)))) == "herm_eig input must be a square matrix, got shape (2, 2, 3)"


def test_trace_distance_symmetry_and_triangle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c = (random_density(rng, 3) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-10
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_trace_distance_plus_vs_maximally_mixed():
    plus = bloch_state(np.pi / 2, 0.0)
    rho = DensityMatrix(np.outer(plus.amplitudes, plus.amplitudes.conj()))
    mixed = DensityMatrix(np.eye(2) / 2)
    assert abs(trace_distance(rho, mixed) - 0.5) < 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))
    PureState(np.array([1.0, 1.0]) / np.sqrt(2))


def test_non_finite_entries_are_rejected():
    # a NaN defect compares false with every tolerance, so each check would pass
    with pytest.raises(ValueError, match=r"^state amplitude 1 is not finite: \(nan\+0j\)$"):
        PureState(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match=r"^density matrix entry \(1, 0\) is not finite: \(nan\+nanj\)$"):
        DensityMatrix(np.array([[0.5, 0.0], [complex(np.nan, np.nan), 0.5]]))
    with pytest.raises(ValueError, match=r"^herm_eig input entry \(0, 0\) is not finite: \(inf\+0j\)$"):
        herm_eig(np.diag([np.inf, 0.0]))


def test_state_constructors():
    assert np.array_equal(basis_state(4, 2).amplitudes, np.array([0, 0, 1, 0], dtype=complex))
    u = uniform_state(3)
    assert np.allclose(u.amplitudes, np.ones(3) / np.sqrt(3))
    b = bloch_state(np.pi / 3, np.pi / 4)
    assert abs(b.amplitudes[0] - np.cos(np.pi / 6)) < 1e-12
    assert abs(b.amplitudes[1] - np.exp(1j * np.pi / 4) * np.sin(np.pi / 6)) < 1e-12


def test_values_are_immutable():
    rho = random_density(np.random.default_rng(1), 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0
    psi = random_pure(np.random.default_rng(1), 2)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 5.0


@pytest.mark.parametrize("level", EIGEN_LEVELS)
def test_partial_trace_of_a_density_matrix_decides_as_the_constructor(monkeypatch, level):
    # rho on a kept qubit and a traced qutrit has the smallest eigenvalue
    # level / 3, well inside the tolerance, on three eigenvectors that trace to
    # one: its reduced state's is level.  The floor, 3 times rho's, decides
    # when it clears the tolerance; otherwise eigvalsh does
    rng = np.random.default_rng(3702)
    spectrum = np.repeat([level / 3, (1.0 - level) / 3], 3)
    u = kron(random_unitary(rng, 2), random_unitary(rng, 3))
    rho = DensityMatrix((u * spectrum) @ u.conj().T)
    reference = rho.matrix.reshape(2, 3, 2, 3).trace(axis1=1, axis2=3)
    expected = decision(lambda: DensityMatrix(reference))
    calls = count_eigvalsh(monkeypatch)
    assert decision(lambda: partial_trace(rho, [2, 3], keep=[0])) == expected
    assert expected == ("accepted" if level >= -1e-10 else f"density matrix has negative eigenvalue {level:.3e}")
    assert len(calls) == (level < -1e-10)


def test_pure_states_and_their_partial_traces_pass_on_the_gram_floor(monkeypatch):
    # an outer product and a pure state's reduced matrix are Gram matrices:
    # checked without eigvalsh, with the bytes of the density path
    rng = np.random.default_rng(3703)
    cases = []
    for n in range(1, 10):
        psi = random_pure(rng, 2**n)
        rho = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))
        for keep in ([0], list(range(n // 2 + 1)), list(range(n))):
            cases.append((psi, rho, n, keep, partial_trace(rho, [2] * n, keep).matrix))
    calls = count_eigvalsh(monkeypatch)
    for psi, rho, n, keep, reference in cases:
        assert np.array_equal(psi.to_density().matrix, rho.matrix)
        reduced = partial_trace(psi, [2] * n, keep)
        assert not reduced.matrix.flags.writeable
        assert np.array_equal(reduced.matrix, reference)
    assert calls == []


def test_ten_qubit_pure_state_kept_whole_falls_back_to_eigvalsh(monkeypatch):
    # nothing traced on 10 qubits: the 1024 x 1024 outer product's rounding
    # allowance, 1024 * 1025 * eps = 2.3e-10, exceeds the tolerance, so the
    # Gram floor 0.0 does not decide and eigvalsh runs, as the constructor's
    # would; on 9 qubits the allowance is 5.8e-11 and the floor decides
    rng = np.random.default_rng(3704)
    calls = count_eigvalsh(monkeypatch)
    nine, ten = random_pure(rng, 2**9), random_pure(rng, 2**10)
    assert partial_trace(nine, [2] * 9, range(9)).dim == 512 and calls == []
    reduced = partial_trace(ten, [2] * 10, range(10))
    assert calls == [(1024, 1024)]
    assert decision(lambda: DensityMatrix(reduced.matrix)) == "accepted"
    assert numerics._allowance(1024, 1) > numerics.VALIDATION_TOL > numerics._allowance(512, 1)


def test_constructor_floor_is_eigvalsh_minimum_less_its_allowance(monkeypatch):
    rng = np.random.default_rng(3705)
    rho = DensityMatrix(with_spectrum(rng, [0.5, 0.3, 0.2 + 5e-11, -5e-11]))
    lo = np.linalg.eigvalsh((rho.matrix + rho.matrix.conj().T) / 2.0).min()
    assert rho._floor == lo - numerics._allowance(4, 0)
    # a floor that is NaN or below the tolerance decides nothing: eigvalsh does
    bad = with_spectrum(rng, [0.6, 0.4 + 2e-10, -2e-10])
    calls = count_eigvalsh(monkeypatch)
    for floor in (np.nan, -1.0):
        assert DensityMatrix._bounded(rho.matrix, floor, 1)._floor == rho._floor
        assert decision(lambda: DensityMatrix._bounded(bad, floor, 1)) == decision(lambda: DensityMatrix(bad))
    assert len(calls) == 6


def test_array_holding_values_compare_and_hash_by_identity():
    rng = np.random.default_rng(3706)
    rho = random_density(rng, 2)
    values = [
        rho,
        random_pure(rng, 2),
        KrausChannel((np.eye(2),)),
        spectral_input(rho),
        TomographyResult(rho.matrix, rho),
        WignerBoost(0.5, np.array([0.0, 0.0, 1.0]), 0.3, (np.array([1.0, 0.0, 0.0]),)),
        WignerRotation(0.2, np.array([0.0, 1.0, 0.0])),
    ]
    for value in values:
        twin = type(value).__new__(type(value))
        twin.__dict__.update(value.__dict__)
        assert value == value and value != twin and not (value == twin)
        assert hash(value) == hash(value) != hash(twin)
        assert len({value, twin}) == 2
    # the circuit elements hold tuples, not arrays, and keep value equality
    for make in (lambda: Gate("x", 0.0, 1, ((0, 1),)), lambda: Multiplexor("ry", 1, [0, 1], [0.1, 0.2]),
                 lambda: GrayWalk("rz", 1, [0.3, 0.0])):
        assert make() == make() and not make() != make() and hash(make()) == hash(make())
