import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from types import SimpleNamespace

from helpers import (
    EIGEN_LEVELS,
    PAULIS,
    born,
    count_eigvalsh,
    decision,
    dense_gate,
    exact_expectations,
    gate_matrix,
    one_key,
    random_density,
    random_pure,
    reference_expectations,
    reference_expectations_by_string,
    reference_mitigate,
    reference_readout_noise,
    reference_reconstruct_raw,
    with_spectrum,
)
import kraussim.numerics as numerics
import kraussim.tomography as tomography
from kraussim.numerics import DensityMatrix, kron
from kraussim.simulator import ReadoutModel, mitigate, sample
from kraussim.tomography import (
    basis_rotation,
    expectations,
    extract_embedded,
    project_psd,
    reconstruct,
    settings_for,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def pauli_names(n):
    """The Pauli strings in the order of the expectation vectors."""
    return ["".join(letters) for letters in itertools.product("IXYZ", repeat=n)]


def test_settings_enumeration():
    t = settings_for(2)
    assert len(t.settings) == 9
    assert set(t.settings) == set(itertools.product("XYZ", repeat=2))
    assert len(t.rotations) == len(t.settings)
    assert t.rotations[t.settings.index(("Z", "Z"))] == ()
    assert t.rotations[t.settings.index(("Z", "X"))] == basis_rotation("X", 1)
    with pytest.raises(ValueError, match="at least one system qubit, got 0"):
        settings_for(0)


def test_basis_rotations_map_pauli_to_z():
    # measuring P in the computational basis requires R with R P R^dag = Z
    for pauli, matrix in (("X", X), ("Y", Y), ("Z", Z)):
        gates = basis_rotation(pauli, 0)
        r = np.eye(2, dtype=complex)
        for g in gates:
            r = gate_matrix(g) @ r
        assert np.abs(r @ matrix @ r.conj().T - Z).max() < 1e-12


def test_exact_reconstruction_round_trip():
    rng = np.random.default_rng(500)
    for dim in (2, 4):
        for _ in range(10):
            rho = random_density(rng, dim)
            result = reconstruct(exact_expectations(rho))
            assert np.abs(result.projected.matrix - rho.matrix).max() < 1e-10
            assert np.abs(result.raw - rho.matrix).max() < 1e-10


def test_reconstruct_requires_every_pauli_string():
    rho = random_density(np.random.default_rng(1), 2)
    values = exact_expectations(rho)
    assert values.shape == (4,) and values.dtype == np.float64
    for short in (values[:3], values[:0], np.tile(values, 2), values.reshape(2, 2)):
        with pytest.raises(ValueError, match="are not a vector of 4\\^n"):
            reconstruct(short)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reconstruct_names_the_first_non_finite_string(bad):
    rng = np.random.default_rng(2)
    for m, k, name in ((1, 2, "Y"), (2, 7, "XZ")):
        values = exact_expectations(random_density(rng, 2**m))
        values[k] = bad
        values[-1] = bad  # a later bad string is not the one named
        with pytest.raises(ValueError, match=f"^expectation of {name} is not finite$"):
            reconstruct(values)


def test_expectations_average_compatible_settings():
    # frequencies over outcomes 00, 01, 10, 11, one row per setting
    settings = settings_for(2).settings
    weights = np.full((9, 4), 0.25)
    weights[settings.index(("X", "X"))] = [1.0, 0.0, 0.0, 0.0]
    weights[settings.index(("X", "Y"))] = [0.0, 0.0, 1.0, 0.0]
    weights[settings.index(("X", "Z"))] = [0.75, 0.0, 0.25, 0.0]
    values, errors = expectations(weights)
    assert values.shape == (16,) and values.dtype == np.float64
    assert abs(values[pauli_names(2).index("XI")] - (1.0 - 1.0 + 0.5) / 3.0) < 1e-12
    assert values[pauli_names(2).index("II")] == 1.0
    assert errors is None  # no shot totals given


def system_marginal(probs, width, system_qubits):
    """Outcome distribution of ``system_qubits``, in that order, under Born
    probabilities over a ``width``-qubit register (qubit 0 the leading bit)."""
    ancillas = tuple(q for q in range(width) if q not in system_qubits)
    joint = probs.reshape((2,) * width).sum(axis=ancillas)
    kept = sorted(system_qubits)
    return joint.transpose([kept.index(q) for q in system_qubits]).reshape(-1)


# (register width, system qubits): m = 1..4, with ancilla bits and with
# system qubits that are not the leading ones; shots are drawn from the
# m-qubit system marginal, as the sampled sweep does
LAYOUTS = ((1, (0,)), (3, (2,)), (3, (2, 0)), (4, (1, 2, 3)), (5, (0, 1, 2, 3)), (6, (3, 0, 5, 1)))


@pytest.mark.parametrize("width, system_qubits", LAYOUTS)
@pytest.mark.parametrize("readout", [False, True])
def test_array_tomography_matches_reference_loops(width, system_qubits, readout):
    m = len(system_qubits)
    rng = np.random.default_rng([510, width, m, readout])
    model = ReadoutModel(e0=tuple(rng.uniform(0.0, 0.1, m)), e1=0.04)
    weights = []
    shots = []
    per_setting_ref = {}
    for k, setting in enumerate(settings_for(m).settings):
        # few shots leave many outcomes at zero count
        shots.append(int(rng.integers(1, 4 * 2**m)))
        probs = system_marginal(born(random_pure(rng, 2**width)), width, system_qubits)
        counts = sample(probs[None], shots[-1], one_key(511, k, 0))
        if readout:
            noisy = reference_readout_noise(counts.counts, model, one_key(511, k, 1))
            weights.append(mitigate(noisy, model)[0])
            per_setting_ref[setting] = reference_mitigate(noisy[0], model)
        else:
            weights.append(counts.counts[0])
            per_setting_ref[setting] = counts
    values, errors = expectations(np.stack(weights), shots=100 if readout else shots)
    ref_values, ref_errors = reference_expectations(per_setting_ref, shots_per_setting=100)
    assert list(ref_values) == pauli_names(m)
    assert values.tolist() == list(ref_values.values())
    assert errors.tolist() == list(ref_errors.values())
    raw = reconstruct(values).raw
    assert raw.tobytes() == reference_reconstruct_raw(ref_values).tobytes()


@pytest.mark.parametrize("m", [5, 6])
def test_expectations_match_per_string_loop_bit_for_bit(m):
    # rows of 81 and 243 settings per string at m = 5 and 6, past the pairwise
    # summation block, so only a row reduction in the loop's order passes
    rng = np.random.default_rng(515 + m)
    shots = rng.integers(1, 4 * 2**m, 3**m)
    counts = np.stack([rng.multinomial(s, rng.dirichlet(np.full(2**m, 0.3))) for s in shots])
    frequencies = rng.dirichlet(np.full(2**m, 0.5), size=3**m)
    frequencies[rng.random(frequencies.shape) < 0.3] = 0.0
    for weights in (counts, frequencies):
        for given in (None, 4096, shots):
            values, errors = expectations(weights, shots=given)
            ref_values, ref_errors = reference_expectations_by_string(weights, given)
            assert values.tobytes() == ref_values.tobytes()
            assert errors is None if given is None else errors.tobytes() == ref_errors.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_stacked_expectations_and_reconstruction_match_each_matrix_alone(m):
    # one call on a (P, 3^m, 2^m) stack gives each matrix's own call byte for
    # byte: values, errors, the raw matrix, the projected state and its
    # floor.  Few shots make the projection clip; a valid state's exact
    # expectations make it keep the spectrum, so both paths share a stack
    rng = np.random.default_rng(4022 + m)
    count = 2 if m == 6 else 4
    shots = rng.integers(1, 4 * 2**m, (count, 3**m))
    counts = np.stack([[rng.multinomial(s, rng.dirichlet(np.full(2**m, 0.3))) for s in row] for row in shots])
    frequencies = counts / counts.sum(axis=2, keepdims=True)
    for weights, given in ((counts, shots), (frequencies, 4096), (frequencies, None)):
        values, errors = expectations(weights, shots=given)
        assert values.shape == (count, 4**m) and (errors is None) == (given is None)
        for row in range(count):
            alone = expectations(weights[row], shots=given if given is None or np.ndim(given) == 0 else given[row])
            assert values[row].tobytes() == alone[0].tobytes(), (m, row)
            assert given is None or errors[row].tobytes() == alone[1].tobytes(), (m, row)
    stack = np.concatenate([values, [exact_expectations(random_density(rng, 2**m))]])
    result = reconstruct(stack)
    assert result.raw.shape == (count + 1, 2**m, 2**m) and len(result.projected) == count + 1
    kept = []
    for row, vector in enumerate(stack):
        alone = reconstruct(vector)
        assert result.raw[row].tobytes() == alone.raw.tobytes(), (m, row)
        assert result.projected[row].matrix.tobytes() == alone.projected.matrix.tobytes(), (m, row)
        assert result.projected[row]._floor == alone.projected._floor
        kept.append(np.array_equal(alone.projected.matrix, alone.raw))  # nothing clipped
    assert any(kept) and not all(kept)


def test_stacked_tomography_names_the_failing_row():
    # a failing matrix of a stack is named by its stack row; a stack of one
    # fails as its one matrix does
    weights = np.full((3, 9, 4), 0.25)
    weights[1, 4, 2] = -1.0
    assert decision(lambda: expectations(weights)) == (
        "stack row 1: setting YY has a negative or non-finite weight")
    assert decision(lambda: expectations(weights[1:2])) == decision(lambda: expectations(weights[1]))
    assert decision(lambda: expectations(weights[1])) == "setting YY has a negative or non-finite weight"
    values = np.zeros((3, 16))
    values[:, 0] = 1.0
    values[2, 5] = np.nan
    assert decision(lambda: reconstruct(values)) == "stack row 2: expectation of XX is not finite"
    assert decision(lambda: reconstruct(values[2:])) == "expectation of XX is not finite"
    negative = np.stack([np.eye(2) / 2, -np.eye(2) / 2])
    assert decision(lambda: project_psd(negative)) == "stack row 1: matrix has no positive eigenvalue mass"
    assert decision(lambda: project_psd(negative[1:])) == "matrix has no positive eigenvalue mass"


# register sizes 1 to 6 in an order that switches size at every call, so a
# table kept for one size is never read for another
INTERLEAVED = (3, 1, 6, 2, 5, 4, 1, 3, 2, 6, 4, 5)


def interleaved_data(i, n):
    """Counts, frequencies with exact zeros and per-setting shots of call i, on n qubits."""
    rng = np.random.default_rng([523, i, n])
    shots = rng.integers(1, 4 * 2**n, 3**n)
    counts = np.stack([rng.multinomial(s, rng.dirichlet(np.full(2**n, 0.4))) for s in shots])
    frequencies = rng.dirichlet(np.full(2**n, 0.5), size=3**n)
    frequencies[rng.random(frequencies.shape) < 0.3] = 0.0
    frequencies[:, -1] += 1e-3
    return counts, frequencies, shots


def test_expectation_tables_keep_the_bytes_across_interleaved_registers():
    # each call equals the per-string loop byte for byte, and all of them the
    # digest of the same calls made when every table was rebuilt per call
    digest = hashlib.sha256()
    for i, n in enumerate(INTERLEAVED):
        plan = settings_for(n)
        assert plan is settings_for(n)
        assert plan.settings == tuple(itertools.product("XYZ", repeat=n))
        assert plan.rotations == tuple(
            tuple(g for q, label in enumerate(setting) for g in basis_rotation(label, q)) for setting in plan.settings
        )
        counts, frequencies, shots = interleaved_data(i, n)
        for weights, given in ((counts, shots), (frequencies, 4096), (frequencies, None)):
            values, errors = expectations(weights, shots=given)
            ref_values, ref_errors = reference_expectations_by_string(weights, given)
            assert values.tobytes() == ref_values.tobytes(), (i, n)
            digest.update(values.tobytes())
            if given is None:
                assert errors is None
            else:
                assert errors.tobytes() == ref_errors.tobytes(), (i, n)
                digest.update(errors.tobytes())
    assert digest.hexdigest() == "a9f545140d18d6beacd2f6d9cf0d118eac292b3a2d083b20856476b63f52b604"


def test_reconstruct_keeps_the_bytes_across_interleaved_registers():
    # the raw matrix equals the one-string-at-a-time sum on every call, and
    # all of them the digest of the same calls with the order rebuilt per call
    digest = hashlib.sha256()
    for i, n in enumerate(INTERLEAVED):
        counts, frequencies, shots = interleaved_data(i, n)
        for weights, given in ((counts, shots), (frequencies, 4096), (frequencies, None)):
            values, _ = expectations(weights, shots=given)
            raw = reconstruct(values).raw
            if weights is counts and (n < 6 or i == 2):  # the reference takes 0.4 s at n = 6
                named = dict(zip(pauli_names(n), values.tolist()))
                assert raw.tobytes() == reference_reconstruct_raw(named).tobytes(), (i, n)
            digest.update(raw.tobytes())
    assert digest.hexdigest() == "32cc6499998198d5b96303ff57dee4b57aa02e364dce1f29a1b54ee93e64e9bd"


def test_register_tables_are_built_once_and_read_only():
    for n in (1, 2, 4):
        signs, by_weight = tomography._expectation_tables(n)
        order, sorted_entries = tomography._inversion_tables(n)
        assert len(by_weight) == n
        assert tomography._expectation_tables(n)[0] is signs
        assert tomography._inversion_tables(n)[0] is order
        arrays = [*tomography._pauli_strings(n), signs, order, sorted_entries]
        arrays += [arr for pair in by_weight for arr in pair]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 1
        # weight w stacks the tables of its C(n, w) masks, (3^w, 3^(n-w)) each,
        # and every string but the identity is in one weight's group once
        for w, (strings, index) in enumerate(by_weight, start=1):
            assert index.flags.c_contiguous and index.shape == (math.comb(n, w) * 3**w, 3 ** (n - w))
            assert strings.shape == index.shape[:1]
        assert sorted(np.concatenate([strings for strings, _ in by_weight]).tolist()) == list(range(1, 4**n))
        # a mask's table gathers its strings' settings: at mask 1 (the last
        # position), the first of weight 1, the settings whose last letter is
        # X, Y, Z in turn, read in the estimates' column 1
        strings, index = by_weight[0]
        assert (index[:3] // 2**n % 3 == np.arange(3)[:, None]).all()
        assert (index[:3] % 2**n == 1).all()
        assert strings[:3].tolist() == [1, 2, 3]


def test_system_marginal_orders_the_system_qubits():
    # |q0 q1 q2> = |0 1 1> with certainty: qubits (2, 0) read "10"
    probs = np.zeros(8)
    probs[0b011] = 1.0
    assert system_marginal(probs, 3, (2, 0)).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert system_marginal(probs, 3, (0, 2)).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_reconstruct_matches_reference_on_exact_values():
    rng = np.random.default_rng(512)
    # the X and Y terms of entry (1, 0) are both -0.0 in their real parts
    cases = [np.array([1.0, -0.0, -0.3, 0.2])]
    for n in (1, 2, 3, 4, 5, 6):
        values = exact_expectations(random_density(rng, 2**n))
        # exact zeros of both signs in 30% of the non-identity strings
        zeroed = np.where(rng.random(values.size) < 0.3, np.copysign(0.0, values), values)
        zeroed[0] = 1.0
        cases += [values, zeroed] if n < 6 else [zeroed]
    for values in cases:
        n = (values.size.bit_length() - 1) // 2
        named = dict(zip(pauli_names(n), values.tolist()))
        assert reconstruct(values).raw.tobytes() == reference_reconstruct_raw(named).tobytes()


def test_exact_expectations_are_pauli_traces():
    rng = np.random.default_rng(513)
    for n in (1, 2, 3, 4):
        rho = random_density(rng, 2**n)
        traces = [
            np.trace(rho.matrix @ kron(*(PAULIS[c] for c in letters))).real
            for letters in itertools.product("IXYZ", repeat=n)
        ]
        np.testing.assert_allclose(exact_expectations(rho), traces, rtol=0, atol=1e-12)


def test_reconstruct_forms_no_dense_pauli_basis():
    # a stacked (4^6, 2^6, 2^6) complex basis alone takes 268 MB
    values = exact_expectations(random_density(np.random.default_rng(514), 2**6))
    tracemalloc.start()
    try:
        reconstruct(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_expectations_reject_malformed_registers():
    # 9 settings of 2 qubits
    counts = np.zeros((9, 4), dtype=np.int64)
    counts[:, 0] = 4
    malformed = r"weights of shape {} are not 3\^n settings by 2\^n outcomes"
    with pytest.raises(ValueError, match=malformed.format(r"\(8, 4\)")):
        expectations(counts[:8])
    with pytest.raises(ValueError, match=malformed.format(r"\(9, 3\)")):
        expectations(counts[:, :3])
    # 2 qubits' settings over a 3-qubit register, or 0 qubits
    with pytest.raises(ValueError, match=malformed.format(r"\(9, 8\)")):
        expectations(np.tile(counts, 2))
    with pytest.raises(ValueError, match=malformed.format(r"\(1, 1\)")):
        expectations(np.ones((1, 1)))
    with pytest.raises(ValueError, match=malformed.format(r"\(36,\)")):
        expectations(counts.reshape(-1))
    empty = counts.copy()
    empty[settings_for(2).settings.index(("Y", "X"))] = 0
    with pytest.raises(ValueError, match="setting YX has no probability mass"):
        expectations(empty)
    for bad in (-0.5, np.inf):
        weights = counts.astype(np.float64)
        weights[settings_for(2).settings.index(("Y", "X")), 1] = bad
        with pytest.raises(ValueError, match="setting YX has a negative or non-finite weight"):
            expectations(weights)
    with pytest.raises(ValueError, match="shots: 8 totals for 9 settings"):
        expectations(counts, shots=[4] * 8)
    for shots in (0, -4, [4] * 8 + [0]):
        with pytest.raises(ValueError, match=r"shots: total -?\d+ is not positive"):
            expectations(counts, shots=shots)


def test_sampled_reconstruction_close_to_truth():
    rng = np.random.default_rng(502)
    target = random_pure(rng, 4)
    rho_true = np.outer(target.amplitudes, target.amplitudes.conj())
    tset = settings_for(2)
    probs = []
    for rotations in tset.rotations:
        # rotate analytically, then draw shots
        state = target.amplitudes.copy()
        for g in rotations:
            state = dense_gate(g, 2) @ state
        probs.append(np.abs(state) ** 2)
    counts = sample(np.stack(probs), 8192, np.concatenate([one_key(1000 + k) for k in range(len(probs))]))
    values, errors = expectations(counts.counts, shots=8192)
    result = reconstruct(values)
    assert np.abs(result.projected.matrix - rho_true).max() < 0.05
    assert errors.shape == (16,) and errors[0] == 0.0
    assert (errors[1:] > 0.0).all()


def test_psd_projection_redistributes_negative_mass():
    projected = project_psd(np.diag([1.2, -0.2]))
    assert np.abs(projected - np.diag([1.0, 0.0])).max() < 1e-12


def test_psd_projection_is_idempotent_and_trace_preserving():
    rng = np.random.default_rng(503)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = g + g.conj().T
    h = h / np.trace(h).real  # unit trace, typically indefinite
    p1 = project_psd(h)
    p2 = project_psd(p1)
    assert abs(np.trace(p1).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(p1).min() > -1e-12
    assert np.abs(p1 - p2).max() < 1e-12


def test_psd_projection_leaves_valid_states_alone():
    rho = random_density(np.random.default_rng(504), 3)
    assert np.abs(project_psd(rho.matrix) - rho.matrix).max() < 1e-12


def test_extract_embedded_block():
    rho3 = random_density(np.random.default_rng(505), 3)
    padded = np.zeros((4, 4), dtype=complex)
    padded[:3, :3] = rho3.matrix
    extracted, dropped = extract_embedded(DensityMatrix(padded), 3)
    assert dropped == 0.0
    assert np.abs(extracted.matrix - rho3.matrix).max() < 1e-12


def test_extract_embedded_reports_leaked_mass():
    mat = np.diag([0.5, 0.3, 0.1, 0.1]).astype(complex)
    extracted, dropped = extract_embedded(DensityMatrix(mat), 3)
    assert abs(dropped - 0.1) < 1e-12
    assert abs(np.trace(extracted.matrix).real - 1.0) < 1e-12
    assert np.abs(np.diag(extracted.matrix) - np.array([0.5, 0.3, 0.1]) / 0.9).max() < 1e-12


@pytest.mark.parametrize("level", EIGEN_LEVELS)
def test_reconstruct_decides_on_the_kept_spectrum_as_the_constructor(monkeypatch, level):
    # a raw 2-qubit matrix with the smallest eigenvalue level: the projection
    # keeps a spectrum >= 0 and its result passes on that floor, with the
    # bytes and the decision of the constructor on project_psd's output
    rng = np.random.default_rng(3711)
    raw = with_spectrum(rng, [0.5, 0.3, 0.2 - level, level])
    values = exact_expectations(SimpleNamespace(matrix=raw, dim=4))
    expected = DensityMatrix(project_psd(tomography.reconstruct(values).raw))
    calls = count_eigvalsh(monkeypatch)
    result = reconstruct(values)
    assert np.array_equal(result.projected.matrix, expected.matrix) and calls == []
    # a projection broken to return its input, with that input's own floor:
    # the floor no longer clears the tolerance below it, and the check
    # rejects as the constructor does
    monkeypatch.setattr(tomography, "_project_psd", lambda mat: (np.asarray(mat), level))
    assert decision(lambda: reconstruct(values)) == decision(lambda: DensityMatrix(result.raw))
    assert decision(lambda: DensityMatrix(result.raw)) == (
        "accepted" if level >= -1e-10 else f"density matrix has negative eigenvalue {level:.3e}")


@pytest.mark.parametrize("kept", [0.25, 1e-3])
@pytest.mark.parametrize("level", EIGEN_LEVELS)
def test_extract_embedded_decides_on_the_interlacing_floor_as_the_constructor(monkeypatch, kept, level):
    # a qutrit block of mass kept, whose normalized smallest eigenvalue is
    # level, and the rest on the padded level: the block's floor is the
    # state's divided by kept, so with kept = 1e-3 the state's rounding
    # allowance grows past the 1e-12 margins and eigvalsh decides
    rng = np.random.default_rng(3712)
    state = np.zeros((4, 4), dtype=complex)
    state[:3, :3] = kept * with_spectrum(rng, [0.6, 0.4 - level, level])
    state[3, 3] = 1.0 - np.trace(state[:3, :3]).real
    rho = DensityMatrix(state)
    expected = decision(lambda: DensityMatrix(rho.matrix[:3, :3] / np.trace(rho.matrix[:3, :3]).real))
    calls = count_eigvalsh(monkeypatch)
    assert decision(lambda: extract_embedded(rho, 3)) == expected
    assert expected == ("accepted" if level >= -1e-10 else f"density matrix has negative eigenvalue {level:.3e}")
    floor = rho._floor / kept
    assert len(calls) == (floor - numerics._allowance(3, 1) < -1e-10)
    if kept == 1e-3 and level == -1e-10 + 1e-12:
        assert calls  # the floor grew by 1 / kept past the tolerance
