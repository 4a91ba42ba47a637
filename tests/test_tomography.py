import itertools

import numpy as np
import pytest

from helpers import (
    dense_gate,
    random_density,
    random_pure,
    reference_expectations,
    reference_mitigate,
    reference_reconstruct_raw,
)
from kraussim.numerics import DensityMatrix, PureState
from kraussim.simulator import ReadoutModel, apply_readout_noise, derive_rng, mitigate, sample
from kraussim.tomography import (
    basis_rotation,
    exact_expectations,
    expectations,
    extract_embedded,
    project_psd,
    reconstruct,
    settings_for,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_settings_enumeration():
    t = settings_for((0, 1))
    assert len(t.settings) == 9
    assert set(t.settings) == set(itertools.product("XYZ", repeat=2))
    assert t.rotations[("Z", "Z")] == ()


def test_basis_rotations_map_pauli_to_z():
    # measuring P in the computational basis requires R with R P R^dag = Z
    for pauli, matrix in (("X", X), ("Y", Y), ("Z", Z)):
        gates = basis_rotation(pauli, 0)
        r = np.eye(2, dtype=complex)
        for g in gates:
            r = g.matrix() @ r
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
    del values["X"]
    with pytest.raises(ValueError):
        reconstruct(values)


def test_expectations_average_compatible_settings():
    # frequencies over outcomes 00, 01, 10, 11, one row per setting
    settings = settings_for((0, 1)).settings
    weights = np.full((9, 4), 0.25)
    weights[settings.index(("X", "X"))] = [1.0, 0.0, 0.0, 0.0]
    weights[settings.index(("X", "Y"))] = [0.0, 0.0, 1.0, 0.0]
    weights[settings.index(("X", "Z"))] = [0.75, 0.0, 0.25, 0.0]
    values, errors = expectations(weights, system_qubits=(0, 1))
    assert abs(values["XI"] - (1.0 - 1.0 + 0.5) / 3.0) < 1e-12
    assert values["II"] == 1.0
    assert errors["XI"] is None  # no shot totals given


def test_expectations_marginalize_ancilla_bits():
    rng = np.random.default_rng(501)
    sys_state = random_pure(rng, 4)
    anc = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    joint = np.kron(sys_state.amplitudes, anc)
    tset = settings_for((0, 1))
    weights = []
    for setting in tset.settings:
        state = joint.copy()
        for g in tset.rotations[setting]:
            state = dense_gate(g, 3) @ state
        weights.append(np.abs(state) ** 2)
    values, _ = expectations(np.stack(weights), system_qubits=(0, 1))
    result = reconstruct(values)
    expected = np.outer(sys_state.amplitudes, sys_state.amplitudes.conj())
    assert np.abs(result.projected.matrix - expected).max() < 1e-10


# (register width, system qubits): m = 1..4, with ancilla bits and with
# system qubits that are not the leading ones
LAYOUTS = ((1, (0,)), (3, (2,)), (3, (2, 0)), (4, (1, 2, 3)), (5, (0, 1, 2, 3)), (6, (3, 0, 5, 1)))


@pytest.mark.parametrize("width, system_qubits", LAYOUTS)
@pytest.mark.parametrize("readout", [False, True])
def test_array_tomography_matches_reference_loops(width, system_qubits, readout):
    rng = np.random.default_rng([510, width, len(system_qubits), readout])
    model = ReadoutModel(e0=tuple(rng.uniform(0.0, 0.1, width)), e1=0.04)
    weights = []
    shots = []
    per_setting_ref = {}
    for k, setting in enumerate(settings_for(system_qubits).settings):
        # few shots leave many outcomes at zero count
        shots.append(int(rng.integers(1, 4 * 2**width)))
        counts = sample(random_pure(rng, 2**width), shots[-1], rng=derive_rng(511, k, 0))
        if readout:
            noisy = apply_readout_noise(counts, model, rng=derive_rng(511, k, 1))
            weights.append(mitigate(noisy, model))
            per_setting_ref[setting] = reference_mitigate(noisy, model)
        else:
            weights.append(counts.counts)
            per_setting_ref[setting] = counts
    values, errors = expectations(np.stack(weights), system_qubits, shots=100 if readout else shots)
    ref_values, ref_errors = reference_expectations(
        per_setting_ref, system_qubits, shots_per_setting=100
    )
    assert list(values) == list(ref_values)
    assert values == ref_values
    assert errors == ref_errors
    raw = reconstruct(values).raw
    assert raw.tobytes() == reference_reconstruct_raw(ref_values).tobytes()


def test_reconstruct_matches_reference_on_exact_values():
    rng = np.random.default_rng(512)
    for n in (1, 2, 3, 4):
        values = exact_expectations(random_density(rng, 2**n))
        assert reconstruct(values).raw.tobytes() == reference_reconstruct_raw(values).tobytes()


def test_expectations_reject_malformed_registers():
    # 9 settings of 2 system qubits over a 3-qubit register
    wide = np.zeros((9, 8), dtype=np.int64)
    wide[:, 0] = 4
    with pytest.raises(ValueError, match=r"weights of shape \(8, 8\) are not 9 settings"):
        expectations(wide[:8], (0, 1))
    with pytest.raises(ValueError, match=r"weights of shape \(9, 6\) are not 9 settings by a power-of-two"):
        expectations(wide[:, :6], (0, 1))
    with pytest.raises(ValueError, match=r"weights of shape \(72,\)"):
        expectations(wide.reshape(-1), (0, 1))
    empty = wide.copy()
    empty[settings_for((0, 1)).settings.index(("Y", "X"))] = 0
    with pytest.raises(ValueError, match="setting YX has no probability mass"):
        expectations(empty, (0, 1))
    with pytest.raises(ValueError, match="system qubit 3 outside the 3-qubit register"):
        expectations(wide, (0, 3))


def test_sampled_reconstruction_close_to_truth():
    rng = np.random.default_rng(502)
    target = random_pure(rng, 4)
    rho_true = np.outer(target.amplitudes, target.amplitudes.conj())
    tset = settings_for((0, 1))
    weights = []
    for k, setting in enumerate(tset.settings):
        # rotate analytically, then draw shots
        state = target.amplitudes.copy()
        for g in tset.rotations[setting]:
            state = dense_gate(g, 2) @ state
        weights.append(sample(PureState(state), 8192, rng=derive_rng(1000 + k)).counts)
    values, errors = expectations(np.stack(weights), system_qubits=(0, 1), shots=8192)
    result = reconstruct(values)
    assert np.abs(result.projected.matrix - rho_true).max() < 0.05
    assert all(e is not None for e in errors.values())


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
