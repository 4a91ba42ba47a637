import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_DRAWS,
    QUBIT_CHANNEL_DRAWS,
    bloch_parameters,
    mixed_method_convex,
    random_density,
    random_kraus_channel,
    random_pure,
    reference_embed,
)
from kraussim.channels import (
    apply_channel,
    bit_phase_flip,
    generalized_amplitude_damping,
    hw_dephasing,
    phase_damping,
)
from kraussim.dilation import (
    DilatedState,
    QubitEmbedding,
    dilate_pure,
    eigenvector_dilations,
    embed_qudits,
    mixed_method_double_purification,
    mixed_method_purify_evolved,
    postselect,
    spectral_input,
)
from kraussim.numerics import DensityMatrix, PureState, partial_trace, uniform_state


def system_matrix(dilated):
    """The dilated state's system block: its partial trace over the ancillas."""
    return partial_trace(dilated.state, dilated.factor_dims, keep=[0]).matrix


RHO_A = DensityMatrix(np.array([[2 / 3, 1.33 / 3], [1.33 / 3, 1 / 3]]))


def test_bit_phase_flip_dilation_amplitudes():
    # branch j of K_j|psi> lands at flat index a*n + j, system index first
    dilated = dilate_pure(bit_phase_flip(0.5), uniform_state(2))
    expected = np.array([0.5, -0.5j, 0.5, 0.5j])
    assert np.allclose(dilated.state.amplitudes, expected, atol=1e-12)
    assert dilated.system_dim == 2 and dilated.ancilla_dims == (2,)


def test_phase_damping_dilation_keeps_zero_branch():
    dilated = dilate_pure(phase_damping(0.5), uniform_state(2))
    expected = np.array([np.sqrt(0.5), 0.0, 0.5, 0.5])
    assert np.allclose(dilated.state.amplitudes, expected, atol=1e-12)


def test_gad_dilation_amplitudes():
    dilated = dilate_pure(generalized_amplitude_damping(0.5, 0.5), uniform_state(2))
    q = np.sqrt(2) / 4
    expected = np.array([0.5, q, q, 0.0, q, 0.0, 0.5, q])
    assert np.allclose(dilated.state.amplitudes, expected, atol=1e-12)
    assert dilated.ancilla_dims == (4,)


def test_dilation_traces_back_to_channel_output():
    rng = np.random.default_rng(200)
    pairs = 0
    while pairs < 100:
        label, draw, dim = CATALOG_DRAWS[pairs % len(CATALOG_DRAWS)]
        ch = draw(rng)
        psi = random_pure(rng, dim)
        recovered = system_matrix(dilate_pure(ch, psi))
        expected = apply_channel(ch, DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj())))
        assert np.abs(recovered - expected.matrix).max() < 1e-10, label
        pairs += 1


def test_dilation_generic_channels_dims_2_and_3():
    rng = np.random.default_rng(201)
    for dim in (2, 3):
        for n_ops in (2, 3, 4):
            ch = random_kraus_channel(rng, dim, n_ops)
            psi = random_pure(rng, dim)
            recovered = system_matrix(dilate_pure(ch, psi))
            expected = apply_channel(ch, DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj())))
            assert np.abs(recovered - expected.matrix).max() < 1e-10


def test_postselect_probabilities_and_mixture():
    rng = np.random.default_rng(202)
    ch = generalized_amplitude_damping(0.35, 0.6)
    psi = random_pure(rng, 2)
    dilated = dilate_pure(ch, psi)
    total = 0.0
    mix = np.zeros((2, 2), dtype=complex)
    for j in range(len(ch.kraus_ops)):
        prob, cond = postselect(dilated, j)
        total += prob
        mix += prob * np.outer(cond.amplitudes, cond.amplitudes.conj())
    assert abs(total - 1.0) < 1e-12
    expected = apply_channel(ch, DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj())))
    assert np.allclose(mix, expected.matrix, atol=1e-10)


def test_postselect_reference_point():
    dilated = dilate_pure(phase_damping(0.5), uniform_state(2))
    prob, cond = postselect(dilated, 1)
    assert abs(prob - 0.25) < 1e-12
    assert np.allclose(cond.amplitudes, [0.0, 1.0], atol=1e-12)


def test_postselect_zero_probability_branch_rejected():
    dilated = dilate_pure(phase_damping(0.0), uniform_state(2))
    with pytest.raises(ValueError):
        postselect(dilated, 1)


def test_embed_preserves_inner_products():
    rng = np.random.default_rng(203)
    ch = hw_dephasing(3, 0.4)
    for _ in range(10):
        x = dilate_pure(ch, random_pure(rng, 3))
        y = dilate_pure(ch, random_pure(rng, 3))
        direct = np.vdot(x.state.amplitudes, y.state.amplitudes)
        embedded = np.vdot(embed_qudits(x).amplitudes, embed_qudits(y).amplitudes)
        assert abs(direct - embedded) < 1e-12


@settings(max_examples=200, deadline=None)
@given(dims=st.lists(st.integers(1, 40), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_zero_pad_embedding_matches_per_amplitude_reference(dims, seed):
    dims = tuple(dims)
    qubits = max(1, math.ceil(math.log2(dims[0]))) + sum(math.ceil(math.log2(d)) for d in dims[1:])
    if qubits > 10:
        with pytest.raises(ValueError, match=f"qubit embedding: {qubits} qubits exceeds the register limit"):
            QubitEmbedding(dims)
        return
    embedding = QubitEmbedding(dims)
    assert embedding.total_qubits == qubits
    rng = np.random.default_rng(seed)
    amps = random_pure(rng, math.prod(dims)).amplitudes.copy()
    amps[rng.random(amps.size) < 0.3] = 0.0  # exact zeros, as in pruned branches
    if not amps.any():
        amps[-1] = 1.0
    state = PureState(amps / np.linalg.norm(amps))
    dilated = DilatedState(embedding, state)
    embedded = embed_qudits(dilated)
    assert embedded.dim == 2**qubits
    assert np.array_equal(embedded.amplitudes, reference_embed(dilated).amplitudes)


def test_embed_pads_unused_levels_with_zeros():
    dilated = dilate_pure(hw_dephasing(3, 0.4), uniform_state(3))
    emb = embed_qudits(dilated)
    assert emb.dim == 16  # two qubits per ternary factor
    amps = emb.amplitudes
    for idx in range(16):
        sys_bits, anc_bits = idx >> 2, idx & 3
        if sys_bits == 3 or anc_bits == 3:
            assert amps[idx] == 0.0
    # occupied slots follow binary(level) MSB-first per factor
    flat = dilated.state.amplitudes
    for level in range(3):
        for j in range(3):
            assert abs(amps[(level << 2) | j] - flat[level * 3 + j]) < 1e-15


def test_spectral_input_reference_state():
    spec = spectral_input(RHO_A)
    r, theta, phi = bloch_parameters(RHO_A)
    assert abs(r - 0.9472533393390012) < 1e-12
    assert abs(spec.eigenvalues[0] - 0.9736266696695006) < 1e-12
    assert abs(spec.eigenvalues[1] - 0.026373330330499378) < 1e-12
    assert abs(theta - 1.2112019334816335) < 1e-12
    assert phi == 0.0
    vecs = spec.eigenvectors
    assert np.allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-10)
    # leading nonzero component of each eigenvector is real positive
    for k in range(2):
        lead = vecs[np.flatnonzero(np.abs(vecs[:, k]) > 1e-12)[0], k]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_spectral_input_diagonal_state_guards_phi():
    r, theta, phi = bloch_parameters(DensityMatrix(np.diag([0.7, 0.3])))
    assert abs(r - 0.4) < 1e-12
    assert abs(theta) < 1e-12
    assert phi == 0.0


def test_mixed_methods_agree_with_direct_evolution():
    rng = np.random.default_rng(204)
    for label, draw, _dim in QUBIT_CHANNEL_DRAWS:
        for _ in range(50):
            ch = draw(rng)
            rho = random_density(rng, 2)
            expected = apply_channel(ch, rho).matrix
            m1 = system_matrix(mixed_method_purify_evolved(ch, rho))
            m2 = mixed_method_convex(ch, rho).matrix
            m3 = system_matrix(mixed_method_double_purification(ch, rho))
            for got in (m1, m2, m3):
                assert np.abs(got - expected).max() < 1e-10, label


def test_mixed_methods_on_qutrit_channel():
    rng = np.random.default_rng(205)
    ch = hw_dephasing(3, 0.3)
    for _ in range(5):
        rho = random_density(rng, 3)
        expected = apply_channel(ch, rho).matrix
        m1 = system_matrix(mixed_method_purify_evolved(ch, rho))
        m2 = mixed_method_convex(ch, rho).matrix
        m3 = system_matrix(mixed_method_double_purification(ch, rho))
        for got in (m1, m2, m3):
            assert np.abs(got - expected).max() < 1e-10


def test_eigenvector_dilations_skip_null_eigenvalues():
    rng = np.random.default_rng(206)
    ch = hw_dephasing(3, 0.4)
    rank2 = random_density(rng, 3, rank=2)
    parts = eigenvector_dilations(ch, rank2)
    weights = [w for w, _ in parts]
    assert len(parts) == 2 and weights == sorted(weights, reverse=True)
    assert abs(sum(weights) - 1.0) < 1e-12
    mixed = sum(w * system_matrix(d) for w, d in parts)
    assert np.abs(mixed - apply_channel(ch, rank2).matrix).max() < 1e-10
    pure = DensityMatrix(np.diag([0.0, 1.0, 0.0]).astype(complex))
    ((weight, dilated),) = eigenvector_dilations(ch, pure)
    assert weight == 1.0 and dilated.system_dim == 3
    with pytest.raises(ValueError, match="state dimension 2 != channel dimension 3"):
        eigenvector_dilations(ch, RHO_A)


def test_spectral_methods_take_the_input_or_its_decomposition_alike():
    # methods 2 and 3 given rho's spectral_input, made once as a sweep does,
    # build the same states byte for byte as given rho, and check the
    # dimension the same way
    rng = np.random.default_rng(2406)
    ch = hw_dephasing(3, 0.3)
    rho = random_density(rng, 3, rank=2)
    spectral = spectral_input(rho)
    for given_rho, given_spectral in ((eigenvector_dilations(ch, rho), eigenvector_dilations(ch, spectral)),
                                      ([(1.0, mixed_method_double_purification(ch, rho))],
                                       [(1.0, mixed_method_double_purification(ch, spectral))])):
        assert len(given_rho) == len(given_spectral)
        for (w1, d1), (w2, d2) in zip(given_rho, given_spectral):
            assert w1 == w2 and d1.embedding == d2.embedding
            assert d1.state.amplitudes.tobytes() == d2.state.amplitudes.tobytes()
    for method in (eigenvector_dilations, mixed_method_double_purification):
        with pytest.raises(ValueError, match="^state dimension 2 != channel dimension 3$"):
            method(ch, spectral_input(RHO_A))


def test_purify_evolved_ancilla_dimension():
    from kraussim.channels import depolarizing

    dilated = mixed_method_purify_evolved(depolarizing(0.5), RHO_A)
    # branch ancilla (one slot per Kraus operator) plus a purifier spanning
    # system x branch
    assert dilated.ancilla_dims == (4, 8)
    assert dilated.state.dim == 64


def test_double_purification_dimensions_track_rank():
    from kraussim.channels import depolarizing

    full = mixed_method_double_purification(depolarizing(0.5), RHO_A)
    assert full.ancilla_dims == (2, 4)
    assert full.state.dim == 16
    pure_in = DensityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    degenerate = mixed_method_double_purification(depolarizing(0.5), pure_in)
    assert degenerate.ancilla_dims == (1, 4)  # rank-1 input keeps one eigenbranch


def test_dilated_state_dimension_consistency_enforced():
    good = dilate_pure(phase_damping(0.3), uniform_state(2))
    with pytest.raises(ValueError):
        DilatedState(QubitEmbedding((3,) + good.ancilla_dims), good.state)
