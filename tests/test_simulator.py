import numpy as np
import pytest

import kraussim.simulator as simulator
from helpers import born, dense_gate, histogram, random_pure, reference_mitigate, shot_counts
from kraussim.numerics import MAX_DIM, MAX_QUBITS, PureState
from kraussim.qsp import Circuit, Gate, lower, synthesize
from kraussim.tomography import settings_for
from kraussim.simulator import (
    ReadoutModel,
    ShotCounts,
    apply_readout_noise,
    circuit_unitary,
    derive_rng,
    mitigate,
    run,
    sample,
)


def random_gate(rng, n):
    kind = str(rng.choice(["x", "ry", "rz", "phase"]))
    qubits = rng.permutation(n)
    n_ctrl = int(rng.integers(0, n))
    return Gate(
        kind,
        float(rng.uniform(-np.pi, np.pi)),
        int(qubits[0]),
        tuple((int(q), int(rng.integers(0, 2))) for q in qubits[1 : 1 + n_ctrl]),
    )


def test_gate_application_matches_dense_matrices():
    rng = np.random.default_rng(400)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            gates = tuple(random_gate(rng, n) for _ in range(6))
            circuit = Circuit(n, gates)
            state = run(circuit).amplitudes
            expected = np.zeros(2**n, dtype=complex)
            expected[0] = 1.0
            for g in gates:
                expected = dense_gate(g, n) @ expected
            assert np.abs(state - expected).max() < 1e-12
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_run_of_lowered_circuit_matches_original():
    rng = np.random.default_rng(401)
    for n in (2, 3, 4):
        circuit = synthesize(random_pure(rng, 2**n))
        a = run(circuit).amplitudes
        b = run(lower(circuit)).amplitudes
        assert np.abs(a - b).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_circuit_unitary_columns(n):
    rng = np.random.default_rng(400 + n)
    gates = tuple(random_gate(rng, n) for _ in range(4 * n))
    # a gate anti-controlled on every other qubit, so each width has one
    gates += (Gate("ry", 0.7, n - 1, tuple((q, 0) for q in range(n - 1))),)
    u = circuit_unitary(Circuit(n, gates, 0.3))
    expected = np.exp(0.3j) * np.eye(2**n, dtype=complex)
    for g in gates:
        expected = dense_gate(g, n) @ expected
    assert np.abs(u - expected).max() < 1e-12
    assert np.allclose(u.conj().T @ u, np.eye(2**n), atol=1e-12)


def test_anticontrolled_x_fires_on_zero():
    circuit = Circuit(2, (Gate("x", 0.0, 1, ((0, 0),)),))
    out = run(circuit).amplitudes
    assert abs(out[1] - 1.0) < 1e-12  # |00> -> |01>


def test_qubit_limit_enforced():
    with pytest.raises(ValueError):
        run(Circuit(21, ()))


def test_sampling_converges_to_born_probabilities():
    rng = np.random.default_rng(403)
    state = random_pure(rng, 8)
    shots = 100_000
    probs = born(state)
    counts = sample(probs, shots, rng=derive_rng(99))
    for idx, p in enumerate(probs):
        bits = format(idx, "03b")
        freq = histogram(counts).get(bits, 0) / shots
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(freq - p) <= 5 * sigma + 1e-9


def test_sampling_is_seed_deterministic():
    state = random_pure(np.random.default_rng(404), 4)
    a = sample(born(state), 4096, rng=derive_rng(7))
    b = sample(born(state), 4096, rng=derive_rng(7))
    c = sample(born(state), 4096, rng=derive_rng(8))
    assert histogram(a) == histogram(b)
    assert histogram(a) != histogram(c)


def test_derived_streams_are_stable_and_distinct():
    assert derive_rng(5, 1, 2).uniform() == derive_rng(5, 1, 2).uniform()
    assert derive_rng(5, 1, 2).uniform() != derive_rng(5, 2, 1).uniform()
    assert derive_rng(5).uniform() == derive_rng(5).uniform()


def test_readout_noise_flip_rate():
    counts = shot_counts(1, 100_000, {"0": 100_000})
    noisy = apply_readout_noise(counts, ReadoutModel(e0=0.2, e1=0.0), rng=derive_rng(11))
    rate = histogram(noisy).get("1", 0) / counts.shots
    assert abs(rate - 0.2) < 5 * np.sqrt(0.2 * 0.8 / 100_000)
    assert noisy.shots == counts.shots


def test_mitigation_recovers_true_frequencies():
    # seeded end-to-end: sample, corrupt, invert; stay within 3x the
    # mitigation-amplified shot noise floor
    rng = np.random.default_rng(405)
    shots = 200_000
    e = 0.05
    model = ReadoutModel(e0=e, e1=e)
    bound = 3.0 * (1.0 / (1.0 - 2 * e)) ** 3 / (2.0 * np.sqrt(shots))
    for trial in range(20):
        state = random_pure(rng, 8)
        probs = born(state)
        counts = sample(probs, shots, rng=derive_rng(406, trial, 0))
        noisy = apply_readout_noise(counts, model, rng=derive_rng(406, trial, 1))
        mitigated = mitigate(noisy, model)
        worst = max(abs(mitigated[i] - probs[i]) for i in range(8))
        assert worst < bound
        assert abs(mitigated.sum() - 1.0) < 1e-9
        assert all(v >= 0 for v in mitigated)


def test_mitigation_matches_string_keyed_reference():
    # few shots leave most outcomes at zero count
    rng = np.random.default_rng(407)
    scalars = np.random.default_rng(410)
    for n in (1, 2, 3, 4):
        for trial in range(10):
            per_qubit = ReadoutModel(
                e0=tuple(rng.uniform(0.0, 0.2, n)), e1=tuple(rng.uniform(0.0, 0.2, n))
            )
            scalar = ReadoutModel(
                e0=float(scalars.uniform(0.0, 0.2)), e1=float(scalars.uniform(0.0, 0.2))
            )
            shots = int(rng.integers(1, 40))
            counts = sample(born(random_pure(rng, 2**n)), shots, rng=derive_rng(408, n, trial, 0))
            for stream, model in ((1, per_qubit), (2, scalar)):
                noisy = apply_readout_noise(counts, model, rng=derive_rng(408, n, trial, stream))
                expected = np.zeros(2**n)
                for key, p in reference_mitigate(noisy, model).items():
                    expected[int(key, 2)] = p
                assert np.array_equal(mitigate(noisy, model), expected)


def test_confusion_matrices_cover_the_register():
    # column = true bit: [[1-e0, e1], [e0, 1-e1]] on every qubit
    scalar = ReadoutModel(e0=0.1, e1=0.25).confusion(3)
    assert scalar.shape == (3, 2, 2)
    assert np.array_equal(scalar, np.broadcast_to([[0.9, 0.25], [0.1, 0.75]], (3, 2, 2)))
    per_qubit = ReadoutModel(e0=(0.05, 0.2), e1=0.3).confusion(2)
    assert np.array_equal(per_qubit[0], [[0.95, 0.3], [0.05, 0.7]])
    assert np.array_equal(per_qubit[1], [[0.8, 0.3], [0.2, 0.7]])
    with pytest.raises(ValueError, match="^e0 has 1 entries, the register has 2 qubits$"):
        ReadoutModel(e0=(0.1,), e1=(0.1,)).confusion(2)
    with pytest.raises(ValueError, match="^e1 has 3 entries, the register has 2 qubits$"):
        ReadoutModel(e0=0.1, e1=(0.1, 0.2, 0.3)).confusion(2)


def test_shot_counts_hold_a_read_only_dense_array():
    counts = sample(born(random_pure(np.random.default_rng(409), 8)), 50, rng=derive_rng(5))
    assert counts.counts.dtype == np.int64 and counts.counts.shape == (8,)
    assert not counts.counts.flags.writeable
    source = np.array([3, 0, 0, 7])
    kept = ShotCounts(2, 10, source)
    source[0] = 4  # the stored array is a copy
    assert kept.counts[0] == 3 and source.flags.writeable
    with pytest.raises(ValueError, match="cover 3 qubits"):
        ShotCounts(3, 10, source)
    with pytest.raises(ValueError, match="integers"):
        ShotCounts(2, 10, np.array([2.5, 0.0, 0.0, 7.5]))
    with pytest.raises(ValueError, match="negative count for '01'"):
        ShotCounts(2, 10, np.array([10, -1, 0, 1]))
    with pytest.raises(ValueError, match="counts total 11 != shots 10"):
        ShotCounts(2, 10, np.array([4, 0, 0, 7]))


def test_mitigation_rejects_singular_confusion():
    # with both rates capped at 0.5, e0 + e1 = 1 only at 0.5/0.5; the model
    # rejects it before any shot is drawn, naming the qubit
    with pytest.raises(ValueError, match="singular"):
        ReadoutModel(e0=0.5, e1=0.5)
    with pytest.raises(ValueError, match="singular .* on qubit 1"):
        ReadoutModel(e0=(0.01, 0.5), e1=0.5)


def test_per_qubit_error_tuples():
    counts = shot_counts(2, 50_000, {"00": 50_000})
    noisy = apply_readout_noise(counts, ReadoutModel(e0=(0.3, 0.0), e1=(0.0, 0.0)), rng=derive_rng(3))
    ones_on_q1 = sum(c for b, c in histogram(noisy).items() if b[1] == "1")
    assert ones_on_q1 == 0  # second qubit noiseless
    ones_on_q0 = sum(c for b, c in histogram(noisy).items() if b[0] == "1")
    assert abs(ones_on_q0 / 50_000 - 0.3) < 0.02


def test_readout_noise_reproduces_recorded_histogram():
    # recorded from the earlier per-outcome, per-shot implementation: the
    # single (shots, qubits) draw consumes the stream in the same order
    counts = shot_counts(3, 600, {"000": 250, "011": 0, "101": 200, "110": 120, "111": 30})
    model = ReadoutModel(e0=(0.05, 0.2, 0.1), e1=(0.15, 0.0, 0.3))
    noisy = apply_readout_noise(counts, model, rng=derive_rng(2212, 13834, 1))
    assert histogram(noisy) == {
        "000": 181, "001": 29, "010": 66, "011": 13,
        "100": 47, "101": 111, "110": 107, "111": 46,
    }


def test_branched_settings_equal_full_runs_bit_for_bit():
    rng = np.random.default_rng(2212)
    low = lower(synthesize(random_pure(rng, 16)))
    assert low.global_phase != 0.0
    n = low.qubit_count
    prefix = run(Circuit(n, low.gates))
    plan = settings_for(range(3))
    for rotations in plan.rotations:
        full = run(Circuit(n, low.gates + rotations, low.global_phase))
        branched = run(Circuit(n, rotations, low.global_phase), prefix)
        assert np.array_equal(branched.amplitudes, full.amplitudes)
    assert np.array_equal(
        run(Circuit(n, (), low.global_phase), prefix).amplitudes, run(low).amplitudes
    )


def test_run_rejects_initial_state_of_wrong_size():
    with pytest.raises(ValueError, match="initial state dimension 8"):
        run(Circuit(2, ()), PureState(np.full(8, 8**-0.5)))


def test_register_limit_is_checked_before_the_first_gate(monkeypatch):
    assert MAX_QUBITS == 10 and 2**MAX_QUBITS == MAX_DIM
    reachable = run(Circuit(10, (Gate("x", 0.0, 9),)))
    assert reachable.amplitudes[1] == 1.0
    applied = []
    monkeypatch.setattr(simulator, "_apply_gate", lambda *args: applied.append(args))
    wide = Circuit(11, (Gate("x", 0.0, 0),))
    with pytest.raises(ValueError, match="simulator: 11 qubits exceeds the register limit of 10"):
        run(wide)
    with pytest.raises(ValueError, match="dense unitary: 11 qubits exceeds"):
        circuit_unitary(wide)
    assert applied == []
