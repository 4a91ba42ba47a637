import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

import kraussim.cli as cli
import kraussim.qsp as qsp
import kraussim.simulator as simulator
from helpers import (
    born,
    circuit_unitary,
    count_row,
    dense_gate,
    gate_matrix,
    gate_parts,
    histogram,
    kernel_bound,
    one_key,
    random_density,
    random_pure,
    reference_apply_gate,
    reference_mitigate,
    reference_readout_noise,
    reference_run,
    same_stream,
    seed_sequence_rng,
    stub_gate_kernels,
)
from kraussim.channels import hw_dephasing, qutrit_amplitude_damping
from kraussim.dilation import dilate_pure, embed_qudits, mixed_method_double_purification
from kraussim.numerics import MAX_DIM, MAX_QUBITS, PureState, kron, uniform_state
from kraussim.qsp import (
    Circuit,
    Gate,
    GrayWalk,
    Multiplexor,
    _rz_cascade,
    lower,
    synthesize,
    verify_preparation,
)
from kraussim.tomography import settings_for
from kraussim.simulator import (
    ReadoutModel,
    ShotCounts,
    apply_readout_noise,
    branch_stack,
    derive_keys,
    derive_rng,
    mitigate,
    run,
    run_branches,
    sample,
)


def random_element(rng, n, kinds=("x", "ry", "rz")):
    """An element of a random kind on a random target: half the time an
    uncontrolled gate, otherwise a CX from a random other qubit (kind X, on
    more than one qubit) or a multiplexor on one to six random rows (Ry and
    Rz)."""
    kind = str(rng.choice(kinds))
    t = int(rng.integers(n))
    if rng.random() < 0.5:
        if kind == "x" and n > 1:
            return Gate("x", 0.0, t, ((int(rng.choice([q for q in range(n) if q != t])), 1),))
        if kind in ("ry", "rz"):
            rows = random_rows(rng, t)
            return Multiplexor(kind, t, rows, [random_angle(rng) for _ in rows])
    return Gate(kind, random_angle(rng), t)


def test_gate_application_matches_dense_matrices():
    rng = np.random.default_rng(400)
    for n in (1, 2, 3, 4):
        for _ in range(20):
            circuit = Circuit(n, tuple(random_element(rng, n) for _ in range(6)))
            state = run(circuit).amplitudes
            expected = np.zeros(2**n, dtype=complex)
            expected[0] = 1.0
            for g in circuit.gates:
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
    elements = tuple(random_element(rng, n) for _ in range(4 * n))
    # an entry anti-controlled on every other qubit, so each width has one
    elements += (Multiplexor("ry", n - 1, [0], [0.7]),)
    circuit = Circuit(n, elements, 0.3)
    u = circuit_unitary(circuit)
    expected = np.exp(0.3j) * np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        expected = dense_gate(g, n) @ expected
    assert np.abs(u - expected).max() < 1e-12
    assert np.allclose(u.conj().T @ u, np.eye(2**n), atol=1e-12)


def basis_bits(k, n):
    return [(k >> (n - 1 - q)) & 1 for q in range(n)]


def fires(gate, bits):
    return all(bits[q] == b for q, b in gate_parts(gate)[1])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_x_and_cx_circuits_are_exact_permutations(n):
    rng = np.random.default_rng(420 + n)
    gates = [random_element(rng, n, ("x",)) for _ in range(6 * n)]
    circuit = Circuit(n, tuple(gates))
    # where each basis state ends up, one bit flip at a time
    image = []
    for k in range(2**n):
        bits = basis_bits(k, n)
        for g in gates:
            if fires(g, bits):
                bits[g.target] ^= 1
        image.append(int("".join(map(str, bits)), 2))
    permutation = np.zeros((2**n, 2**n), dtype=complex)
    permutation[image, range(2**n)] = 1.0
    assert np.array_equal(circuit_unitary(circuit), permutation)
    # a batch of k states is permuted without arithmetic
    batch = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    moved = batch.copy()
    simulator._apply_elements(moved, gates, n)
    expected = np.empty_like(batch)
    expected[image] = batch
    assert moved.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_rz_and_phase_circuits_are_exact_diagonals(n):
    rng = np.random.default_rng(430 + n)
    elements = [random_element(rng, n, ("rz",)) for _ in range(6 * n)]
    rows = random_rows(rng, n - 1)  # entries controlled on every other qubit
    elements.append(Multiplexor("rz", n - 1, rows, [random_angle(rng) for _ in rows]))
    # a random diagonal as the Rz cascade synthesis emits for branch phases
    elements += _rz_cascade(rng.uniform(-np.pi, np.pi, 2**n), np.ones(2**n, dtype=bool))[0]
    circuit = Circuit(n, tuple(elements))
    u = circuit_unitary(circuit)
    assert np.array_equal(u, np.diag(u.diagonal()))
    # each entry is its basis state's diagonal entries multiplied in gate
    # order, one whole-vector product per gate (a factor 1 where the gate
    # does not act, which is exact), as the kernels take them: numpy's
    # array loop rounds some complex products differently from its scalar
    # arithmetic
    expected = np.ones(2**n, dtype=complex)
    for g in circuit.gates:
        diag = gate_matrix(gate_parts(g)[0]).diagonal()
        factors = np.ones(2**n, dtype=complex)
        for k in range(2**n):
            bits = basis_bits(k, n)
            if fires(g, bits):
                factors[k] = diag[bits[g.target]]
        expected = expected * factors
    assert u.diagonal().tobytes() == expected.tobytes()


@pytest.mark.kernel_bytes
def test_run_matches_matmul_reference_on_a_nine_qubit_preparation():
    # a mixed_exact-like point: hw_dephasing d=8 on a full-rank complex
    # input, double purification on 3 + 3 + 3 qubits
    rho = random_density(np.random.default_rng(440), 8)
    embedded = embed_qudits(mixed_method_double_purification(hw_dephasing(8, 0.4), rho))
    circuit = synthesize(embedded)
    low = lower(circuit)
    assert circuit.qubit_count == 9
    assert {g.kind for g in low.gates} >= {"x", "ry", "rz"}
    assert np.array_equal(run(circuit).amplitudes, reference_run(circuit).amplitudes)
    assert_lowered_close(run(low).amplitudes, reference_run(low).amplitudes)


def gate_by_gate(circuit):
    """``run`` with every gate of ``circuit.gates`` applied by its own
    ``reference_apply_gate`` call, the slice kernel of the test helpers."""
    n = circuit.qubit_count
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    for g in circuit.gates:
        reference_apply_gate(state, g, n)
    if circuit.global_phase != 0.0:
        state *= np.exp(1j * circuit.global_phase)
    return state


# A walk is simulated as the one rotation per control pattern that its gates
# compose to, so a lowered state agrees with its gates applied one by one,
# and with the matmul reference, to rounding: within this absolute bound per
# amplitude.  The largest deviation these tests measured is 6.6e-14, on 10
# qubits after 30 random walks of up to 512 slots each (numpy 2.4, OpenBLAS
# SkylakeX kernel; at most that on its Haswell kernel and on numpy's baseline
# loops); preparations stay below 1e-15.
LOWERED_ATOL = 1e-12


def assert_lowered_close(actual, expected):
    assert np.max(np.abs(actual - expected)) <= LOWERED_ATOL


def assert_run_matches_gate_by_gate_and_reference(circuit):
    """A synthesized circuit's run has the bytes of its gates applied one by
    one and the values of the matmul reference; its lowered circuit's run
    agrees with both within :data:`LOWERED_ATOL`."""
    state = run(circuit).amplitudes
    assert state.tobytes() == gate_by_gate(circuit).tobytes()
    assert np.array_equal(state, reference_run(circuit).amplitudes)
    low = lower(circuit)
    state = run(low).amplitudes
    assert_lowered_close(state, gate_by_gate(low))
    assert_lowered_close(state, reference_run(low).amplitudes)


@pytest.mark.parametrize("n", kernel_bound(range(1, 11), lambda n: n >= 2))
def test_segmented_run_matches_gate_by_gate_on_preparations(n):
    # synthesized circuits, complex and real, with 30% exact zeros so that
    # levels miss patterns: the same bytes as one slice-kernel call per gate,
    # and the values of the matmul reference; their lowered circuits agree
    # with both within the bound
    rng = np.random.default_rng(470 + n)
    for real in (False, True):
        for zero_share in (0.0, 0.3):
            amps = rng.standard_normal(2**n) + (0.0 if real else 1j * rng.standard_normal(2**n))
            amps[rng.random(2**n) < zero_share] = 0.0
            if not np.any(amps):
                amps[0] = 1.0
            circuit = synthesize(PureState(amps / np.linalg.norm(amps)))
            if zero_share and n >= 5:
                assert len([g for g in circuit.gates if g.kind == "ry"]) < 2**n - 1
            assert_run_matches_gate_by_gate_and_reference(circuit)


def random_rows(rng, t):
    """One to six distinct control patterns of qubits 0..t-1 in random order."""
    return rng.permutation(2**t)[: int(rng.integers(1, 7))].tolist()


@pytest.mark.parametrize("n", range(1, 11))
def test_hand_built_segments_match_gate_by_gate_bit_for_bit(n, monkeypatch):
    # a random complex state's preparation, then segments on random targets:
    # uncontrolled X, Ry and Rz, CX from controls below and above the
    # target, and Ry or Rz multiplexors on random rows; an X or an Rz
    # multiplexor on another qubit splits them
    lengths = []
    apply_segment = simulator._apply_segment
    monkeypatch.setattr(
        simulator, "_apply_segment", lambda a, g, *rest: lengths.append(len(g)) or apply_segment(a, g, *rest)
    )
    rng = np.random.default_rng(480 + n)
    elements = list(synthesize(random_pure(rng, 2**n)).elements)
    for length in (1, 1, 30, 60, 2, 45):
        t = int(rng.integers(n))
        for _ in range(length):
            angle = random_angle(rng)
            kind = str(rng.choice(["x", "ry", "rz", "cx", "level-ry", "level-rz"]))
            others = [q for q in range(n) if q != t]
            if kind == "cx" and others:
                elements.append(Gate("x", 0.0, t, ((int(rng.choice(others)), 1),)))
            elif kind.startswith("level"):
                rows = random_rows(rng, t)
                elements.append(Multiplexor(kind[6:], t, rows, [random_angle(rng) for _ in rows]))
            else:
                elements.append(Gate("x" if kind == "cx" else kind, angle, t))
        if n > 1:
            other = (t + 1) % n
            elements.append(Multiplexor("rz", other, [0], [0.5]) if rng.random() < 0.5 else Gate("x", 0.0, other))
    circuit = Circuit(n, tuple(elements), float(rng.uniform(-np.pi, np.pi)))
    assert run(circuit).amplitudes.tobytes() == gate_by_gate(circuit).tobytes()
    assert max(lengths) >= 30 and (n == 1 or 1 in lengths)


@pytest.mark.parametrize("n", range(1, 11))
def test_prefix_controlled_phases_match_gate_by_gate_bit_for_bit(n, monkeypatch):
    # Rz cascades of random diagonals on the qubits up to each target, the
    # prefix-controlled form synthesis emits for branch phases; on the last
    # qubit each row is one amplitude pair, whose products numpy rounds here
    # as the scalar products of the slice kernel.  Uncontrolled Rz gates
    # between them take the segment kernel too
    segments = []
    apply_segment = simulator._apply_segment
    monkeypatch.setattr(
        simulator, "_apply_segment", lambda a, g, *rest: segments.extend(e for e, _, _ in g) or apply_segment(a, g, *rest)
    )
    rng = np.random.default_rng(500 + n)
    elements = list(synthesize(random_pure(rng, 2**n)).elements)
    for _ in range(4):
        for t in rng.permutation(n).tolist():
            present = rng.random(2 ** (t + 1)) < 0.7
            elements += _rz_cascade(rng.uniform(-np.pi, np.pi, present.size), present)[0]
            elements.append(Gate("rz", random_angle(rng), int(rng.integers(n))))
    circuit = Circuit(n, tuple(elements), float(rng.uniform(-np.pi, np.pi)))
    assert sum(isinstance(e, Multiplexor) and e.target == n - 1 for e in circuit.elements) >= 4
    state = run(circuit).amplitudes
    rz_gates = [e for e in elements if isinstance(e, Gate)]
    assert [e for e in segments if isinstance(e, Gate)] == rz_gates
    assert state.tobytes() == gate_by_gate(circuit).tobytes()


@pytest.mark.kernel_bytes
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_segmented_run_matches_gate_by_gate_on_degenerate_dephasing(p):
    # hw_dephasing at p0 = 0 and 1, where whole Kraus branches are zero: the
    # mixed_exact-like point (d = 8, double purification, 9 qubits) and the
    # hw16_tomo-like point (d = 16 on the uniform state, 8 qubits)
    rho = random_density(np.random.default_rng(490), 8)
    psi = PureState(np.full(16, 0.25, dtype=complex))
    for dilated in (
        mixed_method_double_purification(hw_dephasing(8, p), rho),
        dilate_pure(hw_dephasing(16, p), psi),
    ):
        assert_run_matches_gate_by_gate_and_reference(synthesize(embed_qudits(dilated)))


ANGLES = (np.pi / 2, -np.pi / 2, np.pi, 0.0)  # the settings' rotations among them


def random_angle(rng):
    return float(rng.choice([rng.uniform(-np.pi, np.pi), *ANGLES]))


def assert_kernels_match_slice_reference(rng, n, elements, shapes, close=None):
    """The element loop on one element and ``reference_apply_gate`` on each of
    its gates give the same bytes, for every element and array shape; or,
    given ``close``, results that ``close(actual, expected)`` accepts."""
    for shape in shapes:
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for e in elements:
            # exact zeros of both signs, in either part, before every element
            for part in (amps.real, amps.imag):
                part[rng.random(shape) < 0.15] = 0.0
                part[rng.random(shape) < 0.15] = -0.0
            expected = amps.copy()
            for g in Circuit(n, (e,)).gates:
                reference_apply_gate(expected, g, n)
            simulator._apply_elements(amps, (e,), n)
            if close is None:
                assert amps.tobytes() == expected.tobytes(), (e, shape)
            else:
                close(amps, expected)
                amps[...] = expected  # the next element starts from the reference


@pytest.mark.parametrize("n", range(1, 11))
def test_uncontrolled_kernels_match_slice_reference_bit_for_bit(n):
    # the segment kernel on a state and on batches of 2, 3, 9, 27 and 2^n
    # columns, CX among its gates; a (2^n, 1) batch is left out: its reference
    # matmul is a matrix-vector product per block, which may round differently
    # from one matrix product
    rng = np.random.default_rng(450 + n)
    kinds = rng.permutation(["x", "ry", "rz", "cx"] * 3)
    gates = []
    for kind in kinds:
        target, *others = rng.permutation(n).tolist()
        if kind != "cx":
            gates.append(Gate(str(kind), random_angle(rng), target))
        elif others:
            gates.append(Gate("x", 0.0, target, ((others[0], 1),)))
    shapes = [(2**n,)] + [(2**n, k) for k in (2, 3, 9, 27, 2**n)]
    assert_kernels_match_slice_reference(rng, n, gates, shapes)


@pytest.mark.parametrize("n", range(2, 11))
def test_controlled_kernels_match_slice_reference_bit_for_bit(n):
    # Ry and Rz multiplexors on random targets and rows, against one
    # slice-kernel call per entry, on a state and on batches
    rng = np.random.default_rng(460 + n)
    elements = []
    for kind in rng.permutation(["ry", "rz"] * 6):
        t = int(rng.integers(1, n))
        rows = random_rows(rng, t)
        elements.append(Multiplexor(str(kind), t, rows, [random_angle(rng) for _ in rows]))
    shapes = [(2**n,)] + [(2**n, k) for k in (2, 3, 2**n)]
    assert_kernels_match_slice_reference(rng, n, elements, shapes)


def test_lowered_tomography_circuits_match_matmul_reference():
    # an hw16_tomo-like point: hw_dephasing d=16 on the uniform state, 4 + 4
    # qubits, then each setting's rotations of the 4 system qubits; the
    # settings branch from one run of the lowered circuit, as the cli does
    psi = PureState(np.full(16, 0.25, dtype=complex))
    low = lower(synthesize(embed_qudits(dilate_pure(hw_dephasing(16, 0.7), psi))))
    assert low.qubit_count == 8
    assert_lowered_close(run(low).amplitudes, reference_run(low).amplitudes)
    unphased = reference_run(Circuit(8, low.gates)).amplitudes
    plan = settings_for(4)
    branched = run_branches(low, plan.layers)
    assert branched.shape == (81, 256)
    for row, rotations in zip(branched, plan.rotations):
        expected = unphased.copy()
        for g in rotations:
            reference_apply_gate(expected, g, 8)
        expected *= np.exp(1j * low.global_phase)
        assert_lowered_close(row, expected)


def random_walk(rng, kind, t):
    """A Gray-code walk on qubit t: random angles, about a fifth of them 0.0."""
    angles = rng.uniform(-np.pi, np.pi, 2**t)
    angles[rng.random(2**t) < 0.2] = 0.0
    return GrayWalk(kind, t, angles.tolist())


def walk_circuit(rng, n):
    """A random complex state's preparation, then walks of both kinds on random
    targets, qubit 0 among them; walks on qubit 0 and 1 with a zero slot (on
    qubit 1, slot 1's, so that its two CXs cancel) and an all-zero walk; and,
    on a walk's target, uncontrolled gates, CX and multiplexors between the
    walks of one segment."""
    elements = list(synthesize(random_pure(rng, 2**n)).elements)
    for kind in ("ry", "rz"):
        elements += [GrayWalk(kind, 0, [0.0]), GrayWalk(kind, 0, [random_angle(rng)])]
        if n > 1:
            elements.append(GrayWalk(kind, 1, [random_angle(rng), 0.0]))
            elements.append(GrayWalk(kind, 1, [0.0, random_angle(rng)]))
        t = int(rng.integers(n))
        elements.append(GrayWalk(kind, t, [0.0] * 2**t))
    for _ in range(3 * n):
        t = int(rng.integers(n))
        elements.append(random_walk(rng, str(rng.choice(["ry", "rz"])), t))
        others = [q for q in range(n) if q != t]
        choice = str(rng.choice(["gate", "cx", "multiplexor", "walk"]))
        if choice == "gate":
            elements.append(Gate(str(rng.choice(["x", "ry", "rz"])), random_angle(rng), t))
        elif choice == "cx" and others:
            elements.append(Gate("x", 0.0, t, ((int(rng.choice(others)), 1),)))
        elif choice == "multiplexor":
            rows = random_rows(rng, t)
            angles = [random_angle(rng) for _ in rows]
            elements.append(Multiplexor(str(rng.choice(["ry", "rz"])), t, rows, angles))
        else:
            elements.append(random_walk(rng, str(rng.choice(["ry", "rz"])), t))
    return Circuit(n, tuple(elements), float(rng.uniform(-np.pi, np.pi)))


@pytest.mark.parametrize("n", range(1, 11))
def test_walks_match_gate_by_gate_bit_for_bit(n):
    # run, and the element loop on batches, against one slice-kernel call per
    # gate of Circuit.gates, within the bound; then each walk alone, on a
    # state and on batches given exact zeros of both signs before every walk,
    # within the bound of its gates and bit for bit the multiplexor of its
    # per-pattern angles; an all-zero walk leaves the bytes as they are
    rng = np.random.default_rng(700 + n)
    circuit = walk_circuit(rng, n)
    walks = [e for e in circuit.elements if isinstance(e, GrayWalk)]
    assert {(w.kind, w.target) for w in walks} >= {("ry", 0), ("rz", 0)}
    assert [GrayWalk("ry", 0, [0.0]).gates(), GrayWalk("rz", 1, [0.0, 0.0]).gates()] == [[], []]
    assert [g.kind for g in GrayWalk("ry", 1, [0.5, 0.0]).gates()] == ["ry"]
    assert_lowered_close(run(circuit).amplitudes, gate_by_gate(circuit))
    for k in (2, 5):
        amps = rng.standard_normal((2**n, k)) + 1j * rng.standard_normal((2**n, k))
        expected = amps.copy()
        for g in circuit.gates:
            reference_apply_gate(expected, g, n)
        simulator._apply_elements(amps, circuit.elements, n)
        assert_lowered_close(amps, expected)
    shapes = [(2**n,), (2**n, 2), (2**n, 5)]
    assert_kernels_match_slice_reference(rng, n, walks, shapes, close=assert_lowered_close)
    for shape in shapes:
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for walk in walks:
            t = walk.target
            level = Multiplexor(walk.kind, t, range(2**t), walk.pattern_angles())
            before = amps.copy()
            simulator._apply_elements(amps, (walk,), n)
            if any(walk.angles):
                simulator._apply_elements(before, (level,), n)
            assert amps.tobytes() == before.tobytes(), (walk, shape)


def test_walk_angles_recover_the_multiplexor():
    # lowering's Walsh-Hadamard angles in Gray order, composed back through
    # the CX masks, are the multiplexor's angles to rounding, on every pattern
    rng = np.random.default_rng(720)
    for t in range(9):
        for kind in ("ry", "rz"):
            angles = rng.uniform(-np.pi, np.pi, 2**t)
            [walk] = lower(Circuit(t + 1, (Multiplexor(kind, t, range(2**t), angles),))).elements
            np.testing.assert_allclose(walk.pattern_angles(), angles, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_one_element_loop_call_matches_one_call_per_element(n):
    # a synthesized and a lowered preparation, then runs of elements on a few
    # shared targets: walks (one of them all-zero), multiplexors, bare Ry and
    # Rz, X and CX.  One call over the whole list gives the bytes of one call
    # per element, on a state and on a batch: each element reads its own
    # span of the stacks, and a segment of many elements acts as its
    # elements one by one
    rng = np.random.default_rng(740 + n)
    elements = list(synthesize(random_pure(rng, 2**n)).elements)
    elements += lower(synthesize(random_pure(rng, 2**n))).elements
    for length in (1, 8, 20, 3, 12):
        t = int(rng.integers(n))
        others = [q for q in range(n) if q != t]
        for _ in range(length):
            choice = str(rng.choice(["walk", "multiplexor", "ry", "rz", "x", "cx"]))
            kind = str(rng.choice(["ry", "rz"]))
            if choice == "walk":
                elements.append(random_walk(rng, kind, t))
            elif choice == "multiplexor":
                rows = random_rows(rng, t)
                elements.append(Multiplexor(kind, t, rows, [random_angle(rng) for _ in rows]))
            elif choice == "cx" and others:
                elements.append(Gate("x", 0.0, t, ((int(rng.choice(others)), 1),)))
            else:
                elements.append(Gate("x" if choice == "cx" else choice, random_angle(rng), t))
        if length == 8:
            elements.append(GrayWalk(kind, t, [0.0] * 2**t))
    for shape in ((2**n,), (2**n, 3)):
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        one_by_one = amps.copy()
        for e in elements:
            simulator._apply_elements(one_by_one, (e,), n)
        simulator._apply_elements(amps, elements, n)
        assert amps.tobytes() == one_by_one.tobytes(), shape


def test_walk_plan_that_is_not_one_rotation_per_pattern_is_refused(monkeypatch):
    # a CX plan whose masks repeat, or whose cycle does not close, is no
    # rotation per pattern: the walk fails before any amplitude moves
    good = qsp._gray_plan
    walk = GrayWalk("ry", 2, [0.1, 0.2, 0.3, 0.4])
    amps = np.ones(8, dtype=complex)
    for controls in ((1, 0, 0, 1), (1, 0, 1, 1)):
        monkeypatch.setattr(qsp, "_gray_plan", lambda k, c=controls: (good(k)[0], c) if k == 2 else good(k))
        qsp._walk_order.cache_clear()
        try:
            with pytest.raises(ValueError, match="Gray-code plan of 2 controls"):
                simulator._apply_elements(amps, (walk,), 3)
        finally:
            qsp._walk_order.cache_clear()
        assert np.array_equal(amps, np.ones(8))


def test_lowered_fidelity_check_catches_a_walk_out_of_gray_order(monkeypatch):
    # one walk's angles permuted out of Gray order: the lowered state, still
    # within the bound of its own gates one by one, no longer prepares the
    # target, and a sweep point that lowers so fails the lowered check
    rng = np.random.default_rng(730)
    target = random_pure(rng, 2**5)
    low = lower(synthesize(target))

    def permuted(circuit):
        elements = list(circuit.elements)
        i = max(i for i, e in enumerate(elements) if isinstance(e, GrayWalk) and e.target >= 2)
        walk = elements[i]
        elements[i] = GrayWalk(walk.kind, walk.target, np.array(walk.angles)[rng.permutation(2**walk.target)])
        return Circuit(circuit.qubit_count, tuple(elements), circuit.global_phase)

    bad = permuted(low)
    state = run(bad)
    assert verify_preparation(low, target, run(low)) >= cli.FIDELITY_FLOOR
    assert verify_preparation(bad, target, state) < cli.FIDELITY_FLOOR
    assert_lowered_close(state.amplitudes, gate_by_gate(bad))
    monkeypatch.setattr(cli, "lower", lambda circuit: permuted(lower(circuit)))
    [row] = cli.run_experiment(cli.parse_config({
        "channel": {"name": "qutrit_amplitude_damping", "params": {}},
        "sweep": {"parameter": "gamma", "grid": [0.4]}, "mode": "exact",
    }))
    assert row.error.startswith("lowered fidelity"), row.error


def test_rz_walk_blocks_do_not_grow_with_the_register():
    # the last qubit's Rz walk of a 10-qubit preparation has 512 slots; it
    # scales the pairs in place, and the run allocates no table per slot
    low = lower(synthesize(random_pure(np.random.default_rng(710), 2**10)))
    assert any(isinstance(e, GrayWalk) and e.kind == "rz" and e.target == 9 for e in low.elements)
    tracemalloc.start()
    try:
        state = run(low)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_lowered_close(state.amplitudes, gate_by_gate(low))
    assert peak < 2**20


def test_anticontrolled_x_fires_on_zero():
    # a multiplexor entry on row 0 acts where every control reads 0
    circuit = Circuit(2, (Multiplexor("ry", 1, [0], [np.pi]),))
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
    [counts] = sample(probs[None], shots, one_key(99)).counts
    for idx, p in enumerate(probs):
        bits = format(idx, "03b")
        freq = histogram(counts).get(bits, 0) / shots
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(freq - p) <= 5 * sigma + 1e-9


def test_sampling_is_seed_deterministic():
    state = random_pure(np.random.default_rng(404), 4)
    [a], [b], [c] = (sample(born(state)[None], 4096, one_key(seed)).counts for seed in (7, 7, 8))
    assert histogram(a) == histogram(b)
    assert histogram(a) != histogram(c)


def test_derived_streams_are_stable_and_distinct():
    assert derive_rng(5, 1, 2).uniform() == derive_rng(5, 1, 2).uniform()
    assert derive_rng(5, 1, 2).uniform() != derive_rng(5, 2, 1).uniform()
    assert derive_rng(5).uniform() == derive_rng(5).uniform()


def test_readout_noise_flip_rate():
    # the mapped probabilities, drawn: the rate at which a 0 reads as 1
    counts = count_row(1, {"0": 100_000})
    noisy = sample(apply_readout_noise(counts, ReadoutModel(e0=0.2, e1=0.0)), 100_000, one_key(11)).counts
    rate = histogram(noisy[0]).get("1", 0) / counts.sum()
    assert abs(rate - 0.2) < 5 * np.sqrt(0.2 * 0.8 / 100_000)
    assert noisy.sum() == counts.sum()


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
        counts = sample(probs[None], shots, one_key(406, trial, 0)).counts
        noisy = reference_readout_noise(counts, model, one_key(406, trial, 1))
        [mitigated] = mitigate(noisy, model)
        worst = max(abs(mitigated[i] - probs[i]) for i in range(8))
        assert worst < bound
        assert abs(mitigated.sum() - 1.0) < 1e-9
        assert all(v >= 0 for v in mitigated)


def test_mitigation_matches_string_keyed_reference():
    # one call on a batch of rows against the reference made one row at a
    # time; few shots leave most outcomes at zero count
    rng = np.random.default_rng(407)
    scalars = np.random.default_rng(410)
    for n in range(1, 7):
        for trial in range(4):
            per_qubit = ReadoutModel(
                e0=tuple(rng.uniform(0.0, 0.2, n)), e1=tuple(rng.uniform(0.0, 0.2, n))
            )
            scalar = ReadoutModel(
                e0=float(scalars.uniform(0.0, 0.2)), e1=float(scalars.uniform(0.0, 0.2))
            )
            counts = np.concatenate([
                sample(born(random_pure(rng, 2**n))[None], int(rng.integers(1, 40)), one_key(408, n, trial, s, 0)).counts
                for s in range(9)
            ])
            for stream, model in ((1, per_qubit), (2, scalar)):
                keys = derive_keys(408, (n, trial), np.c_[np.arange(9), np.full(9, stream)])
                noisy = reference_readout_noise(counts, model, keys)
                mitigated = mitigate(noisy, model)
                assert mitigated.shape == (9, 2**n)
                for row, result in zip(noisy, mitigated):
                    expected = np.zeros(2**n)
                    for key, p in reference_mitigate(row, model).items():
                        expected[int(key, 2)] = p
                    assert result.tobytes() == expected.tobytes(), (n, trial, stream)
                assert (noisy == 0).any() or n == 1


def test_batched_readout_noise_rows_equal_one_row_calls():
    # the map acts on each row alone, so a batch is its rows' calls, byte for
    # byte; rows of unnormalized weights with exact zeros
    rng = np.random.default_rng(419)
    for n in range(1, 7):
        model = ReadoutModel(e0=tuple(rng.uniform(0.0, 0.3, n)), e1=0.1)
        probs = rng.dirichlet(np.full(2**n, 0.5), size=3**n) * rng.uniform(0.5, 2.0, (3**n, 1))
        probs[rng.random(probs.shape) < 0.2] = 0.0
        probs[:, 0] += 1e-3
        kept = probs.copy()
        noisy = apply_readout_noise(probs, model)
        assert np.array_equal(probs, kept)
        assert noisy.dtype == np.float64 and noisy.shape == probs.shape
        # each confusion matrix's columns sum to 1, so each row keeps its mass
        assert np.allclose(noisy.sum(axis=1), probs.sum(axis=1), rtol=1e-14, atol=0.0)
        for s in range(3**n):
            [one] = apply_readout_noise(probs[s : s + 1], model)
            assert noisy[s].tobytes() == one.tobytes(), (n, s)


def test_readout_noise_is_the_dense_kron_map():
    # row s becomes kron(C_0, ..., C_{m-1}) @ p_s, qubit 0 leftmost, within
    # 1e-15 per entry; per-qubit and scalar rates
    rng = np.random.default_rng(423)
    for m in range(1, 7):
        per_qubit = ReadoutModel(e0=tuple(rng.uniform(0.0, 0.5, m)), e1=tuple(rng.uniform(0.0, 0.5, m)))
        scalar = ReadoutModel(e0=float(rng.uniform(0.0, 0.5)), e1=float(rng.uniform(0.0, 0.5)))
        for model in (per_qubit, scalar):
            probs = rng.dirichlet(np.full(2**m, 0.5), size=5)
            transfer = functools.reduce(np.kron, model.confusion(m))
            noisy = apply_readout_noise(probs, model)
            assert np.abs(noisy - probs @ transfer.T).max() <= 1e-15, (m, model)


def test_readout_noise_draw_matches_the_per_shot_reference():
    # One (settings, shots, model) case: 3 settings on 2 qubits, 64 shots,
    # per-qubit rates, each setting drawn from 4000 streams two ways: one
    # multinomial draw of the mapped probabilities, and a draw of the true
    # ones thinned shot by shot by the reference.  Both are
    # multinomial(shots, q) with q = kron(C_0, C_1) @ p.  Per setting, the two
    # sample means differ by at most 5 sigma per entry, with sigma^2 =
    # 2 shots q_i (1 - q_i) / trials, and the two sample covariances by at
    # most 5 sigma per entry, with sigma^2 = 2 (mu4_ij - cov_ij^2) / trials,
    # mu4_ij = E[(X_i - mu_i)^2 (X_j - mu_j)^2] the multinomial's exact
    # fourth central moment.
    shots, trials = 64, 4000
    probs = np.array([[0.5, 0.2, 0.3, 0.0], [0.1, 0.4, 0.4, 0.1], [0.25, 0.25, 0.25, 0.25]])
    model = ReadoutModel(e0=(0.05, 0.2), e1=(0.1, 0.3))
    k = len(probs)
    tails = np.indices((trials, k)).reshape(2, -1).T
    drawn_keys, sample_keys, flip_keys = (derive_keys(424, (stream,), tails) for stream in range(3))
    batch = np.tile(probs, (trials, 1))
    drawn = sample(apply_readout_noise(batch, model), shots, drawn_keys).counts
    thinned = reference_readout_noise(sample(batch, shots, sample_keys).counts, model, flip_keys)
    drawn, thinned = drawn.reshape(trials, k, 4), thinned.reshape(trials, k, 4)
    # one shot's outcome indicator minus q is z, row o for outcome o; the
    # count is the sum of `shots` independent such vectors
    q = probs @ functools.reduce(np.kron, model.confusion(2)).T
    z = np.eye(4) - q[:, None, :]
    one = np.einsum("so,soi,soj->sij", q, z, z)
    mu4 = shots * np.einsum("so,soi,soj->sij", q, z**2, z**2) + shots * (shots - 1) * (
        np.einsum("sii,sjj->sij", one, one) + 2.0 * one**2
    )
    mean_sigma = np.sqrt(2.0 * shots * q * (1.0 - q) / trials)
    cov_sigma = np.sqrt(2.0 * (mu4 - (shots * one) ** 2) / trials)
    for s in range(k):
        assert np.all(np.abs(drawn[:, s].mean(axis=0) - thinned[:, s].mean(axis=0)) <= 5.0 * mean_sigma[s]), s
        assert np.all(np.abs(np.cov(drawn[:, s].T) - np.cov(thinned[:, s].T)) <= 5.0 * cov_sigma[s]), s
    assert np.all(drawn.sum(axis=2) == shots) and np.all(thinned.sum(axis=2) == shots)


# seeds across the 32-, 64- and 128-bit word boundaries of SeedSequence's
# entropy, and paths with entries of more than one word
STREAM_SEEDS = (0, 1, 111, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 7)
STREAM_PATHS = ((), (1,), (3, 0), (2**32, 1, 4), (7, 2**70, 0, 1), (5, 0, 2**33 + 9, 1, 12, 3))
# the sampled workloads' (point, part, setting, 0) paths: qad_readout 11
# points of 3^2 settings, hw16_tomo 1 point of 3^4 settings; the exact-mode
# workload draws none.  The qad_readout rows also take a last entry of 1
WORKLOAD_PATHS = [((i, 0), [(s, j) for j in range(2) for s in range(9)]) for i in range(11)]
WORKLOAD_PATHS.append(((0, 0), [(s, 0) for s in range(81)]))


def stream_key(rng):
    """The Philox key of a generator's stream."""
    return rng.bit_generator.state["state"]["key"]


def test_derived_streams_match_seed_sequence():
    # derive_rng is SeedSequence's stream; each row of a derive_keys matrix is
    # the key of derive_rng's stream on that row's path, and so SeedSequence's
    for seed in STREAM_SEEDS:
        for path in STREAM_PATHS:
            assert same_stream(derive_rng(seed, *path), seed_sequence_rng(seed, path)), (seed, path)
        for prefix, tails in WORKLOAD_PATHS:
            keys = derive_keys(seed, prefix, np.array(tails))
            assert keys.shape == (len(tails), 2) and keys.dtype == np.uint64
            assert keys.flags.c_contiguous and not keys.flags.writeable
            for key, tail in zip(keys, tails):
                path = prefix + tail
                assert np.array_equal(key, stream_key(seed_sequence_rng(seed, path))), (seed, path)
                assert same_stream(derive_rng(seed, *path), seed_sequence_rng(seed, path)), (seed, path)
        # a prefix of any width and entries of more than one word, and tails
        # of width 0, 1 and 3
        for prefix in STREAM_PATHS:
            for tails in (np.zeros((2, 0), dtype=int), np.array([[0], [2**32 - 1], [7]]), np.array([[1, 2, 3], [0, 0, 0]])):
                keys = derive_keys(seed, prefix, tails)
                for key, tail in zip(keys, tails.tolist()):
                    assert np.array_equal(key, stream_key(derive_rng(seed, *prefix, *tail))), (seed, prefix, tail)
    assert derive_keys(5, (1,), np.zeros((0, 2), dtype=int)).shape == (0, 2)
    # numpy integers are integers
    assert same_stream(derive_rng(np.int64(5), np.uint8(3)), derive_rng(5, 3))
    [key] = derive_keys(np.uint64(5), (np.int32(3),), np.array([[2]], dtype=np.uint16))
    assert np.array_equal(key, stream_key(derive_rng(5, 3, 2)))


def test_stream_keys_do_not_depend_on_where_the_path_splits():
    # the stacked measure keys setting s of part k of point i by the tail
    # (i, k, s, 0) under an empty prefix; one part alone, by the tail (s, 0)
    # under the prefix (i, k).  Over the domain a sweep takes, point i < 10^6
    # (MAX_SWEEP_POINTS) and part k, setting s < 2^32, each entry is one
    # 32-bit word in either place, so the keys are the same, byte for byte
    rng = np.random.default_rng(4016)
    edges = np.array([[0, 0, 0], [10**6 - 1, 2**32 - 1, 2**32 - 1]])
    for seed in STREAM_SEEDS + tuple(int(v) for v in rng.integers(0, 2**63, 4)):
        paths = np.concatenate([edges, np.stack([rng.integers(0, 10**6, 6), rng.integers(0, 2**32, 6),
                                                 rng.integers(0, 2**32, 6)], axis=1)])
        settings = np.concatenate([paths[:, 2:], rng.integers(0, 2**32, (len(paths), 2))], axis=1)
        tails = [(i, k, s, 0) for (i, k, _), row in zip(paths.tolist(), settings.tolist()) for s in row]
        stacked = derive_keys(seed, (), tails)
        for j, ((i, k, _), row) in enumerate(zip(paths.tolist(), settings.tolist())):
            alone = derive_keys(seed, (i, k), [(s, 0) for s in row])
            assert alone.tobytes() == stacked[3 * j:3 * j + 3].tobytes(), (seed, i, k, row)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: derive_rng(5, "3"), "path entry 0 must be a non-negative integer, got '3'"),
        (lambda: derive_rng(5, 1, True), "path entry 1 must be a non-negative integer, got True"),
        (lambda: derive_rng(5, 1.5), "path entry 0 must be a non-negative integer, got 1.5"),
        (lambda: derive_rng(5, 0, 2, -1), "path entry 2 must be a non-negative integer, got -1"),
        (lambda: derive_rng("7"), "seed must be a non-negative integer, got '7'"),
        (lambda: derive_rng(True, 1), "seed must be a non-negative integer, got True"),
        (lambda: derive_rng(7.0), "seed must be a non-negative integer, got 7.0"),
        (lambda: derive_rng(-1), "seed must be a non-negative integer, got -1"),
        (lambda: derive_rng(None), "seed must be a non-negative integer, got None"),
        (lambda: derive_keys(5, (1, "2"), [[0]]), "path entry 1 must be a non-negative integer, got '2'"),
        (lambda: derive_keys(5, (1,), [[0, 3], [4, 2**32]]), "row 1 path entry 2 must be an integer in [0, 2^32), got 4294967296"),
        (lambda: derive_keys(5, (), [[1], [-1]]), "row 1 path entry 0 must be an integer in [0, 2^32), got -1"),
        (lambda: derive_keys(5, (1, 2), [[True]]), "row 0 path entry 2 must be an integer in [0, 2^32), got True"),
        (lambda: derive_keys(5, (), [[1.5, 0]]), "row 0 path entry 0 must be an integer in [0, 2^32), got 1.5"),
        (lambda: derive_keys(5, (), np.array([[1, "3"]], dtype=object)), "row 0 path entry 1 must be an integer in [0, 2^32), got '3'"),
        (lambda: derive_keys(5, (), np.array([[2**64]], dtype=object)), "row 0 path entry 0 must be an integer in [0, 2^32), got 18446744073709551616"),
        (lambda: derive_keys(5, (), [0, 1]), "tails of shape (2,) are not a (streams, tail entries) matrix"),
    ],
    ids=[
        "path-string", "path-bool", "path-float", "path-negative",
        "seed-string", "seed-bool", "seed-float", "seed-negative", "seed-none",
        "prefix-string", "tail-too-wide", "tail-negative", "tail-bool-dtype", "tail-float-dtype",
        "tail-object-string", "tail-object-bigint", "tails-not-2d",
    ],
)
def test_stream_paths_are_checked_before_any_key(call, message, monkeypatch):
    monkeypatch.setattr(simulator, "_shared_pool", lambda *args: pytest.fail("a key was made"))
    with pytest.raises(ValueError, match=f"^{re.escape('streams: ' + message)}$"):
        call()


def test_count_matrix_check_fails_before_any_draw():
    # each case breaks one rule of the shared check; mitigation names its
    # stage, the shape and the first bad row
    model = ReadoutModel(e0=0.1, e1=0.2)
    cases = (
        (np.array([[3.0, 1.0]]), "counts of shape (1, 2) must be integers, got dtype float64"),
        (np.array([3, 1, 0, 2]), "counts of shape (4,) are not a (settings, 2^n outcomes) matrix"),
        (np.ones((1, 2, 2), dtype=int), "counts of shape (1, 2, 2) are not a (settings, 2^n outcomes) matrix"),
        (np.array([[3, 1, 0]]), "counts of shape (1, 3) are not a (settings, 2^n outcomes) matrix"),
        (np.zeros((2, 0), dtype=int), "counts of shape (2, 0) are not a (settings, 2^n outcomes) matrix"),
        (np.array([[3, 1], [2, -1], [-4, 0]]), "counts of shape (3, 2): row 1 has a negative count for '1'"),
        (np.array([[3, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), "counts of shape (3, 4): row 1 has no shots"),
    )
    for counts, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape('mitigation: ' + message)}$"):
            mitigate(counts, model)


def test_confusion_stack_is_cached_read_only_per_model():
    model = ReadoutModel(e0=(0.02, 0.05), e1=0.03)
    confusion, inverses = simulator._confusion_stack(model, 2)
    assert np.array_equal(confusion, model.confusion(2))
    assert np.array_equal(inverses, np.linalg.inv(model.confusion(2)))
    for arr in (confusion, inverses):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 0.5
    # an equal model reads the same entry; one rate apart, or another register, does not
    assert simulator._confusion_stack(ReadoutModel(e0=(0.02, 0.05), e1=0.03), 2)[0] is confusion
    other, other_inverses = simulator._confusion_stack(ReadoutModel(e0=(0.02, 0.06), e1=0.03), 2)
    assert other[1, 1, 0] == 0.06 and confusion[1, 1, 0] == 0.05
    assert not np.array_equal(other_inverses, inverses)
    scalar = ReadoutModel(e0=0.02, e1=0.03)
    assert simulator._confusion_stack(scalar, 3)[0].shape == (3, 2, 2)
    assert simulator._confusion_stack(scalar, 4)[0].shape == (4, 2, 2)


def test_confusion_matrices_cover_the_register():
    # column = true bit: [[1-e0, e1], [e0, 1-e1]] on every qubit
    scalar = ReadoutModel(e0=0.1, e1=0.25).confusion(3)
    assert scalar.shape == (3, 2, 2)
    assert np.array_equal(scalar, np.broadcast_to([[0.9, 0.25], [0.1, 0.75]], (3, 2, 2)))
    per_qubit = ReadoutModel(e0=(0.05, 0.2), e1=0.3).confusion(2)
    assert np.array_equal(per_qubit[0], [[0.95, 0.3], [0.05, 0.7]])
    assert np.array_equal(per_qubit[1], [[0.8, 0.3], [0.2, 0.7]])
    with pytest.raises(ValueError, match="^e0 has 1 entries, but 2 qubits are measured$"):
        ReadoutModel(e0=(0.1,), e1=(0.1,)).confusion(2)
    with pytest.raises(ValueError, match="^e1 has 3 entries, but 2 qubits are measured$"):
        ReadoutModel(e0=0.1, e1=(0.1, 0.2, 0.3)).confusion(2)


def test_shot_counts_hold_a_read_only_dense_array():
    counts = sample(np.stack([born(random_pure(np.random.default_rng(409), 8))] * 3), 50,
                    derive_keys(5, (), [[0], [1], [2]]))
    assert counts.counts.dtype == np.int64 and counts.counts.shape == (3, 8)
    assert counts.qubit_count == 3 and counts.shots == 150
    assert not counts.counts.flags.writeable
    source = np.array([[3, 0, 0, 7], [0, 5, 0, 0]])
    kept = ShotCounts(2, 15, source)
    source[0, 0] = 4  # the stored array is a copy
    assert kept.counts[0, 0] == 3 and source.flags.writeable
    with pytest.raises(ValueError, match=r"counts of shape \(2, 4\) do not cover 3 qubits"):
        ShotCounts(3, 15, source)
    with pytest.raises(ValueError, match=r"counts of shape \(4,\) do not cover 2 qubits"):
        ShotCounts(2, 10, np.array([3, 0, 0, 7]))
    with pytest.raises(ValueError, match="integers"):
        ShotCounts(2, 10, np.array([[2.5, 0.0, 0.0, 7.5]]))
    with pytest.raises(ValueError, match="row 1 has a negative count for '01'"):
        ShotCounts(2, 10, np.array([[1, 0, 0, 0], [9, -1, 0, 1]]))
    with pytest.raises(ValueError, match="row 1 has no shots"):
        ShotCounts(2, 10, np.array([[4, 0, 0, 6], [0, 0, 0, 0]]))
    with pytest.raises(ValueError, match="counts total 11 != shots 10"):
        ShotCounts(2, 10, np.array([[4, 0, 0, 7]]))


def test_shot_counts_take_shots_as_sample_does():
    # a bool or a float is no shot total, as in sample; a numpy integer is one
    counts = np.array([[3, 0, 0, 7]])
    for shots in (True, np.bool_(True), 10.0, np.float64(10.0), 2.5, "10", None, 0, -10):
        with pytest.raises(ValueError, match=f"^{re.escape(f'shot counts: shots must be a positive integer, got {shots!r}')}$"):
            ShotCounts(2, shots, counts)
    kept = ShotCounts(2, np.int64(10), counts)
    assert kept.shots == 10 and type(kept.shots) is int


@pytest.mark.parametrize("k", [3, 9, 81])
def test_batched_sample_rows_equal_one_row_multinomial_draws(k):
    # row s is rngs[s].multinomial(shots, p_s / p_s.sum()) on a fresh stream,
    # and a one-row call on that stream; rows of unnormalized weights with
    # exact zeros
    rng = np.random.default_rng(421)
    for m in range(1, 7):
        probs = rng.dirichlet(np.full(2**m, 0.5), size=k) * rng.uniform(0.5, 2.0, (k, 1))
        probs[rng.random(probs.shape) < 0.2] = 0.0
        probs[:, 0] += 1e-3
        shots = int(rng.integers(1, 5000))
        keys = derive_keys(421, (k, m), np.arange(k)[:, None])
        counts = sample(probs, shots, keys)
        assert counts.qubit_count == m and counts.shots == k * shots
        assert counts.counts.shape == (k, 2**m) and counts.counts.dtype == np.int64
        expected = np.stack([
            derive_rng(421, k, m, s).multinomial(shots, p / p.sum()) for s, p in enumerate(probs)
        ])
        assert counts.counts.tobytes() == expected.tobytes(), (k, m)
        for s in (0, k - 1):
            [one] = sample(probs[s : s + 1], shots, keys[s : s + 1]).counts
            assert one.tobytes() == expected[s].tobytes(), (k, m, s)


def test_batched_sample_normalizes_every_width_as_one_row_at_a_time():
    # one division of the matrix by its row sums gives each row's own
    # p / p.sum() bytes, and so its draw, on widths 2^1 to 2^6: rows with
    # exact zeros, tiny entries, large ones, both mixed, and one outcome
    rng = np.random.default_rng(3913)
    for m in range(1, 7):
        width = 2**m
        probs = rng.dirichlet(np.full(width, 0.5), size=5)
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs[:, -1] += 1e-3
        probs[1] *= 1e-300
        probs[2] *= 1e250
        probs[3] *= np.where(np.arange(width) % 2, 1e-290, 1e240)
        probs[4] = 0.0
        probs[4, rng.integers(width)] = 7.5
        rows = np.stack([p / p.sum() for p in probs])
        assert (probs / probs.sum(axis=1, keepdims=True)).tobytes() == rows.tobytes(), m
        shots = int(rng.integers(1, 3000))
        counts = sample(probs, shots, derive_keys(3913, (m,), np.c_[np.arange(5), np.zeros(5, dtype=int)]))
        expected = np.stack([derive_rng(3913, m, s, 0).multinomial(shots, p) for s, p in enumerate(rows)])
        assert counts.counts.tobytes() == expected.tobytes(), m
        assert counts.counts[4].max() == shots


def test_sampled_shot_counts_pass_the_public_constructor():
    # sample builds its ShotCounts without re-checking the counts it drew;
    # the public constructor accepts them as they are
    rng = np.random.default_rng(77)
    for m, k, shots in ((1, 1, 1), (2, 9, 64), (4, 81, 4096)):
        probs = rng.random((k, 2**m))
        drawn = sample(probs, shots, derive_keys(77, (m,), np.arange(k)[:, None]))
        rebuilt = ShotCounts(drawn.qubit_count, drawn.shots, drawn.counts)
        assert (rebuilt.qubit_count, rebuilt.shots) == (drawn.qubit_count, drawn.shots) == (m, k * shots)
        assert rebuilt.counts.dtype == drawn.counts.dtype == np.int64
        assert rebuilt.counts.tobytes() == drawn.counts.tobytes()
        assert not drawn.counts.flags.writeable and not rebuilt.counts.flags.writeable


def test_batched_sample_rekeys_one_philox_as_fresh_generators():
    # one call re-keys one generator per row: row s is the draw of a fresh
    # derive_rng stream on its path, on widths 2^1 to 2^6 and shots from 1
    # to 10^6, rows with exact zeros; a row whose key recurs draws the same
    # counts, and a second call with the same keys, after a call with other
    # keys, the same matrix, so no state carries over between rows or calls
    rng = np.random.default_rng(4012)
    for m in range(1, 7):
        for shots in (1, 7, 4096, 10**6):
            k = 5
            probs = rng.dirichlet(np.full(2**m, 0.5), size=k) * rng.uniform(0.5, 2.0, (k, 1))
            probs[rng.random(probs.shape) < 0.3] = 0.0
            probs[:, -1] += 1e-3
            probs[4] = probs[1]
            tails = np.c_[[0, 1, 2, 3, 1], np.zeros(k, dtype=int)]
            keys = derive_keys(4012, (m, shots), tails)
            counts = sample(probs, shots, keys).counts
            expected = np.stack([
                derive_rng(4012, m, shots, *tail).multinomial(shots, p / p.sum()) for tail, p in zip(tails, probs)
            ])
            assert counts.tobytes() == expected.tobytes(), (m, shots)
            assert np.array_equal(counts[4], counts[1])
            sample(probs[::-1], shots, derive_keys(4013, (m, shots), tails))
            assert sample(probs, shots, keys).counts.tobytes() == counts.tobytes(), (m, shots)


def test_batched_sample_rejects_a_bad_key_matrix_or_shots_before_any_draw(monkeypatch):
    # a key matrix of the wrong shape, dtype or row count, and shots that are
    # no positive integer, each fail as one sampling error before any
    # generator is made
    probs = np.full((3, 4), 0.25)
    keys = derive_keys(9, (), [[0], [1], [2]])
    generators = [derive_rng(9, s) for s in range(3)]
    monkeypatch.setattr(simulator, "_philox_key_type", lambda: pytest.fail("a generator was made"))
    for bad, message in (
        (keys[:, :1], "keys of shape (3, 1) and dtype uint64 are not a (streams, 2) uint64 matrix"),
        (keys.ravel(), "keys of shape (6,) and dtype uint64 are not a (streams, 2) uint64 matrix"),
        (keys[:, :, None], "keys of shape (3, 2, 1) and dtype uint64 are not a (streams, 2) uint64 matrix"),
        (keys.astype(np.int64), "keys of shape (3, 2) and dtype int64 are not a (streams, 2) uint64 matrix"),
        (keys.astype(float), "keys of shape (3, 2) and dtype float64 are not a (streams, 2) uint64 matrix"),
        (generators, "keys of shape (3,) and dtype object are not a (streams, 2) uint64 matrix"),
        (keys[:2], "probabilities of shape (3, 4) take one key per row, got 2"),
        (np.concatenate([keys, keys[:1]]), "probabilities of shape (3, 4) take one key per row, got 4"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape('sampling: ' + message)}$"):
            sample(probs, 16, bad)
    for shots in (0, -3, True, np.bool_(True), 2.5, 4.0, np.float64(4.0), "4", None):
        with pytest.raises(ValueError, match=f"^{re.escape(f'sampling: shots must be a positive integer, got {shots!r}')}$"):
            sample(probs, shots, keys)


def test_run_branches_without_layers_returns_the_run_as_one_writable_row():
    # exact mode's one row: the run's state, phase and all, in an array of its own
    rng = np.random.default_rng(4014)
    for n, phase in ((1, 0.0), (4, 0.7), (9, -2.1)):
        low = lower(synthesize(random_pure(rng, 2**n)))
        circuit = Circuit(n, low.elements, phase)
        rows = run_branches(circuit, ())
        assert rows.shape == (1, 2**n) and rows.dtype == np.complex128
        assert rows.flags.c_contiguous and rows.flags.writeable and rows.flags.owndata
        assert rows[0].tobytes() == run(circuit).amplitudes.tobytes(), n


def test_sampling_check_fails_before_any_draw(monkeypatch):
    # each case breaks one rule; the message names the stage, the shape and
    # the first bad row, and no generator is made.  Readout noise makes the
    # same check, keys aside, under its own stage
    good = np.full((3, 2), 0.5)
    negative, nan, inf, empty = (good.copy() for _ in range(4))
    negative[1, 1] = -0.25
    negative[2, 0] = -1.0  # a later bad row is not the one named
    nan[2, 0] = np.nan
    inf[0, 1] = np.inf
    empty[1] = 0.0
    cases = (
        (np.array([0.5, 0.5]), 1, "probabilities of shape (2,) are not a (settings, 2^n outcomes) matrix"),
        (np.ones((1, 2, 2)), 1, "probabilities of shape (1, 2, 2) are not a (settings, 2^n outcomes) matrix"),
        (np.ones((2, 3)), 2, "probabilities of shape (2, 3) are not a (settings, 2^n outcomes) matrix"),
        (np.ones((2, 0)), 2, "probabilities of shape (2, 0) are not a (settings, 2^n outcomes) matrix"),
        (np.ones((0, 2)), 0, "probabilities of shape (0, 2) are not a (settings, 2^n outcomes) matrix"),
        (good, 2, "probabilities of shape (3, 2) take one key per row, got 2"),
        (good, 4, "probabilities of shape (3, 2) take one key per row, got 4"),
        (negative, 3, "probabilities of shape (3, 2): row 1 has a negative or non-finite entry"),
        (nan, 3, "probabilities of shape (3, 2): row 2 has a negative or non-finite entry"),
        (inf, 3, "probabilities of shape (3, 2): row 0 has a negative or non-finite entry"),
        (empty, 3, "probabilities of shape (3, 2): row 1 has no probability mass"),
    )
    monkeypatch.setattr(simulator, "_philox_key_type", lambda: pytest.fail("a generator was made"))
    for probs, k, message in cases:
        keys = derive_keys(422, (), np.arange(k)[:, None])
        with pytest.raises(ValueError, match=f"^{re.escape('sampling: ' + message)}$"):
            sample(probs, 16, keys)
        if "key" not in message:
            with pytest.raises(ValueError, match=f"^{re.escape('readout noise: ' + message)}$"):
                apply_readout_noise(probs, ReadoutModel(e0=0.1, e1=0.2))


def test_mitigation_rejects_singular_confusion():
    # with both rates capped at 0.5, e0 + e1 = 1 only at 0.5/0.5; the model
    # rejects it before any shot is drawn, naming the qubit
    with pytest.raises(ValueError, match="singular"):
        ReadoutModel(e0=0.5, e1=0.5)
    with pytest.raises(ValueError, match="singular .* on qubit 1"):
        ReadoutModel(e0=(0.01, 0.5), e1=0.5)


def test_per_qubit_error_tuples():
    counts = count_row(2, {"00": 50_000})
    [noisy] = sample(
        apply_readout_noise(counts, ReadoutModel(e0=(0.3, 0.0), e1=(0.0, 0.0))), 50_000, one_key(3)
    ).counts
    ones_on_q1 = sum(c for b, c in histogram(noisy).items() if b[1] == "1")
    assert ones_on_q1 == 0  # second qubit noiseless
    ones_on_q0 = sum(c for b, c in histogram(noisy).items() if b[0] == "1")
    assert abs(ones_on_q0 / 50_000 - 0.3) < 0.02


# a 3-qubit input with a zero-count outcome, and per-qubit rates that
# differ between e0 and e1 and from qubit to qubit
RECORDED_COUNTS = {"000": 250, "011": 0, "101": 200, "110": 120, "111": 30}
RECORDED_MODEL = ReadoutModel(e0=(0.05, 0.2, 0.1), e1=(0.15, 0.0, 0.3))


def test_readout_noise_reproduces_recorded_histogram():
    # recorded from the binomial thinning of the count vector: one draw
    # per qubit, qubit 0 first, over that qubit's (2^q, 2, rest) view; the
    # reference keeps those bytes
    counts = count_row(3, RECORDED_COUNTS)
    [noisy] = reference_readout_noise(counts, RECORDED_MODEL, one_key(2212, 13834, 1))
    assert histogram(noisy) == {
        "000": 178, "001": 31, "010": 58, "011": 15,
        "100": 56, "101": 99, "110": 117, "111": 46,
    }


def test_readout_noise_matches_the_exact_noisy_distribution():
    # each shot of outcome i lands on j with probability T[j, i], T the
    # Kronecker product of the per-qubit confusion matrices (qubit 0
    # leftmost), so a noisy count has mean T @ c and variance
    # (T * (1 - T)) @ c; a swapped e0/e1 or a reversed bit order moves
    # the mean by many standard errors
    counts = count_row(3, RECORDED_COUNTS)
    transfer = kron(*RECORDED_MODEL.confusion(3)).real
    expected = transfer @ counts[0]
    trials = 4000
    noisy = reference_readout_noise(
        np.repeat(counts, trials, axis=0), RECORDED_MODEL, derive_keys(415, (), np.arange(trials)[:, None])
    )
    sigma = np.sqrt((transfer * (1.0 - transfer)) @ counts[0] / trials)
    assert np.all(np.abs(noisy.mean(axis=0) - expected) <= 5.0 * sigma)
    assert np.all(noisy.sum(axis=1) == counts.sum())


def test_readout_noise_degenerate_rates():
    # zero rates give back the input's bytes, exact zeros included
    rng = np.random.default_rng(416)
    for m in range(1, 7):
        probs = rng.dirichlet(np.full(2**m, 0.5), size=3)
        probs[rng.random(probs.shape) < 0.3] = 0.0
        probs[:, 0] += 1e-3
        for model in (ReadoutModel(e0=0.0, e1=0.0), ReadoutModel(e0=(0.0,) * m, e1=(0.0,) * m)):
            assert apply_readout_noise(probs, model).tobytes() == probs.tobytes(), (m, model)
    # only bit 0 -> 1 on qubit 1 (at the cap 0.5) and bit 1 -> 0 on qubit 0
    # flip: "000" and "110" feed "010", and no outcome feeds the others
    probs = count_row(3, {"000": 400, "110": 300}) / 700.0
    model = ReadoutModel(e0=(0.0, 0.5, 0.0), e1=(0.3, 0.0, 0.0))
    [noisy] = apply_readout_noise(probs, model)
    assert {format(i, "03b") for i in np.flatnonzero(noisy)} == {"000", "010", "110"}
    assert abs(noisy.sum() - 1.0) < 1e-15


def _circuit_elements(rng, n, kind):
    """Rotations of every qubit, a CX chain, then random multiplexors, CX and
    uncontrolled gates: Ry and X alone for a real state, X, Ry and Rz for a
    complex one; in a sparse one the last qubit stays |0>, so half the
    amplitudes are exact zeros."""
    active = range(n - 1) if kind == "sparse" else range(n)
    rotations = [
        Gate(g, rng.uniform(-math.pi, math.pi), q)
        for q in active
        for g in (("ry",) if kind == "real" else ("ry", "rz"))
    ]
    chain = [Gate("x", 0.0, q + 1, ((q, 1),)) for q in active[:-1]]
    kinds = ("x", "ry") if kind == "real" else ("x", "ry", "rz")
    controlled = [random_element(rng, len(active), kinds) for _ in range(2 * len(active))]
    return tuple(rotations + chain + controlled)


def test_branched_settings_equal_full_runs_bit_for_bit():
    # one circuit per register size; the kinds cycle with n and the phase
    # alternates, so each kind meets a zero and a non-zero phase
    rng = np.random.default_rng(2212)
    for n in range(1, 11):
        kind = ("complex", "real", "sparse")[(n - 1) % 3]
        phase = rng.uniform(-math.pi, math.pi) if n % 2 else 0.0
        circuit = Circuit(n, _circuit_elements(rng, n, kind), phase)
        assert any(gate_parts(g)[1] for g in circuit.gates) == (n > 1)
        if kind == "sparse":
            assert np.count_nonzero(run(circuit).amplitudes) == 2 ** (n - 1)
        [row] = run_branches(circuit, ())
        assert row.tobytes() == run(circuit).amplitudes.tobytes()
        full = {}  # a Z letter adds no gate, so settings of smaller m recur
        for m in range(1, min(n, 6) + 1):
            plan = settings_for(m)
            rows = run_branches(circuit, plan.layers)
            assert rows.shape == (3**m, 2**n)
            for row, rotations in zip(rows, plan.rotations):
                if rotations not in full:
                    full[rotations] = run(Circuit(n, circuit.elements + rotations, phase)).amplitudes.tobytes()
                assert row.tobytes() == full[rotations], (n, kind, m, rotations)


def test_a_stacked_branch_pass_gives_each_part_its_own_rows():
    # qad_readout's preparations at gamma 0, 0.5 and 1, which lower to 2, 4
    # and 2 walks, and a complex target with a nonzero phase: one pass over
    # the stack of their phase-free states gives each part's rows byte for
    # byte as its own run_branches call, phase applied last, and leaves the
    # stack as it was.  No kernel_bytes marker: stacking must not depend on
    # the BLAS kernel or the SIMD level.
    targets = [embed_qudits(dilate_pure(qutrit_amplitude_damping(gamma), uniform_state(3))) for gamma in (0.0, 0.5, 1.0)]
    targets.append(random_pure(np.random.default_rng(1228), 16))
    lowered = [lower(synthesize(target)) for target in targets]
    assert [sum(isinstance(e, GrayWalk) for e in low.elements) for low in lowered[:3]] == [2, 4, 2]
    phases = [low.global_phase for low in lowered]
    assert phases[:3] == [0.0, 0.0, 0.0] and phases[3] != 0.0
    states = np.stack([run(Circuit(low.qubit_count, low.elements)).amplitudes for low in lowered])
    before = states.tobytes()
    for m in (1, 2, 3, 4):
        layers = settings_for(m).layers
        rows = branch_stack(states, phases, layers)
        assert rows.shape == (len(lowered) * 3**m, 16) and rows.flags.c_contiguous and rows.flags.writeable
        for block, low in zip(rows.reshape(len(lowered), 3**m, 16), lowered):
            assert block.tobytes() == run_branches(low, layers).tobytes(), (m, low.global_phase)
    # without layers each part's one row is its state times its phase
    rows = branch_stack(states, phases, ())
    for row, low in zip(rows, lowered):
        assert row.tobytes() == run(low).amplitudes.tobytes()
    assert states.tobytes() == before
    with pytest.raises(ValueError, match=r"^branches: states of shape \(16,\) are not a \(parts, 2\^n amplitudes\) stack$"):
        branch_stack(states[0], phases[:1], ())
    with pytest.raises(ValueError, match=r"^branches: 4 states take one phase each, got 3$"):
        branch_stack(states, phases[:3], ())
    with pytest.raises(ValueError, match=r"^branches: layer 4 gate .* acts outside the 4-qubit circuit$"):
        branch_stack(states, phases, settings_for(5).layers)


def test_run_branches_rejects_bad_input_before_any_gate(monkeypatch):
    applied = stub_gate_kernels(monkeypatch)
    # layer 0 is valid, so a check made layer by layer would apply the
    # circuit's gates and layer 0's first
    circuit = Circuit(2, (Gate("ry", 0.3, 0), Gate("x", 0.0, 1, ((0, 1),))))
    with pytest.raises(ValueError, match=r"branches: layer 1 gate .* outside the 2-qubit circuit"):
        run_branches(circuit, settings_for(3).layers[:1] + settings_for(3).layers[2:])
    with pytest.raises(ValueError, match="simulator: 11 qubits exceeds the register limit"):
        run_branches(Circuit(11, (Gate("x", 0.0, 10),)), settings_for(1).layers)
    assert applied == []


def test_run_branches_rejects_a_layer_outside_the_contract_before_any_gate(monkeypatch):
    # a layer is a non-empty list of alternatives of bare X, Ry or Rz gates,
    # all on one qubit; the circuit's gates and valid earlier layers do not run
    applied = stub_gate_kernels(monkeypatch)
    circuit = Circuit(2, (Gate("ry", 0.3, 0), Gate("x", 0.0, 1, ((0, 1),))))
    z_only = [[]]  # one alternative with no gate: valid
    for layers, message in (
        ([[]], "branches: layer 0 has no alternatives"),
        ([z_only, []], "branches: layer 1 has no alternatives"),
        ([[[Gate("ry", 0.1, 0), Gate("ry", 0.2, 1)]]], r"branches: layer 0 acts on qubits \[0, 1\], not on one"),
        ([[[Gate("rz", 0.1, 1)], [Gate("x", 0.0, 0)]]], r"branches: layer 0 acts on qubits \[0, 1\], not on one"),
        ([z_only, [[Gate("x", 0.0, 1, ((0, 1),))]]], r"branches: layer 1 gate .* is not a bare X, Ry or Rz"),
        ([[[Multiplexor("ry", 1, [1], [0.2])]]], r"branches: layer 0 'ry' multiplexor on qubit 1 is not a bare"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            run_branches(circuit, layers)
    assert applied == []


def test_non_integer_qubits_are_rejected_before_any_gate(monkeypatch):
    # a float control, a float target and bool targets: the circuit check and
    # run_branches' layer check name the element; Python and numpy integers
    # are qubits.  A gate's and a multiplexor's constructors reject such a
    # qubit themselves, so each is built past them here
    applied = stub_gate_kernels(monkeypatch)
    for bad, qubit in (
        (qsp._built(Gate, kind="x", angle=0.0, target=1, controls=((0.5, 1),)), "0.5"),
        (qsp._built(Gate, kind="ry", angle=0.3, target=0.5, controls=()), "0.5"),
        (qsp._built(Gate, kind="x", angle=0.0, target=True, controls=()), "True"),
        (qsp._built(Multiplexor, kind="ry", target=True, rows=(1,), angles=(0.2,)), "True"),
    ):
        label = f"gate {bad}" if isinstance(bad, Gate) else str(bad)
        message = re.escape(f"{label}: qubit {qubit} is not an integer")
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(Circuit(2, (bad,)))
        with pytest.raises(ValueError, match=f"^branches: layer 1 {message}$"):
            run_branches(Circuit(2, ()), [[[]], [[Gate("rz", 0.1, 0)], [bad]]])
    assert applied == []
    Circuit(2, (Gate("x", 0.0, np.int64(1), ((np.int8(0), 1),)), Multiplexor("rz", np.int32(1), [1], [0.2])))


def test_register_limit_is_checked_before_the_first_gate(monkeypatch):
    assert MAX_QUBITS == 10 and 2**MAX_QUBITS == MAX_DIM
    reachable = run(Circuit(10, (Gate("x", 0.0, 9),)))
    assert reachable.amplitudes[1] == 1.0
    applied = stub_gate_kernels(monkeypatch)
    wide = Circuit(11, (Gate("x", 0.0, 0),))
    with pytest.raises(ValueError, match="simulator: 11 qubits exceeds the register limit of 10"):
        run(wide)
    with pytest.raises(ValueError, match="dense unitary: 11 qubits exceeds"):
        circuit_unitary(wide)
    assert applied == []
