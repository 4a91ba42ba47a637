import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    circuit_unitary,
    gate_matrix,
    qasm_parse,
    random_density,
    random_pure,
    reference_lower,
    reference_synthesize,
    reference_walsh_hadamard,
)
import kraussim.cli as cli
import kraussim.qsp as qsp
from kraussim.channels import hw_dephasing
from kraussim.cli import FIDELITY_FLOOR
from kraussim.dilation import dilate_pure, embed_qudits, mixed_method_double_purification
from kraussim.numerics import PureState, basis_state
from kraussim.qsp import (
    Circuit,
    Gate,
    GrayWalk,
    Multiplexor,
    dump_circuit,
    lower,
    qasm_export,
    rotation_stack,
    synthesize,
    verify_preparation,
    _walsh_hadamard,
)
from kraussim.simulator import run, run_branches
from kraussim.tomography import settings_for


def test_one_qubit_real_state_single_rotation():
    circuit = synthesize(PureState(np.array([np.sqrt(0.3), np.sqrt(0.7)])))
    assert len(circuit.gates) == 1
    (gate,) = circuit.gates
    assert gate.kind == "ry" and gate.target == 0 and gate.rows == (0,)
    assert abs(gate.angles[0] - 1.9823131728623846) < 1e-12
    assert circuit.global_phase == 0.0


def test_basis_state_needs_no_gates():
    circuit = synthesize(basis_state(8, 0))
    assert circuit.gates == ()
    assert verify_preparation(circuit, basis_state(8, 0), run(circuit)) > 1 - 1e-12
    with pytest.raises(ValueError, match="target dimension does not match circuit register"):
        verify_preparation(circuit, basis_state(4, 0), basis_state(4, 0))


def test_zero_subtree_is_pruned():
    # no support on the qubit-0 = 0 half, so that branch emits nothing
    target = PureState(np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2))
    circuit = synthesize(target)
    assert len(circuit.gates) == 2  # ry on qubit 0, one controlled ry
    assert [(g.kind, g.target, g.rows) for g in circuit.gates] == [
        ("ry", 0, (0,)),
        ("ry", 1, (1,)),
    ]
    assert verify_preparation(circuit, target, run(circuit)) > 1 - 1e-12


def test_bell_style_state_two_gates():
    target = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    circuit = synthesize(target)
    assert len(circuit.gates) == 2
    assert verify_preparation(circuit, target, run(circuit)) > 1 - 1e-12
    lowered = lower(circuit)
    assert verify_preparation(lowered, target, run(lowered)) > 1 - 1e-12


def test_round_trip_random_complex_states():
    rng = np.random.default_rng(301)
    for n in range(1, 6):
        for _ in range(10):
            target = random_pure(rng, 2**n)
            circuit = synthesize(target)
            low = lower(circuit)
            assert verify_preparation(circuit, target, run(circuit)) >= 1 - 1e-10
            assert verify_preparation(low, target, run(low)) >= 1 - 1e-10


def test_lowering_preserves_full_unitary():
    rng = np.random.default_rng(302)
    for n in (2, 3, 4):
        circuit = synthesize(random_pure(rng, 2**n))
        dense_pre = circuit_unitary(circuit)
        dense_post = circuit_unitary(lower(circuit))
        assert np.abs(dense_pre - dense_post).max() < 1e-9


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    zero_share=st.floats(0.0, 0.9),
    tiny_share=st.floats(0.0, 0.5),
)
def test_sparse_and_near_zero_states_round_trip(n, seed, real, zero_share, tiny_share):
    # exact zeros prune whole branches; magnitudes down to 1e-150 must
    # still give a finite angle and a rotation that lowers cleanly
    rng = np.random.default_rng(seed)
    amps = random_pure(rng, 2**n).amplitudes.copy()
    if real:
        amps = amps.real.astype(np.complex128)
    u = rng.random(amps.size)
    amps[u < zero_share] = 0.0
    tiny = (u >= zero_share) & (u < zero_share + tiny_share)
    amps[tiny] *= 10.0 ** rng.uniform(-150.0, -8.0, int(tiny.sum()))
    if not np.linalg.norm(amps):
        amps[rng.integers(amps.size)] = 1.0
    target = PureState(amps / np.linalg.norm(amps))
    circuit = synthesize(target)
    lowered = lower(circuit)
    assert verify_preparation(circuit, target, run(circuit)) >= 1 - 1e-10
    assert verify_preparation(lowered, target, run(lowered)) >= 1 - 1e-10
    if n <= 4:
        assert np.abs(circuit_unitary(circuit) - circuit_unitary(lowered)).max() < 1e-9


def test_walsh_hadamard_matches_reference_loop_bit_for_bit():
    rng = np.random.default_rng(304)
    for k in range(11):
        for _ in range(5):
            angles = rng.uniform(-np.pi, np.pi, 2**k)
            angles[rng.random(2**k) < 0.3] = 0.0
            before = angles.copy()
            assert _walsh_hadamard(angles).tobytes() == reference_walsh_hadamard(angles).tobytes()
            assert np.array_equal(angles, before)


def test_single_controlled_ry_lowering_pattern():
    theta = 0.813
    circuit = Circuit(2, (Multiplexor("ry", 1, [1], [theta]),))
    lowered = lower(circuit)
    kinds = [(g.kind, g.target, g.controls) for g in lowered.gates]
    assert kinds == [
        ("ry", 1, ()),
        ("x", 1, ((0, 1),)),
        ("ry", 1, ()),
        ("x", 1, ((0, 1),)),
    ]
    assert abs(lowered.gates[0].angle - theta / 2) < 1e-12
    assert abs(lowered.gates[2].angle + theta / 2) < 1e-12
    assert np.abs(circuit_unitary(circuit) - circuit_unitary(lowered)).max() < 1e-12


def test_real_state_lowered_gate_budget():
    # generic positive 3-qubit amplitudes: 1 + 2 + 4 rotations, 2 + 4 CX
    rng = np.random.default_rng(303)
    amps = rng.uniform(0.1, 1.0, 8)
    target = PureState(amps / np.linalg.norm(amps))
    lowered = lower(synthesize(target))
    kinds = ["cx" if g.controls else g.kind for g in lowered.gates]
    assert kinds.count("ry") == 7 and kinds.count("cx") == 6
    assert lowered.gate_count == len(lowered.gates) == 13
    assert all(isinstance(g, Gate) for g in lowered.gates)
    assert verify_preparation(lowered, target, run(lowered)) >= 1 - 1e-10


def test_lower_keeps_elementary_gates_untouched():
    gates = (
        Gate("x", 0.0, 0),
        Gate("x", 0.0, 1, ((0, 1),)),
        Gate("ry", 0.4, 1),
        Gate("rz", -0.9, 0),
        Gate("rz", 0.3, 1),
    )
    circuit = Circuit(2, gates, global_phase=0.2)
    lowered = lower(circuit)
    assert lowered.gates == gates
    assert lowered.global_phase == 0.2


def test_anticontrol_multi_controlled_rotation():
    # row 0b01: qubit 0 reads 0, qubit 1 reads 1
    circuit = Circuit(3, (Multiplexor("ry", 2, [0b01], [1.1]),))
    assert dump_circuit(circuit).splitlines()[2:] == ["ry 1.1 q2 c0=0 c1=1"]
    assert np.abs(circuit_unitary(lower(circuit)) - circuit_unitary(circuit)).max() < 1e-9


def test_controlled_phase_lowering():
    # a controlled Phase, diag(1, 1, 1, e^{0.7i}), written as the Rz cascade
    # synthesis emits for branch phases: an Rz multiplexor on qubit 1, one
    # on qubit 0 and a global phase
    elements, phase = qsp._rz_cascade(np.array([0.0, 0.0, 0.0, 0.7]), np.ones(4, dtype=bool))
    circuit = Circuit(2, tuple(elements), phase)
    assert [(e.kind, e.target, e.rows, e.angles) for e in elements] == [("rz", 1, (1,), (0.7,)), ("rz", 0, (0,), (0.35,))]
    assert phase == 0.175
    expected = np.diag(np.exp(1j * np.array([0.0, 0.0, 0.0, 0.7])))
    assert np.abs(circuit_unitary(circuit) - expected).max() < 1e-12
    assert np.abs(circuit_unitary(lower(circuit)) - expected).max() < 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("hadamard", 0.0, 0)
    with pytest.raises(ValueError):
        Gate("ry", 0.1, 0, ((0, 1),))  # control collides with target
    with pytest.raises(ValueError):
        Gate("ry", 0.1, 1, ((0, 2),))  # activation must be a bit
    with pytest.raises(ValueError):
        Circuit(2, (Gate("x", 0.0, 5),))


NOT_ELEMENTARY = " is not a bare gate or a CX; write a controlled rotation as a Multiplexor"


@pytest.mark.parametrize("gate", [
    ("x", 0.0, 2, ((0, 1), (1, 1))),  # a Toffoli
    ("x", 0.0, 1, ((0, 0),)),  # an anti-controlled X
    ("ry", 0.3, 1, ((0, 1),)),
    ("phase", 0.3, 0, ((2, 0),)),
])
def test_circuit_rejects_a_non_elementary_gate_naming_it(gate):
    # a circuit cannot hold such a gate: building the gate already fails,
    # and the message names it
    kind, angle, target, controls = gate
    named = f"gate Gate(kind={kind!r}, angle={angle!r}, target={target}, controls={controls!r})"
    message = named + (f": unknown kind {kind!r}" if kind == "phase" else NOT_ELEMENTARY)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Gate(*gate)
    elements = (Gate("x", 0.0, 1, ((0, 1),)), Multiplexor("ry", 2, [1], [0.4]), Gate("rz", 0.2, 0))
    assert Circuit(3, elements).gate_count == 3


@pytest.mark.parametrize("args, message", [
    (("hadamard", 0.0, 0), "gate Gate(kind='hadamard', angle=0.0, target=0, controls=()): unknown kind 'hadamard'"),
    # a CX onto its own control, a gate with several controls and a control
    # bit other than 0 or 1
    (("x", 0.0, 1, ((1, 1),)), "gate Gate(kind='x', angle=0.0, target=1, controls=((1, 1),))" + NOT_ELEMENTARY),
    (("rz", 0.1, 2, ((0, 1), (1, 0), (0, 0))),
     "gate Gate(kind='rz', angle=0.1, target=2, controls=((0, 1), (1, 0), (0, 0)))" + NOT_ELEMENTARY),
    (("x", 0.0, 1, ((0, 2),)), "gate Gate(kind='x', angle=0.0, target=1, controls=((0, 2),))" + NOT_ELEMENTARY),
    # a control bit equal to 1 but not an integer
    (("x", 0.0, 1, ((0, True),)), "gate Gate(kind='x', angle=0.0, target=1, controls=((0, True),))" + NOT_ELEMENTARY),
    (("x", 0.0, 1, ((0, 1.0),)), "gate Gate(kind='x', angle=0.0, target=1, controls=((0, 1.0),))" + NOT_ELEMENTARY),
], ids=["hadamard", "cx-onto-its-control", "duplicate-control", "control-bit-2", "control-bit-True",
        "control-bit-1.0"])
def test_gate_rejects_bad_input_with_its_message(args, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Gate(*args)


def test_cx_control_bit_may_be_a_numpy_integer():
    # by the rule for qubit indices: a numpy integer 1 is a control bit, and
    # the dump prints it as the integer it is
    circuit = Circuit(2, (Gate("x", 0.0, 1, ((np.int64(0), np.int64(1)),)),))
    assert dump_circuit(circuit) == "qubits 2\nphase 0.0\nx q1 c0=1\n"


def assert_lowers_as_reference(circuit):
    lowered, expected = lower(circuit), reference_lower(circuit)
    assert lowered.gates == expected.gates
    assert lowered.global_phase.hex() == expected.global_phase.hex()
    # the text keeps the sign of a zero angle, which == does not see
    assert dump_circuit(lowered) == dump_circuit(expected)


@pytest.mark.parametrize("n", range(1, 10))
def test_lower_matches_reference_on_preparations(n):
    # complex and real states, with exact zeros so that levels miss patterns
    rng = np.random.default_rng(320 + n)
    for real in (False, True):
        for zero_share in (0.0, 0.3):
            amps = rng.standard_normal(2**n) + (0.0 if real else 1j * rng.standard_normal(2**n))
            amps[rng.random(2**n) < zero_share] = 0.0
            if not np.any(amps):
                amps[0] = 1.0
            target = PureState(amps / np.linalg.norm(amps))
            assert_lowers_as_reference(synthesize(target))


@pytest.mark.parametrize("n", range(2, 7))
def test_lower_matches_reference_on_hand_built_circuits(n):
    # Ry and Rz multiplexors on random rows, qubit 0 among their targets, some
    # angles zero, some with every angle zero or no rows; Rz cascades of random
    # diagonals on the qubits up to any target, some entries not present;
    # elementary gates and CX between them
    rng = np.random.default_rng(330 + n)
    for _ in range(8):
        elements = []
        for _ in range(12):
            target = int(rng.integers(n))
            choice = str(rng.choice(["multiplexor", "diagonal", "elementary"]))
            if choice == "multiplexor":
                rows = rng.permutation(2**target)[: rng.integers(0, 2**target + 1)].tolist()
                zero = rng.random() < 0.2
                angles = [0.0 if zero else float(rng.choice([rng.uniform(-3, 3), 0.0])) for _ in rows]
                elements.append(Multiplexor(str(rng.choice(["ry", "rz"])), target, rows, angles))
            elif choice == "diagonal":
                size = 2 ** (target + 1)
                present = rng.random(size) < 0.7
                cascade, _ = qsp._rz_cascade(np.where(present, rng.uniform(-3, 3, size), 0.0), present)
                elements.extend(cascade)
            else:
                kind = str(rng.choice(["x", "ry", "rz", "cx"]))
                if kind == "cx":
                    control = int(rng.choice([q for q in range(n) if q != target]))
                    elements.append(Gate("x", 0.0, target, ((control, 1),)))
                else:
                    elements.append(Gate(kind, float(rng.uniform(-3, 3)), target))
        circuit = Circuit(n, tuple(elements), float(rng.uniform(-3, 3)))
        assert_lowers_as_reference(circuit)
        if n <= 4:
            assert np.abs(circuit_unitary(lower(circuit)) - circuit_unitary(circuit)).max() < 1e-9


@pytest.mark.parametrize("bad", [
    Gate("ry", 0.3, -1),  # a negative target
    Gate("x", 0.0, 3),  # a target equal to the qubit count
    Gate("x", 0.0, 1, ((4, 1),)),  # a control out of range
])
def test_circuit_check_names_the_first_gate_outside_the_register(bad):
    # valid gates around two offenders: the message names the earlier one
    later = Gate("x", 0.0, 2, ((7, 1),))
    gates = (Gate("ry", 0.1, 0), Gate("x", 0.0, 2, ((1, 1),)), bad, Gate("rz", 0.4, 2), later)
    with pytest.raises(ValueError, match=rf"^gate {re.escape(str(bad))} references qubit outside register$"):
        Circuit(3, gates)
    with pytest.raises(ValueError, match=re.escape(f"gate {later} references")):
        Circuit(3, gates[:2] + gates[3:])
    assert Circuit(3, list(gates[:2] + gates[3:4])).gates == gates[:2] + gates[3:4]


def assert_synthesizes_as_reference(target):
    circuit = synthesize(target)
    gates, global_phase = reference_synthesize(target)
    assert circuit.gates == gates
    assert circuit.global_phase.hex() == global_phase.hex()
    # repr keeps the sign of a zero angle, which == does not see
    assert [repr(g) for g in circuit.gates] == [repr(g) for g in gates]
    return circuit


@pytest.mark.parametrize("n", range(1, 11))
def test_synthesis_matches_reference(n):
    # complex and real states, with exact zeros so that levels miss patterns
    rng = np.random.default_rng(340 + n)
    for real in (False, True):
        for zero_share in (0.0, 0.3):
            amps = rng.standard_normal(2**n) + (0.0 if real else 1j * rng.standard_normal(2**n))
            amps[rng.random(2**n) < zero_share] = 0.0
            if not np.any(amps):
                amps[0] = 1.0
            circuit = assert_synthesizes_as_reference(PureState(amps / np.linalg.norm(amps)))
            assert all(isinstance(e, Multiplexor) for e in circuit.elements)


def sparse_and_structured_states(n):
    """States on which a level's array pass skips patterns or emits nothing,
    complex and real: 70% exact zeros; the whole first half zero, so every
    later level skips half its patterns; basis states and |+...+>, whose
    levels have only zero angles or only one; real states with negative
    entries and zeros written as -0.0, which give -0.0 angles that no
    multiplexor holds, also with -0.0 imaginary parts, which keep them real;
    and, with one imaginary part of 1e-3 making them complex, the same
    entries, whose -0.0 imaginary parts give an arg of -pi, not pi, and
    whose -0.0 zeros an arg taken as 0.0."""
    rng = np.random.default_rng(390 + n)
    size = 2**n
    for real in (False, True):
        amps = rng.standard_normal(size) + (0.0 if real else 1j * rng.standard_normal(size))
        amps[rng.random(size) < 0.7] = 0.0
        amps[rng.integers(size)] = 0.5
        yield amps
        amps = rng.standard_normal(size) + (0.0 if real else 1j * rng.standard_normal(size))
        amps[: size // 2] = 0.0
        yield amps
    for index in sorted({0, 1, size - 1, int(rng.integers(size))}):
        yield np.eye(size)[index]
    yield np.ones(size)
    negative = np.where(rng.random(size) < 0.5, -1.0, 1.0) * (0.1 + rng.random(size))
    negative[3::4] = -0.0
    yield negative
    signed = negative.astype(complex)
    signed.imag[::3] = -0.0
    signed[1::8] = signed[4::8] = complex(-0.0, -0.0)  # pairs with one zero
    yield signed
    signed = signed.copy()
    signed[size - 1] += 1e-3j
    yield signed


@pytest.mark.parametrize("n", range(1, 11))
def test_synthesis_matches_reference_on_sparse_and_structured_states(n):
    # every level's pass against the reference's per-pattern loop, bytes of
    # each angle and of the global phase included
    for amps in sparse_and_structured_states(n):
        circuit = assert_synthesizes_as_reference(PureState(amps / np.linalg.norm(amps)))
        assert all(isinstance(e, Multiplexor) for e in circuit.elements)
    # a basis state needs no multiplexor, and |+...+> one Ry entry per level
    assert synthesize(PureState(np.eye(2**n)[0])).elements == ()
    plus = synthesize(PureState(np.full(2**n, 2 ** (-n / 2))))
    assert [(e.kind, len(e.rows)) for e in plus.elements] == [("ry", 2**t) for t in range(n)]


def reference_levels(gates):
    """The one-entry multiplexors of ``reference_synthesize`` merged into one
    multiplexor per run of one kind and target: the synthesized levels."""
    runs = (list(run) for _, run in itertools.groupby(gates, lambda g: (g.kind, g.target)))
    return tuple(
        Multiplexor(run[0].kind, run[0].target, [g.rows[0] for g in run], [g.angles[0] for g in run]) for run in runs
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_real_states_compile_to_ry_multiplexors_only(n):
    # signed real states with exact zeros, -0.0 entries and -0.0 imaginary
    # parts: Ry multiplexors only, a global phase of +0.0, both fidelities at
    # the sweep's floor, and no more lowered gates than the complex form
    rng = np.random.default_rng(600 + n)
    for zero_share in (0.0, 0.3):
        amps = rng.standard_normal(2**n).astype(complex)
        amps[rng.random(2**n) < zero_share] = 0.0
        amps[rng.random(2**n) < 0.2] = -0.0
        amps.imag[rng.random(2**n) < 0.5] = -0.0
        if not np.any(amps):
            amps[0] = -1.0
        target = PureState(amps / np.linalg.norm(amps))
        circuit = synthesize(target)
        assert circuit.elements and all(isinstance(e, Multiplexor) and e.kind == "ry" for e in circuit.elements)
        assert circuit.global_phase.hex() == "0x0.0p+0"
        lowered = lower(circuit)
        assert verify_preparation(circuit, target, run(circuit)) >= FIDELITY_FLOOR
        assert verify_preparation(lowered, target, run(lowered)) >= FIDELITY_FLOOR
        gates, phase = reference_synthesize(target, real=False)
        assert lowered.gate_count <= lower(Circuit(n, reference_levels(gates), phase)).gate_count


def test_one_tiny_imaginary_part_takes_the_complex_form():
    amps = np.array([0.5, -0.5, 0.5, 0.5], dtype=complex)
    assert [e.kind for e in synthesize(PureState(amps)).elements] == ["ry", "ry"]
    amps[2] += 1e-300j
    target = PureState(amps)
    circuit = assert_synthesizes_as_reference(target)
    assert reference_synthesize(target) == reference_synthesize(target, real=False)
    assert [e.kind for e in circuit.elements] == ["ry", "ry", "rz", "rz"]
    assert verify_preparation(circuit, target, run(circuit)) >= FIDELITY_FLOOR


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_synthesis_matches_reference_on_degenerate_dephasing(p):
    # hw_dephasing at p0 = 0 and 1, where whole Kraus branches are zero
    rho = random_density(np.random.default_rng(350), 8)
    psi = PureState(np.full(16, 0.25, dtype=complex))
    for dilated in (
        mixed_method_double_purification(hw_dephasing(8, p), rho),
        dilate_pure(hw_dephasing(16, p), psi),
    ):
        assert_synthesizes_as_reference(embed_qudits(dilated))


def preparation_targets(n):
    """Complex and real n-qubit states with 0%, 30% and 70% exact zeros, and
    with the qubit-0 = 1 half zero, as qudit padding leaves it; each with
    ``real``, whether its imaginary parts are all zero."""
    rng = np.random.default_rng(370 + n)
    for real in (False, True):
        for zeros in (0.0, 0.3, 0.7, "half"):
            amps = rng.standard_normal(2**n) + (0.0 if real else 1j * rng.standard_normal(2**n))
            if zeros == "half":
                amps[2 ** (n - 1):] = 0.0
            else:
                amps[rng.random(2**n) < zeros] = 0.0
            if not np.any(amps):
                amps[0] = 1.0
            yield real, PureState(amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", range(1, 11))
def test_synthesized_circuit_prepares_every_amplitude(n):
    # entry by entry with the global phase, not only up to a phase
    for _, target in preparation_targets(n):
        prepared = run(synthesize(target)).amplitudes
        assert np.abs(prepared - target.amplitudes).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_synthesized_circuit_holds_ry_and_rz_multiplexors_only(n):
    # a real state's circuit holds Ry multiplexors only
    for real, target in preparation_targets(n):
        for e in synthesize(target).elements:
            assert isinstance(e, Multiplexor) and e.kind in (("ry",) if real else ("ry", "rz"))
            assert len(set(e.rows)) == len(e.rows) and 0.0 not in e.angles


@pytest.mark.parametrize("args, message", [
    (("x", 1, [0], [0.1]), "'x' multiplexor on qubit 1: unknown kind"),
    (("ry", 2, [0, 4], [0.1, 0.2]), "'ry' multiplexor on qubit 2: row 4 outside [0, 4)"),
    # a Phase is no multiplexor kind, whatever its rows and angles
    (("phase", 2, [-1], [0.1]), "'phase' multiplexor on qubit 2: unknown kind"),
    (("ry", 2, [1, 3, 1], [0.1, 0.2, 0.3]), "'ry' multiplexor on qubit 2: row 1 repeated"),
    (("rz", 1, [0, 0], [0.1, 0.2]), "'rz' multiplexor on qubit 1: row 0 repeated"),
    (("rz", 2, [0, 1], [0.1]), "'rz' multiplexor on qubit 2: 2 rows but 1 angles"),
    (("ry", 1, [0, 1], [0.1, math.nan]), "'ry' multiplexor on qubit 1: angle nan not finite"),
    (("phase", 1, [1, 1], [math.inf, 0.2]), "'phase' multiplexor on qubit 1: unknown kind"),
    (("ry", 2, [-1], [0.1]), "'ry' multiplexor on qubit 2: row -1 outside [0, 4)"),
    (("rz", 1, [1, 0], [math.inf, 0.2]), "'rz' multiplexor on qubit 1: angle inf not finite"),
    # a negative target is no qubit, whether or not its rows fit 2^target
    (("ry", -1, [0], [0.1]), "'ry' multiplexor on qubit -1: qubit -1 is negative"),
    (("ry", -2, [], []), "'ry' multiplexor on qubit -2: qubit -2 is negative"),
])
def test_multiplexor_rejects_bad_input_with_its_message(args, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        Multiplexor(*args)


def test_multiplexor_keeps_tuples_and_circuit_checks_its_target():
    element = Multiplexor("rz", 2, np.array([3, 1, 0]), np.array([0.5, -0.5, 1.0]))
    assert element.rows == (3, 1, 0) and element.angles == (0.5, -0.5, 1.0)
    assert all(type(r) is int for r in element.rows) and all(type(a) is float for a in element.angles)
    assert Circuit(3, (element,)) == Circuit(3, [Multiplexor("rz", 2, (3, 1, 0), (0.5, -0.5, 1.0))])
    wide = Multiplexor("ry", 3, [7], [0.2])
    with pytest.raises(ValueError, match=r"^'ry' multiplexor on qubit 3 references qubit outside register$"):
        Circuit(3, (Gate("x", 0.0, 0), wide))


@pytest.mark.parametrize("args, message", [
    (("x", 1, [0.1, 0.2]), "'x' Gray-code walk on qubit 1: unknown kind"),
    (("phase", 0, [0.1]), "'phase' Gray-code walk on qubit 0: unknown kind"),
    (("ry", 2, [0.1, 0.2, 0.3]), "'ry' Gray-code walk on qubit 2: 3 angles, not 2^2"),
    (("rz", 0, []), "'rz' Gray-code walk on qubit 0: 0 angles, not 2^0"),
    (("ry", -1, [0.1]), "'ry' Gray-code walk on qubit -1: qubit -1 is negative"),
    (("rz", 1, [0.1, math.nan]), "'rz' Gray-code walk on qubit 1: angle nan not finite"),
    (("ry", 2, [0.0, -math.inf, 0.1, 0.2]), "'ry' Gray-code walk on qubit 2: angle -inf not finite"),
    (("rz", np.int64(-2), []), "'rz' Gray-code walk on qubit -2: qubit -2 is negative"),
])
def test_gray_walk_rejects_bad_input_with_its_message(args, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        GrayWalk(*args)


@pytest.mark.parametrize("target", [2.0, True, np.float64(1.0)])
def test_walk_and_multiplexor_reject_a_target_that_is_not_an_integer(target):
    # a float or bool target is no qubit, as in check_qubits, and fails at
    # construction, before gates() or pattern_angles() could read it
    problem = f"qubit {target!r} is not an integer"
    for element, message in ((lambda: GrayWalk("ry", target, [0.1] * 4), f"'ry' Gray-code walk on qubit {target}"),
                             (lambda: Multiplexor("rz", target, [0, 1], [0.1, 0.2]), f"'rz' multiplexor on qubit {target}")):
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{message}: {problem}')}$"):
            element()
    walk = GrayWalk("ry", np.int64(2), [0.1] * 4)
    assert walk == GrayWalk("ry", 2, [0.1] * 4) and walk.pattern_angles().tolist() == [0.4, 0.0, 0.0, 0.0]


def test_gray_walk_keeps_a_tuple_and_circuit_checks_its_target():
    walk = GrayWalk("rz", 1, np.array([0.5, 0.0]))
    assert walk.angles == (0.5, 0.0) and all(type(a) is float for a in walk.angles)
    assert Circuit(2, (walk,)) == Circuit(2, [GrayWalk("rz", 1, (0.5, 0.0))])
    wide = GrayWalk("ry", 3, [0.2] * 8)
    with pytest.raises(ValueError, match=r"^'ry' Gray-code walk on qubit 3 references qubit outside register$"):
        Circuit(3, (Gate("x", 0.0, 0), wide))


def _synth_targets():
    """Complex, real and sparse preparations on 1 to 7 qubits, one all-zero
    pair of branches among them, and basis states."""
    rng = np.random.default_rng(3701)
    for n in range(1, 8):
        for real in (False, True):
            amps = rng.standard_normal(2**n) + (0.0 if real else 1j * rng.standard_normal(2**n))
            amps[rng.random(2**n) < 0.4] = 0.0
            amps[-1] += 0.5
            yield PureState(amps / np.linalg.norm(amps))
        yield basis_state(2**n, 2**n - 1)


def test_synth_and_lower_build_what_the_public_constructors_accept():
    # synthesize and lower skip the elements' own checks: every element,
    # rebuilt through its public constructor, must be accepted and equal,
    # with rows ascending, and so must each circuit
    for target in _synth_targets():
        for circuit in (synthesize(target), lower(synthesize(target))):
            for e in circuit.elements:
                if isinstance(e, Multiplexor):
                    assert Multiplexor(e.kind, e.target, e.rows, e.angles) == e
                    assert list(e.rows) == sorted(set(e.rows))
                    assert all(type(r) is int for r in e.rows) and all(type(a) is float for a in e.angles)
                else:
                    assert GrayWalk(e.kind, e.target, e.angles) == e
                    assert all(type(a) is float for a in e.angles)
            assert Circuit(circuit.qubit_count, circuit.elements, circuit.global_phase) == circuit
            assert type(circuit.elements) is tuple


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_synthesize_raises_on_a_non_finite_angle(monkeypatch, value):
    # the one finiteness check per level stands for the multiplexors' own
    monkeypatch.setattr(qsp, "_atan2", lambda y, x: np.full(len(list(y)), value))
    for real in (False, True):
        amps = np.array([0.5, 0.5j if not real else -0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match=rf"^'ry' multiplexor on qubit 0: angle {value} not finite$"):
            synthesize(PureState(amps))


def test_synth_phase_check_stands_for_the_cascade(monkeypatch):
    # a non-finite phase on the last level is caught by that level's rz check,
    # before its half sums reach the Rz cascade, whose multiplexors are not
    # checked again
    atan2 = qsp._atan2
    calls = []

    def phase_is_nan(y, x):
        calls.append(None)
        angles = atan2(y, x)
        return angles if len(calls) < 3 else np.full(angles.shape, math.nan)  # the 3rd call is phi0

    monkeypatch.setattr(qsp, "_atan2", phase_is_nan)
    target = PureState(np.array([0.5, 0.5j, -0.5, 0.5]))
    with pytest.raises(ValueError, match=r"^'rz' multiplexor on qubit 1: angle nan not finite$"):
        synthesize(target)
    assert len(calls) == 4


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_lower_raises_on_a_non_finite_walk_angle_as_the_walk_would(monkeypatch, value):
    # the one finiteness check of a circuit's slot angles names the first
    # walk and angle at fault, in the order the walks are built, with the
    # public constructor's message
    circuit = Circuit(3, (Multiplexor("ry", 1, [0, 1], [0.3, 0.2]), Multiplexor("rz", 2, [1, 2], [0.5, 0.1]),
                          Multiplexor("ry", 0, [0], [0.7])))
    transform = qsp._walsh_hadamard

    def broken(v, targets=None):
        out = transform(v, targets)
        out[5] = value  # slot 1 of the second block: the walk on qubit 1
        return out

    monkeypatch.setattr(qsp, "_walsh_hadamard", broken)
    with pytest.raises(ValueError) as public:
        GrayWalk("ry", 1, [0.25, value / 2])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(public.value))}$"):
        lower(circuit)


def test_lowered_walk_gate_count_counts_without_expanding():
    # lowered preparations, complex and real, with exact zeros, and walks with
    # zero slots: on qubit 0, on qubit 1 with the CX pair that cancels, and with
    # every angle zero
    rng = np.random.default_rng(362)
    circuits = []
    for n in range(1, 9):
        for real in (False, True):
            amps = rng.standard_normal(2**n) + (0.0 if real else 1j * rng.standard_normal(2**n))
            amps[rng.random(2**n) < 0.3] = 0.0
            amps[0] += 0.5
            target = PureState(amps / np.linalg.norm(amps))
            circuits.append(lower(synthesize(target)))
    # -0.0 slot angles are zero angles, with no rotation
    cases = ((0, [0.3]), (0, [0.0]), (1, [0.3, 0.0]), (1, [0.0, 0.3]), (1, [0.3, 0.4]), (2, [0.0] * 4),
             (2, [0.1, 0.0, 0.0, 0.2]), (0, [-0.0]), (1, [0.3, -0.0]), (1, [-0.0, -0.0]),
             (2, [-0.0, 0.1, -0.0, 0.0]))
    hand_built = [GrayWalk(kind, t, angles) for kind in ("ry", "rz") for t, angles in cases]
    circuits.append(Circuit(3, tuple(hand_built)))
    for circuit in circuits:
        count = circuit.gate_count
        assert "gates" not in vars(circuit)  # gates are built on first use only
        assert count == len(circuit.gates)
    assert [w.gate_count for w in hand_built[:11]] == [1, 0, 1, 3, 4, 0, 6, 0, 1, 0, 5]
    assert [w.gate_count for w in hand_built] == [len(w.gates()) for w in hand_built]


def test_gate_count_counts_without_expanding():
    rng = np.random.default_rng(360)
    synthesized = synthesize(random_pure(rng, 32))
    hand_built = Circuit(3, (
        Gate("x", 0.0, 0),
        Multiplexor("ry", 2, [3, 0, 1], [0.1, 0.2, 0.3]),
        Gate("x", 0.0, 1, ((0, 1),)),
        Multiplexor("rz", 1, [1, 0], [0.5, 0.6]),
        Multiplexor("rz", 2, [], []),
        Multiplexor("rz", 0, [0], [0.7]),
    ))
    for circuit in (synthesized, lower(synthesized), hand_built, lower(hand_built)):
        count = circuit.gate_count
        assert "gates" not in vars(circuit)  # gates are built on first use only
        assert count == len(circuit.gates)
    assert hand_built.gates[1:4] == (
        Multiplexor("ry", 2, [3], [0.1]), Multiplexor("ry", 2, [0], [0.2]), Multiplexor("ry", 2, [1], [0.3]),
    )
    assert np.abs(circuit_unitary(lower(hand_built)) - circuit_unitary(hand_built)).max() < 1e-12
    low = lower(synthesized)
    assert all(isinstance(e, GrayWalk) for e in low.elements)
    assert all(isinstance(g, Gate) for g in low.gates)
    assert low.gates is low.gates and synthesized.gates is synthesized.gates


@pytest.mark.parametrize("element", [
    Multiplexor("rz", 2, [], []),
    Multiplexor("ry", 2, [1], [0.0]),
    Multiplexor("rz", 0, [], []),
    Multiplexor("ry", 0, [0], [0.0]),
])
def test_zero_angle_multiplexor_lowers_to_no_gate(element):
    # with every angle zero the Gray-code walk is the identity, so lowering
    # emits none of its CX gates; on qubit 0 it emits no zero-angle rotation
    circuit = Circuit(3, (element,), 0.25)
    assert lower(circuit) == Circuit(3, (), 0.25)
    assert circuit.gate_count == len(circuit.gates) == len(element.rows)
    assert np.array_equal(run(circuit).amplitudes, run(lower(circuit)).amplitudes)
    assert np.array_equal(circuit_unitary(circuit), np.exp(0.25j) * np.eye(8))


def test_lower_reads_no_control_pattern_of_a_synthesized_circuit(monkeypatch):
    # lowering and simulation read a multiplexor's rows, never its gates
    rng = np.random.default_rng(361)
    circuits = [synthesize(random_pure(rng, 2**n)) for n in range(1, 8)]
    expected = [lower(c) for c in circuits]
    monkeypatch.setattr(Circuit, "gates", property(lambda self: pytest.fail("Circuit.gates read")))
    assert [lower(c) for c in circuits] == expected
    for c in circuits:
        run(c)


def test_synthesis_rejects_non_power_of_two_lengths():
    with pytest.raises(ValueError):
        synthesize(PureState(np.array([0.6, 0.6, np.sqrt(1 - 0.72)])))


def test_dump_circuit_format():
    circuit = synthesize(PureState(np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)))
    text = dump_circuit(circuit)
    lines = text.strip().splitlines()
    assert lines[0] == "qubits 2"
    assert lines[1].startswith("phase ")
    assert len(lines) == 2 + len(circuit.gates)
    assert lines[2].startswith("ry ")
    assert lines[3].endswith("c0=1")


def test_qasm_round_trip():
    rng = np.random.default_rng(304)
    target = random_pure(rng, 8)
    lowered = lower(synthesize(target))
    text = qasm_export(lowered)
    head = text.splitlines()
    assert head[0] == "OPENQASM 2.0;"
    assert head[1] == 'include "qelib1.inc";'
    # every qubit is measured last, and the parser skips the measurements
    n = lowered.qubit_count
    assert head[-n:] == [f"measure q[{q}] -> c[{q}];" for q in range(n)]
    parsed = qasm_parse(text)
    assert parsed.qubit_count == lowered.qubit_count
    assert parsed.gates == lowered.gates
    assert verify_preparation(parsed, target, run(parsed)) >= 1 - 1e-10


def test_qasm_angles_keep_full_precision():
    circuit = Circuit(1, (Gate("ry", 2 * np.arctan2(np.sqrt(0.7), np.sqrt(0.3)), 0),))
    text = qasm_export(circuit)
    assert "1.9823131728623846" in text
    assert text.count("measure") == 1


def test_qasm_export_rejects_multi_controlled_gates():
    circuit = Circuit(3, (Multiplexor("ry", 2, [3], [0.5]),))
    with pytest.raises(ValueError, match=r"^'ry' multiplexor on qubit 2 is not elementary; lower the circuit first$"):
        qasm_export(circuit)


def test_full_unitary_includes_tracked_phase():
    # the scalar phase a circuit tracks, such as the last of the Rz cascade, is applied
    circuit = Circuit(1, (), global_phase=0.77)
    out = run(circuit)
    assert abs(out.amplitudes[0] - np.exp(0.77j)) < 1e-12


def test_rotation_stack_builds_each_angle_as_the_closed_forms():
    # a circuit's stack and one angle's matrix must agree to the bit, since
    # the simulator applies the one and the reference kernels' gate_matrix the other
    rng = np.random.default_rng(19)
    angles = [0.0, -0.0, math.pi, -math.pi, 1e-300, *rng.uniform(-20.0, 20.0, 200).tolist()]
    ry, rz = rotation_stack("ry", angles), rotation_stack("rz", angles)
    for a, ry_a, rz_a in zip(angles, ry, rz):
        c, s = math.cos(a / 2.0), math.sin(a / 2.0)
        assert ry_a.tobytes() == np.array([[c, -s], [s, c]], dtype=np.complex128).tobytes()
        assert rz_a.tobytes() == np.diag([np.exp(-1j * a / 2.0), np.exp(1j * a / 2.0)]).tobytes()
        assert gate_matrix(Gate("ry", a, 0)).tobytes() == ry_a.tobytes()
        assert gate_matrix(Gate("rz", a, 0)).tobytes() == rz_a.tobytes()
    assert rotation_stack("ry", []).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="no rotation stack for gate kind 'phase'"):
        rotation_stack("phase", [0.1])


# ---------------------------------------------------------------------------
# One batched Walsh-Hadamard pass per circuit, and the lowering check of each
# mode.


def test_lowering_ragged_walsh_hadamard_matches_reference_block_by_block():
    # blocks of 2^0..2^10 entries, sizes repeated and missing, some entries
    # 0.0 and -0.0: one pass over all of them gives each block's bytes of the
    # reference loop over that block alone, and leaves its input as it was
    rng = np.random.default_rng(900)
    for _ in range(12):
        targets = sorted(rng.integers(0, 11, int(rng.integers(1, 9))).tolist(), reverse=True)
        blocks = [rng.uniform(-np.pi, np.pi, 2**t) for t in targets]
        for block in blocks:
            block[rng.random(block.size) < 0.2] = 0.0
            block[rng.random(block.size) < 0.1] = -0.0
        flat = np.concatenate(blocks)
        before = flat.tobytes()
        out = _walsh_hadamard(flat, targets)
        assert flat.tobytes() == before
        starts = np.cumsum([0] + [2**t for t in targets])
        for block, start, end in zip(blocks, starts, starts[1:]):
            assert out[start:end].tobytes() == reference_walsh_hadamard(block).tobytes()
    for targets, size in (([1, 2], 6), ([2, 1], 4), ([3], 4)):
        with pytest.raises(ValueError, match="do not tile"):
            _walsh_hadamard(np.zeros(size), targets)


def _reference_pattern_angles(walk):
    # slot j's angle at its CX mask f_j, the running XOR of the CX control
    # bits of the walk's plan, then the reference loop's transform
    t = walk.target
    bits = [1 << (t - 1 - c) for c in qsp._gray_plan(t)[1]] if t else [0]
    masks = np.bitwise_xor.accumulate([0, *bits])[:-1]
    slots = np.zeros(2**t)
    slots[masks] = walk.angles
    return reference_walsh_hadamard(slots)


def test_lowered_walks_carry_one_walk_pattern_angles():
    # every walk of a few lowered preparations holds the pattern angles of
    # lower's one inverse pass: byte for byte the one-walk pass of the same
    # walk rebuilt through its constructor, and the reference loop's
    # transform of its slot angles at their masks, read-only; the walk is
    # equal to, and hashes as, the rebuilt walk, whose angles are computed
    # on first use.  Random walks, one with every angle 0.0, are built here
    rng = np.random.default_rng(910)
    lowered = []
    for n in (1, 3, 6, 9):
        lowered += lower(synthesize(random_pure(rng, 2**n))).elements
    assert lowered and all("_pattern_angles" in vars(walk) for walk in lowered)
    hand_built = []
    for t in rng.integers(0, 8, 10).tolist():
        angles = rng.uniform(-np.pi, np.pi, 2**t)
        angles[rng.random(2**t) < 0.3] = 0.0
        hand_built.append(GrayWalk(str(rng.choice(["ry", "rz"])), t, angles))
    hand_built.append(GrayWalk("rz", 3, [0.0] * 8))
    for walk in lowered + hand_built:
        rebuilt = GrayWalk(walk.kind, walk.target, walk.angles)
        assert "_pattern_angles" not in vars(rebuilt)
        angles = walk.pattern_angles()
        assert angles.tobytes() == rebuilt.pattern_angles().tobytes() == _reference_pattern_angles(walk).tobytes()
        assert not angles.flags.writeable and walk.pattern_angles() is angles
        assert walk == rebuilt and hash(walk) == hash(rebuilt)


def test_lower_makes_the_pattern_angles_that_runs_read(monkeypatch):
    # lower makes one forward and one inverse pass of the transform; a run
    # or run_branches of its circuit makes none, and a walk built by hand
    # makes its one-walk pass once, however often it runs
    calls = []
    transform = qsp._walsh_hadamard
    monkeypatch.setattr(qsp, "_walsh_hadamard", lambda *args: calls.append(args) or transform(*args))
    synthesized = synthesize(random_pure(np.random.default_rng(912), 2**5))
    assert calls == []
    low = lower(synthesized)
    assert len(calls) == 2
    calls.clear()
    run(low)
    run_branches(low, settings_for(2).layers)
    assert calls == []
    hand_built = Circuit(3, (GrayWalk("ry", 2, [0.1, 0.0, 0.3, 0.4]), GrayWalk("rz", 1, [0.2, 0.5])))
    for _ in range(3):
        run(hand_built)
        run_branches(hand_built, settings_for(1).layers)
    assert len(calls) == 2  # one per walk


_QAD_POINT = {"channel": {"name": "qutrit_amplitude_damping", "params": {}},
              "sweep": {"parameter": "gamma", "grid": [0.4]}, "seed": 7}


def _last_walk(low):
    return max(i for i, e in enumerate(low.elements) if isinstance(e, GrayWalk) and e.target >= 2)


def _perturbed(low):
    i = _last_walk(low)
    walk = low.elements[i]
    elements = list(low.elements)
    elements[i] = GrayWalk(walk.kind, walk.target, (walk.angles[0] + 1e-3,) + walk.angles[1:])
    return Circuit(low.qubit_count, tuple(elements), low.global_phase)


# each a corrupted lowering
_BAD_LOWERINGS = {
    "perturbed walk": _perturbed,
    "extra element": lambda low: Circuit(low.qubit_count, low.elements + (Gate("ry", 0.5, 0),), low.global_phase),
    "missing element": lambda low: Circuit(low.qubit_count, low.elements[:_last_walk(low)]
                                           + low.elements[_last_walk(low) + 1:], low.global_phase),
    "global phase": lambda low: Circuit(low.qubit_count, low.elements, low.global_phase + 0.25),
}


@pytest.mark.parametrize("fault", sorted(_BAD_LOWERINGS))
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_point_fails_on_a_bad_lowering_before_any_measurement(mode, fault, monkeypatch):
    # both modes run the lowered circuit only, and its last row's fidelity
    # covers synthesis and lowering; only when it fails is the synthesized
    # circuit run, and it passes, so the error names the lowering.  A global
    # phase changes no fidelity, no Born probability and no reduced state,
    # so neither mode can see it, and the point runs
    monkeypatch.setattr(cli, "lower", lambda circuit: _BAD_LOWERINGS[fault](lower(circuit)))
    cfg = cli.parse_config(dict(_QAD_POINT, mode=mode, shots=64))
    if fault == "global phase":
        [row] = cli.run_experiment(cfg)
        assert not row.error
        assert mode == "sampled" or abs(row.c_measured - row.c_theory) <= 1e-12
        return
    measured, runs = [], []
    simulate = cli.run
    monkeypatch.setattr(cli, "run", lambda circuit: runs.append(circuit) or simulate(circuit))
    monkeypatch.setattr(cli, "sample", lambda *args: measured.append(args))
    monkeypatch.setattr(cli, "partial_trace", lambda *args, **kwargs: measured.append(args))
    [row] = cli.run_experiment(cfg)
    assert row.error.startswith("lowered fidelity 0."), row.error
    assert np.isnan(row.c_measured)
    assert measured == [] and len(runs) == 1
    assert not any(isinstance(e, GrayWalk) for e in runs[0].elements)


def test_each_compile_mode_runs_only_the_synthesized_or_the_lowered_circuit(monkeypatch):
    # both modes: one run_branches call of the lowered circuit per part, no
    # settings in exact mode, and no run of the synthesized one when its
    # check passes; exact mode's one row is the lowered circuit's run
    runs, branches = [], []
    branch = cli.run_branches
    monkeypatch.setattr(cli, "run", lambda circuit: runs.append(circuit))
    monkeypatch.setattr(cli, "run_branches", lambda *args: branches.append(args) or branch(*args))
    mixed = dict(_QAD_POINT, initial_state={"density_matrix": [[0.5, 0, 0], [0, 0.3, 0], [0, 0, 0.2]]},
                 mixed_method=2)
    for cfg, parts in ((dict(_QAD_POINT, mode="exact"), 1), (dict(mixed, mode="exact"), 3),
                       (dict(_QAD_POINT, mode="sampled", shots=64), 1), (dict(mixed, mode="sampled", shots=64), 3)):
        branches.clear()
        [row] = cli.run_experiment(cli.parse_config(cfg))
        assert not row.error
        assert runs == [] and len(branches) == parts
        assert all(isinstance(e, (GrayWalk, Gate)) for c, _ in branches for e in c.elements)
        if cfg["mode"] == "exact":
            assert all(layers == () for _, layers in branches)
    # the one row of a no-settings call is the lowered circuit's run, byte for byte
    low = lower(synthesize(random_pure(np.random.default_rng(940), 2**5)))
    [row] = branch(low, ())
    assert row.tobytes() == run(low).amplitudes.tobytes()


def test_synth_exits_2_on_a_bad_lowering(monkeypatch, capsys):
    monkeypatch.setattr(cli, "lower", lambda circuit: _perturbed(lower(circuit)))
    assert cli.main(["synth", "--amplitudes", "[0.5,[0,0.5],-0.5,0.3,0.3,[0.1,0.1],0.1,0.2]", "--lower"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure: lowered fidelity 0.99"), err
