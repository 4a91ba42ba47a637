"""Shared random-object generators and reference implementations for the test suite."""

import itertools
import math
import re

import numpy as np

from kraussim.channels import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    KrausChannel,
    WignerBoost,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    generalized_amplitude_damping,
    heisenberg_weyl,
    hw_dephasing,
    pauli_channel,
    phase_damping,
    phase_flip,
    qutrit_amplitude_damping,
    spin_boost_channel,
    wigner_channel,
)
import kraussim.simulator as simulator
from kraussim.dilation import RANK_TOL, eigenvector_dilations
from kraussim.numerics import DensityMatrix, PureState, check_register, kron, partial_trace
from kraussim.qsp import Circuit, Gate, Multiplexor, _magnitude_pyramid, _qubit_count_for, rotation_stack
from kraussim.simulator import ShotCounts
from kraussim.tomography import _pauli_strings

PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def random_pure(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim, rank=None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


# Smallest eigenvalues about VALIDATION_TOL = 1e-10: past it, either side of
# it by 1e-12, inside it, and zero.  A density-matrix producer that checks its
# result on a floor must accept and reject these as the constructor does.
EIGEN_LEVELS = (-2e-10, -1e-10 - 1e-12, -1e-10 + 1e-12, -5e-11, 0.0)


def with_spectrum(rng, eigenvalues):
    """A random Hermitian matrix with the given eigenvalues."""
    u = random_unitary(rng, len(eigenvalues))
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def decision(build):
    """``"accepted"``, or the ValueError message with which ``build()`` rejects."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return "accepted"


def count_eigvalsh(monkeypatch):
    """Count the calls of ``np.linalg.eigvalsh`` from now on, in a list."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_boost(rng):
    return WignerBoost(
        rapidity=rng.uniform(0.1, 3.0),
        boost_direction=random_unit_vector(rng),
        momentum_rapidity=rng.uniform(0.1, 3.0),
        momentum_directions=(random_unit_vector(rng),),
    )


def prune(channel, tol=0.0):
    """The channel without its Kraus operators whose max-abs entry is <= tol."""
    kept = tuple(op for op in channel.kraus_ops if np.max(np.abs(op)) > tol)
    if not kept:
        raise ValueError("pruning removed every Kraus operator")
    return KrausChannel(kept, label=channel.label, params=dict(channel.params))


def born(state):
    """Born probabilities |amplitudes|^2 of a pure state, a row of ``sample``'s input."""
    return np.abs(state.amplitudes) ** 2


def count_row(qubit_count, by_bitstring):
    """A one-row ``(1, 2**qubit_count)`` count matrix from a ``{bitstring: count}``
    mapping; absent outcomes count 0."""
    counts = np.zeros((1, 2**qubit_count), dtype=np.int64)
    for key, count in by_bitstring.items():
        assert len(key) == qubit_count and set(key) <= {"0", "1"}, key
        counts[0, int(key, 2)] = count
    return counts


def histogram(counts):
    """Nonzero entries of a count vector keyed by bitstring, in ascending outcome order."""
    n = counts.size.bit_length() - 1
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c}


def bloch_parameters(rho):
    """Bloch parameters ``(r, theta, phi)`` of a qubit density matrix: ``r`` the
    Bloch vector length, ``theta``/``phi`` its direction, so that its
    eigenvalues are (1 + r)/2 and (1 - r)/2; all 0.0 at the maximally mixed
    state, and ``phi`` 0.0 at the poles."""
    m = rho.matrix
    z = float((m[0, 0] - m[1, 1]).real)
    off = 2.0 * m[0, 1]
    r = math.sqrt(z * z + abs(off) ** 2)
    if r <= RANK_TOL:
        return 0.0, 0.0, 0.0
    theta = math.acos(max(-1.0, min(1.0, z / r)))
    if math.sin(theta) < 1e-12:
        return r, theta, 0.0  # azimuth undefined at the poles
    # rho_01 = (r sin(theta) / 2) e^{-i phi}, so atan2 keeps full precision
    # where acos of a near-1 ratio would not
    return r, theta, math.atan2(-off.imag, off.real) % (2.0 * math.pi)


def random_prob_vector(rng, n):
    p = rng.uniform(0.0, 1.0, n)
    return p / p.sum()


# (label, random-draw factory, system dim) for every catalog constructor
CATALOG_DRAWS = (
    ("pauli", lambda rng: pauli_channel(*random_prob_vector(rng, 4)), 2),
    ("bit_flip", lambda rng: bit_flip(rng.uniform(0, 1)), 2),
    ("phase_flip", lambda rng: phase_flip(rng.uniform(0, 1)), 2),
    ("bit_phase_flip", lambda rng: bit_phase_flip(rng.uniform(0, 1)), 2),
    ("depolarizing", lambda rng: depolarizing(rng.uniform(0, 1)), 2),
    ("phase_damping", lambda rng: phase_damping(rng.uniform(0, 1)), 2),
    (
        "generalized_amplitude_damping",
        lambda rng: generalized_amplitude_damping(rng.uniform(0, 1), rng.uniform(0, 1)),
        2,
    ),
    ("hw_dephasing", lambda rng: hw_dephasing(3, rng.uniform(0, 1)), 3),
    (
        "heisenberg_weyl",
        lambda rng: heisenberg_weyl(3, random_prob_vector(rng, 9).reshape(3, 3)),
        3,
    ),
    ("qutrit_amplitude_damping", lambda rng: qutrit_amplitude_damping(rng.uniform(0, 1)), 3),
    ("wigner", lambda rng: wigner_channel(random_boost(rng)), 2),
    ("spin_boost", lambda rng: spin_boost_channel(rng.uniform(0, np.pi)), 2),
)

QUBIT_CHANNEL_DRAWS = tuple(t for t in CATALOG_DRAWS if t[2] == 2)


def random_kraus_channel(rng, dim, n_ops):
    """Generic CPTP channel from the first block column of a random unitary."""
    u = random_unitary(rng, dim * n_ops)
    ops = tuple(u[i * dim : (i + 1) * dim, :dim] for i in range(n_ops))
    return KrausChannel(ops, label="random")


def row_controls(target, row):
    """The (qubit, bit) controls of a multiplexor row on ``target``: the bits of
    ``row`` written out over qubits 0..target-1, qubit 0 the most significant."""
    bits = format(row, "b").zfill(target) if target else ""
    return tuple((q, int(b)) for q, b in enumerate(bits))


def gate_matrix(gate):
    """The 2x2 primitive of a bare gate on its target: X, or its Ry or Rz as
    ``rotation_stack`` builds it."""
    if gate.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    return rotation_stack(gate.kind, (gate.angle,))[0]


def gate_parts(gate):
    """An entry of ``Circuit.gates`` as (its bare gate, its controls): a Gate
    without its CX control, or a one-entry Multiplexor's rotation on its row."""
    if isinstance(gate, Multiplexor):
        (row,), (angle,) = gate.rows, gate.angles
        return Gate(gate.kind, angle, gate.target), row_controls(gate.target, row)
    return Gate(gate.kind, gate.angle, gate.target), gate.controls


def circuit_unitary(circuit):
    """Dense unitary of a small circuit (column k = action on |k>): one
    ``simulator._apply_elements`` pass over the identity's columns, under the
    simulator's register limit.

    Whether column k has the bits of ``run`` of X gates preparing |k> and
    then the circuit depends on the elements.  Measured with numpy 2.4 and
    OpenBLAS (``SkylakeX`` kernel) on an AVX-512 x86-64 CPU: for synthesized
    and for lowered preparations of 1 to 7 qubits, every column (2540 of 2540
    each) matched byte for byte, and so did every column of elementary gates
    (620 of 620 per kind) appended on 2 to 6 qubits; with gates appended on
    1 qubit, and with four random Ry or Rz walks appended (340 and 396 of 620
    columns differed on 2 to 6 qubits) or four random Ry or Rz multiplexors
    (255 and 524 of 620), columns match ``run`` to rounding only."""
    n = circuit.qubit_count
    check_register(n, "dense unitary")
    cols = np.eye(2**n, dtype=np.complex128)
    simulator._apply_elements(cols, circuit.elements, n)
    return cols * np.exp(1j * circuit.global_phase)


_QASM_GATE = re.compile(r"^(?P<name>ry|rz)\((?P<angle>[^)]+)\)\s+q\[(?P<t>\d+)\];$")
_QASM_X = re.compile(r"^x\s+q\[(?P<t>\d+)\];$")
_QASM_CX = re.compile(r"^cx\s+q\[(?P<c>\d+)\],\s*q\[(?P<t>\d+)\];$")
_QASM_QREG = re.compile(r"^qreg\s+\w+\[(?P<n>\d+)\];$")


def qasm_parse(text):
    """Read back the subset ``qasm_export`` emits as a circuit of gates.

    Measurement and classical-register lines are ignored; the global
    phase is zero by construction."""
    n = None
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "creg", "measure", "barrier", "//")):
            continue
        m = _QASM_QREG.match(line)
        if m:
            n = int(m.group("n"))
            continue
        m = _QASM_GATE.match(line)
        if m:
            gates.append(Gate(m.group("name"), float(m.group("angle")), int(m.group("t"))))
            continue
        m = _QASM_X.match(line)
        if m:
            gates.append(Gate("x", 0.0, int(m.group("t"))))
            continue
        m = _QASM_CX.match(line)
        if m:
            gates.append(Gate("x", 0.0, int(m.group("t")), ((int(m.group("c")), 1),)))
            continue
        raise ValueError(f"unsupported QASM line: {line!r}")
    if n is None:
        raise ValueError("missing qreg declaration")
    return Circuit(n, tuple(gates), 0.0)


def dense_gate(gate, n):
    """Brute-force matrix of one entry of ``Circuit.gates``, built per basis state."""
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    bare, controls = gate_parts(gate)
    g = gate_matrix(bare)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        if all(bits[q] == b for q, b in controls):
            t = bits[gate.target]
            for out_bit in (0, 1):
                row = col if out_bit == t else col ^ (1 << (n - 1 - gate.target))
                m[row, col] += g[out_bit, t]
        else:
            m[col, col] = 1.0
    return m


# Reference implementations: the per-outcome, per-string and per-gate loops
# that the array code in ``qsp``, ``simulator`` and ``tomography`` replaced.
# The array code must reproduce them exactly, bit for bit.


def reference_walsh_hadamard(v):
    """Unnormalized Walsh-Hadamard transform, one block of each stage at a time."""
    out = v.astype(float).copy()
    h = 1
    while h < out.size:
        for i in range(0, out.size, 2 * h):
            a = out[i : i + h].copy()
            b = out[i + h : i + 2 * h].copy()
            out[i : i + h] = a + b
            out[i + h : i + 2 * h] = a - b
        h *= 2
    return out


def _reference_multiplexed(kind, target, control_qubits, angles):
    """Gray-code multiplexor: one new rotation and one new CX ``Gate`` per slot,
    then a pass that drops a CX equal (``==``) to the gate before it; no gate
    at all when every slot's rotation angle is zero."""
    k = len(control_qubits)
    if k == 0:
        return [Gate(kind, float(angles[0]), target)] if angles[0] != 0.0 else []
    size = 2**k
    gray = [j ^ (j >> 1) for j in range(size)]
    wht = reference_walsh_hadamard(np.asarray(angles, dtype=float))
    if all(wht[gray[j]] / size == 0.0 for j in range(size)):
        return []
    raw = []
    for j in range(size):
        beta = wht[gray[j]] / size
        if beta != 0.0:
            raw.append(Gate(kind, float(beta), target))
        pos = (gray[j] ^ gray[(j + 1) % size]).bit_length() - 1  # from the LSB
        raw.append(Gate("x", 0.0, target, ((control_qubits[k - 1 - pos], 1),)))
    out = []
    for g in raw:
        if out and g.kind == "x" and g.controls and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return out


def _gate_index(gate, controls, n, target=slice(None)):
    """Index into an n-qubit register tensor of shape ``(2,) * n``: each
    control axis fixed at its activation bit, ``target`` at the gate's target
    axis, every other axis whole.  Trailing axes beyond the n qubits are kept
    whole."""
    idx = [slice(None)] * n
    for q, b in controls:
        idx[q] = b
    idx[gate.target] = target
    return tuple(idx)


def reference_lower(circuit):
    """``qsp.lower`` with every rotation's pattern read from the control bits
    of its ``Circuit.gates`` entry, most significant first."""
    n = circuit.qubit_count
    out = []
    for e in circuit.elements:
        if isinstance(e, Gate):
            out.append(e)
            continue
        angles = np.zeros(2**e.target)
        for g in Circuit(n, (e,)).gates:
            bare, controls = gate_parts(g)
            pattern = 0
            for _, bit in controls:
                pattern = (pattern << 1) | bit
            angles[pattern] += bare.angle
        out.extend(_reference_multiplexed(e.kind, e.target, tuple(range(e.target)), angles))
    return Circuit(n, tuple(out), circuit.global_phase)


def reference_synthesize(target, real=None):
    """``qsp.synthesize`` as one one-entry ``Multiplexor`` per pattern and
    cascade row: one pass over the magnitude pyramid, most significant qubit
    first.  Returns the gates, which ``Circuit.gates`` of the synthesized
    circuit must equal, and the global phase.

    ``real`` picks the form; by default it is the one ``synthesize`` picks,
    real when every amplitude's imaginary part is zero, -0.0 included.
    ``real=False`` gives the complex form of any input.

    Level k targets qubit k-1 with one multi-controlled ``Rz(phi) Ry(theta)``
    per (k-1)-bit pattern whose parent magnitude is nonzero; a level emits its
    Ry gates, then its Rz gates, each in pattern order.  The last level's
    scalars w_p = t/2, with w_p of a skipped pattern its sibling's, then go
    qubit by qubit from n-2 down to 0: row r's controlled Rz(w[2r+1] - w[2r])
    unless the angle is zero, then w[r] = (w[2r] + w[2r+1]) / 2.0 (a row
    present if either half is); the last w is the global phase.
    """
    amps = target.amplitudes
    n = _qubit_count_for(amps.size)
    if real is None:
        real = all(z.imag == 0.0 for z in amps.tolist())
    levels = _magnitude_pyramid(amps, n)
    gates: list[Multiplexor] = []
    w, present = [0.0] * 2 ** (n - 1), [False] * 2 ** (n - 1)
    for k in range(1, n + 1):
        coeff = levels[k - 1]
        ry: list[Multiplexor] = []
        rz: list[Multiplexor] = []
        for pattern in range(2 ** (k - 1)):
            if k >= 2 and levels[k - 2][pattern] == 0.0:
                continue  # zero-amplitude branch: nothing to prepare
            c0, c1 = coeff[2 * pattern], coeff[2 * pattern + 1]
            if k < n or real:
                # magnitude level, or a real last level: signed Ry only
                theta = 2.0 * math.atan2(c1.real, c0.real)
                phi = 0.0
            else:
                theta = 2.0 * math.atan2(abs(c1), abs(c0))
                phi0 = math.atan2(c0.imag, c0.real) if c0 != 0.0 else 0.0
                phi1 = math.atan2(c1.imag, c1.real) if c1 != 0.0 else 0.0
                phi = phi1 - phi0
                w[pattern], present[pattern] = (phi1 + phi0) / 2.0, True
            if theta != 0.0:
                ry.append(Multiplexor("ry", k - 1, (pattern,), (theta,)))
            if phi != 0.0:
                rz.append(Multiplexor("rz", k - 1, (pattern,), (phi,)))
        gates.extend(ry + rz)
    if real:
        return tuple(gates), 0.0
    for q in range(n - 2, -1, -1):
        w = [w[p] if present[p] else w[p ^ 1] for p in range(len(w))]
        for r in range(2**q):
            if w[2 * r + 1] - w[2 * r] != 0.0:
                gates.append(Multiplexor("rz", q, (r,), (w[2 * r + 1] - w[2 * r],)))
        w = [(w[2 * r] + w[2 * r + 1]) / 2.0 for r in range(len(w) // 2)]
        present = [present[2 * r] or present[2 * r + 1] for r in range(len(present) // 2)]
    return tuple(gates), w[0]


def stub_gate_kernels(monkeypatch):
    """Replace the simulator's element loop ``_apply_elements``, through which
    ``run`` and :func:`circuit_unitary` apply every gate, and its per-gate
    kernel ``_apply_gate``, through which ``run_branches`` applies its layers'
    gates, by stubs that apply nothing and record each call; returns the list
    of calls, so a test can assert that no gate was applied."""
    calls = []
    monkeypatch.setattr(simulator, "_apply_elements", lambda *args: calls.append(args))
    monkeypatch.setattr(simulator, "_apply_gate", lambda *args: calls.append(args))
    return calls


def reference_run(circuit):
    """Statevector run from |0...0> with every gate, of every kind, applied
    as a 2x2 matmul along the target axis of its control-selected slice."""
    n = circuit.qubit_count
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
        bare, controls = gate_parts(gate)
        sub = state.reshape((2,) * n)[_gate_index(gate, controls, n)]
        axis = gate.target - sum(1 for q, _ in controls if q < gate.target)
        sub = np.moveaxis(sub, axis, -1)
        sub[...] = sub @ gate_matrix(bare).T
    if circuit.global_phase != 0.0:
        state *= np.exp(1j * circuit.global_phase)
    return PureState(state)


def reference_apply_gate(amps, gate, n):
    """The slice kernels on the ``(2,) * n`` view, for a ``(2**n,)`` state or a
    ``(2**n, k)`` batch, given an entry of ``Circuit.gates``: Ry as a matmul
    along the target axis of the control-selected slice, X swapping and Rz
    scaling the two target slices."""
    view = amps.reshape((2,) * n + amps.shape[1:])
    bare, controls = gate_parts(gate)
    if gate.kind == "ry":
        sub = view[_gate_index(gate, controls, n)]
        # integer indexing collapsed the control axes; recompute target position
        axis = gate.target - sum(1 for q, _ in controls if q < gate.target)
        sub = np.moveaxis(sub, axis, -1)
        sub[...] = sub @ gate_matrix(bare).T
        return
    lo, hi = _gate_index(gate, controls, n, 0), _gate_index(gate, controls, n, 1)
    if gate.kind == "x":
        low = view[lo].copy()
        view[lo] = view[hi]
        view[hi] = low
    else:
        diag = gate_matrix(bare).diagonal()
        view[lo] *= diag[0]
        view[hi] *= diag[1]


def seed_sequence_rng(seed, path):
    """The stream ``simulator.derive_rng(seed, *path)`` must equal: Philox keyed
    by numpy's own ``SeedSequence(seed, spawn_key=path)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path))))


def same_stream(a, b, draws=8):
    """Whether two generators hold the same Philox state, key and counter
    included, and then give the same first ``draws`` 64-bit draws."""
    sa, sb = a.bit_generator.state, b.bit_generator.state
    fields = [(sa[k], sb[k]) for k in sa if k != "state"] + [(v, sb["state"][k]) for k, v in sa["state"].items()]
    if sa.keys() != sb.keys() or not all(np.array_equal(x, y) for x, y in fields):
        return False
    return a.integers(0, 2**64, draws, dtype=np.uint64).tobytes() == b.integers(0, 2**64, draws, dtype=np.uint64).tobytes()


def one_key(seed, *path):
    """The ``(1, 2)`` key matrix of the one stream ``simulator.derive_rng(seed, *path)``,
    as ``sample`` takes it."""
    return simulator.derive_keys(seed, path, np.zeros((1, 0), dtype=int))


def reference_readout_noise(counts, model, keys):
    """Per-shot readout flips of a ``(k, 2^m)`` count matrix by binomial thinning,
    row s drawn from a fresh generator on the stream that ``keys[s]`` keys.
    ``sample`` of some probabilities followed by this has the distribution of
    ``sample`` of ``apply_readout_noise`` of them.

    Each row is thinned one qubit at a time, qubit 0 first, with one
    binomial draw per qubit over the ``(2^q, 2, rest)`` view of the row:
    of the shots of each outcome, as many flip bit q as a binomial draw
    with that qubit's e0 (bit 0) or e1 (bit 1) gives, and they move to the
    outcome with bit q flipped.  The passes before q changed only the bits
    of qubits before q, so each pass reads the true bit and the result has
    the distribution of independent per-shot flips."""
    noisy = simulator._check_counts(counts, "readout noise").astype(np.int64)
    assert len(keys) == len(noisy), "one key per row"
    n = noisy.shape[1].bit_length() - 1
    # qubit q's P(read 1 - b | true b) for b = 0, 1, its e0 and e1 as a column
    rates = np.ascontiguousarray(model.confusion(n)[:, [1, 0], [0, 1], None])
    for row, key in zip(noisy, keys):
        rng = np.random.Generator(np.random.Philox(simulator._philox_key_type()(key)))
        for q in range(n):
            view = row.reshape(2**q, 2, -1)
            flips = rng.binomial(view, rates[q])
            view += flips[:, ::-1] - flips
    return noisy


def reference_mitigate(counts, model):
    """String-keyed confusion-matrix inversion of one count vector:
    {bitstring: frequency > 0}."""
    n = counts.size.bit_length() - 1
    shots = int(counts.sum())
    # built here, not by ReadoutModel.confusion, so the batched inverse in
    # ``mitigate`` is checked against per-qubit inverses made independently
    e0, e1 = np.broadcast_to(model.e0, n), np.broadcast_to(model.e1, n)
    freq = np.zeros(2**n)
    for key, count in histogram(counts).items():
        freq[int(key, 2)] = count / shots
    tensor = freq.reshape([2] * n)
    for q in range(n):
        det = 1.0 - e0[q] - e1[q]
        if abs(det) < 1e-12:
            raise ValueError(f"confusion matrix for qubit {q} is singular (e0 + e1 = 1)")
        conf = np.array([[1.0 - e0[q], e1[q]], [e0[q], 1.0 - e1[q]]])
        inv = np.linalg.inv(conf)
        tensor = np.moveaxis(np.tensordot(inv, tensor, axes=([1], [q])), 0, q)
    quasi = tensor.reshape(-1)
    clipped = np.clip(quasi, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigation clipped all probability mass")
    probs = clipped / total
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if p > 0.0}


def _reference_weights(data):
    if isinstance(data, ShotCounts):  # one setting's row
        [row] = data.counts
        return {k: v / data.shots for k, v in histogram(row).items()}, data.shots
    total = float(sum(data.values()))
    if total <= 0.0:
        raise ValueError("setting has no probability mass")
    return {k: v / total for k, v in data.items()}, None


def reference_expectations(per_setting, shots_per_setting=None):
    """Pauli expectations by looping over strings, settings and bitstrings.

    ``per_setting`` maps each setting to one-row ``ShotCounts`` or to a
    ``{bitstring: weight}`` mapping over the measured qubits, one bit per
    setting position.
    """
    n = len(next(iter(per_setting)))
    wanted = list(itertools.product("XYZ", repeat=n))
    normalized = {s: _reference_weights(per_setting[s]) for s in wanted}
    values = {}
    errors = {}
    for letters in itertools.product("IXYZ", repeat=n):
        name = "".join(letters)
        if set(letters) == {"I"}:
            values[name] = 1.0
            errors[name] = 0.0
            continue
        active = [i for i, c in enumerate(letters) if c != "I"]
        compatible = [s for s in normalized if all(s[i] == letters[i] for i in active)]
        estimates = []
        variances = []
        for s in compatible:
            freqs, shots = normalized[s]
            if shots is None:
                shots = shots_per_setting
            m = 0.0
            for bitstring, w in freqs.items():
                parity = sum(int(bitstring[i]) for i in active) % 2
                m += w * (1.0 - 2.0 * parity)
            estimates.append(m)
            variances.append(max(0.0, 1.0 - m * m) / shots if shots else None)
        values[name] = float(np.mean(estimates))
        if any(v is None for v in variances):
            errors[name] = None
        else:
            errors[name] = float(math.sqrt(sum(variances)) / len(variances))
    return values, errors


def reference_expectations_by_string(weights, shots=None):
    """``expectations`` one Pauli string at a time: each string's value is
    ``np.mean`` of its compatible settings' estimates gathered into one
    vector, and its error a Python ``sum`` of their variances."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[1].bit_length() - 1
    weights = weights / np.cumsum(weights, axis=1)[:, -1:]
    shots = None if shots is None else np.broadcast_to(np.asarray(shots, np.float64), 3**n)
    # letter codes X, Y, Z = 1, 2, 3 of every setting, and the bits of every outcome
    settings = np.array(list(itertools.product((1, 2, 3), repeat=n)))
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    values, errors = np.ones(4**n), np.zeros(4**n)
    for k, letters in enumerate(itertools.product(range(4), repeat=n)):
        active = [i for i, c in enumerate(letters) if c]
        if not active:
            continue
        wanted = np.array(letters)[active]
        compatible = np.flatnonzero((settings[:, active] == wanted).all(axis=1))
        signs = 1.0 - 2.0 * (bits[:, active].sum(axis=1) % 2)
        # each estimate a sequential sum in ascending outcome order
        estimates = np.cumsum(weights[compatible] * signs, axis=1)[:, -1]
        values[k] = np.mean(estimates)
        if shots is not None:
            variances = np.maximum(0.0, 1.0 - estimates * estimates) / shots[compatible]
            errors[k] = math.sqrt(sum(variances.tolist())) / compatible.size
    return values, None if shots is None else errors


def exact_expectations(rho):
    """Noise-free <P> = Tr(rho P) for every Pauli string on a qubit register,
    in the order of ``tomography.expectations``."""
    n = rho.dim.bit_length() - 1
    if 2**n != rho.dim:
        raise ValueError("density matrix is not over a qubit register")
    flips, _, entries = _pauli_strings(n)
    b = np.arange(2**n)
    # Tr(rho P) = sum_b rho[b, b ^ x] P[b ^ x, b]
    return (rho.matrix[b, b ^ flips[:, None]] * entries).sum(axis=1).real.copy()


def reference_reconstruct_raw(values):
    """Linear-inversion matrix summed one Kronecker-product string at a time."""
    n = len(next(iter(values)))
    raw = np.zeros((2**n, 2**n), dtype=np.complex128)
    for letters in itertools.product("IXYZ", repeat=n):
        name = "".join(letters)
        coeff = values[name] if name in values else 1.0
        raw += coeff * kron(*(PAULIS[c] for c in letters))
    raw /= 2**n
    return raw


def mixed_method_convex(channel, rho):
    """Mixed method 2 without circuits: each eigenvector of ``rho`` dilated by
    ``dilation.eigenvector_dilations``, its ancillas traced out densely, and
    the reduced states mixed with the eigenvalue weights."""
    out = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for weight, dilated in eigenvector_dilations(channel, rho):
        out += weight * partial_trace(dilated.state, dilated.factor_dims, keep=[0]).matrix
    return DensityMatrix(out)


def reference_embed(dilated):
    """Per-amplitude qubit embedding: each nonzero amplitude goes to the index
    spelled by the concatenated ceil(log2 d)-bit labels of its factor levels
    (at least one bit for the system factor, none for a dimension-1 ancilla)."""
    dims = dilated.factor_dims
    bits = [math.ceil(math.log2(d)) for d in dims]
    bits[0] = max(1, bits[0])
    out = np.zeros(2 ** sum(bits), dtype=np.complex128)
    src = dilated.state.amplitudes.reshape(dims)
    for levels in np.ndindex(*dims):
        amp = src[levels]
        if amp != 0.0:
            label = "".join(format(level, f"0{q}b") if q else "" for level, q in zip(levels, bits))
            out[int(label, 2)] = amp
    return PureState(out)
