"""State-preparation circuit synthesis and lowering.

:func:`synthesize` compiles an arbitrary n-qubit amplitude vector into a
circuit built from multi-controlled single-qubit rotations.  The scheme is
recursive over qubits, most significant first:

* levels 1..n-1 prepare the "magnitude pyramid": level k rotates qubit
  k-1 by Ry angles reproducing the prefix magnitudes
  ``r_prefix = sqrt(|c_{prefix 0}|^2 + |c_{prefix 1}|^2)``, one rotation
  per k-1-bit control pattern;
* level n applies, per (n-1)-bit pattern, the unitary
  ``exp(i t/2) Rz(phi) Ry(theta)`` that fixes the last qubit's relative
  magnitude and both branch phases (``theta = 2 atan2(|c1|, |c0|)``,
  ``phi = arg c1 - arg c0``, ``t = arg c1 + arg c0``).

Branch-relative scalar phases are emitted as controlled Phase gates; the
single top-level scalar that remains is tracked on
``Circuit.global_phase`` rather than compiled.  Synthesis is one pass over
the levels: each level emits its Ry gates, then its Rz gates, then its
Phase gates, in control-pattern order, and skips every pattern whose
parent amplitude is exactly zero.

:func:`synthesize_real` is the specialization for real amplitude vectors:
every level reduces to Ry rotations with signed angles
``2 atan2(c1, c0)``.

:func:`lower` rewrites a synthesized circuit over the elementary set
{X, Ry, Rz, Phase, CX}.  Runs of multi-controlled rotations sharing a
target and control set become one multiplexed rotation, decomposed by the
standard Gray-code walk (2^k CX and up to 2^k rotations for k controls);
runs of controlled Phase gates are folded into a diagonal, realized as a
cascade of multiplexed Rz layers plus a global-phase term.

:func:`control_patterns` is the one control-pattern rule.  For k
ascending qubits it builds, once, the 2^k controls tuples in pattern
order, the first qubit the most significant bit, and a dict from each
tuple to its index.  Synthesis emits those tuples.  Lowering finds a
rotation's pattern with one lookup (:func:`pattern_of`; controls in
another order are looked up sorted), and so does the simulator.  A
Phase controlled on exactly the qubits before its target t, pattern r,
acts on one contiguous block of amplitudes (:func:`phase_block`):
lowering adds its angle to that slice of the diagonal, and the simulator
scales that slice of the state.  Each Gray-code
walk reads its indices and transition positions from a plan cached per
k and shares one CX gate per (target, control) pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .numerics import PureState

__all__ = [
    "Gate",
    "Circuit",
    "GATE_KINDS",
    "rotation_stack",
    "phase_factor",
    "control_patterns",
    "pattern_of",
    "phase_block",
    "synthesize",
    "synthesize_real",
    "lower",
    "verify_preparation",
    "gate_counts",
    "dump_circuit",
    "qasm_export",
    "qasm_parse",
]

GATE_KINDS = ("x", "ry", "rz", "phase")

# a gate's (qubit, activation bit) pairs
Controls = tuple[tuple[int, int], ...]


def rotation_stack(kind: str, angles: Sequence[float]) -> np.ndarray:
    """The ``(k, 2, 2)`` matrices of Ry or Rz, ``kind``, for each of k angles.

    The one place their entries are computed: :meth:`Gate.matrix` takes one
    angle's, and the simulator a whole circuit's or level's at once.  Ry
    is ``[[c, -s], [s, c]]`` with c and s the ``math`` cosine and sine of
    half the angle, and Rz ``diag(exp(-ia/2), exp(ia/2))``.
    """
    stack = np.zeros((len(angles), 2, 2), dtype=np.complex128)
    if kind == "ry":
        cos = [math.cos(a / 2.0) for a in angles]
        sin = [math.sin(a / 2.0) for a in angles]
        stack[:, 0, 0] = stack[:, 1, 1] = cos
        stack[:, 0, 1] = np.negative(sin)
        stack[:, 1, 0] = sin
    elif kind == "rz":
        stack.reshape(-1, 4)[:, ::3] = np.exp(
            np.multiply.outer(np.array(angles, dtype=np.float64) / 2.0, [-1j, 1j])
        )
    else:
        raise ValueError(f"no rotation stack for gate kind {kind!r}")
    return stack


def phase_factor(angle: float) -> complex:
    """``exp(i angle)``, the |1> entry of a Phase gate: :meth:`Gate.matrix` and
    every simulator kernel that scales by a Phase take it from here."""
    return np.exp(1j * angle)


@functools.lru_cache(maxsize=256)
def control_patterns(qubits: tuple[int, ...]) -> tuple[tuple[Controls, ...], Mapping[Controls, int]]:
    """The 2^k control patterns on ``qubits``, k ascending qubits, and their indices.

    Returns the controls tuples in pattern order, the first qubit the most
    significant bit (pattern r gives qubit ``qubits[j]`` the bit
    ``(r >> (k-1-j)) & 1``), and a read-only dict from each tuple to its
    pattern index.  Built once per qubit tuple and shared: synthesis emits
    these tuples, and lowering and the simulator look a gate's controls up
    in the dict.
    """
    patterns = tuple(tuple(zip(qubits, bits)) for bits in itertools.product((0, 1), repeat=len(qubits)))
    return patterns, MappingProxyType({controls: r for r, controls in enumerate(patterns)})


def phase_block(n: int, target: int, r: int) -> slice:
    """The amplitudes of an n-qubit register that a Phase on ``target``,
    controlled on exactly the qubits before it with pattern r, multiplies:
    the contiguous block ``[(2r+1) 2^(n-t-1), (2r+2) 2^(n-t-1))``."""
    size = 2 ** (n - 1 - target)
    return slice((2 * r + 1) * size, (2 * r + 2) * size)


def pattern_of(index: Mapping[Controls, int], controls: Controls) -> int | None:
    """The pattern index of ``controls`` in ``index``, the dict of a
    :func:`control_patterns` table, its pairs in any order; None when it
    does not control exactly that table's qubits."""
    row = index.get(controls)
    if row is None and len(controls) > 1:
        row = index.get(tuple(sorted(controls)))
    return row


@dataclass(frozen=True)
class Gate:
    """One gate: a 2x2 primitive on ``target``, optionally controlled.

    ``controls`` lists (qubit, activation bit) pairs, kept as a tuple of
    tuples whatever sequences the caller gave; the primitive acts only on
    basis states whose control bits match.  ``angle`` is ignored for kind
    ``"x"``.
    """

    kind: str
    angle: float
    target: int
    controls: Controls = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        # kept as a tuple of tuples, so that controls can key the dicts of
        # control_patterns; an input that already is one is kept as given
        controls = self.controls
        if type(controls) is not tuple:
            controls = tuple(controls)
        seen = {self.target}
        tuples = True
        for pair in controls:
            q, b = pair
            if q in seen:
                raise ValueError(f"duplicate qubit {q} in gate")
            if b not in (0, 1):
                raise ValueError(f"control bit must be 0 or 1, got {b}")
            seen.add(q)
            tuples = tuples and type(pair) is tuple
        if not tuples or controls is not self.controls:
            object.__setattr__(self, "controls", tuple(map(tuple, controls)))

    def matrix(self) -> np.ndarray:
        """The 2x2 primitive acting on the target qubit."""
        a = self.angle
        if self.kind == "x":
            return np.array([[0, 1], [1, 0]], dtype=np.complex128)
        if self.kind in ("ry", "rz"):
            return rotation_stack(self.kind, (a,))[0]
        return np.diag([1.0, phase_factor(a)]).astype(np.complex128)

    def index(self, n: int, target=slice(None)) -> tuple:
        """Index into an n-qubit register tensor of shape ``(2,) * n``: each
        control axis fixed at its activation bit, ``target`` at the target
        axis, every other axis whole.  Trailing axes beyond the n qubits
        are kept whole."""
        idx: list = [slice(None)] * n
        for q, b in self.controls:
            idx[q] = b
        idx[self.target] = target
        return tuple(idx)

    def is_elementary(self) -> bool:
        """True for the lowered target set: bare X/Ry/Rz/Phase, or CX."""
        if not self.controls:
            return True
        return self.kind == "x" and len(self.controls) == 1 and self.controls[0][1] == 1


@dataclass(frozen=True)
class Circuit:
    """A gate list over ``qubit_count`` qubits plus one tracked scalar phase.

    Gates apply in list order.  ``global_phase`` is the exponent of a
    scalar ``exp(i * global_phase)`` multiplying the final state.
    """

    qubit_count: int
    gates: tuple[Gate, ...]
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("circuit needs at least one qubit")
        gates = tuple(self.gates)
        # one pass over the targets and the distinct controls tuples; the
        # per-gate loop only finds the culprit
        used = {g.target for g in gates}
        used.update(q for controls in {g.controls for g in gates} for q, _ in controls)
        if used and (min(used) < 0 or max(used) >= self.qubit_count):
            for g in gates:
                qubits = [g.target] + [q for q, _ in g.controls]
                if any(q < 0 or q >= self.qubit_count for q in qubits):
                    raise ValueError(f"gate {g} references qubit outside register")
        object.__setattr__(self, "gates", gates)


def _qubit_count_for(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"amplitude vector length {dim} is not a power of two >= 2")
    return n


def _magnitude_pyramid(amps: np.ndarray, n: int) -> list[np.ndarray]:
    """levels[k-1] holds the 2^k prefix magnitudes; levels[n-1] is ``amps``."""
    levels = [np.asarray(amps)]
    for _ in range(n - 1):
        v = levels[0]
        levels.insert(0, np.sqrt(np.abs(v[0::2]) ** 2 + np.abs(v[1::2]) ** 2))
    return levels


def _controlled_scalar_phase(eta: float, controls: Controls) -> tuple[list[Gate], float]:
    """Gates applying exp(i eta) exactly on the control pattern.

    Realized with Phase gates only (all diagonal): a 1-activated control
    becomes the Phase target directly; a 0-activated control contributes
    Phase(-eta) on that qubit plus the same scalar on the remaining
    controls.  With no controls left the scalar is returned as a
    global-phase increment.
    """
    gates: list[Gate] = []
    ctrl = list(controls)
    while ctrl:
        q, b = ctrl.pop()
        if b == 1:
            gates.append(Gate("phase", eta, q, tuple(ctrl)))
            return gates, 0.0
        gates.append(Gate("phase", -eta, q, tuple(ctrl)))
    return gates, eta


def _synthesize(target: PureState, real: bool) -> Circuit:
    """One pass over the magnitude pyramid, most significant qubit first.

    Level k targets qubit k-1 with one multi-controlled
    ``exp(i t/2) Rz(phi) Ry(theta)`` per (k-1)-bit pattern whose parent
    magnitude is nonzero.  A level emits its Ry gates, then its Rz gates,
    then its scalar-phase gates, each in pattern order.
    """
    amps = target.amplitudes
    n = _qubit_count_for(amps.size)
    if real and np.max(np.abs(amps.imag)) > 1e-12:
        raise ValueError("amplitudes have imaginary parts; use synthesize instead")
    levels = _magnitude_pyramid(amps, n)
    gates: list[Gate] = []
    global_phase = 0.0
    for k in range(1, n + 1):
        coeff = levels[k - 1]
        ry: list[Gate] = []
        rz: list[Gate] = []
        ph: list[Gate] = []
        for pattern, controls in enumerate(control_patterns(tuple(range(k - 1)))[0]):
            if k >= 2 and levels[k - 2][pattern] == 0.0:
                continue  # zero-amplitude branch: nothing to prepare
            c0, c1 = coeff[2 * pattern], coeff[2 * pattern + 1]
            if k < n or real:
                # magnitude level, or a real last level: signed Ry only
                theta = 2.0 * math.atan2(c1.real, c0.real)
                phi = scalar = 0.0
            else:
                theta = 2.0 * math.atan2(abs(c1), abs(c0))
                phi0 = math.atan2(c0.imag, c0.real) if c0 != 0.0 else 0.0
                phi1 = math.atan2(c1.imag, c1.real) if c1 != 0.0 else 0.0
                phi = phi1 - phi0
                scalar = phi1 + phi0
            if theta != 0.0:
                ry.append(Gate("ry", theta, k - 1, controls))
            if phi != 0.0:
                rz.append(Gate("rz", phi, k - 1, controls))
            if scalar != 0.0:
                sub, delta = _controlled_scalar_phase(scalar / 2.0, controls)
                ph.extend(sub)
                global_phase += delta
        gates.extend(ry + rz + ph)
    return Circuit(n, tuple(gates), global_phase)


def synthesize(target: PureState) -> Circuit:
    """Compile a state-preparation circuit for an arbitrary amplitude vector."""
    return _synthesize(target, real=False)


def synthesize_real(target: PureState) -> Circuit:
    """Compile a preparation circuit for a real amplitude vector (Ry only)."""
    return _synthesize(target, real=True)


# ---------------------------------------------------------------------------
# Lowering to {X, Ry, Rz, Phase, CX}


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    out = v.astype(float)  # a copy
    h = 1
    while h < out.size:
        # one butterfly stage over every block of 2h entries at once
        pairs = out.reshape(-1, 2, h)
        a, b = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0] = a + b
        pairs[:, 1] = a - b
        h *= 2
    return out


@functools.lru_cache(maxsize=None)
def _gray_plan(k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Gray-code walk over 2^k slots: slot j's Walsh-Hadamard index
    ``gray(j) = j ^ (j >> 1)``, and the position in the control tuple, most
    significant first, of the bit that flips from ``gray(j)`` to
    ``gray(j + 1)``, cyclically."""
    size = 2**k
    gray = [j ^ (j >> 1) for j in range(size)]
    flips = tuple(k - (gray[j] ^ gray[(j + 1) % size]).bit_length() for j in range(size))
    indices = np.array(gray)
    indices.flags.writeable = False
    return indices, flips


@functools.lru_cache(maxsize=None)
def _cx(target: int, control: int) -> Gate:
    """The one CX gate on (target, control) that every multiplexor shares."""
    return Gate("x", 0.0, target, ((control, 1),))


def _lower_multiplexed(
    kind: str, target: int, control_qubits: tuple[int, ...], angles: Sequence[float]
) -> list[Gate]:
    """Gray-code decomposition of a multiplexed Ry/Rz rotation.

    ``angles[x]`` is the rotation applied when the control qubits (pattern
    bit order = tuple order, most significant first) read ``x``.  The
    transformed angles come from a Walsh-Hadamard transform evaluated at
    Gray-code indices; each slot is a rotation followed by a CX on the
    Gray transition bit, so conjugations realize the sign matrix.  A slot
    whose angle is zero emits no rotation, and a CX that would follow the
    same CX cancels it.
    """
    k = len(control_qubits)
    if k == 0:
        return [Gate(kind, float(angles[0]), target)] if angles[0] != 0.0 else []
    gray, flips = _gray_plan(k)
    betas = _walsh_hadamard(np.asarray(angles, dtype=float))[gray] / 2**k
    out: list[Gate] = []
    for beta, flip in zip(betas.tolist(), flips):
        if beta != 0.0:
            out.append(Gate(kind, beta, target))
        cx = _cx(target, control_qubits[flip])
        if out and out[-1] is cx:
            out.pop()
        else:
            out.append(cx)
    return out


def _accumulate_diag(vec: np.ndarray, gate: Gate, n: int) -> None:
    """Add a controlled Phase gate's exponent into a full-register diagonal."""
    vec.reshape((2,) * n)[gate.index(n, 1)] += gate.angle


def _lower_diagonal(vec: np.ndarray, n: int) -> tuple[list[Gate], float]:
    """Decompose diag(exp(i vec)) into multiplexed Rz layers + global phase."""
    t = vec.reshape([2] * n)
    support = [
        q
        for q in range(n)
        if not np.array_equal(np.take(t, 0, axis=q), np.take(t, 1, axis=q))
    ]
    if not support:
        return [], float(vec.flat[0])
    idx = tuple(slice(None) if q in support else 0 for q in range(n))
    v = np.ascontiguousarray(t[idx]).reshape(-1).astype(float)
    gates: list[Gate] = []
    for level in range(len(support), 0, -1):
        pairs = v.reshape(-1, 2)
        rz_angles = pairs[:, 1] - pairs[:, 0]
        v = (pairs[:, 0] + pairs[:, 1]) / 2.0
        if np.any(rz_angles != 0.0):
            gates.extend(
                _lower_multiplexed(
                    "rz", support[level - 1], tuple(support[: level - 1]), rz_angles
                )
            )
    return gates, float(v[0])


def lower(circuit: Circuit) -> Circuit:
    """Rewrite over {X, Ry, Rz, Phase, CX}; elementary gates pass unchanged.

    The result prepares the same state as the input including the tracked
    global phase.
    """
    n = circuit.qubit_count
    out: list[Gate] = []
    global_phase = circuit.global_phase
    gates = circuit.gates
    i = 0
    while i < len(gates):
        g = gates[i]
        if g.is_elementary():
            out.append(g)
            i += 1
            continue
        if g.kind == "phase":
            # gather all consecutive Phase gates into one diagonal
            vec = np.zeros(2**n)
            levels = [control_patterns(tuple(range(t)))[1] for t in range(n)]
            while i < len(gates) and gates[i].kind == "phase":
                h = gates[i]
                r = pattern_of(levels[h.target], h.controls)
                if r is None:
                    _accumulate_diag(vec, h, n)
                else:
                    vec[phase_block(n, h.target, r)] += h.angle
                i += 1
            sub, delta = _lower_diagonal(vec, n)
            out.extend(sub)
            global_phase += delta
            continue
        if g.kind in ("ry", "rz"):
            # the run: same kind and target, controls on the same qubit set
            control_qubits = tuple(q for q, _ in sorted(g.controls))
            index = control_patterns(control_qubits)[1]
            angles = [0.0] * len(index)
            while i < len(gates):
                h = gates[i]
                if h.kind != g.kind or h.target != g.target:
                    break
                r = pattern_of(index, h.controls)
                if r is None:
                    break
                angles[r] += h.angle
                i += 1
            out.extend(_lower_multiplexed(g.kind, g.target, control_qubits, angles))
            continue
        # controlled X that is not a plain CX: conjugate a controlled phase
        # of pi by Hadamards built as Ry(pi/2) then X
        h_gates = [Gate("ry", math.pi / 2.0, g.target), Gate("x", 0.0, g.target)]
        vec = np.zeros(2**n)
        _accumulate_diag(vec, Gate("phase", math.pi, g.target, g.controls), n)
        sub, delta = _lower_diagonal(vec, n)
        out.extend(h_gates)
        out.extend(sub)
        global_phase += delta
        out.extend(h_gates)
        i += 1
    return Circuit(n, tuple(out), global_phase)


def verify_preparation(circuit: Circuit, target: PureState, prepared: PureState) -> float:
    """Fidelity |<target| circuit |0...0>|^2, where ``prepared`` is the state
    the caller simulated the circuit to."""
    if not target.dim == prepared.dim == 2**circuit.qubit_count:
        raise ValueError("target dimension does not match circuit register")
    return float(abs(np.vdot(target.amplitudes, prepared.amplitudes)) ** 2)


def gate_counts(circuit: Circuit) -> Counter:
    """Histogram of gate kinds; controlled rotations count as ``mc-<kind>``."""
    counts: Counter = Counter()
    for g in circuit.gates:
        if not g.controls:
            counts[g.kind] += 1
        elif g.is_elementary():
            counts["cx"] += 1
        else:
            counts[f"mc-{g.kind}"] += 1
    counts["total"] = len(circuit.gates)
    return counts


# ---------------------------------------------------------------------------
# Text formats


def dump_circuit(circuit: Circuit) -> str:
    """One gate per line: kind, angle, target, controls."""
    lines = [f"qubits {circuit.qubit_count}", f"phase {circuit.global_phase!r}"]
    for g in circuit.gates:
        parts = [g.kind]
        if g.kind != "x":
            parts.append(repr(g.angle))
        parts.append(f"q{g.target}")
        parts.extend(f"c{q}={b}" for q, b in g.controls)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def qasm_export(circuit: Circuit) -> str:
    """OpenQASM 2.0 text for an elementary circuit.

    Gates map to ry/rz/x/cx/u1; angles are printed with full round-trip
    precision.  The tracked global phase has no QASM 2.0 representation
    and is omitted.  Every qubit q is measured into ``c[q]`` at the end.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.qubit_count}];",
        f"creg c[{circuit.qubit_count}];",
    ]
    for g in circuit.gates:
        if not g.is_elementary():
            raise ValueError(f"gate {g} is not elementary; lower the circuit first")
        if g.kind == "x" and g.controls:
            lines.append(f"cx q[{g.controls[0][0]}],q[{g.target}];")
        elif g.kind == "x":
            lines.append(f"x q[{g.target}];")
        elif g.kind == "phase":
            lines.append(f"u1({g.angle!r}) q[{g.target}];")
        else:
            lines.append(f"{g.kind}({g.angle!r}) q[{g.target}];")
    for q in range(circuit.qubit_count):
        lines.append(f"measure q[{q}] -> c[{q}];")
    return "\n".join(lines) + "\n"


_QASM_GATE = re.compile(
    r"^(?P<name>ry|rz|u1)\((?P<angle>[^)]+)\)\s+q\[(?P<t>\d+)\];$"
)
_QASM_X = re.compile(r"^x\s+q\[(?P<t>\d+)\];$")
_QASM_CX = re.compile(r"^cx\s+q\[(?P<c>\d+)\],\s*q\[(?P<t>\d+)\];$")
_QASM_QREG = re.compile(r"^qreg\s+\w+\[(?P<n>\d+)\];$")


def qasm_parse(text: str) -> Circuit:
    """Read back the subset emitted by :func:`qasm_export`.

    Measurement and classical-register lines are ignored; the global
    phase is zero by construction.
    """
    n = None
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.strip()
        if (
            not line
            or line.startswith("OPENQASM")
            or line.startswith("include")
            or line.startswith("creg")
            or line.startswith("measure")
            or line.startswith("barrier")
            or line.startswith("//")
        ):
            continue
        m = _QASM_QREG.match(line)
        if m:
            n = int(m.group("n"))
            continue
        m = _QASM_GATE.match(line)
        if m:
            kind = {"ry": "ry", "rz": "rz", "u1": "phase"}[m.group("name")]
            gates.append(Gate(kind, float(m.group("angle")), int(m.group("t"))))
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
