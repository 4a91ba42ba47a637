"""Statevector simulator with shot sampling and a readout error model.

Gates are applied in place by reshaping the amplitude vector to one axis
per qubit and updating the two-component slice selected by the control
bits; no 2^n x 2^n gate matrix is ever formed.  The same gate loop acts on
a batch of states, so :func:`circuit_unitary` runs it once over the
identity's columns.  Qubit 0 is the most
significant bit of basis labels, and bitstrings produced by sampling
follow the same convention.

Randomness comes from the counter-based Philox generator.  Sampling and
readout noise take a generator stream, and :func:`derive_rng` is the one
place streams are made: from a root seed plus an index path, so results
are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .numerics import PureState, check_register
from .qsp import Circuit, Gate

__all__ = [
    "ShotCounts",
    "ReadoutModel",
    "run",
    "sample",
    "apply_readout_noise",
    "mitigate",
    "derive_rng",
    "circuit_unitary",
]

def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a (seed, index path) pair.

    Distinct paths give statistically independent streams; the derivation
    is deterministic, so per-point streams do not depend on sweep order.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path)))
    )


def _apply_gate(amps: np.ndarray, gate: Gate, n: int) -> None:
    """Apply ``gate`` in place to a ``(2**n,)`` state or a ``(2**n, k)`` batch of states."""
    sub = amps.reshape((2,) * n + amps.shape[1:])[gate.index(n)]
    # integer indexing collapsed the control axes; recompute target position
    axis = gate.target - sum(1 for q, _ in gate.controls if q < gate.target)
    sub = np.moveaxis(sub, axis, -1)
    sub[...] = sub @ gate.matrix().T


def run(circuit: Circuit, initial: PureState | None = None) -> PureState:
    """Apply the circuit to |0...0>, or to ``initial``, and return the final state.

    The global phase multiplies the state after the last gate.  So
    ``run(Circuit(n, tail, phase), run(Circuit(n, prefix)))`` equals
    ``run(Circuit(n, prefix + tail, phase))`` bit for bit, and circuits that
    share a prefix can branch from one simulation of it.
    """
    n = circuit.qubit_count
    check_register(n, "simulator")
    if initial is None:
        state = np.zeros(2**n, dtype=np.complex128)
        state[0] = 1.0
    elif initial.dim != 2**n:
        raise ValueError(f"initial state dimension {initial.dim} != 2^{n}")
    else:
        state = initial.amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate(state, gate, n)
    if circuit.global_phase != 0.0:
        state *= np.exp(1j * circuit.global_phase)
    return PureState(state)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of a small circuit (column k = action on |k>)."""
    n = circuit.qubit_count
    check_register(n, "dense unitary")
    cols = np.eye(2**n, dtype=np.complex128)
    for gate in circuit.gates:
        _apply_gate(cols, gate, n)
    return cols * np.exp(1j * circuit.global_phase)


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """Measured outcome counts over a qubit register.

    ``counts[i]`` is the number of shots that read basis state ``i``
    (qubit 0 is the most significant bit), as a read-only ``int64`` array
    of length ``2**qubit_count``.  Bitstrings appear only at the I/O edge:
    :attr:`histogram`, :meth:`from_histogram` and the JSON form.
    """

    qubit_count: int
    shots: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        if counts.shape != (2**self.qubit_count,):
            raise ValueError(
                f"counts of shape {counts.shape} do not cover "
                f"{self.qubit_count} qubits ({2**self.qubit_count} outcomes)"
            )
        counts = counts.astype(np.int64)  # always a copy, so the caller's array stays writable
        negative = np.flatnonzero(counts < 0)
        if negative.size:
            key = format(int(negative[0]), f"0{self.qubit_count}b")
            raise ValueError(f"negative count for {key!r}")
        total = int(counts.sum())
        if total != self.shots:
            raise ValueError(f"histogram total {total} != shots {self.shots}")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_histogram(
        cls, qubit_count: int, shots: int, histogram: Mapping[str, int]
    ) -> "ShotCounts":
        """Counts from a ``{bitstring: count}`` mapping; absent outcomes count 0."""
        counts = np.zeros(2**qubit_count, dtype=np.int64)
        for key, count in histogram.items():
            if len(key) != qubit_count or set(key) - {"0", "1"}:
                raise ValueError(f"bad bitstring key {key!r}")
            counts[int(key, 2)] = count
        return cls(qubit_count, shots, counts)

    @property
    def histogram(self) -> dict[str, int]:
        """Nonzero counts keyed by bitstring, in ascending outcome order."""
        n = self.qubit_count
        return {
            format(int(i), f"0{n}b"): int(self.counts[i])
            for i in np.flatnonzero(self.counts)
        }

    def frequencies(self) -> np.ndarray:
        """Relative frequency of every outcome, ``counts / shots``."""
        return self.counts / self.shots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShotCounts):
            return NotImplemented
        return (
            self.qubit_count == other.qubit_count
            and self.shots == other.shots
            and np.array_equal(self.counts, other.counts)
        )

    def to_json(self) -> str:
        return json.dumps(
            {"shots": self.shots, "counts": self.histogram}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "ShotCounts":
        data = json.loads(text)
        counts = {str(k): int(v) for k, v in data["counts"].items()}
        if not counts:
            raise ValueError("empty counts")
        width = len(next(iter(counts)))
        return cls.from_histogram(width, int(data["shots"]), counts)


def sample(state: PureState, shots: int, rng: np.random.Generator) -> ShotCounts:
    """Multinomial sampling of computational-basis outcomes from a
    :func:`derive_rng` stream."""
    if shots < 1:
        raise ValueError("shots must be positive")
    n = state.dim.bit_length() - 1
    if 2**n != state.dim:
        raise ValueError("state dimension is not a power of two")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    return ShotCounts(n, shots, rng.multinomial(shots, probs))


@dataclass(frozen=True)
class ReadoutModel:
    """Independent per-qubit readout flips.

    ``e0[q]`` is the probability of reading 1 when qubit q is 0, and
    ``e1[q]`` of reading 0 when it is 1.  Each is a number or a sequence
    of numbers; a string or a boolean is rejected, not read as a rate.
    Scalars broadcast over all qubits; two tuples must have the same
    length.  Both probabilities are capped at 0.5, so a qubit's
    :meth:`confusion` matrix is singular only at e0 = e1 = 0.5, which is
    rejected.
    """

    e0: tuple[float, ...] | float
    e1: tuple[float, ...] | float

    def __post_init__(self) -> None:
        for name in ("e0", "e1"):
            value = getattr(self, name)
            scalar = isinstance(value, (int, float, str))
            vals = (value,) if scalar else tuple(value)
            if any(isinstance(v, (str, bool)) for v in vals):
                raise ValueError(f"{name}: rates must be numbers, got {value!r}")
            vals = tuple(float(v) for v in vals)
            for v in vals:
                if not 0.0 <= v <= 0.5:
                    raise ValueError(f"{name} entry {v} outside [0, 0.5]")
            object.__setattr__(self, name, vals[0] if scalar else vals)
        if isinstance(self.e0, tuple) and isinstance(self.e1, tuple) and len(self.e0) != len(self.e1):
            raise ValueError(f"e0 has {len(self.e0)} entries, e1 has {len(self.e1)}")
        singular = np.abs(1.0 - np.add(self.e0, self.e1)) < 1e-12
        if singular.any():
            where = f"qubit {np.flatnonzero(singular)[0]}" if singular.ndim else "every qubit"
            raise ValueError(f"confusion matrix is singular (e0 + e1 = 1) on {where}")

    def confusion(self, qubit_count: int) -> np.ndarray:
        """Per-qubit confusion matrices as a ``(qubit_count, 2, 2)`` array.

        ``conf[q]`` is [[1-e0, e1], [e0, 1-e1]] for qubit q (column = true
        bit).  Scalars broadcast to every qubit; a tuple must have one
        entry per qubit of the register.
        """
        for name in ("e0", "e1"):
            value = getattr(self, name)
            if isinstance(value, tuple) and len(value) != qubit_count:
                raise ValueError(
                    f"{name} has {len(value)} entries, the register has {qubit_count} qubits"
                )
        e0 = np.broadcast_to(self.e0, qubit_count)
        e1 = np.broadcast_to(self.e1, qubit_count)
        return np.stack([[1.0 - e0, e1], [e0, 1.0 - e1]]).transpose(2, 0, 1)


def apply_readout_noise(
    counts: ShotCounts, model: ReadoutModel, rng: np.random.Generator
) -> ShotCounts:
    """Flip each recorded bit independently with the model's probabilities,
    drawing from a :func:`derive_rng` stream.

    Shots are laid out outcome by outcome in ascending outcome order and
    drawn as one ``(shots, qubits)`` array of uniform variates.
    """
    n = counts.qubit_count
    conf = model.confusion(n)
    e0, e1 = conf[:, 1, 0], conf[:, 0, 1]
    outcomes = np.arange(2**n)
    weights = 1 << np.arange(n - 1, -1, -1)
    bits = (outcomes[:, None] & weights) != 0
    thresholds = np.repeat(np.where(bits, e1, e0), counts.counts, axis=0)
    flips = rng.random((counts.shots, n)) < thresholds
    noisy = np.repeat(outcomes, counts.counts) ^ (flips @ weights)
    return ShotCounts(n, counts.shots, np.bincount(noisy, minlength=2**n))


def mitigate(counts: ShotCounts, model: ReadoutModel) -> np.ndarray:
    """Invert the tensor-product confusion matrix and project to the simplex.

    Each qubit's :meth:`ReadoutModel.confusion` matrix is inverted, all in
    one batched call, and applied along that qubit's axis of the frequency
    tensor.  Negative quasi-probabilities are clipped to zero and the
    remainder renormalized.  Returns the frequency of every outcome
    over the register, in the order of ``counts.counts``.
    """
    n = counts.qubit_count
    inverses = np.linalg.inv(model.confusion(n))
    tensor = counts.frequencies().reshape([2] * n)
    for q, inv in enumerate(inverses):
        tensor = np.moveaxis(
            np.tensordot(inv, tensor, axes=([1], [q])), 0, q
        )
    quasi = tensor.reshape(-1)
    clipped = np.clip(quasi, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise ValueError("mitigation clipped all probability mass")
    return clipped / total
