"""Pauli-basis state tomography over a subset of circuit qubits.

The measurement plan is the full product-basis set: 3^n settings, one per
assignment of X/Y/Z to each system qubit.  A setting's pre-measurement
rotation maps the chosen Pauli eigenbasis onto the computational basis:
X uses Ry(-pi/2); Y uses the Rx(pi/2) composition Rz(pi/2), Ry(pi/2),
Rz(-pi/2); Z measures directly.  Ancilla qubits are always measured in Z
and marginalized away.

Reconstruction is linear inversion, ``rho = sum_P <P> P / 2^n``, followed
by a positive-semidefinite projection that clips negative eigenvalues and
removes the clipped mass from the positive ones proportionally (trace
preserving, idempotent).  States of an embedded qudit are reconstructed on
their qubit register and then restricted to the populated block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from .numerics import DensityMatrix, herm_eig, kron
from .qsp import Gate
from .simulator import ShotCounts

__all__ = [
    "TomographySettings",
    "TomographyResult",
    "settings_for",
    "basis_rotation",
    "expectations",
    "reconstruct",
    "project_psd",
    "extract_embedded",
    "exact_expectations",
]

_PAULI = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def basis_rotation(pauli: str, qubit: int) -> tuple[Gate, ...]:
    """Gates rotating the given Pauli eigenbasis to the Z basis."""
    if pauli == "X":
        return (Gate("ry", -math.pi / 2.0, qubit),)
    if pauli == "Y":
        return (
            Gate("rz", math.pi / 2.0, qubit),
            Gate("ry", math.pi / 2.0, qubit),
            Gate("rz", -math.pi / 2.0, qubit),
        )
    if pauli == "Z":
        return ()
    raise ValueError(f"unknown Pauli label {pauli!r}")


@dataclass(frozen=True)
class TomographySettings:
    """All 3^n measurement settings for the listed system qubits.

    ``rotations`` maps each setting (a tuple of X/Y/Z labels aligned with
    ``system_qubits``) to its pre-measurement gate list.
    """

    system_qubits: tuple[int, ...]
    settings: tuple[tuple[str, ...], ...]
    rotations: dict[tuple[str, ...], tuple[Gate, ...]]


def settings_for(system_qubits: Sequence[int]) -> TomographySettings:
    qubits = tuple(int(q) for q in system_qubits)
    if len(set(qubits)) != len(qubits) or not qubits:
        raise ValueError(f"system qubits must be distinct and nonempty: {qubits}")
    settings = tuple(itertools.product("XYZ", repeat=len(qubits)))
    rotations = {
        setting: tuple(
            g for label, q in zip(setting, qubits) for g in basis_rotation(label, q)
        )
        for setting in settings
    }
    return TomographySettings(qubits, settings, rotations)


def _weights(data: ShotCounts | Mapping[str, float]) -> tuple[dict[str, float], int | None]:
    if isinstance(data, ShotCounts):
        return data.frequencies(), data.shots
    total = float(sum(data.values()))
    if total <= 0.0:
        raise ValueError("setting has no probability mass")
    return {k: v / total for k, v in data.items()}, None


def expectations(
    per_setting: Mapping[tuple[str, ...], ShotCounts | Mapping[str, float]],
    system_qubits: Sequence[int],
    shots_per_setting: int | None = None,
) -> tuple[dict[str, float], dict[str, float | None]]:
    """Per-Pauli-string expectation values with standard errors.

    ``per_setting`` maps each of the 3^n settings to measured bitstring
    counts or frequencies over the full register.  A Pauli string's value
    is the parity expectation of its non-identity positions, averaged over
    every setting compatible with those positions; identity positions and
    all ancilla bits are marginalized.  Standard errors use the binomial
    estimate sqrt((1 - m^2) / shots) per setting when shot totals are
    known, ``None`` otherwise.
    """
    qubits = tuple(int(q) for q in system_qubits)
    n = len(qubits)
    # a list, not a set: its order fixes the summation order of each mean,
    # and set order would vary with the interpreter's hash seed
    wanted = list(itertools.product("XYZ", repeat=n))
    missing = [s for s in wanted if s not in per_setting]
    if missing:
        raise ValueError(f"missing measurement setting {''.join(missing[0])}")
    normalized: dict[tuple[str, ...], tuple[dict[str, float], int | None]] = {
        s: _weights(per_setting[s]) for s in wanted
    }
    values: dict[str, float] = {}
    errors: dict[str, float | None] = {}
    for letters in itertools.product("IXYZ", repeat=n):
        name = "".join(letters)
        if set(letters) == {"I"}:
            values[name] = 1.0
            errors[name] = 0.0
            continue
        active = [i for i, c in enumerate(letters) if c != "I"]
        compatible = [
            s for s in normalized if all(s[i] == letters[i] for i in active)
        ]
        estimates = []
        variances = []
        for s in compatible:
            freqs, shots = normalized[s]
            if shots is None:
                shots = shots_per_setting
            m = 0.0
            for bitstring, w in freqs.items():
                parity = sum(int(bitstring[qubits[i]]) for i in active) % 2
                m += w * (1.0 - 2.0 * parity)
            estimates.append(m)
            variances.append(
                max(0.0, 1.0 - m * m) / shots if shots else None
            )
        value = float(np.mean(estimates))
        values[name] = value
        if any(v is None for v in variances):
            errors[name] = None
        else:
            errors[name] = float(math.sqrt(sum(variances)) / len(variances))
    return values, errors


def exact_expectations(rho: DensityMatrix) -> dict[str, float]:
    """Noise-free <P> = Tr(rho P) for every Pauli string on a qubit register."""
    n = rho.dim.bit_length() - 1
    if 2**n != rho.dim:
        raise ValueError("density matrix is not over a qubit register")
    out = {}
    for letters in itertools.product("IXYZ", repeat=n):
        op = kron(*(_PAULI[c] for c in letters))
        out["".join(letters)] = float(np.trace(rho.matrix @ op).real)
    return out


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues, absorbing the loss into the positive ones.

    The clipped mass is removed from the remaining eigenvalues in
    proportion to their size, so the trace is preserved and projecting a
    valid state is the identity.
    """
    arr = np.asarray(mat, dtype=np.complex128)
    w, v = herm_eig((arr + arr.conj().T) / 2.0)
    negative = w[w < 0.0].sum()
    if negative == 0.0:
        return arr
    positive = w[w > 0.0].sum()
    if positive <= 0.0:
        raise ValueError("matrix has no positive eigenvalue mass")
    scale = 1.0 + negative / positive  # negative is <= 0
    w = np.where(w > 0.0, w * scale, 0.0)
    return (v * w) @ v.conj().T


@dataclass(frozen=True)
class TomographyResult:
    """Linear-inversion output: raw matrix, projected state, statistics."""

    raw: np.ndarray
    projected: DensityMatrix
    expectations: dict[str, float]
    stderrs: dict[str, float | None]
    shots_per_setting: int | None


def reconstruct(
    values: Mapping[str, float],
    stderrs: Mapping[str, float | None] | None = None,
    shots_per_setting: int | None = None,
) -> TomographyResult:
    """Assemble rho from Pauli expectations and project it onto valid states."""
    names = list(values.keys())
    if not names:
        raise ValueError("no expectation values given")
    n = len(names[0])
    if any(len(k) != n for k in names):
        raise ValueError("Pauli strings have mixed lengths")
    raw = np.zeros((2**n, 2**n), dtype=np.complex128)
    for letters in itertools.product("IXYZ", repeat=n):
        name = "".join(letters)
        if name in values:
            coeff = values[name]
        elif name == "I" * n:
            coeff = 1.0
        else:
            raise ValueError(f"missing expectation value for {name}")
        raw += coeff * kron(*(_PAULI[c] for c in letters))
    raw /= 2**n
    projected = DensityMatrix(project_psd(raw))
    return TomographyResult(
        raw=raw,
        projected=projected,
        expectations=dict(values),
        stderrs=dict(stderrs) if stderrs is not None else {},
        shots_per_setting=shots_per_setting,
    )


def extract_embedded(
    state: DensityMatrix, dim: int
) -> tuple[DensityMatrix, float]:
    """Restrict a reconstructed register state to its populated qudit block.

    Keeps the top-left ``dim x dim`` block (embedded levels are the low
    basis indices), renormalizes its trace, and reports the probability
    mass dropped with the padded levels.  Exact reconstructions of
    embedded states drop exactly zero.
    """
    if dim < 1 or dim > state.dim:
        raise ValueError(f"block dimension {dim} outside [1, {state.dim}]")
    block = np.array(state.matrix[:dim, :dim])
    kept = float(np.trace(block).real)
    if kept <= 0.0:
        raise ValueError("embedded block carries no probability mass")
    return DensityMatrix(block / kept), 1.0 - kept
