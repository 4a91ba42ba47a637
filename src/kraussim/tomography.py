"""Pauli-basis state tomography over a subset of circuit qubits.

The measurement plan is the full product-basis set: 3^n settings, one per
assignment of X/Y/Z to each system qubit.  A setting's pre-measurement
rotation maps the chosen Pauli eigenbasis onto the computational basis:
X uses Ry(-pi/2); Y uses the Rx(pi/2) composition Rz(pi/2), Ry(pi/2),
Rz(-pi/2); Z measures directly.  Ancilla qubits are always measured in Z
and marginalized away.

The measured data is one ``(3^n, 2^width)`` weight matrix: one row per
setting, in :func:`settings_for` order, over the whole measured
register.  A row holds counts or frequencies alike, since each is
divided by its own total.

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
from .numerics import DensityMatrix, herm_eig
from .qsp import Gate

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


def _pauli_basis(n: int) -> np.ndarray:
    """All 4^n Pauli strings on n qubits, stacked as a ``(4^n, 2^n, 2^n)`` array.

    Strings come in ``itertools.product("IXYZ", repeat=n)`` order, the
    first letter acting on the most significant qubit.
    """
    paulis = np.stack([_PAULI[c] for c in "IXYZ"])
    basis = np.ones((1, 1, 1), dtype=np.complex128)
    for _ in range(n):
        count, dim = basis.shape[0], basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, paulis).reshape(
            4 * count, 2 * dim, 2 * dim
        )
    return basis


def _pauli_names(n: int) -> list[str]:
    return ["".join(letters) for letters in itertools.product("IXYZ", repeat=n)]


def expectations(
    weights: np.ndarray,
    system_qubits: Sequence[int],
    shots: int | Sequence[int] | None = None,
) -> tuple[dict[str, float], dict[str, float | None]]:
    """Per-Pauli-string expectation values with standard errors.

    ``weights`` is one ``(3^n, 2^width)`` array: row s holds the
    nonnegative outcome weights over the whole register of the s-th
    setting of :func:`settings_for`, as counts or as the frequencies
    :func:`mitigate` returns.  Each row is divided by its total, summed in
    ascending outcome order.  A Pauli string's value is the parity
    expectation of its non-identity positions, averaged over every
    setting compatible with those positions; identity positions and all
    ancilla bits are marginalized.  ``shots`` is one total for every
    setting or one per setting; standard errors use the binomial
    estimate sqrt((1 - m^2) / shots) per setting, and are ``None`` when
    ``shots`` is.

    A malformed shape, a system qubit outside the register or a row with
    no mass raises ``ValueError``; the last names its setting.
    """
    qubits = tuple(int(q) for q in system_qubits)
    n = len(qubits)
    weights = np.asarray(weights, dtype=np.float64)
    rows, size = weights.shape if weights.ndim == 2 else (0, 0)
    width = size.bit_length() - 1
    if rows != 3**n or size != 2**width:
        raise ValueError(
            f"weights of shape {weights.shape} are not {3**n} settings by "
            f"a power-of-two number of outcomes"
        )
    outside = [q for q in qubits if not 0 <= q < width]
    if outside:
        raise ValueError(f"system qubit {outside[0]} outside the {width}-qubit register")
    totals = np.cumsum(weights, axis=1)[:, -1]
    empty = np.flatnonzero(~(totals > 0.0))
    if empty.size:
        setting = list(itertools.product("XYZ", repeat=n))[empty[0]]
        raise ValueError(f"setting {''.join(setting)} has no probability mass")
    weights = weights / totals[:, None]
    outcomes = np.arange(size)
    system_bits = [(outcomes >> (width - 1 - q)) & 1 for q in qubits]

    # estimates[s, mask]: setting s's parity expectation over the system
    # positions in ``mask`` (bit n-1-i set for position i).  Each is a
    # sequential sum in ascending outcome order (cumsum, not a pairwise
    # sum), which fixes its rounding and so the sampled CSV bytes.
    estimates = np.ones((rows, 2**n))
    for mask in range(1, 2**n):
        parity = sum(system_bits[i] for i in range(n) if (mask >> (n - 1 - i)) & 1) & 1
        estimates[:, mask] = np.cumsum(weights * (1.0 - 2.0 * parity), axis=1)[:, -1]
    spread = np.maximum(0.0, 1.0 - estimates * estimates)
    shots = np.broadcast_to(np.asarray(0 if shots is None else shots, dtype=np.float64), rows)

    values: dict[str, float] = {}
    errors: dict[str, float | None] = {}
    for letters in itertools.product("IXYZ", repeat=n):
        name = "".join(letters)
        mask = sum(1 << (n - 1 - i) for i, c in enumerate(letters) if c != "I")
        if mask == 0:
            values[name] = 1.0
            errors[name] = 0.0
            continue
        # settings compatible with the string, as base-3 indices in
        # settings order: its letter at each active position, all three
        # letters at the others
        compatible = [0]
        for c in letters:
            digits = range(3) if c == "I" else ("XYZ".index(c),)
            compatible = [3 * s + d for s in compatible for d in digits]
        values[name] = float(np.mean(estimates[compatible, mask]))
        if (shots[compatible] > 0).all():
            variances = spread[compatible, mask] / shots[compatible]
            errors[name] = float(math.sqrt(sum(variances.tolist())) / len(compatible))
        else:
            errors[name] = None
    return values, errors


def exact_expectations(rho: DensityMatrix) -> dict[str, float]:
    """Noise-free <P> = Tr(rho P) for every Pauli string on a qubit register."""
    n = rho.dim.bit_length() - 1
    if 2**n != rho.dim:
        raise ValueError("density matrix is not over a qubit register")
    traces = np.einsum("ij,kji->k", rho.matrix, _pauli_basis(n)).real
    return dict(zip(_pauli_names(n), traces.tolist()))


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
    """Linear-inversion output: the raw matrix and its projected state."""

    raw: np.ndarray
    projected: DensityMatrix


def reconstruct(values: Mapping[str, float]) -> TomographyResult:
    """Assemble rho from Pauli expectations and project it onto valid states."""
    names = list(values.keys())
    if not names:
        raise ValueError("no expectation values given")
    n = len(names[0])
    if any(len(k) != n for k in names):
        raise ValueError("Pauli strings have mixed lengths")
    raw = np.zeros((2**n, 2**n), dtype=np.complex128)
    for name, pauli in zip(_pauli_names(n), _pauli_basis(n)):
        if name in values:
            coeff = values[name]
        elif name == "I" * n:
            coeff = 1.0
        else:
            raise ValueError(f"missing expectation value for {name}")
        raw += coeff * pauli
    raw /= 2**n
    return TomographyResult(raw, DensityMatrix(project_psd(raw)))


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
