"""Kraus-operator channels on qubits and qudits.

A channel is a finite list of same-shaped square Kraus operators ``K_j``;
it acts on a density matrix as ``rho -> sum_j K_j rho K_j^dag``.  The
catalog functions below construct the standard single-qubit noise models,
their qudit generalizations built from Heisenberg-Weyl shift/phase
operators, a qutrit amplitude-damping model, and relativistic spin
channels whose Kraus operators are momentum-dependent Wigner rotations.

Channels serialize to a small JSON schema (see :func:`channel_to_dict`)
used by the command-line tools for custom channel files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numerics import VALIDATION_TOL, DensityMatrix, MAX_DIM

__all__ = [
    "KrausChannel",
    "CPTPReport",
    "validate_cptp",
    "apply_channel",
    "l1_coherence",
    "prune",
    "pauli_channel",
    "bit_flip",
    "phase_flip",
    "bit_phase_flip",
    "depolarizing",
    "phase_damping",
    "generalized_amplitude_damping",
    "hw_shift",
    "hw_phase",
    "heisenberg_weyl",
    "hw_dephasing",
    "qutrit_amplitude_damping",
    "WignerBoost",
    "WignerRotation",
    "wigner_rotation",
    "wigner_channel",
    "spin_boost_channel",
    "channel_to_dict",
    "channel_from_dict",
    "save_channel",
    "load_channel",
]

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class KrausChannel:
    """An operator-sum channel.

    Construction checks shapes only (at least one operator, all square and
    of equal dimension); trace preservation is checked separately by
    :func:`validate_cptp` so that deliberately broken operator lists can
    still be represented and reported on.
    """

    kraus_ops: tuple[np.ndarray, ...]
    label: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.kraus_ops) == 0:
            raise ValueError("channel needs at least one Kraus operator")
        ops = []
        dim = None
        for op in self.kraus_ops:
            arr = np.array(op, dtype=np.complex128, order="C")
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"Kraus operator has non-square shape {arr.shape}")
            if dim is None:
                dim = arr.shape[0]
            elif arr.shape[0] != dim:
                raise ValueError("Kraus operators have mismatched dimensions")
            arr.setflags(write=False)
            ops.append(arr)
        if dim < 1 or dim > MAX_DIM:
            raise ValueError(f"channel dimension {dim} outside [1, {MAX_DIM}]")
        object.__setattr__(self, "kraus_ops", tuple(ops))

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    @property
    def n_kraus(self) -> int:
        return len(self.kraus_ops)


@dataclass(frozen=True)
class CPTPReport:
    """Result of a completeness check: max-abs residual of sum K^dag K - I."""

    passed: bool
    residual: float
    tol: float


def validate_cptp(channel: KrausChannel, tol: float | None = None) -> CPTPReport:
    """Check the completeness relation ``sum_j K_j^dag K_j = I``.

    Failure is a report, not an exception, so callers can surface the
    residual of a broken channel.
    """
    if tol is None:
        tol = VALIDATION_TOL
    acc = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for op in channel.kraus_ops:
        acc += op.conj().T @ op
    residual = float(np.max(np.abs(acc - np.eye(channel.dim))))
    return CPTPReport(passed=residual <= tol, residual=residual, tol=tol)


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Operator-sum action ``sum_j K_j rho K_j^dag``."""
    if rho.dim != channel.dim:
        raise ValueError(f"state dimension {rho.dim} != channel dimension {channel.dim}")
    out = np.zeros_like(rho.matrix)
    for op in channel.kraus_ops:
        out += op @ rho.matrix @ op.conj().T
    return DensityMatrix(out)


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of absolute values of all off-diagonal entries (computational basis)."""
    mat = np.abs(rho.matrix)
    return float(mat.sum() - np.trace(mat).real)


def prune(channel: KrausChannel, tol: float = 0.0) -> KrausChannel:
    """Drop Kraus operators whose max-abs entry is <= tol."""
    kept = tuple(op for op in channel.kraus_ops if np.max(np.abs(op)) > tol)
    if not kept:
        raise ValueError("pruning removed every Kraus operator")
    return KrausChannel(kept, label=channel.label, params=dict(channel.params))


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")
    return float(value)


# ---------------------------------------------------------------------------
# Single-qubit catalog


def pauli_channel(p_i: float, p_x: float, p_z: float, p_y: float) -> KrausChannel:
    """Mixture of Pauli conjugations with weights (p_i, p_x, p_z, p_y).

    Kraus operators in the fixed order (I, X, Z, Y); the weights must form
    a probability distribution.
    """
    probs = [p_i, p_x, p_z, p_y]
    for name, p in zip(("p_i", "p_x", "p_z", "p_y"), probs):
        _check_prob(name, p)
    if abs(sum(probs) - 1.0) > VALIDATION_TOL:
        raise ValueError(f"Pauli weights sum to {sum(probs)}, expected 1")
    ops = tuple(
        math.sqrt(p) * sigma
        for p, sigma in zip(probs, (PAULI_I, PAULI_X, PAULI_Z, PAULI_Y))
    )
    return KrausChannel(
        ops,
        label="pauli",
        params={"p_i": p_i, "p_x": p_x, "p_z": p_z, "p_y": p_y},
    )


def _two_branch(label: str, p: float, sigma: np.ndarray) -> KrausChannel:
    # two-operator form {sqrt(1-p) I, sqrt(p) sigma}; acts like the Pauli
    # mixture with weight p on sigma, but dilates with a single ancilla qubit
    _check_prob("p", p)
    ops = (math.sqrt(1.0 - p) * PAULI_I, math.sqrt(p) * sigma)
    return KrausChannel(ops, label=label, params={"p": p})


def bit_flip(p: float) -> KrausChannel:
    """X error with probability p; equals the Pauli mixture (1-p, p, 0, 0)."""
    return _two_branch("bit_flip", p, PAULI_X)


def phase_flip(p: float) -> KrausChannel:
    """Z error with probability p; equals the Pauli mixture (1-p, 0, p, 0)."""
    return _two_branch("phase_flip", p, PAULI_Z)


def bit_phase_flip(p: float) -> KrausChannel:
    """Y error with probability p; equals the Pauli mixture (1-p, 0, 0, p)."""
    return _two_branch("bit_phase_flip", p, PAULI_Y)


def depolarizing(p: float) -> KrausChannel:
    """Depolarizing channel with weights ((4-3p)/4, p/4, p/4, p/4).

    At p=1 the output is the maximally mixed state for every input.
    """
    _check_prob("p", p)
    ch = pauli_channel(1.0 - 3.0 * p / 4.0, p / 4.0, p / 4.0, p / 4.0)
    return KrausChannel(ch.kraus_ops, label="depolarizing", params={"p": p})


def phase_damping(p: float) -> KrausChannel:
    """Phase damping: K0 = |0><0| + sqrt(1-p)|1><1|, K1 = sqrt(p)|1><1|."""
    _check_prob("p", p)
    k0 = np.diag([1.0, math.sqrt(1.0 - p)]).astype(np.complex128)
    k1 = np.diag([0.0, math.sqrt(p)]).astype(np.complex128)
    return KrausChannel((k0, k1), label="phase_damping", params={"p": p})


def generalized_amplitude_damping(p: float, n: float) -> KrausChannel:
    """Amplitude damping toward a thermal population ``n``.

    Four Kraus operators: decay and excitation branches weighted by
    ``1-n`` and ``n``; ``p`` is the damping strength.
    """
    _check_prob("p", p)
    _check_prob("n", n)
    k0 = math.sqrt(1.0 - n) * np.diag([1.0, math.sqrt(1.0 - p)])
    k1 = np.zeros((2, 2))
    k1[0, 1] = math.sqrt(p * (1.0 - n))
    k2 = math.sqrt(n) * np.diag([math.sqrt(1.0 - p), 1.0])
    k3 = np.zeros((2, 2))
    k3[1, 0] = math.sqrt(p * n)
    return KrausChannel(
        (k0, k1, k2, k3),
        label="generalized_amplitude_damping",
        params={"p": p, "n": n},
    )


# ---------------------------------------------------------------------------
# Qudit catalog


def hw_shift(d: int, j: int) -> np.ndarray:
    """Heisenberg-Weyl shift X(j): |k> -> |k + j mod d>."""
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    if not 0 <= j < d:
        raise ValueError(f"shift index {j} outside [0, {d})")
    op = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        op[(k + j) % d, k] = 1.0
    return op


def hw_phase(d: int, k: int) -> np.ndarray:
    """Heisenberg-Weyl phase Z(k): |l> -> exp(2 pi i k l / d)|l>."""
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    if not 0 <= k < d:
        raise ValueError(f"phase index {k} outside [0, {d})")
    phases = np.exp(2j * np.pi * k * np.arange(d) / d)
    return np.diag(phases).astype(np.complex128)


def heisenberg_weyl(d: int, probs: np.ndarray) -> KrausChannel:
    """Random-displacement channel K_{j,k} = sqrt(p_{j,k}) X(j) Z(k).

    ``probs`` is a d x d probability matrix; operators are ordered
    lexicographically in (j, k).  The uniform distribution twirls every
    input to the maximally mixed state.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (d, d):
        raise ValueError(f"probs shape {probs.shape} != ({d}, {d})")
    if np.any(probs < 0.0) or abs(probs.sum() - 1.0) > VALIDATION_TOL:
        raise ValueError("probs must be a probability distribution")
    ops = tuple(
        math.sqrt(probs[j, k]) * (hw_shift(d, j) @ hw_phase(d, k))
        for j in range(d)
        for k in range(d)
    )
    return KrausChannel(ops, label="heisenberg_weyl", params={"d": d})


def hw_dephasing(d: int, p0: float) -> KrausChannel:
    """Dephasing mixture of phase operators Z(j).

    Weight ``p0`` on the identity branch, the remaining ``1 - p0`` split
    evenly over the d-1 nontrivial phases.  Off-diagonal entries of the
    input pick up the factor ``sum_j p_j exp(2 pi i j (k-l) / d)``.
    """
    if d < 2:
        raise ValueError("qudit dimension must be >= 2")
    _check_prob("p0", p0)
    rest = (1.0 - p0) / (d - 1)
    weights = [p0] + [rest] * (d - 1)
    ops = tuple(math.sqrt(w) * hw_phase(d, j) for j, w in enumerate(weights))
    return KrausChannel(ops, label="hw_dephasing", params={"d": d, "p0": p0})


def qutrit_amplitude_damping(gamma: float) -> KrausChannel:
    """Cascade decay 2 -> 1 -> 0 on a three-level system.

    K0 = diag(1, sqrt(1-g), 1-g);
    K1 = sqrt(g)|0><1| + sqrt(2 g (1-g))|1><2|;
    K2 = g|0><2|.
    """
    _check_prob("gamma", gamma)
    g = gamma
    k0 = np.diag([1.0, math.sqrt(1.0 - g), 1.0 - g]).astype(np.complex128)
    k1 = np.zeros((3, 3), dtype=np.complex128)
    k1[0, 1] = math.sqrt(g)
    k1[1, 2] = math.sqrt(2.0 * g * (1.0 - g))
    k2 = np.zeros((3, 3), dtype=np.complex128)
    k2[0, 2] = g
    return KrausChannel((k0, k1, k2), label="qutrit_amplitude_damping", params={"gamma": gamma})


# ---------------------------------------------------------------------------
# Relativistic spin channels


def _unit(v: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (3,):
        raise ValueError(f"{what} must be a 3-vector")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"{what} must be unit length (norm {norm})")
    return arr


@dataclass(frozen=True)
class WignerBoost:
    """A boost acting on a discrete set of sharp momenta.

    ``rapidity`` and ``boost_direction`` describe the observer boost;
    each momentum has magnitude rapidity ``momentum_rapidity`` along its
    own unit direction.  All directions must be unit 3-vectors.
    """

    rapidity: float
    boost_direction: np.ndarray
    momentum_rapidity: float
    momentum_directions: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.rapidity < 0.0 or self.momentum_rapidity < 0.0:
            raise ValueError("rapidities must be nonnegative")
        e = _unit(self.boost_direction, "boost_direction")
        e.setflags(write=False)
        dirs = []
        for i, p in enumerate(self.momentum_directions):
            u = _unit(p, f"momentum_directions[{i}]")
            u.setflags(write=False)
            dirs.append(u)
        if not dirs:
            raise ValueError("need at least one momentum direction")
        object.__setattr__(self, "boost_direction", e)
        object.__setattr__(self, "momentum_directions", tuple(dirs))

    @property
    def n_momenta(self) -> int:
        return len(self.momentum_directions)


@dataclass(frozen=True)
class WignerRotation:
    """Rotation angle and axis induced on the spin by a boosted momentum."""

    angle: float
    axis: np.ndarray

    def __post_init__(self) -> None:
        axis = _unit(self.axis, "axis")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)

    def matrix(self) -> np.ndarray:
        """Spin-1/2 representation cos(a/2) I + i sin(a/2) (sigma . axis)."""
        nx, ny, nz = self.axis
        sigma_n = nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z
        return math.cos(self.angle / 2.0) * PAULI_I + 1j * math.sin(self.angle / 2.0) * sigma_n


def wigner_rotation(boost: WignerBoost, j: int) -> WignerRotation:
    """Wigner rotation for momentum branch ``j`` of ``boost``.

    Uses the closed-form half-angle quotients for a pure boost acting on a
    sharp momentum: both the cosine term and the sine vector share the
    denominator sqrt((1 + cosh w cosh a + sinh w sinh a (e.p)) / 2), which
    makes cos^2 + |sin vec|^2 = 1 an exact identity.
    """
    if not 0 <= j < boost.n_momenta:
        raise ValueError(f"momentum index {j} outside [0, {boost.n_momenta})")
    w, a = boost.rapidity, boost.momentum_rapidity
    e = boost.boost_direction
    p = boost.momentum_directions[j]
    edotp = float(np.dot(e, p))
    den = math.sqrt(0.5 * (1.0 + math.cosh(w) * math.cosh(a) + math.sinh(w) * math.sinh(a) * edotp))
    cos_half = (
        math.cosh(w / 2.0) * math.cosh(a / 2.0)
        + math.sinh(w / 2.0) * math.sinh(a / 2.0) * edotp
    ) / den
    sin_vec = (math.sinh(w / 2.0) * math.sinh(a / 2.0) / den) * np.cross(e, p)
    sin_norm = float(np.linalg.norm(sin_vec))
    angle = 2.0 * math.atan2(sin_norm, cos_half)
    if sin_norm < 1e-300:
        axis = np.array([0.0, 0.0, 1.0])
    else:
        axis = sin_vec / sin_norm
    return WignerRotation(angle=angle, axis=axis)


def wigner_channel(boost: WignerBoost) -> KrausChannel:
    """Spin decoherence seen by a boosted observer ignoring momentum.

    One Kraus operator per momentum branch, each the branch's Wigner
    rotation weighted by 1/sqrt(n).  The channel is unital because the
    operators are scaled unitaries.
    """
    n = boost.n_momenta
    ops = tuple(wigner_rotation(boost, j).matrix() / math.sqrt(n) for j in range(n))
    return KrausChannel(
        ops,
        label="wigner",
        params={"rapidity": boost.rapidity, "momentum_rapidity": boost.momentum_rapidity},
    )


def spin_boost_channel(theta: float) -> KrausChannel:
    """Two-branch Wigner channel with opposite rotations of angle ``theta``.

    The geometry: boost along z, two momenta along +/-x, which rotates the
    spin about -/+y by the same magnitude.  Off-diagonal qubit entries are
    scaled by cos(theta).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    k0 = np.array([[c, s], [-s, c]], dtype=np.complex128) / math.sqrt(2.0)
    k1 = np.array([[c, -s], [s, c]], dtype=np.complex128) / math.sqrt(2.0)
    return KrausChannel((k0, k1), label="spin_boost", params={"theta": theta})


# ---------------------------------------------------------------------------
# Serialization
#
# Schema (JSON):
#   {
#     "dim": <int>,
#     "label": <str>,
#     "params": {<name>: <float>, ...},
#     "kraus": [op, ...]
#   }
# where each op is a row-major list of rows and every entry is an
# [re, im] pair.


def channel_to_dict(channel: KrausChannel) -> dict:
    """Plain-dict form of a channel with (re, im) pairs, row-major."""
    kraus = [
        [[[float(z.real), float(z.imag)] for z in row] for row in op]
        for op in channel.kraus_ops
    ]
    return {
        "dim": channel.dim,
        "label": channel.label,
        "params": {k: float(v) for k, v in channel.params.items()},
        "kraus": kraus,
    }


def channel_from_dict(data: dict) -> KrausChannel:
    """Inverse of :func:`channel_to_dict`; validates shape consistency."""
    try:
        dim = int(data["dim"])
        raw_ops = data["kraus"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"channel record missing field: {exc}") from exc
    ops = []
    for op in raw_ops:
        arr = np.zeros((len(op), len(op[0])), dtype=np.complex128)
        for i, row in enumerate(op):
            for j, pair in enumerate(row):
                re, im = pair
                arr[i, j] = complex(float(re), float(im))
        ops.append(arr)
    channel = KrausChannel(
        tuple(ops),
        label=str(data.get("label", "")),
        params={str(k): float(v) for k, v in dict(data.get("params", {})).items()},
    )
    if channel.dim != dim:
        raise ValueError(f"declared dim {dim} != operator dim {channel.dim}")
    return channel


def save_channel(channel: KrausChannel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(channel), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_channel(path: str) -> KrausChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_dict(json.load(fh))
