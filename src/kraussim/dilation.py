"""Pure-state dilations of Kraus channels.

A channel with operators ``K_j`` acting on a state ``|psi>`` is traded for
the joint pure state ``sum_j (K_j |psi>) (x) |j>`` over the system and one
ancilla level per Kraus operator.  Tracing the ancilla out of the joint
state reproduces the operator-sum action exactly, so preparing the joint
state on a simulator and discarding the ancilla simulates the channel.

Mixed inputs are handled three ways, all returning objects whose reduced
system state equals the operator-sum result:

* purify the evolved joint density matrix directly
  (:func:`mixed_method_purify_evolved`),
* evolve each eigenvector separately and mix the results classically
  (:func:`mixed_method_convex`),
* dilate the spectral decomposition itself into one larger pure state
  (:func:`mixed_method_double_purification`).

Qudit factors map onto qubit registers big-endian (factor level ``l``
becomes the ceil(log2 d)-bit binary string of ``l``), with unused bit
patterns carrying zero amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel
from .numerics import DensityMatrix, PureState, check_register, herm_eig

__all__ = [
    "QubitEmbedding",
    "DilatedState",
    "SpectralInput",
    "dilate_pure",
    "embed_qudits",
    "postselect",
    "recovered_system_state",
    "spectral_input",
    "mixed_method_purify_evolved",
    "eigenvector_dilations",
    "mixed_method_convex",
    "mixed_method_double_purification",
]

RANK_TOL = 1e-12


@dataclass(frozen=True)
class QubitEmbedding:
    """Mapping of a list of qudit factors onto a qubit register.

    Factor ``i`` of dimension ``d_i`` occupies ``ceil(log2 d_i)``
    consecutive qubits, most significant first, in factor order.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def qubit_counts(self) -> tuple[int, ...]:
        return tuple(max(1, math.ceil(math.log2(d))) if d > 1 else 1 for d in self.factor_dims)

    @property
    def total_qubits(self) -> int:
        return sum(self.qubit_counts)

    def level_bits(self, factor: int, level: int) -> str:
        """Bit pattern assigned to ``level`` of ``factor``."""
        d = self.factor_dims[factor]
        if not 0 <= level < d:
            raise ValueError(f"level {level} outside [0, {d})")
        return format(level, f"0{self.qubit_counts[factor]}b")

    def embedded_index(self, levels: Sequence[int]) -> int:
        """Basis index in the qubit register for a joint level tuple."""
        bits = "".join(self.level_bits(i, l) for i, l in enumerate(levels))
        return int(bits, 2)


@dataclass(frozen=True)
class DilatedState:
    """Joint pure state over the system factor and its dilation ancillas.

    ``state`` is indexed over the product of ``[system_dim] +
    ancilla_dims`` in that factor order (system most significant);
    ``embedding`` records how the factors map onto qubits.
    """

    system_dim: int
    ancilla_dims: tuple[int, ...]
    state: PureState
    embedding: QubitEmbedding

    def __post_init__(self) -> None:
        dims = (self.system_dim,) + tuple(self.ancilla_dims)
        if math.prod(dims) != self.state.dim:
            raise ValueError(
                f"state dimension {self.state.dim} != prod of factors {dims}"
            )
        if self.embedding.factor_dims != dims:
            raise ValueError("embedding factors disagree with state factors")

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return (self.system_dim,) + tuple(self.ancilla_dims)


def dilate_pure(channel: KrausChannel, psi: PureState) -> DilatedState:
    """Joint state ``sum_j (K_j|psi>) (x) |j>`` over system and one ancilla.

    The ancilla dimension equals the number of Kraus operators; the
    completeness relation makes the result exactly normalized.
    """
    if psi.dim != channel.dim:
        raise ValueError(f"state dimension {psi.dim} != channel dimension {channel.dim}")
    d, n = channel.dim, channel.n_kraus
    joint = np.zeros(d * n, dtype=np.complex128)
    for j, op in enumerate(channel.kraus_ops):
        branch = op @ psi.amplitudes
        joint[j::n] = branch  # index a*n + j
    dims = (d, n)
    return DilatedState(
        system_dim=d,
        ancilla_dims=(n,),
        state=PureState(joint),
        embedding=QubitEmbedding(dims),
    )


def embed_qudits(dilated: DilatedState) -> PureState:
    """Amplitudes of the dilated state over its qubit register.

    The map is an isometry: amplitudes are copied to the basis states
    whose bits are the concatenated binary labels of the factor levels,
    and every unused pattern stays at zero.
    """
    emb = dilated.embedding
    check_register(emb.total_qubits, "qubit embedding")
    dims = dilated.factor_dims
    out = np.zeros(2**emb.total_qubits, dtype=np.complex128)
    src = dilated.state.amplitudes.reshape(dims)
    for levels in np.ndindex(*dims):
        amp = src[levels]
        if amp != 0.0:
            out[emb.embedded_index(levels)] = amp
    return PureState(out)


def postselect(dilated: DilatedState, j: int) -> tuple[float, PureState]:
    """Probability and conditional system state for joint ancilla outcome ``j``.

    For a single-ancilla dilation the probability is ``||K_j |psi>||^2``.
    A zero-probability branch cannot be conditioned on and raises.
    """
    n_anc = math.prod(dilated.ancilla_dims)
    if not 0 <= j < n_anc:
        raise ValueError(f"ancilla outcome {j} outside [0, {n_anc})")
    block = dilated.state.amplitudes.reshape(dilated.system_dim, n_anc)[:, j]
    prob = float(np.vdot(block, block).real)
    if prob <= 0.0:
        raise ValueError(f"ancilla outcome {j} has zero probability; unpostselectable")
    return prob, PureState(block / math.sqrt(prob))


def recovered_system_state(dilated: DilatedState) -> DensityMatrix:
    """Reduced system state: partial trace of the dilation over all ancillas."""
    amps = dilated.state.amplitudes.reshape(dilated.system_dim, -1)
    return DensityMatrix(amps @ amps.conj().T)


def _fix_eigvec_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero entry is real > 0."""
    for entry in vec:
        if abs(entry) > RANK_TOL:
            return vec * (entry.conjugate() / abs(entry))
    return vec


@dataclass(frozen=True)
class SpectralInput:
    """Spectral decomposition of an input density matrix.

    Eigenvalues sorted descending with phase-fixed eigenvector columns.
    For qubit inputs the Bloch parameterization is filled in:
    ``r`` the Bloch vector length, ``theta``/``phi`` its direction, with
    eigenvalues (1 + r)/2 and (1 - r)/2.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    r: float | None = None
    theta: float | None = None
    phi: float | None = None


def spectral_input(rho: DensityMatrix) -> SpectralInput:
    """Diagonalize ``rho``; clip tiny negative eigenvalues to zero."""
    w, v = herm_eig(rho.matrix)
    w = np.where(w < 0.0, 0.0, w)
    v = np.column_stack([_fix_eigvec_phase(v[:, k]) for k in range(v.shape[1])])
    r = theta = phi = None
    if rho.dim == 2:
        m = rho.matrix
        z = float((m[0, 0] - m[1, 1]).real)
        off = 2.0 * m[0, 1]
        r = math.sqrt(z * z + abs(off) ** 2)
        if r > RANK_TOL:
            theta = math.acos(max(-1.0, min(1.0, z / r)))
            if math.sin(theta) < 1e-12:
                phi = 0.0  # azimuth undefined at the poles
            else:
                # rho_01 = (r sin(theta) / 2) e^{-i phi}, so atan2 keeps
                # full precision where acos of a near-1 ratio would not
                phi = math.atan2(-off.imag, off.real) % (2.0 * math.pi)
        else:
            r, theta, phi = 0.0, 0.0, 0.0
    return SpectralInput(eigenvalues=w, eigenvectors=v, r=r, theta=theta, phi=phi)


def mixed_method_purify_evolved(channel: KrausChannel, rho: DensityMatrix) -> DilatedState:
    """Purify the evolved system+ancilla density matrix.

    Builds ``rho_AB = sum_{j,k} K_j rho K_k^dag (x) |j><k|``, diagonalizes
    it, and returns ``|Phi> = sum_i sqrt(lambda_i) |lambda_i>_AB (x) |i>_C``
    with the purifier dimension equal to dim(A) * n_kraus (zero eigenvalues
    keep their slots).
    """
    if rho.dim != channel.dim:
        raise ValueError(f"state dimension {rho.dim} != channel dimension {channel.dim}")
    d, n = channel.dim, channel.n_kraus
    joint = np.zeros((d * n, d * n), dtype=np.complex128)
    for j, kj in enumerate(channel.kraus_ops):
        for k, kk in enumerate(channel.kraus_ops):
            block = kj @ rho.matrix @ kk.conj().T
            # index a*n + j over rows, a'*n + k over columns
            joint[j::n, k::n] = block
    w, v = herm_eig(joint)
    w = np.where(w < 0.0, 0.0, w)
    d_c = d * n
    amps = np.zeros(d * n * d_c, dtype=np.complex128)
    for i in range(d_c):
        if w[i] == 0.0:
            continue
        amps[i::d_c] = math.sqrt(w[i]) * _fix_eigvec_phase(v[:, i])
    dims = (d, n, d_c)
    return DilatedState(
        system_dim=d,
        ancilla_dims=(n, d_c),
        state=PureState(amps),
        embedding=QubitEmbedding(dims),
    )


def eigenvector_dilations(
    channel: KrausChannel, rho: DensityMatrix
) -> list[tuple[float, DilatedState]]:
    """Dilate each eigenvector of ``rho`` with weight above ``RANK_TOL``.

    Returns ``(eigenvalue, dilate_pure(channel, eigenvector))`` pairs in
    descending eigenvalue order; mixing their reduced states with those
    weights gives the channel's action on ``rho``.
    """
    if rho.dim != channel.dim:
        raise ValueError(f"state dimension {rho.dim} != channel dimension {channel.dim}")
    spectral = spectral_input(rho)
    return [
        (float(weight), dilate_pure(channel, PureState(spectral.eigenvectors[:, k])))
        for k, weight in enumerate(spectral.eigenvalues)
        if weight > RANK_TOL
    ]


def mixed_method_convex(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Dilate each eigenvector of ``rho`` separately and mix the outcomes.

    Every eigenvector runs through :func:`dilate_pure` followed by the
    ancilla trace; the reduced states are combined with the eigenvalue
    weights.
    """
    out = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for weight, dilated in eigenvector_dilations(channel, rho):
        out += weight * recovered_system_state(dilated).matrix
    return DensityMatrix(out)


def mixed_method_double_purification(
    channel: KrausChannel, rho: DensityMatrix
) -> DilatedState:
    """Single pure state carrying both the spectral mixture and the channel.

    ``|Phi> = sum_{j,l} sqrt(r_l) (K_j |r_l>)_A (x) |l>_B (x) |j>_C`` with
    one B level per nonzero eigenvalue (rank ancilla) and one C level per
    Kraus operator.  Eigenvalues below 1e-12 are dropped.
    """
    if rho.dim != channel.dim:
        raise ValueError(f"state dimension {rho.dim} != channel dimension {channel.dim}")
    spectral = spectral_input(rho)
    keep = [k for k, w in enumerate(spectral.eigenvalues) if w > RANK_TOL]
    rank = len(keep)
    d, n = channel.dim, channel.n_kraus
    amps = np.zeros(d * rank * n, dtype=np.complex128)
    view = amps.reshape(d, rank, n)
    for slot, k in enumerate(keep):
        weight = spectral.eigenvalues[k]
        vec = spectral.eigenvectors[:, k]
        for j, op in enumerate(channel.kraus_ops):
            view[:, slot, j] = math.sqrt(weight) * (op @ vec)
    dims = (d, rank, n)
    return DilatedState(
        system_dim=d,
        ancilla_dims=(rank, n),
        state=PureState(amps),
        embedding=QubitEmbedding(dims),
    )
