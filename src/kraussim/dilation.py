"""Pure-state dilations of Kraus channels.

A channel with operators ``K_j`` acting on a state ``|psi>`` is traded for
the joint pure state ``sum_j (K_j |psi>) (x) |j>`` over the system and one
ancilla level per Kraus operator.  Tracing the ancilla out of the joint
state reproduces the operator-sum action exactly, so preparing the joint
state on a simulator and discarding the ancilla simulates the channel.

Mixed inputs are handled three ways, each recovering the operator-sum
result from reduced system states:

* purify the evolved joint density matrix directly
  (:func:`mixed_method_purify_evolved`),
* dilate each eigenvector separately, for the caller to mix the reduced
  states classically (:func:`eigenvector_dilations`),
* dilate the spectral decomposition itself into one larger pure state
  (:func:`mixed_method_double_purification`).

Qudit factors map onto qubit registers big-endian (factor level ``l``
becomes the ceil(log2 d)-bit binary string of ``l``), with unused bit
patterns carrying zero amplitude.  :class:`QubitEmbedding` owns that
layout and the register limit: every dilation builds its embedding from
the factor dimensions first, so an oversized dilation fails before any
amplitude is computed, with a message naming ``qubit embedding`` and the
qubit count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "spectral_input",
    "mixed_method_purify_evolved",
    "eigenvector_dilations",
    "mixed_method_double_purification",
]

RANK_TOL = 1e-12


@dataclass(frozen=True)
class QubitEmbedding:
    """Mapping of a list of qudit factors onto a qubit register.

    Factor ``i`` of dimension ``d_i`` occupies ``ceil(log2 d_i)``
    consecutive qubits, most significant first, in factor order.  A
    dimension-1 ancilla takes no qubit; the system factor (the first)
    always takes at least one, because tomography and the partial trace
    act on a system register.  Construction fails if the register exceeds
    the limit, so a dilation that builds its embedding first does no work
    on an oversized register.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid factor dimensions {dims}")
        object.__setattr__(self, "factor_dims", dims)
        check_register(self.total_qubits, "qubit embedding")

    @property
    def qubit_counts(self) -> tuple[int, ...]:
        counts = tuple((d - 1).bit_length() for d in self.factor_dims)
        return (max(1, counts[0]),) + counts[1:]

    @property
    def total_qubits(self) -> int:
        return sum(self.qubit_counts)


@dataclass(frozen=True)
class DilatedState:
    """Joint pure state over the system factor and its dilation ancillas.

    ``embedding.factor_dims`` is the one record of the factors: ``state``
    is indexed over their product in that order (system most significant),
    and ``embedding`` maps them onto qubits.
    """

    embedding: QubitEmbedding
    state: PureState

    def __post_init__(self) -> None:
        if math.prod(self.factor_dims) != self.state.dim:
            raise ValueError(
                f"state dimension {self.state.dim} != prod of factors {self.factor_dims}"
            )

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.embedding.factor_dims

    @property
    def system_dim(self) -> int:
        return self.factor_dims[0]

    @property
    def ancilla_dims(self) -> tuple[int, ...]:
        return self.factor_dims[1:]


def dilate_pure(channel: KrausChannel, psi: PureState) -> DilatedState:
    """Joint state ``sum_j (K_j|psi>) (x) |j>`` over system and one ancilla.

    The ancilla dimension equals the number of Kraus operators; the
    completeness relation makes the result exactly normalized.
    """
    if psi.dim != channel.dim:
        raise ValueError(f"state dimension {psi.dim} != channel dimension {channel.dim}")
    d, n = channel.dim, channel.n_kraus
    embedding = QubitEmbedding((d, n))
    # row j of the product is K_j|psi>, at index a*n + j of the joint state
    joint = (np.stack(channel.kraus_ops) @ psi.amplitudes).T.reshape(-1)
    return DilatedState(embedding, PureState(joint))


def embed_qudits(dilated: DilatedState) -> PureState:
    """Amplitudes of the dilated state over its qubit register.

    The map is an isometry: the factor tensor is zero-padded to ``2**q_i``
    levels per factor, so each amplitude lands on the basis state whose
    bits are the concatenated binary labels of its factor levels, and every
    unused pattern stays at zero.
    """
    dims = dilated.factor_dims
    out = np.zeros([2**q for q in dilated.embedding.qubit_counts], dtype=np.complex128)
    out[tuple(slice(d) for d in dims)] = dilated.state.amplitudes.reshape(dims)
    return PureState(out.reshape(-1))


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


def _fix_eigvec_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero entry is real > 0."""
    for entry in vec:
        if abs(entry) > RANK_TOL:
            return vec * (entry.conjugate() / abs(entry))
    return vec


@dataclass(frozen=True, eq=False)
class SpectralInput:
    """Spectral decomposition of an input density matrix.

    Eigenvalues sorted descending with phase-fixed eigenvector columns.
    Equality and hashing are by identity.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_input(rho: DensityMatrix) -> SpectralInput:
    """Diagonalize ``rho``; clip tiny negative eigenvalues to zero."""
    w, v = herm_eig(rho.matrix)
    w = np.where(w < 0.0, 0.0, w)
    v = np.column_stack([_fix_eigvec_phase(v[:, k]) for k in range(v.shape[1])])
    return SpectralInput(eigenvalues=w, eigenvectors=v)


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
    d_c = d * n
    embedding = QubitEmbedding((d, n, d_c))
    joint = np.zeros((d * n, d * n), dtype=np.complex128)
    for j, kj in enumerate(channel.kraus_ops):
        for k, kk in enumerate(channel.kraus_ops):
            block = kj @ rho.matrix @ kk.conj().T
            # index a*n + j over rows, a'*n + k over columns
            joint[j::n, k::n] = block
    w, v = herm_eig(joint)
    w = np.where(w < 0.0, 0.0, w)
    amps = np.zeros(d * n * d_c, dtype=np.complex128)
    for i in range(d_c):
        if w[i] == 0.0:
            continue
        amps[i::d_c] = math.sqrt(w[i]) * _fix_eigvec_phase(v[:, i])
    return DilatedState(embedding, PureState(amps))


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
    embedding = QubitEmbedding((d, rank, n))
    amps = np.zeros(d * rank * n, dtype=np.complex128)
    view = amps.reshape(d, rank, n)
    ops = np.stack(channel.kraus_ops)
    for slot, k in enumerate(keep):
        # one matrix-vector product per Kraus operator, all in one call
        view[:, slot, :] = (math.sqrt(spectral.eigenvalues[k]) * (ops @ spectral.eigenvectors[:, k])).T
    return DilatedState(embedding, PureState(amps))
