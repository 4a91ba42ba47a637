"""Dense complex linear algebra helpers shared by the rest of the package.

Everything works on row-major ``numpy`` arrays with ``complex128`` entries.
Matrices are kept small (composite dimensions up to ``2**10``), so dense
routines are used throughout.  Two module constants, ``VALIDATION_TOL``
and ``EIGEN_TOL``, hold the thresholds, so the whole package agrees on
what "numerically zero" means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MAX_DIM",
    "MAX_QUBITS",
    "VALIDATION_TOL",
    "EIGEN_TOL",
    "check_register",
    "DensityMatrix",
    "PureState",
    "kron",
    "partial_trace",
    "herm_eig",
    "trace_distance",
    "basis_state",
    "bloch_state",
    "uniform_state",
]

MAX_DIM = 2**10
# The one register limit: every qubit register is bounded by MAX_DIM.
MAX_QUBITS = MAX_DIM.bit_length() - 1


def check_register(qubits: int, stage: str) -> None:
    """Fail before any work if a ``qubits``-qubit register exceeds the limit."""
    if qubits > MAX_QUBITS:
        raise ValueError(
            f"{stage}: {qubits} qubits exceeds the register limit of "
            f"{MAX_QUBITS} qubits (state dimension {MAX_DIM})"
        )


# thresholds of state and channel validation, and of eigensolver checks
VALIDATION_TOL = 1e-10
EIGEN_TOL = 1e-8


def _as_complex_matrix(mat: np.ndarray, what: str) -> np.ndarray:
    arr = np.array(mat, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[0] > MAX_DIM:
        raise ValueError(f"{what} dimension {arr.shape[0]} outside [1, {MAX_DIM}]")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix.

    The constructor checks Hermiticity, unit trace and positive
    semidefiniteness within ``VALIDATION_TOL``.  The stored array is
    a private copy marked read-only, so instances behave as immutable
    values.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_matrix(self.matrix, "density matrix")
        herm_defect = np.max(np.abs(arr - arr.conj().T))
        if herm_defect > VALIDATION_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(arr.trace() - 1.0)
        if trace_defect > VALIDATION_TOL:
            raise ValueError(f"density matrix trace {arr.trace():.12f} != 1")
        lo = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min()
        if lo < -VALIDATION_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, psi: "PureState") -> "DensityMatrix":
        v = psi.amplitudes
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class PureState:
    """A unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if arr.size < 1 or arr.size > MAX_DIM:
            raise ValueError(f"state dimension {arr.size} outside [1, {MAX_DIM}]")
        norm_defect = abs(np.vdot(arr, arr).real - 1.0)
        if norm_defect > VALIDATION_TOL:
            raise ValueError(f"state not normalized (|norm^2 - 1| = {norm_defect:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_pure(self)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor most significant."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.array(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=np.complex128))
    return out


def partial_trace(
    rho: DensityMatrix | PureState, dims: Sequence[int], keep: Iterable[int]
) -> DensityMatrix:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` gives the factor dimensions in tensor order (left factor most
    significant); their product must equal ``rho.dim``.  The reduced matrix
    is returned over the kept factors in their original order.  A
    :class:`PureState` is traced as its outer product, without building
    and validating the full-register :class:`DensityMatrix`; the result
    equals ``partial_trace(rho.to_density(), dims, keep)`` bit for bit.
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    if math.prod(dims) != rho.dim:
        raise ValueError(f"prod({dims}) != matrix dimension {rho.dim}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep={keep} is not a nonempty subset of factor indices")
    n = len(dims)
    if isinstance(rho, PureState):
        v = rho.amplitudes
        matrix = np.outer(v, v.conj())
    else:
        matrix = rho.matrix
    tensor = matrix.reshape(dims + dims)
    # einsum with integer subscripts: traced factors share row/col labels
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out_sub = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tensor, row + col, out_sub)
    d_keep = math.prod(dims[k] for k in keep)
    return DensityMatrix(reduced.reshape(d_keep, d_keep))


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with real eigenvalues ``w`` sorted descending and
    the matching orthonormal eigenvectors as columns of ``v``.  The
    residual ``mat @ v - v @ diag(w)`` is checked against
    ``EIGEN_TOL``.
    """
    arr = _as_complex_matrix(mat, "herm_eig input")
    if np.max(np.abs(arr - arr.conj().T)) > EIGEN_TOL:
        raise ValueError("herm_eig input is not Hermitian")
    w, v = np.linalg.eigh((arr + arr.conj().T) / 2.0)
    order = np.argsort(w)[::-1]
    w, v = w[order].real, v[:, order]
    residual = np.max(np.abs(arr @ v - v @ np.diag(w)))
    if residual > EIGEN_TOL:
        raise ValueError(f"eigendecomposition residual {residual:.3e} too large")
    return w, v


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of ``a - b``."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    diff = a.matrix - b.matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def basis_state(dim: int, level: int) -> PureState:
    """Computational basis vector ``|level>`` in ``dim`` dimensions."""
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside [0, {dim})")
    v = np.zeros(dim, dtype=np.complex128)
    v[level] = 1.0
    return PureState(v)


def bloch_state(theta: float, phi: float) -> PureState:
    """Qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    v = np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=np.complex128,
    )
    return PureState(v)


def uniform_state(dim: int) -> PureState:
    """Equal-amplitude superposition over all ``dim`` levels."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return PureState(np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))
