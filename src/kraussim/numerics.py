"""Dense complex linear algebra helpers shared by the rest of the package.

Everything works on row-major ``numpy`` arrays with ``complex128`` entries.
Matrices are kept small (composite dimensions up to ``2**10``), so dense
routines are used throughout.  Two module constants, ``VALIDATION_TOL``
and ``EIGEN_TOL``, hold the thresholds, so the whole package agrees on
what "numerically zero" means; the README's Tolerances table lists them
with the package's other thresholds and the bound each implies.

The constructors of :class:`DensityMatrix` and :class:`PureState` check
every property.  The package's producers of density matrices build
through :meth:`DensityMatrix._bounded` instead: it keeps the shape,
finiteness, Hermiticity and trace checks, and takes a lower bound on the
smallest eigenvalue that the construction gives in place of ``eigvalsh``
wherever that bound, less :func:`_allowance` for rounding, clears
``-VALIDATION_TOL``.

The typed readers (``read_integer``, ``read_real``, which with
``finite=True`` also rejects NaN and infinities, ``read_complex``,
``read_string``, ``read_list`` and ``read_object``, and ``read_matrix`` for
a square list of rows of complex entries) are the one rule for what a JSON
field holds.  Each accepts only its own JSON
type: no reader takes a boolean, and none takes a string that spells a
number; ``read_integer`` takes a float without a fraction (``7.0`` reads
as 7).  A reader given a ``default`` reads a null (absent) field as it.
Every rejection is a :class:`ConfigError` whose message starts with the
field's full path, such as ``sweep.points`` or ``Kraus operator 1 entry
(0, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "read_integer", "read_real", "read_complex",
    "read_string", "read_list", "read_object", "read_matrix",
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


class ConfigError(ValueError):
    """Malformed configuration, channel file, or command arguments."""


_REQUIRED = object()


def _typed(value, path: str, types, kind: str, default=_REQUIRED):
    """``value`` if it is one of ``types`` and no boolean, or ``default``, when
    one is given, for a null value."""
    if value is None and default is not _REQUIRED:
        return default
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{path}: must be {kind}, got {value!r}")
    return value


def read_integer(value, path: str, minimum=None, maximum=None, default=_REQUIRED) -> int:
    """An integer, or a float without a fraction, within the bounds given."""
    number = _typed(value, path, (int, float), "an integer", default)
    if isinstance(number, float) and not number.is_integer():
        raise ConfigError(f"{path}: must be an integer, got {number!r}")
    number = int(number)
    if minimum is not None and number < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {number}")
    return number


def read_real(value, path: str, finite: bool = False) -> float:
    """A number as a float, and with ``finite`` neither NaN nor infinite; an
    integer too large for a float is rejected."""
    try:
        number = float(_typed(value, path, (int, float), "a real number"))
    except OverflowError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if finite and not math.isfinite(number):
        raise ConfigError(f"{path}: must be finite, got {number}")
    return number


def read_complex(value, path: str) -> complex:
    """A real number, or an ``[re, im]`` pair of them, as a complex."""
    pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    try:
        return complex(read_real(pair[0], path), read_real(pair[1], path))
    except ConfigError as exc:
        raise ConfigError(f"{path}: must be a number or [re, im], got {value!r}") from exc


def read_string(value, path: str, default=_REQUIRED) -> str:
    """A JSON string."""
    return _typed(value, path, str, "a string", default)


def read_list(value, path: str) -> list:
    """A JSON array: a list, or a tuple from a Python caller."""
    return _typed(value, path, (list, tuple), "a list")


def read_object(value, path: str, default=_REQUIRED) -> dict:
    """A JSON object."""
    return _typed(value, path, dict, "an object", default)


def read_matrix(value, path: str) -> np.ndarray:
    """A square complex matrix: a list of rows, each with one :func:`read_complex` entry per row."""
    rows = read_list(value, path)
    for i, row in enumerate(rows):
        if len(read_list(row, f"{path} row {i}")) != len(rows):
            raise ConfigError(f"{path} row {i}: must have {len(rows)} entries, got {len(row)}")
    return np.array([[read_complex(v, f"{path} entry ({i}, {j})") for j, v in enumerate(row)]
                     for i, row in enumerate(rows)], dtype=np.complex128)


# thresholds of state and channel validation, and of eigensolver checks
VALIDATION_TOL = 1e-10
EIGEN_TOL = 1e-8


def _as_complex_matrix(mat: np.ndarray, what: str, stack: bool = False) -> np.ndarray:
    """``mat`` as a C-contiguous complex copy, checked square, at most ``MAX_DIM``
    wide and finite; with ``stack``, a ``(P, d, d)`` stack of such matrices too."""
    arr = np.array(mat, dtype=np.complex128, order="C")
    if arr.ndim not in ((2, 3) if stack else (2,)) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if arr.shape[-1] < 1 or arr.shape[-1] > MAX_DIM:
        raise ValueError(f"{what} dimension {arr.shape[-1]} outside [1, {MAX_DIM}]")
    _check_finite(arr, f"{what} entry")
    return arr


def _stack_row(row: int, rows: int) -> str:
    """The prefix of an error that names row ``row`` of a stack of ``rows``
    matrices: none for a stack of one, which fails as its one matrix would."""
    return f"stack row {row}: " if rows > 1 else ""


def _check_finite(arr: np.ndarray, what: str) -> None:
    """Reject NaN and infinite entries: every tolerance comparison with NaN is false."""
    finite = np.isfinite(arr)
    if not finite.all():
        index = tuple(np.argwhere(~finite)[0].tolist())
        raise ValueError(f"{what} {index if arr.ndim > 1 else index[0]} is not finite: {arr[index]}")


# Machine epsilon, the unit of the rounding allowance below.
_EPS = float(np.finfo(np.float64).eps)


def _allowance(n: int, terms: int) -> float:
    """Room for rounding between a producer's eigenvalue bound and the check
    it stands for, ``n * (terms + n) * eps``.  An n x n result whose entries
    are sums of ``terms`` rounded products, the magnitudes of each entry's
    products summing to at most 1 (as in a Gram matrix or a product of
    states), lies within ``n * terms * eps`` of the exact one in Frobenius
    norm, so its eigenvalues do by Weyl's inequality; the other ``n * n *
    eps`` covers the error of ``eigvalsh`` on a matrix of norm at most 1."""
    return n * (terms + n) * _EPS


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix.

    The constructor checks that every entry is finite, then Hermiticity,
    unit trace and positive semidefiniteness within ``VALIDATION_TOL``.
    The stored array is a private copy marked read-only, so instances
    behave as immutable values.  Equality and hashing are by identity.

    Each instance also keeps ``_floor``, a lower bound on the smallest
    eigenvalue of its matrix's Hermitian part: from the constructor,
    ``eigvalsh``'s minimum less ``_allowance(n, 0)``.  The package's own
    producers build through :meth:`_bounded` instead, which takes the
    bound the construction gives.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self._settle(_as_complex_matrix(self.matrix, "density matrix"), None)

    @classmethod
    def _bounded(cls, matrix: np.ndarray, floor: float, terms: int) -> DensityMatrix:
        """A density matrix from a producer that knows ``floor``, a lower bound
        on the smallest eigenvalue of the exact value that ``matrix`` rounds,
        whose entries are sums of at most ``terms`` rounded products.

        The shape, finiteness, Hermiticity and trace checks run as in the
        constructor.  If ``floor - _allowance(n, terms)`` is at least
        ``-VALIDATION_TOL``, that bound passes the eigenvalue check:
        ``eigvalsh`` would find no eigenvalue below the tolerance.
        Otherwise ``eigvalsh`` runs as in the constructor.  So both accept
        and reject the same matrices, with the same messages."""
        arr = _as_complex_matrix(matrix, "density matrix")
        rho = object.__new__(cls)
        rho._settle(arr, floor - _allowance(arr.shape[0], terms))
        return rho

    def _settle(self, arr: np.ndarray, floor: float | None) -> None:
        """Check ``arr`` as a density matrix, the eigenvalues by ``eigvalsh``
        unless ``floor`` certifies them, and store it read-only with its floor."""
        herm_defect = np.max(np.abs(arr - arr.conj().T))
        if herm_defect > VALIDATION_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(arr.trace() - 1.0)
        if trace_defect > VALIDATION_TOL:
            raise ValueError(f"density matrix trace {arr.trace():.12f} != 1")
        if floor is None or not floor >= -VALIDATION_TOL:  # a NaN floor decides nothing
            lo = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min()
            if lo < -VALIDATION_TOL:
                raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
            floor = float(lo) - _allowance(arr.shape[0], 0)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_floor", floor)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm complex amplitude vector with finite entries.  Equality
    and hashing are by identity."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if arr.size < 1 or arr.size > MAX_DIM:
            raise ValueError(f"state dimension {arr.size} outside [1, {MAX_DIM}]")
        _check_finite(arr, "state amplitude")
        norm_defect = abs(np.vdot(arr, arr).real - 1.0)
        if norm_defect > VALIDATION_TOL:
            raise ValueError(f"state not normalized (|norm^2 - 1| = {norm_defect:.3e})")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> DensityMatrix:
        """The outer product |v><v|: positive semidefinite, so checked on the
        floor 0.0, each entry one rounded product."""
        v = self.amplitudes
        return DensityMatrix._bounded(np.outer(v, v.conj()), 0.0, 1)


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
    :class:`PureState` is traced without its outer product: only the
    products on the traced diagonal, the state's dimension times the kept
    dimension of them, are formed; the result equals
    ``partial_trace(rho.to_density(), dims, keep)`` bit for bit.

    The result is checked as a density matrix on a floor its construction
    gives (:meth:`DensityMatrix._bounded`): from a pure state it is a Gram
    matrix, with floor 0.0, and from a density matrix each of its
    ``d_traced`` traced blocks is a compression of ``rho``, so its smallest
    eigenvalue is at least ``d_traced`` times ``rho``'s floor.
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
    d_keep = math.prod(dims[k] for k in keep)
    if isinstance(rho, PureState):
        # the density path's einsum reads the outer product only on its traced
        # diagonal and adds those terms to a zeroed output one at a time, in
        # traced-index order: form just them, v[t, i] * conj(v[t, j]) at
        # (t, i, j), and add them alike with a running sum; adding 0.0 turns the
        # -0.0 that only all-(-0.0) terms sum to into the zeroed output's +0.0.
        # With nothing traced that einsum adds nothing and returns the products.
        traced = [i for i in range(n) if i not in keep]
        v = rho.amplitudes.reshape(dims).transpose(traced + keep).reshape(-1, d_keep)
        terms = v[:, :, None] * v.conj()[:, None, :]
        reduced = (np.add.accumulate(terms, axis=0)[-1] + 0.0) if traced else terms[0]
        floor = 0.0
    else:
        tensor = rho.matrix.reshape(dims + dims)
        # einsum with integer subscripts: traced factors share row/col labels
        row = list(range(n))
        col = [i + n if i in keep else i for i in range(n)]
        out_sub = [i for i in keep] + [i + n for i in keep]
        reduced = np.einsum(tensor, row + col, out_sub)
        floor = rho._floor * (rho.dim // d_keep)
    return DensityMatrix._bounded(reduced.reshape(d_keep, d_keep), floor, rho.dim // d_keep)


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each of a ``(P, d, d)`` stack.

    Returns ``(w, v)`` with real eigenvalues ``w`` sorted descending and
    the matching orthonormal eigenvectors as columns of ``v``, a stack's
    with its leading axis.  Each matrix is checked Hermitian, and its
    residual ``mat @ v - v @ diag(w)`` against ``EIGEN_TOL``.  A stack
    takes one ``eigh`` call and one row-wise ``argsort``, and each
    matrix's ``(w, v)`` is byte for byte its own call's.  A failure in a
    stack of more than one names the row (:func:`_stack_row`).
    """
    arr = _as_complex_matrix(mat, "herm_eig input", stack=True)
    stack = arr.reshape((-1,) + arr.shape[-2:])
    adjoint = stack.conj().transpose(0, 2, 1)
    defects = np.abs(stack - adjoint).max(axis=(1, 2))
    if (defects > EIGEN_TOL).any():
        raise ValueError(f"{_stack_row(np.argmax(defects > EIGEN_TOL), len(stack))}herm_eig input is not Hermitian")
    w, v = np.linalg.eigh((stack + adjoint) / 2.0)
    order = np.argsort(w, axis=1)[:, ::-1]
    w, v = np.take_along_axis(w, order, axis=1), np.take_along_axis(v, order[:, None, :], axis=2)
    diagonals = np.zeros(stack.shape)
    diagonals[:, range(stack.shape[1]), range(stack.shape[1])] = w
    residuals = np.abs(stack @ v - v @ diagonals).max(axis=(1, 2))
    if (residuals > EIGEN_TOL).any():
        row = np.argmax(residuals > EIGEN_TOL)
        raise ValueError(f"{_stack_row(row, len(stack))}eigendecomposition residual {residuals[row]:.3e} too large")
    return w.reshape(arr.shape[:-1]), v.reshape(arr.shape)


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
