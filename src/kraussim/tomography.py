"""Pauli-basis state tomography of a qubit register.

The measurement plan is the full product-basis set: 3^n settings, one per
assignment of X/Y/Z to each system qubit.  A setting's pre-measurement
rotation maps the chosen Pauli eigenbasis onto the computational basis:
X uses Ry(-pi/2); Y uses the Rx(pi/2) composition Rz(pi/2), Ry(pi/2),
Rz(-pi/2); Z measures directly.

The measured data is one ``(3^n, 2^n)`` weight matrix: one row per
setting, in :func:`settings_for` order, over the outcomes of the n
measured qubits.  A row holds counts or frequencies alike, since each is
divided by its own total.  Pauli expectations and their standard errors
are vectors over the 4^n Pauli strings in ``itertools.product("IXYZ")``
order, the first letter acting on the first qubit.  Only these n system
qubits are measured: a caller whose register holds more qubits sums each
setting's outcome probabilities over them before drawing shots.  The
settings' estimates on one parity mask, masked positions first, are a
table of its strings by the settings that measure them; a mask with w
non-identity positions has a ``(3^w, 3^(n-w))`` table, so the masks of one
weight are stacked and averaged in one pass, n passes in all.  A sweep
measures many registers of one size at once: expectations and
reconstruction also take a stack of them along a leading axis, in one
pass of the same arithmetic, and give each its own call's bytes.  Everything
that depends on n alone (the settings, the string tables, each weight's
gather table and the inversion's order) is built once per register size
and kept read-only; nothing that depends on the data is kept.

Each Pauli string is a signed permutation of the basis states, so linear
inversion, ``rho = sum_P <P> P / 2^n``, sums 2^n strings per entry and
forms no dense Pauli matrix.  A positive-semidefinite projection follows:
it clips negative eigenvalues and removes the clipped mass from the
positive ones proportionally (trace preserving, idempotent).  States of an
embedded qudit are reconstructed on their qubit register and then
restricted to the populated block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import DensityMatrix, _stack_row, herm_eig
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
]

# Register sizes whose m-only tables are kept; each sweep part reads its own m.
_TABLE_CACHE = 16

# Letters I, X, Y, Z as signed permutations of one qubit: X-flip bit,
# non-identity bit, entries on |0> and |1> (Y = iXZ).
_FLIP = np.array([0, 1, 1, 0])
_ACTIVE = np.array([0, 1, 1, 1])
_ENTRIES = np.array([[1, 1], [1, 1], [1j, -1j], [1, -1]])


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
    """All 3^m settings of the m system qubits, which lead the register; ``rotations[s]``
    is ``settings[s]``'s gate list, qubit q's X, Y or Z rotation taken from ``layers[q]``."""

    settings: tuple[tuple[str, ...], ...]
    rotations: tuple[tuple[Gate, ...], ...]
    layers: tuple[tuple[tuple[Gate, ...], ...], ...]


@functools.lru_cache(maxsize=_TABLE_CACHE)
def settings_for(m: int) -> TomographySettings:
    """The 3^m settings of m system qubits, built once per m."""
    if m < 1:
        raise ValueError(f"tomography needs at least one system qubit, got {m}")
    layers = tuple(tuple(basis_rotation(label, q) for label in "XYZ") for q in range(m))
    settings = tuple(itertools.product("XYZ", repeat=m))
    rotations = tuple(tuple(itertools.chain.from_iterable(c)) for c in itertools.product(*layers))
    return TomographySettings(settings, rotations, layers)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _pauli_strings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flips, masks, entries)``: string k maps |b> to ``entries[k, b] |b ^ flips[k]>``
    and acts on the positions in ``masks[k]`` (bit n-1-i for position i).  Read-only,
    built once per n."""
    flips = masks = np.zeros(1, dtype=np.int64)
    entries = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):  # each string gains a last letter, as a Kronecker factor
        flips = (2 * flips[:, None] + _FLIP).ravel()
        masks = (2 * masks[:, None] + _ACTIVE).ravel()
        entries = (entries[:, None, :, None] * _ENTRIES[:, None, :]).reshape(flips.size, -1)
    return _read_only(flips, masks, entries)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _expectation_tables(n: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """``(signs, by_weight)``, read-only and built once per n.

    ``signs[mask]`` is the I/Z string on ``mask`` as outcome signs (no flips, in
    mask order).  ``by_weight[w - 1]`` is ``(strings, index)`` for the masks with
    w set bits, in ascending mask order, each of whose gather tables has the
    shape ``(3^w, 3^(n-w))``: the indices of the strings on those masks, mask by
    mask, and the masks' tables stacked into one ``(C * 3^w, 3^(n-w))`` index
    into the flattened ``(3^n, 2^n)`` matrix of setting estimates by mask.
    ``estimates.take(index)`` is a C-contiguous table whose row r is the r-th
    string's mask over that string's compatible settings in ascending order.
    A row reduction adds as over those settings gathered in one vector; a
    strided view from ``reshape`` would not."""
    flips, masks, entries = _pauli_strings(n)
    settings = np.arange(3**n).reshape((3,) * n)
    groups: list[tuple[list, list]] = [([], []) for _ in range(n)]
    for mask in range(1, 2**n):
        active = [i for i in range(n) if mask >> (n - 1 - i) & 1]
        table = np.moveaxis(settings, active, range(len(active))).reshape(3 ** len(active), -1)
        strings, index = groups[len(active) - 1]
        strings.append(np.flatnonzero(masks == mask))
        index.append(table * 2**n + mask)
    by_weight = tuple(_read_only(np.concatenate(strings), np.concatenate(index)) for strings, index in groups)
    [signs] = _read_only(entries[flips == 0].real.copy())
    return signs, by_weight


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _inversion_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sorted_entries)`` for :func:`reconstruct`, read-only and built once
    per n: the strings grouped by X-mask in string order (a stable sort), and
    their entries in that order as a ``(2^n, 2^n, 2^n)`` array by X-mask."""
    flips, _, entries = _pauli_strings(n)
    order = np.argsort(flips, kind="stable")
    return _read_only(order, entries[order].reshape(2**n, 2**n, 2**n))


def expectations(
    weights: np.ndarray, shots: int | Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pauli expectation values and their standard errors, as two vectors, or
    one row of each per matrix of a stack.

    ``weights`` is one ``(3^n, 2^n)`` array, or a ``(P, 3^n, 2^n)`` stack of
    them: row s holds the nonnegative
    outcome weights of the n measured qubits under the s-th setting of
    :func:`settings_for`, as counts or as the frequencies :func:`mitigate`
    returns.  Each row is divided by its total, summed in ascending
    outcome order.  A Pauli string's value is the parity expectation of
    its non-identity positions, averaged over every setting compatible
    with those positions, one row reduction per mask, all the masks of one
    weight in one pass; identity positions are marginalized.  Entry k
    of ``values`` and ``errors`` belongs to the k-th string of
    ``itertools.product("IXYZ", repeat=n)``; the all-identity string has
    value 1 and error 0.  ``shots`` is one positive total for every
    setting, one per setting or, for a stack, one per setting of each
    matrix; standard errors use the binomial estimate
    sqrt((1 - m^2) / shots) per setting, and ``errors`` is ``None`` when
    ``shots`` is.  A stack is one pass of the same arithmetic, and row p
    of its results is byte for byte matrix p's own call's.

    A malformed shape, a row with a negative or non-finite weight or with
    no mass (each named by its setting, and in a stack of more than one by
    its stack row), or ``shots`` of the wrong length or not positive
    raises ``ValueError``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    rows, size = weights.shape[-2:] if weights.ndim in (2, 3) else (0, 0)
    n = size.bit_length() - 1
    if n < 1 or size != 2**n or rows != 3**n:
        raise ValueError(
            f"weights of shape {weights.shape} are not 3^n settings by 2^n outcomes, n >= 1"
        )
    stack = weights.reshape(-1, rows, size)

    def reject(bad: np.ndarray, problem: str) -> None:
        if bad.any():
            row, setting = np.argwhere(bad)[0]
            raise ValueError(f"{_stack_row(row, len(stack))}setting {''.join(settings_for(n).settings[setting])} "
                             f"has {problem}")

    reject(~((stack >= 0.0) & (stack < np.inf)).all(axis=2), "a negative or non-finite weight")
    totals = np.cumsum(stack, axis=2)[:, :, -1]
    reject(~(totals > 0.0), "no probability mass")
    if shots is not None:
        shots = np.asarray(shots, dtype=np.float64)
        if shots.shape not in ((), (rows,), weights.shape[:-1]):
            raise ValueError(f"shots: {shots.size} totals for {rows} settings")
        if not (shots > 0.0).all():
            raise ValueError(f"shots: total {shots.min():g} is not positive")
        shots = np.broadcast_to(shots, weights.shape[:-1]).reshape(totals.shape)
    stack = stack / totals[:, :, None]
    signs, by_weight = _expectation_tables(n)

    # estimates[p, s, mask]: setting s's parity expectation over the positions
    # in ``mask``, signed by the I/Z strings.  Each is a sequential sum in
    # ascending outcome order (cumsum, not a pairwise sum), which fixes its
    # rounding and so the sampled CSV bytes.
    estimates = np.stack([np.cumsum(stack * sign, axis=2)[:, :, -1] for sign in signs], axis=2)
    spread = np.maximum(0.0, 1.0 - estimates * estimates)

    values = np.ones((len(stack), 4**n))
    errors = None
    if shots is not None:
        errors = np.zeros((len(stack), 4**n))
        spread /= shots[:, :, None]  # each estimate's binomial variance
    # the identity string keeps value 1, error 0; each weight's masks in one
    # pass, a gather per matrix of its flattened (3^n, 2^n) estimates
    estimates, spread = estimates.reshape(len(stack), -1), spread.reshape(len(stack), -1)
    for strings, index in by_weight:
        values[:, strings] = estimates.take(index, axis=1).mean(axis=2)
        if errors is not None:
            # cumsum adds in sequence, not pairwise, which fixes each error's rounding
            variances = spread.take(index, axis=1)
            errors[:, strings] = np.sqrt(np.cumsum(variances, axis=2)[:, :, -1]) / variances.shape[2]
    shape = weights.shape[:-2] + (4**n,)
    return values.reshape(shape), None if errors is None else errors.reshape(shape)


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues, absorbing the loss into the positive ones.

    The clipped mass is removed from the remaining eigenvalues in
    proportion to their size, so the trace is preserved and projecting a
    valid state is the identity.
    """
    return _project_psd(mat)[0]


def _project_psd(mat: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """:func:`project_psd`'s matrix and the smallest eigenvalue of the
    spectrum it keeps: ``herm_eig``'s own when nothing is clipped, else 0.0,
    since ``(v * w) @ v^H`` with every ``w >= 0`` is positive semidefinite
    for any ``v``.

    A ``(P, d, d)`` stack gives the stack of projections and one floor per
    matrix, each byte for byte its own call's: one ``herm_eig`` call, and
    one stacked product over the matrices that clip.  Each matrix's clipped
    and kept masses are summed over its own eigenvalues, as one call sums
    them, since a sum's rounding depends on how many terms it adds."""
    arr = np.asarray(mat, dtype=np.complex128)
    w, v = herm_eig((arr + arr.conj().swapaxes(-1, -2)) / 2.0)
    w, v = w.reshape(-1, w.shape[-1]), v.reshape((-1,) + v.shape[-2:])
    projected = arr.reshape(v.shape).copy()
    floors = w[:, -1].copy()
    negative = np.array([row[row < 0.0].sum() for row in w])
    clipped = np.flatnonzero(negative != 0.0)
    if clipped.size:
        positive = np.array([row[row > 0.0].sum() for row in w[clipped]])
        if (positive <= 0.0).any():
            row = clipped[np.argmax(positive <= 0.0)]
            raise ValueError(f"{_stack_row(row, len(w))}matrix has no positive eigenvalue mass")
        scale = 1.0 + negative[clipped] / positive  # negative is <= 0
        kept = np.where(w[clipped] > 0.0, w[clipped] * scale[:, None], 0.0)
        vectors = v[clipped]
        projected[clipped] = (vectors * kept[:, None, :]) @ vectors.conj().transpose(0, 2, 1)
        floors[clipped] = 0.0
    if arr.ndim == 2:
        return projected[0], float(floors[0])
    return projected, floors


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Linear-inversion output: the raw matrix and its projected state, or for
    a stack the ``(P, d, d)`` raw matrices and one projected state per matrix.
    Equality and hashing are by identity."""

    raw: np.ndarray
    projected: DensityMatrix | tuple[DensityMatrix, ...]


def reconstruct(values: np.ndarray) -> TomographyResult:
    """Assemble rho from the 4^n Pauli expectations in the order of
    :func:`expectations`, and project it onto valid states; a ``(P, 4^n)``
    stack of value vectors gives one of each per row, in one pass of the same
    arithmetic, byte for byte each row's own call.

    A vector of the wrong shape, or a NaN or infinite value (named by its
    Pauli string, and in a stack of more than one by its stack row), raises
    ``ValueError`` before any arithmetic."""
    values = np.asarray(values, dtype=np.float64)
    size = values.shape[-1] if values.ndim in (1, 2) else 0
    n = (size.bit_length() - 1) // 2
    if size != 4**n:
        raise ValueError(f"expectation values of shape {values.shape} are not a vector of 4^n")
    stack = values.reshape(-1, size)
    finite = np.isfinite(stack)
    if not finite.all():
        row, string = np.argwhere(~finite)[0]
        name = list(itertools.product("IXYZ", repeat=n))[string]
        raise ValueError(f"{_stack_row(row, len(stack))}expectation of {''.join(name)} is not finite")
    order, sorted_entries = _inversion_tables(n)
    # Entry (b ^ x, b) sums the 2^n strings of X-mask x, grouped in string
    # order by a stable sort.  A sequential sum (cumsum, not pairwise) added
    # to zero rounds, signed zeros too, as adding one matrix per string does.
    terms = stack[:, order].reshape(len(stack), 2**n, 2**n, 1) * sorted_entries
    b = np.arange(2**n)
    raw = np.zeros((len(stack), 2**n, 2**n), dtype=np.complex128)
    raw[:, b[:, None] ^ b, b] += np.cumsum(terms, axis=2)[:, :, -1]
    raw /= 2**n
    raw = raw.reshape(values.shape[:-1] + raw.shape[1:])
    # checked on the floor of the spectrum the projection keeps: herm_eig's
    # eigenvalues are within 2^n * 2^n * eps of the exact ones, and the
    # product (v * w) @ v^H sums 2^n terms per entry, so terms = 2^n covers
    # either case
    projected, floor = _project_psd(raw)
    if raw.ndim == 2:
        return TomographyResult(raw, DensityMatrix._bounded(projected, floor, 2**n))
    return TomographyResult(raw, tuple(DensityMatrix._bounded(p, f, 2**n) for p, f in zip(projected, floor)))


def extract_embedded(
    state: DensityMatrix, dim: int
) -> tuple[DensityMatrix, float]:
    """Restrict a reconstructed register state to its populated qudit block.

    Keeps the top-left ``dim x dim`` block (embedded levels are the low
    basis indices), renormalizes its trace, and reports the probability
    mass dropped with the padded levels.  Exact reconstructions of
    embedded states drop exactly zero.

    The block is checked on the floor that Cauchy interlacing gives: a
    principal submatrix has no eigenvalue below ``state``'s smallest, and
    the division scales each by ``1 / kept``.
    """
    if dim < 1 or dim > state.dim:
        raise ValueError(f"block dimension {dim} outside [1, {state.dim}]")
    block = np.array(state.matrix[:dim, :dim])
    kept = float(np.trace(block).real)
    if kept <= 0.0:
        raise ValueError("embedded block carries no probability mass")
    return DensityMatrix._bounded(block / kept, state._floor / kept, 1), 1.0 - kept
