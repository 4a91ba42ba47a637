"""Statevector simulator with shot sampling and a readout error model.

A circuit holds three kinds of element: elementary gates (a bare X, Ry or
Rz, or a CX), Ry or Rz multiplexors (:class:`~kraussim.qsp.Multiplexor`,
the one way a controlled rotation is written) and the Gray-code walks
that lowering makes of them (:class:`~kraussim.qsp.GrayWalk`).  One loop,
:func:`_apply_elements`, applies them in place to a ``(2^n,)`` state or a
``(2^n, k)`` batch of states; :func:`run` applies a circuit to the state
from |0...0>.  No 2^n x 2^n gate matrix is ever formed.  Each maximal run
of elements on one target t is a segment, applied by the one kernel
:func:`_apply_segment`: its amplitude pairs are gathered once into a
contiguous ``(2^t, rest, 2)`` array and written back once.  Each bare gate
and CX there goes to the per-gate kernel :func:`_apply_gate`: Ry
multiplies every row by the transposed 2x2 in one BLAS ``zgemm`` call, Rz
scales the columns, X swaps them and a CX swaps them on the rows where its
control bit is set.  :func:`branch_stack` carries a stack of phase-free
states through the tomography settings' layers, each layer's
alternatives bare gates on one qubit, as one C-contiguous array of rows,
one state per row: per layer each alternative with gates gathers that
qubit's pairs of every row into one scratch in the segment layout, applies
its gates by :func:`_apply_gate` and writes them into its slot of the
layer's one output; the alternative with none is copied into its slot.
Each state's phase scales its block of rows last.  :func:`run_branches`
is one circuit's :func:`run`, its phase left out, then that pass.  A
multiplexor and a walk are both rows plus one angle per row, applied by
:func:`_apply_level` as one stacked ``matmul`` (Ry) or one column scale
(Rz): a multiplexor over its entry rows, and a walk over all 2^t rows as
what its gates compose to, one rotation per control pattern
(:meth:`~kraussim.qsp.GrayWalk.pattern_angles`, which lowering computes
once and the walk holds, so no run transforms them).  For gates and
multiplexors the state keeps the bits of ``Circuit.gates`` applied one by
one; the swaps and scalings drop only the matrix product's terms
multiplied by zero.  A walk's state agrees with its gates one by one to
rounding, not bit for bit.  Qubit 0
is the most significant bit of basis labels, and the outcome indices of
sampled counts follow the same convention.

Randomness comes from the counter-based Philox generator, whose stream is
fixed by its key alone.  Sampling takes one stream per row of its matrix,
keyed by a root seed plus an index path, so results are reproducible and
independent of evaluation order.  :func:`derive_keys` is the one place
streams are made: one call gives a stack of parts' streams as one
``(k, 2)`` ``uint64`` key matrix, one key per path tail (``derive_rng``
makes a generator from its one-row case).  The keys are
``SeedSequence(seed, spawn_key=path)``'s, computed without one: the seed
and the shared path prefix are hashed once into the pool that every stream
shares, then each tail column mixes into a ``(4, k)`` ``uint32`` pool in a
few array passes.  Sampling turns a ``(k, 2^m)`` probability matrix, one
row per setting, into its count matrix: one division normalizes every row,
then one Philox generator, re-keyed per row from counter zero, makes one
multinomial draw per row.  Readout
noise draws nothing: it maps the probabilities before the draw, and
mitigation the frequencies after it, through one per-qubit kernel,
:func:`_apply_per_qubit`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import ConfigError, PureState, check_register, read_real
from .qsp import Circuit, Gate, GrayWalk, Multiplexor, _built, _label, check_qubits, rotation_stack

__all__ = [
    "ShotCounts",
    "ReadoutModel",
    "run",
    "run_branches",
    "branch_stack",
    "sample",
    "apply_readout_noise",
    "mitigate",
    "derive_rng",
    "derive_keys",
]

# SeedSequence's hash constants (numpy.random.bit_generator): the entropy mix
# (A), the state output (B), and the mix of two pool words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # pool words; the first 4 * 4 hash calls fill and cross-mix the pool


def _hash_chain(start: int, mult: int, count: int) -> np.ndarray:
    """``count + 1`` successive hash constants as ``uint32``, each the last times ``mult``."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK)
    return np.array(chain, dtype=np.uint32)


# generate_state(2, np.uint64) hashes pool word d with constant d and multiplies by constant d + 1
_OUT_CHAIN = _hash_chain(_INIT_B, _MULT_B, _POOL)[:, None]


@functools.lru_cache(maxsize=32)
def _tail_constants(start: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constants with which entropy words ``start`` to ``start + width - 1``
    (``start >= 4``) mix into the pool, as two read-only ``(width, 4, 1)`` ``uint32``
    arrays: word w goes into pool word d by hash call 4w + d, which xors it with
    that call's constant and multiplies by the next.  They depend on word
    position alone, so one table serves every seed and path."""
    chain = _hash_chain(_INIT_A * pow(_MULT_A, 4 * start, 1 << 32) & _MASK, _MULT_A, 4 * width)
    xors, mults = chain[:-1].reshape(width, _POOL, 1), chain[1:].reshape(width, _POOL, 1)
    xors.flags.writeable = mults.flags.writeable = False
    return xors, mults


def _words(value: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative integer, least significant first."""
    return [value >> shift & _MASK for shift in range(0, max(value.bit_length(), 1), 32)]


def _is_index(value) -> bool:
    """Whether ``value`` is a non-negative integer, a bool not counted as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)) and value >= 0


def _stream_entry(value, where: str) -> int:
    """``value`` as a Python int, or one ``streams`` error naming ``where`` and the value."""
    if not _is_index(value):
        raise ValueError(f"streams: {where} must be a non-negative integer, got {value!r}")
    return int(value)


def _shared_pool(seed: int, prefix: Sequence[int]) -> tuple[list[int], int]:
    """SeedSequence's entropy pool after the seed and ``prefix`` words, and the
    number of entropy words mixed so far, in Python ints masked to 32 bits.

    With a spawn key, a run entropy shorter than the pool is padded with
    zeros, so the pool is filled and cross-mixed from the seed alone; each
    later word then only mixes into every pool word in turn."""
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    for value in prefix:
        entropy += _words(value)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK
        value = value * const & _MASK
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK
        return result ^ result >> 16

    pool = [hashmix(value) for value in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(value))
    return pool, len(entropy)


@functools.cache
def _philox_key_type() -> type:
    """The seed sequence that hands ``np.random.Philox`` a derived key in place of
    the ``SeedSequence`` that would give it: Philox asks its seed sequence for
    ``generate_state(2, np.uint64)`` once, and this answers with the key.  Made
    on first use, so importing the simulator does not import ``numpy.random``."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key

    return PhiloxKey


def _check_tails(tails, offset: int) -> np.ndarray:
    """``tails`` as a ``(k, w)`` ``uint32`` matrix: one path tail per row, each
    entry an integer in [0, 2^32), since a tail column holds one word.  The
    first bad entry fails, named as path entry ``offset + j`` of its row."""
    tails = np.asarray(tails)
    if tails.ndim != 2:
        raise ValueError(f"streams: tails of shape {tails.shape} are not a (streams, tail entries) matrix")
    if tails.dtype.kind in "iu":
        bad = (tails < 0) | (tails > _MASK)
    else:  # bools, floats, strings and objects: entry by entry
        bad = ~np.frompyfunc(lambda v: _is_index(v) and v <= _MASK, 1, 1)(tails).astype(bool)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = tails.tolist()[row][col]
        raise ValueError(
            f"streams: row {row} path entry {offset + col} must be an integer in [0, 2^32), got {value!r}"
        )
    return tails.astype(np.uint32)


def derive_keys(seed: int, prefix: Sequence[int], tails) -> np.ndarray:
    """The Philox keys of one stream per row of the integer matrix ``tails``, as a
    read-only ``(k, 2)`` ``uint64`` matrix: row i keys the stream of the path
    ``(*prefix, *tails[i])``, the stream ``derive_rng(seed, *prefix, *tails[i])``.

    The keys are ``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``,
    computed without a ``SeedSequence``.  The seed and prefix words are hashed
    once, in Python ints, into the pool every row shares
    (:func:`_shared_pool`); each tail column, one 32-bit word per row, then
    mixes into a ``(4, k)`` ``uint32`` pool in a few array passes, whose
    unsigned arithmetic wraps as the hash's does.  The output step of
    ``generate_state`` gives 4 words per row, read little-endian as the two
    ``uint64`` words of the key.  The seed, each prefix entry and each tail
    entry must be a non-negative integer (not a bool), and a tail entry below
    2^32; the first that is not fails before any key is made, as one
    ``ValueError`` naming ``streams``, its position and its value.
    """
    seed = _stream_entry(seed, "seed")
    prefix = [_stream_entry(value, f"path entry {i}") for i, value in enumerate(prefix)]
    tails = _check_tails(tails, len(prefix))
    shared, start = _shared_pool(seed, prefix)
    pool = np.broadcast_to(np.array(shared, dtype=np.uint32)[:, None], (_POOL, len(tails)))
    for column, xor, mult in zip(tails.T, *_tail_constants(start, tails.shape[1])):
        hashed = (column ^ xor) * mult
        hashed ^= hashed >> 16
        pool = _MIX_L * pool - _MIX_R * hashed
        pool ^= pool >> 16
    out = (pool ^ _OUT_CHAIN[:-1]) * _OUT_CHAIN[1:]
    out ^= out >> 16
    keys = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


_NO_TAIL = np.zeros((1, 0), dtype=np.uint32)


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for a (seed, index path) pair, keyed by the one-row
    :func:`derive_keys` of the whole path as its prefix.

    Distinct paths give statistically independent streams; the derivation
    is deterministic, so per-point streams do not depend on sweep order.
    """
    [key] = derive_keys(seed, path, _NO_TAIL)
    return np.random.Generator(np.random.Philox(_philox_key_type()(key)))


def _apply_level(pairs: np.ndarray, kind: str, rows: list[int] | slice, stack: np.ndarray) -> None:
    """Apply per row one Ry or Rz on qubit t to the ``(2^t, rest, 2)`` pair array:
    a multiplexor on its entry rows, or a walk on all rows (``slice(None)``).

    ``stack`` holds one entry per row: a transposed Ry matrix or an Rz
    diagonal.  The rows are gathered into one ``(P, rest, 2)`` block.  Ry
    multiplies it by the ``(P, 2, 2)`` matrices in one ``matmul``, which calls
    per row the BLAS routine one gate would; Rz scales it by the ``(P, 1, 2)``
    diagonal entries.  Where rest is 1 (the last qubit of a state), the Rz
    block is formed as one gate's numpy scalars are: the unfused
    ``(ac - bd, ad + bc)``."""
    block = pairs[rows]
    if kind == "ry":
        block = block @ stack
    elif block.shape[1] > 1:
        block *= stack[:, None, :]
    else:
        diag = stack[:, None, :]
        scaled = np.empty_like(block)
        scaled.real = block.real * diag.real - block.imag * diag.imag
        scaled.imag = block.real * diag.imag + block.imag * diag.real
        block = scaled
    pairs[rows] = block


def _apply_gate(pairs: np.ndarray, kind: str, entry: np.ndarray | None) -> None:
    """Apply one bare gate in place to ``pairs``, an array whose last axis holds
    qubit t's two amplitudes: Ry, on a 2-D ``(rows, 2)`` array, multiplies every
    row by ``entry``, its transposed 2x2, in one ``zgemm`` call; Rz scales the
    columns by ``entry``, its diagonal; X (``entry`` None) swaps them.  The one
    per-gate kernel of :func:`_apply_segment` and of :func:`run_branches`' layers."""
    if kind == "ry":
        pairs[...] = pairs @ entry
    elif kind == "rz":
        pairs[..., 0] *= entry[0]
        pairs[..., 1] *= entry[1]
    else:
        pairs[...] = pairs[..., ::-1]


def _apply_segment(
    amps: np.ndarray,
    entries: Sequence[tuple[Gate | Multiplexor | GrayWalk, list[int] | slice | None, slice]],
    n: int,
    stacks: dict[str, np.ndarray],
) -> None:
    """Apply elements on one target t to a ``(2**n,)`` state or a ``(2**n, k)``
    batch, on one contiguous ``(2^t, rest, 2)`` copy of its pairs.

    Row r of the pair array holds the bits of every other qubit, qubit 0 most
    significant, then the batch column; column b holds qubit t's.  Each entry
    is an element, its rows and its span of the stack of its kind in
    ``stacks``: transposed Ry matrices under ``"ry"``, Rz diagonals under
    ``"rz"``.  A multiplexor (its entry rows) and a walk (all 2^t rows) go to
    :func:`_apply_level`.  A bare gate goes to :func:`_apply_gate` on all
    rows, and a CX, as an X, on the rows where its control bit is set."""
    t = entries[0][0].target
    view = amps.reshape(2**t, 2, -1).transpose(0, 2, 1)
    pairs = np.ascontiguousarray(view)
    flat = pairs.reshape(-1, 2)
    by_qubit = pairs.reshape((2,) * (n - 1) + (-1, 2))
    for element, rows, span in entries:
        kind = element.kind
        if rows is not None:
            _apply_level(pairs, kind, rows, stacks[kind][span])
        elif element.controls:  # the control's bit is row axis c, or c - 1 above t
            c = element.controls[0][0]
            _apply_gate(by_qubit[(slice(None),) * (c if c < t else c - 1) + (1,)], kind, None)
        else:
            _apply_gate(flat, kind, None if kind == "x" else stacks[kind][span.start])
    view[...] = pairs


def _apply_elements(amps: np.ndarray, elements: Sequence[Gate | Multiplexor | GrayWalk], n: int) -> None:
    """Apply a circuit's elements in place to a ``(2**n,)`` state or a ``(2**n, k)`` batch.

    One pass gives each element its rows and its span of the stack of its
    kind: a multiplexor its entry rows and one stack row per entry, a walk
    all 2^t rows and one stack row per control pattern (its
    :meth:`~kraussim.qsp.GrayWalk.pattern_angles`, read as the walk holds
    them from lowering), an uncontrolled Ry or Rz no rows and one stack
    row, an X or a CX neither.  A walk whose every slot
    angle is 0.0 is the identity and is left out, so it leaves the bytes as
    they are.  The Ry and Rz matrices are then built for all the elements in
    one :func:`~kraussim.qsp.rotation_stack` call per kind, and each maximal
    run of elements on one target goes to :func:`_apply_segment`."""
    angles: dict[str, list[float]] = {"x": [], "ry": [], "rz": []}
    entries = []
    for e in elements:
        if isinstance(e, Multiplexor):
            rows, new = list(e.rows), e.angles
        elif isinstance(e, GrayWalk):
            if not any(e.angles):
                continue
            rows, new = slice(None), e.pattern_angles().tolist()
        else:
            rows, new = None, () if e.kind == "x" else (e.angle,)
        stack = angles[e.kind]
        entries.append((e, rows, slice(len(stack), len(stack) + len(new))))
        stack.extend(new)
    stacks = {
        "ry": rotation_stack("ry", angles["ry"]).transpose(0, 2, 1),
        "rz": rotation_stack("rz", angles["rz"]).diagonal(axis1=1, axis2=2),
    }
    for _, group in itertools.groupby(entries, lambda entry: entry[0].target):
        _apply_segment(amps, tuple(group), n, stacks)


def run(circuit: Circuit) -> PureState:
    """The state the circuit prepares from |0...0>, its elements applied by
    :func:`_apply_elements` and its global phase last."""
    n = circuit.qubit_count
    check_register(n, "simulator")
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    _apply_elements(state, circuit.elements, n)
    if circuit.global_phase != 0.0:
        state *= np.exp(1j * circuit.global_phase)
    return PureState(state)


def _layer_qubits(layers: Sequence[Sequence[Sequence[Gate]]], n: int) -> list[int]:
    """The one qubit that each layer acts on, 0 for a layer where no
    alternative has a gate, checked on an n-qubit register.

    A layer is a non-empty list of alternatives, each a list of bare X, Ry or
    Rz gates, all on one qubit.  The gates' qubits are checked first by
    :func:`~kraussim.qsp.check_qubits`; each failure is one ValueError that
    begins ``branches: layer <q>``."""
    out = []
    for q, alternatives in enumerate(layers):
        where = f"branches: layer {q} "
        gates = list(itertools.chain.from_iterable(alternatives))
        check_qubits(gates, n, where, f"acts outside the {n}-qubit circuit")
        if not alternatives:
            raise ValueError(f"{where}has no alternatives")
        for gate in gates:
            if not isinstance(gate, Gate) or gate.controls:
                raise ValueError(f"{where}{_label(gate)} is not a bare X, Ry or Rz")
        qubits = sorted({int(gate.target) for gate in gates})
        if len(qubits) > 1:
            raise ValueError(f"{where}acts on qubits {qubits}, not on one")
        out.append(qubits[0] if qubits else 0)
    return out


def _apply_layer(rows: np.ndarray, t: int, alternatives: Sequence[Sequence[Gate]], stacks: dict) -> np.ndarray:
    """The ``(k * A, 2**n)`` rows of one layer's A alternatives on qubit t after the
    ``(k, 2**n)`` rows, row ``A * r + a`` alternative a's after row r, in one
    ``(k, A, 2**n)`` array.  The alternative with no gate is copied into its slot
    as it is.  Each other one gathers qubit t's pairs of every row into one
    ``(k, 2^t, rest, 2)`` scratch, :func:`_apply_segment`'s layout per row, reused
    by each alternative in turn, takes its gates through :func:`_apply_gate`, its
    Ry and Rz entries read in turn from the iterators in ``stacks``, and writes
    the pairs back into its slot."""
    k, size = rows.shape
    out = np.empty((k, len(alternatives), 2**t, 2, size >> (t + 1)), dtype=np.complex128)
    by_qubit = rows.reshape(k, 2**t, 2, -1)
    pairs = by_qubit.transpose(0, 1, 3, 2)
    slots = out.transpose(1, 0, 2, 4, 3)
    scratch = np.empty(pairs.shape, dtype=np.complex128)
    flat = scratch.reshape(-1, 2)
    for a, chosen in enumerate(alternatives):
        if not chosen:
            out[:, a] = by_qubit
            continue
        scratch[...] = pairs
        for gate in chosen:
            _apply_gate(flat, gate.kind, next(stacks[gate.kind]))
        slots[a] = scratch
    return out.reshape(-1, size)


def _branch(rows: np.ndarray, phases: Sequence[float], qubits: Sequence[int],
            layers: Sequence[Sequence[Sequence[Gate]]]) -> np.ndarray:
    """The layer pass of :func:`branch_stack` on checked input: ``layers`` on
    the ``qubits`` that :func:`_layer_qubits` found, after the ``(P, 2**n)``
    phase-free ``rows``, then part p's phase on its block of rows."""
    gates = [gate for alternatives in layers for chosen in alternatives for gate in chosen]
    stacks = {
        "x": itertools.repeat(None),
        "ry": iter(rotation_stack("ry", [g.angle for g in gates if g.kind == "ry"]).transpose(0, 2, 1)),
        "rz": iter(rotation_stack("rz", [g.angle for g in gates if g.kind == "rz"]).diagonal(axis1=1, axis2=2)),
    }
    for t, alternatives in zip(qubits, layers):
        rows = _apply_layer(rows, t, alternatives, stacks)
    if not layers:  # the input rows stay as they are
        rows = rows.copy()
    # each part's phase on its own block, as a whole-array scalar product
    for block, phase in zip(rows.reshape(len(phases), -1, rows.shape[1]), phases):
        if phase != 0.0:
            block *= np.exp(1j * phase)
    return rows


def branch_stack(states: np.ndarray, phases: Sequence[float], layers: Sequence[Sequence[Sequence[Gate]]]) -> np.ndarray:
    """The ``(P * k, 2**n)`` rows of each of the ``(P, 2**n)`` phase-free
    ``states`` then one gate list per layer, times its phase: part p's k rows
    are rows ``p * k`` to ``p * k + k - 1``, in ``itertools.product(*layers)``
    order, each multiplied by ``exp(1j * phases[p])`` last, unless that phase
    is 0.0.  The rows are one writable C-contiguous array; ``states`` is not
    changed.

    Each part's rows are its own one-part call's, byte for byte: each layer is
    one kernel pass over the rows so far (:func:`_apply_layer`), which treats
    every row as on its own, and a part's phase scales its block of rows
    alone, as one scalar product.  A layer is a non-empty list of
    alternatives of bare X, Ry or Rz gates, all on one qubit, as
    :func:`~kraussim.tomography.settings_for` gives them; every layer is
    checked before any gate (:func:`_layer_qubits`), and so is the stack's
    shape, one phase per state.  The layers' Ry and Rz matrices come from one
    :func:`~kraussim.qsp.rotation_stack` call per kind."""
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or len(states) < 1 or states.shape[1] < 2 or states.shape[1] & (states.shape[1] - 1):
        raise ValueError(f"branches: states of shape {states.shape} are not a (parts, 2^n amplitudes) stack")
    if len(phases) != len(states):
        raise ValueError(f"branches: {len(states)} states take one phase each, got {len(phases)}")
    return _branch(states, phases, _layer_qubits(layers, states.shape[1].bit_length() - 1), layers)


def run_branches(circuit: Circuit, layers: Sequence[Sequence[Sequence[Gate]]]) -> np.ndarray:
    """The ``(k, 2**n)`` states of ``circuit`` then one gate list per layer, rows in
    ``itertools.product(*layers)`` order.  Row r is bit for bit
    ``run(Circuit(n, circuit.elements + chosen, circuit.global_phase))``, with
    ``chosen`` its alternatives' gates, for the tomography settings' layers on 1 to 10
    qubits.  The rows are one writable C-contiguous array, so a row sum adds as
    over one state.

    Every layer is checked before any gate (:func:`_layer_qubits`).  The
    circuit's elements then run once through :func:`run`, its global phase
    left out, and :func:`branch_stack`'s layer pass takes that one state and
    the phase, which it applies last."""
    qubits = _layer_qubits(layers, circuit.qubit_count)
    # the circuit's checked fields, and its gates where already expanded
    bare = _built(Circuit, **{**vars(circuit), "global_phase": 0.0})
    return _branch(run(bare).amplitudes[None], (circuit.global_phase,), qubits, layers)


def _check_shape(matrix: np.ndarray, stage: str, noun: str, keys: np.ndarray | None) -> tuple[int, ...]:
    """The shape of a ``(k, 2^n)`` matrix, k >= 1 settings and, where ``keys`` is
    given, a ``(k, 2)`` ``uint64`` key matrix, one stream key per row; a failure
    names the stage and the shape."""
    shape = matrix.shape
    if matrix.ndim != 2 or min(shape) < 1 or shape[1] & (shape[1] - 1):
        raise ValueError(f"{stage}: {noun} of shape {shape} are not a (settings, 2^n outcomes) matrix")
    if keys is not None:
        if keys.dtype != np.uint64 or keys.ndim != 2 or keys.shape[1] != 2:
            raise ValueError(
                f"{stage}: keys of shape {keys.shape} and dtype {keys.dtype} are not a (streams, 2) uint64 matrix"
            )
        if len(keys) != shape[0]:
            raise ValueError(f"{stage}: {noun} of shape {shape} take one key per row, got {len(keys)}")
    return shape


def _check_counts(counts, stage: str) -> np.ndarray:
    """``counts`` as a validated ``(k, 2^n)`` count matrix, one row per setting.

    The one count check of the simulator: ``ShotCounts`` and mitigation each
    call it before any work.  It requires a 2-D integer array whose column
    count is a power of two, no negative count and no empty row.  A failure
    names the stage, the shape and the first bad row."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"{stage}: counts of shape {counts.shape} must be integers, got dtype {counts.dtype}")
    shape = _check_shape(counts, stage, "counts", None)
    # the cheap reductions first: a sweep checks a count matrix per stack of parts
    if counts.min(initial=0) < 0:
        row, outcome = np.argwhere(counts < 0)[0]
        key = format(int(outcome), f"0{shape[1].bit_length() - 1}b")
        raise ValueError(f"{stage}: counts of shape {shape}: row {row} has a negative count for {key!r}")
    shot_rows = counts.any(axis=1)
    if np.count_nonzero(shot_rows) != shape[0]:
        raise ValueError(f"{stage}: counts of shape {shape}: row {np.flatnonzero(~shot_rows)[0]} has no shots")
    return counts


def _check_probs(probs, stage: str, keys: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``probs`` as a validated ``(k, 2^n)`` float matrix of outcome weights, one
    row per setting and, where ``keys`` is given, one stream key per row, and its
    ``(k, 1)`` row sums: the check :func:`sample` and :func:`apply_readout_noise`
    make before any work.

    A non-2-D matrix, a column count that is no power of two, a key matrix
    that is not ``(k, 2)`` ``uint64``, a negative, NaN or infinite entry and a
    row with no mass each fail, naming the stage, the shape and the first
    bad row."""
    probs = np.asarray(probs, dtype=np.float64)
    shape = _check_shape(probs, stage, "probabilities", keys)
    totals = None
    bad = ~((probs >= 0.0) & (probs < np.inf)).all(axis=1)
    problem = "a negative or non-finite entry"
    if not bad.any():  # summed only when every entry is finite: inf + -inf warns
        totals = probs.sum(axis=1, keepdims=True)
        bad, problem = ~(totals[:, 0] > 0.0), "no probability mass"
    if bad.any():
        raise ValueError(f"{stage}: probabilities of shape {shape}: row {np.argmax(bad)} has {problem}")
    return probs, totals


@dataclass(frozen=True, eq=False)
class ShotCounts:
    """Measured outcome counts over a qubit register, one row per setting.

    ``counts[s, i]`` is the number of setting s's shots that read basis
    state ``i`` (qubit 0 is the most significant bit), as a read-only
    ``(k, 2**qubit_count)`` ``int64`` matrix that passes
    :func:`_check_counts`.  ``shots`` is the total over every row, a
    positive integer and not a bool, checked as :func:`sample` checks its
    own ``shots``.
    """

    qubit_count: int
    shots: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        if not _is_index(self.shots) or self.shots < 1:
            raise ValueError(f"shot counts: shots must be a positive integer, got {self.shots!r}")
        object.__setattr__(self, "shots", int(self.shots))
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[1] != 2**self.qubit_count:
            raise ValueError(
                f"counts of shape {counts.shape} do not cover "
                f"{self.qubit_count} qubits ({2**self.qubit_count} outcomes) per row"
            )
        # always a copy, so the caller's array stays writable
        counts = _check_counts(counts, "shot counts").astype(np.int64)
        # a setting draws at most 2^63 - 1 shots, but the settings together may
        # exceed int64: the row totals are added as Python ints
        total = sum(counts.sum(axis=1).tolist())
        if total != self.shots:
            raise ValueError(f"counts total {total} != shots {self.shots}")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


def sample(probs: np.ndarray, shots: int, keys: np.ndarray) -> ShotCounts:
    """Multinomial sampling of computational-basis outcomes: ``shots`` draws
    for each row of a ``(k, 2^m)`` matrix, row s from the stream that row s of
    the :func:`derive_keys` matrix ``keys`` keys.

    Row s holds the weight of every outcome of an m-qubit register under
    setting s, such as the Born probabilities ``|amplitudes|^2`` of a state
    or their marginal on some leading qubits.  ``shots`` must be a positive
    integer, not a bool.  It and the matrix and keys are checked before any
    draw, the last two by :func:`_check_probs`, and the matrix is divided once
    by the row sums that check takes, so row s is renormalized byte for byte
    as by its own ``p / p.sum()``.  One Philox generator serves every row: its
    state is re-keyed with row s's key and counter zero before row s's one
    ``multinomial`` call, so row s is byte for byte the draw of a fresh
    ``Generator(Philox(keys[s]))``, as a one-row call gives it, and nothing
    carries over between rows or calls.  The result's ``counts`` is the
    ``(k, 2^m)`` count matrix and its ``shots`` the total drawn, ``k * shots``.
    """
    if not _is_index(shots) or shots < 1:
        raise ValueError(f"sampling: shots must be a positive integer, got {shots!r}")
    shots, keys = int(shots), np.asarray(keys)
    probs, totals = _check_probs(probs, "sampling", keys)
    normalized = probs / totals
    counts = np.empty(probs.shape, dtype=np.int64)
    philox = np.random.Philox(_philox_key_type()(keys[0]))
    rng = np.random.Generator(philox)
    # a fresh generator's state: counter zero, an empty buffer and no cached
    # 32-bit half; the setter copies every field, so only the key changes
    state = philox.state
    for row, p, key in zip(counts, normalized, keys):
        state["state"]["key"] = key
        philox.state = state
        row[...] = rng.multinomial(shots, p)
    counts.flags.writeable = False
    # the checks of ShotCounts hold by construction: the shape is the checked
    # matrix's, and each row is a multinomial draw, non-negative int64 counts
    # summing to shots >= 1, so the rows together sum to k * shots
    return _built(ShotCounts, qubit_count=probs.shape[1].bit_length() - 1, shots=shots * len(counts), counts=counts)


@dataclass(frozen=True)
class ReadoutModel:
    """Independent per-qubit readout flips.

    ``e0[q]`` is the probability of reading 1 when qubit q is 0, and
    ``e1[q]`` of reading 0 when it is 1.  Each is a number or a list or
    tuple of numbers, each read by ``numerics.read_real`` as the config's
    ``readout.e0`` or ``readout.e1`` (entry i); a rate outside [0, 0.5] is a
    ``ConfigError`` that names the same field.
    Scalars broadcast over all qubits; two tuples must have the same
    length.  Both probabilities are capped at 0.5, so a qubit's
    :meth:`confusion` matrix is singular only at e0 = e1 = 0.5, which is
    rejected.
    """

    e0: tuple[float, ...] | float
    e1: tuple[float, ...] | float

    def __post_init__(self) -> None:
        for name in ("e0", "e1"):
            value, path = getattr(self, name), f"readout.{name}"
            scalar = not isinstance(value, (list, tuple))
            fields = {path: value} if scalar else {f"{path} entry {i}": v for i, v in enumerate(value)}
            vals = tuple(read_real(v, field) for field, v in fields.items())
            for field, v in zip(fields, vals):
                if not 0.0 <= v <= 0.5:
                    raise ConfigError(f"{field}: {v} outside [0, 0.5]")
            object.__setattr__(self, name, vals[0] if scalar else vals)
        if isinstance(self.e0, tuple) and isinstance(self.e1, tuple) and len(self.e0) != len(self.e1):
            raise ValueError(f"e0 has {len(self.e0)} entries, e1 has {len(self.e1)}")
        singular = np.abs(1.0 - np.add(self.e0, self.e1)) < 1e-12
        if singular.any():
            where = f"qubit {np.flatnonzero(singular)[0]}" if singular.ndim else "every qubit"
            raise ValueError(f"confusion matrix is singular (e0 + e1 = 1) on {where}")

    def confusion(self, qubit_count: int) -> np.ndarray:
        """Per-qubit confusion matrices as a ``(qubit_count, 2, 2)`` array
        over the ``qubit_count`` measured qubits.

        ``conf[q]`` is [[1-e0, e1], [e0, 1-e1]] for qubit q (column = true
        bit).  Scalars broadcast to every qubit; a tuple must have one
        entry per measured qubit.
        """
        for name in ("e0", "e1"):
            value = getattr(self, name)
            if isinstance(value, tuple) and len(value) != qubit_count:
                raise ValueError(
                    f"{name} has {len(value)} entries, but {qubit_count} qubits are measured"
                )
        e0 = np.broadcast_to(self.e0, qubit_count)
        e1 = np.broadcast_to(self.e1, qubit_count)
        return np.stack([[1.0 - e0, e1], [e0, 1.0 - e1]]).transpose(2, 0, 1)


@functools.lru_cache(maxsize=64)
def _confusion_stack(model: ReadoutModel, qubit_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``model.confusion(qubit_count)`` and its batched inverse, read-only and
    built once per (model, qubit count): a sweep reads them for every part."""
    confusion = model.confusion(qubit_count)
    inverses = np.linalg.inv(confusion)
    confusion.flags.writeable = inverses.flags.writeable = False
    return confusion, inverses


def _apply_per_qubit(rows: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``stack[q]``, a (2, 2) matrix, applied along qubit q's axis of every row of
    the ``(k, 2^m)`` matrix ``rows``: ``kron(*stack) @ row`` without forming it.
    One stacked ``matmul`` per qubit makes per row the ``(2, 2) @ (2, 2^(m-1))``
    product ``tensordot`` makes on a single row, so a row's bytes do not depend
    on the other rows."""
    k, size = rows.shape
    tensor = rows.reshape((k,) + (2,) * len(stack))
    for q, matrix in enumerate(stack):
        moved = np.moveaxis(tensor, q + 1, 1)
        product = np.matmul(matrix, moved.reshape(k, 2, -1))
        tensor = np.moveaxis(product.reshape(moved.shape), 1, q + 1)
    return tensor.reshape(k, size)


def apply_readout_noise(probs: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """The outcome probabilities the model's readout reports: the ``(k, 2^m)``
    matrix of a ``(k, 2^m)`` one, row s mapped to ``kron(C_0, ..., C_{m-1}) @ p_s``
    by :func:`_apply_per_qubit`, C_q qubit q's :meth:`ReadoutModel.confusion`
    matrix, so row s equals a one-row call.

    A multinomial draw of a mapped row has the distribution of a draw of the
    row followed by independent per-qubit flips of each shot's bits.  No
    generator is taken.  The matrix is checked by :func:`_check_probs` first.
    """
    probs, _ = _check_probs(probs, "readout noise")
    return _apply_per_qubit(probs, _confusion_stack(model, probs.shape[1].bit_length() - 1)[0])


def mitigate(counts: np.ndarray, model: ReadoutModel) -> np.ndarray:
    """Invert the tensor-product confusion matrix and project to the simplex:
    the ``(k, 2^m)`` frequency matrix of a ``(k, 2^m)`` count matrix, one row
    per setting, each in the order of its counts.

    Each row is divided by its total.  Each qubit's
    :meth:`ReadoutModel.confusion` matrix is inverted, all in one batched
    call made once per model and register size, and applied along that
    qubit's axis of every row by :func:`_apply_per_qubit`, as readout noise
    applies the matrices themselves.  Negative quasi-probabilities are
    clipped to zero and each row's remainder renormalized.  Every row is
    checked by :func:`_check_counts` first.
    """
    counts = _check_counts(counts, "mitigation")
    n = counts.shape[1].bit_length() - 1
    quasi = _apply_per_qubit(counts / counts.sum(axis=1, keepdims=True), _confusion_stack(model, n)[1])
    clipped = np.clip(quasi, 0.0, None)
    totals = clipped.sum(axis=1, keepdims=True)
    drained = np.flatnonzero(totals <= 0.0)
    if drained.size:
        raise ValueError(f"mitigation: row {drained[0]} of counts of shape {counts.shape} clipped all probability mass")
    return clipped / totals
