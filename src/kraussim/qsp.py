"""State-preparation circuit synthesis and lowering.

:func:`synthesize` compiles an n-qubit amplitude vector into the binary
tree of uniformly controlled rotations (Möttönen et al., Quantum Inf.
Comput. 5, 467 (2005)), most significant qubit first.  Level k is
emitted as :class:`Multiplexor` elements on qubit t = k-1, controlled on
exactly the qubits 0..t-1, with one angle per control pattern:

* levels 1..n-1 prepare the "magnitude pyramid": one Ry multiplexor
  whose angles reproduce the prefix magnitudes
  ``r_prefix = sqrt(|c_{prefix 0}|^2 + |c_{prefix 1}|^2)``;
* level n applies, per pattern, ``exp(i t/2) Rz(phi) Ry(theta)``
  (``theta = 2 atan2(|c1|, |c0|)``, ``phi = arg c1 - arg c0``,
  ``t = arg c1 + arg c0``): one Ry and one Rz multiplexor, then the
  branch scalars ``exp(i t/2)``, a diagonal on qubits 0..n-2, as a
  cascade of Rz multiplexors on qubits n-2 down to 0 whose last scalar
  is tracked on ``Circuit.global_phase`` (the diagonal's decomposition
  in Shende, Bullock and Markov, IEEE TCAD 25, 1000 (2006)).

Patterns whose parent amplitude is exactly zero get no entry, and no
angle is zero.  A real vector (every imaginary part zero, -0.0 too) takes
signed angles ``2 atan2(c1, c0)`` on the last level too: Ry only, and a
global phase of 0.0.  Each level is one array pass over its present
patterns.  Its transcendental functions stay scalar, ``math.atan2`` and
Python's ``abs`` mapped over ``.tolist()`` of the level's columns, as do
:func:`rotation_stack`'s ``math.cos`` and ``math.sin``: numpy picks its
own loops for these by CPU at run time, and they need not round as libm
does, so the circuit would then depend on the SIMD level.

A :class:`Circuit` holds three kinds of element: elementary gates
(:class:`Gate`: a bare X, Ry or Rz, or a CX), Ry or Rz multiplexors, and
their Gray-code walks (:class:`GrayWalk`).  A controlled rotation is
written in one way only, as a multiplexor.  :func:`lower` maps each
element over {X, Ry, Rz, CX}: a multiplexor becomes one walk, which holds
its Walsh-Hadamard angles in Gray order (up to 2^k rotations and 2^k CX
for k controls, none when every angle is zero), and any other element
passes unchanged.  A walk's gates compose to one rotation per control
pattern, whose angles :meth:`GrayWalk.pattern_angles` gives, read through
the walk's CXs.  Both directions of the angle map go through one
transform, :func:`_walsh_hadamard`, one ragged pass over all of a
circuit's blocks: :func:`lower` takes every walk's slot angles from its
multiplexor's in one forward pass, then their pattern angles in one
inverse pass on that same layout, and each walk it builds holds its own;
the simulator reads them and transforms nothing.
``Circuit.gates`` spells the elements out one gate at a time,
for the text dump and the QASM export: each multiplexor entry as a
one-entry :class:`Multiplexor`, which is exactly a multi-controlled
rotation, and each walk as its rotations and CX gates.

The constructors of :class:`Multiplexor`, :class:`GrayWalk` and
:class:`Circuit` check every field.  :func:`synthesize` and :func:`lower`
build theirs through :func:`_built`, without those per-element checks:
rows come from ``nonzero()`` over a level's patterns, so are distinct,
ascending and in range; a walk has the 2^t slots of the ragged layout;
every target is below the qubit count; and one ``np.isfinite`` check per
level, or per circuit on the slot angles, stands for the angle checks,
with the constructors' messages.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .numerics import PureState

__all__ = [
    "Gate",
    "Multiplexor",
    "GrayWalk",
    "Circuit",
    "check_qubits",
    "rotation_stack",
    "synthesize",
    "lower",
    "verify_preparation",
    "dump_circuit",
    "qasm_export",
]

def rotation_stack(kind: str, angles: Sequence[float]) -> np.ndarray:
    """The ``(k, 2, 2)`` matrices of Ry or Rz, ``kind``, for each of k angles.

    The one place their entries are computed: the simulator takes a whole
    circuit's at once, and the tests' reference kernels one angle's.  Ry
    is ``[[c, -s], [s, c]]`` with c and s the ``math`` cosine and sine of
    half the angle, and Rz ``diag(exp(-ia/2), exp(ia/2))``.  The angles
    are halved in one array operation; ``math.cos`` and ``math.sin`` are
    then mapped over the halves' ``.tolist()``, since numpy's own loops
    may round differently per SIMD level.
    """
    if kind not in ("ry", "rz"):
        raise ValueError(f"no rotation stack for gate kind {kind!r}")
    stack = np.zeros((len(angles), 2, 2), dtype=np.complex128)
    if not len(angles):
        return stack
    half = np.asarray(angles, dtype=np.float64) / 2.0
    if kind == "ry":
        halves = half.tolist()
        cos = np.array(list(map(math.cos, halves)))
        sin = np.array(list(map(math.sin, halves)))
        stack[:, 0, 0] = stack[:, 1, 1] = cos
        stack[:, 0, 1] = -sin
        stack[:, 1, 0] = sin
    else:
        stack.reshape(-1, 4)[:, ::3] = np.exp(np.multiply.outer(half, [-1j, 1j]))
    return stack


@dataclass(frozen=True)
class Gate:
    """One elementary gate on ``target``: a bare X, Ry or Rz, or a CX.

    A CX is kind ``"x"`` with ``controls == ((c, 1),)``, c the control
    qubit and the bit an integer 1, not ``True`` or ``1.0``; every other
    gate has no controls.  ``angle`` is ignored for kind ``"x"``.  A
    controlled rotation is a :class:`Multiplexor`.
    """

    kind: str
    angle: float
    target: int
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("x", "ry", "rz"):
            raise ValueError(f"gate {self}: unknown kind {self.kind!r}")
        controls = self.controls
        if controls != () and not (
            self.kind == "x" and len(controls) == 1 and controls == ((controls[0][0], 1),)
            and _is_integer(controls[0][1]) and controls[0][0] != self.target
        ):
            raise ValueError(f"gate {self} is not a bare gate or a CX; write a controlled rotation as a Multiplexor")


@dataclass(frozen=True)
class Multiplexor:
    """An Ry or Rz on ``target``, controlled on exactly the qubits
    ``0..target-1``: a uniformly controlled rotation.

    Entry i applies ``angles[i]`` on control pattern ``rows[i]``: row r
    gives control qubit q the bit ``(r >> (target-1-q)) & 1``, qubit 0 the
    most significant.  Rows are distinct.  Rows and angles are kept as
    tuples of ints and floats.  A one-entry multiplexor is one
    multi-controlled rotation.
    """

    kind: str
    target: int
    rows: tuple[int, ...]
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        rows, angles = tuple(map(int, self.rows)), tuple(map(float, self.angles))
        problem = None
        if self.kind not in ("ry", "rz"):
            problem = "unknown kind"
        elif not _is_integer(self.target):
            problem = f"qubit {self.target!r} is not an integer"
        elif self.target < 0:
            problem = f"qubit {self.target} is negative"
        elif len(rows) != len(angles):
            problem = f"{len(rows)} rows but {len(angles)} angles"
        elif rows and not (0 <= min(rows) and max(rows) < 2**self.target):
            size = 2**self.target
            problem = f"row {next(r for r in rows if not 0 <= r < size)} outside [0, {size})"
        elif len(set(rows)) != len(rows):
            problem = f"row {next(r for r in rows if rows.count(r) > 1)} repeated"
        elif not all(map(math.isfinite, angles)):
            problem = f"angle {next(a for a in angles if not math.isfinite(a))} not finite"
        if problem:
            raise ValueError(f"{self}: {problem}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "angles", angles)

    def __str__(self) -> str:
        return f"{self.kind!r} multiplexor on qubit {self.target}"


@dataclass(frozen=True)
class GrayWalk:
    """A lowered Ry or Rz multiplexor on ``target``: its Gray-code walk
    (Möttönen et al.) over the control qubits ``0..target-1``.

    Slot j applies ``kind`` by ``angles[j]``, no gate where that angle is
    0.0, then a CX onto ``target`` from the control qubit that
    :func:`_gray_plan` names for slot j; on qubit 0 a walk is its one
    rotation.  The 2^target angles are the multiplexor's Walsh-Hadamard
    angles in Gray order, kept as a tuple of floats.  :meth:`gates` spells
    the walk out as elementary gates, and :meth:`pattern_angles` gives the
    one rotation per control pattern that they compose to, which the
    simulator applies: a walk from :func:`lower` holds them from its one
    inverse pass, outside the fields that equality and hashing see.
    """

    kind: str
    target: int
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        angles = tuple(map(float, self.angles))
        problem = None
        if self.kind not in ("ry", "rz"):
            problem = "unknown kind"
        elif not _is_integer(self.target):
            problem = f"qubit {self.target!r} is not an integer"
        elif self.target < 0:
            problem = f"qubit {self.target} is negative"
        elif len(angles) != 2**self.target:
            problem = f"{len(angles)} angles, not 2^{self.target}"
        elif not all(map(math.isfinite, angles)):
            problem = f"angle {next(a for a in angles if not math.isfinite(a))} not finite"
        if problem:
            raise ValueError(f"{self}: {problem}")
        object.__setattr__(self, "angles", angles)

    def __str__(self) -> str:
        return f"{self.kind!r} Gray-code walk on qubit {self.target}"

    def gates(self) -> list[Gate]:
        """The walk as elementary gates: per slot its rotation, unless the
        angle is 0.0, then its CX, which cancels a CX equal to the gate
        before it (only on one control, when slot 1's angle is 0.0).  With
        every angle 0.0 the walk is the identity and has no gate."""
        if not any(self.angles):
            return []
        if self.target == 0:
            return [Gate(self.kind, self.angles[0], 0)]
        out: list[Gate] = []
        for angle, control in zip(self.angles, _gray_plan(self.target)[1]):
            if angle != 0.0:
                out.append(Gate(self.kind, angle, self.target))
            cx = _cx(self.target, control)
            if out and out[-1] is cx:
                out.pop()
            else:
                out.append(cx)
        return out

    def pattern_angles(self) -> np.ndarray:
        """The one angle per control pattern that the walk rotates its target by.

        X R(a) X = R(-a) for Ry and for Rz, and a full Gray cycle's CXs
        cancel, so on pattern r the walk is one rotation by ``sum_j
        (-1)^popcount(f_j & r) beta_j``, with f_j the mask of the CXs before
        slot j (:func:`_walk_order`): the Walsh-Hadamard transform of the
        slot angles placed at their masks (:func:`_pattern_angles`), read-only.
        A walk from :func:`lower` holds them; any other makes them on first use."""
        angles = self.__dict__.get("_pattern_angles")
        if angles is None:
            angles = self.__dict__["_pattern_angles"] = _pattern_angles(np.array(self.angles), [self.target])
        return angles

    @property
    def gate_count(self) -> int:
        """``len(self.gates())``, counted without building them: on two or
        more controls adjacent CXs differ, so all 2^target stay."""
        rotations = len(self.angles) - self.angles.count(0.0)
        if not rotations or self.target == 0:
            return rotations
        if self.target == 1:
            return rotations + (2 if self.angles[1] != 0.0 else 0)
        return rotations + 2**self.target


@dataclass(frozen=True)
class Circuit:
    """Elementary gates, multiplexors and walks over ``qubit_count`` qubits
    plus one tracked scalar phase.

    Elements apply in order.  An element is a :class:`Gate`, a
    :class:`Multiplexor` or a :class:`GrayWalk`.  ``global_phase`` is the
    exponent of a scalar ``exp(i * global_phase)`` multiplying the final
    state.
    """

    qubit_count: int
    elements: tuple[Gate | Multiplexor | GrayWalk, ...]
    global_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("circuit needs at least one qubit")
        elements = tuple(self.elements)
        check_qubits(elements, self.qubit_count, "", "references qubit outside register")
        object.__setattr__(self, "elements", elements)

    @functools.cached_property
    def gates(self) -> tuple[Gate | Multiplexor, ...]:
        """The elements one gate at a time, built on first use: each
        multiplexor entry as a one-entry :class:`Multiplexor`, each walk as
        its :meth:`GrayWalk.gates`.  Without either, the elements as given."""
        if all(isinstance(e, Gate) for e in self.elements):
            return self.elements
        gates: list[Gate | Multiplexor] = []
        for e in self.elements:
            if isinstance(e, Gate):
                gates.append(e)
            elif isinstance(e, GrayWalk):
                gates.extend(e.gates())
            else:
                gates.extend(Multiplexor(e.kind, e.target, (r,), (angle,)) for r, angle in zip(e.rows, e.angles))
        return tuple(gates)

    @property
    def gate_count(self) -> int:
        """``len(self.gates)``, counted without building them."""
        return sum(
            1 if isinstance(e, Gate) else e.gate_count if isinstance(e, GrayWalk) else len(e.rows)
            for e in self.elements
        )


def _is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool: the
    rule for a qubit index and for a CX's control bit."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _built(cls: type, **fields) -> object:
    """An instance of the frozen dataclass ``cls`` holding ``fields``, and any
    cache it keeps outside them, as given, without its ``__post_init__``
    checks: the build path of a producer that states, where it calls this,
    which step of its construction guarantees each of them."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def check_qubits(elements: Iterable[Gate | Multiplexor | GrayWalk], n: int, where: str, outside: str) -> None:
    """Raise ValueError unless every qubit that ``elements`` act on is an
    integer in [0, n): Python and numpy integers are qubits, a bool or any
    other number is not.  The message is ``where``, the first element at
    fault, then ``outside`` for a qubit out of range or ``: qubit <q> is not
    an integer``.  The one qubit check of a :class:`Circuit` and of
    :func:`~kraussim.simulator.run_branches`' layers."""
    for e in elements:
        for q in (e.target, *[c for c, _ in e.controls]) if isinstance(e, Gate) else (e.target,):
            if not _is_integer(q):
                problem = f": qubit {q!r} is not an integer"
            elif not 0 <= q < n:
                problem = f" {outside}"
            else:
                continue
            raise ValueError(f"{where}{_label(e)}{problem}")


def _label(e: Gate | Multiplexor | GrayWalk) -> str:
    """An element as error messages name it."""
    return f"gate {e}" if isinstance(e, Gate) else str(e)


def _qubit_count_for(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"amplitude vector length {dim} is not a power of two >= 2")
    return n


def _magnitude_pyramid(amps: np.ndarray, n: int) -> list[np.ndarray]:
    """levels[k-1] holds the 2^k prefix magnitudes; levels[n-1] is ``amps``."""
    levels = [np.asarray(amps)]
    for _ in range(n - 1):
        v = levels[0]
        levels.insert(0, np.sqrt(np.abs(v[0::2]) ** 2 + np.abs(v[1::2]) ** 2))
    return levels


def _rz_cascade(w: np.ndarray, present: np.ndarray) -> tuple[list[Multiplexor], float]:
    """diag(exp(i w)) on the k qubits of a 2^k vector ``w``, as Rz multiplexors
    on qubits k-1 down to 0 and the scalar phase left over.

    On qubit q, row r gets the angle w[2r+1] - w[2r], then w becomes the
    means (w[2r] + w[2r+1]) / 2.0.  An entry not ``present`` takes its
    sibling's value first, so it adds no angle; a zero angle is not emitted.
    """
    elements: list[Multiplexor] = []
    for q in range(w.size.bit_length() - 2, -1, -1):
        w = np.where(present, w, w.reshape(-1, 2)[:, ::-1].reshape(-1))
        pairs = w.reshape(-1, 2)
        angles = pairs[:, 1] - pairs[:, 0]
        rows = angles.nonzero()[0]
        if rows.size:
            # rows from nonzero() over 2^q entries: distinct, ascending, in range;
            # differences of synthesize's finite scalars: finite
            elements.append(_built(Multiplexor, kind="rz", target=q, rows=tuple(rows.tolist()),
                                   angles=tuple(angles[rows].tolist())))
        w = (pairs[:, 0] + pairs[:, 1]) / 2.0
        present = present.reshape(-1, 2).any(axis=1)
    return elements, float(w[0])


def _atan2(y: Iterable[float], x: Iterable[float]) -> np.ndarray:
    """``math.atan2`` of each pair of Python floats, as a float array."""
    return np.array(list(map(math.atan2, y, x)), dtype=np.float64)


def synthesize(target: PureState) -> Circuit:
    """Compile a state-preparation circuit for an amplitude vector: one array
    pass per level of the magnitude pyramid, most significant qubit first.

    Level t gathers the pair columns c0, c1 of the patterns whose parent
    amplitude is nonzero: a zero parent's branch has nothing to prepare.
    The amplitudes choose the form.  A real vector, ``not amps.imag.any()``
    (-0.0 is zero), takes ``theta = 2 atan2(c1, c0)`` of the signed real
    parts on every level: Ry only, and a global phase of 0.0.  Otherwise the
    last level takes theta of the moduli, ``phi = arg c1 - arg c0`` (the arg
    of 0 taken as 0.0) and the branch scalar ``w_p = (arg c1 + arg c0) / 2``.
    A level emits its Ry multiplexor, then its Rz multiplexor, each on the
    patterns whose angle is not 0.0.  The scalars exp(i w_p) form a diagonal
    on qubits 0..n-2, emitted by :func:`_rz_cascade` with the skipped
    patterns not present.

    ``atan2`` stays ``math.atan2`` and the modulus Python's ``abs``, mapped
    over ``.tolist()`` of the columns: numpy picks its ``arctan2`` loop by
    CPU at run time, and its AVX-512 loop rounds some angles differently
    from libm, so ``np.arctan2`` would make the circuit depend on the SIMD
    level.  The rest is array arithmetic with the same IEEE results as the
    scalar forms: the doubling, the sums, the differences and the halving.
    """
    amps = target.amplitudes
    n = _qubit_count_for(amps.size)
    real = not amps.imag.any()
    elements: list[Multiplexor] = []
    scalars = np.zeros(2 ** (n - 1))
    parents = np.ones(1)
    for t, coeff in enumerate(_magnitude_pyramid(amps, n)):
        live = parents != 0.0
        present = live.nonzero()[0]
        c0, c1 = coeff.reshape(-1, 2)[present].T
        if t < n - 1 or real:
            # magnitude level, or a real last level: signed Ry only
            rotations = [("ry", 2.0 * _atan2(c1.real.tolist(), c0.real.tolist()))]
        else:
            theta = 2.0 * _atan2(map(abs, c1.tolist()), map(abs, c0.tolist()))
            phi0 = np.where(c0 != 0.0, _atan2(c0.imag.tolist(), c0.real.tolist()), 0.0)
            phi1 = np.where(c1 != 0.0, _atan2(c1.imag.tolist(), c1.real.tolist()), 0.0)
            scalars[present] = (phi1 + phi0) / 2.0
            rotations = [("ry", theta), ("rz", phi1 - phi0)]
        for kind, angles in rotations:
            # the level's one finiteness check, with the Multiplexor's message;
            # the last level's rz angles, phi1 - phi0, cover the cascade's
            # scalars, their half sums
            finite = np.isfinite(angles)
            if not finite.all():
                raise ValueError(f"{kind!r} multiplexor on qubit {t}: angle {angles[~finite][0]} not finite")
            keep = angles.nonzero()[0]  # -0.0 is zero too
            if keep.size:
                # rows: present patterns, from nonzero() over 2^t parents
                elements.append(_built(Multiplexor, kind=kind, target=t, rows=tuple(present[keep].tolist()),
                                       angles=tuple(angles[keep].tolist())))
        parents = coeff
    global_phase = 0.0
    if not real:
        cascade, global_phase = _rz_cascade(scalars, live)
        elements += cascade
    # every element acts on one of the qubits 0..n-1, and n >= 1
    return _built(Circuit, qubit_count=n, elements=tuple(elements), global_phase=global_phase)


# ---------------------------------------------------------------------------
# Lowering to {X, Ry, Rz, CX}


def _walsh_hadamard(v: np.ndarray, targets: Sequence[int] | None = None) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of each block of ``v``, as a
    new float array: ``v`` holds one block of 2^t entries per t in
    ``targets``, in that order, which must not increase (by default ``v`` is
    one block), and entry r of a block is ``sum_m (-1)^popcount(m & r)
    block[m]``.

    One ragged pass: stage s writes ``(a + b, a - b)`` in place over each
    pair a, b of entries that differ in index bit s only, a the lower, in
    the blocks with t > s.  Blocks of non-increasing size each start at a
    multiple of their size, so those blocks are a prefix of whole groups of
    2^(s+1) entries.  This is the pairing order of a loop over one block of
    each stage at a time, and IEEE sums and differences round alike, so a
    block's bytes do not depend on the blocks beside it.  :func:`lower`
    takes its walks' slot angles from their multiplexors' angles with one
    forward pass per circuit, and their pattern angles back from the slot
    angles with one inverse pass (:func:`_pattern_angles`)."""
    out = np.array(v, dtype=np.float64)
    targets = [out.size.bit_length() - 1] if targets is None else list(targets)
    ends = list(itertools.accumulate(2**t for t in targets))
    if any(a < b for a, b in zip(targets, targets[1:])) or (ends[-1] if ends else 0) != out.size:
        raise ValueError(f"blocks of 2^{targets} entries do not tile {out.size} in non-increasing size")
    descending = [-t for t in targets]
    for s in range(targets[0] if targets else 0):
        # the blocks with t > s lead
        pairs = out[: ends[bisect.bisect_left(descending, -s) - 1]].reshape(-1, 2, 2**s)
        a, b = pairs[:, 0], pairs[:, 1]
        total = a + b
        np.subtract(a, b, out=b)
        a[...] = total
    return out


def _ragged(
    targets: Sequence[int], rows: Sequence[Sequence[int]], values: Sequence[Sequence[float]]
) -> tuple[np.ndarray, list[int], list[int]]:
    """One block of 2^t zeros per t in ``targets``, with ``values[i]`` written
    at ``rows[i]`` of block i, laid out as :func:`_walsh_hadamard` takes them:
    by descending t, ties in the given order.  Returns the flat float array,
    the order of the blocks in it (indices into ``targets``) and, in that
    order, their starts."""
    order = sorted(range(len(targets)), key=lambda i: -targets[i])
    starts = list(itertools.accumulate((2 ** targets[i] for i in order), initial=0))
    flat = np.zeros(starts.pop())
    counts = [len(rows[i]) for i in order]
    if sum(counts):
        index = np.concatenate([rows[i] for i in order]).astype(np.int64) + np.repeat(starts, counts)
        flat[index] = np.fromiter(itertools.chain.from_iterable(values[i] for i in order), np.float64, len(index))
    return flat, order, starts


def _pattern_angles(slots: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """The pattern angles of walks on ``targets``, read-only, from their slot
    angles ``slots`` laid out as :func:`_walsh_hadamard` takes them, one
    block of 2^t per walk: each slot angle placed at its mask
    (:func:`_walk_order`), then one inverse pass over every block."""
    sizes = [2**t for t in targets]
    starts = np.repeat(list(itertools.accumulate(sizes, initial=0))[:-1], sizes)
    masks = np.concatenate([_walk_order(t) for t in targets]) + starts
    placed = np.zeros(slots.size)
    placed[masks] = slots
    out = _walsh_hadamard(placed, targets)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _gray_plan(k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Gray-code walk over 2^k slots: slot j's Walsh-Hadamard index
    ``gray(j) = j ^ (j >> 1)``, and the control qubit, of 0..k-1 with qubit
    0 the most significant bit, whose bit flips from ``gray(j)`` to
    ``gray(j + 1)``, cyclically.  With k = 0 there is no control, and the
    one slot's entry is not a qubit."""
    size = 2**k
    gray = [j ^ (j >> 1) for j in range(size)]
    flips = tuple(k - (gray[j] ^ gray[(j + 1) % size]).bit_length() for j in range(size))
    indices = np.array(gray)
    indices.flags.writeable = False
    return indices, flips


@functools.lru_cache(maxsize=None)
def _walk_order(t: int) -> np.ndarray:
    """Per slot j of a walk on qubit t, its mask f_j, read-only: the position
    its angle takes in the vector whose Walsh-Hadamard transform gives the
    pattern angles.  f_j is the running XOR of the control bits (qubit 0
    the most significant) of the CXs before slot j, the qubits that
    :func:`_gray_plan` names for the CXs a walk emits, not the Gray indices
    :func:`lower` reads its angles at.  Raises if two slots share a mask or a
    full cycle's CXs do not cancel: the walk is then not one rotation per
    pattern."""
    bits = [1 << (t - 1 - c) for c in _gray_plan(t)[1]] if t else [0]
    masks = np.bitwise_xor.accumulate([0, *bits])
    if masks[-1] or len(set(masks[:-1].tolist())) != 2**t:
        raise ValueError(f"Gray-code plan of {t} controls: CX masks repeat or do not close the cycle")
    masks = masks[:-1].copy()
    masks.flags.writeable = False
    return masks


@functools.lru_cache(maxsize=None)
def _cx(target: int, control: int) -> Gate:
    """The one CX gate on (target, control) that every walk shares."""
    return Gate("x", 0.0, target, ((control, 1),))


def lower(circuit: Circuit) -> Circuit:
    """Rewrite each multiplexor as its Gray-code walk, so that ``gates`` lists
    only {X, Ry, Rz, CX}.

    A multiplexor becomes one :class:`GrayWalk`: its angles, as a vector over
    the control patterns, go through the Walsh-Hadamard transform, are read
    at the Gray-code indices of :func:`_gray_plan` and divided by 2^k, k its
    control count; on qubit 0 that is its one angle.  All of a circuit's
    multiplexors share one forward pass of the transform, and their walks'
    :meth:`GrayWalk.pattern_angles` one inverse pass on the same layout,
    which each walk then holds.  A walk whose every angle is zero is the
    identity, and no element is emitted.  An elementary gate or a walk
    passes unchanged.  No gate is built here.  The result prepares the same
    state as the input, global phase included.
    """
    out: list[Gate | Multiplexor | GrayWalk | None] = list(circuit.elements)
    at = [i for i, e in enumerate(out) if isinstance(e, Multiplexor)]
    targets = [out[i].target for i in at]
    flat, order, starts = _ragged(targets, [out[i].rows for i in at], [out[i].angles for i in at])
    if order:
        sizes = [2 ** targets[i] for i in order]
        gray = np.concatenate([_gray_plan(targets[i])[0] for i in order]) + np.repeat(starts, sizes)
        blocks = [targets[i] for i in order]
        betas = _walsh_hadamard(flat, blocks)[gray] / np.repeat(sizes, sizes)
        finite = np.isfinite(betas)
        if not finite.all():
            # the GrayWalk's message for the first walk at fault, in build order
            first = int(np.argmin(finite))
            e = out[at[order[bisect.bisect_right(starts, first) - 1]]]
            raise ValueError(f"{e.kind!r} Gray-code walk on qubit {e.target}: angle {betas[first]} not finite")
        patterns = _pattern_angles(betas, blocks)
        live = np.logical_or.reduceat(betas != 0.0, starts).tolist()
        values = betas.tolist()
        for i, start, size, any_angle in zip(order, starts, sizes, live):
            e = out[at[i]]
            # a multiplexor's kind and target, 2^target slots of the layout, their pattern angles
            out[at[i]] = _built(GrayWalk, kind=e.kind, target=e.target, angles=tuple(values[start : start + size]),
                                _pattern_angles=patterns[start : start + size]) if any_angle else None
    # the elements of a checked circuit, or walks on their targets
    return _built(Circuit, qubit_count=circuit.qubit_count, elements=tuple(e for e in out if e is not None),
                  global_phase=circuit.global_phase)


def verify_preparation(circuit: Circuit, target: PureState, prepared: PureState) -> float:
    """Fidelity |<target| circuit |0...0>|^2, where ``prepared`` is the state
    the caller simulated the circuit to."""
    if not target.dim == prepared.dim == 2**circuit.qubit_count:
        raise ValueError("target dimension does not match circuit register")
    return float(abs(np.vdot(target.amplitudes, prepared.amplitudes)) ** 2)


# ---------------------------------------------------------------------------
# Text formats


def dump_circuit(circuit: Circuit) -> str:
    """One gate of ``Circuit.gates`` per line: kind, angle, target, controls
    as ``c{q}={bit}``, a multiplexor entry's from its row."""
    lines = [f"qubits {circuit.qubit_count}", f"phase {circuit.global_phase!r}"]
    for g in circuit.gates:
        if isinstance(g, Multiplexor):
            (row,), (angle,) = g.rows, g.angles
            controls = [(q, (row >> (g.target - 1 - q)) & 1) for q in range(g.target)]
        else:
            angle, controls = g.angle, g.controls
        parts = [g.kind]
        if g.kind != "x":
            parts.append(repr(angle))
        parts.append(f"q{g.target}")
        parts.extend(f"c{q}={b}" for q, b in controls)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def qasm_export(circuit: Circuit) -> str:
    """OpenQASM 2.0 text for a circuit without multiplexors.

    Gates map to ry/rz/x/cx; angles are printed with full round-trip
    precision.  The tracked global phase has no QASM 2.0 representation
    and is omitted.  Every qubit q is measured into ``c[q]`` at the end.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.qubit_count}];",
        f"creg c[{circuit.qubit_count}];",
    ]
    for g in circuit.gates:
        if isinstance(g, Multiplexor):
            raise ValueError(f"{g} is not elementary; lower the circuit first")
        if g.controls:
            lines.append(f"cx q[{g.controls[0][0]}],q[{g.target}];")
        elif g.kind == "x":
            lines.append(f"x q[{g.target}];")
        else:
            lines.append(f"{g.kind}({g.angle!r}) q[{g.target}];")
    for q in range(circuit.qubit_count):
        lines.append(f"measure q[{q}] -> c[{q}];")
    return "\n".join(lines) + "\n"
