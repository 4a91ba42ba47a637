"""Command-line interface: config-driven sweeps and one-shot utilities.

Subcommands
-----------
``validate``     CPTP-check a channel file (JSON, see ``channels`` module).
``sweep``        Run a parameter sweep from a JSON config; emit CSV, and with
                 ``--trace`` one JSON line of diagnostics per point.
``synth``        Synthesize a preparation circuit for an amplitude vector.
``export-qasm``  Write OpenQASM 2.0 for one sweep point's lowered circuit.
``oracle``       Print the operator-sum evolution of a state, no circuits.

Exit codes, for every subcommand: 0 success; 1 configuration error, one
``config error: ...`` line on stderr; 2 numerical failure.  Exit 1 means
a field of the config, channel file or state that its ``numerics``
reader rejects, or that fails a check of its value, or a bad argument,
usage (``--point`` not a number, no subcommand, ``synth --qasm`` without
``--lower``) or output path.  The one rule: each JSON field is read as
its own type only, so a boolean, a string that spells a number or a
list is never read as a number; an integer field takes ``7.0`` as 7 but
not ``2.9``; ``shots`` is at most 2^63 - 1 and ``sweep.points`` at most
10^6 (``MAX_SWEEP_POINTS``); an optional field given as null is absent.
The message names the field by its path: ``seed``, ``sweep.points``,
``sweep.grid entry 1``, ``channel.params.n``, ``readout.e1 entry 0``,
``initial_state.amplitudes entry 0``, ``initial_state.density_matrix
entry (0, 1)``, ``output.csv``;
in a channel file ``dim``, ``label``, ``params.p``, ``Kraus operator 1``,
its ``row 0`` and its ``entry (0, 1)``; ``synth`` names ``--amplitudes``
or ``--state-file``.  Value checks: a channel given by both or neither
of ``name`` and ``file``, or by ``file`` with ``params`` or a
``sweep.parameter``; a catalog parameter the constructor does not take,
lacks or rejects (``channel 'name': ...``); a channel file that fails
the CPTP check, outside ``validate``; a ``validate --tol`` that is
negative or not finite; a readout rate outside [0, 0.5], a readout in
exact mode or one whose per-qubit lists do not cover the system qubits;
a negative ``seed``; a NaN or infinite sweep value, state entry or Kraus
operator entry.  Exit 2 means: for ``validate``, a completeness residual
above tolerance (``FAIL``); for ``sweep``, a failed point (fidelity below
the floor, register over the limit), whose row is NaN while the other
points run, reported as ``point <value>: <error>`` on stderr; for
``export-qasm``, a failed point, reported as in ``sweep``, with no file
written; for ``synth``, a fidelity below the floor (``verification
failure: ...``).
``oracle`` never exits 2.

Config schema (JSON object)::

    {
      "channel": {"name": <catalog name>, "params": {..}} | {"file": <path>},
      "initial_state": "uniform"
                       | {"bloch": [theta, phi]}
                       | {"amplitudes": [<re> | [re, im], ...]}
                       | {"density_matrix": [[<re> | [re, im], ...], ...]},
      "sweep": {"parameter": <name>, "grid": [v0, v1, ...]}
               | {"parameter": <name>, "start": a, "stop": b, "points": n},
      "mode": "exact" | "sampled",
      "shots": <int, sampled mode>,
      "seed": <int>,
      "readout": {"e0": <rate(s)>, "e1": <rate(s)>},    # optional, sampled mode
      "mixed_method": 1 | 2 | 3,                        # optional, default 3
      "output": {"csv": <path>}                         # optional
    }

``channel`` takes ``name`` or ``file``, never both, and a ``file``
channel takes no ``params`` and no ``sweep.parameter``; ``oracle``'s
``--channel``, ``--channel-file`` and ``--param`` follow the same rule
(``_channel_source``).  A channel file must pass ``validate_cptp``
wherever a channel is loaded to run (``sweep``, ``export-qasm``,
``oracle``); ``validate`` reports the same check as ``FAIL``.
``synth`` parses ``--amplitudes`` or ``--state-file`` like
``initial_state.amplitudes``, naming the option in an error, and prints the
synthesized circuit, or with ``--lower`` the lowered one (``--qasm``: as QASM).

Catalog ``params`` and ``sweep.parameter`` are the keyword parameters of
the channel constructor in ``channels`` (``_CATALOG`` maps each name to
it), so a parameter the channel does not take is a configuration error,
as is a missing one.  Each param is read before the constructor is called,
by the reader its annotation names (``int`` or ``float``).  ``readout``
applies only in sampled mode.  It is passed to ``ReadoutModel``, which
validates it: rates in [0, 0.5], per-qubit tuples of one length, and no
singular confusion matrix.  A per-qubit tuple covers the system qubits,
the only ones measured, and is checked against their count before any
circuit is built.  ``seed`` is any integer >= 0.

The sweep grid must be nonempty, finite and monotone.  CSV columns are fixed:
``param_value,C_theory,C_measured,trace_distance,mode,shots,seed,
synth_gate_count,lowered_gate_count``.  Identical config and seed give
byte-identical CSV, in any process and under any ``PYTHONHASHSEED``.

A point runs: build channel -> dilate (pure input, or one of the three
mixed-state methods) -> embed qudits onto qubits -> synthesize -> lower
-> simulate and verify -> measure.  ``sweep`` and ``export-qasm`` share
the dilation and its checks (``_checked_dilations``) and, with ``synth``,
the compile steps (``_compile``), so an exported or printed circuit has
passed the synthesis and the lowering checks.  Each part is
simulated once, as the lowered circuit, in one ``run`` without its global
phase; that state times the phase is byte for byte the lowered circuit's
run, and its fidelity covers synthesis and lowering together.  Only
when it fails is the synthesized circuit run, to name the stage at fault.

A sweep runs its points in three stages (``_sweep``) on one record per
point (``_Record``).  *Prepare*, per point: the channel, the oracle and
each part (``_Part``), compiled and verified, from an input made once
per channel dimension; exact mode keeps the checked state, and a sampled
part the state before its phase, and the phase.  *Measure*: exact mode
takes each part's partial trace; sampled mode stacks the parts of one
register shape across points, branches each stack through the
tomography settings in one pass and runs each tomography step once per
stack (``_measure_stack``), and a failing stack is measured again part
by part (``_measure``).  *Record*: the finished record keeps no oracle
and no part data; its CSV row is a projection of it, and ``sweep
--trace`` writes another, one JSON line per point (``_Record.trace``).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import channels as ch_mod
from .channels import (
    KrausChannel,
    apply_channel,
    l1_coherence,
    load_channel,
    validate_cptp,
)
from .dilation import (
    DilatedState,
    SpectralInput,
    dilate_pure,
    eigenvector_dilations,
    embed_qudits,
    mixed_method_double_purification,
    mixed_method_purify_evolved,
    spectral_input,
)
from .numerics import (
    ConfigError,
    DensityMatrix,
    PureState,
    bloch_state,
    partial_trace,
    trace_distance,
    uniform_state,
)
from .numerics import read_complex, read_integer, read_list, read_matrix, read_object, read_real, read_string
from .qsp import Circuit, _built, dump_circuit, lower, qasm_export, synthesize, verify_preparation
from .simulator import ReadoutModel, apply_readout_noise, branch_stack, derive_keys, mitigate, run, sample
from .simulator import _confusion_stack
from .tomography import expectations, extract_embedded, reconstruct, settings_for

__all__ = [
    "ConfigError",
    "VerificationError",
    "ExperimentConfig",
    "SweepRow",
    "load_config",
    "run_experiment",
    "rows_to_csv",
    "main",
]

CSV_HEADER = (
    "param_value,C_theory,C_measured,trace_distance,mode,shots,seed,"
    "synth_gate_count,lowered_gate_count"
)

FIDELITY_FLOOR = 1.0 - 1e-9

# Sampled tomography measures 3^m settings of the m system qubits and
# reconstructs from 4^m Pauli strings; its string table alone is 4^m x 2^m
# complex (268 MB at m = 8), so m is bounded here, before any circuit.
MAX_TOMOGRAPHY_QUBITS = 6

# numpy draws shot counts and sizes arrays as int64
_INT64_MAX = 2**63 - 1

# A start/stop/points grid is built whole, as an array and a tuple of floats,
# before any point runs: 10^6 points take about 40 MB.
MAX_SWEEP_POINTS = 10**6

# the measured fields of a failed point's row
_FAILED_POINT = dict(c_theory=float("nan"), c_measured=float("nan"), trace_distance=float("nan"),
                     synth_gate_count=0, lowered_gate_count=0)


class VerificationError(RuntimeError):
    """A numerical check (CPTP, preparation fidelity) failed."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError (exit 1), not argparse's exit 2; subparsers inherit it."""

    def error(self, message: str):
        raise ConfigError(message)


def _hw_dephasing(p0: float, d: int = 3) -> KrausChannel:
    return ch_mod.hw_dephasing(d, p0)


# catalog channels reachable by name; each is called with the params as keywords
_CATALOG: dict[str, Callable[..., KrausChannel]] = {
    "pauli": ch_mod.pauli_channel,
    "bit_flip": ch_mod.bit_flip,
    "phase_flip": ch_mod.phase_flip,
    "bit_phase_flip": ch_mod.bit_phase_flip,
    "depolarizing": ch_mod.depolarizing,
    "phase_damping": ch_mod.phase_damping,
    "generalized_amplitude_damping": ch_mod.generalized_amplitude_damping,
    "hw_dephasing": _hw_dephasing,
    "qutrit_amplitude_damping": ch_mod.qutrit_amplitude_damping,
    "spin_boost": ch_mod.spin_boost_channel,
}
# each catalog channel's params, each with the reader its annotation (int or float) names
_PARAM_READERS = {name: {key: {int: read_integer, float: read_real}[param.annotation]
                         for key, param in inspect.signature(factory, eval_str=True).parameters.items()}
                  for name, factory in _CATALOG.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    channel_name: str | None
    channel_params: dict
    channel_file: str | None
    initial_state: object
    sweep_parameter: str | None
    grid: tuple[float, ...]
    mode: str
    shots: int
    seed: int
    readout: ReadoutModel | None
    mixed_method: int
    csv_path: str | None


@dataclass(frozen=True)
class SweepRow:
    param_value: float
    c_theory: float
    c_measured: float
    trace_distance: float
    mode: str
    shots: int
    seed: int
    synth_gate_count: int
    lowered_gate_count: int
    error: str = ""  # not serialized; reported on stderr

    def to_csv(self) -> str:
        return ",".join(
            [
                repr(float(self.param_value)),
                repr(float(self.c_theory)),
                repr(float(self.c_measured)),
                repr(float(self.trace_distance)),
                self.mode,
                str(self.shots),
                str(self.seed),
                str(self.synth_gate_count),
                str(self.lowered_gate_count),
            ]
        )


def _field(name: str, convert: Callable, *args):
    """``convert(*args)``, or a ConfigError that names the field; a reader's
    ConfigError, which names its own field, passes unchanged."""
    try:
        return convert(*args)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _read_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _bloch(angles, path: str) -> PureState:
    if len(read_list(angles, path)) != 2:
        raise ValueError("must be [theta, phi]")
    return bloch_state(*(read_real(angle, f"{path} entry {i}") for i, angle in enumerate(angles)))


# initial_state forms, in the order their keys are looked up; each is called
# with the value and its field path
_INITIAL_FORMS: dict[str, Callable[[object, str], object]] = {
    "bloch": _bloch,
    "amplitudes": lambda amps, path: PureState(
        np.array([read_complex(v, f"{path} entry {i}") for i, v in enumerate(read_list(amps, path))])
    ),
    "density_matrix": lambda rows, path: DensityMatrix(read_matrix(rows, path)),
}


def _parse_initial(raw) -> object:
    """Returns a PureState, a DensityMatrix, or the marker "uniform"."""
    if raw is None or raw == "uniform":
        return "uniform"
    raw = read_object(raw, "initial_state")
    for key, parse in _INITIAL_FORMS.items():
        if key in raw:
            return _field(f"initial_state.{key}", parse, raw[key], f"initial_state.{key}")
    raise ConfigError(f"unrecognized initial_state keys {sorted(raw)}")


def load_config(path: str) -> ExperimentConfig:
    return parse_config(_read_json_file(path, "config"))


def _catalog_factory(name) -> Callable[..., KrausChannel]:
    if read_string(name, "channel.name") not in _CATALOG:
        raise ConfigError(f"channel.name: unknown channel {name!r}; catalog: {sorted(_CATALOG)}")
    return _CATALOG[name]


def _channel_source(channel) -> tuple[str | None, str | None, dict]:
    """``(name, file, params)`` of a channel given as ``{"name": ..,
    "params": {..}}`` or ``{"file": ..}``: the one channel rule of sweep
    configs and ``oracle``.  A null field is an absent one."""
    channel = read_object(channel, "channel")
    name = channel.get("name")
    file_ = read_string(channel.get("file"), "channel.file", None)
    params = read_object(channel.get("params"), "channel.params", {})
    if name is None and file_ is None:
        raise ConfigError("channel: give a catalog channel.name or a channel.file")
    if name is not None and file_ is not None:
        raise ConfigError('channel: give "name" or "file", not both')
    if file_ is not None and params:
        raise ConfigError('channel: a "file" channel takes no "params"')
    if name is not None:
        _catalog_factory(name)
    return name, file_, params


def parse_config(data: dict) -> ExperimentConfig:
    """The config in ``data``; every field is read by a ``numerics`` reader,
    and an optional field given as null is absent."""
    data = read_object(data, "config")
    name, file_, params = _channel_source(data.get("channel"))

    sweep = read_object(data.get("sweep"), "sweep")
    parameter = read_string(sweep.get("parameter"), "sweep.parameter", None)
    if file_ is not None and parameter is not None:
        raise ConfigError(f'channel: a "file" channel takes no sweep.parameter, got {parameter!r}')
    if "grid" in sweep:
        entries = read_list(sweep["grid"], "sweep.grid")
        grid = tuple(read_real(v, f"sweep.grid entry {i}", finite=True) for i, v in enumerate(entries))
    elif {"start", "stop", "points"} <= set(sweep):
        points = read_integer(sweep["points"], "sweep.points", 1, MAX_SWEEP_POINTS)
        start = read_real(sweep["start"], "sweep.start", finite=True)
        grid = tuple(np.linspace(start, read_real(sweep["stop"], "sweep.stop", finite=True), points))
    else:
        raise ConfigError('sweep needs "grid" or start/stop/points')
    if not grid:
        raise ConfigError("sweep grid is empty")
    diffs = np.diff(grid)
    if len(grid) > 1 and not (np.all(diffs >= 0) or np.all(diffs <= 0)):
        raise ConfigError("sweep grid must be monotone")
    if file_ is not None and len(grid) > 1:
        raise ConfigError("file-based channels cannot be swept; use a single grid value")
    if name is not None and parameter is None:
        raise ConfigError("sweep.parameter: required for catalog channels")

    mode = read_string(data.get("mode"), "mode", "exact")
    if mode not in ("exact", "sampled"):
        raise ConfigError(f'mode: must be "exact" or "sampled", got {mode!r}')
    shots = read_integer(data.get("shots"), "shots", maximum=_INT64_MAX, default=0)
    if mode == "sampled" and shots < 1:
        raise ConfigError("sampled mode needs shots >= 1")
    seed = read_integer(data.get("seed"), "seed", 0, default=0)

    readout = data.get("readout")
    if readout is not None:
        if mode != "sampled":
            raise ConfigError("readout: applies only in sampled mode")
        readout = _field("readout", lambda r: ReadoutModel(**r), read_object(readout, "readout"))

    mixed_method = read_integer(data.get("mixed_method"), "mixed_method", 1, 3, default=3)
    output = read_object(data.get("output"), "output", {})

    return ExperimentConfig(
        channel_name=name,
        channel_params=dict(params),
        channel_file=file_,
        initial_state=_parse_initial(data.get("initial_state")),
        sweep_parameter=parameter,
        grid=grid,
        mode=mode,
        shots=shots,
        seed=seed,
        readout=readout,
        mixed_method=mixed_method,
        csv_path=read_string(output.get("csv"), "output.csv", None),
    )


def _read_channel_file(path: str) -> KrausChannel:
    try:
        return load_channel(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot load channel file {path}: {exc}") from exc


def _load_channel(name: str | None, path: str | None, params: dict) -> KrausChannel:
    """The CPTP channel in file ``path``, or catalog channel ``name`` built from ``params``."""
    if path is not None:
        channel = _read_channel_file(path)
        report = validate_cptp(channel)
        if not report.passed:
            raise ConfigError(f"channel file {path} is not CPTP: completeness residual "
                              f"{report.residual:.3e} above {report.tol:.1e}")
        return channel
    factory, readers = _catalog_factory(name), _PARAM_READERS[name]
    params = {key: readers[key](value, f"channel.params.{key}") if key in readers else value
              for key, value in params.items()}
    try:
        return factory(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"channel {name!r}: {exc}") from exc


def _initial_density(init: PureState | DensityMatrix | str, dim: int) -> tuple[DensityMatrix, PureState | None]:
    """Returns (rho0, psi0) for a parsed initial state; psi0 is None for mixed inputs."""
    if init == "uniform":
        init = uniform_state(dim)
    if init.dim != dim:
        raise ConfigError(f"initial state dim {init.dim} != channel dim {dim}")
    if isinstance(init, PureState):
        return init.to_density(), init
    return init, None


_Source = PureState | DensityMatrix | SpectralInput  # what a dilation reads


def _point_input(cfg: ExperimentConfig, value: float, inputs: dict) -> tuple[KrausChannel, DensityMatrix, _Source]:
    """A point's channel, initial state and dilation source: psi0 for a pure
    input, otherwise rho0, or for mixed methods 2 and 3 rho0's spectral
    decomposition.  The last two depend only on the channel's dimension;
    ``inputs``, which a sweep passes to all its points, keeps them per
    dimension, made at its first point."""
    params = dict(cfg.channel_params)
    if cfg.channel_file is None:
        params[cfg.sweep_parameter] = value
    channel = _load_channel(cfg.channel_name, cfg.channel_file, params)
    if channel.dim not in inputs:
        rho0, psi0 = _initial_density(cfg.initial_state, channel.dim)
        source = psi0 if psi0 is not None else rho0 if cfg.mixed_method == 1 else spectral_input(rho0)
        inputs[channel.dim] = rho0, source
    return (channel, *inputs[channel.dim])


def _require_fidelity(stage: str, fidelity: float) -> None:
    if fidelity < FIDELITY_FLOOR:
        raise VerificationError(f"{stage} fidelity {fidelity:.12f} below threshold")


def _compile(target: PureState) -> tuple[Circuit, Circuit, np.ndarray, np.ndarray, float]:
    """``target`` synthesized and lowered, the lowered circuit's state before
    its global phase, from one :func:`run`, that state times the phase, and
    its checked fidelity.

    The product is byte for byte ``run(lowered)``, and its fidelity covers
    synthesis and lowering together; only if it fails is the synthesized
    circuit run, so that the error names the stage at fault."""
    circuit = synthesize(target)
    low = lower(circuit)
    # the lowered circuit's checked fields, its phase left out
    state = run(_built(Circuit, **{**vars(low), "global_phase": 0.0})).amplitudes
    prepared = state * np.exp(1j * low.global_phase) if low.global_phase != 0.0 else state
    fidelity = verify_preparation(low, target, PureState(prepared))
    if fidelity < FIDELITY_FLOOR:
        _require_fidelity("synthesis", verify_preparation(circuit, target, run(circuit)))
        _require_fidelity("lowered", fidelity)
    return circuit, low, state, prepared, fidelity


class _Part(NamedTuple):
    """One verified preparation of a point (mixed method 2 has one per
    eigenvector): the diagnostics the trace reports, and its data."""

    weight: float
    system_dim: int
    system_qubits: int
    total_qubits: int
    synth_gate_count: int
    lowered_gate_count: int
    lowered_cx_count: int
    lowered_fidelity: float  # checked against FIDELITY_FLOOR
    leaked_mass: float | None  # set by the measure stage
    # exact mode's lowered state, or sampled mode's before its global phase
    # and that phase, until measured; then the block until mixed, then None
    data: np.ndarray | tuple[np.ndarray, float] | DensityMatrix | None


def _checked_dilations(cfg: ExperimentConfig, channel: KrausChannel,
                       source: _Source) -> Iterator[tuple[float, DilatedState]]:
    """Each part's weight and dilation of ``source`` (mixed method 2 has one
    part per eigenvector), checked as soon as the dilation fixes its system
    qubits, before any circuit is built: in sampled mode against
    :data:`MAX_TOMOGRAPHY_QUBITS`, and a readout model against them.
    """
    if isinstance(source, PureState):
        dilations = [(1.0, dilate_pure(channel, source))]
    elif cfg.mixed_method == 1:
        dilations = [(1.0, mixed_method_purify_evolved(channel, source))]
    elif cfg.mixed_method == 3:
        dilations = [(1.0, mixed_method_double_purification(channel, source))]
    else:
        dilations = eigenvector_dilations(channel, source)
    for weight, dilated in dilations:
        m = dilated.embedding.qubit_counts[0]
        if cfg.mode == "sampled" and m > MAX_TOMOGRAPHY_QUBITS:
            raise ValueError(
                f"tomography: {m} system qubits exceeds the sampled-tomography limit of "
                f"{MAX_TOMOGRAPHY_QUBITS} qubits ({3**m} settings)"
            )
        if cfg.readout is not None:
            # the stack the readout steps read, built and checked once per m
            _field("readout", _confusion_stack, cfg.readout, m)
        yield weight, dilated


def _prepared_parts(cfg: ExperimentConfig, channel: KrausChannel, source: _Source) -> Iterator[_Part]:
    """Embed, synthesize and lower each of :func:`_checked_dilations`' parts,
    checked as :func:`_compile` checks it.  An exact part keeps its lowered
    state; a sampled one that state before its global phase, and the phase,
    which the measure stage applies after the settings' layers."""
    for weight, dilated in _checked_dilations(cfg, channel, source):
        layout = dilated.embedding
        circuit, low, state, prepared, fidelity = _compile(embed_qudits(dilated))
        data = (state, low.global_phase) if cfg.mode == "sampled" else prepared
        yield _Part(weight, dilated.system_dim, layout.qubit_counts[0], layout.total_qubits, circuit.gate_count,
                    low.gate_count, low.cx_count, fidelity, None, data)


# The bound on one stacked measure, in complex entries (4 MiB).  A sampled
# part on m system qubits of n counts the larger of its two arrays: its
# (2^m, 2^m, 2^m) reconstruction terms and its (3^m, 2^n) branch rows.  A
# stack holds parts of one (m, n), at most 2^18 // that count of them, and
# one at least, so its branch array stays within the bound unless it holds
# one part.  Prepared points wait for the measure stage until their parts'
# counts reach it, so it also bounds the states a sweep holds.  Every row of
# a stack is measured as on its own, so the bound changes no byte.
_STACK_ENTRIES = 2**18


def _stack_entries(m: int, n: int) -> int:
    return max(8**m, 3**m * 2**n)


@dataclass
class _Record:
    """One sweep point: its oracle and parts from the prepare stage, then its
    row's measured fields, or the stage that failed and its first message.
    A finished record holds no oracle and no part data; the CSV row and the
    trace line are projections of it."""

    index: int
    value: float
    parts: list[_Part] = dataclasses.field(default_factory=list)
    oracle: DensityMatrix | None = None
    fields: dict | None = None
    stage: str = ""
    error: str = ""

    def row(self, cfg: ExperimentConfig) -> SweepRow:
        return SweepRow(param_value=self.value, mode=cfg.mode, shots=cfg.shots if cfg.mode == "sampled" else 0,
                        seed=cfg.seed, error=self.error, **(self.fields or _FAILED_POINT))

    def trace(self) -> dict:
        parts = [{key: value for key, value in part._asdict().items() if key != "data"} for part in self.parts]
        return {"point": self.index, "param_value": self.value, "stage": self.stage or None,
                "error": self.error or None, "parts": parts}

    def finish(self, stage: str) -> None:
        """End the point, failed in ``stage`` if it has an error: drop its oracle and its parts' data."""
        self.stage = stage if self.error else ""
        self.oracle = None
        self.parts = [part._replace(data=None) for part in self.parts]


def _prepare(cfg: ExperimentConfig, record: _Record, inputs: dict) -> None:
    """The prepare stage of one point: its channel, its oracle and its parts,
    each compiled and verified, from the sweep's ``inputs``
    (:func:`_point_input`).  A failure finishes the record with its
    message: the point never reaches the measure stage."""

    def prepare() -> None:
        channel, rho0, source = _point_input(cfg, record.value, inputs)
        record.oracle = apply_channel(channel, rho0)
        for part in _prepared_parts(cfg, channel, source):
            record.parts.append(part)

    _, record.error = _try_point(prepare)
    if record.error:
        record.finish("prepare")


def _measure_exact(part: _Part) -> tuple[DensityMatrix, float]:
    """An exact part's block and leaked mass, by partial trace of its lowered state."""
    reduced = partial_trace(PureState(part.data), [2] * part.total_qubits, keep=range(part.system_qubits))
    return extract_embedded(reduced, part.system_dim)


def _measure_stack(cfg: ExperimentConfig, stack: Sequence[tuple[_Record, int]]) -> list[tuple[DensityMatrix, float]]:
    """Tomography of a stack of sampled parts on m system qubits of n, part k
    of each record, as each part's block and leaked mass.

    One :func:`branch_stack` call takes the parts' states through the 3^m
    settings and applies each part's phase; the system qubits lead, so one
    ``|.|^2`` and one reshape-sum over the trailing ancilla axis make every
    setting's system marginal.  Each later step runs once on the stacked
    marginals: one :func:`derive_keys` call makes every
    stream, path ``(point, part, s, 0)`` for setting s under an empty prefix,
    with or without a readout model; with one, :func:`apply_readout_noise`
    maps the probabilities before the one :func:`sample` call and
    :func:`mitigate` turns its counts into frequencies; then one
    :func:`expectations` and one :func:`reconstruct` call on the
    ``(P, 3^m, 2^m)`` stack.  Each step treats its rows as on their own, and
    a key depends only on its whole path, so every part's bytes, and a stack
    of one part's error messages, are its own call's."""
    parts = [record.parts[k] for record, k in stack]
    m = parts[0].system_qubits
    tails = np.zeros((len(stack), 3**m, 4), dtype=np.int64)
    tails[:, :, :2] = [[(record.index, k)] for record, k in stack]
    tails[:, :, 2] = np.arange(3**m)
    keys = derive_keys(cfg.seed, (), tails.reshape(-1, 4))
    born = np.abs(branch_stack(np.stack([part.data[0] for part in parts]), [part.data[1] for part in parts],
                               settings_for(m).layers))
    np.square(born, out=born)
    marginals = born.reshape(len(born), 2**m, -1).sum(axis=2)
    if cfg.readout is None:
        weights = sample(marginals, cfg.shots, keys).counts
    else:
        weights = mitigate(sample(apply_readout_noise(marginals, cfg.readout), cfg.shots, keys).counts, cfg.readout)
    values, _ = expectations(weights.reshape(len(stack), 3**m, 2**m))
    projected = reconstruct(values).projected
    return [extract_embedded(rho, part.system_dim) for rho, part in zip(projected, parts)]


def _mix(record: _Record) -> dict:
    """The measured fields of one point's row, from its parts' blocks."""
    dim = record.oracle.dim
    measured = np.zeros((dim, dim), dtype=np.complex128)
    floor = 0.0
    for part in record.parts:
        measured += part.weight * part.data.matrix
        floor += part.weight * part.data._floor
    # every weight is positive (1.0, or an eigenvalue above RANK_TOL), so the
    # mixture's smallest eigenvalue is at least the weighted sum of the floors
    rho_measured = DensityMatrix._bounded(measured, floor, len(record.parts))
    return dict(
        c_theory=l1_coherence(record.oracle),
        c_measured=l1_coherence(rho_measured),
        trace_distance=trace_distance(rho_measured, record.oracle),
        synth_gate_count=sum(part.synth_gate_count for part in record.parts),
        lowered_gate_count=sum(part.lowered_gate_count for part in record.parts),
    )


def _measure(cfg: ExperimentConfig, points: Sequence[_Record]) -> None:
    """The measure stage of prepared points, which finishes their records.

    Exact mode measures each part by :func:`_measure_exact`.  Sampled mode
    measures the parts of each register shape (m, n) together, in stacks of
    at most ``_STACK_ENTRIES // _stack_entries(m, n)`` parts
    (:func:`_measure_stack`).  If a stack fails, each of its parts is measured again as a stack of its own,
    so a failing part fails with its own call's message and the others keep
    their bytes.  A measured part takes its block and leaked mass.  A
    point's parts share one shape, so they are measured in order, and a point
    fails with its first failed part's message; every other point's parts
    are mixed into its fields."""

    def take(item: tuple[_Record, int], measured: tuple[DensityMatrix, float] | None, error: str) -> None:
        record, k = item
        if error:
            record.error = record.error or error
        else:
            record.parts[k] = record.parts[k]._replace(data=measured[0], leaked_mass=measured[1])

    stacks: dict[tuple[int, int], list[tuple[_Record, int]]] = {}
    for record in points:
        for k, part in enumerate(record.parts):
            if cfg.mode == "exact":
                take((record, k), *_try_point(_measure_exact, part))
            else:
                stacks.setdefault((part.system_qubits, part.total_qubits), []).append((record, k))
    for shape, items in stacks.items():
        size = max(1, _STACK_ENTRIES // _stack_entries(*shape))
        for start in range(0, len(items), size):
            stack = items[start:start + size]
            blocks, error = _try_point(_measure_stack, cfg, stack)
            if error:  # each part again as a stack of its own
                for item in stack:
                    take(item, *_try_point(lambda: _measure_stack(cfg, [item])[0]))
            else:
                for item, block in zip(stack, blocks):
                    take(item, block, "")
    for record in points:
        if not record.error:
            record.fields, record.error = _try_point(_mix, record)
        record.finish("measure")


def _try_point(fn: Callable, *args) -> tuple[object, str]:
    """``(fn(*args), "")``, or ``(None, message)`` if the point fails numerically;
    a configuration error is no point failure and ends the command."""
    try:
        return fn(*args), ""
    except ConfigError:
        raise
    except (VerificationError, ValueError) as exc:
        return None, str(exc) or type(exc).__name__


def _sweep(cfg: ExperimentConfig) -> list[_Record]:
    """Every grid point through the three stages: prepare, measure, record.

    Prepared points wait for the measure stage until their sampled parts'
    counts reach ``_STACK_ENTRIES``; an exact point is measured at once,
    since exact mode stacks nothing.  A sampled sweep whose parts stay
    below that bound is prepared whole, then measured in one pass.  Each
    record ends with its row's fields or its failure."""
    records, pending, load, inputs = [], [], 0, {}
    for index, value in enumerate(cfg.grid):
        record = _Record(index, value)
        records.append(record)
        _prepare(cfg, record, inputs)
        if record.error:
            continue
        pending.append(record)
        load += _STACK_ENTRIES if cfg.mode == "exact" else sum(
            _stack_entries(part.system_qubits, part.total_qubits) for part in record.parts)
        if load >= _STACK_ENTRIES:
            _measure(cfg, pending)
            pending, load = [], 0
    _measure(cfg, pending)
    return records


def run_experiment(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run every grid point; failed points yield NaN rows with an error note."""
    return [record.row(cfg) for record in _sweep(cfg)]


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    channel = _read_channel_file(args.channel)
    report = validate_cptp(channel, tol=args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status} completeness residual {report.residual:.3e} (tol {report.tol:.1e}) "
        f"dim={channel.dim} operators={channel.n_kraus}"
    )
    return 0 if report.passed else 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.csv is not None:
        cfg = dataclasses.replace(cfg, csv_path=args.csv)
    records = _sweep(cfg)
    if args.trace is not None:  # first, so that a trace path it cannot write leaves no CSV
        _write_text(args.trace, "".join(json.dumps(record.trace()) + "\n" for record in records))
    rows = [record.row(cfg) for record in records]
    text = rows_to_csv(rows)
    if cfg.csv_path:
        _write_text(cfg.csv_path, text)
    else:
        sys.stdout.write(text)
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"point {r.param_value}: {r.error}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.qasm and not args.lower:
        raise ConfigError("--qasm exports a lowered circuit; add --lower")
    if args.state_file is not None:
        option, entries = "--state-file", _read_json_file(args.state_file, "state file")
    else:
        option, entries = "--amplitudes", _field("--amplitudes", json.loads, args.amplitudes)
    target = _field(option, _INITIAL_FORMS["amplitudes"], entries, option)
    synthesized, lowered, *_ = _field("synthesis", _compile, target)
    circuit = lowered if args.lower else synthesized
    sys.stdout.write(qasm_export(circuit) if args.qasm else dump_circuit(circuit))
    return 0


def _cmd_export_qasm(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    index = args.point
    if not 0 <= index < len(cfg.grid):
        raise ConfigError(f"point {index} outside grid of {len(cfg.grid)}")
    value = cfg.grid[index]

    def lowered() -> list[tuple[int, Circuit]]:
        # each part's system qubits and lowered circuit, compiled and checked as in a sweep
        channel, _, source = _point_input(cfg, value, {})
        return [(dilated.embedding.qubit_counts[0], _compile(embed_qudits(dilated))[1])
                for _, dilated in _checked_dilations(cfg, channel, source)]

    parts, error = _try_point(lowered)
    if error:
        print(f"point {value}: {error}", file=sys.stderr)
        return 2
    for k, (m, low) in enumerate(parts):
        tag = f"_mix{k}" if len(parts) > 1 else ""
        base = f"{args.out}_point{index}{tag}"
        files = [(f"{base}.qasm", low)]
        if args.tomography:
            # the circuits whose states a sweep's branch pass makes
            plan = settings_for(m)
            files += [
                (f"{base}_setting{''.join(setting)}.qasm",
                 Circuit(low.qubit_count, low.elements + rotations, low.global_phase))
                for setting, rotations in zip(plan.settings, plan.rotations)
            ]
        for path, circuit in files:
            _write_text(path, qasm_export(circuit))
            print(path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    params = {}
    for item in args.param or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"bad --param {item!r}; use name=value")
        params[key] = _field(f"--param {key}", float, raw)
    channel = _load_channel(*_channel_source({"name": args.channel, "file": args.channel_file, "params": params}))
    state = _field("--state", json.loads, args.state) if args.state.startswith("{") else args.state
    rho0, _ = _initial_density(_parse_initial(state), channel.dim)
    out = apply_channel(channel, rho0)
    print(f"dim {out.dim}")
    for row in out.matrix:
        print("  " + "  ".join(f"{z.real:+.10f}{z.imag:+.10f}j" for z in row))
    print(f"l1_coherence {l1_coherence(out)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="kraussim",
        description="Noisy-channel simulation via dilated state preparation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="CPTP-check a channel file")
    p.add_argument("channel", help="path to a channel JSON file")
    p.add_argument("--tol", type=float, default=None, help="completeness tolerance (finite, >= 0)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sweep", help="run a config-driven parameter sweep")
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--csv", default=None, help="override the CSV output path")
    p.add_argument("--trace", default=None, help="write one JSON line of diagnostics per point to this path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="synthesize a preparation circuit")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--amplitudes", help="JSON list of amplitudes")
    source.add_argument("--state-file", help="JSON file with the amplitude list")
    p.add_argument("--lower", action="store_true", help="lower to elementary gates")
    p.add_argument("--qasm", action="store_true", help="emit OpenQASM 2.0 instead of a dump")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("export-qasm", help="export a sweep point as OpenQASM 2.0")
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--point", type=int, default=0, help="grid point index")
    p.add_argument("--out", required=True, help="output path stem")
    p.add_argument(
        "--tomography",
        action="store_true",
        help="also write one file per measurement setting",
    )
    p.set_defaults(func=_cmd_export_qasm)

    p = sub.add_parser("oracle", help="print the operator-sum evolution")
    p.add_argument("--channel", help="catalog channel name")
    p.add_argument("--channel-file", help="path to a channel JSON file")
    p.add_argument("--param", action="append", help="channel parameter name=value")
    p.add_argument(
        "--state",
        default="uniform",
        help='initial state: "uniform" or a JSON initial_state object',
    )
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
