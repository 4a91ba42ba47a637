"""Command-line interface: config-driven sweeps and one-shot utilities.

Subcommands
-----------
``validate``     CPTP-check a channel file (JSON, see ``channels`` module).
``sweep``        Run a parameter sweep from a JSON config; emit CSV.
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
-> simulate and verify.  ``sweep`` and ``export-qasm`` share this path
(``_prepared_parts``), and ``synth`` its last three steps (``_compile``,
in exact mode), so an exported or printed circuit has passed the
synthesis and the lowering checks.  Each part is simulated once, as the
lowered circuit, in one ``run_branches`` call: exact mode with no
settings, its one row the lowered circuit's statevector, and sampled
mode with all 3^m settings of its m system qubits, row s bit for bit
setting s's full run.  The last row's fidelity covers synthesis and
lowering together, and only when it fails is the synthesized circuit
run, to name the stage at fault.  Exact mode recovers the system state
by partial trace of that verified row.  In sampled mode each row's
Born probabilities are summed over the ancilla qubits, so only the
system qubits are measured, as the protocol traces the ancilla out.
One ``derive_keys`` call makes the part's streams, one key per setting:
path ``(point, part, s, 0)`` for setting s, with or without a readout
model.  With a readout model, one ``apply_readout_noise`` call maps the
part's ``(3^m, 2^m)`` marginal matrix to the probabilities the noisy
readout reports, before any draw.  One ``sample`` call draws every
setting's shots from that matrix, row s from its own stream (one
Philox generator re-keyed per row), and
returns the part's one count matrix, rows in settings order, over the
system outcomes.  With a readout model, one ``mitigate`` call turns it
into a frequency matrix.  That matrix is the one weight matrix the
expectations read; no bitstring is formed.  The expectation vector goes
to ``reconstruct`` as it is.  Mixed method 2 prepares one circuit per eigenvector
(``dilation.eigenvector_dilations``) and mixes the recovered states
classically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    dilate_pure,
    eigenvector_dilations,
    embed_qudits,
    mixed_method_double_purification,
    mixed_method_purify_evolved,
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
from .qsp import Circuit, dump_circuit, lower, qasm_export, synthesize, verify_preparation
from .simulator import ReadoutModel, apply_readout_noise, derive_keys, mitigate, run, run_branches, sample
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


def _point_input(cfg: ExperimentConfig, value: float) -> tuple[KrausChannel, DensityMatrix, PureState | None]:
    """A point's channel and initial state, as ``(channel, rho0, psi0)``."""
    params = dict(cfg.channel_params)
    if cfg.channel_file is None:
        params[cfg.sweep_parameter] = value
    channel = _load_channel(cfg.channel_name, cfg.channel_file, params)
    return (channel, *_initial_density(cfg.initial_state, channel.dim))


def _require_fidelity(stage: str, fidelity: float) -> None:
    if fidelity < FIDELITY_FLOOR:
        raise VerificationError(f"{stage} fidelity {fidelity:.12f} below threshold")


def _compile(target: PureState, layers: Sequence) -> tuple[Circuit, Circuit, np.ndarray]:
    """The :class:`_Part` fields after ``dilated``: ``target`` synthesized and
    lowered, and the lowered circuit's states on ``layers``, one
    :func:`~kraussim.simulator.run_branches` call.

    ``layers`` must branch on nothing in the last row: exact mode gives no
    layers, so its one row is the lowered statevector, byte for byte
    ``run(lowered)``, and sampled mode its tomography settings, the all-Z
    one last.  That row's fidelity covers synthesis and lowering together;
    only if it fails is the synthesized circuit run, so that the error
    names the stage at fault."""
    circuit = synthesize(target)
    low = lower(circuit)
    branches = run_branches(low, layers)
    fidelity = verify_preparation(low, target, PureState(branches[-1]))
    if fidelity < FIDELITY_FLOOR:
        _require_fidelity("synthesis", verify_preparation(circuit, target, run(circuit)))
        _require_fidelity("lowered", fidelity)
    return circuit, low, branches


class _Part(NamedTuple):
    """One verified preparation of a point; mixed method 2 has one per eigenvector."""

    weight: float
    dilated: DilatedState
    circuit: Circuit  # synthesized
    lowered: Circuit
    branches: np.ndarray  # the lowered states, one row per tomography setting; exact mode's one row


def _prepared_parts(
    cfg: ExperimentConfig, channel: KrausChannel, rho0: DensityMatrix, psi0: PureState | None
) -> Iterator[_Part]:
    """Dilate, embed, synthesize and lower each part, checked as :func:`_compile` checks it.

    In sampled mode the part's system qubits are checked against
    :data:`MAX_TOMOGRAPHY_QUBITS`, and a readout model against them, as soon
    as the dilation fixes them, before any circuit is built.
    """
    if psi0 is not None:
        dilations = [(1.0, dilate_pure(channel, psi0))]
    elif cfg.mixed_method == 1:
        dilations = [(1.0, mixed_method_purify_evolved(channel, rho0))]
    elif cfg.mixed_method == 3:
        dilations = [(1.0, mixed_method_double_purification(channel, rho0))]
    else:
        dilations = eigenvector_dilations(channel, rho0)
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
        # one row per setting; the all-Z one rotates nothing and comes last,
        # so the last row is the lowered state
        layers = settings_for(m).layers if cfg.mode == "sampled" else ()
        yield _Part(weight, dilated, *_compile(embed_qudits(dilated), layers))


def _measure_exact(part: _Part) -> DensityMatrix:
    m0 = part.dilated.embedding.qubit_counts[0]
    reduced = partial_trace(PureState(part.branches[-1]), [2] * part.lowered.qubit_count, keep=range(m0))
    block, _ = extract_embedded(reduced, part.dilated.system_dim)
    return block


@functools.lru_cache(maxsize=MAX_TOMOGRAPHY_QUBITS)
def _setting_tails(k: int) -> np.ndarray:
    """The stream path tails ``(s, 0)`` of k settings, one row each, read-only
    and built once per setting count, which every part of a sweep reads."""
    tails = np.zeros((k, 2), dtype=np.int64)
    tails[:, 0] = np.arange(k)
    tails.flags.writeable = False
    return tails


def _measure_sampled(cfg: ExperimentConfig, part: _Part, path: tuple[int, ...]) -> DensityMatrix:
    """Tomography of the lowered preparation's system qubits from its one
    state per setting.  The system qubits lead the register, so each
    setting's ancilla marginal is one reshape-sum over the trailing axis."""
    m = part.dilated.embedding.qubit_counts[0]
    born = np.abs(part.branches)
    np.square(born, out=born)
    marginals = born.reshape(len(born), 2**m, -1).sum(axis=2)
    keys = derive_keys(cfg.seed, path, _setting_tails(len(marginals)))
    if cfg.readout is None:
        weights = sample(marginals, cfg.shots, keys).counts
    else:
        weights = mitigate(sample(apply_readout_noise(marginals, cfg.readout), cfg.shots, keys).counts, cfg.readout)
    values, _ = expectations(weights, shots=cfg.shots)
    block, _ = extract_embedded(reconstruct(values).projected, part.dilated.system_dim)
    return block


def _run_point(cfg: ExperimentConfig, index: int, value: float) -> dict:
    """The measured fields of one point's row."""
    channel, rho0, psi0 = _point_input(cfg, value)
    oracle = apply_channel(channel, rho0)
    synth_count = lowered_count = 0
    measured = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    floor, terms = 0.0, 0
    for k, part in enumerate(_prepared_parts(cfg, channel, rho0, psi0)):
        synth_count += part.circuit.gate_count
        lowered_count += part.lowered.gate_count
        if cfg.mode == "exact":
            block = _measure_exact(part)
        else:
            block = _measure_sampled(cfg, part, (index, k))
        measured += part.weight * block.matrix
        floor += part.weight * block._floor
        terms += 1
    # every weight is positive (1.0, or an eigenvalue above RANK_TOL), so the
    # mixture's smallest eigenvalue is at least the weighted sum of the floors
    rho_measured = DensityMatrix._bounded(measured, floor, terms)
    return dict(
        c_theory=l1_coherence(oracle),
        c_measured=l1_coherence(rho_measured),
        trace_distance=trace_distance(rho_measured, oracle),
        synth_gate_count=synth_count,
        lowered_gate_count=lowered_count,
    )


def _try_point(fn: Callable, *args) -> tuple[object, str]:
    """``(fn(*args), "")``, or ``(None, message)`` if the point fails numerically;
    a configuration error is no point failure and ends the command."""
    try:
        return fn(*args), ""
    except ConfigError:
        raise
    except (VerificationError, ValueError) as exc:
        return None, str(exc) or type(exc).__name__


def run_experiment(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run every grid point; failed points yield NaN rows with an error note."""
    shots = cfg.shots if cfg.mode == "sampled" else 0
    rows = []
    for index, value in enumerate(cfg.grid):
        fields, error = _try_point(_run_point, cfg, index, value)
        rows.append(SweepRow(param_value=value, mode=cfg.mode, shots=shots, seed=cfg.seed,
                             error=error, **(fields or _FAILED_POINT)))
    return rows


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
    rows = run_experiment(cfg)
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
    synthesized, lowered, _ = _field("synthesis", _compile, target, ())
    circuit = lowered if args.lower else synthesized
    sys.stdout.write(qasm_export(circuit) if args.qasm else dump_circuit(circuit))
    return 0


def _cmd_export_qasm(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    index = args.point
    if not 0 <= index < len(cfg.grid):
        raise ConfigError(f"point {index} outside grid of {len(cfg.grid)}")
    value = cfg.grid[index]
    parts, error = _try_point(lambda: list(_prepared_parts(cfg, *_point_input(cfg, value))))
    if error:
        print(f"point {value}: {error}", file=sys.stderr)
        return 2
    for k, part in enumerate(parts):
        tag = f"_mix{k}" if len(parts) > 1 else ""
        base = f"{args.out}_point{index}{tag}"
        low = part.lowered
        files = [(f"{base}.qasm", low)]
        if args.tomography:
            # the circuits whose states the sweep branches in one run_branches call
            plan = settings_for(part.dilated.embedding.qubit_counts[0])
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
