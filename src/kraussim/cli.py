"""Command-line interface: config-driven sweeps and one-shot utilities.

Subcommands
-----------
``validate``     CPTP-check a channel file (JSON, see ``channels`` module).
``sweep``        Run a parameter sweep from a JSON config; emit CSV.
``synth``        Synthesize a preparation circuit for an amplitude vector.
``export-qasm``  Write OpenQASM 2.0 for one sweep point's lowered circuit.
``oracle``       Print the operator-sum evolution of a state, no circuits.

Exit codes, for every subcommand: 0 success; 1 configuration error (bad
config, channel file, state, argument or output path; a channel
given both by ``name`` and by ``file``, or by ``file`` with ``params``;
a channel parameter the constructor does not take; a bad readout model
(a rate that is a string, a boolean or outside [0, 0.5]), one given in
exact mode, or one whose per-qubit lists do not cover the dilated
register; a negative seed), one ``config error: ...`` line on
stderr; 2 numerical failure.  Exit 2 means: for ``validate``, a
completeness residual above tolerance (``FAIL``); for ``sweep``, a
failed point (fidelity below the floor, register over the limit), whose
row is NaN while the other points run, reported as ``point <value>:
<error>`` on stderr; for ``export-qasm``, a failed point, reported as in
``sweep``, with no file written; for ``synth``, a fidelity below the
floor (``verification failure: ...``).  ``oracle`` never exits 2.

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
channel takes no ``params``.  ``synth`` parses its amplitude list like
``initial_state.amplitudes`` and names the option that gave it
(``--amplitudes`` or ``--state-file``) in an error.

Catalog ``params`` and ``sweep.parameter`` are the keyword parameters of
the channel constructor in ``channels`` (``_CATALOG`` maps each name to
it), so a parameter the channel does not take is a configuration error,
as is a missing one.  ``readout`` applies only in sampled mode.  It is
passed to ``ReadoutModel``, which validates it: numeric rates (a
string or a boolean is rejected, not read as a rate) in [0, 0.5],
per-qubit tuples of one length, and no singular confusion matrix.  A
per-qubit tuple covers the whole dilated register, system and ancilla
qubits, and is checked against it before any circuit is built.
``seed`` must be >= 0.

The sweep grid must be nonempty and monotone.  Integer fields (``shots``,
``seed``, ``mixed_method``, ``sweep.points``, the catalog ``d``) take
integral numbers: ``7.0`` reads as 7, while ``2.9`` or ``true`` is a
configuration error.  CSV columns are fixed:
``param_value,C_theory,C_measured,trace_distance,mode,shots,seed,
synth_gate_count,lowered_gate_count``.  Identical config and seed give
byte-identical CSV, in any process and under any ``PYTHONHASHSEED``.

A point runs: build channel -> dilate (pure input, or one of the three
mixed-state methods) -> embed qudits onto qubits -> synthesize -> simulate
and verify -> lower -> simulate and verify.  ``sweep`` and
``export-qasm`` share this path (``_prepared_parts``), so an exported
circuit has passed both fidelity checks.  Each circuit is simulated
once.  Exact mode recovers the system state by partial trace of the
synthesized circuit's verified statevector.  Sampled mode branches all
3^n tomography settings from the lowered circuit's one simulation: each
setting applies only its basis rotations to a copy of that state.  Each
setting's shots are drawn as a dense count array over the register
from its own ``derive_rng`` stream, optionally corrupted by readout
noise and mitigated into a frequency array.  These rows, stacked in
settings order, are the one weight matrix the expectations read; no
bitstring is formed.  Mixed method 2 prepares one circuit per
eigenvector (``dilation.eigenvector_dilations``) and mixes the recovered
states classically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    DensityMatrix,
    PureState,
    bloch_state,
    partial_trace,
    trace_distance,
    uniform_state,
)
from .qsp import Circuit, dump_circuit, lower, qasm_export, synthesize, synthesize_real, verify_preparation
from .simulator import ReadoutModel, apply_readout_noise, derive_rng, mitigate, run, sample
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

# the measured fields of a failed point's row
_FAILED_POINT = dict(c_theory=float("nan"), c_measured=float("nan"), trace_distance=float("nan"),
                     synth_gate_count=0, lowered_gate_count=0)


class ConfigError(ValueError):
    """Malformed configuration, channel file, or command arguments."""


class VerificationError(RuntimeError):
    """A numerical check (CPTP, preparation fidelity) failed."""


def _hw_dephasing(p0: float, d: int = 3) -> KrausChannel:
    return ch_mod.hw_dephasing(_field("d", _integer, d), p0)


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


def _field(name: str, convert: Callable, value):
    """``convert(value)``, or a ConfigError that names the field."""
    try:
        return convert(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _integer(value) -> int:
    """``value`` as an int; a boolean or a fractional number is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


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


def _complex_entry(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot read complex entry {value!r}")


def _bloch(angles) -> PureState:
    if not isinstance(angles, (list, tuple)) or len(angles) != 2:
        raise ValueError("must be [theta, phi]")
    return bloch_state(float(angles[0]), float(angles[1]))


# initial_state forms, in the order their keys are looked up
_INITIAL_FORMS: dict[str, Callable[[object], object]] = {
    "bloch": _bloch,
    "amplitudes": lambda amps: PureState(np.array([_complex_entry(v) for v in amps])),
    "density_matrix": lambda rows: DensityMatrix(
        np.array([[_complex_entry(v) for v in row] for row in rows])
    ),
}


def _parse_initial(raw) -> object:
    """Returns a PureState, a DensityMatrix, or the marker "uniform"."""
    if raw is None or raw == "uniform":
        return "uniform"
    if not isinstance(raw, dict):
        raise ConfigError(f"unrecognized initial_state {raw!r}")
    for key, parse in _INITIAL_FORMS.items():
        if key in raw:
            return _field(f"initial_state.{key}", parse, raw[key])
    raise ConfigError(f"unrecognized initial_state keys {sorted(raw)}")


def load_config(path: str) -> ExperimentConfig:
    return parse_config(_read_json_file(path, "config"))


def _catalog_factory(name) -> Callable[..., KrausChannel]:
    if not isinstance(name, str) or name not in _CATALOG:
        raise ConfigError(f"unknown channel {name!r}; catalog: {sorted(_CATALOG)}")
    return _CATALOG[name]


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    channel = data.get("channel")
    if not isinstance(channel, dict) or not ({"name", "file"} & set(channel)):
        raise ConfigError('config needs "channel": {"name": ...} or {"file": ...}')
    if {"name", "file"} <= set(channel):
        raise ConfigError('channel: give "name" or "file", not both')
    if {"file", "params"} <= set(channel):
        raise ConfigError('channel: a "file" channel takes no "params"')
    name = channel.get("name")
    file_ = channel.get("file")
    if name is not None:
        _catalog_factory(name)
    if file_ is not None and not isinstance(file_, str):
        raise ConfigError("channel.file must be a path")
    params = channel.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("channel.params must be an object")

    sweep = data.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError('config needs a "sweep" object')
    parameter = sweep.get("parameter")
    if "grid" in sweep:
        if not isinstance(sweep["grid"], (list, tuple)):
            raise ConfigError("sweep.grid must be a list of values")
        grid = _field("sweep.grid", lambda g: tuple(float(v) for v in g), sweep["grid"])
    elif {"start", "stop", "points"} <= set(sweep):
        points = _field("sweep.points", _integer, sweep["points"])
        if points < 1:
            raise ConfigError("sweep.points must be >= 1")
        start = _field("sweep.start", float, sweep["start"])
        stop = _field("sweep.stop", float, sweep["stop"])
        grid = tuple(np.linspace(start, stop, points))
    else:
        raise ConfigError('sweep needs "grid" or start/stop/points')
    if not grid:
        raise ConfigError("sweep grid is empty")
    diffs = np.diff(grid)
    if len(grid) > 1 and not (np.all(diffs >= 0) or np.all(diffs <= 0)):
        raise ConfigError("sweep grid must be monotone")
    if file_ is not None and len(grid) > 1:
        raise ConfigError("file-based channels cannot be swept; use a single grid value")
    if name is not None and not isinstance(parameter, str):
        raise ConfigError("sweep.parameter is required for catalog channels")

    mode = data.get("mode", "exact")
    if mode not in ("exact", "sampled"):
        raise ConfigError(f'mode must be "exact" or "sampled", got {mode!r}')
    shots = _field("shots", _integer, data.get("shots", 0))
    if mode == "sampled" and shots < 1:
        raise ConfigError("sampled mode needs shots >= 1")
    seed = _field("seed", _integer, data.get("seed", 0))
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")

    readout = data.get("readout")
    if readout is not None:
        if mode != "sampled":
            raise ConfigError("readout: applies only in sampled mode")
        readout = _field("readout", lambda r: ReadoutModel(**r), readout)

    mixed_method = _field("mixed_method", _integer, data.get("mixed_method", 3))
    if mixed_method not in (1, 2, 3):
        raise ConfigError("mixed_method must be 1, 2 or 3")

    output = data.get("output") or {}
    if not isinstance(output, dict) or not isinstance(output.get("csv", ""), str):
        raise ConfigError('output must be an object {"csv": <path>}')

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
        csv_path=output.get("csv"),
    )


def _load_channel(name: str | None = None, params: dict | None = None, path: str | None = None) -> KrausChannel:
    """The channel in file ``path``, or catalog channel ``name`` built from ``params``."""
    if path is not None:
        try:
            return load_channel(path)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot load channel file {path}: {exc}") from exc
    factory = _catalog_factory(name)
    try:
        return factory(**(params or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"channel {name!r}: {exc}") from exc


def _initial_density(init: object, dim: int) -> tuple[DensityMatrix, PureState | None]:
    """Returns (rho0, psi0) for a parsed initial state; psi0 is None for mixed inputs."""
    if init == "uniform":
        init = uniform_state(dim)
    if isinstance(init, (PureState, DensityMatrix)) and init.dim != dim:
        raise ConfigError(f"initial state dim {init.dim} != channel dim {dim}")
    if isinstance(init, PureState):
        return init.to_density(), init
    if isinstance(init, DensityMatrix):
        return init, None
    raise ConfigError(f"unusable initial state {init!r}")


def _point_input(cfg: ExperimentConfig, value: float) -> tuple[KrausChannel, DensityMatrix, PureState | None]:
    """A point's channel and initial state, as ``(channel, rho0, psi0)``."""
    params = dict(cfg.channel_params)
    if cfg.channel_file is None:
        params[cfg.sweep_parameter] = value
    channel = _load_channel(cfg.channel_name, params, cfg.channel_file)
    return (channel, *_initial_density(cfg.initial_state, channel.dim))


def _require_fidelity(stage: str, fidelity: float) -> None:
    if fidelity < FIDELITY_FLOOR:
        raise VerificationError(f"{stage} fidelity {fidelity:.12f} below threshold")


class _Part(NamedTuple):
    """One verified preparation of a point; mixed method 2 has one per eigenvector."""

    weight: float
    dilated: DilatedState
    circuit: Circuit  # synthesized
    state: PureState  # the synthesized circuit's verified statevector
    lowered: Circuit
    prefix: PureState  # the lowered gates' state, before the global phase


def _prepared_parts(
    cfg: ExperimentConfig, channel: KrausChannel, rho0: DensityMatrix, psi0: PureState | None
) -> Iterator[_Part]:
    """Dilate, embed, synthesize and lower each part, checking both fidelities.

    A readout model is checked against each part's register as soon as the
    dilation fixes it, before any circuit is built.
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
        if cfg.readout is not None:
            _field("readout", cfg.readout.confusion, dilated.embedding.total_qubits)
        embedded = embed_qudits(dilated)
        circuit = synthesize(embedded)
        state = run(circuit)
        _require_fidelity("synthesis", verify_preparation(circuit, embedded, state))
        low = lower(circuit)
        # one simulation of the lowered gates; the global phase comes last,
        # so the verified state and every tomography setting branch from it
        n = low.qubit_count
        prefix = run(Circuit(n, low.gates))
        low_state = run(Circuit(n, (), low.global_phase), prefix)
        _require_fidelity("lowered", verify_preparation(low, embedded, low_state))
        yield _Part(weight, dilated, circuit, state, low, prefix)


def _setting_circuits(part: _Part) -> tuple[tuple[int, ...], list[tuple[tuple[str, ...], Circuit]]]:
    """The system qubits, and each tomography setting with its circuit: the
    setting's basis rotations, then the lowered circuit's global phase."""
    low = part.lowered
    plan = settings_for(tuple(range(part.dilated.embedding.qubit_counts[0])))
    circuits = [
        (setting, Circuit(low.qubit_count, plan.rotations[setting], low.global_phase))
        for setting in plan.settings
    ]
    return plan.system_qubits, circuits


def _measure_exact(part: _Part) -> DensityMatrix:
    m0 = part.dilated.embedding.qubit_counts[0]
    reduced = partial_trace(part.state, [2] * part.circuit.qubit_count, keep=range(m0))
    block, _ = extract_embedded(reduced, part.dilated.system_dim)
    return block


def _measure_sampled(cfg: ExperimentConfig, part: _Part, path: tuple[int, ...]) -> DensityMatrix:
    """Tomography of the lowered preparation, branched from its one simulation."""
    system_qubits, circuits = _setting_circuits(part)
    weights = []
    for s_idx, (_, circuit) in enumerate(circuits):
        state = run(circuit, part.prefix)
        counts = sample(state, cfg.shots, derive_rng(cfg.seed, *path, s_idx, 0))
        if cfg.readout is None:
            weights.append(counts.counts)
        else:
            noisy = apply_readout_noise(counts, cfg.readout, derive_rng(cfg.seed, *path, s_idx, 1))
            weights.append(mitigate(noisy, cfg.readout))
    values, _ = expectations(np.stack(weights), system_qubits, shots=cfg.shots)
    block, _ = extract_embedded(reconstruct(values).projected, part.dilated.system_dim)
    return block


def _run_point(cfg: ExperimentConfig, index: int, value: float) -> dict:
    """The measured fields of one point's row."""
    channel, rho0, psi0 = _point_input(cfg, value)
    oracle = apply_channel(channel, rho0)
    synth_count = lowered_count = 0
    measured = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for k, part in enumerate(_prepared_parts(cfg, channel, rho0, psi0)):
        synth_count += len(part.circuit.gates)
        lowered_count += len(part.lowered.gates)
        if cfg.mode == "exact":
            block = _measure_exact(part)
        else:
            block = _measure_sampled(cfg, part, (index, k))
        measured += part.weight * block.matrix
    rho_measured = DensityMatrix(measured)
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
    channel = _load_channel(path=args.channel)
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
    if args.state_file:
        option, entries = "--state-file", _read_json_file(args.state_file, "state file")
    elif args.amplitudes:
        option, entries = "--amplitudes", _field("--amplitudes", json.loads, args.amplitudes)
    else:
        raise ConfigError("provide --amplitudes or --state-file")
    target = _field(option, _INITIAL_FORMS["amplitudes"], entries)
    circuit = _field("synthesis", synthesize_real if args.real else synthesize, target)
    _require_fidelity("synthesis", verify_preparation(circuit, target))
    if args.lower:
        circuit = lower(circuit)
        _require_fidelity("lowered", verify_preparation(circuit, target))
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
            # the setting circuits the sweep branches from part.prefix,
            # with the lowered gates in front
            files += [
                (f"{base}_setting{''.join(setting)}.qasm",
                 Circuit(low.qubit_count, low.gates + circuit.gates, circuit.global_phase))
                for setting, circuit in _setting_circuits(part)[1]
            ]
        for path, circuit in files:
            _write_text(path, qasm_export(circuit))
            print(path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not (args.channel or args.channel_file):
        raise ConfigError("provide --channel or --channel-file")
    params = {}
    for item in args.param or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"bad --param {item!r}; use name=value")
        params[key] = _field(f"--param {key}", float, raw)
    channel = _load_channel(args.channel, params, args.channel_file)
    state = _field("--state", json.loads, args.state) if args.state.startswith("{") else args.state
    rho0, _ = _initial_density(_parse_initial(state), channel.dim)
    out = apply_channel(channel, rho0)
    print(f"dim {out.dim}")
    for row in out.matrix:
        print("  " + "  ".join(f"{z.real:+.10f}{z.imag:+.10f}j" for z in row))
    print(f"l1_coherence {l1_coherence(out)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kraussim",
        description="Noisy-channel simulation via dilated state preparation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="CPTP-check a channel file")
    p.add_argument("channel", help="path to a channel JSON file")
    p.add_argument("--tol", type=float, default=None, help="completeness tolerance")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sweep", help="run a config-driven parameter sweep")
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--csv", default=None, help="override the CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("synth", help="synthesize a preparation circuit")
    p.add_argument("--amplitudes", help="JSON list of amplitudes")
    p.add_argument("--state-file", help="JSON file with the amplitude list")
    p.add_argument("--real", action="store_true", help="use the Ry-only real path")
    p.add_argument("--lower", action="store_true", help="lower to elementary gates")
    p.add_argument("--qasm", action="store_true", help="emit OpenQASM 2.0 instead of a dump")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("export-qasm", help="export a sweep point as OpenQASM 2.0")
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--point", type=int, default=0, help="grid point index")
    p.add_argument("--out", required=True, help="output path prefix")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
