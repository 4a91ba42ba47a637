"""Command-line interface: config-driven sweeps and one-shot utilities.

Subcommands
-----------
``validate``     CPTP-check a channel file (JSON, see ``channels`` module).
``sweep``        Run a parameter sweep from a JSON config; emit CSV.
``synth``        Synthesize a preparation circuit for an amplitude vector.
``export-qasm``  Write OpenQASM 2.0 for one sweep point's lowered circuit.
``oracle``       Print the operator-sum evolution of a state, no circuits.

Exit codes: 0 success, 1 configuration error, 2 numerical verification
failure (broken CPTP channel, preparation fidelity below threshold).

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
      "readout": {"e0": <float>, "e1": <float>},        # optional
      "mixed_method": 1 | 2 | 3,                        # optional, default 3
      "output": {"csv": <path>}                         # optional
    }

The sweep grid must be nonempty and monotone.  CSV columns are fixed:
``param_value,C_theory,C_measured,trace_distance,mode,shots,seed,
synth_gate_count,lowered_gate_count``.  Identical config and seed give
byte-identical CSV, in any process and under any ``PYTHONHASHSEED``.

A point runs: build channel -> dilate (pure input, or one of the three
mixed-state methods) -> embed qudits onto qubits -> synthesize -> simulate
and verify -> lower -> simulate and verify.  Each circuit is simulated
once.  Exact mode recovers the system state by partial trace of the
synthesized circuit's verified statevector.  Sampled mode branches all
3^n tomography settings from the lowered circuit's one simulation: each
setting applies only its basis rotations to a copy of that state.  Each
setting's shots are drawn as a dense count array over the register,
optionally corrupted by readout noise and mitigated into a frequency
array; the expectations and the reconstruction work on those arrays, and
no bitstring is formed.  Mixed method 2 prepares one circuit per
eigenvector (``dilation.eigenvector_dilations``) and mixes the recovered
states classically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

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


class ConfigError(ValueError):
    """Malformed configuration, channel file, or command arguments."""


class VerificationError(RuntimeError):
    """A numerical check (CPTP, preparation fidelity) failed."""


# catalog channels reachable by name; each factory takes the params dict
_CATALOG: dict[str, Callable[[dict], KrausChannel]] = {
    "pauli": lambda p: ch_mod.pauli_channel(p["p_i"], p["p_x"], p["p_z"], p["p_y"]),
    "bit_flip": lambda p: ch_mod.bit_flip(p["p"]),
    "phase_flip": lambda p: ch_mod.phase_flip(p["p"]),
    "bit_phase_flip": lambda p: ch_mod.bit_phase_flip(p["p"]),
    "depolarizing": lambda p: ch_mod.depolarizing(p["p"]),
    "phase_damping": lambda p: ch_mod.phase_damping(p["p"]),
    "generalized_amplitude_damping": lambda p: ch_mod.generalized_amplitude_damping(
        p["p"], p["n"]
    ),
    "hw_dephasing": lambda p: ch_mod.hw_dephasing(int(p.get("d", 3)), p["p0"]),
    "qutrit_amplitude_damping": lambda p: ch_mod.qutrit_amplitude_damping(p["gamma"]),
    "spin_boost": lambda p: ch_mod.spin_boost_channel(p["theta"]),
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


def _complex_entry(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"cannot read complex entry {value!r}")


def _parse_initial(raw) -> object:
    """Returns a PureState, a DensityMatrix, or the marker "uniform"."""
    if raw is None or raw == "uniform":
        return "uniform"
    if not isinstance(raw, dict):
        raise ConfigError(f"unrecognized initial_state {raw!r}")
    if "bloch" in raw:
        angles = raw["bloch"]
        if not isinstance(angles, (list, tuple)) or len(angles) != 2:
            raise ConfigError("initial_state.bloch must be [theta, phi]")
        return bloch_state(float(angles[0]), float(angles[1]))
    if "amplitudes" in raw:
        vec = np.array([_complex_entry(v) for v in raw["amplitudes"]])
        try:
            return PureState(vec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if "density_matrix" in raw:
        rows = raw["density_matrix"]
        mat = np.array([[_complex_entry(v) for v in row] for row in rows])
        try:
            return DensityMatrix(mat)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unrecognized initial_state keys {sorted(raw)}")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(data)


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    channel = data.get("channel")
    if not isinstance(channel, dict) or not ({"name", "file"} & set(channel)):
        raise ConfigError('config needs "channel": {"name": ...} or {"file": ...}')
    name = channel.get("name")
    file_ = channel.get("file")
    if name is not None and name not in _CATALOG:
        raise ConfigError(f"unknown channel {name!r}; catalog: {sorted(_CATALOG)}")

    sweep = data.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError('config needs a "sweep" object')
    parameter = sweep.get("parameter")
    if "grid" in sweep:
        grid = tuple(float(v) for v in sweep["grid"])
    elif {"start", "stop", "points"} <= set(sweep):
        points = int(sweep["points"])
        if points < 1:
            raise ConfigError("sweep.points must be >= 1")
        grid = tuple(
            np.linspace(float(sweep["start"]), float(sweep["stop"]), points)
        )
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
        raise ConfigError("sweep.parameter is required for catalog channels")

    mode = data.get("mode", "exact")
    if mode not in ("exact", "sampled"):
        raise ConfigError(f'mode must be "exact" or "sampled", got {mode!r}')
    shots = int(data.get("shots", 0))
    if mode == "sampled" and shots < 1:
        raise ConfigError("sampled mode needs shots >= 1")
    seed = int(data.get("seed", 0))

    readout = None
    if data.get("readout") is not None:
        r = data["readout"]
        try:
            readout = ReadoutModel(e0=r["e0"], e1=r["e1"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad readout model: {exc}") from exc

    mixed_method = int(data.get("mixed_method", 3))
    if mixed_method not in (1, 2, 3):
        raise ConfigError("mixed_method must be 1, 2 or 3")

    output = data.get("output") or {}
    csv_path = output.get("csv")

    return ExperimentConfig(
        channel_name=name,
        channel_params=dict(channel.get("params", {})),
        channel_file=file_,
        initial_state=_parse_initial(data.get("initial_state")),
        sweep_parameter=parameter,
        grid=grid,
        mode=mode,
        shots=shots,
        seed=seed,
        readout=readout,
        mixed_method=mixed_method,
        csv_path=csv_path,
    )


def _build_channel(cfg: ExperimentConfig, value: float) -> KrausChannel:
    if cfg.channel_file is not None:
        try:
            return load_channel(cfg.channel_file)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load channel file: {exc}") from exc
    params = dict(cfg.channel_params)
    params[cfg.sweep_parameter] = value
    try:
        return _CATALOG[cfg.channel_name](params)
    except KeyError as exc:
        raise ConfigError(f"channel {cfg.channel_name!r} missing parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _initial_density(cfg: ExperimentConfig, dim: int) -> tuple[DensityMatrix, PureState | None]:
    """Returns (rho0, psi0); psi0 is None for genuinely mixed inputs."""
    init = cfg.initial_state
    if init == "uniform":
        psi = uniform_state(dim)
        return psi.to_density(), psi
    if isinstance(init, PureState):
        if init.dim != dim:
            raise ConfigError(f"initial state dim {init.dim} != channel dim {dim}")
        return init.to_density(), init
    if isinstance(init, DensityMatrix):
        if init.dim != dim:
            raise ConfigError(f"initial state dim {init.dim} != channel dim {dim}")
        return init, None
    raise ConfigError(f"unusable initial state {init!r}")


def _dilations(
    cfg: ExperimentConfig, channel: KrausChannel, rho0: DensityMatrix, psi0: PureState | None
) -> list[tuple[float, DilatedState]]:
    if psi0 is not None:
        return [(1.0, dilate_pure(channel, psi0))]
    if cfg.mixed_method == 1:
        return [(1.0, mixed_method_purify_evolved(channel, rho0))]
    if cfg.mixed_method == 3:
        return [(1.0, mixed_method_double_purification(channel, rho0))]
    return eigenvector_dilations(channel, rho0)


def _measure_exact(state: PureState, dilated: DilatedState) -> DensityMatrix:
    n = state.dim.bit_length() - 1
    m0 = dilated.embedding.qubit_counts[0]
    reduced = partial_trace(state, [2] * n, keep=range(m0))
    block, _ = extract_embedded(reduced, dilated.system_dim)
    return block


def _measure_sampled(
    cfg: ExperimentConfig,
    prefix: PureState,
    global_phase: float,
    dilated: DilatedState,
    path: tuple[int, ...],
) -> DensityMatrix:
    """Tomography of the lowered preparation, branched from its one simulation.

    ``prefix`` is the lowered circuit's state before its global phase;
    each setting rotates a copy of it and then applies the phase, exactly
    as running the whole setting circuit would.
    """
    n = prefix.dim.bit_length() - 1
    m0 = dilated.embedding.qubit_counts[0]
    system_qubits = tuple(range(m0))
    plan = settings_for(system_qubits)
    data = {}
    for s_idx, setting in enumerate(plan.settings):
        state = run(Circuit(n, plan.rotations[setting], global_phase), prefix)
        counts = sample(state, cfg.shots, derive_rng(cfg.seed, *path, s_idx, 0))
        if cfg.readout is not None:
            counts = apply_readout_noise(
                counts, cfg.readout, derive_rng(cfg.seed, *path, s_idx, 1)
            )
            data[setting] = mitigate(counts, cfg.readout)
        else:
            data[setting] = counts
    values, errs = expectations(data, system_qubits, shots_per_setting=cfg.shots)
    result = reconstruct(values, errs, shots_per_setting=cfg.shots)
    block, _ = extract_embedded(result.projected, dilated.system_dim)
    return block


def _require_fidelity(stage: str, fidelity: float, value: float) -> None:
    if fidelity < FIDELITY_FLOOR:
        raise VerificationError(
            f"{stage} fidelity {fidelity:.12f} below threshold at value {value}"
        )


def _run_point(cfg: ExperimentConfig, index: int, value: float) -> SweepRow:
    channel = _build_channel(cfg, value)
    rho0, psi0 = _initial_density(cfg, channel.dim)
    oracle = apply_channel(channel, rho0)
    c_theory = l1_coherence(oracle)

    parts = _dilations(cfg, channel, rho0, psi0)
    synth_count = 0
    lowered_count = 0
    measured = np.zeros((channel.dim, channel.dim), dtype=np.complex128)
    for k, (weight, dilated) in enumerate(parts):
        embedded = embed_qudits(dilated)
        circuit = synthesize(embedded)
        state = run(circuit)
        _require_fidelity("synthesis", verify_preparation(circuit, embedded, state), value)
        low = lower(circuit)
        # one simulation of the lowered gates; the global phase comes last,
        # so the verified state and every tomography setting branch from it
        n = low.qubit_count
        prefix = run(Circuit(n, low.gates))
        low_state = run(Circuit(n, (), low.global_phase), prefix)
        _require_fidelity("lowered", verify_preparation(low, embedded, low_state), value)
        synth_count += len(circuit.gates)
        lowered_count += len(low.gates)
        if cfg.mode == "exact":
            block = _measure_exact(state, dilated)
        else:
            block = _measure_sampled(cfg, prefix, low.global_phase, dilated, (index, k))
        measured += weight * block.matrix
    rho_measured = DensityMatrix(measured)
    return SweepRow(
        param_value=value,
        c_theory=c_theory,
        c_measured=l1_coherence(rho_measured),
        trace_distance=trace_distance(rho_measured, oracle),
        mode=cfg.mode,
        shots=cfg.shots if cfg.mode == "sampled" else 0,
        seed=cfg.seed,
        synth_gate_count=synth_count,
        lowered_gate_count=lowered_count,
    )


def run_experiment(cfg: ExperimentConfig) -> list[SweepRow]:
    """Run every grid point; failed points yield NaN rows with an error note."""
    rows = []
    for index, value in enumerate(cfg.grid):
        try:
            rows.append(_run_point(cfg, index, value))
        except (VerificationError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            rows.append(
                SweepRow(
                    param_value=value,
                    c_theory=float("nan"),
                    c_measured=float("nan"),
                    trace_distance=float("nan"),
                    mode=cfg.mode,
                    shots=cfg.shots if cfg.mode == "sampled" else 0,
                    seed=cfg.seed,
                    synth_gate_count=0,
                    lowered_gate_count=0,
                    error=str(exc),
                )
            )
    return rows


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        channel = load_channel(args.channel)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
        with open(cfg.csv_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = [r for r in rows if r.error]
    for r in failures:
        print(f"point {r.param_value}: {r.error}", file=sys.stderr)
    return 2 if failures else 0


def _read_amplitudes(args: argparse.Namespace) -> PureState:
    if args.state_file:
        with open(args.state_file, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    elif args.amplitudes:
        entries = json.loads(args.amplitudes)
    else:
        raise ConfigError("provide --amplitudes or --state-file")
    vec = np.array([_complex_entry(v) for v in entries])
    try:
        return PureState(vec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_synth(args: argparse.Namespace) -> int:
    target = _read_amplitudes(args)
    circuit = synthesize_real(target) if args.real else synthesize(target)
    fid = verify_preparation(circuit, target)
    if fid < FIDELITY_FLOOR:
        print(f"error: synthesis fidelity {fid}", file=sys.stderr)
        return 2
    if args.lower:
        circuit = lower(circuit)
        fid = verify_preparation(circuit, target)
        if fid < FIDELITY_FLOOR:
            print(f"error: lowered fidelity {fid}", file=sys.stderr)
            return 2
    sys.stdout.write(qasm_export(circuit) if args.qasm else dump_circuit(circuit))
    return 0


def _cmd_export_qasm(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    index = args.point
    if not 0 <= index < len(cfg.grid):
        raise ConfigError(f"point {index} outside grid of {len(cfg.grid)}")
    value = cfg.grid[index]
    channel = _build_channel(cfg, value)
    rho0, psi0 = _initial_density(cfg, channel.dim)
    parts = _dilations(cfg, channel, rho0, psi0)
    written = []
    for k, (_, dilated) in enumerate(parts):
        embedded = embed_qudits(dilated)
        low = lower(synthesize(embedded))
        fid = verify_preparation(low, embedded)
        if fid < FIDELITY_FLOOR:
            print(f"error: lowered fidelity {fid}", file=sys.stderr)
            return 2
        tag = f"_mix{k}" if len(parts) > 1 else ""
        base = f"{args.out}_point{index}{tag}"
        path = f"{base}.qasm"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(qasm_export(low))
        written.append(path)
        if args.tomography:
            m0 = dilated.embedding.qubit_counts[0]
            plan = settings_for(tuple(range(m0)))
            for setting in plan.settings:
                circ = Circuit(
                    low.qubit_count,
                    low.gates + plan.rotations[setting],
                    low.global_phase,
                )
                spath = f"{base}_setting{''.join(setting)}.qasm"
                with open(spath, "w", encoding="utf-8") as fh:
                    fh.write(qasm_export(circ))
                written.append(spath)
    for path in written:
        print(path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    params = {}
    for item in args.param or []:
        key, _, raw = item.partition("=")
        if not _:
            raise ConfigError(f"bad --param {item!r}; use name=value")
        params[key] = float(raw)
    if args.channel_file:
        channel = load_channel(args.channel_file)
    elif args.channel:
        if args.channel not in _CATALOG:
            raise ConfigError(f"unknown channel {args.channel!r}")
        try:
            channel = _CATALOG[args.channel](params)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError("provide --channel or --channel-file")
    init = _parse_initial(json.loads(args.state) if args.state.startswith("{") else args.state)
    if init == "uniform":
        rho0 = uniform_state(channel.dim).to_density()
    elif isinstance(init, PureState):
        rho0 = init.to_density()
    else:
        rho0 = init
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
