import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kraussim
import kraussim.cli as cli
import kraussim.simulator as simulator
from helpers import decision, qasm_parse, random_density, random_unitary, stub_gate_kernels
from kraussim.qsp import Circuit
from kraussim.channels import (
    KrausChannel,
    apply_channel,
    bit_flip,
    channel_to_dict,
    depolarizing,
    l1_coherence,
    qutrit_amplitude_damping,
    save_channel,
)
from kraussim.cli import (
    CSV_HEADER,
    ConfigError,
    load_config,
    main,
    parse_config,
    rows_to_csv,
    run_experiment,
)
from kraussim.simulator import ReadoutModel
from kraussim.dilation import eigenvector_dilations, embed_qudits, mixed_method_double_purification
from kraussim.numerics import DensityMatrix, uniform_state
from kraussim.qsp import Circuit, Gate, lower, qasm_export, synthesize
from kraussim.tomography import settings_for


def bpf_config(**overrides):
    cfg = {
        "channel": {"name": "bit_phase_flip", "params": {}},
        "initial_state": "uniform",
        "sweep": {"parameter": "p", "grid": [0.0, 0.25, 0.5, 0.75, 1.0]},
        "mode": "exact",
        "seed": 17,
    }
    cfg.update(overrides)
    return cfg


def test_parse_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config(bpf_config(sweep={"parameter": "p", "grid": []}))
    with pytest.raises(ConfigError):
        parse_config(bpf_config(sweep={"parameter": "p", "grid": [0.5, 0.2, 0.8]}))
    with pytest.raises(ConfigError):
        parse_config(bpf_config(channel={"name": "nonexistent", "params": {}}))
    with pytest.raises(ConfigError):
        parse_config(bpf_config(mode="sampled"))  # shots missing
    with pytest.raises(ConfigError):
        parse_config(bpf_config(mode="estimated"))
    with pytest.raises(ConfigError):
        parse_config(bpf_config(initial_state={"bloch": [0.1]}))
    with pytest.raises(ConfigError):
        parse_config(bpf_config(mixed_method=4))


def test_integral_float_seed_runs_as_an_integer():
    as_float = rows_to_csv(run_experiment(parse_config(bpf_config(seed=7.0))))
    assert as_float == rows_to_csv(run_experiment(parse_config(bpf_config(seed=7))))
    assert all(line.split(",")[6] == "7" for line in as_float.splitlines()[1:])


def test_linear_grid_expansion():
    cfg = parse_config(bpf_config(sweep={"parameter": "p", "start": 0.0, "stop": 1.0, "points": 5}))
    assert np.allclose(cfg.grid, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_exact_sweep_matches_formula():
    rows = run_experiment(parse_config(bpf_config()))
    assert len(rows) == 5
    for row in rows:
        assert abs(row.c_measured - abs(1 - 2 * row.param_value)) < 1e-10
        assert abs(row.c_theory - row.c_measured) < 1e-10
        assert row.trace_distance < 1e-10
        assert row.mode == "exact" and row.shots == 0
        assert row.lowered_gate_count >= 0


def test_csv_is_byte_deterministic():
    cfg_dict = bpf_config(mode="sampled", shots=2048)
    a = rows_to_csv(run_experiment(parse_config(cfg_dict)))
    b = rows_to_csv(run_experiment(parse_config(cfg_dict)))
    assert a == b
    assert a.splitlines()[0] == CSV_HEADER
    c = rows_to_csv(run_experiment(parse_config(bpf_config(mode="sampled", shots=2048, seed=18))))
    assert c != a


def test_sampled_csv_is_byte_identical_across_hash_seeds(tmp_path):
    # the hash seed changes set iteration order; a run in one process
    # cannot show that, so the sweep runs in two fresh interpreters
    config = tmp_path / "qad.json"
    config.write_text(json.dumps({
        "channel": {"name": "qutrit_amplitude_damping", "params": {}},
        "sweep": {"parameter": "gamma", "grid": [0.3, 0.8]},
        "mode": "sampled",
        "shots": 2048,
        "seed": 7,
        "readout": {"e0": 0.02, "e1": 0.03},
    }))
    src = str(Path(kraussim.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "kraussim.cli", "sweep", str(config)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0].startswith(CSV_HEADER)
    assert outputs[0] == outputs[1]


def test_sweep_point_never_expands_a_circuit(monkeypatch):
    # synthesis emits multiplexors; a sweep reads them, and gate counts, without
    # spelling any circuit out as gates
    rho = random_density(np.random.default_rng(52), 4).matrix
    mixed = {"channel": {"name": "hw_dephasing", "params": {"d": 4}},
             "initial_state": {"density_matrix": [[[z.real, z.imag] for z in row] for row in rho]},
             "sweep": {"parameter": "p0", "grid": [0.3]}, "mode": "exact"}
    qad = {"channel": {"name": "qutrit_amplitude_damping", "params": {}},
           "sweep": {"parameter": "gamma", "grid": [0.4]}, "mode": "sampled", "shots": 64,
           "readout": {"e0": 0.02, "e1": 0.03}}
    expected = [run_experiment(parse_config(cfg)) for cfg in (mixed, qad)]
    monkeypatch.setattr(Circuit, "gates", property(lambda self: pytest.fail("Circuit.gates read")))
    for cfg, rows in zip((mixed, qad), expected):
        [row] = run_experiment(parse_config(cfg))
        assert not row.error and row.synth_gate_count > 0 and row.lowered_gate_count > 0
        assert rows_to_csv([row]) == rows_to_csv(rows)


def test_each_preparation_is_simulated_once(monkeypatch):
    # each circuit handed to ``run`` counts its gates, and the per-gate
    # kernel counts the gates it applies outside ``run``: the layers'
    applied = []
    inside_run = []
    run, apply_gate = simulator.run, simulator._apply_gate

    def counting_run(circuit):
        applied.extend(circuit.gates)
        inside_run.append(circuit)
        try:
            return run(circuit)
        finally:
            inside_run.pop()

    def counting_gate(pairs, kind, entry):
        if not inside_run:
            applied.append(kind)
        return apply_gate(pairs, kind, entry)

    monkeypatch.setattr(simulator, "run", counting_run)
    monkeypatch.setattr(cli, "run", counting_run)
    monkeypatch.setattr(simulator, "_apply_gate", counting_gate)
    # each system qubit's X, Y and Z rotations (1 + 3 + 0 gates) act once
    # on the batch of settings: 4 per system qubit, where one run per
    # setting applies 3^(m-1) * 4 per system qubit.  Each mode simulates
    # one circuit, the lowered one: exact mode with no settings, sampled
    # mode with its settings.  The exact qutrit_amplitude_damping point
    # lowers its 5 synthesized gates to 29, so the two counts differ
    point = {"parameter": "p", "grid": [0.3]}
    qad = {"channel": {"name": "qutrit_amplitude_damping", "params": {}},
           "sweep": {"parameter": "gamma", "grid": [0.4]}, "mode": "sampled", "shots": 64}
    exact_qad = {**qad, "mode": "exact"}
    for cfg, rotation_gates in (
        (bpf_config(mode="exact", shots=64, sweep=point), 0),
        (exact_qad, 0),
        (bpf_config(mode="sampled", shots=64, sweep=point), 4),
        (qad, 8),  # 2 system qubits
    ):
        applied.clear()
        [row] = run_experiment(parse_config(cfg))
        assert not row.error
        assert len(applied) == row.lowered_gate_count + rotation_gates
        if cfg is exact_qad:
            assert (row.synth_gate_count, row.lowered_gate_count) == (5, 29)


def test_readout_register_is_checked_before_the_first_gate(monkeypatch):
    # bit_phase_flip on a qubit dilates onto 2 qubits, 1 system and 1
    # ancilla; only the system qubit is measured, so a per-qubit model
    # covers 1 qubit
    point = {"parameter": "p", "grid": [0.3]}
    [row] = run_experiment(parse_config(bpf_config(
        mode="sampled", shots=16, sweep=point, readout={"e0": [0.1], "e1": [0.1]})))
    assert not row.error
    applied = stub_gate_kernels(monkeypatch)
    cfg = parse_config(bpf_config(mode="sampled", shots=16, readout={"e0": [0.1, 0.1], "e1": [0.1, 0.1]}))
    with pytest.raises(ConfigError, match="readout: e0 has 2 entries, but 1 qubits are measured"):
        run_experiment(cfg)
    assert applied == []


def test_sampled_mode_draws_shots_over_the_system_qubits_only(monkeypatch):
    # qutrit_amplitude_damping: 2 system qubits (the padded qutrit) and
    # 2 ancilla qubits (3 Kraus operators)
    received = []

    def recording(probs, shots, keys):
        received.append(np.array(probs))
        return simulator.sample(probs, shots, keys)

    monkeypatch.setattr(cli, "sample", recording)
    cfg = {
        "channel": {"name": "qutrit_amplitude_damping", "params": {}},
        "sweep": {"parameter": "gamma", "grid": [0.4]},
        "mode": "sampled",
        "shots": 64,
    }
    [row] = run_experiment(parse_config(cfg))
    assert not row.error
    # one call for the part: its 3^2 settings by the 2^2 system outcomes
    [marginals] = received
    assert marginals.shape == (3**2, 4)
    # in the Z...Z setting the marginal is the system state's diagonal
    oracle = apply_channel(qutrit_amplitude_damping(0.4), uniform_state(3).to_density())
    zz = marginals[settings_for(2).settings.index(("Z", "Z"))]
    np.testing.assert_allclose(zz, np.append(np.diag(oracle.matrix).real, 0.0), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        # the qad_readout benchmark workload: 11 points of one part, 3^2
        # settings, one stream per setting with readout noise as without
        {
            "channel": {"name": "qutrit_amplitude_damping", "params": {}},
            "initial_state": "uniform",
            "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "points": 11},
            "mode": "sampled",
            "shots": 8192,
            "seed": 111,
            "readout": {"e0": 0.02, "e1": 0.03},
        },
        # mixed method 2: one part per eigenvector of a full-rank input
        {
            "channel": {"name": "depolarizing", "params": {}},
            "initial_state": {"density_matrix": [[[2 / 3, 0.0], [0.2, 0.1]], [[0.2, -0.1], [1 / 3, 0.0]]]},
            "sweep": {"parameter": "p", "grid": [0.0, 0.4]},
            "mode": "sampled",
            "shots": 512,
            "seed": 9,
            "mixed_method": 2,
        },
    ],
    ids=["qad_readout", "mixed_method_2"],
)
def test_sampled_sweeps_build_no_seed_sequence(config, monkeypatch):
    # the measure stage stacks every sampled part of the sweep: one
    # derive_keys call under an empty prefix, one tail row (point, part, s, 0)
    # per setting, points in grid order and parts in order within each
    cfg = parse_config(config)
    rows = run_experiment(cfg)
    assert not any(row.error for row in rows)
    expected = rows_to_csv(rows)
    points, calls = [], []

    def counted_parts(*args):
        points.append([])
        for part in cli_prepared_parts(*args):
            points[-1].append(part)
            yield part

    def counted_streams(seed, prefix, tails):
        keys = derive_keys(seed, prefix, tails)
        calls.append((prefix, np.array(tails)))
        assert keys.shape == (len(tails), 2) and keys.dtype == np.uint64 and not keys.flags.writeable
        return keys

    cli_prepared_parts, derive_keys = cli._prepared_parts, cli.derive_keys
    monkeypatch.setattr(np.random, "SeedSequence", lambda *args, **kwargs: pytest.fail("SeedSequence built"))
    monkeypatch.setattr(cli, "_prepared_parts", counted_parts)
    monkeypatch.setattr(cli, "derive_keys", counted_streams)
    assert rows_to_csv(run_experiment(cfg)) == expected
    assert len(points) == len(cfg.grid)
    assert sum(map(len, points)) >= (2 * len(points) if "mixed_method" in config else len(points))
    [(prefix, tails)] = calls
    assert prefix == ()
    assert tails.tolist() == [[i, k, s, 0] for i, parts in enumerate(points) for k, part in enumerate(parts)
                              for s in range(3 ** part.dilated.embedding.qubit_counts[0])]


_STACKED_SWEEPS = {  # sweeps with more than one sampled part
    "qad_readout": {"channel": {"name": "qutrit_amplitude_damping", "params": {}}, "initial_state": "uniform",
                    "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "points": 11}, "mode": "sampled",
                    "shots": 8192, "seed": 111, "readout": {"e0": 0.02, "e1": 0.03}},
    # mixed method 2: one part per eigenvector, two points
    "mixed_method_2": {"channel": {"name": "depolarizing", "params": {}},
                       "initial_state": {"density_matrix": [[[2 / 3, 0.0], [0.2, 0.1]], [[0.2, -0.1], [1 / 3, 0.0]]]},
                       "sweep": {"parameter": "p", "grid": [0.0, 0.4]}, "mode": "sampled", "shots": 512, "seed": 9,
                       "mixed_method": 2},
    # system registers of 2 and 3 qubits in one sweep: one stack per size
    "two_sizes": {"channel": {"name": "hw_dephasing", "params": {"p0": 0.4}}, "initial_state": "uniform",
                  "sweep": {"parameter": "d", "grid": [3, 4, 5, 6]}, "mode": "sampled", "shots": 256, "seed": 5,
                  "readout": {"e0": 0.01, "e1": 0.02}},
}


@pytest.mark.parametrize("name", sorted(_STACKED_SWEEPS))
def test_stacks_of_one_part_keep_the_sweep_bytes(name, monkeypatch):
    # a stack bound that admits one part per stack: one derive_keys call per
    # part, and the CSV of the default stacks, byte for byte
    cfg = parse_config(_STACKED_SWEEPS[name])
    expected = rows_to_csv(run_experiment(cfg))
    assert "nan" not in expected
    calls = []
    derive_keys = cli.derive_keys
    monkeypatch.setattr(cli, "derive_keys", lambda *args: calls.append(args) or derive_keys(*args))
    assert rows_to_csv(run_experiment(cfg)) == expected
    stacks = len(calls)
    calls.clear()
    monkeypatch.setattr(cli, "_STACK_ENTRIES", 1)
    assert rows_to_csv(run_experiment(cfg)) == expected
    assert len(calls) > stacks
    assert all(len({tuple(tail[:2]) for tail in np.array(tails).tolist()}) == 1 for _, _, tails in calls)


def test_a_point_failing_in_the_stacked_measure_keeps_its_own_message(monkeypatch):
    # one point's count row drained to no shots inside the stacked mitigate:
    # the stack fails, each part is measured again as a stack of its own, and
    # the point fails with the message of its own (9, 4) counts, as it did
    # when each part was measured alone; every other row keeps its bytes
    cfg = parse_config(_STACKED_SWEEPS["qad_readout"])
    expected = rows_to_csv(run_experiment(cfg)).splitlines()
    seen = []
    mitigate = cli.mitigate
    monkeypatch.setattr(cli, "mitigate", lambda counts, model: seen.append(counts) or mitigate(counts, model))
    run_experiment(cfg)
    [counts] = seen
    point, setting = 4, 2
    marked = counts[9 * point + setting]
    assert (counts == marked).all(axis=1).sum() == 1

    def draining(counts, model):
        return mitigate(np.where((counts == marked).all(axis=1, keepdims=True), 0, counts), model)

    monkeypatch.setattr(cli, "mitigate", draining)
    records = cli._sweep(cfg)
    rows = [record.row(cfg) for record in records]
    assert rows[point].error == f"mitigation: counts of shape (9, 4): row {setting} has no shots"
    assert records[point].stage == "measure" and np.isnan(rows[point].c_measured)
    line = json.loads(json.dumps(records[point].trace()))
    assert (line["stage"], line["error"]) == ("measure", rows[point].error)
    assert [part["leaked_mass"] for part in line["parts"]] == [None]
    lines = rows_to_csv(rows).splitlines()
    assert lines[:point + 1] + lines[point + 2:] == expected[:point + 1] + expected[point + 2:]
    assert [i for i, row in enumerate(rows) if row.error] == [point]


def test_corrupted_lowering_fails_before_any_shot(monkeypatch):
    # one extra Ry on the system qubit: the lowered circuit no longer
    # prepares the dilated state, and the point fails before it is sampled
    def corrupted(circuit):
        low = lower(circuit)
        return Circuit(low.qubit_count, low.gates + (Gate("ry", 0.5, 0),), low.global_phase)

    drawn = []
    monkeypatch.setattr(cli, "lower", corrupted)
    monkeypatch.setattr(cli, "sample", lambda *args: drawn.append(args))
    [row] = run_experiment(parse_config(bpf_config(mode="sampled", shots=64,
                                                   sweep={"parameter": "p", "grid": [0.3]})))
    assert row.error.startswith("lowered fidelity"), row.error
    assert np.isnan(row.c_measured)
    assert drawn == []


GOLDEN = Path(__file__).parent / "golden"
_QAD = {"channel": {"name": "qutrit_amplitude_damping", "params": {}}, "initial_state": "uniform", "seed": 7}
_HW = {"sweep": {"parameter": "p0", "grid": [0.6]}, "seed": 7}


def _complex_rows(matrix):
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


# Each CSV is a recorded sweep output.  Both modes read the lowered circuit's
# state, so each moves only with a change to the circuit or to that state's
# rounding recorded in CHANGES.md; the sampled ones also with a recorded change
# to how shots are drawn.  Every exact row is the oracle's to 1e-12.
# golden/recorded_on.json names the BLAS kernel and SIMD level they were
# recorded with.
GOLDEN_SWEEPS = {
    "qad_exact.csv": dict(_QAD, sweep={"parameter": "gamma", "grid": [0.0, 0.3, 1.0]}, mode="exact"),
    # a per-qubit readout model over the 2 system qubits
    "qad_sampled_readout.csv": dict(_QAD, sweep={"parameter": "gamma", "grid": [0.3, 0.8]}, mode="sampled",
                                    shots=256, readout={"e0": [0.02, 0.04], "e1": 0.03}),
    # the heavy exact path: a full-rank complex input on a 9-qubit register
    "hw8_mixed_exact.csv": dict(
        _HW, channel={"name": "hw_dephasing", "params": {"d": 8}}, mode="exact",
        initial_state={"density_matrix": _complex_rows(random_density(np.random.default_rng(708), 8).matrix)},
    ),
    # 8 qubits: the lowered prefix and all 81 setting branches
    "hw16_sampled.csv": dict(_HW, channel={"name": "hw_dephasing", "params": {"d": 16}}, initial_state="uniform",
                             mode="sampled", shots=256),
}


def _exact_rows_meet_the_oracle(rows):
    # every exact row that ran is the oracle's to rounding, so re-recorded
    # bytes cannot hide drift
    for row in rows:
        if row.mode == "exact" and not row.error:
            assert abs(row.c_measured - row.c_theory) <= 1e-12 and row.trace_distance <= 1e-12, row


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden(name):
    rows = run_experiment(parse_config(GOLDEN_SWEEPS[name]))
    _exact_rows_meet_the_oracle(rows)
    assert rows_to_csv(rows) == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_trace_keeps_the_golden_bytes(name, tmp_path):
    # --trace writes one JSON line per point, a projection of the record the
    # CSV row projects too, and the CSV keeps its bytes
    config, csv, trace = tmp_path / "cfg.json", tmp_path / "rows.csv", tmp_path / "trace.jsonl"
    config.write_text(json.dumps(GOLDEN_SWEEPS[name]))
    assert main(["sweep", str(config), "--csv", str(csv), "--trace", str(trace)]) == 0
    golden = (GOLDEN / name).read_text(encoding="utf-8")
    assert csv.read_text(encoding="utf-8") == golden
    cfg = parse_config(GOLDEN_SWEEPS[name])
    lines = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert [line["point"] for line in lines] == list(range(len(cfg.grid)))
    for line, row, value in zip(lines, golden.splitlines()[1:], cfg.grid):
        fields = row.split(",")
        assert line["param_value"] == value and line["stage"] is None and line["error"] is None
        parts = line["parts"]
        assert parts and abs(sum(part["weight"] for part in parts) - 1.0) <= 1e-12
        assert sum(part["synth_gate_count"] for part in parts) == int(fields[7])
        assert sum(part["lowered_gate_count"] for part in parts) == int(fields[8])
        for part in parts:
            assert 1 <= part["system_qubits"] < part["total_qubits"] <= 10
            assert cli.FIDELITY_FLOOR <= part["lowered_fidelity"] <= 1.0 + 1e-12
            # the embedded block keeps the mass: exactly so in exact mode, and
            # in sampled mode up to the noise on the padded levels
            assert -1e-12 <= part["leaked_mass"] <= (1e-12 if cfg.mode == "exact" else 0.1), part


def test_sweep_trace_names_the_stage_that_failed(tmp_path, monkeypatch, capsys):
    # a point that fails in prepare keeps the parts it prepared, none here,
    # and names the stage and the message that stderr reports
    config, trace = tmp_path / "cfg.json", tmp_path / "trace.jsonl"
    config.write_text(json.dumps(bpf_config(sweep={"parameter": "p", "grid": [0.25, 0.5]})))
    monkeypatch.setattr(cli, "FIDELITY_FLOOR", 2.0)
    assert main(["sweep", str(config), "--csv", str(tmp_path / "rows.csv"), "--trace", str(trace)]) == 2
    errors = capsys.readouterr().err.splitlines()
    lines = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == len(errors) == 2
    for line, error in zip(lines, errors):
        assert line["stage"] == "prepare" and line["parts"] == []
        assert error == f"point {line['param_value']}: {line['error']}"
        assert line["error"].startswith("synthesis fidelity")


def _rank_two(d):
    """A complex rank-2 density matrix on d levels, as config rows."""
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)))
    return _complex_rows(0.6 * np.outer(q[:, 0], q[:, 0].conj()) + 0.4 * np.outer(q[:, 1], q[:, 1].conj()))


def _degenerate_sweep(case):
    d, mode, method = case.split("-")
    d = int(d[1:])
    cfg = {"channel": {"name": "hw_dephasing", "params": {"d": d}},
           "initial_state": "uniform" if method == "pure" else {"density_matrix": _rank_two(d)},
           "sweep": {"parameter": "p0", "grid": [0.0, 1.0]}, "mode": mode, "seed": 11}
    if method != "pure":
        cfg["mixed_method"] = int(method[-1])
    if mode == "sampled":
        cfg["shots"] = 256
    return cfg


# The sha256 of each degenerate sweep's CSV: p0 in {0, 1}, qudits padded
# from 3 and 5 levels, a pure input and a rank-deficient mixed one under each
# mixed method (method 1 on d = 5 needs 11 qubits, so its points fail, NaN).
# The exact ones were re-recorded when exact mode began reading the lowered
# state; like the goldens, they hold on the kernel that golden/recorded_on.json
# names, and every exact row is the oracle's to 1e-12.
DEGENERATE_SWEEPS = {
    "d3-exact-pure": "2cdb97e0469869ef45c567001a37a99601ea3bd2ac23d4c4cd312d3fbee2b606",
    "d3-exact-method1": "b93c061501da46d57f675a0776aff5058697e922e8caeea99b934c6d457ac854",
    "d3-exact-method2": "b787d90976d2b75271d2c3f7e533ef65bd5984b30da0ffc2761d74d2d3cc85a5",
    "d3-exact-method3": "71cbe33f76acd211beddee2088383a30c2a0d9e932f3491f8a2aa22d42c6070a",
    "d3-sampled-pure": "0686052de8f28d7303f38cccb29408a9d0e3c6407b805b8558477e9ca487900b",
    "d3-sampled-method1": "af205617a0f185e342674a69721f3669331bacace2f1d268d267433d0628eb16",
    "d3-sampled-method2": "85ad4c33294c2aab3e5eee368e289ef7ebb2f2284ef0cce107ef6b3da303f5dd",
    "d3-sampled-method3": "558d48c9f5a1924860e5c7fff93627a7f53eee1d053614ea2382a5a878292944",
    "d5-exact-pure": "7e754bbc5404419beab8ad0b39064fa0c686a2e4dd5265ada438c1de5d997085",
    "d5-exact-method1": "f85a29a7cb7c149103969784057f2613b59b6f98761a7cc7dc82133bf0e774e2",
    "d5-exact-method2": "91f8629537c04a59454da7668595d8270124448840ca6034dac4a9225810e5a1",
    "d5-exact-method3": "f78ae8ccf9864cc23865d45c452618c3679b6053e14465941fe01b9ead324d82",
    "d5-sampled-pure": "f3acf0a6cd3e2ce9205ae8e860e7c9fa988a731133b99d1bb1711e7b79b00571",
    "d5-sampled-method1": "7e94d8edf2ee62f3d974ab2a3c52ca0e4a57e634137d2a046c9517da5ba794fd",
    "d5-sampled-method2": "9d43f041189c3202559a54dd1e6e68faecd0e60f27c96616873418e8c547599c",
    "d5-sampled-method3": "2047bd88aee3a97e90c92659f4c90860b3bb4c5926a0dc373905b78a962bbd8e",
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_SWEEPS))
def test_degenerate_sweeps_keep_their_bytes(case):
    rows = run_experiment(parse_config(_degenerate_sweep(case)))
    _exact_rows_meet_the_oracle(rows)
    assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == DEGENERATE_SWEEPS[case]


@pytest.mark.parametrize("level", [-1e-10 + 1e-12, -5e-11, 0.0])
def test_point_mixture_decides_as_the_constructor(monkeypatch, level):
    # two parts whose blocks share the eigenvector of their smallest
    # eigenvalue, level, so the mixture's is level too: the weighted sum of
    # the blocks' floors decides, as the constructor would.  No mixture of
    # valid blocks has an eigenvalue below -1e-10.  Weights that do not sum
    # to 1 fail the trace check with the constructor's message, in the
    # measure stage
    rng = np.random.default_rng(3721)
    u = random_unitary(rng, 3)
    blocks = [DensityMatrix((u * spectrum) @ u.conj().T)
              for spectrum in ([0.7 - level, 0.3, level], [0.2, 0.8 - level, level])]
    cfg = parse_config({"channel": {"name": "hw_dephasing", "params": {"d": 3}}, "initial_state": "uniform",
                        "sweep": {"parameter": "p0", "grid": [0.5]}, "mode": "exact"})
    [part] = cli._prepared_parts(cfg, *cli._point_input(cfg, 0.5))
    for weights in ([0.25, 0.75], [0.25, 0.65]):
        parts = [part._replace(weight=w) for w in weights]
        measured = iter(blocks)
        monkeypatch.setattr(cli, "_prepared_parts", lambda *args: iter(parts))
        monkeypatch.setattr(cli, "_measure_exact", lambda _: (next(measured), 0.0))
        mixture = np.zeros((3, 3), dtype=complex)
        for weight, block in zip(weights, blocks):
            mixture += weight * block.matrix
        expected = decision(lambda: DensityMatrix(mixture))
        [record] = cli._sweep(cfg)
        assert (record.error or "accepted") == expected
        if expected == "accepted":
            assert record.fields["c_measured"] == l1_coherence(DensityMatrix(mixture))
        else:
            assert expected.startswith("density matrix trace 0.900000000000")
            assert record.stage == "measure"


def test_readout_model_is_built_and_checked_once_per_register_size(monkeypatch):
    # every part of a qutrit sweep measures 2 qubits: the check reads the one
    # cached stack; a model that does not fit fails on every sweep, with its
    # message, since a raised error is not cached
    built = []
    confusion = ReadoutModel.confusion
    monkeypatch.setattr(ReadoutModel, "confusion", lambda self, m: built.append(m) or confusion(self, m))
    simulator._confusion_stack.cache_clear()
    sweep = {"parameter": "gamma", "grid": [0.2, 0.5, 0.9]}
    cfg = parse_config(dict(_QAD, sweep=sweep, mode="sampled", shots=64, readout={"e0": [0.02, 0.04], "e1": 0.03}))
    assert all(not row.error for row in run_experiment(cfg)) and built == [2]
    bad = parse_config(dict(_QAD, sweep=sweep, mode="sampled", shots=64, readout={"e0": [0.02] * 3, "e1": 0.03}))
    for attempt in (1, 2):
        with pytest.raises(ConfigError, match=r"^readout: e0 has 3 entries, but 2 qubits are measured$"):
            run_experiment(bad)
    assert built == [2, 2, 2]


OVERSIZED = {  # case: (hw_dephasing d, initial_state, mixed_method, register qubits)
    # factors (33, 33) on 6 + 6 qubits
    "pure-d33": (33, "uniform", 3, 12),
    # factors (8, 8, 64) on 3 + 3 + 6 qubits
    "method1-d8": (8, {"density_matrix": (np.eye(8) / 8).tolist()}, 1, 12),
    # factors (5, 5, 25) on 3 + 3 + 5 qubits
    "method1-d5": (5, {"density_matrix": np.diag([0.4, 0.3, 0.2, 0.05, 0.05]).tolist()}, 1, 11),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_register_fails_the_point_naming_the_stage(case):
    d, initial, method, qubits = OVERSIZED[case]
    cfg = {
        "channel": {"name": "hw_dephasing", "params": {"d": d}},
        "initial_state": initial,
        "sweep": {"parameter": "p0", "grid": [0.5]},
        "mode": "exact",
        "mixed_method": method,
    }
    [row] = run_experiment(parse_config(cfg))
    assert f"qubit embedding: {qubits} qubits exceeds the register limit of 10" in row.error
    assert np.isnan(row.c_measured)


def test_sampled_tomography_limit_fails_the_point_before_synthesis(tmp_path, monkeypatch):
    # a d-level channel of two Kraus operators dilates onto m + 1 qubits,
    # m = 6 system qubits at d = 64 (the limit, reached) and m = 7 at d = 65
    def sampled_point(d):
        ops = [np.sqrt(0.5) * np.eye(d), np.sqrt(0.5) * np.diag(np.exp(1j * np.arange(d)))]
        path = tmp_path / f"ch{d}.json"
        save_channel(KrausChannel(ops), str(path))
        cfg = {"channel": {"file": str(path)}, "sweep": {"parameter": None, "grid": [0.0]},
               "mode": "sampled", "shots": 16}
        [row] = run_experiment(parse_config(cfg))
        return row

    assert sampled_point(64).error == ""
    monkeypatch.setattr(cli, "synthesize", lambda target: pytest.fail("synthesize called"))
    row = sampled_point(65)
    assert row.error == "tomography: 7 system qubits exceeds the sampled-tomography limit of 6 qubits (2187 settings)"
    assert np.isnan(row.c_measured)


def test_rank_one_input_takes_no_rank_qubit():
    # double purification of |0><0|: factors (2, 1, 4); the rank ancilla
    # of dimension 1 takes no qubit
    rho = [[1.0, 0.0], [0.0, 0.0]]
    dilated = mixed_method_double_purification(depolarizing(0.3), DensityMatrix(np.array(rho)))
    assert dilated.factor_dims == (2, 1, 4)
    assert lower(synthesize(embed_qudits(dilated))).qubit_count == 3
    cfg = {
        "channel": {"name": "depolarizing", "params": {}},
        "initial_state": {"density_matrix": rho},
        "sweep": {"parameter": "p", "grid": [0.0, 0.3, 1.0]},
        "mode": "exact",
        "mixed_method": 3,
    }
    for row in run_experiment(parse_config(cfg)):
        assert not row.error
        assert abs(row.c_measured - row.c_theory) < 1e-9


CATALOG_SWEEPS = [
    ("pauli", {"p_i": 0.25, "p_x": 0.25, "p_z": 0.25}, "p_y", [0.25]),
    ("bit_phase_flip", {}, "p", [0.0, 0.5, 1.0]),
    ("bit_flip", {}, "p", [0.5]),
    ("phase_flip", {}, "p", [0.5]),
    ("depolarizing", {}, "p", [0.0, 0.5, 1.0]),
    ("phase_damping", {}, "p", [0.0, 0.5, 1.0]),
    ("generalized_amplitude_damping", {"n": 0.5}, "p", [0.0, 0.5, 1.0]),
    ("hw_dephasing", {}, "p0", [0.0, 0.5, 1.0]),
    ("qutrit_amplitude_damping", {}, "gamma", [0.0, 0.5, 1.0]),
    ("spin_boost", {}, "theta", [0.0, 0.7, 1.5]),
    # degenerate endpoints: branches of zero probability, a pure Pauli,
    # the zero- and full-temperature baths, and the spin-boost poles
    ("bit_flip", {}, "p", [0.0, 1.0]),
    ("phase_flip", {}, "p", [0.0, 1.0]),
    ("pauli", {"p_i": 0.0, "p_x": 0.0, "p_z": 0.0}, "p_y", [1.0]),
    ("pauli", {"p_x": 0.0, "p_z": 0.0, "p_y": 0.0}, "p_i", [1.0]),
    ("generalized_amplitude_damping", {"n": 0.0}, "p", [0.0, 0.5, 1.0]),
    ("generalized_amplitude_damping", {"n": 1.0}, "p", [0.0, 0.5, 1.0]),
    ("generalized_amplitude_damping", {"p": 1.0}, "n", [0.0, 0.5, 1.0]),
    ("spin_boost", {}, "theta", [np.pi, 2 * np.pi]),
]


def catalog_config(name, params, parameter, grid, **extra):
    cfg = {
        "channel": {"name": name, "params": params},
        "initial_state": "uniform",
        "sweep": {"parameter": parameter, "grid": grid},
        "mode": "exact",
        "seed": 11,
    }
    cfg.update(extra)
    return parse_config(cfg)


def test_exact_sweeps_match_oracle_across_catalog():
    for case in CATALOG_SWEEPS:
        for row in run_experiment(catalog_config(*case)):
            assert abs(row.c_measured - row.c_theory) < 1e-10, (case[0], row)
            assert row.trace_distance < 1e-10


def test_sampled_sweeps_track_theory_across_catalog():
    # 8192 shots keeps every point within 0.05 of the operator-sum value,
    # for three fixed seeds
    for seed in (11, 12, 13):
        for case in CATALOG_SWEEPS:
            cfg = catalog_config(*case, mode="sampled", shots=8192, seed=seed)
            for row in run_experiment(cfg):
                assert abs(row.c_measured - row.c_theory) < 0.05, (case[0], seed, row)


def test_mixed_initial_state_methods_agree():
    rho = [[[2 / 3, 0.0], [1.33 / 6, 0.0]], [[1.33 / 6, 0.0], [1 / 3, 0.0]]]
    for method in (1, 2, 3):
        cfg = parse_config(
            {
                "channel": {"name": "depolarizing", "params": {}},
                "initial_state": {"density_matrix": rho},
                "sweep": {"parameter": "p", "grid": [0.0, 0.4, 1.0]},
                "mode": "exact",
                "seed": 5,
                "mixed_method": method,
            }
        )
        for row in run_experiment(cfg):
            expected = (1 - row.param_value) * (1.33 / 3)
            assert abs(row.c_measured - expected) < 1e-10, method
            assert abs(row.c_theory - expected) < 1e-10


def test_bloch_initial_state():
    cfg = parse_config(bpf_config(initial_state={"bloch": [np.pi / 2, 0.0]}))
    rows = run_experiment(cfg)
    assert abs(rows[2].c_measured - 0.0) < 1e-10  # p = 0.5 kills the coherence


def test_channel_file_configs_run_single_point(tmp_path):
    from kraussim.channels import phase_damping

    path = tmp_path / "pd.json"
    save_channel(phase_damping(0.36), str(path))
    cfg = parse_config(
        {
            "channel": {"file": str(path)},
            "initial_state": "uniform",
            "sweep": {"parameter": None, "grid": [0.0]},
            "mode": "exact",
            "seed": 1,
        }
    )
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert abs(rows[0].c_measured - np.sqrt(1 - 0.36)) < 1e-10
    with pytest.raises(ConfigError):
        parse_config(
            {
                "channel": {"file": str(path)},
                "initial_state": "uniform",
                "sweep": {"parameter": None, "grid": [0.0, 1.0]},
                "mode": "exact",
                "seed": 1,
            }
        )


def test_validate_subcommand_exit_codes(tmp_path, capsys):
    from kraussim.channels import generalized_amplitude_damping

    good = tmp_path / "good.json"
    save_channel(generalized_amplitude_damping(0.3, 0.2), str(good))
    assert main(["validate", str(good)]) == 0
    assert "PASS" in capsys.readouterr().out

    broken = tmp_path / "broken.json"
    save_channel(
        KrausChannel((np.sqrt(0.5) * np.eye(2, dtype=complex),), label="broken"), str(broken)
    )
    assert main(["validate", str(broken)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "5.000e-01" in out

    assert main(["validate", str(tmp_path / "missing.json")]) == 1


def test_sweep_subcommand_writes_csv(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    out_path = tmp_path / "rows.csv"
    config_path.write_text(json.dumps(bpf_config()))
    assert main(["sweep", str(config_path), "--csv", str(out_path)]) == 0
    capsys.readouterr()
    text = out_path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 6
    expected = rows_to_csv(run_experiment(load_config(str(config_path))))
    assert text == expected


def test_sweep_subcommand_rejects_bad_config(tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(bpf_config(mode="wrong")))
    assert main(["sweep", str(config_path)]) == 1


def test_synth_subcommand(capsys):
    amps = json.dumps([0.5, 0.5, 0.5, 0.5])
    assert main(["synth", "--amplitudes", amps]) == 0
    dump = capsys.readouterr().out
    assert dump.startswith("qubits 2")
    assert main(["synth", "--amplitudes", amps, "--lower", "--qasm"]) == 0
    qasm = capsys.readouterr().out
    assert qasm.startswith("OPENQASM 2.0;")


# each golden/synth_<state><flags>.txt is a recorded synth output: "ci" is the
# complex 2-qubit state CI runs, with one zero amplitude; "zero3" a 3-qubit
# state whose level-3 pattern (0, 1) has a zero parent, so it gets no entry
SYNTH_STATES = {"ci": "[0.6,[0,0.48],0,[0,-0.64]]", "zero3": "[0.5,[0,0.5],0,0,[0.3,0.4],0,0,[0,-0.5]]"}


@pytest.mark.parametrize("state", sorted(SYNTH_STATES))
@pytest.mark.parametrize("flags", [(), ("--lower",), ("--lower", "--qasm")])
def test_synth_output_matches_golden(state, flags, capsys):
    assert main(["synth", "--amplitudes", SYNTH_STATES[state], *flags]) == 0
    name = f"synth_{state}{''.join('_' + f[2:] for f in flags)}.txt"
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


def test_help_exits_zero(capsys):
    for argv in (["-h"], ["synth", "--help"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: kraussim")


def test_real_input_sweeps_with_ry_rotations_only():
    # phase_flip on a real Bloch input: its dilated state is real with a
    # negative amplitude, so synthesis emits no Rz level and no Rz cascade
    cfg = bpf_config(channel={"name": "phase_flip", "params": {}}, initial_state={"bloch": [1.1, 0.0]},
                     sweep={"parameter": "p", "grid": [0.3]})
    (row,) = run_experiment(parse_config(cfg))
    assert not row.error and abs(row.c_measured - row.c_theory) <= 1e-15
    assert (row.synth_gate_count, row.lowered_gate_count) == (3, 4)


def test_export_qasm_subcommand(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(bpf_config()))
    out = tmp_path / "point"
    assert main(["export-qasm", str(config_path), "--point", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    files = list(tmp_path.glob("point*.qasm"))
    assert files
    assert files[0].read_text().startswith("OPENQASM 2.0;")


def test_oracle_subcommand(capsys):
    code = main(["oracle", "--channel", "phase_damping", "--param", "p=0.5", "--state", "uniform"])
    assert code == 0
    out = capsys.readouterr().out
    assert "l1_coherence 0.7071067811865476" in out
    assert "+0.3535533906" in out  # evolved off-diagonal


def _config_file(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _sweep(**overrides):
    return lambda tmp: ["sweep", _config_file(tmp, bpf_config(**overrides)), "--csv", str(tmp / "rows.csv")]


def _sweep_range(**sweep):
    spec = {"parameter": "p", "start": 0.0, "stop": 1.0, "points": 3, **sweep}
    return _sweep(sweep=spec)


def _oversized_export(tmp):
    # mixed method 1 on a 5-level channel needs 11 qubits
    cfg = {
        "channel": {"name": "hw_dephasing", "params": {"d": 5}},
        "initial_state": {"density_matrix": np.diag([0.4, 0.3, 0.2, 0.05, 0.05]).tolist()},
        "sweep": {"parameter": "p0", "grid": [0.5]},
        "mixed_method": 1,
    }
    return ["export-qasm", _config_file(tmp, cfg), "--out", str(tmp / "prep")]


def _saved(tmp, channel):
    save_channel(channel, str(tmp / "ch.json"))
    return str(tmp / "ch.json")


def _name_and_file(tmp):
    # a readable file and a known name: neither alone is an error
    channel = {"name": "phase_damping", "file": _saved(tmp, depolarizing(0.2))}
    return _sweep(channel=channel, sweep={"parameter": "p", "grid": [0.5]})(tmp)


def _file_with_params(tmp):
    # a readable file channel; its own p is 0.2, the params ask for 0.9
    channel = {"file": _saved(tmp, depolarizing(0.2)), "params": {"p": 0.9}}
    return _sweep(channel=channel, sweep={"parameter": "p", "grid": [0.5]})(tmp)


def _file_with_parameter(tmp):
    # a readable file channel swept over a parameter it cannot take
    channel = {"file": _saved(tmp, depolarizing(0.2))}
    return _sweep(channel=channel, sweep={"parameter": "p", "grid": [0.5]})(tmp)


def _nan_channel(tmp):
    # bit_flip(0.3) with K1's (0, 1) entry NaN
    data = channel_to_dict(bit_flip(0.3))
    data["kraus"][1][0][1] = [np.nan, 0.0]
    (tmp / "ch.json").write_text(json.dumps(data))
    return str(tmp / "ch.json")


def _bool_channel(tmp):
    # bit_flip(0.3) with K0's (0, 0) entry [true, 0], which once read as 1.0
    data = channel_to_dict(bit_flip(0.3))
    data["kraus"][0][0][0] = [True, 0.0]
    (tmp / "ch.json").write_text(json.dumps(data))
    return str(tmp / "ch.json")


def _record(tmp, change, data=None):
    # bit_flip(0.3)'s channel record, or ``data``, after ``change``
    data = data or channel_to_dict(bit_flip(0.3))
    change(data)
    (tmp / "ch.json").write_text(json.dumps(data))
    return ["validate", str(tmp / "ch.json")]


def _not_cptp(tmp):
    # bit_flip(0.3) with K0 scaled by 1.1: sum K^dag K = 1.147 I
    k0, k1 = bit_flip(0.3).kraus_ops
    return _saved(tmp, KrausChannel((1.1 * k0, k1)))


def _not_cptp_config(tmp):
    channel = {"file": _not_cptp(tmp)}
    return _config_file(tmp, bpf_config(channel=channel, sweep={"parameter": None, "grid": [0.0]}))


QUTRIT = ["--channel", "qutrit_amplitude_damping", "--param", "gamma=0.3"]
NOT_CPTP = "ch.json is not CPTP: completeness residual 1.470e-01"

# (argv from tmp_path, fidelity floor, exit code, first words of the message, a fragment of it)
ERROR_CASES = {
    "synth-length-3": (lambda tmp: ["synth", "--amplitudes", "[0.6,0.8,0]"], None,
                       1, "config error:", "not a power of two"),
    "synth-missing-file": (lambda tmp: ["synth", "--state-file", str(tmp / "missing.json")], None,
                           1, "config error:", "cannot read state file"),
    "synth-bad-json": (lambda tmp: ["synth", "--amplitudes", "[0.6,"], None,
                       1, "config error:", "--amplitudes"),
    "synth-not-normalized": (lambda tmp: ["synth", "--amplitudes", "[0.5,0.5]"], None,
                             1, "config error:", "--amplitudes: state not normalized"),
    "synth-state-file-not-normalized": (lambda tmp: ["synth", "--state-file", _config_file(tmp, [0.5, 0.5])],
                                        None, 1, "config error:", "--state-file: state not normalized"),
    # JSON's NaN literal: every tolerance comparison with NaN is false
    "synth-nan": (lambda tmp: ["synth", "--amplitudes", "[NaN, 1.0]"], None,
                  1, "config error: --amplitudes:", "state amplitude 0 is not finite: (nan+0j)"),
    "oracle-state-nan": (lambda tmp: ["oracle", "--channel", "bit_flip", "--param", "p=0.2",
                                      "--state", '{"amplitudes": [NaN, 1.0]}'], None,
                         1, "config error: initial_state.amplitudes:", "state amplitude 0 is not finite"),
    "sweep-amplitudes-nan": (_sweep(initial_state={"amplitudes": [np.nan, 1.0]}), None,
                             1, "config error: initial_state.amplitudes:", "state amplitude 0 is not finite"),
    "sweep-bloch-nan": (_sweep(initial_state={"bloch": [np.nan, 0.0]}), None,
                        1, "config error: initial_state.bloch:", "state amplitude 0 is not finite"),
    "sweep-density-matrix-nan": (_sweep(initial_state={"density_matrix": [[0.5, np.nan], [np.nan, 0.5]]}),
                                 None, 1, "config error: initial_state.density_matrix:",
                                 "density matrix entry (0, 1) is not finite: (nan+0j)"),
    "sweep-density-matrix-inf": (_sweep(initial_state={"density_matrix": [[1.0, np.inf], [np.inf, 0.0]]}),
                                 None, 1, "config error: initial_state.density_matrix:",
                                 "density matrix entry (0, 1) is not finite: (inf+0j)"),
    "synth-fidelity": (lambda tmp: ["synth", "--amplitudes", "[0.6,0.8]"], 2.0,
                       2, "verification failure:", "synthesis fidelity"),
    # QASM has no multiplexor, so only a lowered circuit exports
    "synth-qasm-unlowered": (lambda tmp: ["synth", "--amplitudes", "[0.6,[0,0.48],0,[0,-0.64]]", "--qasm"], None,
                             1, "config error:", "--qasm exports a lowered circuit; add --lower"),
    "oracle-dimension": (lambda tmp: ["oracle", *QUTRIT, "--state", '{"bloch":[0.5,0]}'], None,
                         1, "config error:", "dim 2 != channel dim 3"),
    "oracle-missing-file": (lambda tmp: ["oracle", "--channel-file", str(tmp / "missing.json")], None,
                            1, "config error:", "cannot load channel file"),
    "oracle-bad-param": (lambda tmp: ["oracle", "--channel", "bit_flip", "--param", "p=abc"], None,
                         1, "config error:", "--param p"),
    "oracle-bad-state": (lambda tmp: ["oracle", *QUTRIT, "--state", "{bad"], None,
                         1, "config error:", "--state"),
    "validate-missing-file": (lambda tmp: ["validate", str(tmp / "missing.json")], None,
                              1, "config error:", "cannot load channel file"),
    # a valid channel, residual 2.2e-16, that no negative or NaN tolerance passes
    "validate-tol-negative": (lambda tmp: ["validate", _saved(tmp, depolarizing(0.2)), "--tol", "-1"], None,
                              1, "config error: --tol", "got -1.0"),
    "validate-tol-nan": (lambda tmp: ["validate", _saved(tmp, depolarizing(0.2)), "--tol", "nan"], None,
                         1, "config error: --tol", "finite"),
    "oracle-name-and-file": (lambda tmp: ["oracle", "--channel", "bit_flip", "--param", "p=0.9",
                                          "--channel-file", _saved(tmp, depolarizing(0.2))], None,
                             1, "config error:", 'channel: give "name" or "file", not both'),
    "oracle-file-with-param": (lambda tmp: ["oracle", "--channel-file", _saved(tmp, depolarizing(0.2)),
                                            "--param", "p=0.9"], None,
                               1, "config error:", 'channel: a "file" channel takes no "params"'),
    "oracle-not-cptp": (lambda tmp: ["oracle", "--channel-file", _not_cptp(tmp)], None,
                        1, "config error: channel file", NOT_CPTP),
    "sweep-not-cptp": (lambda tmp: ["sweep", _not_cptp_config(tmp), "--csv", str(tmp / "rows.csv")], None,
                       1, "config error: channel file", NOT_CPTP),
    "export-not-cptp": (lambda tmp: ["export-qasm", _not_cptp_config(tmp), "--out", str(tmp / "prep")], None,
                        1, "config error: channel file", NOT_CPTP),
    "sweep-shots": (_sweep(shots="many"), None, 1, "config error:", "shots"),
    "sweep-seed": (_sweep(seed="x"), None, 1, "config error:", "seed"),
    "sweep-mixed-method": (_sweep(mixed_method="two"), None, 1, "config error:", "mixed_method"),
    "sweep-points": (_sweep_range(points="x"), None, 1, "config error:", "sweep.points"),
    "sweep-start": (_sweep_range(start=[0]), None, 1, "config error:", "sweep.start"),
    "sweep-grid-scalar": (_sweep(sweep={"parameter": "p", "grid": 5}), None,
                          1, "config error:", "sweep.grid"),
    "sweep-grid-text": (_sweep(sweep={"parameter": "p", "grid": ["a"]}), None,
                        1, "config error:", "sweep.grid"),
    "sweep-grid-string": (_sweep(sweep={"parameter": "p", "grid": "05"}), None,
                          1, "config error:", "sweep.grid"),
    "sweep-output": (_sweep(output="out.csv"), None, 1, "config error:", "output"),
    "sweep-params": (_sweep(channel={"name": "bit_phase_flip", "params": [1]}), None,
                     1, "config error:", "channel.params"),
    "sweep-shots-fraction": (_sweep(mode="sampled", shots=2.9), None,
                             1, "config error:", "shots: must be an integer, got 2.9"),
    "sweep-shots-bool": (_sweep(mode="sampled", shots=True), None,
                         1, "config error:", "shots: must be an integer, got True"),
    "sweep-seed-fraction": (_sweep(seed=1.7), None, 1, "config error:", "seed: must be an integer"),
    "sweep-mixed-method-fraction": (_sweep(mixed_method=2.5), None,
                                    1, "config error:", "mixed_method: must be an integer"),
    "sweep-points-fraction": (_sweep_range(points=3.7), None,
                              1, "config error:", "sweep.points: must be an integer"),
    "sweep-catalog-d-fraction": (_sweep(channel={"name": "hw_dephasing", "params": {"d": 4.9}},
                                        sweep={"parameter": "p0", "grid": [0.5]}), None,
                                 1, "config error:", "d: must be an integer, got 4.9"),
    "sweep-parameter-not-taken": (_sweep(channel={"name": "bit_flip", "params": {"p": 0.3}},
                                         sweep={"parameter": "gamma", "grid": [0.1, 0.5, 0.9]}), None,
                                  1, "config error:", "unexpected keyword argument 'gamma'"),
    "sweep-unknown-param": (_sweep(channel={"name": "bit_phase_flip", "params": {"q": 7}}), None,
                            1, "config error:", "unexpected keyword argument 'q'"),
    "oracle-unknown-param": (lambda tmp: ["oracle", "--channel", "bit_flip", "--param", "p=0.2",
                                          "--param", "q=7"], None,
                             1, "config error:", "unexpected keyword argument 'q'"),
    "oracle-missing-param": (lambda tmp: ["oracle", "--channel", "bit_flip"], None,
                             1, "config error: channel 'bit_flip'", "'p'"),
    "sweep-readout-singular": (_sweep(mode="sampled", shots=16, readout={"e0": 0.5, "e1": 0.5}), None,
                               1, "config error:", "readout: confusion matrix is singular"),
    "sweep-readout-unknown-key": (_sweep(mode="sampled", shots=16,
                                         readout={"e0": 0.1, "e1": 0.1, "e2": 0.1}), None,
                                  1, "config error: readout:", "unexpected keyword argument 'e2'"),
    "sweep-readout-lengths": (_sweep(mode="sampled", shots=16,
                                     readout={"e0": [0.1, 0.1], "e1": [0.1]}), None,
                              1, "config error:", "readout: e0 has 2 entries, e1 has 1"),
    # a list over the whole dilated register: only the 1 system qubit is measured
    "sweep-readout-register": (_sweep(mode="sampled", shots=16, readout={"e0": [0.1, 0.1], "e1": [0.1, 0.1]}),
                               None, 1, "config error:", "readout: e0 has 2 entries, but 1 qubits are measured"),
    "sweep-readout-exact": (_sweep(readout={"e0": 0.1, "e1": 0.1}), None,
                            1, "config error:", "readout: applies only in sampled mode"),
    "sweep-channel-name-and-file": (_name_and_file, None,
                                    1, "config error:", 'channel: give "name" or "file", not both'),
    "sweep-file-with-params": (_file_with_params, None,
                               1, "config error:", 'channel: a "file" channel takes no "params"'),
    "sweep-file-with-parameter": (_file_with_parameter, None,
                                  1, "config error:", 'channel: a "file" channel takes no sweep.parameter'),
    # "00" has one character per qubit of the 2-qubit register
    "sweep-readout-string": (_sweep(mode="sampled", shots=16, readout={"e0": "00", "e1": 0.03}), None,
                             1, "config error:", "readout.e0: must be a real number, got '00'"),
    "sweep-readout-bool": (_sweep(mode="sampled", shots=16, readout={"e0": 0.01, "e1": [False, 0.03]}),
                           None, 1, "config error:", "readout.e1 entry 0: must be a real number, got False"),
    # a rate out of range names its field, then its value, as the type errors do
    "sweep-readout-rate-scalar": (_sweep(mode="sampled", shots=16, readout={"e0": 0.6, "e1": 0.03}), None,
                                  1, "config error:", "readout.e0: 0.6 outside [0, 0.5]"),
    "sweep-readout-rate-entry": (_sweep(mode="sampled", shots=16, readout={"e0": [0.1, 0.7], "e1": 0.03}), None,
                                 1, "config error:", "readout.e0 entry 1: 0.7 outside [0, 0.5]"),
    "sweep-readout-rate-negative": (_sweep(mode="sampled", shots=16, readout={"e0": 0.02, "e1": -0.01}), None,
                                    1, "config error:", "readout.e1: -0.01 outside [0, 0.5]"),
    "sweep-readout-rate-above-half": (_sweep(mode="sampled", shots=16, readout={"e0": 0.02, "e1": [0.1, 0.51]}),
                                      None, 1, "config error:", "readout.e1 entry 1: 0.51 outside [0, 0.5]"),
    "sweep-seed-negative": (_sweep(seed=-1), None, 1, "config error:", "seed: must be >= 0, got -1"),
    # a NaN point once reached the oracle and failed there (exit 2)
    "sweep-grid-nan": (_sweep(channel={"name": "spin_boost", "params": {}},
                              sweep={"parameter": "theta", "grid": [0.1, np.nan]}), None,
                       1, "config error:", "sweep.grid entry 1: must be finite, got nan"),
    "sweep-grid-inf": (_sweep(sweep={"parameter": "p", "grid": [0.0, -np.inf]}), None,
                       1, "config error:", "sweep.grid entry 1: must be finite, got -inf"),
    "sweep-start-nan": (_sweep_range(start=np.nan), None, 1, "config error:", "sweep.start: must be finite, got nan"),
    # an infinite stop once made np.linspace warn before the monotone check
    "sweep-stop-inf": (_sweep_range(stop=np.inf), None, 1, "config error:", "sweep.stop: must be finite, got inf"),
    "validate-kraus-nan": (lambda tmp: ["validate", _nan_channel(tmp)], None,
                           1, "config error: cannot load channel file", "Kraus operator 1 entry (0, 1) is not finite"),
    "sweep-kraus-nan": (lambda tmp: ["sweep", _config_file(tmp, bpf_config(
                            channel={"file": _nan_channel(tmp)}, sweep={"parameter": None, "grid": [0.0]})),
                                     "--csv", str(tmp / "rows.csv")], None,
                        1, "config error: cannot load channel file", "Kraus operator 1 entry (0, 1) is not finite"),
    "oracle-param-nan": (lambda tmp: ["oracle", "--channel", "spin_boost", "--param", "theta=nan"], None,
                         1, "config error: channel 'spin_boost':", "Kraus operator 0 entry (0, 0) is not finite"),
    "export-register": (_oversized_export, None, 2, "point 0.5:", "qubit embedding"),
    # argparse's usage errors, which once exited 2 with a usage block
    "usage-no-subcommand": (lambda tmp: [], None,
                            1, "config error:", "the following arguments are required: command"),
    # the real form is picked from the amplitudes; the option that chose it is gone
    "usage-synth-real": (lambda tmp: ["synth", "--amplitudes", "[0.6,0.8]", "--real"], None,
                         1, "config error:", "unrecognized arguments: --real"),
    "usage-synth-no-source": (lambda tmp: ["synth", "--lower"], None,
                              1, "config error:", "one of the arguments --amplitudes --state-file is required"),
    "usage-synth-both-sources": (lambda tmp: ["synth", "--amplitudes", "[0.6,0.8]",
                                              "--state-file", _config_file(tmp, [0.6, 0.8])], None,
                                 1, "config error:", "argument --state-file: not allowed with argument --amplitudes"),
    "usage-export-point": (lambda tmp: ["export-qasm", _config_file(tmp, bpf_config()), "--point", "x",
                                        "--out", str(tmp / "prep")], None,
                           1, "config error:", "argument --point: invalid int value: 'x'"),
    "usage-validate-tol": (lambda tmp: ["validate", _saved(tmp, depolarizing(0.2)), "--tol", "abc"], None,
                           1, "config error:", "argument --tol: invalid float value: 'abc'"),
    # a JSON boolean where a real number is read, which once read as 1.0 or 0.0
    "sweep-grid-bool": (_sweep(sweep={"parameter": "p", "grid": [True]}), None,
                        1, "config error:", "sweep.grid entry 0: must be a real number, got True"),
    "sweep-start-bool": (_sweep_range(start=False), None,
                         1, "config error:", "sweep.start: must be a real number, got False"),
    "sweep-stop-bool": (_sweep_range(stop=True), None,
                        1, "config error:", "sweep.stop: must be a real number, got True"),
    "sweep-amplitudes-bool": (_sweep(initial_state={"amplitudes": [True, 0]}), None,
                              1, "config error:", "initial_state.amplitudes entry 0: must be a number or [re, im], got True"),
    "sweep-amplitudes-pair-bool": (_sweep(initial_state={"amplitudes": [[1.0, False], 0]}), None,
                                   1, "config error:", "initial_state.amplitudes entry 0: must be a number or [re, im], got [1.0, False]"),
    "sweep-density-matrix-bool": (_sweep(initial_state={"density_matrix": [[True, 0], [0, 0]]}), None,
                                  1, "config error:", "initial_state.density_matrix entry (0, 0): must be a number or [re, im], got True"),
    "sweep-bloch-bool": (_sweep(initial_state={"bloch": [True, 0.0]}), None,
                         1, "config error:", "initial_state.bloch entry 0: must be a real number, got True"),
    "sweep-params-bool": (_sweep(channel={"name": "generalized_amplitude_damping", "params": {"n": True}}), None,
                          1, "config error:", "channel.params.n: must be a real number, got True"),
    "validate-kraus-bool": (lambda tmp: ["validate", _bool_channel(tmp)], None,
                            1, "config error: cannot load channel file",
                            "Kraus operator 0 entry (0, 0): must be a number or [re, im], got [True, 0.0]"),
    "synth-amplitudes-bool": (lambda tmp: ["synth", "--amplitudes", "[true,false]"], None,
                              1, "config error:", "--amplitudes entry 0: must be a number or [re, im], got True"),
    # a JSON string that spells a number, which once read as that number
    "sweep-grid-entry-string": (_sweep(sweep={"parameter": "p", "grid": ["0.25"]}), None,
                                1, "config error:", "sweep.grid entry 0: must be a real number, got '0.25'"),
    "sweep-amplitudes-pair-string": (_sweep(initial_state={"amplitudes": [["0.6", 0], 0.8]}), None,
                                     1, "config error:", "initial_state.amplitudes entry 0: must be a number or [re, im], got ['0.6', 0]"),
    "synth-amplitudes-pair-string": (lambda tmp: ["synth", "--amplitudes", '[["0.6", 0], 0.8]'], None,
                                     1, "config error:", "--amplitudes entry 0: must be a number or [re, im], got ['0.6', 0]"),
    # a JSON integer that no float holds, which once ended in a traceback
    "sweep-grid-huge-int": (_sweep(sweep={"parameter": "p", "grid": [10**400]}), None,
                            1, "config error:", "sweep.grid entry 0: int too large to convert to float"),
    # a channel record's dim is an integer, and each operator a square list of rows;
    # the dims once passed validate, the operators once ended in an IndexError
    "validate-dim-fraction": (lambda tmp: _record(tmp, lambda d: d.update(dim=2.9)), None,
                              1, "config error: cannot load channel file", "dim: must be an integer, got 2.9"),
    "validate-dim-string": (lambda tmp: _record(tmp, lambda d: d.update(dim="2")), None,
                            1, "config error: cannot load channel file", "dim: must be an integer, got '2'"),
    "validate-dim-bool": (lambda tmp: _record(tmp, lambda d: d.update(dim=True), {"kraus": [[[[1.0, 0.0]]]]}), None,
                          1, "config error: cannot load channel file", "dim: must be an integer, got True"),
    "validate-kraus-empty": (lambda tmp: _record(tmp, lambda d: d.update(dim=1), {"kraus": [[]]}), None,
                             1, "config error: cannot load channel file", "Kraus operator 0 has non-square shape (0,)"),
    "validate-kraus-long-row": (lambda tmp: _record(tmp, lambda d: d["kraus"][1][1].append([0.0, 0.0])), None,
                                1, "config error: cannot load channel file",
                                "Kraus operator 1 row 1: must have 2 entries, got 3"),
    # a JSON string that spells an integer, which once ran as that integer
    "sweep-seed-string": (_sweep(seed="7"), None, 1, "config error:", "seed: must be an integer, got '7'"),
    "sweep-shots-string": (_sweep(mode="sampled", shots="64"), None,
                           1, "config error:", "shots: must be an integer, got '64'"),
    "sweep-points-string": (_sweep_range(points="2"), None,
                            1, "config error:", "sweep.points: must be an integer, got '2'"),
    "sweep-mixed-method-string": (_sweep(mixed_method="2"), None,
                                  1, "config error:", "mixed_method: must be an integer, got '2'"),
    "sweep-catalog-d-string": (_sweep(channel={"name": "hw_dephasing", "params": {"d": "3"}},
                                      sweep={"parameter": "p0", "grid": [0.5]}), None,
                               1, "config error:", "channel.params.d: must be an integer, got '3'"),
    # a catalog param of the wrong type, which once failed inside the channel without its name
    "sweep-params-string": (_sweep(channel={"name": "generalized_amplitude_damping", "params": {"n": "0.3"}}), None,
                            1, "config error:", "channel.params.n: must be a real number, got '0.3'"),
    "sweep-params-list": (_sweep(channel={"name": "generalized_amplitude_damping", "params": {"n": [0.3]}}), None,
                          1, "config error:", "channel.params.n: must be a real number, got [0.3]"),
    "sweep-params-null": (_sweep(channel={"name": "generalized_amplitude_damping", "params": {"n": None}}), None,
                          1, "config error:", "channel.params.n: must be a real number, got None"),
    # integers no int64 holds, which once ended in a traceback from numpy
    "sweep-shots-huge-int": (_sweep(mode="sampled", shots=10**400), None,
                             1, "config error:", f"shots: must be <= {2**63 - 1}, got {10**400}"),
    "sweep-shots-int64": (_sweep(mode="sampled", shots=2**63), None,
                          1, "config error:", f"shots: must be <= {2**63 - 1}, got {2**63}"),
    "sweep-points-huge-int": (_sweep_range(points=10**400), None,
                              1, "config error:", f"sweep.points: must be <= {10**6}, got {10**400}"),
    "sweep-points-int64": (_sweep_range(points=2**63), None,
                           1, "config error:", f"sweep.points: must be <= {10**6}, got {2**63}"),
    # 10^9 points once built an 8 GB linspace and a tuple of about 32 GB
    # before any point ran
    "sweep-points-billion": (_sweep_range(points=10**9), None,
                             1, "config error:", f"sweep.points: must be <= {10**6}, got {10**9}"),
    "sweep-catalog-d-huge-int": (_sweep(channel={"name": "hw_dephasing", "params": {"d": 10**400}},
                                        sweep={"parameter": "p0", "grid": [0.5]}), None,
                                 1, "config error: channel 'hw_dephasing':",
                                 f"qudit dimension d={10**400} outside [2, 101]"),
    # an output that is no object, which once ran as no output
    "sweep-output-list": (_sweep(output=[]), None, 1, "config error:", "output: must be an object, got []"),
    "sweep-output-false": (_sweep(output=False), None, 1, "config error:", "output: must be an object, got False"),
    "sweep-output-zero": (_sweep(output=0), None, 1, "config error:", "output: must be an object, got 0"),
    "sweep-output-empty": (_sweep(output=""), None, 1, "config error:", "output: must be an object, got ''"),
    # a trace path that cannot be written (a directory): no CSV either
    "sweep-trace-unwritable": (lambda tmp: _sweep()(tmp) + ["--trace", str(tmp)], None,
                               1, "config error:", "cannot write"),
    "export-fidelity": (lambda tmp: ["export-qasm", _config_file(tmp, bpf_config()), "--point", "1",
                                     "--out", str(tmp / "prep")], 2.0,
                        2, "point 0.25:", "synthesis fidelity"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_cli_error_contract(case, tmp_path, capsys, monkeypatch):
    argv, floor, code, prefix, fragment = ERROR_CASES[case]
    if floor is not None:
        # no preparation reaches a floor above 1: every fidelity check fails
        monkeypatch.setattr(cli, "FIDELITY_FLOOR", floor)
    assert main(argv(tmp_path)) == code
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(prefix) and fragment in lines[0], lines[0]
    assert "Traceback" not in out + err
    assert out == ""  # a failed export-qasm writes and lists no file
    assert not list(tmp_path.glob("*.qasm"))
    assert not list(tmp_path.glob("*.csv"))  # a sweep that fails on its config writes no CSV


def test_sweep_points_bound_is_checked_before_the_grid_is_built(monkeypatch):
    # the grid is built whole before any point runs, so the bound on
    # sweep.points comes first; 10^6 points is the most that is built
    asked = []
    monkeypatch.setattr(cli.np, "linspace", lambda start, stop, points: asked.append(points) or np.zeros(2))
    with pytest.raises(ConfigError, match=f"^sweep.points: must be <= {10**6}, got {10**9}$"):
        parse_config(bpf_config(sweep={"parameter": "p", "start": 0.0, "stop": 1.0, "points": 10**9}))
    assert asked == [] and cli.MAX_SWEEP_POINTS == 10**6
    parse_config(bpf_config(sweep={"parameter": "p", "start": 0.0, "stop": 1.0, "points": 10**6}))
    assert asked == [10**6]


def test_sampled_sweeps_reach_the_documented_shots_limit(tmp_path, capsys):
    # a bit_flip point measures 3 settings, so 2^62 shots per setting or more
    # total past int64; the count check once summed them in int64, which
    # wrapped and failed the point
    for shots in (2**62, 2**63 - 1):
        cfg = bpf_config(channel={"name": "bit_flip", "params": {}}, sweep={"parameter": "p", "grid": [0.3]},
                         mode="sampled", shots=shots)
        assert main(["sweep", _config_file(tmp_path, cfg)]) == 0
        out, err = capsys.readouterr()
        [row] = out.splitlines()[1:]
        assert err == "" and row.split(",")[5] == str(shots)


# The CI qad config (gamma = 0.4, sampled, m = 2 system qubits) exports the
# lowered circuit and its 3^2 setting circuits.  The digest is sha256 over
# the sorted file names, each followed by a NUL byte and then the file's
# bytes.  It pins the lowered QASM bytes: a change that moves one records
# the new digest in CHANGES.md.
EXPORT_QAD_SHA256 = "71ed8f7c964735c9b6d7bab72c145c3c8f3d50478edecc1682796a3c067ac5a8"


def test_export_qasm_keeps_the_lowered_bytes(tmp_path, capsys):
    cfg = {"channel": {"name": "qutrit_amplitude_damping", "params": {}},
           "sweep": {"parameter": "gamma", "grid": [0.4]}, "mode": "sampled", "shots": 64}
    assert main(["export-qasm", _config_file(tmp_path, cfg), "--out", str(tmp_path / "prep"), "--tomography"]) == 0
    files = sorted(tmp_path.glob("prep_point0*.qasm"))
    assert len(files) == 10 and sorted(capsys.readouterr().out.split()) == [str(f) for f in files]
    digest = hashlib.sha256(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files))
    assert digest.hexdigest() == EXPORT_QAD_SHA256


def test_export_qasm_tomography_matches_sweep_branches(tmp_path, capsys):
    # a rank-2 qutrit input under mixed method 2: two parts, each with
    # 2 system qubits, so one preparation and 3^2 settings per part
    rho = np.array([[0.6, 0.2, 0.0], [0.2, 0.4, 0.0], [0.0, 0.0, 0.0]])
    cfg = {
        "channel": {"name": "qutrit_amplitude_damping", "params": {}},
        "initial_state": {"density_matrix": rho.tolist()},
        "sweep": {"parameter": "gamma", "grid": [0.4]},
        "mode": "sampled",
        "shots": 64,
        "mixed_method": 2,
    }
    out = tmp_path / "prep"
    assert main(["export-qasm", _config_file(tmp_path, cfg), "--out", str(out), "--tomography"]) == 0
    listed = capsys.readouterr().out.split()
    assert sorted(listed) == sorted(str(p) for p in tmp_path.glob("*.qasm"))

    parts = eigenvector_dilations(qutrit_amplitude_damping(0.4), DensityMatrix(rho))
    assert len(parts) == 2
    assert len(listed) == 2 * (1 + 3**2)
    for k, (_, dilated) in enumerate(parts):
        base = f"{out}_point0_mix{k}"
        assert len(list(tmp_path.glob(f"prep_point0_mix{k}*.qasm"))) == 1 + 3**2
        low = lower(synthesize(embed_qudits(dilated)))
        assert Path(f"{base}.qasm").read_text() == qasm_export(low)
        plan = settings_for(dilated.embedding.qubit_counts[0])
        # the sweep's branched states, one row per setting
        branched = simulator.run_branches(low, plan.layers)
        for setting in (("X", "X"), ("Y", "Y"), ("Z", "Z")):
            row = branched[plan.settings.index(setting)]
            exported = simulator.run(qasm_parse(Path(f"{base}_setting{''.join(setting)}.qasm").read_text()))
            np.testing.assert_allclose(
                np.abs(exported.amplitudes) ** 2, np.abs(row) ** 2, rtol=0, atol=1e-12
            )


# Generated error matrix: in each valid config, every field in turn takes
# each wrong value below.  A field's path is the one its config error
# names: dotted object keys, then "entry i" in a list, "row i" and
# "entry (i, j)" in a matrix, and "Kraus operator k" in a channel record;
# a part of an [re, im] entry is named by its entry.
WRONG_VALUES = (True, "0.5", [[]], {}, None, "NaN", 10**400)
MATRIX_BASES = {  # name: (config, channel record written to ch.json or None, optional fields)
    "exact-catalog": ({
        "channel": {"name": "generalized_amplitude_damping", "params": {"n": 0.25}},
        "initial_state": {"bloch": [0.7, 0.3]},
        "sweep": {"parameter": "p", "grid": [0.2, 0.6]},
        "mode": "exact", "seed": 3, "mixed_method": 3, "output": {"csv": "out.csv"},
    }, None, {"channel.params", "initial_state", "mode", "seed", "mixed_method", "output", "output.csv"}),
    "sampled-readout": ({
        "channel": {"name": "bit_flip", "params": {}},
        "initial_state": {"amplitudes": [0.6, [0.0, 0.8]]},
        "sweep": {"parameter": "p", "start": 0.1, "stop": 0.3, "points": 2},
        "mode": "sampled", "shots": 32, "seed": 5, "readout": {"e0": 0.02, "e1": [0.03]},
    }, None, {"channel.params", "initial_state", "mode", "seed", "readout"}),
    "channel-file": ({
        "channel": {"file": "ch.json"}, "sweep": {"grid": [0.0]}, "mode": "exact",
    }, channel_to_dict(bit_flip(0.3)), {"mode", "label", "params"}),
    "density-matrix": ({
        "channel": {"name": "depolarizing", "params": {}},
        "initial_state": {"density_matrix": [[0.75, [0.25, 0.0]], [[0.25, -0.0], 0.25]]},
        "sweep": {"parameter": "p", "grid": [0.5]}, "mixed_method": 2,
    }, None, {"channel.params", "initial_state", "mixed_method"}),
}


def _fields(value, keys=()):
    """Every field below ``value``, as its key path."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield keys + (key,)
        yield from _fields(child, keys + (key,))


def _error_path(keys):
    names = ".".join(k for k in keys if isinstance(k, str))
    index = [k for k in keys if isinstance(k, int)]
    if names == "kraus" and index:
        names, index = f"Kraus operator {index[0]}", index[1:]
    if not index:
        return names
    if names.startswith("Kraus") or names.endswith("density_matrix"):
        return f"{names} row {index[0]}" if len(index) == 1 else f"{names} entry ({index[0]}, {index[1]})"
    return f"{names} entry {index[0]}"


def _matrix_cases():
    for base, (config, record, optional) in MATRIX_BASES.items():
        for part, data in (("config", config), ("record", record)):
            for keys in _fields(data or {}):
                yield pytest.param(base, part, keys, id=f"{base}-{part}-" + ".".join(map(str, keys)))


def _replaced(data, keys, value):
    """A copy of ``data`` with the field at ``keys`` set to ``value``, and the field's old value."""
    data = json.loads(json.dumps(data))
    target = data
    for key in keys[:-1]:
        target = target[key]
    original, target[keys[-1]] = target[keys[-1]], value
    return data, original


def _run_matrix_config(tmp_path, config, record):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    if record is not None:
        (tmp_path / "ch.json").write_text(json.dumps(record))
    return main(["sweep", "cfg.json", "--csv", "rows.csv"])


@pytest.mark.parametrize("base", sorted(MATRIX_BASES))
def test_error_matrix_bases_run(base, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config, record, _ = MATRIX_BASES[base]
    assert _run_matrix_config(tmp_path, config, record) == 0, capsys.readouterr().err


@pytest.mark.parametrize(("base", "part", "keys"), list(_matrix_cases()))
def test_error_matrix(base, part, keys, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config, record, optional = MATRIX_BASES[base]
    path = _error_path(keys)
    tried = 0
    for value in WRONG_VALUES:
        data, original = _replaced(config if part == "config" else record, keys, value)
        if (type(value) is type(original) and not isinstance(original, (int, float))
                or value is None and path in optional
                or value == 10**400 and path == "seed"):  # seed takes any integer >= 0
            continue  # a string, list or object for a field of that type, or a null optional field
        tried += 1
        code = _run_matrix_config(tmp_path, *((data, record) if part == "config" else (config, data)))
        out, err = capsys.readouterr()
        lines = err.splitlines()
        case = f"{path} = {value!r}"
        assert code == 1, case
        assert len(lines) == 1 and lines[0].startswith("config error: "), (case, err)
        assert path in lines[0], (case, lines[0])
        assert "Traceback" not in out + err and out == "", case
        assert not list(tmp_path.glob("*.csv")), case
    assert tried >= 4
