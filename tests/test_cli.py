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
from kraussim.channels import KrausChannel, depolarizing, qutrit_amplitude_damping, save_channel
from kraussim.cli import (
    CSV_HEADER,
    ConfigError,
    load_config,
    main,
    parse_config,
    rows_to_csv,
    run_experiment,
)
from kraussim.dilation import eigenvector_dilations, embed_qudits, mixed_method_double_purification
from kraussim.numerics import DensityMatrix
from kraussim.qsp import Circuit, lower, qasm_export, qasm_parse, synthesize
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


def test_each_preparation_is_simulated_once(monkeypatch):
    applied = []
    apply_gate = simulator._apply_gate

    def counting(state, gate, n):
        applied.append(gate)
        apply_gate(state, gate, n)

    monkeypatch.setattr(simulator, "_apply_gate", counting)
    # one system qubit: the X, Y and Z settings add 1 + 3 + 0 rotations
    for mode, rotation_gates in (("exact", 0), ("sampled", 4)):
        applied.clear()
        cfg = bpf_config(mode=mode, shots=64, sweep={"parameter": "p", "grid": [0.3]})
        [row] = run_experiment(parse_config(cfg))
        assert not row.error
        expected = row.synth_gate_count + row.lowered_gate_count + rotation_gates
        assert len(applied) == expected


def test_readout_register_is_checked_before_the_first_gate(monkeypatch):
    applied = []
    monkeypatch.setattr(simulator, "_apply_gate", lambda *args: applied.append(args))
    # bit_phase_flip on a qubit dilates onto 2 qubits; the model covers 1
    cfg = parse_config(bpf_config(mode="sampled", shots=16, readout={"e0": [0.1], "e1": [0.1]}))
    with pytest.raises(ConfigError, match="readout: e0 has 1 entries, the register has 2 qubits"):
        run_experiment(cfg)
    assert applied == []


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


def _name_and_file(tmp):
    # a readable file and a known name: neither alone is an error
    save_channel(depolarizing(0.2), str(tmp / "bf.json"))
    channel = {"name": "phase_damping", "file": str(tmp / "bf.json")}
    return _sweep(channel=channel, sweep={"parameter": "p", "grid": [0.5]})(tmp)


def _file_with_params(tmp):
    # a readable file channel; its own p is 0.2, the params ask for 0.9
    save_channel(depolarizing(0.2), str(tmp / "bf.json"))
    channel = {"file": str(tmp / "bf.json"), "params": {"p": 0.9}}
    return _sweep(channel=channel, sweep={"parameter": "p", "grid": [0.5]})(tmp)


QUTRIT = ["--channel", "qutrit_amplitude_damping", "--param", "gamma=0.3"]

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
    "synth-fidelity": (lambda tmp: ["synth", "--amplitudes", "[0.6,0.8]"], 2.0,
                       2, "verification failure:", "synthesis fidelity"),
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
    "sweep-readout-register": (_sweep(mode="sampled", shots=16, readout={"e0": [0.1], "e1": [0.1]}), None,
                               1, "config error:", "readout: e0 has 1 entries, the register has 2 qubits"),
    "sweep-readout-exact": (_sweep(readout={"e0": 0.1, "e1": 0.1}), None,
                            1, "config error:", "readout: applies only in sampled mode"),
    "sweep-channel-name-and-file": (_name_and_file, None,
                                    1, "config error:", 'channel: give "name" or "file", not both'),
    "sweep-file-with-params": (_file_with_params, None,
                               1, "config error:", 'channel: a "file" channel takes no "params"'),
    # "00" has one character per qubit of the 2-qubit register
    "sweep-readout-string": (_sweep(mode="sampled", shots=16, readout={"e0": "00", "e1": 0.03}), None,
                             1, "config error:", "readout: e0: rates must be numbers, got '00'"),
    "sweep-readout-bool": (_sweep(mode="sampled", shots=16, readout={"e0": 0.01, "e1": [False, 0.03]}),
                           None, 1, "config error:", "readout: e1: rates must be numbers"),
    "sweep-seed-negative": (_sweep(seed=-1), None, 1, "config error:", "seed: must be >= 0, got -1"),
    "export-register": (_oversized_export, None, 2, "point 0.5:", "qubit embedding"),
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
        n = low.qubit_count
        prefix = simulator.run(Circuit(n, low.gates))
        plan = settings_for(tuple(range(dilated.embedding.qubit_counts[0])))
        for setting in (("X", "X"), ("Y", "Y"), ("Z", "Z")):
            # the sweep's branched state for this setting
            branched = simulator.run(Circuit(n, plan.rotations[setting], low.global_phase), prefix)
            exported = simulator.run(qasm_parse(Path(f"{base}_setting{''.join(setting)}.qasm").read_text()))
            np.testing.assert_allclose(
                np.abs(exported.amplitudes) ** 2, np.abs(branched.amplitudes) ** 2, rtol=0, atol=1e-12
            )
