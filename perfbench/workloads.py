"""Seeded workload configs for the sweep benchmark.

Each workload is one ``kraussim`` sweep config, built from the benchmark
seed alone, so the same seed always gives the same inputs.  The program
under test only ever sees the generated config dict.
"""

from __future__ import annotations

import numpy as np

# Oracle gate: largest allowed |C_measured - C_theory| per sweep row.
# Exact mode recovers the state by partial trace, so only rounding is
# tolerated.  The sampled tolerances are fixed once, from the shot noise
# of each workload, and must never be loosened to make a run pass.
EXACT_TOL = 1e-9


def _ginibre_density(seed: int, dim: int) -> list[list[list[float]]]:
    """Full-rank random density matrix as ``[re, im]`` config entries."""
    rng = np.random.default_rng([seed, dim])
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    m /= np.trace(m).real
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def make_config(name: str, seed: int) -> dict:
    """Sweep config for workload ``name`` under benchmark seed ``seed``."""
    if name == "qad_readout":
        return {
            "channel": {"name": "qutrit_amplitude_damping", "params": {}},
            "initial_state": "uniform",
            "sweep": {"parameter": "gamma", "start": 0.0, "stop": 1.0, "points": 11},
            "mode": "sampled",
            "shots": 8192,
            "seed": seed,
            "readout": {"e0": 0.02, "e1": 0.03},
        }
    if name == "hw16_tomo":
        return {
            "channel": {"name": "hw_dephasing", "params": {"d": 16}},
            "initial_state": "uniform",
            "sweep": {"parameter": "p0", "grid": [0.7]},
            "mode": "sampled",
            "shots": 4096,
            "seed": seed,
        }
    if name == "mixed_exact":
        return {
            "channel": {"name": "hw_dephasing", "params": {"d": 8}},
            "initial_state": {"density_matrix": _ginibre_density(seed, 8)},
            "sweep": {"parameter": "p0", "start": 0.1, "stop": 0.9, "points": 5},
            "mode": "exact",
            "seed": seed,
        }
    raise KeyError(name)


WORKLOADS = ("qad_readout", "hw16_tomo", "mixed_exact")

# Sampled tolerances.  qad_readout uses the bound the acceptance tests
# already apply to readout-mitigated qubit/qutrit sweeps at 8192 shots.
# hw16_tomo sums 240 off-diagonal magnitudes of a 16-level state from
# 4096 shots per setting; its per-row deviation has a standard error of
# about 0.032 (30 seeds), and the gate sits at five of them.
GATE_TOL = {"qad_readout": 0.07, "hw16_tomo": 0.16, "mixed_exact": EXACT_TOL}

_PIPELINE = {
    "channels.oracle",
    "dilation.dilate",
    "dilation.embed",
    "qsp.synthesize",
    "qsp.verify",
    "qsp.lower",
    "simulator.run",
    "numerics.density",
    "numerics.trace_distance",
    "tomography.extract",
}
_TOMOGRAPHY = {
    "simulator.sample",
    "tomography.settings",
    "tomography.expectations",
    "tomography.reconstruct",
}

# Layers each workload must reach; a traced run that records no call to
# one of them reports it unmeasured and fails.
EXPECTED_LAYERS = {
    "qad_readout": _PIPELINE | _TOMOGRAPHY | {"simulator.readout_noise", "simulator.mitigate"},
    "hw16_tomo": _PIPELINE | _TOMOGRAPHY,
    "mixed_exact": _PIPELINE | {"numerics.partial_trace"},
}


def row_passes(row, tol: float) -> bool:
    """Oracle gate for one sweep row: no error and |C_measured - C_theory| <= tol."""
    delta = abs(row.c_measured - row.c_theory)
    return not row.error and delta <= tol  # NaN compares false
