"""Sweep benchmark for kraussim.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop: one process builds the seeded config,
then runs whole sweeps through ``kraussim.cli.parse_config`` /
``run_experiment`` one after another until ``--seconds`` have passed.
The first sweep is a warm-up; every later sweep is timed.  ``all`` runs
each workload in a fresh process and prints one table.

Every sweep row must pass the oracle gate (``workloads.GATE_TOL``) and
every sweep's CSV must be byte-identical to the warm-up's.  A failure
of either sets ``correct`` to false and the exit code to 1; the share of
failed points is printed as ``failed_ratio``.

``--trace 0`` reports the end-to-end metrics: wall and CPU seconds per
sweep, the median set-up time of fresh interpreters (import kraussim,
build and parse the config; one probe after each sweep) and the
process's peak RSS.  The three times are given at a reference machine
speed (see ``reference_seconds``): on a shared host the same code can
run 1.7 times slower for minutes at a time, so each is scaled by
``REFERENCE_S`` over the mean time of a fixed kernel timed before every
sweep.  The sweeps are averaged, not medianed: their times fall into a
fast and a slow mode, and only the mean moves in proportion to the
share of each that the kernel also sees.  The unscaled times and the
scale are printed and kept in the record.
``--trace 1`` alternates untraced and traced sweeps and reports, for the
traced sweep of median length, each layer's self time and the exact
work counts (see ``spans``), ``cli.self_s`` for time outside every
layer, and the tracing overhead.  A layer the workload must reach that
records no call is reported as unmeasured (null) and fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (sweep points) and ``metrics``.
The full record, with environment, seed, CSV digest, per-sweep times and
the spans of a traced run, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
MIN_PROBES = 7
# Seconds of one reference_seconds() call at the reference speed, about
# the usual speed of a 2-vCPU shared x86-64 VM.
REFERENCE_S = 0.12
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = _REF_RNG.standard_normal((16, 16)) + 1j * _REF_RNG.standard_normal((16, 16))
_REF_VECTOR = _REF_RNG.standard_normal(512)
_REF_BITS = _REF_RNG.random((2_000, 9)) < 0.5


class Sweep(NamedTuple):
    index: int
    traced: bool
    wall_s: float
    cpu_s: float


def reference_seconds() -> float:
    """Wall seconds of a fixed kernel that runs no kraussim code.

    It mixes what the sweeps spend their time on: an interpreter loop,
    small NumPy calls, and bit strings counted in a dict.  Its time
    follows the speed that the shared machine gives this process just
    now.
    """
    start = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i * i
    m = _REF_MATRIX
    for _ in range(2_400):
        m = _REF_MATRIX @ m
        m /= np.abs(m).max()
        np.sort(_REF_VECTOR)
    counts: dict[str, int] = {}
    for _ in range(4):
        for row in _REF_BITS:
            key = "".join("1" if b else "0" for b in row)
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        # unset means OpenBLAS starts one thread per core
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_start": list(os.getloadavg()),
    }


def setup_seconds(workload: str, seed: int) -> float:
    """One fresh interpreter's set-up time, from spawn to ready."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.monotonic()
    done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1]) - start


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the closed loop; returns (result line, full record)."""
    from kraussim.cli import parse_config, rows_to_csv, run_experiment

    import spans
    import workloads

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment()}
    cfg = parse_config(workloads.make_config(workload, seed))
    tol = workloads.GATE_TOL[workload]
    tracer = spans.Tracer()

    attempted = failed = 0
    worst = 0.0
    reference = None
    deterministic = True
    sweeps: list[Sweep] = []
    probes = []
    references = []
    deadline = time.monotonic() + seconds
    index = 0
    # warm-up, then at least two sweeps of each kind the run reports
    while index < 5 or time.monotonic() < deadline:
        traced = trace and index % 2 == 0 and index > 0
        if not trace:
            references.append(reference_seconds())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if traced:
            rows = tracer.run_sweep(index, lambda: run_experiment(cfg))
        else:
            rows = run_experiment(cfg)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        csv = rows_to_csv(rows)
        attempted += len(rows)
        failed += sum(1 for row in rows if not workloads.row_passes(row, tol))
        worst = max([worst] + [abs(r.c_measured - r.c_theory) for r in rows])
        if reference is None:
            reference = csv
            record["csv_sha256"] = hashlib.sha256(csv.encode()).hexdigest()
        else:
            deterministic &= csv == reference
            sweeps.append(Sweep(index, traced, wall, cpu))
        if not trace:
            # set-up probes spread over the run, not bunched in one stretch
            probes.append(setup_seconds(workload, seed))
        index += 1
    while not trace and len(probes) < MIN_PROBES:
        probes.append(setup_seconds(workload, seed))
    if not trace:
        references.append(reference_seconds())

    untraced = [s for s in sweeps if not s.traced]
    record["sweeps"] = [s._asdict() for s in sweeps]
    record["deterministic"] = deterministic
    record["setup_s"] = probes
    record["reference_s"] = references
    record["max_gate_dev"] = worst
    correct = failed == 0 and deterministic
    if not trace:
        raw = {
            "sweep_s": statistics.fmean(s.wall_s for s in untraced),
            "cpu_s": statistics.fmean(s.cpu_s for s in untraced),
            "setup_s": statistics.median(probes),
        }
        scale = REFERENCE_S / statistics.fmean(references)
        record.update(raw=raw, scale=scale)
        metrics = {name: (value * scale, "s") for name, value in raw.items()}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    else:
        traced_sweeps = sorted((s for s in sweeps if s.traced), key=lambda s: s.wall_s)
        chosen = traced_sweeps[(len(traced_sweeps) - 1) // 2].index
        counts = [tracer.work_counts(s.index) for s in traced_sweeps]
        counts_repeat = all(c == counts[0] for c in counts)
        unmeasured = tracer.unmeasured(workloads.EXPECTED_LAYERS[workload])
        correct = correct and counts_repeat and not unmeasured
        record.update(counts_repeat=counts_repeat, unmeasured=unmeasured)
        record["spans"] = [s._asdict() for s in tracer.spans]
        sweep_s = tracer.root_seconds(chosen)
        metrics = {}
        for layer, value in tracer.self_times(chosen).items():
            name = "cli.self_s" if layer == spans.ROOT_LAYER else f"{layer}_s"
            metrics[name] = (None if layer in unmeasured else value, "s")
        for name, value in tracer.work_counts(chosen).items():
            metrics[name] = (None if spans.COUNTS[name] in unmeasured else value, "count")
        metrics["trace.sweep_s"] = (sweep_s, "s")
        metrics["trace.overhead_s"] = (
            sweep_s - statistics.median_low(s.wall_s for s in untraced), "s")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result)
    return result, record


def _show(value) -> str:
    if value is None:
        return "unmeasured"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one table of every metric."""
    import workloads

    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{workload}: no result (exit {done.returncode}) {done.stderr.strip()}")
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} failed_ratio={ratio:g} "
              f"({result['failed']}/{result['attempted']} points)")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {_show(m['value']):>14s} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kraussim" / "__init__.py").is_file():
        print(f"error: no kraussim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kraussim
    import workloads

    if Path(kraussim.__file__).resolve().parent.parent != SRC:
        print(f"error: imported kraussim from {kraussim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    env = record["env"]
    print(f"env python {env['python']} numpy {env['numpy']} {env['blas']} nproc {env['nproc']} "
          f"blas_threads {env['blas_threads']} loadavg {env['loadavg_start']}")
    print(f"seed {args.seed} csv_sha256 {record['csv_sha256']} "
          f"deterministic {record['deterministic']} sweeps {len(record['sweeps'])}")
    print(f"failed_ratio {result['failed'] / result['attempted']:g} "
          f"({result['failed']}/{result['attempted']} points, "
          f"gate {workloads.GATE_TOL[args.workload]:g}, max dev {record['max_gate_dev']:.3g})")
    if "scale" in record:
        print(f"machine speed scale {record['scale']:.4g}; unscaled "
              + " ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    for layer in record.get("unmeasured", []):
        print(f"unmeasured layer {layer}")
    for name, m in result["metrics"].items():
        print(f"{name} {_show(m['value'])} {m['unit']}")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
