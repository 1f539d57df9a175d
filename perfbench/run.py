#!/usr/bin/env python3
"""diffnet benchmark: the public CLI, in-process, on generated inputs.

Run from the repository root:

    python3 perfbench/run.py --workload sim_noisy_atc --seed 1 --seconds 30 --trace 0

One operation is one ``diffnet`` command (see workloads.py for the
workloads and why each exists). The benchmark repeats it for ``--seconds``
and checks the outputs afterwards, outside the timed window.

``--trace 0`` reports the end-to-end metrics: median seconds per operation,
the median cold set-up time over fresh interpreters, and the process's peak
RSS. ``--trace 1`` alternates untraced and traced operations, runs one more
under tracemalloc, and reports per-module calls, busy and self time,
allocation peaks and the tracing overhead.

The last line of standard output is the result JSON. The line before it
holds the run's metadata and the figures that do not fit the result's
metric set: samples, node-iterations per second, the failed-operation
share, output-check faults and trace names that no longer exist.
``--smoke`` shrinks every workload to a few seconds for the benchmark's own
test.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
MIN_OPS = 2  # a median needs more than one sample

CALLS, BUSY, SELF = 0, 1, 2
# (module attribute the caller resolves, span key)
TRACE_TARGETS = [
    ("diffnet.cli", "load_scenario", "cli.load_scenario"),
    ("diffnet.cli", "validate", "network.validate"),
    ("diffnet.cli", "matrices_from_rules", "combine.matrices_from_rules"),
    ("diffnet.cli", "run_monte_carlo", "simulate.run_monte_carlo"),
    ("diffnet.cli", "curve_to_csv", "simulate.output_csv"),
    ("diffnet.simulate", "diffusion_step", "simulate.diffusion_step"),
    ("diffnet.simulate", "crandn", "linalg.crandn"),
    ("diffnet.theory", "spectral_radius", "linalg.spectral_radius"),
    ("diffnet.cli", "theory_report", "theory.solve"),
    ("diffnet.cli", "network_metrics", "theory.solve"),
    ("diffnet.theory", "tracking_metrics", "theory.tracking_metrics"),
    ("diffnet.theory", "assemble_mean_dynamics", "theory.assemble_mean_dynamics"),
    ("diffnet.theory", "assemble_noise_moments", "theory.assemble_noise_moments"),
    ("diffnet.theory", "stability_report", "theory.stability_report"),
    ("diffnet.theory", "step_size_bounds", "theory.step_size_bounds"),
    ("diffnet.theory", "bias", "theory.bias"),
]
ALLOC_TARGETS = [
    ("diffnet.cli", "run_monte_carlo", "simulate"),
    ("diffnet.cli", "theory_report", "theory"),
    ("diffnet.cli", "network_metrics", "theory"),
]
# (metric, span key, field); reported as the median over traced operations
SPAN_METRICS = [
    ("simulate.diffusion_step.calls", "simulate.diffusion_step", CALLS),
    ("simulate.diffusion_step.self_s", "simulate.diffusion_step", SELF),
    ("simulate.run_monte_carlo.calls", "simulate.run_monte_carlo", CALLS),
    ("simulate.run_monte_carlo.self_s", "simulate.run_monte_carlo", SELF),
    ("simulate.output_csv.busy_s", "simulate.output_csv", BUSY),
    ("linalg.crandn.calls", "linalg.crandn", CALLS),
    ("linalg.crandn.self_s", "linalg.crandn", SELF),
    ("linalg.spectral_radius.calls", "linalg.spectral_radius", CALLS),
    ("linalg.spectral_radius.busy_s", "linalg.spectral_radius", BUSY),
    ("theory.assemble_mean_dynamics.calls", "theory.assemble_mean_dynamics", CALLS),
    ("theory.assemble_mean_dynamics.busy_s", "theory.assemble_mean_dynamics", BUSY),
    ("theory.assemble_noise_moments.calls", "theory.assemble_noise_moments", CALLS),
    ("theory.assemble_noise_moments.busy_s", "theory.assemble_noise_moments", BUSY),
    ("theory.stability_report.busy_s", "theory.stability_report", BUSY),
    ("theory.step_size_bounds.busy_s", "theory.step_size_bounds", BUSY),
    ("theory.bias.calls", "theory.bias", CALLS),
    ("theory.bias.busy_s", "theory.bias", BUSY),
    ("theory.tracking_metrics.busy_s", "theory.tracking_metrics", BUSY),
    ("cli.load_scenario.busy_s", "cli.load_scenario", BUSY),
    ("network.validate.calls", "network.validate", CALLS),
    ("network.validate.busy_s", "network.validate", BUSY),
    ("combine.matrices_from_rules.calls", "combine.matrices_from_rules", CALLS),
    ("combine.matrices_from_rules.busy_s", "combine.matrices_from_rules", BUSY),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's src/ first on the path and make sure diffnet comes from it."""
    package = SRC / "diffnet" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a diffnet checkout")
    sys.path.insert(0, str(SRC))
    import diffnet

    if Path(diffnet.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: diffnet was imported from {diffnet.__file__}, not src/")


# ---------------------------------------------------------------------------
# timing


def run_op(argv, cli) -> tuple[float, int]:
    """Seconds taken and exit code of one in-process CLI command."""
    start = time.perf_counter()
    try:
        code = cli(argv)
    except Exception:  # a crashing command is a failed operation, not a failed benchmark
        traceback.print_exc()
        code = -1
    return time.perf_counter() - start, code


def timed_ops(argv, cli, budget: float, min_ops: int):
    """Repeat the operation until another one would overrun ``budget`` seconds."""
    times, codes = [], []
    start = time.perf_counter()
    while True:
        seconds, code = run_op(argv, cli)
        times.append(seconds)
        codes.append(code)
        elapsed = time.perf_counter() - start
        if len(times) >= min_ops and elapsed + statistics.median(times) > budget:
            return times, codes


def measure_setup(spec, probes: int) -> float:
    """Median cold set-up seconds over ``probes`` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)]
    values = []
    for _ in range(probes):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        values.append(float(done.stdout.split()[-1]))
    return statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metadata


def _blas() -> dict:
    """BLAS name and version from numpy, thread count from the loaded OpenBLAS."""
    import numpy as np

    info = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return info
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def metadata() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "diffnet_threads": os.environ.get("DIFFNET_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# traced run


def traced_run(prepared, cli, seconds: float, spans_mod):
    """Untraced and traced operations in turn, then one under tracemalloc.

    Alternating keeps drift in machine speed out of the tracing overhead.
    """
    import tracemalloc

    spans = spans_mod.Spans()
    plain, traced, codes, per_op, missing = [], [], [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        seconds_taken, code = run_op(prepared.argv, cli)
        plain.append(seconds_taken)
        codes.append(code)
        with spans_mod.installed(TRACE_TARGETS, spans.wrap, missing):
            seconds_taken, code = run_op(prepared.argv, cli)
        traced.append(seconds_taken)
        codes.append(code)
        per_op.append(spans.snapshot())
        spans.reset()
    peaks = spans_mod.AllocPeaks()
    tracemalloc.start()
    try:
        with spans_mod.installed(ALLOC_TARGETS, peaks.wrap, missing):
            _, probe_code = run_op(prepared.argv, cli)
    finally:
        tracemalloc.stop()
    codes.append(probe_code)

    def median(key, field):
        return statistics.median(op.get(key, (0, 0.0, 0.0))[field] for op in per_op)

    metrics = {name: median(key, field) for name, key, field in SPAN_METRICS}
    metrics["theory.solve.self_s"] = statistics.median(
        op.get("theory.solve", (0, 0.0, 0.0))[SELF]
        + op.get("theory.tracking_metrics", (0, 0.0, 0.0))[SELF] for op in per_op)
    metrics["simulate.peak_alloc_mb"] = peaks.peak_mb.get("simulate", 0.0)
    metrics["theory.peak_alloc_mb"] = peaks.peak_mb.get("theory", 0.0)
    metrics["tracing_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    missing = sorted(set(missing))
    metrics["trace.missing_names"] = len(missing)
    return metrics, codes, missing, len(traced)


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith("missing_names"):
        return "count"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def judge(prepared, codes, curves, workloads, faults):
    """Output checks, run outside the timed window; returns (faults, failed operations).

    An operation fails when it exits non-zero or its curves diverged, are
    not finite, or differ from the first operation's (all use one seed). The
    workload's own checks then run on the first operation's outputs, which
    every operation produced alike, so a fault there fails every operation.
    """
    per_op = prepared.sims_per_op
    first = curves[:per_op]
    failed = 0
    for i, code in enumerate(codes):
        mine = curves[i * per_op:(i + 1) * per_op]
        wrong = [fault for curve in mine for fault in workloads.curve_faults(curve)]
        if len(mine) != per_op or not all(map(workloads.same_curve, mine, first)):
            wrong.append(f"operation {i} output is missing or differs from operation 0's")
        if code:
            wrong.append(f"operation {i} exited {code}")
        faults = faults + wrong
        failed += bool(wrong)
    if not faults:
        try:
            faults = prepared.check(first)
        except (OSError, KeyError, ValueError) as exc:
            faults = [f"outputs could not be checked: {exc!r}"]
    return faults, failed or (len(codes) if faults else 0)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    os.environ["DIFFNET_THREADS"] = "1"
    sys.path.insert(0, str(HERE))
    import spans as spans_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    size = workloads.SIZES[args.workload]["smoke" if args.smoke else "full"]
    cli = workloads.cli

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        prepared = workloads.WORKLOADS[args.workload](Path(tmp), args.seed, size)
        if not args.trace:
            setup_s = measure_setup(prepared.setup_spec, 3 if args.smoke else SETUP_PROBES)

        curves = []

        def keep(_key, fn):
            def kept(*a, **kw):
                curve = fn(*a, **kw)
                curves.append(curve)
                return curve
            return kept

        faults = []
        with spans_mod.installed([("diffnet.cli", "run_monte_carlo", "keep")], keep, []):
            if run_op(prepared.warmup, cli)[1] != 0:
                faults.append("warm-up command failed")
            curves.clear()
            if args.trace:
                layer, codes, missing, samples = traced_run(
                    prepared, cli, args.seconds, spans_mod)
            else:
                times, codes = timed_ops(prepared.argv, cli, args.seconds, MIN_OPS)
                rss = peak_rss_mb()
                samples = len(times)

        faults, failed = judge(prepared, codes, curves, workloads, faults)

    if args.trace:
        useful = sum(c.runs - c.divergent_runs for c in curves)
        layer["simulate.useful_run_ratio"] = useful / max(sum(c.runs for c in curves), 1)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(layer.items())}
        extra = {"missing_trace_names": missing}
    else:
        wall = statistics.median(times)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
        extra = {"op_s": times}
        if prepared.node_iters:
            extra["node_iters_per_s"] = {"value": prepared.node_iters / wall, "unit": "1/s"}
    ops = len(codes)
    extra["failed_ops"] = {"value": failed / ops, "unit": "share"}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "samples": samples,
            "faults": faults, **extra, "metadata": metadata()}
    print(json.dumps(info))
    print(json.dumps({"correct": not faults, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
