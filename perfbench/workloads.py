"""Workloads of the diffnet benchmark: generated inputs, the timed command, checks.

Every input is generated from the benchmark seed into a scratch directory,
through ``gen-scenario`` or ``random_network`` + ``save_network``. One
operation is one ``diffnet`` CLI command. "Realizations" are the Monte-Carlo
runs inside one operation.

Why each workload exists and which modules it exercises:

sim_noisy_atc
    ``simulate`` on preset noisy_exchange_atc (N=20, M=2, noise on all four
    exchange paths, ATC). Kernel-bound: link-noise draws and the dense
    scatter einsums in ``diffusion_step``. Theory idle.
theory_n32
    ``theory`` on a random N=32, M=2 noisy-exchange network with a
    random-walk target: the largest direct Kronecker solve (NM=64, about
    800 MB peak) plus ``tracking_metrics``. Engine idle, so an engine change
    should leave it flat.
compare_cta
    ``compare --simulate`` over three static rules on preset
    noisy_exchange_cta: the only workload running both halves in one
    command, the CTA kernel path (A1 combine, estimate-noise draws), the
    non-uniform ``combine`` rules and ``theory.network_metrics``.

The work of an operation must not depend on the seed, or seeds would spread
the timings. So the presets are drawn until their network has exactly 98
directed links (the preset's seed-1 network), and the theory network has a
fixed size, which fixes the cost of its Kronecker solve.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from diffnet.cli import PRESETS, load_scenario
from diffnet.cli import main as cli_main
from diffnet.combine import matrices_from_rules
from diffnet.linalg import spectral_radius
from diffnet.network import VarianceRanges, WeightTrajectory, random_network, save_network
from diffnet.simulate import RngPolicy, SimulationOptions, run_monte_carlo, steady_state_level
from diffnet.theory import assemble_mean_dynamics, assemble_noise_moments, series_msd

PRESET_LINKS = 98
DB_GATE = 1.0  # simulated steady state within this many dB of theory
# The simulated level averages the whole settled curve: everything after
# TC_FACTOR slowest time constants 1/(1 - rho_b), and at least the trailing
# SETTLED_MIN of it (steady_state_level's default window). Over the last 20%
# alone, 8 realizations spread the compare_cta uniform and metropolis levels
# by 0.35 dB (sd over 38 seeds), so a +-1 dB gate failed about one check in
# two hundred on sampling noise; over the settled curve (about 1100 of 1500
# iterations) the sd is 0.15 dB.
TC_FACTOR = 5.0
SETTLED_MIN = 0.2
ORACLE_RTOL = 1e-7  # theory MSD against the series oracle
COMPARE_RULES = ("uniform", "metropolis", "relative_variance")
THEORY_RULES = {"a1": "identity", "c": "identity", "a2": "uniform"}
THEORY_RANGES = VarianceRanges(
    sigma_u2=(0.5, 2.0),
    sigma_v2=(0.01, 0.1),
    sigma_w2=(5e-4, 2e-2),
    sigma_d2=(5e-4, 2e-2),
    sigma_u_link2=(5e-4, 2e-2),
    sigma_psi2=(5e-4, 2e-2),
    mu=(0.01, 0.01),
)
R_ETA = 1e-5 * np.eye(2, dtype=complex)

# Iterations stay at 1500: with mu = 0.01 and regressor power >= 0.5,
# rho(B) <= 0.995, so the averaged tail (the last 300) starts after the five
# time constants steady_state_level requires. At 1000 iterations the
# relative_variance rule failed that on 6 of 17 compare_cta seeds.
SIZES = {
    "sim_noisy_atc": {"full": {"runs": 16, "iters": 1500}, "smoke": {"runs": 4, "iters": 1500}},
    "theory_n32": {"full": {"nodes": 32}, "smoke": {"nodes": 8}},
    "compare_cta": {"full": {"runs": 8, "iters": 1500}, "smoke": {"runs": 4, "iters": 1500}},
}


@dataclass
class Prepared:
    """A workload's inputs, laid out on disk, and what to do with them."""

    argv: list[str]  # the timed operation
    warmup: list[str]  # a cheap command on the same code path
    setup_spec: list  # [scenario path, rule overrides] pairs for setup_probe.py
    sims_per_op: int  # run_monte_carlo calls per operation
    node_iters: int  # realizations x iterations x nodes per operation
    check: Callable[[list], list[str]]  # the first operation's curves -> faults


def cli(argv: list[str]) -> int:
    """Run one CLI command in-process with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main(argv)


def _must(argv: list[str]) -> None:
    code = cli(argv)
    if code != 0:
        raise RuntimeError(f"diffnet {' '.join(argv)} exited {code}")


def _derived_seeds(seed: int, tag: str):
    gen = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    while True:
        yield int(gen.integers(2 ** 31))


def _preset_scenario(work: Path, preset: str, seed: int) -> Path:
    """gen-scenario on the first derived preset seed whose network has PRESET_LINKS links."""
    for tries, candidate in enumerate(_derived_seeds(seed, preset)):
        if len(PRESETS[preset](candidate)[0].links) == PRESET_LINKS:
            break
        if tries > 10_000:
            raise RuntimeError(f"no {preset} network with {PRESET_LINKS} links")
    out = work / preset
    _must(["gen-scenario", "--preset", preset, "--seed", str(candidate), "--out", str(out)])
    return out / "scenario.json"


def _write_theory_scenario(directory: Path, seed: int, nodes: int) -> Path:
    net = random_network(seed, nodes, 2, 0.25, THEORY_RANGES)
    net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0, r_eta=R_ETA)
    directory.mkdir(parents=True)
    save_network(net, directory / "network.json")
    scenario = {"name": directory.name, "network": "network.json", "rules": THEORY_RULES,
                "outputs": {"report": "report.json"}}
    path = directory / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# checks; each returns a list of faults, empty when the outputs are right


def curve_faults(curve) -> list[str]:
    faults = []
    if curve.divergent_runs:
        faults.append(f"{curve.divergent_runs} of {curve.runs} realizations diverged")
    if not (np.all(np.isfinite(curve.msd)) and np.all(np.isfinite(curve.emse))):
        faults.append("learning curve is not finite")
    return faults


def same_curve(a, b) -> bool:
    return np.array_equal(a.msd, b.msd) and np.array_equal(a.emse, b.emse)


def _settled_fraction(iters: int, rho_b: float) -> float:
    """Share of a curve after TC_FACTOR time constants, never under SETTLED_MIN."""
    if rho_b >= 1.0:
        return SETTLED_MIN  # steady_state_level reports the instability
    return max(SETTLED_MIN, (iters - math.ceil(TC_FACTOR / (1.0 - rho_b))) / iters)


def _against_theory(label: str, curve, rho_b: float, theory_db: float) -> list[str]:
    fraction = _settled_fraction(curve.iterations, rho_b)
    try:
        level = steady_state_level(curve.msd, rho_b=rho_b, fraction=fraction,
                                   tc_factor=TC_FACTOR)
    except ValueError as exc:
        return [f"{label}: {exc}"]
    gap = 10.0 * math.log10(level) - theory_db
    if abs(gap) > DB_GATE:
        return [f"{label}: simulated MSD is {gap:+.2f} dB from theory"]
    return []


def _bit_identity(scenario_path: Path, seed: int) -> list[str]:
    """A short slice run on 2 threads in chunks of 4 equals the 1-thread run."""
    sc = load_scenario(scenario_path)
    matrices, _ = matrices_from_rules(sc.network, sc.rules, base_dir=sc.base_dir)

    def run(threads, chunk):
        options = SimulationOptions(mode=sc.mode, nu=sc.nu, threads=threads, chunk_size=chunk)
        return run_monte_carlo(sc.network, matrices, options, runs=6, iterations=48,
                               rng_policy=RngPolicy(seed))

    if same_curve(run(1, 16), run(2, 4)):
        return []
    return [f"{scenario_path.parent.name}: 2-thread, 4-run-chunk slice differs "
            "from the 1-thread slice"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# workloads


def _sim_noisy_atc(work: Path, seed: int, size: dict) -> Prepared:
    scenario = _preset_scenario(work, "noisy_exchange_atc", seed)
    out = work / "out"
    runs, iters = size["runs"], size["iters"]
    common = ["simulate", "--config", str(scenario), "--seed", str(seed)]
    nodes = load_scenario(scenario).network.n_nodes

    def check(curves):
        curve = curves[0]
        faults = _bit_identity(scenario, seed)
        rows = _read_csv(out / "curve.csv")
        if not np.array_equal([float(r["msd_linear"]) for r in rows], curve.msd):
            faults.append("curve.csv does not hold the simulated curve")
        if any(r["divergent_runs"] != "0" for r in rows):
            faults.append("curve.csv reports divergent runs")
        _must(["theory", "--config", str(scenario), "--out", str(work / "check")])
        report = json.loads((work / "check" / "report.json").read_text())
        return faults + _against_theory("simulate", curve, report["rho_b"], report["msd_db"])

    return Prepared(argv=common + ["--runs", str(runs), "--iters", str(iters), "--out", str(out)],
                    warmup=common + ["--runs", "2", "--iters", "20", "--out", str(work / "warmup")],
                    setup_spec=[[str(scenario), []]], sims_per_op=1,
                    node_iters=runs * iters * nodes, check=check)


def _theory_n32(work: Path, seed: int, size: dict) -> Prepared:
    net_seed = next(_derived_seeds(seed, "theory"))
    scenario = _write_theory_scenario(work / "net", net_seed, size["nodes"])
    tiny = _write_theory_scenario(work / "tiny", net_seed, 4)
    out = work / "out"

    def check(_curves):
        report = json.loads((out / "report.json").read_text())
        faults = [f"theory warning: {w}" for w in report["warnings"]]
        if not math.isfinite(report.get("msd_track_db") or math.nan):
            faults.append("tracking MSD missing from the report")
        sc = load_scenario(scenario)
        matrices, _ = matrices_from_rules(sc.network, sc.rules, base_dir=sc.base_dir)
        md = assemble_mean_dynamics(sc.network, matrices)
        oracle, _ = series_msd(md, assemble_noise_moments(sc.network, matrices, md))
        msd = 10.0 ** (report["msd_db"] / 10.0)
        if abs(msd - oracle) > ORACLE_RTOL * oracle:
            faults.append(f"theory MSD {msd:.12e} disagrees with the series oracle {oracle:.12e}")
        return faults

    return Prepared(argv=["theory", "--config", str(scenario), "--out", str(out)],
                    warmup=["theory", "--config", str(tiny), "--out", str(work / "warmup")],
                    setup_spec=[[str(scenario), []]], sims_per_op=0, node_iters=0, check=check)


def _compare_cta(work: Path, seed: int, size: dict) -> Prepared:
    scenario = _preset_scenario(work, "noisy_exchange_cta", seed)
    out = work / "out"
    runs, iters = size["runs"], size["iters"]
    common = ["compare", "--config", str(scenario), "--rules", ",".join(COMPARE_RULES),
              "--simulate", "--seed", str(seed)]
    # the CTA preset combines in A1 and keeps A2 identity, so compare sweeps A1
    overrides = [{"a1": rule} for rule in COMPARE_RULES]
    sc = load_scenario(scenario)

    def check(curves):
        rows = {r["rule"]: r for r in _read_csv(out / "compare.csv")}
        faults = _bit_identity(scenario, seed)
        for override, curve in zip(overrides, curves):
            rule = override["a1"]
            row = rows[rule]
            matrices, _ = matrices_from_rules(sc.network, {**sc.rules, **override},
                                              base_dir=sc.base_dir)
            rho_b = spectral_radius(assemble_mean_dynamics(sc.network, matrices).b)
            faults += _against_theory(f"compare {rule}", curve, rho_b,
                                      float(row["theory_msd_db"]))
            tail_db = 10.0 * math.log10(steady_state_level(curve.msd))
            if row["divergent_runs"] != "0" or not math.isclose(
                    float(row["sim_msd_db"]), tail_db, rel_tol=0.0, abs_tol=1e-9):
                faults.append(f"compare.csv row for {rule} does not match the simulation")
        return faults

    return Prepared(argv=common + ["--runs", str(runs), "--iters", str(iters), "--out", str(out)],
                    warmup=common + ["--runs", "2", "--iters", "20", "--out", str(work / "warmup")],
                    setup_spec=[[str(scenario), overrides]],
                    sims_per_op=len(COMPARE_RULES),
                    node_iters=len(COMPARE_RULES) * runs * iters * sc.network.n_nodes,
                    check=check)


WORKLOADS = {
    "sim_noisy_atc": _sim_noisy_atc,
    "theory_n32": _theory_n32,
    "compare_cta": _compare_cta,
}
