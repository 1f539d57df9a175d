"""Command-line front end: scenario files in, curves and reports out.

A scenario is a JSON file naming a network (inline or a sibling file), the
combination-rule selectors for the three slots, and run settings. The four
subcommands: ``gen-scenario`` writes a preset network/scenario pair,
``simulate`` runs the Monte-Carlo engine and writes learning-curve CSVs,
``theory`` writes the closed-form report JSON, ``compare`` sweeps combination
rules on one network and ranks them.

Exit codes: 0 success, 2 configuration error, 3 numerical instability (or a
simulation whose every run diverged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .combine import matrices_from_rules
from .network import (
    NetworkModel,
    VarianceRanges,
    WeightTrajectory,
    _whole,
    load_network,
    network_from_dict,
    random_network,
    save_network,
    validate,
    validate_matrices,
)
from .simulate import (
    RngPolicy,
    SimulationOptions,
    _resolve_mode,
    curve_to_csv,
    run_monte_carlo,
    steady_state_level,
    trajectory_to_csv,
)
# network_metrics is unused here, but perfbench's trace list and test_cli's monkeypatch name it
from .theory import InstabilityError, network_metrics, theory_report

__all__ = ["ConfigError", "ScenarioConfig", "load_scenario", "main", "PRESETS"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


class ConfigError(Exception):
    """Bad scenario, network, or command arguments."""


# ---------------------------------------------------------------------------
# scenario files

SCENARIO_KEYS = ("name", "network", "rules", "runs", "iterations", "seed", "nu", "mode", "outputs")
RULE_SLOTS = ("a1", "c", "a2")
OUTPUT_DEFAULTS = {"curve": "curve.csv", "trajectory": None, "report": "report.json",
                "compare": "compare.csv"}


def _object(value, what: str, keys=None) -> dict:
    """``value`` if it is a JSON object with keys among ``keys``; else a ConfigError naming ``what``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r:.60}")
    if keys is not None:
        for key in value:
            if key not in keys:
                raise ConfigError(f"unknown {what} key {key!r}; expected one of {', '.join(keys)}")
    return value


@dataclass
class ScenarioConfig:
    name: str
    network: NetworkModel
    rules: dict
    runs: int = 50
    iterations: int = 3000
    seed: int = 0
    nu: float = 0.05
    mode: str | None = None
    outputs: dict = field(default_factory=dict)
    base_dir: Path = field(default_factory=Path.cwd)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}")
    _object(data, "scenario", SCENARIO_KEYS)
    rules = _object(data.get("rules", {}), "rules", RULE_SLOTS)
    outputs = _object(data.get("outputs", {}), "outputs", tuple(OUTPUT_DEFAULTS))
    for key, value in outputs.items():
        if not isinstance(value, str):
            raise ConfigError(f"outputs.{key} must be a file name, got {value!r}")

    base_dir = path.resolve().parent
    net_spec = data.get("network")
    if net_spec is None:
        raise ConfigError("scenario is missing the 'network' entry")
    try:
        if isinstance(net_spec, str):
            net_path = Path(net_spec)
            if not net_path.is_absolute():
                net_path = base_dir / net_path
            network = load_network(net_path)
        elif isinstance(net_spec, dict):
            network = network_from_dict(net_spec)
        else:
            raise ConfigError("'network' must be a file name or an inline object")
    except FileNotFoundError as exc:
        raise ConfigError(f"network file not found: {exc.filename}")
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad network description: {exc}")

    report = validate(network)
    if not report.ok:
        raise ConfigError(f"network failed validation:\n{report}")
    nu = data.get("nu", 0.05)
    if not isinstance(nu, float) or not 0.0 < nu < 1.0:
        raise ConfigError(f"forgetting factor nu must be a JSON number in (0, 1), got {nu!r}")

    try:
        network.weights.mode = _resolve_mode(network, data.get("mode"))
        cfg = ScenarioConfig(
            name=str(data.get("name", path.stem)),
            network=network,
            rules={slot: rules.get(slot, "identity") for slot in RULE_SLOTS},
            runs=_whole(data.get("runs", 50), "runs", least=1),
            iterations=_whole(data.get("iterations", 3000), "iterations", least=1),
            seed=_whole(data.get("seed", 0), "seed", least=0),
            nu=nu,
            mode=data.get("mode"),
            outputs=dict(outputs),
            base_dir=base_dir,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario field: {exc}")
    return cfg


def _build_matrices(scenario: ScenarioConfig):
    try:
        matrices, adaptive = matrices_from_rules(
            scenario.network, scenario.rules, base_dir=scenario.base_dir
        )
    except FileNotFoundError as exc:
        raise ConfigError(f"combination-matrix file not found: {exc.filename}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    report = validate_matrices(scenario.network.topology, matrices)
    if not report.ok:
        raise ConfigError(f"combination matrices failed validation:\n{report}")
    return matrices, adaptive


def _threads_from_env() -> int:
    raw = os.environ.get("DIFFNET_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"DIFFNET_THREADS must be an integer, got '{raw}'")
    if threads < 1:
        raise ConfigError("DIFFNET_THREADS must be at least 1")
    return threads


# ---------------------------------------------------------------------------
# presets


_NOISY_W0 = np.array([0.3750 + 2.0834j, 0.7174 + 1.4123j])
_TRACKING_W0 = np.array([1.0 + 1.0j, -1.0 - 1.0j])


def _noisy_exchange(seed: int, atc: bool):
    vr = VarianceRanges(
        sigma_u2=(0.5, 2.0),
        sigma_v2=(0.01, 0.1),
        sigma_w2=(5e-4, 2e-2),
        sigma_d2=(5e-4, 2e-2),
        sigma_u_link2=(5e-4, 2e-2),
        sigma_psi2=(5e-4, 2e-2),
        mu=(0.01, 0.01),
    )
    net = random_network(seed, n_nodes=20, m_dim=2, connectivity=0.25, variance_ranges=vr)
    net.weights = WeightTrajectory(mode="constant", w0=_NOISY_W0.copy())
    if atc:
        rules = {"a1": "identity", "c": "identity", "a2": "uniform"}
    else:
        rules = {"a1": "uniform", "c": "identity", "a2": "identity"}
    scen = {
        "rules": rules,
        "runs": 50,
        "iterations": 3000,
        "nu": 0.05,
        "outputs": {"curve": "curve.csv", "report": "report.json"},
    }
    return net, scen


def _tracking(seed: int, noise_db: float):
    vr = VarianceRanges(
        sigma_v2=(0.2, 1.8),
        mu=(0.01, 0.01),
        regressor_style="trace_normalized",
    )
    net = random_network(seed, n_nodes=20, m_dim=2, connectivity=0.25, variance_ranges=vr)
    target = 10.0 ** (noise_db / 10.0)
    net.nodes.sigma_v2 *= target / net.nodes.sigma_v2.mean()
    net.weights = WeightTrajectory(
        mode="rotation", w0=_TRACKING_W0.copy(), omega=2.0 * np.pi / 6000.0
    )
    scen = {
        "rules": {"a1": "identity", "c": "identity", "a2": "uniform"},
        "runs": 20,
        "iterations": 3000,
        "nu": 0.05,
        "outputs": {
            "curve": "curve.csv",
            "trajectory": "trajectory.csv",
            "report": "report.json",
        },
    }
    return net, scen


PRESETS = {
    "noisy_exchange_atc": lambda seed: _noisy_exchange(seed, atc=True),
    "noisy_exchange_cta": lambda seed: _noisy_exchange(seed, atc=False),
    "tracking_low_noise": lambda seed: _tracking(seed, noise_db=-5.0),
    "tracking_high_noise": lambda seed: _tracking(seed, noise_db=25.0),
}


# ---------------------------------------------------------------------------
# commands


def _out_dir(args, scenario: ScenarioConfig | None = None) -> Path:
    if getattr(args, "out", None):
        out = Path(args.out)
    elif scenario is not None:
        out = scenario.base_dir
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _output_paths(args, scenario: ScenarioConfig, keys) -> dict[str, Path]:
    """The checked file of each output in ``keys`` that has a name or a default."""
    out = _out_dir(args, scenario)
    paths = {}
    for key in keys:
        name = scenario.outputs.get(key, OUTPUT_DEFAULTS[key])
        if name is None:
            continue
        path = out / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"outputs.{key}: cannot create the directory of {path}: {exc}")
        if path.is_dir():
            raise ConfigError(f"outputs.{key} must name a file, got {name!r}")
        paths[key] = path
    return paths


def cmd_gen_scenario(args) -> int:
    out = _out_dir(args)
    network, scen = PRESETS[args.preset](args.seed)
    report = validate(network)
    if not report.ok:
        raise ConfigError(f"preset produced an invalid network:\n{report}")
    net_path = out / "network.json"
    save_network(network, net_path)
    scenario = {"name": args.preset, "network": "network.json", "seed": args.seed}
    scenario.update(scen)
    scen_path = out / "scenario.json"
    with open(scen_path, "w") as fh:
        json.dump(scenario, fh, indent=2)
        fh.write("\n")
    print(f"wrote {net_path}")
    print(f"wrote {scen_path}")
    print(f"nodes: {network.n_nodes}  links: {len(network.links)}  "
          f"target mode: {network.weights.mode}")
    return EXIT_OK


def _apply_overrides(scenario: ScenarioConfig, args) -> None:
    for flag, name, least in (("runs", "runs", 1), ("iters", "iterations", 1), ("seed", "seed", 0)):
        value = getattr(args, flag, None)
        if value is not None:
            if value < least:
                raise ConfigError(f"--{flag} must be at least {least}, got {value}")
            setattr(scenario, name, value)


def _simulate_curve(scenario: ScenarioConfig, matrices, adaptive: bool,
                    record_trajectory: bool):
    options = SimulationOptions(
        adaptive_slot="a2" if adaptive else None,
        nu=scenario.nu,
        record_trajectory=record_trajectory,
        threads=_threads_from_env(),
    )
    try:
        return run_monte_carlo(
            scenario.network, matrices, options,
            runs=scenario.runs, iterations=scenario.iterations,
            rng_policy=RngPolicy(scenario.seed),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _fmt_db(value) -> str:
    return "-" if value is None or not np.isfinite(value) else f"{value:.2f}"


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    _apply_overrides(scenario, args)
    matrices, adaptive = _build_matrices(scenario)
    paths = _output_paths(args, scenario, ("curve", "trajectory"))
    want_traj = "trajectory" in paths
    curve = _simulate_curve(scenario, matrices, adaptive, want_traj)

    curve_to_csv(curve, paths["curve"])
    print(f"wrote {paths['curve']}")
    if want_traj and curve.avg_estimate is not None:
        trajectory_to_csv(curve, paths["trajectory"])
        print(f"wrote {paths['trajectory']}")

    print(f"runs: {curve.runs}  divergent: {curve.divergent_runs}")
    if curve.divergent_runs == curve.runs:
        print("every run diverged; no averages available", file=sys.stderr)
        return EXIT_UNSTABLE
    tail_msd = 10.0 * np.log10(steady_state_level(curve.msd))
    tail_emse = 10.0 * np.log10(steady_state_level(curve.emse))
    print(f"final MSD: {_fmt_db(curve.msd_db[-1])} dB  "
          f"final EMSE: {_fmt_db(curve.emse_db[-1])} dB")
    print(f"trailing-average MSD: {_fmt_db(tail_msd)} dB  "
          f"EMSE: {_fmt_db(tail_emse)} dB")
    return EXIT_OK


def cmd_theory(args) -> int:
    scenario = load_scenario(args.config)
    matrices, adaptive = _build_matrices(scenario)
    if adaptive:
        raise ConfigError(
            "steady-state theory is undefined for the adaptive rule; "
            "use 'compare --simulate' to evaluate it"
        )
    report_path = _output_paths(args, scenario, ("report",))["report"]
    data = theory_report(scenario.network, matrices).to_dict()

    with open(report_path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {report_path}")

    print(f"rho(B): {data['rho_b']:.6f}  spectral bound: "
          f"{data['rho_spectral_bound']:.6f}  rho(F): {data['rho_f']:.6f}")
    print(f"MSD: {_fmt_db(data['msd_db'])} dB  EMSE: {_fmt_db(data['emse_db'])} dB")
    if "msd_track_db" in data:
        print(f"tracking MSD: {_fmt_db(data['msd_track_db'])} dB  "
              f"tracking EMSE: {_fmt_db(data['emse_track_db'])} dB")
    if data["bias_norm"] is not None:
        print(f"bias norm: {data['bias_norm']:.3e}")
    for warning in data["warnings"]:
        print(f"warning: {warning}")

    unstable = any(w.startswith(("mean-unstable", "mean-square-unstable"))
                   for w in data["warnings"])
    return EXIT_UNSTABLE if unstable else EXIT_OK


def _infer_sweep_slot(rules: dict) -> str:
    if rules.get("a1", "identity") == "identity":
        return "a2"
    if rules.get("a2", "identity") == "identity":
        return "a1"
    raise ConfigError(
        "cannot infer which combination slot to sweep: "
        "set either a1 or a2 to 'identity' in the scenario"
    )


def cmd_compare(args) -> int:
    scenario = load_scenario(args.config)
    _apply_overrides(scenario, args)
    rule_names = [r.strip() for r in args.rules.split(",") if r.strip()]
    if len(rule_names) < 2:
        raise ConfigError("compare needs at least two rules")
    slot = _infer_sweep_slot(scenario.rules)
    csv_path = _output_paths(args, scenario, ("compare",))["compare"]

    rows = []
    for rule in rule_names:
        trial = replace(scenario, rules={**scenario.rules, slot: rule}, outputs={})
        matrices, adaptive = _build_matrices(trial)
        theory_msd_db = theory_emse_db = None
        note = ""
        if adaptive:
            note = "theory undefined (adaptive)"
        else:
            data = theory_report(trial.network, matrices).to_dict()
            track = "_track" if trial.network.weights.mode == "random_walk" else ""
            theory_msd_db, theory_emse_db = data.get(f"msd{track}_db"), data.get(f"emse{track}_db")
            if theory_msd_db is None:
                note = "; ".join(data["warnings"])
        sim_msd_db = None
        divergent = None
        if args.simulate:
            curve = _simulate_curve(trial, matrices, adaptive, record_trajectory=False)
            divergent = curve.divergent_runs
            if curve.divergent_runs < curve.runs:
                sim_msd_db = 10.0 * np.log10(steady_state_level(curve.msd))
            else:
                note = (note + "; " if note else "") + "all runs diverged"
        rows.append({
            "rule": rule,
            "theory_msd_db": theory_msd_db,
            "theory_emse_db": theory_emse_db,
            "sim_msd_db": sim_msd_db,
            "divergent": divergent,
            "note": note,
        })

    def rank_key(row):
        if row["theory_msd_db"] is not None:
            return row["theory_msd_db"]
        if row["sim_msd_db"] is not None:
            return row["sim_msd_db"]
        return float("inf")

    rows.sort(key=rank_key)

    header = f"{'rule':<20} {'theory MSD':>12} {'theory EMSE':>12} {'sim MSD':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['rule']:<20} {_fmt_db(row['theory_msd_db']):>12} "
              f"{_fmt_db(row['theory_emse_db']):>12} {_fmt_db(row['sim_msd_db']):>10}"
              + (f"  {row['note']}" if row["note"] else ""))

    with open(csv_path, "w") as fh:
        fh.write("rule,theory_msd_db,theory_emse_db,sim_msd_db,divergent_runs\n")
        for row in rows:
            cells = [row["rule"]]
            for key in ("theory_msd_db", "theory_emse_db", "sim_msd_db"):
                cells.append("" if row[key] is None else repr(float(row[key])))
            cells.append("" if row["divergent"] is None else str(row["divergent"]))
            fh.write(",".join(cells) + "\n")
    print(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffnet",
        description="Diffusion adaptation over networks with noisy links: "
                    "Monte-Carlo simulation and closed-form steady-state analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenario", help="write a preset network/scenario pair")
    gen.add_argument("--preset", required=True, choices=sorted(PRESETS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None, help="output directory (default: cwd)")
    gen.set_defaults(func=cmd_gen_scenario)

    sim = sub.add_parser("simulate", help="run the Monte-Carlo engine on a scenario")
    sim.add_argument("--config", required=True)
    sim.add_argument("--runs", type=int, default=None)
    sim.add_argument("--iters", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out", default=None,
                     help="output directory (default: the scenario's directory)")
    sim.set_defaults(func=cmd_simulate)

    theo = sub.add_parser("theory", help="write the closed-form report for a scenario")
    theo.add_argument("--config", required=True)
    theo.add_argument("--out", default=None,
                      help="output directory (default: the scenario's directory)")
    theo.set_defaults(func=cmd_theory)

    comp = sub.add_parser("compare", help="rank combination rules on one network")
    comp.add_argument("--config", required=True)
    comp.add_argument("--rules", required=True,
                      help="comma-separated rule selectors (at least two)")
    comp.add_argument("--simulate", action="store_true",
                      help="add simulated steady-state MSD to the ranking")
    comp.add_argument("--runs", type=int, default=None)
    comp.add_argument("--iters", type=int, default=None)
    comp.add_argument("--seed", type=int, default=None)
    comp.add_argument("--out", default=None)
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
