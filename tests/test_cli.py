import csv
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import diffnet
from diffnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSTABLE, PRESETS, main
from diffnet.combine import uniform
from diffnet.network import (
    LinkNoiseProfile,
    NetworkModel,
    NodeProfile,
    Topology,
    VarianceRanges,
    WeightTrajectory,
    load_network,
    random_network,
    save_network,
    validate,
)
from reference import crandn_pairs

NOISY_RANGES = VarianceRanges(
    sigma_u2=(0.5, 2.0),
    sigma_v2=(0.01, 0.1),
    sigma_w2=(1e-3, 2e-2),
    sigma_d2=(1e-3, 2e-2),
    sigma_u_link2=(1e-3, 2e-2),
    sigma_psi2=(1e-3, 2e-2),
)


def scalar_network(mu=0.01, sigma_v2=1.0):
    return NetworkModel(
        topology=Topology.from_edges(1, []),
        nodes=NodeProfile(m_dim=1, r_u=np.array([[[1.0]]], dtype=complex),
                          sigma_v2=np.array([sigma_v2]), mu=np.array([mu])),
        link_noise=LinkNoiseProfile.zeros(0, 1),
        weights=WeightTrajectory(mode="constant", w0=np.array([1.0 + 0j])),
    )


def write_scenario(dir_path, network, **fields):
    save_network(network, dir_path / "net.json")
    scen = {"network": "net.json"}
    scen.update(fields)
    path = dir_path / "scenario.json"
    with open(path, "w") as fh:
        json.dump(scen, fh)
    return path


class TestGenScenario:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_emit_valid_pairs(self, preset, tmp_path):
        out = tmp_path / preset
        assert main(["gen-scenario", "--preset", preset, "--out", str(out)]) == EXIT_OK
        net = load_network(out / "network.json")
        assert validate(net).ok
        assert net.n_nodes == 20
        scen = json.loads((out / "scenario.json").read_text())
        assert scen["network"] == "network.json"
        assert set(scen["rules"]) == {"a1", "c", "a2"}

    def test_generation_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-scenario", "--preset", "noisy_exchange_atc",
                         "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert (a / "network.json").read_bytes() == (b / "network.json").read_bytes()
        assert (a / "scenario.json").read_bytes() == (b / "scenario.json").read_bytes()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_output_matches_two_draw_sampler(self, preset, tmp_path, monkeypatch):
        """random_network draws through crandn; the [re, im] pair oracle writes the same files."""
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-scenario", "--preset", preset, "--seed", "1", "--out", str(a)]) == EXIT_OK
        monkeypatch.setattr("diffnet.network.crandn", crandn_pairs)
        assert main(["gen-scenario", "--preset", preset, "--seed", "1", "--out", str(b)]) == EXIT_OK
        for name in ("network.json", "scenario.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_the_network(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-scenario", "--preset", "noisy_exchange_atc", "--seed", "1",
              "--out", str(a)])
        main(["gen-scenario", "--preset", "noisy_exchange_atc", "--seed", "2",
              "--out", str(b)])
        assert (a / "network.json").read_bytes() != (b / "network.json").read_bytes()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-scenario", "--preset", "noisy_exchange_atc", "--seed", "-1",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_generated_scenario_simulates(self, tmp_path):
        out = tmp_path / "s"
        main(["gen-scenario", "--preset", "noisy_exchange_atc", "--out", str(out)])
        code = main(["simulate", "--config", str(out / "scenario.json"),
                     "--runs", "2", "--iters", "50", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "curve.csv").exists()


class TestSimulate:
    def test_low_noise_scenario_reaches_deep_floor(self, tmp_path):
        net = scalar_network(mu=0.3, sigma_v2=1e-6)
        cfg = write_scenario(tmp_path, net, runs=2, iterations=400, seed=1,
                             outputs={"curve": "curve.csv"})
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        assert float(rows[-1]["msd_db"]) < -60.0
        assert int(rows[-1]["divergent_runs"]) == 0

    def test_trajectory_output_when_requested(self, tmp_path):
        net = random_network(2, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="rotation", w0=net.weights.w0,
                                       omega=2.0 * np.pi / 500.0)
        cfg = write_scenario(tmp_path, net, runs=2, iterations=60,
                             rules={"a1": "identity", "c": "identity",
                                    "a2": "uniform"},
                             outputs={"curve": "c.csv", "trajectory": "t.csv"})
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        with open(tmp_path / "t.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert "est_re_1" in rows[0] and "true_im_2" in rows[0]

    @pytest.mark.parametrize("iters", [1, 2, 3, 4])
    def test_short_run_reports_finite_levels(self, iters, tmp_path, capsys):
        """A curve of one to four iterations averages at least its last iteration."""
        main(["gen-scenario", "--preset", "noisy_exchange_atc", "--out", str(tmp_path)])
        cfg = str(tmp_path / "scenario.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--runs", "2",
                         "--iters", str(iters)]) == EXIT_OK
            assert main(["compare", "--config", cfg, "--rules", "uniform,metropolis",
                         "--simulate", "--runs", "2", "--iters", str(iters)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "trailing-average MSD: -" not in out and "EMSE: -" not in out
        assert "nan" not in (tmp_path / "compare.csv").read_text()
        rows = read_compare(tmp_path / "compare.csv").values()
        assert all(math.isfinite(float(row["sim_msd_db"])) for row in rows)

    def test_error_that_reaches_zero_reports_minus_infinity(self, tmp_path, capsys):
        """A noiseless node with mu = 1 drives its error to exactly 0; the levels print
        as "-" with no warning."""
        cfg = write_scenario(tmp_path, scalar_network(mu=1.0, sigma_v2=0.0), runs=4,
                             iterations=4000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
            assert main(["compare", "--config", str(cfg), "--rules", "uniform,metropolis",
                         "--simulate"]) == EXIT_OK
        assert "trailing-average MSD: - dB  EMSE: - dB" in capsys.readouterr().out
        rows = read_compare(tmp_path / "compare.csv").values()
        assert [row["sim_msd_db"] for row in rows] == ["-inf", "-inf"]

    def test_zero_iterations_is_config_error(self, tmp_path):
        cfg = write_scenario(tmp_path, scalar_network(), runs=2, iterations=50)
        assert main(["simulate", "--config", str(cfg), "--iters", "0"]) == EXIT_CONFIG

    def test_all_divergent_reports_unstable(self, tmp_path):
        cfg = write_scenario(tmp_path, scalar_network(mu=25.0), runs=2,
                             iterations=200)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_UNSTABLE

    def test_missing_scenario_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "no.json")]) == EXIT_CONFIG

    def test_directory_as_scenario_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path)]) == EXIT_CONFIG
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_malformed_scenario_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("field", ["mu", "sigma_v2"])
    def test_nan_literal_in_network_file_is_config_error(self, field, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        data["nodes"][0][field] = "__BAD__"
        (tmp_path / "net.json").write_text(json.dumps(data).replace('"__BAD__"', "NaN"))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"{field} is not finite" in capsys.readouterr().err

    def test_scenario_without_network_entry(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"runs": 2}))
        assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG

    def test_unknown_rule_is_config_error(self, tmp_path):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10,
                             rules={"a2": "no_such_rule"})
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        net = random_network(5, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=40, iterations=80, seed=7,
                             rules={"a1": "identity", "c": "identity",
                                    "a2": "uniform"})
        one, two = tmp_path / "one", tmp_path / "two"
        monkeypatch.setenv("DIFFNET_THREADS", "1")
        assert main(["simulate", "--config", str(cfg), "--out", str(one)]) == EXIT_OK
        monkeypatch.setenv("DIFFNET_THREADS", "2")
        assert main(["simulate", "--config", str(cfg), "--out", str(two)]) == EXIT_OK
        assert (one / "curve.csv").read_bytes() == (two / "curve.csv").read_bytes()

    def test_nan_forgetting_factor_is_config_error(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, random_network(3, 4, 2, 0.6, NOISY_RANGES),
                             runs=2, iterations=50, nu=float("nan"),
                             rules={"a2": "adaptive"})
        assert "NaN" in cfg.read_text()
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "forgetting factor nu" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["edge", "n_nodes"])
    def test_fractional_node_index_is_config_error(self, field, tmp_path, capsys):
        cfg = write_scenario(tmp_path, random_network(3, 4, 2, 0.6, NOISY_RANGES),
                             runs=1, iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        if field == "edge":
            data["edges"].append([1.7, 2])
        else:
            data["n_nodes"] = 4.9
        (tmp_path / "net.json").write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert ("edge [1.7, 2]" if field == "edge" else "n_nodes must be a whole number") in err

    @pytest.mark.parametrize("field, value, message", [
        ("runs", 2.7, "runs must be a whole number, got 2.7"),
        ("iterations", 20.9, "iterations must be a whole number, got 20.9"),
        ("seed", 1.5, "seed must be a whole number, got 1.5"),
        ("runs", 0, "runs must be at least 1, got 0"),
        ("iterations", -5, "iterations must be at least 1, got -5"),
        ("seed", -1, "seed must be at least 0, got -1"),
    ])
    def test_bad_run_setting_is_config_error(self, field, value, message, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), **{"runs": 1, "iterations": 10,
                                                           field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--iters", "-1"), ("--seed", "-1")])
    def test_bad_run_override_is_config_error(self, flag, value, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10)
        assert main(["simulate", "--config", str(cfg), flag, value]) == EXIT_CONFIG
        assert f"{flag} must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_env_is_config_error(self, value, tmp_path, monkeypatch):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10)
        monkeypatch.setenv("DIFFNET_THREADS", value)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["compare", "--rules", "uniform,metropolis", "--simulate"]])
    def test_run_that_cannot_fit_in_memory_is_config_error(self, command, tmp_path, capsys,
                                                           monkeypatch):
        import diffnet.cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB")

        monkeypatch.setattr(diffnet.cli, "run_monte_carlo", out_of_memory)
        cfg = write_scenario(tmp_path, random_network(2, 4, 2, 0.6, NOISY_RANGES), runs=3,
                             iterations=10 ** 12,
                             rules={"a1": "identity", "c": "identity", "a2": "uniform"})
        assert main(command + ["--config", str(cfg)]) == EXIT_CONFIG
        assert "runs = 3 and iterations = 1000000000000" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_runs_that_cannot_be_held_exit_before_the_first_chunk(self, threads, tmp_path):
        """The (runs, iterations) curves, 71 PiB here, are refused before any chunk runs."""
        main(["gen-scenario", "--preset", "noisy_exchange_atc", "--out", str(tmp_path)])
        src = str(Path(diffnet.__file__).resolve().parents[1])
        env = dict(os.environ, DIFFNET_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def cap_memory():  # a run that does start chunks must not take the machine's memory
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

        out = subprocess.run(
            [sys.executable, "-m", "diffnet.cli", "simulate", "--config",
             str(tmp_path / "scenario.json"), "--runs", str(10 ** 15), "--iters", "10"],
            capture_output=True, text=True, env=env, timeout=20, preexec_fn=cap_memory)
        assert out.returncode == EXIT_CONFIG
        assert (f"runs = {10 ** 15} and iterations = 10 need more memory than is available"
                in out.stderr)
        assert not (tmp_path / "curve.csv").exists()


class TestScenarioSchema:
    @pytest.mark.parametrize("field, value, message", [
        ("runs", True, "runs must be a whole number, got True"),
        ("iterations", "12", "iterations must be a whole number, got '12'"),
        ("seed", False, "seed must be a whole number, got False"),
    ])
    def test_boolean_or_string_run_setting_is_config_error(self, field, value, message,
                                                           tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), **{"runs": 1, "iterations": 10,
                                                           field: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("where, value, message", [
        ("n_nodes", "4", "n_nodes must be a whole number, got '4'"),
        ("m_dim", True, "m_dim must be a whole number, got True"),
        ("edge", True, "edge [True, 2] endpoint must be a whole number"),
        ("link", "2", "link entry 2->1 endpoint must be a whole number"),
    ])
    def test_boolean_or_string_network_index_is_config_error(self, where, value, message,
                                                             tmp_path, capsys):
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        if where == "edge":
            data["edges"].append([value, 2])
        elif where == "link":
            data["links"][0].update({"from": value, "to": 1})
        else:
            data[where] = value
        (tmp_path / "net.json").write_text(json.dumps(data))
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("where, field, value, message", [
        ("node", "mu", "0.02", "node 1 mu must be a number, got '0.02'"),
        ("node", "mu", True, "node 1 mu must be a number, got True"),
        ("node", "sigma_v2", [0.1], "node 1 sigma_v2 must be a number"),
        ("node", "r_u", [[1.0]] * 4, "node 1 r_u must be 4 [re, im] pairs of numbers"),
        ("node", "r_u", [[1.0, 0.0]] * 3, "node 1 r_u must be 4 [re, im] pairs of numbers"),
        ("node", "r_u", [[1.0, "0"]] * 4, "node 1 r_u must be 4 [re, im] pairs of numbers"),
        ("node", "r_u", [[1.0, False]] * 4, "node 1 r_u must be 4 [re, im] pairs of numbers"),
        ("link", "sigma_d2", False, "sigma_d2 must be a number, got False"),
        ("link", "r_psi", 0.0, "r_psi must be 4 [re, im] pairs of numbers, got 0.0"),
        ("weights", "w0", [[1.0], [0.0, 1.0]], "weights.w0 must be 2 [re, im] pairs of numbers"),
        ("weights", "omega", "0.01", "weights.omega must be a number, got '0.01'"),
    ], ids=["mu-string", "mu-boolean", "sigma_v2-list", "r_u-short-pair", "r_u-too-few",
            "r_u-string-part", "r_u-boolean-part", "sigma_d2-boolean", "r_psi-number",
            "w0-short-pair", "omega-string"])
    def test_network_value_of_the_wrong_kind_is_config_error(self, where, field, value,
                                                             message, tmp_path, capsys):
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        entry = {"node": data["nodes"][0], "link": data["links"][0],
                 "weights": data["weights"]}[where]
        entry[field] = value
        (tmp_path / "net.json").write_text(json.dumps(data))
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("rules, message", [
        ({"A2": "uniform"}, "unknown rules key 'A2'"),
        (["a2"], "rules must be a JSON object"),
        ("uniform", "rules must be a JSON object"),
    ])
    def test_malformed_rules_are_config_error(self, rules, message, tmp_path, capsys):
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10, rules=rules)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    def test_unknown_scenario_key_is_config_error(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iteration=10)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "unknown scenario key 'iteration'" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("command, output", [("simulate", "curve"), ("theory", "report")])
    def test_non_string_output_name_is_config_error(self, command, output, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10,
                             outputs={output: 5})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert f"outputs.{output} must be a file name, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command, outputs, key", [
        (["simulate"], {"curve": ""}, "curve"),
        (["simulate"], {"trajectory": "taken"}, "trajectory"),
        (["theory"], {"report": "taken"}, "report"),
        (["compare", "--rules", "uniform,metropolis", "--simulate"], {"compare": ""}, "compare"),
        (["theory"], {"curves": "c.csv"}, "curves"),
    ])
    def test_unusable_output_name_is_config_error_before_any_work(
            self, command, outputs, key, tmp_path, capsys, monkeypatch):
        import diffnet.cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its output paths")

        for name in ("run_monte_carlo", "theory_report", "network_metrics"):
            monkeypatch.setattr(diffnet.cli, name, no_work)
        (tmp_path / "taken").mkdir()
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10, outputs=outputs)
        assert main(command + ["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (f"outputs key '{key}'" if key == "curves" else f"outputs.{key}") in err

    @pytest.mark.parametrize("trajectory", ["c.csv", "./c.csv", "sub/../c.csv"])
    def test_two_outputs_naming_one_file_is_config_error_before_any_work(
            self, trajectory, tmp_path, capsys, monkeypatch):
        import diffnet.cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its output paths")

        monkeypatch.setattr(diffnet.cli, "run_monte_carlo", no_work)
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10,
                             outputs={"curve": "c.csv", "trajectory": trajectory})
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "outputs.curve and outputs.trajectory both name" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command, key", [
        (["simulate"], "curve"), (["simulate"], "trajectory"), (["theory"], "report"),
        (["compare", "--rules", "uniform,metropolis", "--simulate"], "compare")])
    @pytest.mark.parametrize("name, what", [
        ("scenario.json", "the scenario file"), ("./net.json", "network"),
        ("sub/../a2.json", "rules.a2 file:a2.json")], ids=["scenario", "network", "matrix"])
    def test_output_naming_an_input_is_config_error_before_any_work(
            self, command, key, name, what, tmp_path, capsys, monkeypatch):
        import diffnet.cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its output paths")

        for work in ("run_monte_carlo", "theory_report"):
            monkeypatch.setattr(diffnet.cli, work, no_work)
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        (tmp_path / "a2.json").write_text(json.dumps(uniform(net.topology).tolist()))
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             rules={"a1": "identity", "a2": "file:a2.json"},
                             outputs={key: name})
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(command + ["--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        target = (tmp_path / name).resolve()
        assert f"outputs.{key} and {what} both name {target}" in err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_compare_rule_file_is_an_input(self, tmp_path, capsys):
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        (tmp_path / "a2.json").write_text(json.dumps(uniform(net.topology).tolist()))
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             outputs={"compare": "a2.json"})
        argv = ["compare", "--config", str(cfg), "--rules", "uniform, file:a2.json"]
        assert main(argv) == EXIT_CONFIG
        assert "outputs.compare and --rules file:a2.json both name" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["gen-scenario", "--preset", "noisy_exchange_atc"],
                                         ["simulate"], ["theory"],
                                         ["compare", "--rules", "uniform,metropolis"]],
                             ids=["gen-scenario", "simulate", "theory", "compare"])
    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_through_a_file_is_config_error(self, command, out, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10)
        (tmp_path / "taken").write_text("")
        config = [] if command[0] == "gen-scenario" else ["--config", str(cfg)]
        assert main(command + config + ["--out", str(tmp_path / out)]) == EXIT_CONFIG
        assert "--out must name a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, outputs", [
        (["simulate"], {"curve": "sub/c.csv", "trajectory": "sub/deeper/t.csv"}),
        (["theory"], {"report": "sub/r.json"}),
        (["compare", "--rules", "uniform,metropolis"], {"compare": "sub/c.csv"}),
    ])
    def test_missing_output_directories_are_created(self, command, outputs, tmp_path):
        net = scalar_network()
        net.weights = WeightTrajectory(mode="rotation", w0=net.weights.w0, omega=0.01)
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10, outputs=outputs)
        assert main(command + ["--config", str(cfg)]) == EXIT_OK
        for name in outputs.values():
            assert (tmp_path / name).is_file()

    @pytest.mark.parametrize("command", [["theory"], ["compare", "--rules", "uniform,metropolis"]])
    @pytest.mark.parametrize("mode, message", [
        ("spiral", "unknown simulation mode 'spiral'"),
        ("random_walk", "random_walk mode requires the network to carry r_eta"),
        ("rotation", "rotation mode requires the network to carry omega"),
    ])
    def test_mode_the_network_cannot_run_is_config_error(self, command, mode, message,
                                                         tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10, mode=mode)
        assert main(command + ["--config", str(cfg)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("nu", ["0.05", True, 1.0, 0, -0.5, float("inf")])
    def test_forgetting_factor_is_read_by_kind_and_range(self, nu, tmp_path, capsys):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10, nu=nu)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "forgetting factor nu" in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "theory"])
    @pytest.mark.parametrize("entry, message", [
        (lambda value: float("nan"), "A2 is not finite"),
        (repr, "must hold a JSON array of rows of numbers"),
        (lambda value: value == 1.0, "must hold a JSON array of rows of numbers"),
    ], ids=["nan", "string", "boolean"])
    def test_bad_combination_matrix_file_is_config_error(self, command, entry, message,
                                                         tmp_path, capsys):
        """The string and the boolean would convert to the very weight they replace."""
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        a2 = np.eye(4).tolist()
        a2[0][0] = entry(a2[0][0])
        (tmp_path / "a2.json").write_text(json.dumps(a2))
        cfg = write_scenario(tmp_path, net, runs=2, iterations=20,
                             rules={"a2": "file:a2.json"})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in ("curve.csv", "report.json"))

    @pytest.mark.parametrize("where, key, value, message", [
        ("network", "comment", "x", "unknown network key 'comment'; expected one of "
                                    "n_nodes, m_dim, edges, nodes, links, weights"),
        ("node", "sigma_v", 0.1, "unknown node 3 key 'sigma_v'; expected one of mu, sigma_v2, r_u"),
        ("link", "r_x", 0.0, "unknown link entry #1 key 'r_x'; expected one of "
                             "from, to, r_w, sigma_d2, r_u_link, r_psi"),
        ("weights", "omgea", 0.1, "unknown weights key 'omgea'; expected one of "
                                  "mode, w0, r_eta, omega"),
        ("network", "edges", None, "network is missing 'edges'"),
        ("node", "mu", None, "node 3 is missing 'mu'"),
        ("link", "r_psi", None, "link entry {from}->{to} is missing 'r_psi'"),
        ("link", "from", None, "link entry #1 is missing 'from'"),
        ("weights", "w0", None, "weights is missing 'w0'"),
        ("weights", "r_eta", None, "weights is missing 'r_eta'"),
    ], ids=["unknown-top", "unknown-node", "unknown-link", "unknown-weights", "missing-top",
            "missing-node", "missing-link-field", "missing-link-end", "missing-w0",
            "missing-r_eta"])
    def test_unknown_or_missing_network_key_is_config_error(self, where, key, value, message,
                                                            tmp_path, capsys):
        """``value`` None deletes ``key``; any other value adds it."""
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-4 * np.eye(2, dtype=complex))
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        entry = {"network": data, "node": data["nodes"][2], "link": data["links"][0],
                 "weights": data["weights"]}[where]
        if value is None:
            del entry[key]
        else:
            entry[key] = value
        (tmp_path / "net.json").write_text(json.dumps(data))
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message.format(**data["links"][0]) in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("nodes", 3, "nodes must be a list of node entries, got 3"),
        ("edges", 5, "edges must be a list of [from, to] pairs, got 5"),
        ("links", 7, "links must be a list of link entries, got 7"),
        ("edges", [[1, 2, 3]], "edges must be a list of [from, to] pairs, got [1, 2, 3]"),
    ], ids=["nodes-number", "edges-number", "links-number", "edge-triple"])
    def test_network_list_of_the_wrong_shape_names_the_field(self, key, value, message,
                                                             tmp_path, capsys):
        cfg = write_scenario(tmp_path, random_network(3, 4, 2, 0.6, NOISY_RANGES), runs=1,
                             iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        data[key] = value
        (tmp_path / "net.json").write_text(json.dumps(data))
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_node_count_is_checked_before_the_topology_is_built(self, tmp_path, capsys,
                                                                monkeypatch):
        """A million-node adjacency would take 931 GiB; the four node entries refute it first."""
        cfg = write_scenario(tmp_path, random_network(3, 4, 2, 0.6, NOISY_RANGES), runs=1,
                             iterations=10)
        data = json.loads((tmp_path / "net.json").read_text())
        data["n_nodes"] = 1_000_000
        (tmp_path / "net.json").write_text(json.dumps(data))

        def refuse(n_nodes, edges):
            raise AssertionError(f"built the adjacency of {n_nodes} nodes")

        monkeypatch.setattr(Topology, "from_edges", refuse)
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "expected 1000000 node entries, got 4" in capsys.readouterr().err

    def test_absolute_network_path_is_not_joined_to_the_scenario_directory(self, tmp_path):
        save_network(random_network(3, 4, 2, 0.6, NOISY_RANGES), tmp_path / "net.json")
        cfg = tmp_path / "elsewhere" / "scenario.json"
        cfg.parent.mkdir()
        cfg.write_text(json.dumps({"network": str(tmp_path / "net.json")}))
        assert main(["theory", "--config", str(cfg)]) == EXIT_OK
        assert (cfg.parent / "report.json").exists()

    @pytest.mark.parametrize("field, value", [("network", ""), ("rules", {"a2": "file:"})])
    def test_directory_named_as_an_input_file_is_config_error(self, field, value, tmp_path,
                                                              capsys):
        cfg = write_scenario(tmp_path, random_network(3, 4, 2, 0.6, NOISY_RANGES), runs=1,
                             iterations=10)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "Is a directory" in capsys.readouterr().err


class TestTheory:
    def test_scalar_report_values(self, tmp_path):
        cfg = write_scenario(tmp_path, scalar_network(mu=0.01), runs=1,
                             iterations=10, outputs={"report": "report.json"})
        assert main(["theory", "--config", str(cfg)]) == EXIT_OK
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["rho_b"] == pytest.approx(0.99, abs=1e-12)
        expected = 10.0 * math.log10(0.01 ** 2 / (1.0 - 0.99 ** 2))
        assert data["msd_db"] == pytest.approx(expected, abs=1e-9)
        assert data["warnings"] == []
        assert data["mu_bounds"][0]["bound_tight"] == pytest.approx(2.0)

    def test_unstable_scenario_exits_3_but_writes_report(self, tmp_path):
        cfg = write_scenario(tmp_path, scalar_network(mu=5.0), runs=1,
                             iterations=10, outputs={"report": "report.json"})
        assert main(["theory", "--config", str(cfg)]) == EXIT_UNSTABLE
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["msd_db"] is None
        assert any(w.startswith("mean-unstable") for w in data["warnings"])

    def test_adaptive_rule_rejected(self, tmp_path):
        net = random_network(3, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             rules={"a2": "adaptive"})
        assert main(["theory", "--config", str(cfg)]) == EXIT_CONFIG

    def test_edge_outside_the_network_is_config_error(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path, random_network(3, 4, 2, 0.6, NOISY_RANGES))
        data = json.loads((tmp_path / "net.json").read_text())
        data["edges"].append([5, 2])
        (tmp_path / "net.json").write_text(json.dumps(data))
        assert main(["theory", "--config", str(cfg)]) == EXIT_CONFIG
        assert "edge [5, 2]" in capsys.readouterr().err

    def test_tracking_report_for_random_walk_target(self, tmp_path):
        net = random_network(6, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-5 * np.eye(2, dtype=complex))
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             rules={"a2": "uniform"})
        assert main(["theory", "--config", str(cfg)]) == EXIT_OK
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["msd_track_db"] > data["msd_db"]

    def test_forced_stationary_mode_drops_tracking_figures(self, tmp_path, capsys):
        net = random_network(6, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-5 * np.eye(2, dtype=complex))
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             rules={"a2": "uniform"}, mode="stationary")
        assert main(["theory", "--config", str(cfg)]) == EXIT_OK
        data = json.loads((tmp_path / "report.json").read_text())
        assert "msd_track_db" not in data and "emse_track_db" not in data
        assert "tracking MSD" not in capsys.readouterr().out

    def test_forced_random_walk_mode_adds_tracking_figures(self, tmp_path, capsys):
        net = random_network(6, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="constant", w0=net.weights.w0,
                                       r_eta=1e-5 * np.eye(2, dtype=complex))
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             rules={"a2": "uniform"}, mode="random_walk")
        assert main(["theory", "--config", str(cfg)]) == EXIT_OK
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["msd_track_db"] > data["msd_db"]
        assert "emse_track_db" in data
        assert "tracking MSD" in capsys.readouterr().out

    def test_rotating_target_reports_no_steady_state_figures(self, tmp_path, capsys):
        net = random_network(6, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="rotation", w0=net.weights.w0, omega=0.01)
        cfg = write_scenario(tmp_path, net, rules={"a2": "uniform"})
        assert main(["theory", "--config", str(cfg)]) == EXIT_OK
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["msd_db"] is None and data["emse_db"] is None
        assert any("'rotation'" in w for w in data["warnings"])
        assert "'rotation'" in capsys.readouterr().out


def read_compare(path) -> dict:
    with open(path, newline="") as fh:
        return {row["rule"]: row for row in csv.DictReader(fh)}


class TestCompare:
    def test_rules_ranked_by_theory(self, tmp_path):
        net = random_network(9, 6, 2, 0.5, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=2, iterations=50,
                             rules={"a1": "identity", "c": "identity"})
        code = main(["compare", "--config", str(cfg),
                     "--rules", "uniform,metropolis,relative_variance"])
        assert code == EXIT_OK
        with open(tmp_path / "compare.csv") as fh:
            header = fh.readline().strip()
            rows = [line.strip().split(",") for line in fh]
        assert header == "rule,theory_msd_db,theory_emse_db,sim_msd_db,divergent_runs"
        assert len(rows) == 3
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)

    def test_simulate_flag_adds_measured_column(self, tmp_path):
        net = random_network(10, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=4, iterations=300, seed=2,
                             rules={"a1": "identity", "c": "identity"})
        code = main(["compare", "--config", str(cfg),
                     "--rules", "uniform,adaptive", "--simulate"])
        assert code == EXIT_OK
        with open(tmp_path / "compare.csv") as fh:
            next(fh)
            rows = {line.split(",")[0]: line.strip().split(",") for line in fh}
        assert rows["adaptive"][1] == ""
        assert rows["adaptive"][3] != ""
        assert rows["uniform"][1] != "" and rows["uniform"][3] != ""

    @pytest.mark.parametrize("target, mode, key", [
        ("random_walk", None, "msd_track_db"),
        ("constant", "random_walk", "msd_track_db"),
        ("random_walk", "stationary", "msd_db"),
        ("constant", None, "msd_db"),
    ])
    def test_theory_columns_are_the_theory_report_figures(self, target, mode, key, tmp_path):
        """Each rule's columns equal, bit for bit, the figures theory reports for its target."""
        net = random_network(9, 6, 2, 0.5, NOISY_RANGES)
        net.weights = WeightTrajectory(mode=target, w0=net.weights.w0,
                                       r_eta=1e-4 * np.eye(2, dtype=complex))
        fields = {"runs": 1, "iterations": 10, "rules": {"a1": "identity", "c": "identity"}}
        if mode is not None:
            fields["mode"] = mode
        cfg = write_scenario(tmp_path, net, **fields)
        rules = ("uniform", "metropolis", "relative_variance")
        assert main(["compare", "--config", str(cfg), "--rules", ",".join(rules)]) == EXIT_OK
        rows = read_compare(tmp_path / "compare.csv")
        for rule in rules:
            cfg = write_scenario(tmp_path, net, **{**fields, "rules": {"a2": rule}})
            assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / rule)]) == EXIT_OK
            data = json.loads((tmp_path / rule / "report.json").read_text())
            assert float(rows[rule]["theory_msd_db"]) == data[key]
            assert float(rows[rule]["theory_emse_db"]) == data[key.replace("msd", "emse")]

    def test_rotating_target_ranks_by_the_simulated_column(self, tmp_path, capsys):
        net = random_network(10, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="rotation", w0=net.weights.w0, omega=0.01)
        cfg = write_scenario(tmp_path, net, runs=2, iterations=100,
                             rules={"a1": "identity", "c": "identity"})
        assert main(["compare", "--config", str(cfg), "--rules",
                     "uniform,metropolis,relative_variance", "--simulate"]) == EXIT_OK
        rows = list(read_compare(tmp_path / "compare.csv").values())
        assert all(r["theory_msd_db"] == "" and r["theory_emse_db"] == "" for r in rows)
        sim = [float(r["sim_msd_db"]) for r in rows]
        assert sim == sorted(sim)
        assert "'rotation'" in capsys.readouterr().out

    @pytest.mark.parametrize("iterations, settled", [(10, False), (520, True)])
    def test_unsettled_tail_is_noted_without_failing(self, iterations, settled, tmp_path,
                                                     capsys):
        """rho(B) is about 0.988 for both rules: five time constants are about 410
        iterations, so the tail of 520 starts after them and the tail of 10 does not."""
        net = random_network(10, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=2, iterations=iterations, seed=1,
                             rules={"a1": "identity", "c": "identity"})
        assert main(["compare", "--config", str(cfg), "--rules", "uniform,metropolis",
                     "--simulate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("tail not settled: curve too short") == (0 if settled else 2)
        with open(tmp_path / "compare.csv") as fh:
            assert fh.readline() == "rule,theory_msd_db,theory_emse_db,sim_msd_db,divergent_runs\n"
        rows = read_compare(tmp_path / "compare.csv").values()
        assert all(row["sim_msd_db"] != "" for row in rows)

    def test_single_rule_rejected(self, tmp_path):
        cfg = write_scenario(tmp_path, scalar_network(), runs=1, iterations=10)
        assert main(["compare", "--config", str(cfg),
                     "--rules", "uniform"]) == EXIT_CONFIG

    def test_ambiguous_sweep_slot_rejected(self, tmp_path):
        net = random_network(11, 4, 2, 0.6, NOISY_RANGES)
        cfg = write_scenario(tmp_path, net, runs=1, iterations=10,
                             rules={"a1": "uniform", "a2": "uniform"})
        assert main(["compare", "--config", str(cfg),
                     "--rules", "uniform,metropolis"]) == EXIT_CONFIG


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        exe = shutil.which("diffnet")
        assert exe is not None
        out = subprocess.run(
            [exe, "gen-scenario", "--preset", "tracking_low_noise",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert out.returncode == EXIT_OK
        assert (tmp_path / "scenario.json").exists()
        assert "wrote" in out.stdout
