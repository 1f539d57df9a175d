"""Mutated scenario and network files end in exit code 0, 2 or 3 and never raise.

Each example starts from a valid 4-node scenario (2 runs x 10 iterations) and
applies up to two mutations anywhere in it, the inline or file network
included: a value replaced by one of the wrong kind, by NaN/inf or by a
negative, fractional or small whole number; a key or list item deleted; or an
unknown key added. The whole numbers are at most 2, so no mutation can ask
for a large run, and ``DIFFNET_THREADS`` is unset.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffnet.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSTABLE, main
from diffnet.network import VarianceRanges, WeightTrajectory, network_to_dict, random_network

BAD_VALUES = [None, True, False, "x", "", "file:", [], {}, [1.0], [[1.0, 0.0]], [[1.0, "0"]],
              float("nan"), float("inf"), -float("inf"), -1, 0, 2, 0.5, -0.5, 2.5]
COMMANDS = {
    "simulate": ["simulate"],
    "theory": ["theory"],
    "compare": ["compare", "--rules", "uniform,metropolis", "--simulate"],
}


def _scenario(mode: str) -> dict:
    ranges = VarianceRanges(sigma_w2=(1e-3, 1e-2), sigma_d2=(1e-3, 1e-2),
                            sigma_u_link2=(1e-3, 1e-2), sigma_psi2=(1e-3, 1e-2))
    net = random_network(5, 4, 2, 0.6, ranges)
    net.weights = WeightTrajectory(
        mode=mode, w0=net.weights.w0,
        r_eta=1e-4 * np.eye(2, dtype=complex) if mode == "random_walk" else None,
        omega=0.01 if mode == "rotation" else None)
    return {"name": "fuzz", "network": network_to_dict(net),
            "rules": {"a1": "identity", "c": "uniform", "a2": "metropolis"},
            "runs": 2, "iterations": 10, "seed": 1, "nu": 0.05, "mode": mode,
            "outputs": {"curve": "curve.csv", "report": "report.json",
                        "compare": "compare.csv"}}


def _paths(value, path=()):
    """The path of every JSON value in ``value``, ``value`` itself first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def paths_by_depth(value):
    """The paths of ``value`` grouped by depth, shallowest first, so that a top-level key is
    as likely a target as a matrix entry."""
    groups = {}
    for path in _paths(value):
        groups.setdefault(len(path), []).append(path)
    return list(groups.values())


def mutate(draw, data, paths):
    """``data`` after one drawn mutation at a path drawn from ``paths`` (see paths_by_depth).

    Mutates ``data`` in place; a path that an earlier mutation removed leaves it unchanged.
    """
    path = draw(st.sampled_from(draw(st.sampled_from(paths))))
    parent, target = None, data
    try:
        for key in path:
            if not isinstance(target, (dict, list)):  # a string indexes, but is no container
                raise TypeError(key)
            parent, target = target, target[key]
    except (KeyError, IndexError, TypeError):  # an earlier mutation removed the path
        return data
    kind = draw(st.sampled_from(["replace", "delete", "add"]))
    if kind == "add" and isinstance(target, dict):
        target[draw(st.sampled_from(["comment", "sigma_v", "omgea", "links"]))] = 1.0
    elif kind == "delete" and parent is not None:
        del parent[path[-1]]
    elif parent is None:
        return draw(st.sampled_from(BAD_VALUES))
    else:
        parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return data


BASES = {mode: _scenario(mode) for mode in ("constant", "random_walk", "rotation")}
PATHS = {mode: paths_by_depth(base) for mode, base in BASES.items()}


@st.composite
def mutated_scenarios(draw):
    mode = draw(st.sampled_from(sorted(BASES)))
    data = json.loads(json.dumps(BASES[mode]))
    for _ in range(draw(st.integers(0, 2))):
        data = mutate(draw, data, PATHS[mode])
    return data


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_scenarios(), command=st.sampled_from(sorted(COMMANDS)),
       network_file=st.booleans())
def test_mutated_input_exits_with_a_documented_code(data, command, network_file, monkeypatch):
    monkeypatch.delenv("DIFFNET_THREADS", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if network_file and isinstance(data, dict) and isinstance(data.get("network"), dict):
            (tmp / "net.json").write_text(json.dumps(data["network"]))
            data = {**data, "network": "net.json"}
        (tmp / "scenario.json").write_text(json.dumps(data))
        code = main(COMMANDS[command] + ["--config", str(tmp / "scenario.json"),
                                         "--out", str(tmp)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_UNSTABLE)


def test_unmutated_scenarios_run():
    """The fuzz starts from inputs that every command accepts."""
    for base in BASES.values():
        for argv in COMMANDS.values():
            with tempfile.TemporaryDirectory() as tmp:
                (Path(tmp) / "scenario.json").write_text(json.dumps(base))
                assert main(argv + ["--config", str(Path(tmp) / "scenario.json"),
                                    "--out", tmp]) == EXIT_OK
