"""The names the benchmark's per-layer trace wraps, and the call counts it reports.

``perfbench/run.py --trace 1`` replaces module attributes such as
``diffnet.simulate.crandn`` by timing shims (see ``perfbench/spans.py``). A
name that is renamed or no longer looked up through its module attribute
silently drops out of the trace, so this pins both: every traced name
resolves, and counting shims installed the same way see every sampler draw
and every recursion step.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import diffnet.simulate as simulate
from diffnet.combine import uniform
from diffnet.network import CombinationMatrices, VarianceRanges, WeightTrajectory, random_network
from diffnet.simulate import RngPolicy, SimulationOptions, run_monte_carlo

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    run = perfbench_run()
    targets = run.TRACE_TARGETS + run.ALLOC_TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in targets
               if getattr(importlib.import_module(module), attr, None) is None]
    assert missing == []
    assert {("diffnet.simulate", "crandn"), ("diffnet.simulate", "diffusion_step")} <= {
        (module, attr) for module, attr, _ in run.TRACE_TARGETS}


def counting(calls, key, fn):
    calls[key] = 0

    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("iterations", [40, 300])
def test_call_counts_seen_through_the_module_attributes(iterations, monkeypatch):
    n, runs = 4, 3
    ranges = VarianceRanges(sigma_w2=(1e-3, 1e-2), sigma_d2=(1e-3, 1e-2),
                            sigma_u_link2=(1e-3, 1e-2), sigma_psi2=(1e-3, 1e-2))
    net = random_network(2, n, 2, 0.6, ranges)
    net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                   r_eta=1e-4 * np.eye(2, dtype=complex))
    a = uniform(net.topology)
    mats = CombinationMatrices(a1=a, c=a.T, a2=a)

    calls, samplers = {}, []
    for name in ("crandn", "diffusion_step"):
        monkeypatch.setattr(simulate, name, counting(calls, name, getattr(simulate, name)))
    make_sampler = simulate._Sampler

    def keep(*args, **kwargs):
        samplers.append(make_sampler(*args, **kwargs))
        return samplers[-1]

    monkeypatch.setattr(simulate, "_Sampler", keep)
    # a budget of 32 KiB cuts this chunk's noise into windows of a few blocks
    monkeypatch.setattr(simulate, "WINDOW_BYTES", 1 << 15)
    run_monte_carlo(net, mats, SimulationOptions(chunk_size=runs), runs, iterations,
                    RngPolicy(0))

    # per run and window, one draw per source: u, v, eta, w, psi, d and u_link
    [chunk] = samplers
    windows = math.ceil(iterations / chunk.length)
    assert windows > 1
    assert calls == {"crandn": runs * 7 * windows, "diffusion_step": iterations}
