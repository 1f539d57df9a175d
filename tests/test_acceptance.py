"""Acceptance gate: end-to-end checks tying theory, engine, and rules together."""

import time
from dataclasses import replace

import numpy as np
import pytest

from diffnet.cli import PRESETS
from diffnet.combine import matrices_from_rules, metropolis, uniform
from diffnet.network import (
    CombinationMatrices,
    LinkNoiseProfile,
    NetworkModel,
    NodeProfile,
    Topology,
    VarianceRanges,
    WeightTrajectory,
    random_network,
)
from diffnet.simulate import (
    DiffusionState,
    RngPolicy,
    SimulationOptions,
    StepData,
    StepOperator,
    diffusion_step,
    run_monte_carlo,
    steady_state_level,
)
from diffnet.theory import (
    assemble_mean_dynamics,
    assemble_noise_moments,
    bias,
    network_metrics,
    series_msd,
    stability_report,
    step_size_bounds,
    tracking_metrics,
)
from reference import block_max_norm, neighbors, series_emse

NOISY_RANGES = VarianceRanges(
    sigma_u2=(0.5, 2.0),
    sigma_v2=(0.01, 0.1),
    sigma_w2=(5e-4, 2e-2),
    sigma_d2=(5e-4, 2e-2),
    sigma_u_link2=(5e-4, 2e-2),
    sigma_psi2=(5e-4, 2e-2),
    mu=(0.01, 0.01),
)

ATC = {"a1": "identity", "c": "identity"}
CTA = {"c": "identity", "a2": "identity"}


def db(x):
    return 10.0 * np.log10(x)


class ExchangeBench:
    """The shared 20-node noisy-exchange benchmark, simulations cached."""

    def __init__(self):
        self.net, _ = PRESETS["noisy_exchange_atc"](1)
        self._cache = {}

    def rules_for(self, order, rule):
        base = dict(ATC) if order == "atc" else dict(CTA)
        base["a2" if order == "atc" else "a1"] = rule
        return base

    def theory_db(self, order, rule):
        mats, _ = matrices_from_rules(self.net, self.rules_for(order, rule))
        msd, emse = network_metrics(self.net, mats)
        return db(msd), db(emse)

    def sim(self, order, rule):
        key = (order, rule)
        if key not in self._cache:
            mats, adaptive = matrices_from_rules(self.net, self.rules_for(order, rule))
            options = SimulationOptions(
                adaptive_slot="a2" if adaptive else None, chunk_size=50
            )
            self._cache[key] = run_monte_carlo(
                self.net, mats, options, runs=50, iterations=3000,
                rng_policy=RngPolicy(5),
            )
        return self._cache[key]

    def sim_db(self, order, rule):
        curve = self.sim(order, rule)
        assert curve.divergent_runs == 0
        return (db(steady_state_level(curve.msd)),
                db(steady_state_level(curve.emse)))


@pytest.fixture(scope="module")
def bench():
    return ExchangeBench()


def test_criterion_1_scalar_closed_form():
    mu = 0.01
    net = NetworkModel(
        topology=Topology.from_edges(1, []),
        nodes=NodeProfile(m_dim=1, r_u=np.array([[[1.0]]], dtype=complex),
                          sigma_v2=np.array([1.0]), mu=np.array([mu])),
        link_noise=LinkNoiseProfile.zeros(0, 1),
        weights=WeightTrajectory(mode="constant", w0=np.array([1.0 + 0j])),
    )
    tic = time.perf_counter()
    msd, emse = network_metrics(net, CombinationMatrices.identity(1))
    elapsed = time.perf_counter() - tic
    expected = mu * 1.0 / (2.0 - mu)
    assert abs(msd - expected) <= 1e-10 * expected
    assert abs(emse - expected) <= 1e-10 * expected
    assert elapsed < 1.0


@pytest.mark.parametrize("order", ["atc", "cta"])
@pytest.mark.parametrize("rule", ["uniform", "metropolis", "relative_variance"])
def test_criterion_2_theory_matches_simulation(bench, order, rule):
    theo_msd, theo_emse = bench.theory_db(order, rule)
    sim_msd, sim_emse = bench.sim_db(order, rule)
    assert abs(sim_msd - theo_msd) <= 1.0
    assert abs(sim_emse - theo_emse) <= 1.0


def test_criterion_3_inverse_variance_rule_ranks_first(bench):
    rv, _ = bench.theory_db("atc", "relative_variance")
    met, _ = bench.theory_db("atc", "metropolis")
    uni, _ = bench.theory_db("atc", "uniform")
    assert rv <= met - 0.2
    assert rv <= uni - 0.2


def bias_bench_network(seed=21):
    vr = VarianceRanges(
        sigma_u2=(0.5, 2.0),
        sigma_v2=(0.01, 0.1),
        sigma_w2=(5e-4, 2e-2),
        sigma_d2=(5e-3, 2e-2),
        sigma_u_link2=(5e-3, 2e-2),
        sigma_psi2=(5e-4, 2e-2),
        mu=(0.01, 0.01),
    )
    net = random_network(seed, 3, 2, 0.7, vr)
    mats = CombinationMatrices(a1=np.eye(3), c=uniform(net.topology).T,
                               a2=uniform(net.topology))
    return net, mats


def run_mean_error(net, mats, policy_seed):
    options = SimulationOptions(chunk_size=100, record_mean_error=True)
    return run_monte_carlo(net, mats, options, runs=2000, iterations=800,
                           rng_policy=RngPolicy(policy_seed))


def test_criterion_4_regressor_noise_bias():
    net, mats = bias_bench_network()
    md = assemble_mean_dynamics(net, mats)
    info = stability_report(md)
    assert info.mean_stable
    g = bias(md)
    assert np.linalg.norm(g) > 1e-3
    curve = run_mean_error(net, mats, policy_seed=17)
    resid = np.abs(curve.mean_error[-1] - g)
    assert np.all(resid <= 3.0 * curve.mean_error_stderr[-1])


def test_criterion_4_zero_regressor_noise_is_unbiased():
    net, mats = bias_bench_network()
    net.link_noise.r_u_link[:] = 0.0
    g = bias(assemble_mean_dynamics(net, mats))
    assert np.all(g == 0.0)
    curve = run_mean_error(net, mats, policy_seed=18)
    resid = np.abs(curve.mean_error[-1])
    assert np.all(resid <= 3.0 * curve.mean_error_stderr[-1])


def literal_step(net, mats, w_prev, data):
    """The three-step recursion written as plain per-node loops."""
    topo = net.topology
    n, m = net.n_nodes, net.m_dim
    pos = {lk: p for p, lk in enumerate(net.links)}
    mu = net.nodes.mu
    wt = np.asarray(data.w_true, dtype=complex)
    d = [complex(data.u[l] @ wt) + data.v[l] for l in range(n)]

    phi = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in neighbors(topo, k):
            recv = w_prev[l] + (data.v_w[pos[(int(l), k)]] if l != k else 0.0)
            phi[k] += mats.a1[l, k] * recv

    psi = phi.copy()
    for k in range(n):
        for l in neighbors(topo, k):
            if mats.c[l, k] == 0.0:
                continue
            if l == k:
                u_recv, d_recv = data.u[l], d[l]
            else:
                p = pos[(int(l), k)]
                u_recv = data.u[l] + data.v_u[p]
                d_recv = d[l] + data.v_d[p]
            psi[k] += mu[k] * mats.c[l, k] * u_recv.conj() * (d_recv - u_recv @ phi[k])

    w = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in neighbors(topo, k):
            recv = psi[l] + (data.v_psi[pos[(int(l), k)]] if l != k else 0.0)
            w[k] += mats.a2[l, k] * recv
    return w


def test_criterion_5_single_step_error_identity():
    steps_checked = 0
    for seed in range(20):
        gen = np.random.default_rng(1000 + seed)
        n = 3 + seed % 4
        m = 1 + seed % 3
        net = random_network(seed, n, m, 0.6, NOISY_RANGES)
        topo = net.topology
        eye = np.eye(n)
        combos = [
            CombinationMatrices(a1=eye, c=eye, a2=uniform(topo)),
            CombinationMatrices(a1=uniform(topo), c=eye, a2=eye),
            CombinationMatrices(a1=eye, c=uniform(topo).T, a2=uniform(topo)),
            CombinationMatrices(a1=metropolis(topo), c=metropolis(topo),
                                a2=uniform(topo)),
        ]
        mats = combos[seed % len(combos)]
        op = StepOperator(net, mats)
        n_links = len(net.links)

        def cx(shape):
            return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

        for _ in range(50):
            w_prev = cx((n, m))
            data = StepData(
                u=cx((n, m)), v=cx((n,)), w_true=cx((m,)),
                v_w=cx((n_links, m)), v_psi=cx((n_links, m)),
                v_d=cx((n_links,)), v_u=cx((n_links, m)),
            )
            # the engine takes each static combine's link noise as receiver sums
            summed = replace(
                data,
                v_w=op.links.segment_sum(op.a1_link[:, None] * data.v_w, axis=-2),
                v_psi=op.links.segment_sum(op.a2_link[:, None] * data.v_psi, axis=-2))
            out = diffusion_step(DiffusionState(w=w_prev.copy()), op, summed)
            w_ref = literal_step(net, mats, w_prev, data)
            err_sim = data.w_true[None, :] - out.w
            err_ref = data.w_true[None, :] - w_ref
            assert np.max(np.abs(err_sim - err_ref)) <= 1e-12
            steps_checked += 1
    assert steps_checked == 1000


def test_criterion_6_series_equals_direct_solve():
    for seed in range(20):
        n = 4 + seed % 3
        net = random_network(200 + seed, n, 2, 0.5, NOISY_RANGES)
        topo = net.topology
        eye = np.eye(n)
        combos = [
            CombinationMatrices(a1=eye, c=eye, a2=uniform(topo)),
            CombinationMatrices(a1=uniform(topo), c=eye, a2=eye),
            CombinationMatrices(a1=metropolis(topo), c=eye, a2=uniform(topo)),
        ]
        mats = combos[seed % len(combos)]
        md = assemble_mean_dynamics(net, mats)
        assert stability_report(md).mean_square_stable
        nm = assemble_noise_moments(net, mats, md)
        msd_direct, emse_direct = network_metrics(net, mats)
        msd_series, _ = series_msd(md, nm)
        emse_series, _ = series_emse(md, nm, net.nodes.r_u)
        assert abs(msd_series - msd_direct) <= 1e-8 * abs(msd_direct)
        assert abs(emse_series - emse_direct) <= 1e-8 * abs(emse_direct)


def test_criterion_7_mean_radius_bounded_by_block_norm():
    for seed in range(50):
        n = 3 + seed % 5
        net = random_network(300 + seed, n, 1 + seed % 3, 0.5, NOISY_RANGES)
        topo = net.topology
        eye = np.eye(n)
        combos = [
            CombinationMatrices(a1=eye, c=eye, a2=uniform(topo)),
            CombinationMatrices(a1=uniform(topo), c=metropolis(topo), a2=eye),
            CombinationMatrices(a1=metropolis(topo), c=eye, a2=uniform(topo)),
        ]
        info = stability_report(
            assemble_mean_dynamics(net, combos[seed % len(combos)])
        )
        assert info.rho_b <= info.rho_spectral_bound + 1e-12


def test_criterion_7_lift_norm_is_exactly_one():
    gen = np.random.default_rng(4)
    for trial in range(50):
        n = 2 + trial % 7
        m = 1 + trial % 3
        a = gen.exponential(size=(n, n))
        a /= a.sum(axis=1, keepdims=True)
        assert block_max_norm(np.kron(a, np.eye(m)), m) == 1.0


def test_criterion_7_block_diagonal_norm_is_spectral_radius():
    gen = np.random.default_rng(5)
    for _ in range(20):
        n, m = 4, 3
        x = np.zeros((n * m, n * m), dtype=complex)
        expected = 0.0
        for k in range(n):
            raw = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
            blk = raw + raw.conj().T
            x[k * m:(k + 1) * m, k * m:(k + 1) * m] = blk
            expected = max(expected, float(np.abs(np.linalg.eigvalsh(blk)).max()))
        got = block_max_norm(x, m)
        assert abs(got - expected) <= 1e-10 * expected


def test_criterion_7_step_bound_ordering():
    for seed in range(10):
        net = random_network(400 + seed, 5, 2, 0.5, NOISY_RANGES)
        mats = CombinationMatrices(a1=np.eye(5), c=metropolis(net.topology),
                                   a2=uniform(net.topology))
        b = step_size_bounds(net, mats)
        assert b.robust is not None
        assert np.all(b.robust <= b.noise_free + 1e-15)
        net.link_noise.r_u_link[:] = 0.0
        clean = step_size_bounds(net, mats)
        assert np.array_equal(clean.robust, clean.noise_free)


def tracking_bench_network(eps):
    net = random_network(9, 3, 2, 0.7, NOISY_RANGES)
    net.weights = WeightTrajectory(
        mode="random_walk",
        w0=np.array([1.0 + 1.0j, -1.0 - 1.0j]),
        r_eta=eps * np.eye(2, dtype=complex),
    )
    mats = CombinationMatrices(a1=np.eye(3), c=np.eye(3), a2=uniform(net.topology))
    return net, mats


def test_criterion_8_tracking_penalty_linear_in_drift():
    net, mats = tracking_bench_network(1e-6)
    eye2 = np.eye(2, dtype=complex)
    one = tracking_metrics(net, mats, r_eta=1e-6 * eye2)
    two = tracking_metrics(net, mats, r_eta=2e-6 * eye2)
    d1 = one.msd - one.msd_stationary
    d2 = two.msd - two.msd_stationary
    assert d1 > 0.0
    assert abs(d2 / d1 - 2.0) <= 1e-6


def test_criterion_8_random_walk_simulation_matches_theory():
    net, mats = tracking_bench_network(1e-6)
    theo = db(tracking_metrics(net, mats).msd)
    curve = run_monte_carlo(
        net, mats, SimulationOptions(chunk_size=100),
        runs=100, iterations=4000, rng_policy=RngPolicy(3),
    )
    assert curve.divergent_runs == 0
    sim = db(steady_state_level(curve.msd))
    assert abs(sim - theo) <= 1.0


def test_criterion_8_rotating_target_tracked_with_bounded_lag():
    net, _ = PRESETS["tracking_low_noise"](2)
    mats, _ = matrices_from_rules(net, {"a1": "identity", "c": "identity",
                                        "a2": "uniform"})
    options = SimulationOptions(record_trajectory=True, chunk_size=50)
    curve = run_monte_carlo(net, mats, options, runs=20, iterations=3000,
                            rng_policy=RngPolicy(4))
    assert curve.divergent_runs == 0
    tail = slice(2400, 3000)
    inner = np.sum(curve.avg_target[tail] * curve.avg_estimate[tail].conj(), axis=1)
    lag = np.abs(np.angle(inner))
    assert np.max(lag) < np.pi / 2


def test_criterion_9_adaptive_rule_near_the_best_static_rule(bench):
    adaptive_msd, _ = bench.sim_db("atc", "adaptive")
    rv_msd, _ = bench.sim_db("atc", "relative_variance")
    uniform_msd, _ = bench.sim_db("atc", "uniform")
    assert adaptive_msd <= rv_msd + 1.5
    assert adaptive_msd < uniform_msd
