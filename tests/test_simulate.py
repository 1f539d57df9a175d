import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.combine import uniform
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
    curve_to_csv,
    diffusion_step,
    run_monte_carlo,
    steady_state_level,
    trajectory_to_csv,
)
from diffnet.linalg import psd_factor
from diffnet.simulate import BLOCK, _colouring, _Sampler, _simulate_chunk, _resolve_mode
from reference import AdaptiveWeightState, adaptive_update, simulate_chunk

NOISY_RANGES = VarianceRanges(
    sigma_u2=(0.5, 2.0),
    sigma_v2=(0.01, 0.1),
    sigma_w2=(1e-3, 2e-2),
    sigma_d2=(1e-3, 2e-2),
    sigma_u_link2=(1e-3, 2e-2),
    sigma_psi2=(1e-3, 2e-2),
)


def single_node(m=2, sigma_v2=0.0, mu=0.3, w0=None):
    if w0 is None:
        w0 = np.ones(m, dtype=complex)
    return NetworkModel(
        topology=Topology.from_edges(1, []),
        nodes=NodeProfile(m_dim=m, r_u=np.stack([np.eye(m, dtype=complex)]),
                          sigma_v2=np.array([float(sigma_v2)]), mu=np.array([float(mu)])),
        link_noise=LinkNoiseProfile.zeros(0, m),
        weights=WeightTrajectory(mode="constant", w0=np.asarray(w0, dtype=complex)),
    )


class TestRngPolicy:
    def test_same_key_reproduces(self):
        pol = RngPolicy(123)
        a = pol.stream(0, "u", 3).standard_normal(5)
        b = pol.stream(0, "u", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        pol = RngPolicy(123)
        base = pol.stream(0, "u", 0).standard_normal(5)
        for run, source, owner in [(1, "u", 0), (0, "v", 0), (0, "u", 1)]:
            other = pol.stream(run, source, owner).standard_normal(5)
            assert not np.array_equal(base, other)

    def test_master_seed_matters(self):
        a = RngPolicy(1).stream(0, "u", 0).standard_normal(5)
        b = RngPolicy(2).stream(0, "u", 0).standard_normal(5)
        assert not np.array_equal(a, b)


def window_draws(net, mats, t, adaptive=False, seed=7):
    """The engine's noise draws for ``t`` iterations of one run."""
    sampler = _Sampler(net, StepOperator(net, mats), "constant", RngPolicy(seed), [0], adaptive)
    return sampler, sampler.window(t)


class TestSampleData:
    def test_noise_free_measurement_is_exact(self):
        net = single_node(sigma_v2=0.0, mu=0.3)
        mats = CombinationMatrices.identity(1)
        _, draws = window_draws(net, mats, 4)
        assert np.all(draws["v"] == 0.0)
        w_true = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        u = draws["u"][0, 0]
        data = StepData(u=u, v=draws["v"][0, 0], w_true=w_true)
        out = diffusion_step(DiffusionState(w=np.zeros((1, 2), dtype=complex)),
                             StepOperator(net, mats), data)
        assert np.allclose(out.w[0], 0.3 * u[0].conj() * (u[0] @ w_true), atol=1e-15)

    def test_deterministic_per_stream(self):
        net = noisy_pair_network()
        a = uniform(net.topology)
        mats = CombinationMatrices(a1=a, c=a.T, a2=a)
        _, first = window_draws(net, mats, 6, seed=5)
        _, again = window_draws(net, mats, 6, seed=5)
        assert sorted(first) == sorted(again)
        assert all(np.array_equal(first[key], again[key]) for key in first)

    def test_regressor_covariance(self):
        r_u = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]], dtype=complex)
        net = single_node(sigma_v2=0.25)
        net.nodes.r_u = np.stack([r_u])
        _, draws = window_draws(net, CombinationMatrices.identity(1), 20000)
        draws_u = draws["u"][0, :, 0, :]
        draws_v = draws["v"][0, :, 0]
        emp = np.einsum("ia,ib->ab", draws_u.conj(), draws_u) / 20000
        assert np.linalg.norm(emp - r_u) / np.linalg.norm(r_u) < 0.05
        assert abs(np.mean(np.abs(draws_v) ** 2) - 0.25) / 0.25 < 0.05
        assert abs(np.mean(draws_v)) < 0.02


def noisy_pair_network(seed=0, n=4, m=2):
    return random_network(seed, n, m, 0.6, NOISY_RANGES)


class TestPerturbExchange:
    """Link noise on exchanged data, as the engine draws it per window."""

    def test_zero_noise_is_identity(self):
        net = noisy_pair_network()
        net.link_noise = LinkNoiseProfile.zeros(len(net.links), net.m_dim)
        a = uniform(net.topology)
        sampler, draws = window_draws(net, CombinationMatrices(a1=a, c=a.T, a2=a), 5,
                                      adaptive=True)
        assert sorted(draws) == ["u", "v"]
        assert sorted(sampler.gens[0]) == ["u", "v"]

    def test_self_pairs_pass_through(self):
        net = noisy_pair_network()
        op = StepOperator(net, CombinationMatrices.identity(4))  # nodes keep to themselves
        gen = np.random.default_rng(1)
        state = DiffusionState(w=gen.standard_normal((4, 2)) + 1j * gen.standard_normal((4, 2)))
        data = random_step_data(gen, net)
        loud = StepData(u=data.u, v=data.v, w_true=data.w_true, v_w=1e6 * data.v_w,
                        v_psi=1e6 * data.v_psi, v_d=1e6 * data.v_d, v_u=1e6 * data.v_u)
        quiet = StepData(u=data.u, v=data.v, w_true=data.w_true)
        assert np.array_equal(diffusion_step(state, op, loud).w,
                              diffusion_step(state, op, quiet).w)
        _, draws = window_draws(net, CombinationMatrices.identity(4), 5)
        assert sorted(draws) == ["u", "v"]

    def test_source_keyed_streams(self):
        net = noisy_pair_network()
        a = uniform(net.topology)
        _, only_w = window_draws(net, CombinationMatrices(a1=a, c=np.eye(4), a2=np.eye(4)), 5)
        _, every = window_draws(net, CombinationMatrices(a1=a, c=a.T, a2=a), 5)
        assert sorted(every) == ["u", "v", "v_d", "v_psi", "v_u", "v_w"]
        # turning other link sources on leaves the estimate-noise stream as it was
        assert np.array_equal(only_w["v_w"], every["v_w"])
        assert not np.array_equal(every["v_w"], every["v_psi"])

    def test_scalar_payload_noise_variance(self):
        net = noisy_pair_network()
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T, a2=np.eye(4))
        _, draws = window_draws(net, mats, 40000, seed=3)
        var = np.mean(np.abs(draws["v_d"][0]) ** 2, axis=0)
        target = net.link_noise.sigma_d2
        assert np.all(np.abs(var - target) / target < 0.05)

    def test_vector_payload_noise_covariance(self):
        net = noisy_pair_network()
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        _, draws = window_draws(net, mats, 40000, seed=4)
        noise = draws["v_psi"][0]
        emp = np.einsum("ipa,ipb->pab", noise.conj(), noise) / 40000
        target = net.link_noise.r_psi
        err = np.linalg.norm(emp - target, axis=(1, 2)) / np.linalg.norm(target, axis=(1, 2))
        assert np.all(err < 0.05)


def reference_step(net, mats, w_prev, data):
    """Plain-loop transcription of the three combine/adapt/combine steps."""
    topo = net.topology
    n, m = net.n_nodes, net.m_dim
    pos = {lk: p for p, lk in enumerate(net.links)}
    mu = net.nodes.mu
    wt = np.asarray(data.w_true, dtype=complex)
    d_clean = [complex(data.u[l] @ wt) + data.v[l] for l in range(n)]

    phi = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in topo.neighbors(k):
            recv = w_prev[l].astype(complex)
            if l != k and data.v_w is not None:
                recv = recv + data.v_w[pos[(int(l), k)]]
            phi[k] += mats.a1[l, k] * recv

    psi = phi.copy()
    for k in range(n):
        for l in topo.neighbors(k):
            if mats.c[l, k] == 0.0:
                continue
            u_recv = data.u[l].astype(complex)
            d_recv = d_clean[l]
            if l != k:
                if data.v_u is not None:
                    u_recv = u_recv + data.v_u[pos[(int(l), k)]]
                if data.v_d is not None:
                    d_recv = d_recv + data.v_d[pos[(int(l), k)]]
            err = d_recv - u_recv @ phi[k]
            psi[k] += mu[k] * mats.c[l, k] * u_recv.conj() * err

    w_new = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in topo.neighbors(k):
            recv = psi[l]
            if l != k and data.v_psi is not None:
                recv = recv + data.v_psi[pos[(int(l), k)]]
            w_new[k] += mats.a2[l, k] * recv
    return phi, psi, w_new


def random_step_data(gen, net):
    n, m = net.n_nodes, net.m_dim
    n_links = len(net.links)

    def cx(shape):
        return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2)

    return StepData(
        u=cx((n, m)),
        v=cx((n,)),
        w_true=cx((m,)),
        v_w=cx((n_links, m)),
        v_psi=cx((n_links, m)),
        v_d=cx((n_links,)),
        v_u=cx((n_links, m)),
    )


class TestDiffusionStep:
    def test_single_node_lms_by_hand(self):
        net = single_node(m=1, sigma_v2=0.0, mu=0.2, w0=np.array([2.0 + 1.0j]))
        mats = CombinationMatrices.identity(1)
        u = np.array([[0.7 - 0.3j]])
        v = np.array([0.1 + 0.05j])
        w_true = np.array([2.0 + 1.0j])
        state = DiffusionState(w=np.zeros((1, 1), dtype=complex))
        data = StepData(u=u, v=v, w_true=w_true)
        out = diffusion_step(state, StepOperator(net, mats), data)
        d = u[0, 0] * w_true[0] + v[0]
        expected = 0.2 * np.conj(u[0, 0]) * d
        assert out.w[0, 0] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_plain_loop_reference(self, seed):
        gen = np.random.default_rng(seed)
        net = noisy_pair_network(seed=seed, n=5)
        topo = net.topology
        a_uni = uniform(topo)
        configs = [
            CombinationMatrices(a1=np.eye(5), c=np.eye(5), a2=a_uni),
            CombinationMatrices(a1=a_uni, c=np.eye(5), a2=np.eye(5)),
            CombinationMatrices(a1=a_uni, c=a_uni.T, a2=a_uni),
        ]
        for mats in configs:
            w_prev = (gen.standard_normal((5, 2)) + 1j * gen.standard_normal((5, 2)))
            state = DiffusionState(w=w_prev.copy())
            data = random_step_data(gen, net)
            out = diffusion_step(state, StepOperator(net, mats), data)
            phi_ref, psi_ref, w_ref = reference_step(net, mats, w_prev, data)
            assert np.allclose(out.phi, phi_ref, atol=1e-13)
            assert np.allclose(out.psi, psi_ref, atol=1e-13)
            assert np.allclose(out.w, w_ref, atol=1e-13)

    def test_identity_fast_path_equals_general_path(self):
        net = noisy_pair_network(seed=3, n=4)
        mats = CombinationMatrices.identity(4)
        op_fast = StepOperator(net, mats)
        op_slow = StepOperator(net, mats)
        op_slow.a1_identity = False
        op_slow.a2_identity = False
        gen = np.random.default_rng(9)
        state = DiffusionState(w=(gen.standard_normal((4, 2))
                                  + 1j * gen.standard_normal((4, 2))))
        data = random_step_data(gen, net)
        a = diffusion_step(state, op_fast, data)
        b = diffusion_step(state, op_slow, data)
        assert np.array_equal(a.w, b.w)

    def test_none_noise_equals_zero_noise(self):
        net = noisy_pair_network(seed=4, n=4)
        mats = CombinationMatrices(a1=uniform(net.topology), c=np.eye(4),
                                   a2=uniform(net.topology))
        gen = np.random.default_rng(10)
        state = DiffusionState(w=(gen.standard_normal((4, 2))
                                  + 1j * gen.standard_normal((4, 2))))
        data = random_step_data(gen, net)
        n_links = len(net.links)
        zero = StepData(u=data.u, v=data.v, w_true=data.w_true,
                        v_w=np.zeros((n_links, 2), dtype=complex),
                        v_psi=np.zeros((n_links, 2), dtype=complex),
                        v_d=np.zeros(n_links, dtype=complex),
                        v_u=np.zeros((n_links, 2), dtype=complex))
        none = StepData(u=data.u, v=data.v, w_true=data.w_true)
        op = StepOperator(net, mats)
        a = diffusion_step(state, op, zero)
        b = diffusion_step(state, op, none)
        assert np.array_equal(a.w, b.w)

    def test_batched_step_matches_loop_over_batch(self):
        net = noisy_pair_network(seed=5, n=4)
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        gen = np.random.default_rng(11)
        batch = 6
        n_links = len(net.links)

        def cx(shape):
            return (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))

        w = cx((batch, 4, 2))
        data = StepData(u=cx((batch, 4, 2)), v=cx((batch, 4)),
                        w_true=cx((2,)),
                        v_w=cx((batch, n_links, 2)), v_psi=cx((batch, n_links, 2)),
                        v_d=cx((batch, n_links)), v_u=cx((batch, n_links, 2)))
        op = StepOperator(net, mats)
        out = diffusion_step(DiffusionState(w=w), op, data)
        for b in range(batch):
            single = StepData(u=data.u[b], v=data.v[b], w_true=data.w_true,
                              v_w=data.v_w[b], v_psi=data.v_psi[b],
                              v_d=data.v_d[b], v_u=data.v_u[b])
            ref = diffusion_step(DiffusionState(w=w[b]), op, single)
            assert np.allclose(out.w[b], ref.w, atol=1e-13)

    def test_adaptive_step_matches_scalar_updates(self):
        net = noisy_pair_network(seed=6, n=4)
        topo = net.topology
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(topo))
        gen = np.random.default_rng(12)
        n_links = len(net.links)
        state = DiffusionState.initial(4, 2, adaptive_nu=0.2, n_links=n_links)
        mirror = AdaptiveWeightState.initial(topo, 0.2)
        pos = {lk: p for p, lk in enumerate(net.links)}
        op = StepOperator(net, mats)
        for step in range(5):
            data = random_step_data(gen, net)
            w_prev = state.w.copy()
            state = diffusion_step(state, op, data)
            for k in range(4):
                nbrs = topo.neighbors(k)
                rows = np.stack([
                    state.psi[l] if l == k else state.psi[l] + data.v_psi[pos[(int(l), k)]]
                    for l in nbrs
                ])
                mirror_next, col = adaptive_update(mirror, topo, k, rows, w_prev[k])
                w_expected = np.einsum("l,lm->m", col[nbrs], rows)
                assert np.allclose(state.w[k], w_expected, atol=1e-12)
                assert state.adaptive.a_self[k] == pytest.approx(col[k], abs=1e-12)
                mirror.gamma2_self[k] = mirror_next.gamma2_self[k]
                for l in nbrs:
                    if l != k:
                        p = pos[(int(l), k)]
                        mirror.gamma2_link[p] = mirror_next.gamma2_link[p]
            assert np.allclose(state.adaptive.gamma2_self, mirror.gamma2_self, atol=1e-12)
            assert np.allclose(state.adaptive.gamma2_link, mirror.gamma2_link, atol=1e-12)


def network_on(topology, m=2, seed=0):
    """A network on ``topology``, which may leave nodes without links."""
    gen = np.random.default_rng(seed)
    n = topology.n_nodes
    return NetworkModel(
        topology=topology,
        nodes=NodeProfile(m_dim=m, r_u=np.stack([np.eye(m, dtype=complex)] * n),
                          sigma_v2=np.full(n, 0.05), mu=gen.uniform(0.05, 0.2, n)),
        link_noise=LinkNoiseProfile.zeros(len(topology.link_table()), m),
        weights=WeightTrajectory(mode="constant", w0=np.ones(m, dtype=complex)),
    )


# node 0, node 2 or node 4 has no links; the last one puts starts[4] == L
ISOLATED_NODE_EDGES = {
    0: [(1, 2), (2, 3), (3, 4), (1, 4)],
    2: [(0, 1), (1, 3), (3, 4), (0, 4)],
    4: [(0, 1), (1, 2), (2, 3), (0, 3)],
}


class TestNodesWithoutLinks:
    @pytest.mark.parametrize("topo", [
        *(Topology.from_edges(5, edges) for edges in ISOLATED_NODE_EDGES.values()),
        Topology.from_edges(1, []),
    ], ids=["first", "middle", "last", "single-node"])
    @pytest.mark.parametrize("layout", ["atc", "cta", "sharing"])
    def test_step_matches_plain_loop_reference(self, topo, layout):
        net = network_on(topo)
        n = net.n_nodes
        a, eye = uniform(topo), np.eye(n)
        mats = {"atc": CombinationMatrices(a1=eye, c=eye, a2=a),
                "cta": CombinationMatrices(a1=a, c=eye, a2=eye),
                "sharing": CombinationMatrices(a1=a, c=a.T, a2=a)}[layout]
        gen = np.random.default_rng(n)
        w_prev = gen.standard_normal((n, 2)) + 1j * gen.standard_normal((n, 2))
        data = random_step_data(gen, net)
        op = StepOperator(net, mats)
        op.a1_identity = op.a2_identity = False  # the single node's combines are identities
        out = diffusion_step(DiffusionState(w=w_prev.copy()), op, data)
        for got, want in zip((out.phi, out.psi, out.w), reference_step(net, mats, w_prev, data)):
            assert np.allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("isolated", sorted(ISOLATED_NODE_EDGES))
    def test_adaptive_step_on_a_node_without_in_links(self, isolated):
        topo = Topology.from_edges(5, ISOLATED_NODE_EDGES[isolated])
        net = network_on(topo)
        mats = CombinationMatrices(a1=np.eye(5), c=np.eye(5), a2=uniform(topo))
        gen = np.random.default_rng(isolated)
        state = DiffusionState.initial(5, 2, adaptive_nu=0.2, n_links=len(net.links))
        mirror = AdaptiveWeightState.initial(topo, 0.2)
        pos = {lk: p for p, lk in enumerate(net.links)}
        op = StepOperator(net, mats)
        for _ in range(3):
            data = random_step_data(gen, net)
            w_prev = state.w.copy()
            state = diffusion_step(state, op, data)
            assert state.adaptive.a_self[isolated] == 1.0
            assert np.array_equal(state.w[isolated], state.psi[isolated])
            for k in range(5):
                nbrs = topo.neighbors(k)
                rows = np.stack([state.psi[l] if l == k
                                 else state.psi[l] + data.v_psi[pos[(int(l), k)]] for l in nbrs])
                mirror, col = adaptive_update(mirror, topo, k, rows, w_prev[k])
                assert np.allclose(state.w[k], col[nbrs] @ rows, atol=1e-12)
            assert np.allclose(state.adaptive.gamma2_self, mirror.gamma2_self, atol=1e-12)
            assert np.allclose(state.adaptive.gamma2_link, mirror.gamma2_link, atol=1e-12)


def colour_oracle(z, factors):
    """The colouring as the engine used to write it, one einsum."""
    return np.einsum("rtpm,pqm->rtpq", z, factors.conj())


class TestColouring:
    def draws(self, p, m, seed=0):
        gen = np.random.default_rng(seed)
        return gen.standard_normal((3, 5, p, m)) + 1j * gen.standard_normal((3, 5, p, m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scaled_identities_match_the_einsum_exactly(self, m):
        scales = np.array([0.0, 1e-3, 0.5, 2.0, 7.25])  # a zero row is a link without noise
        factors = psd_factor(scales[:, None, None] * np.eye(m, dtype=complex))
        assert np.all(factors[:, ~np.eye(m, dtype=bool)] == 0.0)
        z = self.draws(len(scales), m)
        want = colour_oracle(z, factors)
        got = z.copy()
        assert _colouring(factors)(got) is got  # the per-link scale works in place
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 3])
    def test_general_factors_match_the_einsum(self, m):
        gen = np.random.default_rng(m)
        g = gen.standard_normal((4, m, m)) + 1j * gen.standard_normal((4, m, m))
        factors = psd_factor(g @ g.conj().swapaxes(1, 2))
        factors[1] = 0.3 * np.eye(m)  # one scaled identity among general factors
        z = self.draws(4, m, seed=1)
        want = colour_oracle(z, factors)
        got = _colouring(factors)(z.copy())
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert [got[i].tobytes() for i in range(3)] == [
            _colouring(factors)(z[i:i + 1].copy())[0].tobytes() for i in range(3)]


def literal_mean_recursion(net, mats, iterations):
    """Expected stacked error sequence from the first-moment recursion,
    assembled with plain loops (independent of the analysis module)."""
    topo = net.topology
    n, m = net.n_nodes, net.m_dim
    pos = {lk: p for p, lk in enumerate(net.links)}
    mu = net.nodes.mu
    w_o = np.asarray(net.weights.w0, dtype=complex)

    r_prime = np.zeros((n, m, m), dtype=complex)
    drift = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for l in topo.neighbors(k):
            r_prime[k] += mats.c[l, k] * net.nodes.r_u[l]
            if l != k:
                noise = net.link_noise.r_u_link[pos[(int(l), k)]]
                r_prime[k] += mats.c[l, k] * noise
                drift[k] += mats.c[l, k] * (noise @ w_o)

    b = np.zeros((n * m, n * m), dtype=complex)
    for k in range(n):
        for l in range(n):
            block = np.zeros((m, m), dtype=complex)
            for q in range(n):
                block += mats.a2[q, k] * (np.eye(m) - mu[q] * r_prime[q]) * mats.a1[l, q]
            b[k * m:(k + 1) * m, l * m:(l + 1) * m] = block

    forcing = np.zeros((n, m), dtype=complex)
    for k in range(n):
        for q in range(n):
            forcing[k] += mats.a2[q, k] * mu[q] * drift[q]
    forcing = forcing.reshape(-1)

    expected = np.empty((iterations, n * m), dtype=complex)
    err = np.tile(w_o, n)
    for i in range(iterations):
        err = b @ err + forcing
        expected[i] = err
    return expected


class TestRunMonteCarlo:
    def test_bitwise_deterministic(self):
        net = noisy_pair_network(seed=1, n=4)
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        opts = SimulationOptions()
        a = run_monte_carlo(net, mats, opts, runs=6, iterations=50, rng_policy=RngPolicy(3))
        b = run_monte_carlo(net, mats, opts, runs=6, iterations=50, rng_policy=RngPolicy(3))
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.emse, b.emse)

    def test_chunk_size_does_not_change_results(self):
        net = noisy_pair_network(seed=2, n=4)
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        a = run_monte_carlo(net, mats, SimulationOptions(chunk_size=3),
                            runs=10, iterations=40, rng_policy=RngPolicy(5))
        b = run_monte_carlo(net, mats, SimulationOptions(chunk_size=10),
                            runs=10, iterations=40, rng_policy=RngPolicy(5))
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.emse, b.emse)

    def test_thread_count_does_not_change_results(self):
        net = noisy_pair_network(seed=3, n=4)
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        opts1 = SimulationOptions(chunk_size=2, threads=1, record_mean_error=True)
        opts3 = SimulationOptions(chunk_size=2, threads=3, record_mean_error=True)
        a = run_monte_carlo(net, mats, opts1, runs=8, iterations=30, rng_policy=RngPolicy(9))
        b = run_monte_carlo(net, mats, opts3, runs=8, iterations=30, rng_policy=RngPolicy(9))
        assert np.array_equal(a.msd, b.msd)
        assert np.array_equal(a.mean_error, b.mean_error)

    def test_noise_free_network_converges_to_target(self):
        vr = VarianceRanges(sigma_u2=(0.5, 2.0), sigma_v2=(0.0, 0.0), mu=(0.05, 0.05))
        net = random_network(4, 5, 2, 0.5, vr)
        mats = CombinationMatrices(a1=np.eye(5), c=np.eye(5), a2=uniform(net.topology))
        curve = run_monte_carlo(net, mats, SimulationOptions(), runs=4,
                                iterations=3000, rng_policy=RngPolicy(1))
        assert curve.divergent_runs == 0
        assert curve.msd[-1] < 1e-10
        assert curve.msd[-1] < curve.msd[0]

    def test_mean_error_matches_first_moment_recursion(self):
        vr = VarianceRanges(
            sigma_u2=(0.5, 2.0), sigma_v2=(0.01, 0.1),
            sigma_w2=(1e-3, 2e-2), sigma_d2=(5e-3, 2e-2),
            sigma_u_link2=(5e-3, 2e-2), sigma_psi2=(1e-3, 2e-2),
            mu=(0.05, 0.05),
        )
        net = random_network(8, 3, 1, 0.8, vr)
        mats = CombinationMatrices(a1=np.eye(3), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        iters = 25
        opts = SimulationOptions(chunk_size=200, record_mean_error=True)
        curve = run_monte_carlo(net, mats, opts, runs=4000, iterations=iters,
                                rng_policy=RngPolicy(33))
        expected = literal_mean_recursion(net, mats, iters)
        for i in (0, 5, 24):
            resid = np.abs(curve.mean_error[i] - expected[i])
            assert np.all(resid <= 3.0 * curve.mean_error_stderr[i] + 1e-12)

    def test_all_divergent_runs_reported(self):
        net = single_node(m=1, sigma_v2=0.1, mu=25.0, w0=np.array([1.0 + 0j]))
        curve = run_monte_carlo(net, CombinationMatrices.identity(1),
                                SimulationOptions(), runs=3, iterations=400,
                                rng_policy=RngPolicy(0))
        assert curve.divergent_runs == 3
        assert np.all(np.isnan(curve.msd))

    def test_rotation_target_advances_each_iteration(self):
        net = single_node(m=2, sigma_v2=0.01, mu=0.1,
                          w0=np.array([1.0 + 1.0j, -1.0 - 1.0j]))
        net.weights = WeightTrajectory(mode="rotation", w0=net.weights.w0,
                                       omega=0.01)
        opts = SimulationOptions(record_trajectory=True)
        curve = run_monte_carlo(net, CombinationMatrices.identity(1), opts,
                                runs=2, iterations=10, rng_policy=RngPolicy(4))
        for i in range(10):
            expected = net.weights.w0 * np.exp(1j * 0.01 * (i + 1))
            assert np.allclose(curve.avg_target[i], expected, atol=1e-12)

    def test_random_walk_needs_r_eta(self):
        net = single_node()
        with pytest.raises(ValueError, match="r_eta"):
            run_monte_carlo(net, CombinationMatrices.identity(1),
                            SimulationOptions(mode="random_walk"),
                            runs=1, iterations=5, rng_policy=RngPolicy(0))

    def test_zero_iterations_rejected(self):
        net = single_node()
        with pytest.raises(ValueError, match="iterations"):
            run_monte_carlo(net, CombinationMatrices.identity(1),
                            SimulationOptions(), runs=1, iterations=0,
                            rng_policy=RngPolicy(0))

    def test_adaptive_slot_validated(self):
        net = single_node()
        with pytest.raises(ValueError, match="adaptive_slot"):
            run_monte_carlo(net, CombinationMatrices.identity(1),
                            SimulationOptions(adaptive_slot="a1"),
                            runs=1, iterations=5, rng_policy=RngPolicy(0))

    @pytest.mark.parametrize("field, value", [
        ("chunk_size", 0), ("chunk_size", -1), ("threads", 0), ("threads", -2),
    ])
    def test_bad_engine_option_rejected_by_name(self, field, value):
        net = single_node()
        with pytest.raises(ValueError, match=field):
            run_monte_carlo(net, CombinationMatrices.identity(1),
                            SimulationOptions(**{field: value}),
                            runs=1, iterations=5, rng_policy=RngPolicy(0))

    @pytest.mark.parametrize("nu", [np.nan, 0.0, 1.0, -0.5])
    def test_forgetting_factor_outside_unit_interval_rejected(self, nu):
        net = noisy_pair_network()
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        with pytest.raises(ValueError, match="nu must lie in"):
            run_monte_carlo(net, mats, SimulationOptions(adaptive_slot="a2", nu=nu),
                            runs=2, iterations=5, rng_policy=RngPolicy(0))


def block_case(target, m=2):
    """A 5-node noisy network with the given target, and data-sharing combination matrices."""
    net = random_network(11, 5, m, 0.6, NOISY_RANGES)
    eye, a = np.eye(m, dtype=complex), uniform(net.topology)
    net.weights = {
        "constant": WeightTrajectory(mode="constant", w0=net.weights.w0),
        "random_walk": WeightTrajectory(mode="random_walk", w0=net.weights.w0, r_eta=1e-3 * eye),
        "rotation": WeightTrajectory(mode="rotation", w0=net.weights.w0, omega=0.05),
    }[target]
    mats = CombinationMatrices(a1=a, c=a.T, a2=a)
    return net, mats


def assert_chunks_equal(net, mats, options, iterations, runs=(0, 1, 2), seed=4):
    """The block-wise chunk loop against the per-iteration oracle, key by key."""
    op = StepOperator(net, mats)
    mode = _resolve_mode(net, options.mode)
    got = _simulate_chunk(net, op, mode, options, RngPolicy(seed), list(runs), iterations)
    want = simulate_chunk(net, op, mode, options, RngPolicy(seed), list(runs), iterations)
    assert got.keys() == want.keys()
    for key in want:
        if want[key] is None:
            assert got[key] is None, key
        else:
            assert np.array_equal(got[key], want[key], equal_nan=True), key
    return want


class TestBlockMetrics:
    """The learning-curve metrics, reduced once per block, against one iteration at a time."""

    @pytest.mark.parametrize("iterations", [1, 31, 33, 256, 257, 300])
    @pytest.mark.parametrize("target, adaptive", [
        ("constant", False), ("random_walk", False), ("rotation", False), ("constant", True),
    ])
    def test_matches_per_iteration_metrics(self, target, adaptive, iterations):
        net, mats = block_case(target)
        options = SimulationOptions(adaptive_slot="a2" if adaptive else None,
                                    record_mean_error=True, record_trajectory=True)
        assert_chunks_equal(net, mats, options, iterations)

    @pytest.mark.parametrize("record_mean_error, record_trajectory",
                             [(False, False), (True, False), (False, True)])
    @pytest.mark.parametrize("m", [1, 3])
    def test_recordings_are_optional(self, record_mean_error, record_trajectory, m):
        net, mats = block_case("random_walk", m)
        options = SimulationOptions(record_mean_error=record_mean_error,
                                    record_trajectory=record_trajectory)
        assert_chunks_equal(net, mats, options, 300)

    def test_run_diverging_partway_through_a_block(self):
        net = single_node(m=2, sigma_v2=0.01, mu=1.0)
        options = SimulationOptions(record_mean_error=True, record_trajectory=True)
        want = assert_chunks_equal(net, CombinationMatrices.identity(1), options, 300,
                                   runs=range(4), seed=3)
        # runs 2 and 3 cross the threshold inside a block, runs 0 and 1 never do
        assert want["bad"].tolist() == [False, False, True, True]
        first = [int(np.argmax(~(want["msd"][r] <= 1e12))) for r in (2, 3)]
        assert all(0 < i % BLOCK < BLOCK - 1 for i in first), first

    def test_run_above_the_threshold_early_in_a_block_stays_divergent(self):
        # a stable node started far away: past the threshold on the first step only
        net = single_node(m=1, sigma_v2=0.01, mu=0.5, w0=[1e7])
        want = assert_chunks_equal(net, CombinationMatrices.identity(1), SimulationOptions(), 40,
                                   runs=range(2))
        assert want["bad"].all()
        assert (want["msd"][:, 0] > 1e12).all() and (want["msd"][:, BLOCK - 1] < 1e12).all()


@st.composite
def chunked_engine_case(draw):
    """A random valid network with one of the static or adaptive rule layouts.

    Regressor and link-noise covariances are isotropic or not, so noise is
    coloured both by a per-link scale and by the general matmul.
    """
    n, m = draw(st.integers(2, 6)), draw(st.integers(1, 2))
    # the largest step-sizes drawn from (0.01, 2.5) or (0.01, 4) make some or all runs diverge
    mu = draw(st.sampled_from([0.05, 0.5, 2.5, 4.0]))
    style = draw(st.sampled_from(["isotropic", "trace_normalized"]))
    ranges = VarianceRanges(**{**NOISY_RANGES.__dict__, "mu": (0.01, mu), "regressor_style": style})
    net = random_network(draw(st.integers(0, 2 ** 16)), n, m, 0.6, ranges)
    if m == 2 and draw(st.booleans()):
        mix = np.array([[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])  # PSD, eigenvalues 1 +- 0.71
        ln = net.link_noise
        ln.r_w, ln.r_psi, ln.r_u_link = ln.r_w @ mix, ln.r_psi @ mix, ln.r_u_link @ mix
    a, eye = uniform(net.topology), np.eye(n)
    layout = draw(st.sampled_from(["atc", "cta", "sharing", "adaptive"]))
    mats = {
        "atc": CombinationMatrices(a1=eye, c=eye, a2=a),
        "cta": CombinationMatrices(a1=a, c=eye, a2=eye),
        "sharing": CombinationMatrices(a1=a, c=a.T, a2=a),
        "adaptive": CombinationMatrices(a1=eye, c=eye, a2=a),
    }[layout]
    return net, mats, layout == "adaptive", draw(st.integers(2, 5)), draw(st.integers(0, 99))


@settings(max_examples=15, deadline=None)
@given(chunked_engine_case())
def test_chunking_and_threads_do_not_change_any_output(case):
    net, mats, adaptive, runs, seed = case

    def simulate(chunk_size, threads):
        opts = SimulationOptions(adaptive_slot="a2" if adaptive else None,
                                 record_mean_error=True, record_trajectory=True,
                                 chunk_size=chunk_size, threads=threads)
        return run_monte_carlo(net, mats, opts, runs=runs, iterations=30,
                               rng_policy=RngPolicy(seed))

    want = simulate(runs, 1)
    fields = ("msd", "emse", "mean_error", "mean_error_stderr", "avg_estimate")
    for chunk_size in range(1, runs + 1):
        for threads in (1, 2):
            got = simulate(chunk_size, threads)
            assert got.divergent_runs == want.divergent_runs
            for name in fields:
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


class TestSteadyStateLevel:
    def test_trailing_mean(self):
        values = np.concatenate([np.full(80, 5.0), np.full(20, 3.0)])
        assert steady_state_level(values) == pytest.approx(3.0)

    def test_rejects_unsettled_curve(self):
        values = np.ones(100)
        with pytest.raises(ValueError, match="too short"):
            steady_state_level(values, rho_b=0.999)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError, match="unstable"):
            steady_state_level(np.ones(100), rho_b=1.0)


class TestCsvOutput:
    def test_curve_round_trip(self, tmp_path):
        net = noisy_pair_network(seed=5, n=3)
        mats = CombinationMatrices(a1=np.eye(3), c=np.eye(3), a2=uniform(net.topology))
        curve = run_monte_carlo(net, mats, SimulationOptions(), runs=2,
                                iterations=10, rng_policy=RngPolicy(1))
        path = tmp_path / "curve.csv"
        curve_to_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert float(rows[3]["msd_linear"]) == curve.msd[3]
        assert float(rows[3]["msd_db"]) == curve.msd_db[3]
        assert int(rows[0]["divergent_runs"]) == 0

    def test_trajectory_round_trip(self, tmp_path):
        net = single_node(m=2, sigma_v2=0.01, mu=0.1)
        net.weights = WeightTrajectory(mode="rotation", w0=np.array([1 + 1j, -1 - 1j]),
                                       omega=0.002)
        opts = SimulationOptions(record_trajectory=True)
        curve = run_monte_carlo(net, CombinationMatrices.identity(1), opts,
                                runs=2, iterations=8, rng_policy=RngPolicy(2))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert float(rows[5]["true_re_1"]) == curve.avg_target[5, 0].real
        assert float(rows[5]["est_im_2"]) == curve.avg_estimate[5, 1].imag

    def test_trajectory_requires_recording(self, tmp_path):
        net = single_node()
        curve = run_monte_carlo(net, CombinationMatrices.identity(1),
                                SimulationOptions(), runs=1, iterations=5,
                                rng_policy=RngPolicy(0))
        with pytest.raises(ValueError, match="without trajectories"):
            trajectory_to_csv(curve, tmp_path / "t.csv")
