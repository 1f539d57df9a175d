import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from diffnet.combine import (
    matrices_from_rules,
    metropolis,
    relative_variance,
    relative_variance_gamma2,
    uniform,
    weights_from_gamma2,
)
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
from diffnet.theory import _block_diag, assemble_mean_dynamics, stability_report
from reference import AdaptiveWeightState, adaptive_update, neighbors


def chain3():
    return Topology.from_edges(3, [(0, 1), (1, 2)])


def random_topology(gen, n=6, p=0.4):
    while True:
        mask = gen.random((n, n)) < p
        upper = np.triu(mask, 1)
        topo = Topology(n, upper | upper.T | np.eye(n, dtype=bool))
        if topo.is_connected():
            return topo


class TestMetropolis:
    def test_chain_values(self):
        a = metropolis(chain3())
        # degrees including self: 2, 3, 2
        assert a[1, 0] == pytest.approx(1 / 3)
        assert a[0, 0] == pytest.approx(2 / 3)
        assert a[0, 1] == pytest.approx(1 / 3)
        assert a[2, 1] == pytest.approx(1 / 3)
        assert a[1, 1] == pytest.approx(1 / 3)

    def test_symmetric_hence_doubly_stochastic(self):
        gen = np.random.default_rng(0)
        for _ in range(10):
            topo = random_topology(gen)
            a = metropolis(topo)
            assert np.allclose(a, a.T)
            assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(a >= 0)
            assert np.all(a[~topo.adjacency] == 0)


class TestUniform:
    def test_chain_values(self):
        a = uniform(chain3())
        assert np.allclose(a[:, 0], [0.5, 0.5, 0.0])
        assert np.allclose(a[:, 1], [1 / 3, 1 / 3, 1 / 3])

    def test_left_stochastic(self):
        gen = np.random.default_rng(1)
        for _ in range(10):
            a = uniform(random_topology(gen))
            assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)


def make_profiles(topo, gen, m=2, psi_scale=1.0):
    n = topo.n_nodes
    nodes = NodeProfile(
        m_dim=m,
        r_u=np.stack([np.eye(m, dtype=complex) * gen.uniform(0.5, 2.0) for _ in range(n)]),
        sigma_v2=gen.uniform(0.01, 0.1, n),
        mu=np.full(n, 0.01),
    )
    n_links = len(topo.link_table())
    ln = LinkNoiseProfile.zeros(n_links, m)
    ln.r_psi = np.stack([np.eye(m, dtype=complex) * gen.uniform(1e-3, 2e-2) * psi_scale
                         for _ in range(n_links)])
    return nodes, ln


class TestRelativeVarianceGamma2:
    def test_two_node_arithmetic(self):
        topo = Topology.from_edges(2, [(0, 1)])
        nodes = NodeProfile(
            m_dim=2,
            r_u=np.stack([2.0 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)]),
            sigma_v2=np.array([0.1, 0.4]),
            mu=np.array([0.1, 0.2]),
        )
        ln = LinkNoiseProfile.zeros(2, 2)
        ln.r_psi[0] = 0.05 * np.eye(2)  # link 2 -> 1
        ln.r_psi[1] = 0.20 * np.eye(2)  # link 1 -> 2
        g2 = relative_variance_gamma2(topo, nodes, ln)
        own0 = 0.1 ** 2 * 0.1 * 4.0   # mu^2 sigma_v^2 tr(R_u) = 0.004
        own1 = 0.2 ** 2 * 0.4 * 1.0   # 0.016
        assert g2[0, 0] == pytest.approx(own0)
        assert g2[1, 1] == pytest.approx(own1)
        assert g2[1, 0] == pytest.approx(own1 + 0.10)  # sender 1's own + tr(r_psi)
        assert g2[0, 1] == pytest.approx(own0 + 0.40)

    def test_zero_off_neighborhood(self):
        gen = np.random.default_rng(2)
        topo = random_topology(gen)
        nodes, ln = make_profiles(topo, gen)
        g2 = relative_variance_gamma2(topo, nodes, ln)
        assert np.all(g2[~topo.adjacency] == 0)


def random_simplex_points(gen, dim, count):
    g = gen.exponential(size=(count, dim))
    return g / g.sum(axis=1, keepdims=True)


class TestWeightsFromGamma2:
    def test_solves_the_simplex_qp(self):
        # the weights minimize sum_l a_l^2 gamma_l^2 over the probability
        # simplex: check the KKT conditions (positive weights with a common
        # gradient 2 gamma_l^2 a_l) and dominance over random feasible points
        gen = np.random.default_rng(3)
        for trial in range(50):
            topo = random_topology(gen, n=5)
            nodes, ln = make_profiles(topo, gen)
            g2 = relative_variance_gamma2(topo, nodes, ln)
            a = weights_from_gamma2(topo, g2)
            for k in range(topo.n_nodes):
                nbrs = neighbors(topo, k)
                gam = g2[nbrs, k]
                ours = a[nbrs, k]
                assert ours.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(ours > 0)
                grad = 2.0 * gam * ours
                assert np.ptp(grad) <= 1e-10 * grad.max()
                obj_ours = np.sum(ours ** 2 * gam)
                for cand in random_simplex_points(gen, len(gam), 200):
                    assert obj_ours <= np.sum(cand ** 2 * gam) + 1e-12

    def test_scale_invariance(self):
        gen = np.random.default_rng(4)
        topo = random_topology(gen)
        nodes, ln = make_profiles(topo, gen)
        g2 = relative_variance_gamma2(topo, nodes, ln)
        a1 = weights_from_gamma2(topo, g2)
        a2 = weights_from_gamma2(topo, 7.3 * g2)
        assert np.allclose(a1, a2, atol=1e-14)

    def test_single_zero_entry_takes_all_weight(self):
        topo = chain3()
        g2 = np.zeros((3, 3))
        g2[0, 0] = 0.0
        g2[1, 0] = 2.0
        g2[0, 1] = 1.0
        g2[1, 1] = 1.0
        g2[2, 1] = 1.0
        g2[1, 2] = 3.0
        g2[2, 2] = 4.0
        a = weights_from_gamma2(topo, g2)
        assert a[0, 0] == 1.0
        assert a[1, 0] == 0.0

    def test_ties_between_zeros_split_evenly(self):
        topo = chain3()
        g2 = np.ones((3, 3))
        g2[0, 1] = 0.0
        g2[2, 1] = 0.0
        a = weights_from_gamma2(topo, g2)
        assert a[0, 1] == 0.5
        assert a[2, 1] == 0.5
        assert a[1, 1] == 0.0

    def test_columns_stochastic(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            topo = random_topology(gen)
            nodes, ln = make_profiles(topo, gen)
            a = relative_variance(topo, nodes, ln)
            assert np.allclose(a.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(a >= 0)
            assert np.all(a[~topo.adjacency] == 0)


@st.composite
def topology_and_seed(draw):
    """Any symmetric pattern on 1..10 nodes (isolated nodes included) and a data seed."""
    n = draw(st.integers(1, 10))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(bits, dtype=bool).reshape(n, n), k=1)
    return Topology(n, upper | upper.T | np.eye(n, dtype=bool)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(topology_and_seed())
def test_rules_and_theory_blocks_match_per_node_oracles(case):
    topo, seed = case
    gen = np.random.default_rng(seed)
    n = topo.n_nodes
    assert uniform(topo).tobytes() == reference.uniform(topo).tobytes()
    assert np.max(np.abs(metropolis(topo) - reference.metropolis(topo))) <= 1e-14

    # per column: no zeros, some zeros, or an all-zero neighborhood; NaN off the
    # pattern shows that those entries are never read
    zero_rate = gen.choice([0.0, 0.4, 1.0], size=n)
    gamma2 = gen.uniform(1e-3, 2.0, (n, n)) * (gen.random((n, n)) >= zero_rate)
    gamma2[~topo.adjacency] = np.nan
    got = weights_from_gamma2(topo, gamma2)
    assert np.max(np.abs(got - reference.weights_from_gamma2(topo, gamma2))) <= 1e-14

    m = 2
    g = gen.standard_normal((n, m, 2 * m)) + 1j * gen.standard_normal((n, m, 2 * m))
    n_links = len(topo.link_table())
    ln = LinkNoiseProfile.zeros(n_links, m)
    ln.r_u_link = gen.uniform(0.0, 0.1, n_links)[:, None, None] * np.eye(m, dtype=complex)
    net = NetworkModel(
        topology=topo,
        nodes=NodeProfile(m_dim=m, r_u=g @ g.conj().swapaxes(1, 2) / (2 * m),
                          sigma_v2=gen.uniform(0.01, 0.1, n), mu=gen.uniform(0.01, 0.8, n)),
        link_noise=ln,
        weights=WeightTrajectory(mode="constant", w0=np.ones(m, dtype=complex)),
    )
    mats = CombinationMatrices(a1=np.eye(n), c=uniform(topo).T, a2=metropolis(topo))
    md = assemble_mean_dynamics(net, mats)
    assert abs(stability_report(md).rho_spectral_bound - reference.rho_spectral_bound(net, md)) <= 1e-14
    want = np.zeros((n * m, n * m), dtype=complex)
    for k in range(n):
        want[k * m:(k + 1) * m, k * m:(k + 1) * m] = md.r_prime[k]
    assert np.array_equal(_block_diag(md.r_prime), want)


class TestAdaptiveRule:
    def test_initial_state(self):
        state = AdaptiveWeightState.initial(chain3(), 0.05)
        assert np.all(state.gamma2_self == 1.0)
        assert np.all(state.gamma2_link == 1.0)
        assert state.links == list(chain3().link_table())

    def test_forgetting_factor_range(self):
        with pytest.raises(ValueError):
            AdaptiveWeightState.initial(chain3(), 0.0)
        with pytest.raises(ValueError):
            AdaptiveWeightState.initial(chain3(), 1.5)
        AdaptiveWeightState.initial(chain3(), 1.0)  # closed at one

    def test_nu_one_uses_instantaneous_powers(self):
        topo = Topology.from_edges(2, [(0, 1)])
        state = AdaptiveWeightState.initial(topo, 1.0)
        w_prev = np.zeros(2, dtype=complex)
        psi = np.array([[1.0 + 0j, 0.0], [2.0 + 0j, 0.0]])  # powers 1 and 4
        state, col = adaptive_update(state, topo, 0, psi, w_prev)
        assert col[0] == pytest.approx(0.8)   # (1/1) / (1/1 + 1/4)
        assert col[1] == pytest.approx(0.2)
        assert state.gamma2_self[0] == pytest.approx(1.0)

    def test_update_is_exponential_smoothing(self):
        topo = Topology.from_edges(2, [(0, 1)])
        state = AdaptiveWeightState.initial(topo, 0.25)
        psi = np.array([[1.0 + 0j, 0.0], [3.0 + 0j, 0.0]])
        new, _ = adaptive_update(state, topo, 0, psi, np.zeros(2, dtype=complex))
        assert new.gamma2_self[0] == pytest.approx(0.75 * 1.0 + 0.25 * 1.0)
        p = state.links.index((1, 0))
        assert new.gamma2_link[p] == pytest.approx(0.75 * 1.0 + 0.25 * 9.0)
        # the input state must be untouched
        assert state.gamma2_link[p] == 1.0

    def test_column_zero_off_neighborhood(self):
        topo = chain3()
        state = AdaptiveWeightState.initial(topo, 0.1)
        psi = np.ones((2, 2), dtype=complex)
        _, col = adaptive_update(state, topo, 0, psi, np.zeros(2, dtype=complex))
        assert col[2] == 0.0
        assert col.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("k", [-1, 3])
    def test_node_outside_the_network_rejected(self, k):
        topo = chain3()
        state = AdaptiveWeightState.initial(topo, 0.1)
        psi = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="outside"):
            adaptive_update(state, topo, k, psi, np.zeros(2, dtype=complex))

    def test_shape_mismatch_rejected(self):
        topo = chain3()
        state = AdaptiveWeightState.initial(topo, 0.1)
        with pytest.raises(ValueError, match="psi_received"):
            adaptive_update(state, topo, 1, np.ones((2, 2), dtype=complex),
                            np.zeros(2, dtype=complex))

    def test_time_average_tracks_inverse_noise_powers(self):
        # node 0 sees deviation power 1 from itself and 3 from its neighbor;
        # long-run average weights approach (3/4, 1/4)
        topo = Topology.from_edges(2, [(0, 1)])
        state = AdaptiveWeightState.initial(topo, 0.05)
        gen = np.random.default_rng(0)
        w_prev = np.zeros(2, dtype=complex)
        cols = []
        for _ in range(5000):
            z = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))) / np.sqrt(2)
            psi = z * np.array([[np.sqrt(0.5)], [np.sqrt(1.5)]])
            state, col = adaptive_update(state, topo, 0, psi, w_prev)
            cols.append(col)
        avg = np.mean(cols[1000:], axis=0)
        assert abs(avg[0] - 0.75) < 0.05
        assert abs(avg[1] - 0.25) < 0.05


def make_network(seed=0):
    vr = VarianceRanges(sigma_psi2=(1e-3, 2e-2))
    return random_network(seed, 5, 2, 0.5, vr)


class TestMatricesFromRules:
    def test_identity_default(self):
        net = make_network()
        mats, adaptive = matrices_from_rules(net, {})
        assert not adaptive
        assert np.array_equal(mats.a1, np.eye(5))
        assert np.array_equal(mats.c, np.eye(5))
        assert np.array_equal(mats.a2, np.eye(5))

    def test_named_rules(self):
        net = make_network()
        mats, adaptive = matrices_from_rules(
            net, {"a1": "metropolis", "c": "identity", "a2": "relative_variance"})
        assert not adaptive
        assert np.allclose(mats.a1, metropolis(net.topology))
        assert np.allclose(mats.a2,
                           relative_variance(net.topology, net.nodes, net.link_noise))

    def test_uniform_for_c_is_row_stochastic(self):
        net = make_network()
        mats, _ = matrices_from_rules(net, {"c": "uniform"})
        assert np.allclose(mats.c.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(mats.c, uniform(net.topology).T)

    def test_relative_variance_rejected_for_c(self):
        with pytest.raises(ValueError, match="not defined for the data-sharing slot"):
            matrices_from_rules(make_network(), {"c": "relative_variance"})

    def test_adaptive_only_in_a2(self):
        net = make_network()
        mats, adaptive = matrices_from_rules(net, {"a2": "adaptive"})
        assert adaptive
        assert np.allclose(mats.a2, uniform(net.topology))
        with pytest.raises(ValueError, match="a2 slot only"):
            matrices_from_rules(net, {"a1": "adaptive"})

    def test_file_selector(self, tmp_path):
        net = make_network()
        mat = uniform(net.topology)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(mat.tolist()))
        mats, _ = matrices_from_rules(net, {"a2": f"file:{path}"})
        assert np.allclose(mats.a2, mat)

    def test_file_selector_relative_to_base_dir(self, tmp_path):
        net = make_network()
        mat = metropolis(net.topology)
        (tmp_path / "m.json").write_text(json.dumps(mat.tolist()))
        mats, _ = matrices_from_rules(net, {"a1": "file:m.json"}, base_dir=tmp_path)
        assert np.allclose(mats.a1, mat)

    def test_file_wrong_shape_rejected(self, tmp_path):
        net = make_network()
        (tmp_path / "bad.json").write_text(json.dumps(np.eye(3).tolist()))
        with pytest.raises(ValueError, match="shape"):
            matrices_from_rules(net, {"a1": "file:bad.json"}, base_dir=tmp_path)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown combination rule"):
            matrices_from_rules(make_network(), {"a2": "median"})
