import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.network import (
    WEIGHT_MODES,
    CombinationMatrices,
    LinkNoiseProfile,
    NetworkModel,
    NodeProfile,
    Topology,
    VarianceRanges,
    WeightTrajectory,
    load_network,
    network_from_dict,
    network_to_dict,
    random_network,
    save_network,
    validate,
)
from reference import degree, neighbors, network_from_dict_per_entry
from test_input_fuzz import mutate, paths_by_depth


def chain3():
    return Topology.from_edges(3, [(0, 1), (1, 2)])


def make_network(topo, m_dim=2, sigma_v2=0.05, mu=0.01, mode="constant"):
    n = topo.n_nodes
    nodes = NodeProfile(
        m_dim=m_dim,
        r_u=np.stack([np.eye(m_dim, dtype=complex)] * n),
        sigma_v2=np.full(n, sigma_v2),
        mu=np.full(n, mu),
    )
    weights = WeightTrajectory(mode=mode, w0=np.ones(m_dim, dtype=complex))
    if mode == "random_walk":
        weights.r_eta = 1e-6 * np.eye(m_dim, dtype=complex)
    if mode == "rotation":
        weights.omega = 0.001
    ln = LinkNoiseProfile.zeros(len(topo.link_table()), m_dim)
    return NetworkModel(topology=topo, nodes=nodes, link_noise=ln, weights=weights)


class TestTopology:
    def test_neighbors_include_self_and_are_sorted(self):
        topo = chain3()
        assert neighbors(topo, 0).tolist() == [0, 1]
        assert neighbors(topo, 1).tolist() == [0, 1, 2]
        assert neighbors(topo, 2).tolist() == [1, 2]

    def test_degree_counts_self(self):
        topo = chain3()
        assert [degree(topo, k) for k in range(3)] == [2, 3, 2]

    def test_cross_edges_lower_pairs(self):
        assert chain3().cross_edges() == [(0, 1), (1, 2)]

    def test_connectivity(self):
        assert chain3().is_connected()
        disconnected = Topology.from_edges(3, [(0, 1)])
        assert not disconnected.is_connected()

    @pytest.mark.parametrize("edge", [(-1, 0), (0, -3), (3, 1), (1, 7)])
    def test_from_edges_rejects_nodes_outside_the_network(self, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\).*outside 0\.\.2"):
            Topology.from_edges(3, [edge])


def test_link_index_groups_by_receiver():
    # receivers ascending, senders ascending within each receiver
    assert list(chain3().link_table()) == [(1, 0), (0, 1), (2, 1), (1, 2)]


def test_link_index_excludes_self_links():
    topo = Topology.from_edges(2, [(0, 1)])
    assert list(topo.link_table()) == [(1, 0), (0, 1)]


def loop_link_index(adjacency):
    """The canonical link order as a plain loop: receivers ascend, then senders."""
    n = len(adjacency)
    return [(l, k) for k in range(n) for l in range(n) if l != k and adjacency[l, k]]


def search_connected(adjacency):
    """Connectivity as a depth-first search from node 0 along adjacency[l, k], from k to l."""
    seen, stack = {0}, [0]
    while stack:
        k = stack.pop()
        for l in np.flatnonzero(adjacency[:, k]).tolist():
            if l not in seen:
                seen.add(l)
                stack.append(l)
    return len(seen) == len(adjacency)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2 ** 16))
def test_connectivity_sweep_matches_a_depth_first_search(n, density, seed):
    """Any boolean matrix: validate also asks about asymmetric ones and missing self-loops."""
    adj = np.random.default_rng(seed).random((n, n)) < density
    assert Topology(n, adj).is_connected() == search_connected(adj)


@st.composite
def symmetric_adjacency(draw):
    n = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(bits, dtype=bool).reshape(n, n), k=1)
    return upper | upper.T | np.eye(n, dtype=bool)


@settings(max_examples=80, deadline=None)
@given(symmetric_adjacency())
def test_link_table_matches_loop_order_and_survives_json(adj):
    n = len(adj)
    topo = Topology(n, adj)
    table = topo.link_table()
    want = loop_link_index(adj)
    assert list(table) == want
    assert table.starts[0] == 0 and table.starts[-1] == len(want)
    for k in range(n):
        assert np.all(table.dst[table.starts[k]:table.starts[k + 1]] == k)
    expected_slot = np.full((n, n), -1)
    for p, (l, k) in enumerate(want):
        expected_slot[l, k] = p
    assert np.array_equal(table.slot, expected_slot)

    # every link-noise row is distinct, so a row landing on another link shows
    net = make_network(topo)
    assert net.links == want
    scale = 1.0 + np.arange(len(want))
    eye = np.eye(2, dtype=complex)
    net.link_noise = LinkNoiseProfile(r_w=scale[:, None, None] * eye, sigma_d2=2.0 * scale,
                                      r_u_link=3.0 * scale[:, None, None] * eye,
                                      r_psi=4.0 * scale[:, None, None] * eye)
    back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
    for field in ("r_w", "sigma_d2", "r_u_link", "r_psi"):
        assert np.array_equal(getattr(back.link_noise, field), getattr(net.link_noise, field))


@settings(max_examples=60, deadline=None)
@given(symmetric_adjacency(), st.integers(0, 2 ** 16))
def test_segment_sum_adds_each_receivers_in_links(adj, seed):
    """Isolated nodes anywhere (the last one puts starts[k] == L) and the zero-link network."""
    table = Topology(len(adj), adj).link_table()
    gen = np.random.default_rng(seed)
    links = gen.standard_normal((3, len(table), 2)) + 1j * gen.standard_normal((3, len(table), 2))
    want = np.zeros((3, len(adj), 2), dtype=complex)
    for p, (_, k) in enumerate(table):
        want[:, k] += links[:, p]
    got = table.segment_sum(links, axis=-2)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    assert np.array_equal(table.segment_sum(links[..., 0]), got[..., 0])
    # a batch row sums exactly as it does alone, so run chunking cannot change the bits
    for row in range(3):
        assert table.segment_sum(links[row], axis=-2).tobytes() == got[row].tobytes()


@pytest.mark.parametrize("edges, isolated", [
    ([(1, 2), (2, 3)], 0), ([(0, 1), (1, 3), (0, 3)], 2), ([(0, 1), (1, 2)], 3),
])
def test_segment_sum_zeroes_nodes_without_in_links(edges, isolated):
    topo = Topology.from_edges(4, edges)
    sums = topo.link_table().segment_sum(np.ones((5, 2 * len(edges))))
    assert np.all(sums[:, isolated] == 0.0)
    assert np.array_equal(sums[0], [degree(topo, k) - 1 for k in range(4)])


class TestValidate:
    def test_clean_network_passes(self):
        rep = validate(make_network(chain3()))
        assert rep.ok
        assert str(rep) == "ok"

    def test_column_sum_message(self):
        net = make_network(chain3())
        a1 = np.eye(3)
        a1[0, 0] = 0.9
        rep = validate(net, CombinationMatrices(a1=a1, c=np.eye(3), a2=np.eye(3)))
        assert not rep.ok
        assert "A1 column 1 sums to 0.9000" in str(rep)

    def test_row_stochastic_check_for_c(self):
        net = make_network(chain3())
        c = np.eye(3)
        c[2, 2] = 1.3
        rep = validate(net, CombinationMatrices(a1=np.eye(3), c=c, a2=np.eye(3)))
        assert any("C row 3" in v for v in rep.violations)

    def test_sparsity_pattern_enforced(self):
        net = make_network(chain3())
        a2 = np.eye(3)
        a2[0, 2] = 0.1  # 0 and 2 are not neighbors in the chain
        a2[2, 2] = 0.9
        rep = validate(net, CombinationMatrices(a1=np.eye(3), c=np.eye(3), a2=a2))
        assert any("outside the neighborhood" in v for v in rep.violations)

    def test_missing_self_loop(self):
        topo = chain3()
        topo.adjacency[1, 1] = False
        rep = validate(make_network(topo))
        assert any("missing self-loops" in v and "[2]" in v for v in rep.violations)

    def test_asymmetric_adjacency(self):
        topo = chain3()
        topo.adjacency[0, 1] = False
        rep = validate(make_network(chain3()))
        topo_net = make_network(chain3())
        topo_net.topology.adjacency[0, 1] = False
        rep = validate(topo_net)
        assert any("not symmetric" in v for v in rep.violations)

    def test_non_psd_covariance(self):
        net = make_network(chain3())
        net.nodes.r_u[1] = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        rep = validate(net)
        assert any("node 2" in v and "positive semi-definite" in v for v in rep.violations)

    def test_non_hermitian_covariance(self):
        net = make_network(chain3())
        net.nodes.r_u[0] = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        rep = validate(net)
        assert any("node 1" in v and "Hermitian" in v for v in rep.violations)

    def test_negative_noise_variance(self):
        net = make_network(chain3())
        net.nodes.sigma_v2[2] = -0.1
        rep = validate(net)
        assert any("nodes [3]" in v and "negative" in v for v in rep.violations)

    def test_nonpositive_step_size(self):
        net = make_network(chain3())
        net.nodes.mu[0] = 0.0
        rep = validate(net)
        assert any("non-positive step-size" in v for v in rep.violations)

    def test_disconnected_topology(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)])
        rep = validate(make_network(topo))
        assert any("not connected" in v for v in rep.violations)

    def test_random_walk_needs_r_eta(self):
        net = make_network(chain3(), mode="random_walk")
        net.weights.r_eta = None
        rep = validate(net)
        assert any("requires r_eta" in v for v in rep.violations)

    def test_rotation_needs_omega(self):
        net = make_network(chain3(), mode="rotation")
        net.weights.omega = None
        rep = validate(net)
        assert any("requires omega" in v for v in rep.violations)

    def test_link_noise_shape_mismatch(self):
        net = make_network(chain3())
        net.link_noise = LinkNoiseProfile.zeros(1, 2)  # chain has 4 directed links
        rep = validate(net)
        assert any("link_noise" in v for v in rep.violations)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mu", "sigma_v2", "r_u"])
    def test_non_finite_node_statistics(self, field, bad):
        net = make_network(chain3())
        getattr(net.nodes, field)[1] = bad
        rep = validate(net)
        assert any(v.startswith(f"{field} is not finite") and "nodes [2]" in v
                   for v in rep.violations)

    @pytest.mark.parametrize("field", ["r_w", "sigma_d2", "r_u_link", "r_psi"])
    def test_non_finite_link_noise(self, field):
        net = make_network(chain3())
        getattr(net.link_noise, field)[2] = np.nan
        l, k = net.links[2]
        rep = validate(net)
        assert any(v.startswith(f"link_noise.{field} is not finite")
                   and f"{l + 1}->{k + 1}" in v for v in rep.violations)

    def test_non_finite_target(self):
        net = make_network(chain3(), mode="random_walk")
        net.weights.w0[0] = np.inf
        net.weights.r_eta[0, 0] = np.nan
        rep = validate(net)
        assert any(v.startswith("w0 is not finite") for v in rep.violations)
        assert any(v.startswith("r_eta is not finite") for v in rep.violations)

    def test_target_statistics_checked_in_any_mode(self):
        net = make_network(chain3())
        net.weights.r_eta = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        net.weights.omega = np.inf
        rep = validate(net)
        assert any(v.startswith("r_eta") for v in rep.violations)
        assert any(v.startswith("omega is not finite") for v in rep.violations)

    def test_non_finite_rotation_rate(self):
        net = make_network(chain3(), mode="rotation")
        net.weights.omega = np.nan
        rep = validate(net)
        assert any(v.startswith("omega is not finite") for v in rep.violations)


NOISY_RANGES = VarianceRanges(
    sigma_u2=(0.5, 2.0),
    sigma_v2=(0.01, 0.1),
    sigma_w2=(5e-4, 2e-2),
    sigma_d2=(5e-4, 2e-2),
    sigma_u_link2=(5e-4, 2e-2),
    sigma_psi2=(5e-4, 2e-2),
)


class TestRandomNetwork:
    def test_deterministic_in_seed(self):
        a = random_network(42, 8, 2, 0.3, NOISY_RANGES)
        b = random_network(42, 8, 2, 0.3, NOISY_RANGES)
        assert np.array_equal(a.topology.adjacency, b.topology.adjacency)
        assert np.array_equal(a.nodes.r_u, b.nodes.r_u)
        assert np.array_equal(a.nodes.sigma_v2, b.nodes.sigma_v2)
        assert np.array_equal(a.link_noise.r_psi, b.link_noise.r_psi)
        assert np.array_equal(a.weights.w0, b.weights.w0)

    def test_different_seeds_differ(self):
        a = random_network(1, 8, 2, 0.3, NOISY_RANGES)
        b = random_network(2, 8, 2, 0.3, NOISY_RANGES)
        assert not np.array_equal(a.nodes.sigma_v2, b.nodes.sigma_v2)

    @pytest.mark.parametrize("seed", range(100))
    def test_always_validates(self, seed):
        net = random_network(seed, 6, 2, 0.3, NOISY_RANGES)
        assert validate(net).ok

    def test_trace_normalized_regressors(self):
        vr = VarianceRanges(regressor_style="trace_normalized")
        net = random_network(3, 5, 3, 0.5, vr)
        traces = np.einsum("kmm->k", net.nodes.r_u).real
        assert np.allclose(traces, 1.0, atol=1e-12)
        assert validate(net).ok

    def test_unknown_regressor_style_rejected(self):
        with pytest.raises(ValueError, match="regressor_style"):
            random_network(0, 4, 2, 0.5, VarianceRanges(regressor_style="banana"))


class TestJsonRoundTrip:
    def test_dict_round_trip_is_exact(self):
        net = random_network(7, 6, 2, 0.4, NOISY_RANGES)
        back = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert np.array_equal(back.topology.adjacency, net.topology.adjacency)
        assert np.array_equal(back.nodes.r_u, net.nodes.r_u)
        assert np.array_equal(back.nodes.sigma_v2, net.nodes.sigma_v2)
        assert np.array_equal(back.nodes.mu, net.nodes.mu)
        assert np.array_equal(back.link_noise.r_w, net.link_noise.r_w)
        assert np.array_equal(back.link_noise.sigma_d2, net.link_noise.sigma_d2)
        assert np.array_equal(back.link_noise.r_u_link, net.link_noise.r_u_link)
        assert np.array_equal(back.link_noise.r_psi, net.link_noise.r_psi)
        assert np.array_equal(back.weights.w0, net.weights.w0)

    def test_file_round_trip(self, tmp_path):
        net = random_network(11, 5, 2, 0.5, NOISY_RANGES)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert np.array_equal(back.nodes.r_u, net.nodes.r_u)
        assert np.array_equal(back.link_noise.r_psi, net.link_noise.r_psi)

    def test_zero_links_are_omitted_and_restored(self):
        net = make_network(chain3())
        data = network_to_dict(net)
        assert data["links"] == []
        back = network_from_dict(data)
        ln = back.link_noise
        assert not (ln.r_w.any() or ln.sigma_d2.any() or ln.r_u_link.any() or ln.r_psi.any())
        assert back.link_noise.r_w.shape == net.link_noise.r_w.shape

    def test_one_based_indices_on_disk(self):
        net = make_network(chain3())
        net.link_noise.sigma_d2[0] = 0.01  # first directed link is node 2 -> node 1
        data = network_to_dict(net)
        assert data["edges"] == [[1, 2], [2, 3]]
        assert data["links"][0]["from"] == 2
        assert data["links"][0]["to"] == 1

    def test_random_walk_weights_round_trip(self):
        net = make_network(chain3(), mode="random_walk")
        back = network_from_dict(network_to_dict(net))
        assert back.weights.mode == "random_walk"
        assert np.array_equal(back.weights.r_eta, net.weights.r_eta)

    def test_rotation_weights_round_trip(self):
        net = make_network(chain3(), mode="rotation")
        back = network_from_dict(network_to_dict(net))
        assert back.weights.omega == net.weights.omega

    def test_target_statistics_kept_in_any_mode(self):
        net = make_network(chain3())
        net.weights.r_eta = 1e-6 * np.eye(2, dtype=complex)
        net.weights.omega = 0.002
        back = network_from_dict(network_to_dict(net))
        assert back.weights.mode == "constant"
        assert np.array_equal(back.weights.r_eta, net.weights.r_eta)
        assert back.weights.omega == net.weights.omega

    def test_unknown_link_entry_rejected(self):
        data = network_to_dict(make_network(chain3()))
        data["links"] = [{
            "from": 1, "to": 3,  # not an edge
            "r_w": [[0.0, 0.0]] * 4, "sigma_d2": 0.0,
            "r_u_link": [[0.0, 0.0]] * 4, "r_psi": [[0.0, 0.0]] * 4,
        }]
        with pytest.raises(ValueError, match="not an edge"):
            network_from_dict(data)

    @pytest.mark.parametrize("edge", [[0, 1], [5, 2], [2, -1]])
    def test_edge_endpoint_outside_the_network_rejected(self, edge):
        data = network_to_dict(make_network(chain3()))
        data["edges"].append(edge)
        with pytest.raises(ValueError, match=rf"edge \[{edge[0]}, {edge[1]}\].*outside 1\.\.3"):
            network_from_dict(data)

    def test_link_entry_endpoint_outside_the_network_rejected(self):
        data = network_to_dict(make_network(chain3()))
        data["links"] = [{
            "from": 0, "to": 2,  # node 0 would wrap around to node 3, an edge of 2
            "r_w": [[0.0, 0.0]] * 4, "sigma_d2": 0.0,
            "r_u_link": [[0.0, 0.0]] * 4, "r_psi": [[0.0, 0.0]] * 4,
        }]
        with pytest.raises(ValueError, match=r"link entry 0->2.*outside 1\.\.3"):
            network_from_dict(data)

    @pytest.mark.parametrize("field, value, message", [
        ("edges", [1.7, 3], r"edge \[1\.7, 3\] endpoint must be a whole number, got 1\.7"),
        ("edges", [2, 2.5], r"edge \[2, 2\.5\] endpoint must be a whole number, got 2\.5"),
        ("link", {"from": 2.5, "to": 1}, r"link entry 2\.5->1 endpoint must be a whole number"),
        ("link", {"from": 2, "to": 0.5}, r"link entry 2->0\.5 endpoint must be a whole number"),
        ("n_nodes", 3.9, r"n_nodes must be a whole number, got 3\.9"),
        ("m_dim", 2.5, r"m_dim must be a whole number, got 2\.5"),
        ("n_nodes", "three", r"n_nodes must be a whole number, got 'three'"),
        ("edges", [1, 10 ** 400], r"edge \[1, 1000\d+\] endpoint must be a whole number"),
        ("link", {"from": 10 ** 400, "to": 1}, r"link entry 1000\d+->1 endpoint must be a whole"),
    ], ids=["edge-from", "edge-to", "link-from", "link-to", "n_nodes", "m_dim", "n_nodes-text",
            "edge-too-large", "link-too-large"])
    def test_non_integral_index_rejected(self, field, value, message):
        data = network_to_dict(make_network(chain3()))
        if field == "edges":
            data["edges"].append(value)
        elif field == "link":
            data["links"] = [{**value, "r_w": [[0.0, 0.0]] * 4, "sigma_d2": 0.0,
                              "r_u_link": [[0.0, 0.0]] * 4, "r_psi": [[0.0, 0.0]] * 4}]
        else:
            data[field] = value
        with pytest.raises(ValueError, match=message):
            network_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("n_nodes", 0), ("n_nodes", -1), ("m_dim", 0), ("m_dim", -2),
    ])
    def test_nonpositive_size_rejected_by_name(self, field, value):
        data = network_to_dict(make_network(chain3()))
        data[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be at least 1, got {value}$"):
            network_from_dict(data)

    def test_whole_float_indices_load(self):
        data = network_to_dict(make_network(chain3()))
        data["n_nodes"] = 3.0
        data["edges"] = [[1.0, 2], [2, 3.0]]
        assert network_from_dict(data).topology.cross_edges() == [(0, 1), (1, 2)]

    def test_unknown_mode_rejected(self):
        data = network_to_dict(make_network(chain3()))
        data["weights"]["mode"] = "spiral"
        with pytest.raises(ValueError, match="unknown weight mode"):
            network_from_dict(data)

    def test_link_entry_given_twice_rejected(self):
        net = make_network(chain3())
        net.link_noise.sigma_d2[:] = 0.01
        data = network_to_dict(net)
        data["links"].append({**data["links"][0], "sigma_d2": 0.02})
        with pytest.raises(ValueError, match=r"^link entry 2->1 is given twice$"):
            network_from_dict(data)


@st.composite
def network_files(draw):
    """The file of a random network: N up to 40, noise on every link, any target mode."""
    m = draw(st.integers(1, 3))
    ranges = dataclasses.replace(NOISY_RANGES, regressor_style=draw(
        st.sampled_from(["isotropic", "trace_normalized"])))
    net = random_network(draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 40)), m,
                         draw(st.sampled_from([0.15, 0.3, 0.6])), ranges)
    mode = draw(st.sampled_from(WEIGHT_MODES))
    net.weights = WeightTrajectory(
        mode=mode, w0=net.weights.w0,
        r_eta=1e-4 * np.eye(m, dtype=complex) if mode == "random_walk" else None,
        omega=0.01 if mode == "rotation" else None)
    return json.loads(json.dumps(network_to_dict(net)))


def assert_same_network(got, want, finite_only=False):
    """Equal target mode and arrays; with ``finite_only``, arrays equal in which entries are
    finite and in those entries."""
    def arrays(net):
        ln, w = net.link_noise, net.weights
        return [net.topology.adjacency, net.nodes.r_u, net.nodes.sigma_v2, net.nodes.mu, ln.r_w,
                ln.sigma_d2, ln.r_u_link, ln.r_psi, w.w0,
                *(np.asarray(value) for value in (w.r_eta, w.omega) if value is not None)]

    def target(net):
        return net.weights.mode, net.weights.r_eta is None, net.weights.omega is None

    assert target(got) == target(want)
    for a, b in zip(arrays(got), arrays(want)):
        assert a.dtype == b.dtype
        if finite_only:
            finite = np.isfinite(a)
            assert np.array_equal(finite, np.isfinite(b))
            a, b = a[finite], b[finite]
        assert np.array_equal(a, b)


def outcome(read, data):
    """The network ``read`` makes of ``data``, or the type and message of what it raises."""
    try:
        return read(data), None
    except Exception as exc:  # the oracle decides which exceptions are right
        return None, (type(exc), str(exc))


class TestBulkReader:
    """``network_from_dict`` against the per-entry reader of ``reference``."""

    @settings(max_examples=40, deadline=None)
    @given(network_files())
    def test_every_array_equals_the_per_entry_reader(self, data):
        assert_same_network(network_from_dict(data), network_from_dict_per_entry(data))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_mutation_gives_the_per_entry_readers_message(self, data):
        """A non-finite number may spread to the other part of the oracle's complex entry, so
        accepted networks are compared on finite entries only."""
        base = data.draw(network_files())
        mutated = mutate(data.draw, base, paths_by_depth(base))
        (got, got_fault), (want, want_fault) = (outcome(network_from_dict, mutated),
                                                outcome(network_from_dict_per_entry, mutated))
        assert got_fault == want_fault
        if want_fault is None:
            assert_same_network(got, want, finite_only=True)
