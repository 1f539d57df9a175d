import csv
import tracemalloc
import warnings
from dataclasses import replace

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
from diffnet.linalg import crandn, psd_factor
from diffnet.simulate import (WINDOW_BYTES, _colouring, _resolve_mode, _Sampler,
                              _simulate_chunk)
from reference import (AdaptiveWeightState, adaptive_update, crandn_pairs, neighbors,
                       simulate_chunk)

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
        a = pol.stream(3, "u").standard_normal(5)
        b = pol.stream(3, "u").standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        pol = RngPolicy(123)
        base = pol.stream(0, "u").standard_normal(5)
        for run, source in [(1, "u"), (0, "v")]:
            other = pol.stream(run, source).standard_normal(5)
            assert not np.array_equal(base, other)

    def test_master_seed_matters(self):
        a = RngPolicy(1).stream(0, "u").standard_normal(5)
        b = RngPolicy(2).stream(0, "u").standard_normal(5)
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


def general_link_noise(net, seed=0):
    """Give every link its own full-rank, non-isotropic r_w, r_psi and r_u_link."""
    gen = np.random.default_rng(seed)
    ln, shape = net.link_noise, (len(net.links), net.m_dim, net.m_dim)
    for name in ("r_w", "r_psi", "r_u_link"):
        g = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        setattr(ln, name, 5e-3 * (g @ g.conj().swapaxes(1, 2) + 0.1 * np.eye(net.m_dim)))
    return net


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
        loud = receiver_sums(op, StepData(
            u=data.u, v=data.v, w_true=data.w_true, v_w=1e6 * data.v_w,
            v_psi=1e6 * data.v_psi, v_d=1e6 * data.v_d, v_u=1e6 * data.v_u))
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
        """The adaptive rule gets each link's v_lk, of covariance R_psi,l, with isotropic
        and with general per-link covariances."""
        for general in (False, True):
            net = noisy_pair_network()
            if general:
                general_link_noise(net)
            mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
            _, draws = window_draws(net, mats, 40000, adaptive=True, seed=4)
            noise = draws["v_psi"][0]
            emp = np.einsum("ipa,ipb->pab", noise.conj(), noise) / 40000
            target = net.link_noise.r_psi
            assert noise.shape[1] == len(target) == len(net.links)
            err = (np.linalg.norm(emp - target, axis=(1, 2))
                   / np.linalg.norm(target, axis=(1, 2)))
            assert np.all(err < 0.05), general


class TestSamplerMemory:
    """A static rule's window holds receiver sums, O(runs t N M); no buffer has a link axis.
    Every window's noise, with the chunk's history rows, fits in ``WINDOW_BYTES``."""

    RUNS = 3

    def window(self, layout, adaptive=False):
        net = general_link_noise(random_network(2, 30, 2, 0.3, NOISY_RANGES))
        a, eye = uniform(net.topology), np.eye(30)
        mats = {"atc": CombinationMatrices(a1=eye, c=eye, a2=a),
                "cta": CombinationMatrices(a1=a, c=eye, a2=eye)}[layout]
        sampler = _Sampler(net, StepOperator(net, mats), "constant", RngPolicy(0),
                           list(range(self.RUNS)), adaptive)
        return net, sampler, sampler.window(sampler.length)

    @staticmethod
    def held(sampler):
        return sum(buf.nbytes for buf in sampler.buffers.values())

    @classmethod
    def per_iteration(cls, net, sampler):
        """One iteration's noise, measured, plus the chunk's history rows: estimates and
        gaps (N, M) and the target (M,) for each run."""
        n, m = net.n_nodes, net.m_dim
        return cls.held(sampler) // sampler.length + 16 * cls.RUNS * (2 * n * m + m)

    @pytest.mark.parametrize("layout, key", [("atc", "v_psi"), ("cta", "v_w")])
    def test_static_rules_hold_receiver_sums(self, layout, key):
        net, sampler, draws = self.window(layout)
        n, m, n_links, t = net.n_nodes, net.m_dim, len(net.links), sampler.length
        assert n_links > 4 * n
        assert draws[key].shape == (self.RUNS, t, n, m)
        assert all(n_links not in buf.shape[2:] for buf in sampler.buffers.values())
        assert self.held(sampler) == self.RUNS * t * n * (2 * m + 1) * 16  # u, v and the sums
        # the budget is filled to within one iteration
        step = self.per_iteration(net, sampler)
        assert t * step <= WINDOW_BYTES < (t + 1) * step

    def test_adaptive_rule_keeps_per_link_noise(self):
        net, sampler, draws = self.window("atc", adaptive=True)
        t = sampler.length
        assert draws["v_psi"].shape == (self.RUNS, t, len(net.links), net.m_dim)
        # the per-link window is cut to the budget, where 256 iterations would exceed it
        step = self.per_iteration(net, sampler)
        assert t < 256
        assert t * step <= WINDOW_BYTES < (t + 1) * step

    def test_a_window_holds_as_many_iterations_as_fit(self, monkeypatch):
        """The window holds as many iterations as fit in the budget, and at least one."""
        net, sampler, _ = self.window("atc", adaptive=True)
        noise = self.held(sampler) // sampler.length  # one iteration of the chunk's noise
        step = self.per_iteration(net, sampler)
        for fit in (0, 1, 3, 7, 8, 24):
            monkeypatch.setattr("diffnet.simulate.WINDOW_BYTES", fit * step + step - 1)
            _, sampler, draws = self.window("atc", adaptive=True)
            assert sampler.length == max(1, fit)
            assert draws["v_psi"].shape[1] == sampler.length
            assert self.held(sampler) == sampler.length * noise

    @pytest.mark.parametrize("fit", [1, 3, 24])
    @pytest.mark.parametrize("layout, adaptive", [("atc", False), ("cta", False), ("atc", True)])
    def test_a_chunk_holds_one_window_of_noise_and_history(self, layout, adaptive, fit,
                                                          monkeypatch):
        """Every buffer a chunk allocates with ``np.empty``, its noise and its history
        rows, fits in ``WINDOW_BYTES`` whenever one iteration does."""
        net, sampler, _ = self.window(layout, adaptive)
        step = self.per_iteration(net, sampler)
        budget = fit * step + step - 1
        monkeypatch.setattr("diffnet.simulate.WINDOW_BYTES", budget)
        allocated = []

        class Recording:
            """numpy, recording the size of each ``np.empty``."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                allocated.append(np.empty(*args, **kwargs))
                return allocated[-1]

        iterations = 40
        records = {"msd": np.empty((self.RUNS, iterations)),
                   "emse": np.empty((self.RUNS, iterations)),
                   "bad": np.zeros(self.RUNS, dtype=bool)}
        monkeypatch.setattr("diffnet.simulate.np", Recording())
        _simulate_chunk(net, sampler.op, "constant",
                        SimulationOptions(adaptive_slot="a2" if adaptive else None),
                        RngPolicy(0), list(range(self.RUNS)), records)
        assert sum(buf.nbytes for buf in allocated) == fit * step <= budget
        assert not records["bad"].any()


class TestReceiverSums:
    ITERS = 20000

    @pytest.mark.parametrize("layout, key, isotropic", [
        ("cta", "v_w", False), ("atc", "v_psi", False), ("cta", "v_w", True),
        ("atc", "v_psi", True)], ids=["cta-v_w", "atc-v_psi", "cta-v_w-isotropic",
                                      "atc-v_psi-isotropic"])
    def test_sums_have_the_summed_covariance(self, layout, key, isotropic):
        """Each receiver's static link-noise sum sum_l a_lk v_lk has covariance
        sum_l |a_lk|^2 R_lk, with isotropic and with general per-link covariances."""
        net = noisy_pair_network(n=6)
        if not isotropic:
            general_link_noise(net)
        a, eye = uniform(net.topology), np.eye(6)
        mats = {"atc": CombinationMatrices(a1=eye, c=eye, a2=a),
                "cta": CombinationMatrices(a1=a, c=eye, a2=eye)}[layout]
        sampler, draws = window_draws(net, mats, self.ITERS, seed=6)
        op, ln = sampler.op, net.link_noise
        a_link, r = (op.a1_link, ln.r_w) if key == "v_w" else (op.a2_link, ln.r_psi)
        target = op.links.segment_sum(np.abs(a_link[:, None, None]) ** 2 * r, axis=0)
        for k in range(net.n_nodes):
            z = draws[key][0, :, k]
            emp = np.einsum("ia,ib->ab", z.conj(), z) / self.ITERS
            assert np.linalg.norm(emp - target[k]) / np.linalg.norm(target[k]) < 0.05, k


class TestSlotIndependence:
    ITERS = 20000

    @pytest.mark.parametrize("key", ["u", "v_w"])
    def test_slots_drawn_from_one_stream_are_independent(self, key):
        """Every slot of a source is drawn from the run's one stream for it: each
        slot has its own covariance, and two distinct slots are uncorrelated."""
        net = general_link_noise(noisy_pair_network(n=6))
        a, eye = uniform(net.topology), np.eye(6)
        sampler, draws = window_draws(net, CombinationMatrices(a1=a, c=eye, a2=eye), self.ITERS,
                                      seed=5)
        op = sampler.op
        target = (net.nodes.r_u if key == "u" else op.links.segment_sum(
            np.abs(op.a1_link[:, None, None]) ** 2 * net.link_noise.r_w, axis=0))
        z = draws[key][0]
        emp = np.einsum("ipa,iqb->pqab", z.conj(), z) / self.ITERS
        norms = np.linalg.norm(emp, axis=(2, 3))
        for p in range(net.n_nodes):
            assert np.linalg.norm(emp[p, p] - target[p]) / np.linalg.norm(target[p]) < 0.05, p
            for q in range(p):
                assert norms[p, q] < 0.05 * np.sqrt(norms[p, p] * norms[q, q]), (p, q)


def by_factor(z, factors):
    """Row p of z's last two axes coloured by its own factor: sum_m z[..., p, m] conj(F_p[q, m])."""
    return np.einsum("...pm,pqm->...pq", z, factors.conj())


class TestSamplerStreams:
    """Every window() key against direct draws from its own (run, source) stream,
    coloured and summed here, over two windows of a chunk of two runs."""

    RUNS = [3, 5]

    def sampler(self, adaptive):
        net = general_link_noise(noisy_pair_network(n=5))
        g = np.random.default_rng(8).standard_normal((2, 2, 2))
        r_eta = 1e-3 * ((g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T + 0.1 * np.eye(2))
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0, r_eta=r_eta)
        a = uniform(net.topology)
        op = StepOperator(net, CombinationMatrices(a1=a, c=a.T, a2=a))
        return net, op, _Sampler(net, op, "random_walk", RngPolicy(11), self.RUNS, adaptive)

    @staticmethod
    def direct(net, op, adaptive, stream, t):
        """One run's window, drawn stream by stream with ``stream(source)``."""
        n, m, starts = net.n_nodes, net.m_dim, op.links.starts
        ln = net.link_noise

        def nodes(source, tail):
            return crandn_pairs(stream(source), (t, n) + tail)

        def links(source, tail):
            return crandn_pairs(stream(source), (t, len(net.links)) + tail)

        def receiver_sum(source, a_link, r):
            """Each receiver's own M normals, coloured by sum_l |a_lk|^2 R_lk."""
            cov = np.stack([np.einsum("p,pab->ab", np.abs(a_link[lo:hi]) ** 2, r[lo:hi])
                            for lo, hi in zip(starts[:-1], starts[1:])])
            return by_factor(nodes(source, (m,)), psd_factor(cov))

        return {
            "u": by_factor(nodes("u", (m,)), psd_factor(net.nodes.r_u)),
            "v": nodes("v", ()) * np.sqrt(net.nodes.sigma_v2),
            "eta": by_factor(crandn_pairs(stream("eta"), (t, 1, m)),
                             psd_factor(net.weights.r_eta[None])),
            "v_w": receiver_sum("w", op.a1_link, ln.r_w),
            "v_psi": (by_factor(links("psi", (m,)), psd_factor(ln.r_psi)) if adaptive
                      else receiver_sum("psi", op.a2_link, ln.r_psi)),
            "v_d": links("d", ()) * np.sqrt(ln.sigma_d2),
            "v_u": by_factor(links("u_link", (m,)), psd_factor(ln.r_u_link)),
        }

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_every_key_comes_from_its_own_streams(self, adaptive):
        net, op, sampler = self.sampler(adaptive)
        policy, streams = RngPolicy(11), {}

        def stream(run):
            def get(source):
                if (run, source) not in streams:
                    streams[run, source] = policy.stream(run, source)
                return streams[run, source]
            return get

        for t in (7, 5):  # the second window continues every stream
            got = sampler.window(t)
            assert sorted(got) == ["eta", "u", "v", "v_d", "v_psi", "v_u", "v_w"]
            for i, run in enumerate(self.RUNS):
                want = self.direct(net, op, adaptive, stream(run), t)
                for key, x in want.items():
                    assert got[key][i].shape == x.shape, key
                    err = np.max(np.abs(got[key][i] - x))
                    assert err <= 1e-15 * max(1.0, np.max(np.abs(x))), (key, err)


class TestOneColouring:
    """Scalar and one-slot sources go through the same colouring as the rest."""

    RUNS = [2, 4]

    def test_scalar_and_isotropic_one_slot_sources_keep_their_bits(self):
        """``v``, ``v_d`` and an isotropic ``eta`` equal, byte for byte, the scaling
        by sqrt(variance) and the einsum increments they were drawn with before."""
        net = noisy_pair_network(n=5)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=2e-3 * np.eye(2, dtype=complex))
        a = uniform(net.topology)
        op = StepOperator(net, CombinationMatrices(a1=np.eye(5), c=a.T, a2=np.eye(5)))
        got = _Sampler(net, op, "random_walk", RngPolicy(3), self.RUNS, False).window(9)
        rows = psd_factor(net.weights.r_eta).conj()
        for i, run in enumerate(self.RUNS):
            def draw(source, shape):
                return crandn(RngPolicy(3).stream(run, source), shape)

            want = {
                "v": np.multiply(draw("v", (9, 5)), np.sqrt(net.nodes.sigma_v2)),
                "v_d": np.multiply(draw("d", (9, len(net.links))),
                                   np.sqrt(net.link_noise.sigma_d2)),
                "eta": np.einsum("tm,pm->tp", draw("eta", (9, 1, 2))[:, 0], rows)[:, None],
            }
            for key, x in want.items():
                assert got[key][i].tobytes() == x.tobytes(), key

    def test_one_node_windows_keep_their_shapes(self):
        """A one-node network's ``u`` and ``v`` have one slot, like the random walk's
        ``eta``, and keep the layout of every other network's."""
        net = single_node(sigma_v2=0.1)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-3 * np.eye(2, dtype=complex))
        op = StepOperator(net, CombinationMatrices.identity(1))
        draws = _Sampler(net, op, "random_walk", RngPolicy(0), self.RUNS, False).window(6)
        assert {key: x.shape for key, x in draws.items()} == {
            "u": (2, 6, 1, 2), "v": (2, 6, 1), "eta": (2, 6, 1, 2)}


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
        for l in neighbors(topo, k):
            recv = w_prev[l].astype(complex)
            if l != k and data.v_w is not None:
                recv = recv + data.v_w[pos[(int(l), k)]]
            phi[k] += mats.a1[l, k] * recv

    psi = phi.copy()
    for k in range(n):
        for l in neighbors(topo, k):
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
        for l in neighbors(topo, k):
            recv = psi[l]
            if l != k and data.v_psi is not None:
                recv = recv + data.v_psi[pos[(int(l), k)]]
            w_new[k] += mats.a2[l, k] * recv
    return phi, psi, w_new


def receiver_sums(op, data):
    """``data`` with the static combines' link noise summed per receiver, as the engine
    passes it: v_w becomes sum_l a1_lk v_lk and v_psi sum_l a2_lk v_lk."""
    def summed(a_link, v):
        return None if v is None else op.links.segment_sum(a_link[:, None] * v, axis=-2)

    return replace(data, v_w=summed(op.a1_link, data.v_w), v_psi=summed(op.a2_link, data.v_psi))


def random_step_data(gen, net):
    """One step's draws with every link noise per link, as the literal references read it."""
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
            op = StepOperator(net, mats)
            out = diffusion_step(state, op, receiver_sums(op, data))
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
        data = receiver_sums(op_fast, random_step_data(gen, net))
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
        op = StepOperator(net, mats)
        zero = receiver_sums(op, StepData(u=data.u, v=data.v, w_true=data.w_true,
                                          v_w=np.zeros((n_links, 2), dtype=complex),
                                          v_psi=np.zeros((n_links, 2), dtype=complex),
                                          v_d=np.zeros(n_links, dtype=complex),
                                          v_u=np.zeros((n_links, 2), dtype=complex)))
        none = StepData(u=data.u, v=data.v, w_true=data.w_true)
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
        op = StepOperator(net, mats)
        data = receiver_sums(op, StepData(u=cx((batch, 4, 2)), v=cx((batch, 4)),
                                          w_true=cx((2,)),
                                          v_w=cx((batch, n_links, 2)),
                                          v_psi=cx((batch, n_links, 2)),
                                          v_d=cx((batch, n_links)), v_u=cx((batch, n_links, 2))))
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
                nbrs = neighbors(topo, k)
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
        out = diffusion_step(DiffusionState(w=w_prev.copy()), op, receiver_sums(op, data))
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
                nbrs = neighbors(topo, k)
                rows = np.stack([state.psi[l] if l == k
                                 else state.psi[l] + data.v_psi[pos[(int(l), k)]] for l in nbrs])
                mirror, col = adaptive_update(mirror, topo, k, rows, w_prev[k])
                assert np.allclose(state.w[k], col[nbrs] @ rows, atol=1e-12)
            assert np.allclose(state.adaptive.gamma2_self, mirror.gamma2_self, atol=1e-12)
            assert np.allclose(state.adaptive.gamma2_link, mirror.gamma2_link, atol=1e-12)


def link_path_combine(op, a, x, noise_sums):
    """A static combine the way the adaptive rule runs its own: a_kk x_k plus a gather over
    the in-links, a per-link scale and a segment sum, plus the receivers' noise sums."""
    sent = np.take(x, op.src, axis=-2)
    return (np.diag(a)[:, None] * x + noise_sums
            + op.links.segment_sum(a[op.src, op.dst][:, None] * sent, axis=-2))


def dense_combine_case(layout, m, seed, runs=3):
    """A random network in which one random node has no links, random left-stochastic
    weights on its pattern for the static combine of ``layout``, a batched state and one
    step's draws with every link noise set, summed per receiver as the engine takes them."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(4, 9))
    others = np.delete(np.arange(n), gen.integers(n))
    edges = [(int(k), int(l)) for i, k in enumerate(others) for l in others[i + 1:]
             if gen.random() < 0.5]
    net = network_on(Topology.from_edges(n, edges), m=m, seed=seed)
    a = np.where(net.topology.adjacency, gen.uniform(0.1, 1.0, (n, n)), 0.0)
    a /= a.sum(axis=0)
    eye = np.eye(n)
    mats = (CombinationMatrices(a1=eye, c=eye, a2=a) if layout == "atc"
            else CombinationMatrices(a1=a, c=eye, a2=eye))

    def cx(*shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    n_links = len(net.links)
    op = StepOperator(net, mats)
    data = receiver_sums(op, StepData(u=cx(runs, n, m), v=cx(runs, n), w_true=cx(runs, m),
                                      v_w=cx(runs, n_links, m), v_psi=cx(runs, n_links, m)))
    return op, mats, cx(runs, n, m), data


class TestDenseCombine:
    """The static combine, one real product by A^T, against the per-link path."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["atc", "cta"])
    def test_matches_the_link_path(self, layout, m, seed):
        op, mats, w, data = dense_combine_case(layout, m, seed)
        out = diffusion_step(DiffusionState(w=w), op, data)
        if layout == "atc":
            got, want = out.w, link_path_combine(op, mats.a2, out.psi, data.v_psi)
        else:
            got, want = out.phi, link_path_combine(op, mats.a1, w, data.v_w)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("layout", ["atc", "cta"])
    def test_a_non_contiguous_state_steps_like_its_contiguous_copy(self, layout):
        op, _, w, data = dense_combine_case(layout, 2, seed=5)
        want = diffusion_step(DiffusionState(w=w), op, data)
        wide = np.zeros(w.shape[:-1] + (2 * w.shape[-1],), dtype=complex)
        wide[..., ::2] = w
        for layout_copy in (np.asfortranarray(w), wide[..., ::2]):
            assert not layout_copy.flags.c_contiguous
            got = diffusion_step(DiffusionState(w=layout_copy), op, data)
            for name in ("phi", "psi", "w"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


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
        for l in neighbors(topo, k):
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
    """The window-wise chunk loop, written into records allocated here, against the
    per-iteration oracle's result, key by key; a record not allocated matches None."""
    op = StepOperator(net, mats)
    mode = _resolve_mode(net, options.mode)
    r = len(runs)
    got = {"msd": np.full((r, iterations), np.nan), "emse": np.full((r, iterations), np.nan),
           "bad": np.zeros(r, dtype=bool)}
    if options.record_mean_error:
        got["err"] = np.full((r, iterations, op.n, op.m), np.nan, dtype=complex)
    if options.record_trajectory:
        got["wbar"], got["wtrue"] = (np.full((r, iterations, op.m), np.nan, dtype=complex)
                                     for _ in range(2))
    assert _simulate_chunk(net, op, mode, options, RngPolicy(seed), list(runs), got) is None
    want = simulate_chunk(net, op, mode, options, RngPolicy(seed), list(runs), iterations)
    assert set(got) <= set(want)
    for key in want:
        if want[key] is None:
            assert got.get(key) is None, key
        else:
            assert np.array_equal(got[key], want[key], equal_nan=True), key
    return want


class TestBlockMetrics:
    """The learning-curve metrics, reduced once per window, against one iteration at a time."""

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

    def test_run_diverging_partway_through_a_block(self, monkeypatch):
        net = single_node(m=2, sigma_v2=0.01, mu=1.0)
        # windows of 8 iterations: per run, 3 noise values (u, v) and 6 history values
        monkeypatch.setattr("diffnet.simulate.WINDOW_BYTES", 8 * 16 * 16 * 9)
        eye = CombinationMatrices.identity(1)
        assert _Sampler(net, StepOperator(net, eye), "constant", RngPolicy(0), list(range(16)),
                        False).length == 8
        options = SimulationOptions(record_mean_error=True, record_trajectory=True)
        want = assert_chunks_equal(net, CombinationMatrices.identity(1), options, 300,
                                   runs=range(16), seed=49)
        # each run's first iteration past the threshold, or None for a run that never is
        past = ~(want["msd"] <= 1e12)
        first = [int(np.argmax(row)) if row.any() else None for row in past]
        assert want["bad"].tolist() == [i is not None for i in first]
        # some runs cross the threshold inside a window, and some never do
        assert any(i is not None and 0 < i % 8 < 7 for i in first), first
        assert None in first, first

    def test_run_above_the_threshold_early_in_a_block_stays_divergent(self):
        # a stable node started far away: past the threshold on the first step only
        net = single_node(m=1, sigma_v2=0.01, mu=0.5, w0=[1e7])
        want = assert_chunks_equal(net, CombinationMatrices.identity(1), SimulationOptions(), 40,
                                   runs=range(2))
        assert want["bad"].all()
        assert (want["msd"][:, 0] > 1e12).all() and (want["msd"][:, 7] < 1e12).all()


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


@pytest.mark.parametrize("layout", ["atc", "cta", "sharing", "adaptive"])
def test_general_link_noise_is_chunk_and_thread_invariant(layout):
    """Each link's own non-isotropic colouring, in the receiver sums' factors or on each
    link's draws, keeps every output byte-identical across chunk sizes and threads."""
    net = general_link_noise(random_network(7, 5, 2, 0.6, NOISY_RANGES), seed=1)
    a, eye = uniform(net.topology), np.eye(5)
    mats = {"atc": CombinationMatrices(a1=eye, c=eye, a2=a),
            "cta": CombinationMatrices(a1=a, c=eye, a2=eye),
            "sharing": CombinationMatrices(a1=a, c=a.T, a2=a),
            "adaptive": CombinationMatrices(a1=a, c=eye, a2=a)}[layout]

    def simulate(chunk_size, threads):
        opts = SimulationOptions(adaptive_slot="a2" if layout == "adaptive" else None,
                                 record_mean_error=True, chunk_size=chunk_size, threads=threads)
        return run_monte_carlo(net, mats, opts, runs=5, iterations=276,
                               rng_policy=RngPolicy(2))

    want = simulate(5, 1)
    for chunk_size, threads in ((1, 1), (2, 2), (3, 1), (4, 2)):
        got = simulate(chunk_size, threads)
        for name in ("msd", "emse", "mean_error", "mean_error_stderr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("threads", [1, 2])
def test_monte_carlo_holds_one_copy_of_the_records(threads):
    """Every chunk writes its runs' rows of the records in place and the
    reduction adds them one run at a time, so the peak stays under twice the records."""
    net = random_network(5, 3, 2, 0.7, NOISY_RANGES)
    a, eye = uniform(net.topology), np.eye(3)
    options = SimulationOptions(record_mean_error=True, chunk_size=20, threads=threads)
    runs, iterations = 200, 400
    records = runs * iterations * (2 * 8 + 3 * 2 * 16) + runs  # msd, emse, err and the flags
    tracemalloc.start()
    try:
        curve = run_monte_carlo(net, CombinationMatrices(a1=eye, c=a.T, a2=a), options,
                                runs, iterations, RngPolicy(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.divergent_runs == 0
    assert peak < 2 * records, peak / records


@pytest.mark.parametrize("layout, target", [
    ("atc", "constant"), ("cta", "random_walk"), ("adaptive", "rotation"),
    ("sharing", "random_walk"), ("sharing", "rotation")])
def test_window_length_does_not_change_any_output(layout, target, monkeypatch):
    """Windows of one, three, eight and 24 iterations and of the whole run give
    byte-identical curves and recordings: each window's draws continue every stream
    where the last one stopped, and each window's metrics are reduced over the same
    axes as one iteration's."""
    net, _ = block_case(target)
    a, eye = uniform(net.topology), np.eye(5)
    mats = {"atc": CombinationMatrices(a1=eye, c=eye, a2=a),
            "cta": CombinationMatrices(a1=a, c=eye, a2=eye),
            "adaptive": CombinationMatrices(a1=a, c=eye, a2=a),
            "sharing": CombinationMatrices(a1=a, c=a.T, a2=a)}[layout]
    opts = SimulationOptions(adaptive_slot="a2" if layout == "adaptive" else None,
                             record_mean_error=True, record_trajectory=True)
    runs, iterations = 3, 100

    def sampler():
        return _Sampler(net, StepOperator(net, mats), target, RngPolicy(0), list(range(runs)),
                        opts.adaptive_slot is not None)

    one = sampler()
    one.window(1)
    # one iteration of the chunk's noise and of its history rows
    step = (sum(buf.nbytes for buf in one.buffers.values())
            + 16 * runs * (2 * net.n_nodes * net.m_dim + net.m_dim))
    curves = {}
    for length in (1, 3, 8, 24, iterations):
        monkeypatch.setattr("diffnet.simulate.WINDOW_BYTES", length * step)
        assert sampler().length == length
        curves[length] = run_monte_carlo(net, mats, opts, runs=runs, iterations=iterations,
                                         rng_policy=RngPolicy(6))
    fields = ("msd", "emse", "mean_error", "mean_error_stderr", "avg_estimate", "avg_target")
    for length in (1, 3, 24, iterations):
        assert curves[length].divergent_runs == curves[8].divergent_runs
        for name in fields:
            assert (getattr(curves[length], name).tobytes()
                    == getattr(curves[8], name).tobytes()), (length, name)


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

    @pytest.mark.parametrize("iters", [1, 2, 3, 4, 5])
    def test_short_curve_averages_at_least_its_last_iteration(self, iters):
        values = np.arange(1.0, iters + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            level = steady_state_level(values)
        assert level == values[-1]

    def test_short_curve_is_still_unsettled(self):
        with pytest.raises(ValueError, match="too short"):
            steady_state_level(np.ones(3), rho_b=0.5)


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
