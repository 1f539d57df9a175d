import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.cli import PRESETS
from diffnet.combine import matrices_from_rules, metropolis, uniform
from diffnet.linalg import spectral_radius
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
from diffnet import theory
from diffnet.theory import (
    _block_diag,
    _congruence,
    _stein_solve,
    _tracking_numerator,
    InstabilityError,
    assemble_mean_dynamics,
    assemble_noise_moments,
    bias,
    network_metrics,
    series_msd,
    stability_report,
    step_size_bounds,
    theory_report,
    tracking_metrics,
)
from reference import block_max_norm, neighbors, noise_numerator, series_emse

NOISY_RANGES = VarianceRanges(
    sigma_u2=(0.5, 2.0),
    sigma_v2=(0.01, 0.1),
    sigma_w2=(1e-3, 2e-2),
    sigma_d2=(1e-3, 2e-2),
    sigma_u_link2=(1e-3, 2e-2),
    sigma_psi2=(1e-3, 2e-2),
)


def scalar_network(mu=0.01, sigma_v2=1.0, r=1.0):
    return NetworkModel(
        topology=Topology.from_edges(1, []),
        nodes=NodeProfile(m_dim=1, r_u=np.array([[[r]]], dtype=complex),
                          sigma_v2=np.array([sigma_v2]), mu=np.array([mu])),
        link_noise=LinkNoiseProfile.zeros(0, 1),
        weights=WeightTrajectory(mode="constant", w0=np.array([1.0 + 0j])),
    )


def noisy_instance(seed, n=4, m=2, connectivity=0.6):
    net = random_network(seed, n, m, connectivity, NOISY_RANGES)
    topo = net.topology
    eye = np.eye(n)
    combos = [
        CombinationMatrices(a1=eye, c=eye, a2=uniform(topo)),
        CombinationMatrices(a1=uniform(topo), c=eye, a2=eye),
        CombinationMatrices(a1=eye, c=uniform(topo).T, a2=uniform(topo)),
        CombinationMatrices(a1=metropolis(topo), c=metropolis(topo), a2=uniform(topo)),
    ]
    return net, combos[seed % len(combos)]


class TestScalarOracle:
    def test_single_node_lms_closed_form(self):
        mu = 0.01
        net = scalar_network(mu=mu)
        mats = CombinationMatrices.identity(1)
        expected = mu ** 2 / (1.0 - (1.0 - mu) ** 2)
        msd, emse = network_metrics(net, mats)
        assert abs(msd - expected) <= 1e-10 * expected
        assert abs(emse - expected) <= 1e-10 * expected

    def test_single_node_mean_factor(self):
        net = scalar_network(mu=0.01)
        md = assemble_mean_dynamics(net, CombinationMatrices.identity(1))
        assert md.b.shape == (1, 1)
        assert md.b[0, 0] == pytest.approx(0.99, abs=1e-15)

    def test_scalar_bounds_all_two(self):
        net = scalar_network(mu=0.01)
        b = step_size_bounds(net, CombinationMatrices.identity(1))
        assert b.tight[0] == pytest.approx(2.0, abs=1e-14)
        assert b.robust[0] == pytest.approx(2.0, abs=1e-14)
        assert b.noise_free[0] == pytest.approx(2.0, abs=1e-14)
        assert b.c_doubly_stochastic
        assert bool(b.ok_tight()[0]) and bool(b.ok_robust()[0])


def literal_mean_matrices(net, mats):
    """Plain-loop transcription of the mean transition matrix and drift."""
    topo = net.topology
    n, m = net.n_nodes, net.m_dim
    pos = {lk: p for p, lk in enumerate(net.links)}
    mu = net.nodes.mu

    r_prime = np.zeros((n, m, m), dtype=complex)
    drift = np.zeros((n, m), dtype=complex)
    w_o = np.asarray(net.weights.w0, dtype=complex)
    for k in range(n):
        for l in neighbors(topo, k):
            r_prime[k] += mats.c[l, k] * net.nodes.r_u[l]
            if l != k:
                noise = net.link_noise.r_u_link[pos[(int(l), k)]]
                r_prime[k] += mats.c[l, k] * noise
                drift[k] -= mats.c[l, k] * (noise @ w_o)

    b = np.zeros((n * m, n * m), dtype=complex)
    for k in range(n):
        for l in range(n):
            block = np.zeros((m, m), dtype=complex)
            for q in range(n):
                block += mats.a2[q, k] * (np.eye(m) - mu[q] * r_prime[q]) * mats.a1[l, q]
            b[k * m:(k + 1) * m, l * m:(l + 1) * m] = block
    return r_prime, b, drift.reshape(-1)


class TestMeanDynamics:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_literal_assembly(self, seed):
        net, mats = noisy_instance(seed)
        md = assemble_mean_dynamics(net, mats)
        r_ref, b_ref, z_ref = literal_mean_matrices(net, mats)
        assert np.allclose(md.r_prime, r_ref, atol=1e-12)
        assert np.allclose(md.b, b_ref, atol=1e-12)
        assert np.allclose(md.z, z_ref, atol=1e-12)

    def test_bias_zero_without_regressor_link_noise(self):
        net, _ = noisy_instance(0)
        net.link_noise.r_u_link[:] = 0.0
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        md = assemble_mean_dynamics(net, mats)
        assert np.all(md.z == 0.0)
        assert np.all(bias(md) == 0.0)

    def test_bias_is_the_fixed_point(self):
        net, _ = noisy_instance(2)
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        md = assemble_mean_dynamics(net, mats)
        assert np.any(md.z != 0.0)
        g = bias(md)
        a2_lift, big_m = (np.kron(a, np.eye(net.m_dim)) for a in (mats.a2, np.diag(net.nodes.mu)))
        rhs = -(a2_lift.T @ (big_m @ md.z))
        x = np.zeros_like(rhs)
        for _ in range(20000):
            x_next = md.b @ x + rhs
            if np.linalg.norm(x_next - x) <= 1e-16 * max(np.linalg.norm(x_next), 1e-300):
                x = x_next
                break
            x = x_next
        assert np.linalg.norm(x - g) <= 1e-10 * np.linalg.norm(g)

    def test_custom_target_overrides_network_target(self):
        net, mats = noisy_instance(2)
        other = np.full(net.m_dim, 2.0 + 1.0j)
        md = assemble_mean_dynamics(net, mats, w_o=other)
        assert np.array_equal(md.w_o, other)


def kronecker_value(b, numerator, omega):
    """[vec W]^* (I - B^T kron B^H)^{-1} vec(omega), the dense closed form."""
    dim = b.shape[0]
    vec_w = numerator.reshape(-1, order="F")
    vec_omega = omega.reshape(-1, order="F")
    sol = np.linalg.solve(np.eye(dim * dim) - np.kron(b.T, b.conj().T), vec_omega)
    return complex(vec_w.conj() @ sol)


def simplified_numerator(net, mats, md):
    """A2^T (M S M + R_w) A2 + R_psi: the metric numerator when C = I, with plain loops.

    S stacks each node's gradient noise sigma_v2 R_u; R_w and R_psi stack the
    link noise each receiver takes in through A1 and A2.
    """
    n, m = net.n_nodes, net.m_dim
    s = np.zeros((n * m, n * m), dtype=complex)
    r_w = np.zeros_like(s)
    r_psi = np.zeros_like(s)
    for k in range(n):
        s[k * m:(k + 1) * m, k * m:(k + 1) * m] = net.nodes.sigma_v2[k] * net.nodes.r_u[k]
    for p, (l, k) in enumerate(net.links):
        r_w[k * m:(k + 1) * m, k * m:(k + 1) * m] += mats.a1[l, k] ** 2 * net.link_noise.r_w[p]
        r_psi[k * m:(k + 1) * m, k * m:(k + 1) * m] += mats.a2[l, k] ** 2 * net.link_noise.r_psi[p]
    a2_lift, big_m = (np.kron(a, np.eye(m)) for a in (mats.a2, np.diag(net.nodes.mu)))
    return a2_lift.T @ (big_m @ s @ big_m + r_w) @ a2_lift + r_psi


class TestSteadyState:
    @pytest.mark.parametrize("seed", range(10))
    def test_general_path_collapses_when_no_data_sharing(self, seed):
        net = random_network(seed + 100, 5, 2, 0.5, NOISY_RANGES)
        mats = CombinationMatrices(a1=uniform(net.topology), c=np.eye(5),
                                   a2=metropolis(net.topology))
        general = network_metrics(net, mats)
        md = assemble_mean_dynamics(net, mats)
        num = simplified_numerator(net, mats, md)
        simplified = [kronecker_value(md.b, num, omega) for omega in theory._omegas(net)]
        for a, b in zip(general, simplified):
            assert abs(a - b) <= 1e-10 * abs(b)

    @pytest.mark.parametrize("seed", range(20))
    def test_series_agrees_with_direct_solve(self, seed):
        net, mats = noisy_instance(seed, n=4 + seed % 3)
        md = assemble_mean_dynamics(net, mats)
        nm = assemble_noise_moments(net, mats, md)
        msd_direct, emse_direct = network_metrics(net, mats)
        msd_series, terms = series_msd(md, nm)
        emse_series, _ = series_emse(md, nm, net.nodes.r_u)
        assert terms >= 1
        assert abs(msd_series - msd_direct) <= 1e-8 * abs(msd_direct)
        assert abs(emse_series - emse_direct) <= 1e-8 * abs(emse_direct)

    def test_series_rejects_unstable_recursion(self):
        net = scalar_network(mu=3.0)
        mats = CombinationMatrices.identity(1)
        md = assemble_mean_dynamics(net, mats)
        nm = assemble_noise_moments(net, mats, md)
        with pytest.raises(InstabilityError):
            series_msd(md, nm)

    def test_direct_solve_rejects_unstable_recursion(self):
        net = scalar_network(mu=3.0)
        with pytest.raises(InstabilityError):
            network_metrics(net, CombinationMatrices.identity(1))

    def test_intermediate_estimate_noise_raises_the_floor(self):
        net, _ = noisy_instance(3)
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        base = network_metrics(net, mats)[0]
        net.link_noise.r_psi *= 4.0
        worse = network_metrics(net, mats)[0]
        assert worse > base


def rule_set(kind, topo, n, sharing):
    """ATC, CTA or both combine steps, with or without data sharing through C."""
    eye = np.eye(n)
    a1, a2 = {"atc": (eye, uniform(topo)), "cta": (uniform(topo), eye),
              "both": (metropolis(topo), uniform(topo))}[kind]
    return CombinationMatrices(a1=a1, c=uniform(topo).T if sharing else eye, a2=a2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 6), st.integers(1, 3),
       st.sampled_from(["atc", "cta", "both"]), st.booleans(), st.booleans(), st.booleans())
def test_numerator_matches_three_term_assembly(seed, n, m, kind, sharing, regressor_noise,
                                               random_walk):
    """Regressor link noise reaches W (through z and the bias) only when C shares data."""
    net = random_network(seed, n, m, 0.6, NOISY_RANGES)
    if not regressor_noise:
        net.link_noise.r_u_link[:] = 0.0
    mats = rule_set(kind, net.topology, n, sharing)
    md = assemble_mean_dynamics(net, mats)
    want = noise_numerator(net, mats, md)
    got = assemble_noise_moments(net, mats, md)
    if random_walk:
        r_eta = 1e-4 * random_psd(np.random.default_rng(seed), m)
        want = want + np.kron(np.ones((n, n)), r_eta)
        got = got + _tracking_numerator(mats, r_eta)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def random_psd(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T / dim


@pytest.mark.parametrize("complex_blocks", [False, True])
@pytest.mark.parametrize("n", [1, 4, 9])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_congruence_equals_the_kronecker_lifted_product(n, m, complex_blocks):
    rng = np.random.default_rng(100 * n + 10 * m + complex_blocks)
    left, right = rng.standard_normal((2, n, n))
    blocks = rng.standard_normal((n, m, m))
    if complex_blocks:
        blocks = blocks + 1j * rng.standard_normal((n, m, m))
    eye = np.eye(m)
    want = np.kron(left, eye).T @ _block_diag(blocks) @ np.kron(right, eye)
    got = _congruence(left, blocks, right)
    assert np.iscomplexobj(got) == complex_blocks
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestSteinSolver:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_kronecker_formula_on_networks(self, seed):
        net, mats = noisy_instance(seed, n=4 + seed % 3)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-4 * np.eye(2, dtype=complex))
        md = assemble_mean_dynamics(net, mats)
        n = net.n_nodes
        num = assemble_noise_moments(net, mats, md)
        tracking_num = num + np.kron(np.ones((n, n)), net.weights.r_eta)
        omegas = theory._omegas(net)
        xs = _stein_solve(md.b, [num, tracking_num], md.rho_b)
        for x, w in zip(xs, [num, tracking_num]):
            for omega in omegas:
                want = kronecker_value(md.b, w, omega)
                got = np.einsum("ij,ji->", x, omega)
                assert abs(got - want) <= 1e-10 * abs(want)

    def test_matches_kronecker_formula_non_normal_near_unit_radius(self):
        rng = np.random.default_rng(5)
        dim = 12
        eigs = rng.uniform(0.3, 0.95, dim) * np.exp(2j * np.pi * rng.uniform(size=dim))
        eigs[0] = 0.999
        upper = np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        b = q @ (np.diag(eigs) + 0.3 * upper) @ q.conj().T
        rho_b = spectral_radius(b)
        assert rho_b == pytest.approx(0.999, abs=1e-9)
        assert np.linalg.norm(b @ b.conj().T - b.conj().T @ b) > 1.0
        numerators = [random_psd(rng, dim), random_psd(rng, dim)]
        omega = random_psd(rng, dim)
        xs = _stein_solve(b, numerators, rho_b)
        for x, w in zip(xs, numerators):
            want = kronecker_value(b, w, omega)
            got = np.einsum("ij,ji->", x, omega)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_matches_series_beyond_small_networks(self):
        net = random_network(40, 40, 2, 0.3, NOISY_RANGES)
        mats = CombinationMatrices(a1=np.eye(40), c=np.eye(40), a2=metropolis(net.topology))
        md = assemble_mean_dynamics(net, mats)
        nm = assemble_noise_moments(net, mats, md)
        msd, emse = network_metrics(net, mats)
        msd_series, _ = series_msd(md, nm)
        emse_series, _ = series_emse(md, nm, net.nodes.r_u)
        assert abs(msd_series - msd) <= 1e-8 * abs(msd)
        assert abs(emse_series - emse) <= 1e-8 * abs(emse)

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    def test_rejects_radius_at_or_above_one(self, radius):
        b = np.array([[radius]], dtype=complex)
        with pytest.raises(InstabilityError, match=r"rho\(B\)\^2"):
            _stein_solve(b, [np.eye(1)], spectral_radius(b))

    def test_unstable_tracking_raises(self):
        net = scalar_network(mu=3.0)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=np.eye(1, dtype=complex))
        with pytest.raises(InstabilityError, match=r"rho\(B\)\^2"):
            tracking_metrics(net, CombinationMatrices.identity(1))

    def test_non_finite_input_stops_at_the_step_cap(self):
        with pytest.raises(InstabilityError, match="did not converge"):
            _stein_solve(np.array([[np.nan]]), [np.eye(1)], 0.5)


class TestRealArithmetic:
    """A real B runs every solve in float64, whatever W is."""

    def test_real_b_with_complex_numerator_matches_kronecker_formula(self):
        net = random_network(21, 5, 2, 0.6, NOISY_RANGES)
        assert np.any(net.weights.w0.imag != 0.0)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-4 * random_psd(np.random.default_rng(21), 2))
        mats = rule_set("both", net.topology, 5, sharing=True)
        md = assemble_mean_dynamics(net, mats)
        assert md.arithmetic == "real" and not np.iscomplexobj(md.b)
        assert np.any(md.z != 0.0)
        num = assemble_noise_moments(net, mats, md)
        numerators = [num, num + _tracking_numerator(mats, net.weights.r_eta)]
        assert all(np.linalg.norm(w.imag) > 1e-6 * np.linalg.norm(w) for w in numerators)
        omegas = theory._omegas(net) + [random_psd(np.random.default_rng(22), 10)]
        solution = _stein_solve(md.b, numerators, md.rho_b)
        assert solution.residual <= 1e-12
        for x, w in zip(solution, numerators):
            for omega in omegas:
                want = kronecker_value(md.b, w, omega)
                got = np.einsum("ij,ji->", x, omega)
                assert abs(got - want) <= 1e-10 * abs(want)

    @staticmethod
    def preset_report(preset, stationary=False):
        net, scen = PRESETS[preset](1)
        if stationary:
            net.weights.mode = "constant"
        mats, _ = matrices_from_rules(net, scen["rules"])
        return theory_report(net, mats).to_dict()

    @pytest.mark.parametrize("preset, arithmetic", [
        ("noisy_exchange_atc", "real"), ("noisy_exchange_cta", "real"),
        ("tracking_low_noise", "complex"), ("tracking_high_noise", "complex")])
    def test_presets_report_their_arithmetic(self, preset, arithmetic):
        assert self.preset_report(preset)["diagnostics"]["arithmetic"] == arithmetic

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_solve_to_a_small_residual(self, preset):
        """A rotating target has no closed form, so the tracking presets are solved held still."""
        diagnostics = self.preset_report(preset, stationary=True)["diagnostics"]
        assert diagnostics["stein_steps"] >= 1
        assert diagnostics["residual"] <= 1e-12
        assert diagnostics["imag_residual"] <= 1e-8

    def test_rotating_target_reports_no_solve(self):
        diagnostics = self.preset_report("tracking_low_noise")["diagnostics"]
        assert diagnostics == {"arithmetic": "complex", "stein_steps": None, "residual": None,
                               "imag_residual": None, "tracking_residual": None}

    def test_random_walk_target_reports_its_tracking_residual(self):
        net, scen = PRESETS["tracking_high_noise"](1)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-5 * random_psd(np.random.default_rng(1), 2))
        mats, _ = matrices_from_rules(net, scen["rules"])
        report = theory_report(net, mats).to_dict()
        assert report["msd_track_db"] is not None
        assert report["diagnostics"]["tracking_residual"] <= 1e-12


class TestStepSizeBounds:
    @pytest.mark.parametrize("seed", range(6))
    def test_robust_never_exceeds_noise_free(self, seed):
        net = random_network(seed + 40, 5, 2, 0.5, NOISY_RANGES)
        mats = CombinationMatrices(a1=np.eye(5), c=metropolis(net.topology),
                                   a2=uniform(net.topology))
        b = step_size_bounds(net, mats)
        assert b.c_doubly_stochastic
        assert np.all(b.robust <= b.noise_free + 1e-15)

    def test_zero_link_noise_makes_robust_equal_noise_free(self):
        net = random_network(7, 5, 2, 0.5, NOISY_RANGES)
        net.link_noise.r_u_link[:] = 0.0
        mats = CombinationMatrices(a1=np.eye(5), c=np.eye(5), a2=uniform(net.topology))
        b = step_size_bounds(net, mats)
        assert np.array_equal(b.robust, b.noise_free)

    def test_row_only_stochastic_sharing_skips_robust(self):
        net, _ = noisy_instance(1)
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        b = step_size_bounds(net, mats)
        assert not b.c_doubly_stochastic
        assert b.robust is None
        assert b.ok_robust() is None


class TestStability:
    @pytest.mark.parametrize("seed", range(50))
    def test_mean_radius_below_block_norm_bound(self, seed):
        net, mats = noisy_instance(seed, n=3 + seed % 4, connectivity=0.5)
        md = assemble_mean_dynamics(net, mats)
        info = stability_report(md)
        assert info.rho_b <= info.rho_spectral_bound + 1e-12
        assert info.rho_f == pytest.approx(info.rho_b ** 2, rel=1e-12)
        assert info.mean_stable and info.mean_square_stable

    def test_unstable_step_size_flagged(self):
        net = scalar_network(mu=3.0)
        md = assemble_mean_dynamics(net, CombinationMatrices.identity(1))
        info = stability_report(md)
        assert info.rho_b == pytest.approx(2.0, abs=1e-14)
        assert not info.mean_stable
        assert not info.mean_square_stable


class TestBlockMaxNorm:
    def test_vector_norm_is_largest_block(self):
        x = np.array([3.0, 4.0, 0.0, 1.0], dtype=complex)
        assert block_max_norm(x, 2) == pytest.approx(5.0, abs=1e-15)

    def test_vector_length_must_tile(self):
        with pytest.raises(ValueError, match="multiple"):
            block_max_norm(np.ones(5), 2)

    def test_combine_lift_has_unit_norm(self):
        net, _ = noisy_instance(0, n=6)
        a = uniform(net.topology)
        lift = np.kron(a.T, np.eye(2))
        assert block_max_norm(lift, 2) == 1.0

    def test_unit_norm_is_attained_and_never_exceeded(self):
        net, _ = noisy_instance(1, n=6)
        lift = np.kron(uniform(net.topology).T, np.eye(2))
        gen = np.random.default_rng(8)
        for _ in range(20):
            x = gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            y = lift @ x.reshape(-1)
            assert block_max_norm(y, 2) <= 1.0 + 1e-12
        same_block = np.tile(np.array([0.6, 0.8j]), 6)
        assert block_max_norm(lift @ same_block, 2) == pytest.approx(1.0, abs=1e-14)

    def test_block_diagonal_hermitian_gives_spectral_radius(self):
        gen = np.random.default_rng(3)
        blocks = []
        for _ in range(4):
            a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
            blocks.append(a + a.conj().T)
        x = np.zeros((12, 12), dtype=complex)
        for k, blk in enumerate(blocks):
            x[k * 3:(k + 1) * 3, k * 3:(k + 1) * 3] = blk
        expected = max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in blocks)
        assert block_max_norm(x, 3) == pytest.approx(expected, rel=1e-10)

    def test_fallback_estimate_brackets_scaled_lift(self):
        net, _ = noisy_instance(2, n=5)
        lift = 2.0 * np.kron(uniform(net.topology).T, np.eye(2))
        est = block_max_norm(lift, 2)
        assert est <= 2.0 + 1e-9
        assert est >= 1.9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            block_max_norm(np.ones((4, 6)), 2)


class TestTracking:
    def random_walk_net(self, seed=11, eps=1e-5):
        net = random_network(seed, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=eps * np.eye(2, dtype=complex))
        return net

    def test_zero_increment_matches_stationary(self):
        net = self.random_walk_net(eps=0.0)
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        tm = tracking_metrics(net, mats)
        assert tm.msd == tm.msd_stationary
        assert tm.emse == tm.emse_stationary

    def test_penalty_linear_in_increment_covariance(self):
        net = self.random_walk_net()
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        eye2 = np.eye(2, dtype=complex)
        one = tracking_metrics(net, mats, r_eta=1e-5 * eye2)
        two = tracking_metrics(net, mats, r_eta=2e-5 * eye2)
        d1 = one.msd - one.msd_stationary
        d2 = two.msd - two.msd_stationary
        assert d1 > 0
        assert d2 / d1 == pytest.approx(2.0, rel=1e-6)

    def test_requires_increment_covariance(self):
        net = random_network(12, 4, 2, 0.6, NOISY_RANGES)
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        with pytest.raises(ValueError, match="r_eta"):
            tracking_metrics(net, mats)

    def test_rejects_non_left_stochastic_combiners(self):
        net = self.random_walk_net()
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4),
                                   a2=uniform(net.topology).T)
        with pytest.raises(ValueError, match="left-stochastic"):
            tracking_metrics(net, mats)


class TestTheoryReport:
    def test_report_assembles_once(self, monkeypatch):
        net = random_network(11, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-5 * np.eye(2, dtype=complex))
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        calls = {"mean": 0, "noise": 0, "radius": 0, "bias": 0, "stein": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(theory, "assemble_mean_dynamics",
                            counted("mean", theory.assemble_mean_dynamics))
        monkeypatch.setattr(theory, "assemble_noise_moments",
                            counted("noise", theory.assemble_noise_moments))
        monkeypatch.setattr(theory, "spectral_radius", counted("radius", theory.spectral_radius))
        monkeypatch.setattr(theory, "bias", counted("bias", theory.bias))
        monkeypatch.setattr(theory, "_stein_solve", counted("stein", theory._stein_solve))
        report = theory_report(net, mats)
        assert report.msd_track is not None
        assert calls == {"mean": 1, "noise": 1, "radius": 1, "bias": 1, "stein": 1}

    def test_stable_scalar_report(self):
        net = scalar_network(mu=0.01)
        report = theory_report(net, CombinationMatrices.identity(1))
        out = report.to_dict()
        assert out["warnings"] == []
        assert out["rho_b"] == pytest.approx(0.99, abs=1e-14)
        assert out["bias_norm"] == 0.0
        expected_db = 10.0 * np.log10(0.01 ** 2 / (1.0 - 0.99 ** 2))
        assert out["msd_db"] == pytest.approx(expected_db, abs=1e-9)
        assert out["emse_db"] == pytest.approx(expected_db, abs=1e-9)
        row = out["mu_bounds"][0]
        assert row["node"] == 1
        assert row["bound_tight"] == pytest.approx(2.0)
        assert row["ok_tight"] is True and row["ok_robust"] is True
        assert "msd_track_db" not in out

    def test_unstable_scalar_report_warns_and_skips_metrics(self):
        net = scalar_network(mu=3.0)
        report = theory_report(net, CombinationMatrices.identity(1))
        out = report.to_dict()
        assert out["msd_db"] is None and out["emse_db"] is None
        assert any(w.startswith("mean-unstable") for w in out["warnings"])
        assert any(w.startswith("mean-square-unstable") for w in out["warnings"])
        assert "nodes [1]" in out["warnings"][0]

    def test_near_unit_radius_marked_ill_conditioned(self):
        net = scalar_network(mu=1e-7)
        report = theory_report(net, CombinationMatrices.identity(1))
        assert any(w.startswith("ill-conditioned") for w in report.warnings)
        assert report.msd is not None

    def test_row_only_sharing_warns_about_robust_bound(self):
        net, _ = noisy_instance(1)
        mats = CombinationMatrices(a1=np.eye(4), c=uniform(net.topology).T,
                                   a2=uniform(net.topology))
        report = theory_report(net, mats)
        assert any("robust step-size bound skipped" in w for w in report.warnings)
        assert report.msd is not None

    def test_random_walk_report_includes_tracking(self):
        net = random_network(13, 4, 2, 0.6, NOISY_RANGES)
        net.weights = WeightTrajectory(mode="random_walk", w0=net.weights.w0,
                                       r_eta=1e-5 * np.eye(2, dtype=complex))
        mats = CombinationMatrices(a1=np.eye(4), c=np.eye(4), a2=uniform(net.topology))
        report = theory_report(net, mats)
        out = report.to_dict()
        assert out["msd_track_db"] > out["msd_db"]
        assert out["emse_track_db"] > out["emse_db"]
        tm = tracking_metrics(net, mats)
        assert (report.msd_track, report.emse_track) == pytest.approx((tm.msd, tm.emse), rel=1e-12)
        assert (report.msd, report.emse) == pytest.approx(
            (tm.msd_stationary, tm.emse_stationary), rel=1e-12)


def test_package_root_names_are_in_submodule_all():
    import ast
    import importlib
    from pathlib import Path

    import diffnet

    tree = ast.parse(Path(diffnet.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"diffnet.{node.module}")
        missing = [a.name for a in node.names if a.name not in module.__all__]
        assert not missing, f"diffnet.{node.module}.__all__ lacks {missing}"
