"""Closed-form mean and mean-square analysis of the noisy diffusion recursion.

Everything here works on the stacked network error vector (node-major, M
coordinates per node). The central objects are the mean-transition matrix B,
the mean driving vector z induced by regressor link noise (it biases the
mean to g), and the numerator W of the steady-state metric

    value = tr(X omega),   X = B X B^H + W  (a Stein / discrete Lyapunov equation),

    W = A2^T [R_w + M (C^T S C + T + z z^H) M - A1^T g z^H M - M z g^H A1] A2 + R_psi,

with NM x NM lifts: S gradient noise, T shared-data noise, R_w and R_psi link
noise on estimates and intermediate estimates, M step sizes. A random-walk
target adds R_zeta = 1 1^T (x) R_eta. X is solved by squared Smith doubling
(R. A. Smith, SIAM J. Appl. Math. 16(1), 1968) with NM x NM products only.
Network MSD uses weighting I/N, network EMSE the block-diagonal regressor
covariance over N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import hermitize, kron_lift, spectral_radius
from .network import CombinationMatrices, NetworkModel

__all__ = [
    "InstabilityError",
    "MeanDynamics",
    "StepSizeBounds",
    "StabilityInfo",
    "TrackingMetrics",
    "TheoryReport",
    "assemble_mean_dynamics",
    "bias",
    "step_size_bounds",
    "assemble_noise_moments",
    "network_metrics",
    "series_msd",
    "tracking_metrics",
    "stability_report",
    "theory_report",
]

STEIN_MAX_STEPS = 64  # doubling steps; step k covers 2^k series terms
IMAG_RESIDUAL_TOL = 1e-8
ILL_CONDITIONED_TOL = 1e-6


class InstabilityError(RuntimeError):
    """Raised when a steady-state quantity does not exist or cannot be trusted."""


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """(N, M, M) stack -> (NM, NM) block diagonal."""
    n, m, _ = blocks.shape
    out = np.zeros((n, m, n, m), dtype=complex)
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * m, n * m)


@dataclass
class MeanDynamics:
    """Mean error recursion  E err_i = b (E err_{i-1}) - a2_lift^T big_m z."""

    n_nodes: int
    m_dim: int
    w_o: np.ndarray
    r_prime: np.ndarray
    b: np.ndarray
    z: np.ndarray
    big_m: np.ndarray
    a1_lift: np.ndarray
    a2_lift: np.ndarray
    c_lift: np.ndarray

    @cached_property
    def rho_b(self) -> float:
        """Spectral radius of b, computed once per assembly."""
        return spectral_radius(self.b)

    @cached_property
    def bias_g(self) -> np.ndarray:
        """Asymptotic mean error (see :func:`bias`), solved once per assembly."""
        return bias(self)


def assemble_mean_dynamics(network: NetworkModel, matrices: CombinationMatrices,
                           w_o: np.ndarray | None = None) -> MeanDynamics:
    """Build the mean-error recursion for a network/matrices pair.

    r_prime[k] aggregates the regressor covariances node k consumes through
    data sharing, link noise included; z stacks the per-node mean drift that
    regressor link noise injects (zero without it).
    """
    n, m = network.n_nodes, network.m_dim
    if w_o is None:
        w_o = np.asarray(network.weights.w0, dtype=complex)
    links = network.topology.link_table()
    c = matrices.c
    r_u = network.nodes.r_u
    r_u_link = network.link_noise.r_u_link

    coeff = c[links.src, links.dst]
    r_prime = np.diagonal(c)[:, None, None] * r_u + links.segment_sum(
        coeff[:, None, None] * (r_u[links.src] + r_u_link), axis=0)
    z_blocks = links.segment_sum(-coeff[:, None] * (r_u_link @ w_o), axis=0)

    big_m = np.kron(np.diag(network.nodes.mu), np.eye(m))
    a1_lift = kron_lift(matrices.a1, m)
    a2_lift = kron_lift(matrices.a2, m)
    c_lift = kron_lift(c, m)
    b = a2_lift.T @ (np.eye(n * m) - big_m @ _block_diag(r_prime)) @ a1_lift.T
    return MeanDynamics(n_nodes=n, m_dim=m, w_o=w_o, r_prime=r_prime, b=b,
                        z=z_blocks.reshape(-1), big_m=big_m,
                        a1_lift=a1_lift, a2_lift=a2_lift, c_lift=c_lift)


def bias(mean_dynamics: MeanDynamics) -> np.ndarray:
    """Asymptotic mean error: the fixed point of the mean recursion.

    Solves (I - b) g = -a2_lift^T big_m z. Zero exactly when z is zero.
    """
    md = mean_dynamics
    rhs = -(md.a2_lift.T @ (md.big_m @ md.z))
    return np.linalg.solve(np.eye(len(rhs)) - md.b, rhs)


@dataclass
class StepSizeBounds:
    """Per-node step-size stability bounds.

    ``tight`` comes from the aggregated covariances r_prime (always valid);
    ``robust`` is the per-neighbor bound that needs a doubly stochastic
    data-sharing matrix (None otherwise); ``noise_free`` is the same bound
    with link noise removed, so robust <= noise_free always.
    """

    mu: np.ndarray
    tight: np.ndarray
    robust: np.ndarray | None
    noise_free: np.ndarray
    c_doubly_stochastic: bool

    def ok_tight(self) -> np.ndarray:
        return self.mu < self.tight

    def ok_robust(self) -> np.ndarray | None:
        return None if self.robust is None else self.mu < self.robust


def _lambda_max(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of the Hermitian part of each matrix in a (K, M, M) stack."""
    return np.linalg.eigvalsh(hermitize(mats))[:, -1]


def _safe_bound(lam: np.ndarray) -> np.ndarray:
    """2 / lam per entry, inf where lam is not positive."""
    out = np.full(lam.shape, np.inf)
    return np.divide(2.0, lam, out=out, where=lam > 0)


def step_size_bounds(network: NetworkModel, matrices: CombinationMatrices,
                     mean_dynamics: MeanDynamics | None = None) -> StepSizeBounds:
    md = mean_dynamics if mean_dynamics is not None else assemble_mean_dynamics(network, matrices)
    links = network.topology.link_table()
    r_u = network.nodes.r_u

    # largest eigenvalue over each neighborhood, self included, never below 0
    lam_own = np.maximum(_lambda_max(r_u), 0.0)
    lam_clean = lam_own.copy()
    np.maximum.at(lam_clean, links.dst, lam_own[links.src])
    lam_noisy = lam_own.copy()
    np.maximum.at(lam_noisy, links.dst, _lambda_max(r_u[links.src] + network.link_noise.r_u_link))
    tight = _safe_bound(_lambda_max(md.r_prime))
    robust = _safe_bound(lam_noisy)
    noise_free = _safe_bound(lam_clean)

    c = matrices.c
    doubly = (
        bool(np.all(c >= 0))
        and bool(np.all(np.abs(c.sum(axis=0) - 1.0) <= 1e-12))
        and bool(np.all(np.abs(c.sum(axis=1) - 1.0) <= 1e-12))
    )
    return StepSizeBounds(mu=network.nodes.mu.copy(), tight=tight,
                          robust=robust if doubly else None,
                          noise_free=noise_free, c_doubly_stochastic=doubly)


def assemble_noise_moments(network: NetworkModel, matrices: CombinationMatrices,
                           mean_dynamics: MeanDynamics | None = None) -> np.ndarray:
    """The numerator W of the steady-state Stein equation, as in the module docstring.

    M is diagonal, so it is applied as a scale; W takes four NM x NM products.
    """
    md = mean_dynamics if mean_dynamics is not None else assemble_mean_dynamics(network, matrices)
    links = network.topology.link_table()
    src, dst = links.src, links.dst
    ln = network.link_noise
    r_u = network.nodes.r_u
    sigma_v2 = network.nodes.sigma_v2
    w_o = md.w_o
    mu = np.diag(md.big_m)

    s = _block_diag(sigma_v2[:, None, None] * r_u)

    def link_sum(mat, per_link):
        """Block-diagonal sum over in-links of mat[l, k]^2 * per_link[p]."""
        return _block_diag(links.segment_sum((mat[src, dst] ** 2)[:, None, None] * per_link, axis=0))

    sd2 = ln.sigma_d2[:, None, None]
    quad = np.einsum("m,pmq,q->p", w_o.conj(), ln.r_u_link, w_o).real[:, None, None]
    t = link_sum(matrices.c, (sigma_v2[src, None, None] + sd2) * ln.r_u_link
                 + (sd2 + quad) * r_u[src])
    shared = md.c_lift.T @ s @ md.c_lift + t + np.outer(md.z, md.z.conj())
    cross = np.outer(md.a1_lift.T @ md.bias_g, md.z.conj() * mu)
    inner = link_sum(matrices.a1, ln.r_w) + mu[:, None] * shared * mu - cross - cross.conj().T
    return md.a2_lift.T @ inner @ md.a2_lift + link_sum(matrices.a2, ln.r_psi)


# ---------------------------------------------------------------------------
# steady-state metrics


def _check_real(value: complex, context: str) -> float:
    scale = max(abs(value), 1e-300)
    if abs(value.imag) > IMAG_RESIDUAL_TOL * scale:
        raise InstabilityError(
            f"{context}: imaginary residual {value.imag:.3e} exceeds tolerance"
        )
    return float(value.real)


def _series_accumulate(b: np.ndarray, numerator: np.ndarray, omega: np.ndarray,
                       rho2: float, tol: float, max_terms: int):
    bh = b.conj().T
    x = numerator.astype(complex)
    total = 0.0 + 0.0j
    tail_gain = rho2 / max(1.0 - rho2, 1e-300)
    for j in range(max_terms):
        term = np.einsum("ij,ji->", x, omega)
        total += term
        if abs(term) * tail_gain <= tol * max(abs(total), 1e-300) or abs(term) == 0.0:
            return total, j + 1
        x = b @ x @ bh
    raise InstabilityError(f"series did not converge within {max_terms} terms")


def _stein_solve(b: np.ndarray, numerators, rho_b: float) -> np.ndarray:
    """Stack of solutions X = b X b^H + W, one per numerator W, by squared Smith doubling.

    Step k adds a x a^H with a = b^(2^k), doubling the series terms held in x.
    It stops once every increment is below machine precision relative to its x.
    """
    if rho_b ** 2 >= 1.0:
        raise InstabilityError(f"mean-square recursion unstable: rho(B)^2 = {rho_b ** 2:.6f} >= 1")
    x = np.array(numerators, dtype=complex)
    a = np.asarray(b, dtype=complex)
    eps = np.finfo(float).eps
    for _ in range(STEIN_MAX_STEPS):
        step = a @ x @ a.conj().T
        x = x + step
        if np.all(np.linalg.norm(step, axis=(1, 2)) <= eps * np.linalg.norm(x, axis=(1, 2))):
            return x
        a = a @ a
    raise InstabilityError(f"Stein solve did not converge within {STEIN_MAX_STEPS} doubling steps")


def _steady_state_values(md: MeanDynamics, numerators, omegas) -> list[list[float]]:
    """tr(X omega) for each numerator's Stein solution X and each weighting."""
    xs = _stein_solve(md.b, numerators, md.rho_b)
    return [[_check_real(complex(np.einsum("ij,ji->", x, omega)), "steady-state metric")
             for omega in omegas] for x in xs]


def _omegas(network: NetworkModel) -> list[np.ndarray]:
    """The network MSD and EMSE weightings, in that order."""
    n = network.n_nodes
    return [np.eye(n * network.m_dim) / n, _block_diag(network.nodes.r_u) / n]


def network_metrics(network: NetworkModel, matrices: CombinationMatrices) -> tuple[float, float]:
    """(MSD, EMSE) in linear scale, one Stein solve for both."""
    md = assemble_mean_dynamics(network, matrices)
    msd, emse = _steady_state_values(md, [assemble_noise_moments(network, matrices, md)],
                                     _omegas(network))[0]
    return msd, emse


def series_msd(mean_dynamics: MeanDynamics, numerator: np.ndarray,
               weighting: np.ndarray | None = None, tol: float = 1e-9,
               max_terms: int = 10 ** 6):
    """Geometric-series evaluation of the steady-state metric.

    Returns (value, terms_used). Default weighting is I/N (network MSD).
    Stops once the estimated tail drops below ``tol`` relative to the sum.
    """
    md = mean_dynamics
    if weighting is None:
        weighting = np.eye(md.b.shape[0]) / md.n_nodes
    rho2 = spectral_radius(md.b) ** 2
    if rho2 >= 1.0:
        raise InstabilityError(
            f"mean-square recursion unstable: rho(B)^2 = {rho2:.6f} >= 1"
        )
    total, terms = _series_accumulate(md.b, numerator, weighting, rho2, tol, max_terms)
    return _check_real(total, "steady-state metric (series)"), terms


# ---------------------------------------------------------------------------
# tracking


@dataclass
class TrackingMetrics:
    msd: float
    emse: float
    msd_stationary: float
    emse_stationary: float


def _tracking_numerator(md: MeanDynamics, r_eta: np.ndarray) -> np.ndarray:
    """R_zeta, the covariance that random-walk target increments add to W.

    Every node sees the same increment, so R_zeta is rank structured. It must
    be invariant under the lifted combine steps, which holds whenever A1 and
    A2 are left stochastic; the identity is verified numerically.
    """
    n = md.n_nodes
    r_zeta = np.kron(np.ones((n, n)), np.asarray(r_eta, dtype=complex))
    lhs = md.a2_lift.T @ md.a1_lift.T @ r_zeta @ md.a1_lift @ md.a2_lift
    scale = max(float(np.linalg.norm(r_zeta)), 1.0)
    if float(np.linalg.norm(lhs - r_zeta)) > 1e-10 * scale:
        raise ValueError(
            "tracking correction requires left-stochastic combination matrices"
        )
    return r_zeta


def tracking_metrics(network: NetworkModel, matrices: CombinationMatrices,
                     r_eta: np.ndarray | None = None) -> TrackingMetrics:
    """Steady-state metrics when the target performs a random walk, and without it."""
    if r_eta is None:
        r_eta = network.weights.r_eta
    if r_eta is None:
        raise ValueError("tracking metrics need r_eta (none on the network)")
    md = assemble_mean_dynamics(network, matrices)
    r_zeta = _tracking_numerator(md, r_eta)
    w = assemble_noise_moments(network, matrices, md)
    (msd, emse), (msd_st, emse_st) = _steady_state_values(md, [w + r_zeta, w], _omegas(network))
    return TrackingMetrics(msd=msd, emse=emse, msd_stationary=msd_st, emse_stationary=emse_st)


# ---------------------------------------------------------------------------
# stability


@dataclass
class StabilityInfo:
    rho_b: float
    rho_spectral_bound: float
    rho_f: float
    mean_stable: bool
    mean_square_stable: bool
    ill_conditioned: bool


def stability_report(mean_dynamics: MeanDynamics) -> StabilityInfo:
    """Spectral radii of the mean and mean-square recursions.

    rho_spectral_bound is the spectral radius of the block-diagonal adapt
    factor; it upper-bounds rho(B) because the combine lifts have unit block
    maximum norm.
    """
    md = mean_dynamics
    rho_b = md.rho_b
    mu = np.real(np.diag(md.big_m))[::md.m_dim]
    blocks = np.eye(md.m_dim) - mu[:, None, None] * md.r_prime
    rho_bound = float(np.abs(np.linalg.eigvalsh(hermitize(blocks))).max())
    rho_f = rho_b ** 2
    return StabilityInfo(
        rho_b=rho_b,
        rho_spectral_bound=rho_bound,
        rho_f=rho_f,
        mean_stable=rho_b < 1.0,
        mean_square_stable=rho_f < 1.0,
        ill_conditioned=abs(1.0 - rho_b) <= ILL_CONDITIONED_TOL,
    )


# ---------------------------------------------------------------------------
# full report


@dataclass
class TheoryReport:
    stability: StabilityInfo
    bounds: StepSizeBounds
    bias_g: np.ndarray | None
    msd: float | None
    emse: float | None
    msd_track: float | None
    emse_track: float | None
    warnings: list[str]

    def to_dict(self) -> dict:
        def to_db(x):
            if x is None:
                return None
            return float(10.0 * np.log10(x)) if x > 0 else float("-inf")

        b = self.bounds
        ok_r = b.ok_robust()
        mu_bounds = []
        for k in range(len(b.mu)):
            mu_bounds.append({
                "node": k + 1,
                "mu": float(b.mu[k]),
                "bound_tight": float(b.tight[k]),
                "bound_robust": None if b.robust is None else float(b.robust[k]),
                "bound_noise_free": float(b.noise_free[k]),
                "ok_tight": bool(b.mu[k] < b.tight[k]),
                "ok_robust": None if ok_r is None else bool(ok_r[k]),
            })
        out = {
            "rho_b": float(self.stability.rho_b),
            "rho_spectral_bound": float(self.stability.rho_spectral_bound),
            "rho_f": float(self.stability.rho_f),
            "mu_bounds": mu_bounds,
            "bias_norm": (None if self.bias_g is None
                          else float(np.linalg.norm(self.bias_g))),
            "msd_db": to_db(self.msd),
            "emse_db": to_db(self.emse),
            "warnings": list(self.warnings),
        }
        if self.msd_track is not None:
            out["msd_track_db"] = to_db(self.msd_track)
            out["emse_track_db"] = to_db(self.emse_track)
        return out


def theory_report(network: NetworkModel, matrices: CombinationMatrices) -> TheoryReport:
    """Assemble stability, bounds, bias, and steady-state metrics.

    Instability never raises here: it lands in ``warnings`` and the affected
    metrics are left as None, as are MSD and EMSE for a rotating target.
    """
    md = assemble_mean_dynamics(network, matrices)
    stab = stability_report(md)
    bounds = step_size_bounds(network, matrices, md)
    warnings: list[str] = []

    if not stab.mean_stable or not np.all(bounds.ok_tight()):
        bad = np.flatnonzero(~bounds.ok_tight()) + 1
        detail = f" (nodes {bad.tolist()} above the spectral bound)" if bad.size else ""
        warnings.append(f"mean-unstable: rho(B) = {stab.rho_b:.6f}{detail}")
    if stab.ill_conditioned:
        warnings.append("ill-conditioned: rho(B) within 1e-6 of 1")
    if bounds.robust is None:
        warnings.append(
            "robust step-size bound skipped: data-sharing matrix is not doubly stochastic"
        )

    bias_g = None
    try:
        bias_g = md.bias_g
    except np.linalg.LinAlgError:
        warnings.append("bias solve failed: mean recursion is singular")

    msd = emse = msd_track = emse_track = None
    if not stab.mean_square_stable:
        warnings.append(f"mean-square-unstable: rho(B)^2 = {stab.rho_f:.6f}")
    elif network.weights.mode == "rotation":
        warnings.append("steady-state metrics omitted: no closed form for target mode 'rotation'")
    else:
        w = assemble_noise_moments(network, matrices, md)
        numerators = [w]
        if network.weights.mode == "random_walk" and network.weights.r_eta is not None:
            try:
                numerators.append(w + _tracking_numerator(md, network.weights.r_eta))
            except ValueError as exc:
                warnings.append(f"tracking metrics failed: {exc}")
        try:
            values = _steady_state_values(md, numerators, _omegas(network))
            msd, emse = values[0]
            if len(values) > 1:
                msd_track, emse_track = values[1]
        except InstabilityError as exc:
            warnings.append(f"steady-state solve failed: {exc}")

    return TheoryReport(stability=stab, bounds=bounds, bias_g=bias_g,
                        msd=msd, emse=emse, msd_track=msd_track,
                        emse_track=emse_track, warnings=warnings)
