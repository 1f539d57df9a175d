"""Closed-form mean and mean-square analysis of the noisy diffusion recursion.

Everything here works on the stacked network error vector (node-major, M
coordinates per node). The central objects are the mean-transition matrix B,
the mean drive y induced by regressor link noise (it biases the mean to g),
and the numerator W of the steady-state metric

    value = tr(X omega),   X = B X B^H + W  (a Stein / discrete Lyapunov equation).

Each combine acts over the node axis (``node_product``, as in the engine), so
every lifted term is a block congruence of an (N, M, M) stack, K(L, X, R)
with block (k, l) = sum_j L[j, k] X_j R[j, l], and K(L, X) = K(L, X, L).
With M = diag(mu), y = ((M A2)^T (x) I) z and x = ((A1 A2)^T (x) I) g,

    B = K(A2, I - M R', A1^T),
    W = K(C M A2, S) + K(A2, R_w + M^2 T) + bdiag(R_psi) + y y^H - x y^H - y x^H,

with S, T, R_w and R_psi stacking gradient noise, shared-data noise and the
link noise each receiver takes in on estimates and on intermediate estimates.
A random-walk target adds R_zeta = 1 1^T (x) R_eta. X is solved by squared
Smith doubling (R. A. Smith, SIAM J. Appl. Math. 16(1), 1968) with NM x NM
products only. Network MSD weighs X by I/N, network EMSE by bdiag(R_u)/N.

B is stored real when no entry has an imaginary part, as whenever R_u, the
regressor link noise and the combines are real (the noisy-exchange presets).
The Stein solve, the spectral radius and the bias solve then run in float64;
a complex W (z != 0 with a complex w0) is solved as its real and imaginary parts.
``theory_report`` records this in ``diagnostics``: ``arithmetic`` ("real" or
"complex"), ``stein_steps`` (doubling steps), ``residual`` (the largest
||X - B X B^H - W||_F / ||X||_F over the numerators) and ``imag_residual``
(the largest |Im v| / |v| over the metrics v), None when no steady state is
solved, and ``tracking_residual`` (R_zeta's relative change under the
combines), None unless the target is a random walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import hermitize, node_product, spectral_radius
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
    """(N, M, M) stack -> (NM, NM) block diagonal, of the stack's dtype."""
    n, m, _ = blocks.shape
    out = np.zeros((n, m, n, m), dtype=blocks.dtype)
    out[np.arange(n), :, np.arange(n), :] = blocks
    return out.reshape(n * m, n * m)


def _congruence(left: np.ndarray, blocks: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(left (x) I)^T bdiag(blocks) (right (x) I) for real N x N ``left`` and ``right``: block
    (k, l) is sum_j left[j, k] blocks[j] right[j, l], one product over the node axis."""
    n, m, _ = blocks.shape
    blocks = blocks if np.any(blocks.imag) else blocks.real
    scaled = blocks[:, :, None, :] * right[:, None, :, None]  # [j, a, l, b]
    return node_product(left.T, scaled.reshape(n, -1)).reshape(n * m, n * m)


@dataclass
class MeanDynamics:
    """Mean error recursion  E err_i = b (E err_{i-1}) - drive,  drive = ((M A2)^T (x) I) z.

    ``b`` is float64 when it has no imaginary part, and every solve on it then
    runs in real arithmetic.
    """

    n_nodes: int
    m_dim: int
    w_o: np.ndarray
    r_prime: np.ndarray
    b: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    drive: np.ndarray

    @property
    def arithmetic(self) -> str:
        """"real" or "complex": the arithmetic of every solve on ``b``."""
        return "complex" if np.iscomplexobj(self.b) else "real"

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
    regressor link noise injects (zero without it). b keeps its imaginary
    part only if some entry of it is nonzero.
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

    mu = network.nodes.mu.copy()
    b = _congruence(matrices.a2, np.eye(m) - mu[:, None, None] * r_prime, matrices.a1.T)
    if not np.any(b.imag):
        b = np.ascontiguousarray(b.real)
    drive = node_product((mu[:, None] * matrices.a2).T, z_blocks).reshape(-1)
    return MeanDynamics(n_nodes=n, m_dim=m, w_o=w_o, r_prime=r_prime, b=b,
                        z=z_blocks.reshape(-1), mu=mu, drive=drive)


def bias(mean_dynamics: MeanDynamics) -> np.ndarray:
    """Asymptotic mean error: the fixed point of the mean recursion.

    Solves (I - b) g = -drive. Zero exactly when z is zero. A real b takes the
    real and imaginary parts of the right side as two real columns.
    """
    md = mean_dynamics
    lhs = np.eye(len(md.drive)) - md.b
    if np.iscomplexobj(lhs):
        return np.linalg.solve(lhs, -md.drive)
    parts = np.linalg.solve(lhs, -np.stack([md.drive.real, md.drive.imag], axis=1))
    return parts[:, 0] + 1j * parts[:, 1]


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
    lam_noisy = np.diag(lam_own)  # [l, k]: what node k sees of node l
    lam_noisy[links.src, links.dst] = _lambda_max(r_u[links.src] + network.link_noise.r_u_link)
    tight = _safe_bound(_lambda_max(md.r_prime))
    robust = _safe_bound(lam_noisy.max(axis=0))
    noise_free = _safe_bound(np.max(network.topology.adjacency * lam_own[:, None], axis=0))

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
    """The numerator W of the steady-state Stein equation, as in the module docstring."""
    md = mean_dynamics if mean_dynamics is not None else assemble_mean_dynamics(network, matrices)
    links = network.topology.link_table()
    src, dst = links.src, links.dst
    ln = network.link_noise
    r_u = network.nodes.r_u
    sigma_v2 = network.nodes.sigma_v2
    w_o = md.w_o
    mu, a2 = md.mu, matrices.a2

    def link_sum(mat, per_link):
        """(N, M, M) sums over each receiver's in-links of mat[l, k]^2 * per_link[p]."""
        return links.segment_sum((mat[src, dst] ** 2)[:, None, None] * per_link, axis=0)

    sd2 = ln.sigma_d2[:, None, None]
    quad = np.einsum("m,pmq,q->p", w_o.conj(), ln.r_u_link, w_o).real[:, None, None]
    t = link_sum(matrices.c, (sigma_v2[src, None, None] + sd2) * ln.r_u_link
                 + (sd2 + quad) * r_u[src])
    cma = matrices.c * mu @ a2
    x = node_product((matrices.a1 @ a2).T, md.bias_g.reshape(md.n_nodes, -1)).reshape(-1)
    cross = np.outer(x, md.drive.conj())
    return (_congruence(cma, sigma_v2[:, None, None] * r_u, cma)
            + _congruence(a2, link_sum(matrices.a1, ln.r_w) + mu[:, None, None] ** 2 * t, a2)
            + _block_diag(link_sum(a2, ln.r_psi))
            + np.outer(md.drive, md.drive.conj()) - cross - cross.conj().T)


# ---------------------------------------------------------------------------
# steady-state metrics


def _check_real(value: complex, context: str) -> float:
    scale = max(abs(value), 1e-300)
    if abs(value.imag) > IMAG_RESIDUAL_TOL * scale:
        raise InstabilityError(
            f"{context}: imaginary residual {value.imag:.3e} exceeds tolerance"
        )
    return float(value.real)


@dataclass
class SteinSolution:
    """The solutions X of one Stein solve, one per numerator; iterating yields them.

    ``steps`` counts the doubling steps; ``residual`` is the largest
    ||X - b X b^H - W||_F / ||X||_F over the numerators.
    """

    x: np.ndarray
    steps: int
    residual: float

    def __iter__(self):
        return iter(self.x)


def _stein_solve(b: np.ndarray, numerators, rho_b: float) -> SteinSolution:
    """Solutions X = b X b^H + W, one per numerator W, by squared Smith doubling.

    Step k adds a x a^H with a = b^(2^k), doubling the series terms held in x.
    It stops once every increment is below machine precision relative to its x.
    A real b runs in float64: the map is then real-linear, so the numerators'
    real parts and, if any is nonzero, their imaginary parts are solved as
    separate real numerators.
    """
    if rho_b ** 2 >= 1.0:
        raise InstabilityError(f"mean-square recursion unstable: rho(B)^2 = {rho_b ** 2:.6f} >= 1")
    w = np.asarray(numerators)
    count = len(w)
    if not np.iscomplexobj(b) and np.iscomplexobj(w):
        w = np.concatenate([w.real, w.imag]) if np.any(w.imag) else w.real
    w = np.ascontiguousarray(w, dtype=np.result_type(b, w))
    x, a = w, b
    eps = np.finfo(float).eps
    for steps in range(1, STEIN_MAX_STEPS + 1):
        step = a @ x @ a.conj().T
        x = x + step
        if np.all(np.linalg.norm(step, axis=(1, 2)) <= eps * np.linalg.norm(x, axis=(1, 2))):
            break
        a = a @ a
    else:
        raise InstabilityError(f"Stein solve did not converge within {STEIN_MAX_STEPS} doubling steps")
    residual = x - b @ x @ b.conj().T - w
    if len(x) > count:  # the imaginary parts follow the real ones
        x, residual = (part[:count] + 1j * part[count:] for part in (x, residual))
    size = np.maximum(np.linalg.norm(x, axis=(1, 2)), np.finfo(float).tiny)
    return SteinSolution(x=x, steps=steps,
                         residual=float(np.max(np.linalg.norm(residual, axis=(1, 2)) / size)))


def _steady_state(network: NetworkModel, matrices: CombinationMatrices, md: MeanDynamics,
                  r_eta: np.ndarray | None = None) -> tuple[list[tuple[float, float]], dict]:
    """(MSD, EMSE) for the Stein numerator W and, given ``r_eta``, for W + R_zeta, from one
    Stein solve, and that solve's ``stein_steps``, ``residual`` and ``imag_residual``;
    ValueError if the combine does not keep R_zeta (``_tracking_numerator``)."""
    w = assemble_noise_moments(network, matrices, md)
    numerators = [w] if r_eta is None else [w, w + _tracking_numerator(matrices, r_eta)]
    omegas = _omegas(network)
    solution = _stein_solve(md.b, numerators, md.rho_b)
    traces = [[complex(np.einsum("ij,ji->", x, omega)) for omega in omegas] for x in solution]
    imag = max(abs(v.imag) / max(abs(v), 1e-300) for row in traces for v in row)
    return ([tuple(_check_real(v, "steady-state metric") for v in row) for row in traces],
            {"stein_steps": solution.steps, "residual": solution.residual, "imag_residual": imag})


def _omegas(network: NetworkModel) -> list[np.ndarray]:
    """The network MSD and EMSE weightings, in that order."""
    n = network.n_nodes
    return [np.eye(n * network.m_dim) / n, _block_diag(network.nodes.r_u) / n]


def network_metrics(network: NetworkModel, matrices: CombinationMatrices) -> tuple[float, float]:
    """(MSD, EMSE) in linear scale, one Stein solve for both."""
    return _steady_state(network, matrices, assemble_mean_dynamics(network, matrices))[0][0]


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
    b, bh = md.b, md.b.conj().T
    x, total = numerator.astype(complex), 0.0 + 0.0j
    tail_gain = rho2 / max(1.0 - rho2, 1e-300)
    for terms in range(1, max_terms + 1):
        term = np.einsum("ij,ji->", x, weighting)
        total += term
        if abs(term) * tail_gain <= tol * max(abs(total), 1e-300) or abs(term) == 0.0:
            return _check_real(total, "steady-state metric (series)"), terms
        x = b @ x @ bh
    raise InstabilityError(f"series did not converge within {max_terms} terms")


# ---------------------------------------------------------------------------
# tracking


@dataclass
class TrackingMetrics:
    msd: float
    emse: float
    msd_stationary: float
    emse_stationary: float


def _tracking_residual(matrices: CombinationMatrices, r_eta: np.ndarray) -> float:
    """||v v^T - 1 1^T|| ||R_eta|| / max(N ||R_eta||, 1), v = A2^T A1^T 1: how far the combine
    steps move R_zeta (to v v^T (x) R_eta), relative to it; zero if A1 and A2 are left stochastic."""
    n = len(matrices.a1)
    v = matrices.a2.T @ (matrices.a1.T @ np.ones(n))
    eta_norm = float(np.linalg.norm(r_eta))
    return float(np.linalg.norm(np.outer(v, v) - 1.0)) * eta_norm / max(n * eta_norm, 1.0)


def _tracking_numerator(matrices: CombinationMatrices, r_eta: np.ndarray) -> np.ndarray:
    """R_zeta = 1 1^T (x) R_eta, the covariance that random-walk target increments (the same at
    every node) add to W; ValueError unless the combine steps keep it (``_tracking_residual``)."""
    if _tracking_residual(matrices, r_eta) > 1e-10:
        raise ValueError("tracking correction requires left-stochastic combination matrices")
    n = len(matrices.a1)
    return np.kron(np.ones((n, n)), np.asarray(r_eta, dtype=complex))


def tracking_metrics(network: NetworkModel, matrices: CombinationMatrices,
                     r_eta: np.ndarray | None = None) -> TrackingMetrics:
    """Steady-state metrics when the target performs a random walk, and without it."""
    if r_eta is None:
        r_eta = network.weights.r_eta
    if r_eta is None:
        raise ValueError("tracking metrics need r_eta (none on the network)")
    (msd_st, emse_st), (msd, emse) = _steady_state(
        network, matrices, assemble_mean_dynamics(network, matrices), r_eta)[0]
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
    factor; it upper-bounds rho(B) because the combine steps have unit block
    maximum norm.
    """
    md = mean_dynamics
    rho_b = md.rho_b
    blocks = np.eye(md.m_dim) - md.mu[:, None, None] * md.r_prime
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
    diagnostics: dict

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
        out["diagnostics"] = dict(self.diagnostics)
        return out


def theory_report(network: NetworkModel, matrices: CombinationMatrices) -> TheoryReport:
    """Assemble stability, bounds, bias, and steady-state metrics.

    Instability never raises here: it lands in ``warnings`` and the affected
    metrics are left as None, as are MSD and EMSE for a rotating target.
    ``diagnostics`` names the arithmetic of the solves, the tracking residual
    for a random-walk target and, once the Stein solve has run, its doubling
    steps, residual and imaginary residual (None before).
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
    r_eta = network.weights.r_eta if network.weights.mode == "random_walk" else None
    diagnostics = {"arithmetic": md.arithmetic, "stein_steps": None, "residual": None,
                   "imag_residual": None, "tracking_residual": None}
    if r_eta is not None:
        diagnostics["tracking_residual"] = _tracking_residual(matrices, r_eta)
    if not stab.mean_square_stable:
        warnings.append(f"mean-square-unstable: rho(B)^2 = {stab.rho_f:.6f}")
    elif network.weights.mode == "rotation":
        warnings.append("steady-state metrics omitted: no closed form for target mode 'rotation'")
    else:
        try:
            try:
                values, solved = _steady_state(network, matrices, md, r_eta)
            except ValueError as exc:
                warnings.append(f"tracking metrics failed: {exc}")
                values, solved = _steady_state(network, matrices, md)
            diagnostics.update(solved)
            msd, emse = values[0]
            if len(values) > 1:
                msd_track, emse_track = values[1]
        except InstabilityError as exc:
            warnings.append(f"steady-state solve failed: {exc}")

    return TheoryReport(stability=stab, bounds=bounds, bias_g=bias_g,
                        msd=msd, emse=emse, msd_track=msd_track,
                        emse_track=emse_track, warnings=warnings, diagnostics=diagnostics)
