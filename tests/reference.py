"""Per-node reference versions of library internals, kept as test oracles.

The engine runs the adaptive combination rule batched over runs and links
inside ``diffnet.simulate.diffusion_step``; ``diffnet.combine`` builds the
static rules and ``diffnet.theory`` the stability bound as whole-network
array operations. The node-at-a-time versions here are what those are
checked against, and ``noise_numerator`` is the three-term assembly of the
Stein numerator W that ``diffnet.theory.assemble_noise_moments`` is checked
against. ``simulate_chunk`` is the engine's chunk loop with its learning-curve
metrics computed one iteration at a time, the oracle for the window-wise
reduction in ``diffnet.simulate._simulate_chunk``, over windows of its own
length; ``crandn_pairs`` is the complex sampler as one real draw of each
entry's [re, im] pair and a complex division. The block maximum norm, the series EMSE and a topology's ``neighbors`` and
``degree`` are helpers that only the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diffnet.network import CombinationMatrices, NetworkModel, Topology
from diffnet.simulate import (DIVERGENCE_THRESHOLD, DiffusionState, StepData, _Sampler,
                              diffusion_step)
from diffnet.theory import MeanDynamics, _block_diag, series_msd


def neighbors(topology: Topology, k: int) -> np.ndarray:
    """Sorted neighborhood of node k, including k itself."""
    return np.flatnonzero(topology.adjacency[:, k])


def degree(topology: Topology, k: int) -> int:
    """Neighborhood size |N_k|, counting the node itself."""
    return int(np.count_nonzero(topology.adjacency[:, k]))


@dataclass
class AdaptiveWeightState:
    """Running noise-power estimates for the adaptive rule.

    gamma2_self[k] tracks the node's own entry, gamma2_link[p] the entry of
    directed cross link p in canonical link order; nu[k] is node k's
    forgetting factor. Column k of the state is only ever touched by node k.
    """

    nu: np.ndarray
    gamma2_self: np.ndarray
    gamma2_link: np.ndarray
    links: list[tuple[int, int]]

    @classmethod
    def initial(cls, topology: Topology, nu) -> "AdaptiveWeightState":
        n = topology.n_nodes
        links = list(topology.link_table())
        nu_arr = np.broadcast_to(np.asarray(nu, dtype=float), (n,)).copy()
        if np.any(nu_arr <= 0) or np.any(nu_arr > 1):
            raise ValueError("forgetting factor must lie in (0, 1]")
        return cls(
            nu=nu_arr,
            gamma2_self=np.ones(n),
            gamma2_link=np.ones(len(links)),
            links=links,
        )


def adaptive_update(state: AdaptiveWeightState, topology: Topology, k: int,
                    psi_received: np.ndarray, w_prev: np.ndarray):
    """One adaptive-rule update at node k.

    Parameters
    ----------
    psi_received : (|N_k|, M) received intermediate estimates in sorted
        neighbor order; the row at node k's own position is its own estimate.
    w_prev : (M,) node k's estimate from the previous iteration.

    Returns
    -------
    (state, column) : updated state (new arrays, input untouched) and the
        length-N weight column a_{.k}, zero off the neighborhood.
    """
    if not 0 <= k < topology.n_nodes:
        raise ValueError(f"node {k} is outside 0..{topology.n_nodes - 1}")
    nbrs = neighbors(topology, k)
    if psi_received.shape != (len(nbrs), len(w_prev)):
        raise ValueError(
            f"psi_received has shape {psi_received.shape}, expected ({len(nbrs)}, {len(w_prev)})"
        )
    new = AdaptiveWeightState(
        nu=state.nu,
        gamma2_self=state.gamma2_self.copy(),
        gamma2_link=state.gamma2_link.copy(),
        links=state.links,
    )
    slot = topology.link_table().slot
    nu_k = state.nu[k]
    sq = np.sum(np.abs(psi_received - w_prev[None, :]) ** 2, axis=1)
    gamma2 = np.empty(len(nbrs))
    for j, l in enumerate(nbrs):
        if l == k:
            new.gamma2_self[k] = (1.0 - nu_k) * state.gamma2_self[k] + nu_k * sq[j]
            gamma2[j] = new.gamma2_self[k]
        else:
            p = slot[l, k]
            new.gamma2_link[p] = (1.0 - nu_k) * state.gamma2_link[p] + nu_k * sq[j]
            gamma2[j] = new.gamma2_link[p]

    column = np.zeros(topology.n_nodes)
    zero = gamma2 == 0.0
    if zero.any():
        column[nbrs[zero]] = 1.0 / zero.sum()
    else:
        inv = 1.0 / gamma2
        column[nbrs] = inv / inv.sum()
    return new, column


# ---------------------------------------------------------------------------
# per-node combination rules and stability bound


def metropolis(topology: Topology) -> np.ndarray:
    """Metropolis weights built one receiving node at a time."""
    n = topology.n_nodes
    deg = np.array([degree(topology, k) for k in range(n)])
    a = np.zeros((n, n))
    for k in range(n):
        for l in neighbors(topology, k):
            if l != k:
                a[l, k] = 1.0 / max(deg[k], deg[l])
        a[k, k] = 1.0 - a[:, k].sum()
    return a


def uniform(topology: Topology) -> np.ndarray:
    """Uniform neighborhood averaging built one receiving node at a time."""
    n = topology.n_nodes
    a = np.zeros((n, n))
    for k in range(n):
        nbrs = neighbors(topology, k)
        a[nbrs, k] = 1.0 / len(nbrs)
    return a


def weights_from_gamma2(topology: Topology, gamma2: np.ndarray) -> np.ndarray:
    """Inverse-variance weights normalized one neighborhood at a time."""
    n = topology.n_nodes
    a = np.zeros((n, n))
    for k in range(n):
        nbrs = neighbors(topology, k)
        g = gamma2[nbrs, k]
        zero = g == 0.0
        if zero.any():
            a[nbrs[zero], k] = 1.0 / zero.sum()
        else:
            inv = 1.0 / g
            a[nbrs, k] = inv / inv.sum()
    return a


def rho_spectral_bound(network: NetworkModel, md: MeanDynamics) -> float:
    """Largest |eigenvalue| of the Hermitian adapt blocks I - mu_k r_prime[k], node by node."""
    m = md.m_dim
    mu = network.nodes.mu
    rho_bound = 0.0
    for k in range(md.n_nodes):
        block = np.eye(m) - mu[k] * md.r_prime[k]
        rho_bound = max(rho_bound, float(np.abs(np.linalg.eigvalsh(
            0.5 * (block + block.conj().T))).max()))
    return rho_bound


# ---------------------------------------------------------------------------
# three-term Stein numerator


def noise_numerator(network: NetworkModel, matrices: CombinationMatrices,
                    md: MeanDynamics) -> np.ndarray:
    """W as the sum of three second-order moments, each with full NM x NM products
    through dense Kronecker lifts of the combines and step sizes.

    s: block-diagonal gradient-noise covariance from own measurements.
    r_v: covariance of all additive terms entering the error recursion: link
       noise on exchanged estimates and intermediate estimates, the extra
       covariance from sharing noisy data, and the regressor-noise drift.
    y: cross-moment between the error and the additive noise (zero without
       regressor link noise).
    """
    links = network.topology.link_table()
    src, dst = links.src, links.dst
    ln = network.link_noise
    r_u = network.nodes.r_u
    sigma_v2 = network.nodes.sigma_v2
    w_o = md.w_o

    s = _block_diag(sigma_v2[:, None, None] * r_u)

    def link_sum(mat, per_link):
        """Block-diagonal sum over in-links of mat[l, k]^2 * per_link[p]."""
        return _block_diag(links.segment_sum((mat[src, dst] ** 2)[:, None, None] * per_link, axis=0))

    sd2 = ln.sigma_d2[:, None, None]
    quad = np.einsum("m,pmq,q->p", w_o.conj(), ln.r_u_link, w_o).real[:, None, None]
    t = link_sum(matrices.c, (sigma_v2[src, None, None] + sd2) * ln.r_u_link
                 + (sd2 + quad) * r_u[src])
    r_v_w = link_sum(matrices.a1, ln.r_w)
    r_v_psi = link_sum(matrices.a2, ln.r_psi)
    zz = np.outer(md.z, md.z.conj())

    eye = np.eye(network.m_dim)
    a1_lift, a2_lift, c_lift = (np.kron(a, eye) for a in (matrices.a1, matrices.a2, matrices.c))
    big_m = np.kron(np.diag(network.nodes.mu), eye)
    a2t = a2_lift.T
    r_v = a2t @ r_v_w @ a2_lift + r_v_psi + a2t @ big_m @ (t + zz) @ big_m @ a2_lift

    y = -a2t @ a1_lift.T @ np.outer(md.bias_g, md.z.conj()) @ big_m @ a2_lift

    core = a2t @ big_m @ c_lift.T @ s @ c_lift @ big_m @ a2_lift
    return core + r_v + y + y.conj().T


# ---------------------------------------------------------------------------
# analysis helpers used only by the tests


def series_emse(mean_dynamics: MeanDynamics, numerator: np.ndarray,
                r_u: np.ndarray, tol: float = 1e-9, max_terms: int = 10 ** 6):
    """Series evaluation with the EMSE weighting built from (N, M, M) r_u."""
    omega = _block_diag(r_u) / mean_dynamics.n_nodes
    return series_msd(mean_dynamics, numerator, omega, tol, max_terms)


def _split_blocks(x: np.ndarray, m_dim: int) -> np.ndarray:
    dim = x.shape[0]
    n = dim // m_dim
    return x.reshape(n, m_dim, n, m_dim).transpose(0, 2, 1, 3)


def block_max_norm(x: np.ndarray, m_dim: int) -> float:
    """Block maximum norm of a stacked vector or its induced matrix norm.

    Vectors: the largest per-node Euclidean norm. Matrices: exact for the
    two structured cases that arise in the stability analysis (Kronecker
    lifts of right-stochastic matrices give exactly 1; block-diagonal
    Hermitian matrices give their spectral radius); anything else falls back
    to a bounded power-ascent lower-bound estimate.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        if x.size % m_dim:
            raise ValueError("vector length is not a multiple of the block size")
        return float(np.max(np.linalg.norm(x.reshape(-1, m_dim), axis=1)))
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] % m_dim:
        raise ValueError("expected a square matrix of stacked blocks")
    blocks = _split_blocks(x, m_dim)
    n = blocks.shape[0]
    off = blocks.copy()
    off[np.arange(n), np.arange(n)] = 0.0

    scale = max(float(np.abs(x).max()), 1e-300)
    if not np.any(np.abs(off) > 1e-14 * scale):
        diag = blocks[np.arange(n), np.arange(n)]
        herm = max(float(np.abs(diag[k] - diag[k].conj().T).max()) for k in range(n))
        if herm <= 1e-12 * scale:
            return max(float(np.abs(np.linalg.eigvalsh(diag[k])).max()) for k in range(n))

    coeff = blocks[:, :, 0, 0]
    lift = coeff[:, :, None, None] * np.eye(m_dim)[None, None]
    if np.all(np.abs(blocks - lift) <= 1e-12 * scale):
        a = coeff.real
        if (np.all(np.abs(coeff.imag) <= 1e-12 * scale) and np.all(a >= -1e-12)
                and np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-12)):
            return 1.0
    return _power_ascent(blocks)


def _power_ascent(blocks: np.ndarray, iters: int = 80, restarts: int = 4) -> float:
    """Lower-bound estimate of the induced block-max norm by alternating ascent."""
    n, _, m, _ = blocks.shape
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(restarts):
        x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        for _ in range(iters):
            y = np.einsum("lkab,kb->la", blocks, x)
            norms = np.linalg.norm(y, axis=1)
            best = max(best, float(norms.max()))
            l_star = int(np.argmax(norms))
            if norms[l_star] == 0.0:
                break
            u = y[l_star] / norms[l_star]
            x_new = np.einsum("kba,b->ka", blocks[l_star].conj(), u)
            nrm = np.linalg.norm(x_new, axis=1)
            keep = nrm <= 1e-300
            x = np.where(keep[:, None], x, x_new / np.where(keep, 1.0, nrm)[:, None])
    return best


def crandn_pairs(gen: np.random.Generator, shape) -> np.ndarray:
    pairs = gen.standard_normal(tuple(shape) + (2,))
    return (pairs[..., 0] + 1j * pairs[..., 1]) / np.sqrt(2.0)


WINDOW = 256  # simulate_chunk's own window length, not the engine's


def simulate_chunk(network, op, mode, options, policy, runs, iterations):
    """The arguments of ``diffnet.simulate._simulate_chunk`` with ``iterations`` for its
    records; returns what it writes into them, keyed alike, None for one not recorded."""
    n, m = op.n, op.m
    r = len(runs)
    sampler = _Sampler(network, op, mode, policy, runs,
                       adaptive=options.adaptive_slot is not None)
    nu = options.nu if options.adaptive_slot is not None else None
    state = DiffusionState.initial(n, m, batch=(r,), adaptive_nu=nu,
                                   n_links=len(op.src))
    w_true = np.tile(np.asarray(network.weights.w0, dtype=complex), (r, 1))
    if mode == "rotation":
        phase = np.exp(1j * network.weights.omega)

    msd = np.empty((r, iterations))
    emse = np.empty((r, iterations))
    bad = np.zeros(r, dtype=bool)
    err_traj = (np.empty((r, iterations, n, m), dtype=complex)
                if options.record_mean_error else None)
    wbar = np.empty((r, iterations, m), dtype=complex) if options.record_trajectory else None
    wtrue_traj = (np.empty((r, iterations, m), dtype=complex)
                  if options.record_trajectory else None)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < iterations:
            t_win = min(WINDOW, iterations - done)
            draws = sampler.window(t_win)
            for t in range(t_win):
                i = done + t
                if mode == "random_walk":
                    w_true = w_true + draws["eta"][:, t, 0]
                elif mode == "rotation":
                    w_true = w_true * phase
                u_t = draws["u"][:, t]
                err_prev = w_true[:, None, :] - state.w
                emse[:, i] = np.mean(
                    np.abs(np.einsum("rkm,rkm->rk", u_t, err_prev)) ** 2, axis=1
                )
                data = StepData(
                    u=u_t,
                    v=draws["v"][:, t],
                    w_true=w_true,
                    v_w=draws["v_w"][:, t] if "v_w" in draws else None,
                    v_psi=draws["v_psi"][:, t] if "v_psi" in draws else None,
                    v_d=draws["v_d"][:, t] if "v_d" in draws else None,
                    v_u=draws["v_u"][:, t] if "v_u" in draws else None,
                )
                state = diffusion_step(state, op, data)
                err = w_true[:, None, :] - state.w
                err2 = np.sum(np.abs(err) ** 2, axis=-1)
                msd[:, i] = np.mean(err2, axis=1)
                node_max = np.max(err2, axis=1)
                bad |= ~np.isfinite(node_max) | (node_max > DIVERGENCE_THRESHOLD)
                if err_traj is not None:
                    err_traj[:, i] = err
                if wbar is not None:
                    wbar[:, i] = np.mean(state.w, axis=1)
                    wtrue_traj[:, i] = w_true
            done += t_win
    return {"msd": msd, "emse": emse, "bad": bad, "err": err_traj,
            "wbar": wbar, "wtrue": wtrue_traj}
