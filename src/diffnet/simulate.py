"""Monte-Carlo engine for diffusion adaptation with noisy information exchange.

Each iteration of the simulated recursion runs three steps per node:
combine neighbor estimates received over noisy links, adapt against shared
(measurement, regressor) pairs received over noisy links, then combine the
neighbors' intermediate estimates received over noisy links. Self links are
perfect; the four exchange-noise sources (estimates, intermediate estimates,
measurements, regressors) act only on cross links.

Reproducibility contract: every (run, node, noise-source) triple owns an
independent RNG stream derived from the master seed, link noise being owned
by the receiving node. Curves are bit-identical for a fixed master seed
whatever the thread count, ``chunk_size`` or the length ``BLOCK`` of the
iteration blocks over which the curves are reduced; runs are reduced in
run-index order. Noise is drawn in fixed windows of ``WINDOW`` iterations
per stream, straight into the window buffers.

``diffusion_step`` is the single implementation of the recursion. It accepts
arbitrary leading batch dimensions on the state, so the Monte-Carlo driver
vectorizes across runs by calling it on stacked states. Each exchange is a
gather over the directed links, a per-link scale and a segment sum over each
receiver's in-links, so a step costs O(L M) for L links.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import crandn, db10, psd_factor
from .network import WEIGHT_MODES, CombinationMatrices, NetworkModel

__all__ = [
    "RngPolicy",
    "SimulationOptions",
    "StepData",
    "AdaptiveArrays",
    "DiffusionState",
    "LearningCurve",
    "StepOperator",
    "diffusion_step",
    "run_monte_carlo",
    "steady_state_level",
    "curve_to_csv",
    "trajectory_to_csv",
]

_SOURCE_IDS = {"u": 0, "v": 1, "eta": 2, "w": 3, "psi": 4, "d": 5, "u_link": 6}

WINDOW = 256  # iterations of noise drawn per batch; part of the realization
BLOCK = 8  # iterations per curve reduction, output-neutral; kept under the 128 KiB mmap threshold
DIVERGENCE_THRESHOLD = 1e12  # squared node error above which a run counts as divergent


@dataclass(frozen=True)
class RngPolicy:
    """Deterministic stream derivation from a single master seed.

    Stream (run, source, owner) is seeded by
    SeedSequence(master_seed, spawn_key=(run, source_id, owner)); sources are
    "u" and "v" (owner = node), "eta" (the target's random-walk increments,
    owner 0), and the link sources "w", "psi", "d", "u_link" (owner = the
    receiving node, covering its in-links in canonical link order).
    """

    master_seed: int

    def stream(self, run: int, source: str, owner: int = 0) -> np.random.Generator:
        sid = _SOURCE_IDS[source]
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(run, sid, owner))
        return np.random.default_rng(ss)


@dataclass
class SimulationOptions:
    """Engine knobs; ``mode`` of None follows the network's weight trajectory."""

    mode: str | None = None
    adaptive_slot: str | None = None
    nu: float = 0.05
    record_mean_error: bool = False
    record_trajectory: bool = False
    threads: int = 1
    chunk_size: int = 16


@dataclass
class StepData:
    """One iteration's random draws.

    u : (..., N, M) clean regressors; v : (..., N) measurement noise;
    w_true : (..., M) or (M,) true weight vector for this iteration.
    v_w, v_psi, v_u : (..., L, M) link noise on exchanged estimates,
    intermediate estimates, and regressors; v_d : (..., L) on measurements.
    Link arrays follow canonical link order; None means zero.
    """

    u: np.ndarray
    v: np.ndarray
    w_true: np.ndarray
    v_w: np.ndarray | None = None
    v_psi: np.ndarray | None = None
    v_d: np.ndarray | None = None
    v_u: np.ndarray | None = None


@dataclass
class AdaptiveArrays:
    """Vector form of the adaptive rule's state (batched over runs)."""

    nu: np.ndarray
    gamma2_self: np.ndarray
    gamma2_link: np.ndarray
    a_self: np.ndarray | None = None
    a_link: np.ndarray | None = None


@dataclass
class DiffusionState:
    """Per-node estimates; leading dimensions of ``w`` batch over runs."""

    w: np.ndarray
    phi: np.ndarray | None = None
    psi: np.ndarray | None = None
    adaptive: AdaptiveArrays | None = None

    @classmethod
    def initial(cls, n_nodes: int, m_dim: int, batch=(), adaptive_nu=None,
                n_links: int = 0) -> "DiffusionState":
        w = np.zeros(batch + (n_nodes, m_dim), dtype=complex)
        adaptive = None
        if adaptive_nu is not None:
            nu = np.broadcast_to(np.asarray(adaptive_nu, dtype=float), (n_nodes,)).copy()
            if not np.all((0 < nu) & (nu < 1)):
                raise ValueError(f"engine forgetting factor nu must lie in (0, 1), got {adaptive_nu}")
            adaptive = AdaptiveArrays(
                nu=nu,
                gamma2_self=np.ones(batch + (n_nodes,)),
                gamma2_link=np.ones(batch + (n_links,)),
            )
        return cls(w=w, adaptive=adaptive)


# ---------------------------------------------------------------------------
# the recursion


class StepOperator:
    """Per-link weights for one network/matrices pair, built once per simulation.

    ``a*_self`` is the diagonal of A1 or A2; ``a*_link`` and ``c_link`` (mu_k c_lk)
    are the entries on the directed cross links, in canonical link order.
    """

    def __init__(self, network: NetworkModel, matrices: CombinationMatrices):
        self.links = links = network.topology.link_table()
        self.n, self.m = network.n_nodes, network.m_dim
        self.src, self.dst = links.src, links.dst
        mu = network.nodes.mu
        self.a1_identity, self.a2_identity = (np.array_equal(a, np.eye(self.n))
                                              for a in (matrices.a1, matrices.a2))
        # complex, as numpy would cast them on every product with the complex state
        a1, a2 = matrices.a1 + 0j, matrices.a2 + 0j
        self.a1_self, self.a2_self = np.diag(a1), np.diag(a2)
        self.a1_link, self.a2_link = a1[self.src, self.dst], a2[self.src, self.dst]
        self.c_link = mu[self.dst] * matrices.c[self.src, self.dst] + 0j
        self.need_v_w = bool(np.any(self.a1_link))
        self.need_v_psi_static = bool(np.any(self.a2_link))
        self.c_cross = bool(np.any(self.c_link))
        self.mu_c_diag = (mu * np.diag(matrices.c))[:, None] + 0j

    def received(self, x: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """What each link delivers: the sender's row of ``x`` plus the link noise."""
        sent = np.take(x, self.src, axis=-2)
        return sent if noise is None else sent + noise

    def combine(self, a_self, a_link, x, received) -> np.ndarray:
        """a_self x_k plus the sum of a_link times what node k received over its in-links."""
        return a_self[..., None] * x + self.links.segment_sum(a_link[..., None] * received, axis=-2)


def diffusion_step(state: DiffusionState, operator: StepOperator,
                   data: StepData) -> DiffusionState:
    """Advance the three-step recursion by one iteration.

    Runs combine (received estimates), adapt (received data pairs), combine
    (received intermediate estimates). When ``state.adaptive`` is set the
    second combine uses online inverse-variance weights updated from the
    received intermediate estimates; otherwise the static matrices apply.
    Each exchange gathers over the links, scales per link and sums over each
    receiver's in-links. Returns the new w, phi, psi and adaptive state.
    """
    op = operator
    w = state.w
    u = data.u

    phi = w if op.a1_identity else op.combine(op.a1_self, op.a1_link, w,
                                               op.received(w, data.v_w))

    d = np.einsum("...km,...m->...k", u, data.w_true) + data.v
    e_self = d - np.einsum("...km,...km->...k", u, phi)
    psi = phi + op.mu_c_diag * u.conj() * e_self[..., None]
    if op.c_cross:
        u_pair = op.received(u, data.v_u)
        d_pair = np.take(d, op.src, axis=-1)
        if data.v_d is not None:
            d_pair = d_pair + data.v_d
        e_pair = d_pair - np.einsum("...pm,...pm->...p", u_pair, np.take(phi, op.dst, axis=-2))
        psi = psi + op.links.segment_sum(
            op.c_link[:, None] * u_pair.conj() * e_pair[..., None], axis=-2)

    if state.adaptive is not None:
        ad = state.adaptive
        psi_recv = op.received(psi, data.v_psi)
        n_self = np.sum(np.abs(psi - w) ** 2, axis=-1)
        n_link = np.sum(np.abs(psi_recv - np.take(w, op.dst, axis=-2)) ** 2, axis=-1)
        g2s = (1.0 - ad.nu) * ad.gamma2_self + ad.nu * n_self
        g2l = (1.0 - ad.nu[op.dst]) * ad.gamma2_link + ad.nu[op.dst] * n_link
        inv_s = 1.0 / g2s
        inv_l = 1.0 / g2l
        den = inv_s + op.links.segment_sum(inv_l)
        a_self = inv_s / den
        a_link = inv_l / np.take(den, op.dst, axis=-1)
        w_new = op.combine(a_self, a_link, psi, psi_recv)
        new_ad = AdaptiveArrays(nu=ad.nu, gamma2_self=g2s, gamma2_link=g2l,
                                a_self=a_self, a_link=a_link)
        return DiffusionState(w=w_new, phi=phi, psi=psi, adaptive=new_ad)

    w_new = psi if op.a2_identity else op.combine(op.a2_self, op.a2_link, psi,
                                                   op.received(psi, data.v_psi))
    return DiffusionState(w=w_new, phi=phi, psi=psi, adaptive=None)


# ---------------------------------------------------------------------------
# Monte-Carlo driver


@dataclass
class LearningCurve:
    """Run-averaged learning curves (linear scale) plus optional recordings.

    mean_error stacks nodes then coordinates (node-major), matching the
    stacked error-vector convention of the analysis module.
    mean_error_stderr is the per-component standard error of the complex
    mean (deviation modulus). Divergent runs are excluded from every average.
    """

    msd: np.ndarray
    emse: np.ndarray
    runs: int
    divergent_runs: int
    mean_error: np.ndarray | None = None
    mean_error_stderr: np.ndarray | None = None
    avg_estimate: np.ndarray | None = None
    avg_target: np.ndarray | None = None

    @property
    def msd_db(self) -> np.ndarray:
        return db10(self.msd)

    @property
    def emse_db(self) -> np.ndarray:
        return db10(self.emse)

    @property
    def iterations(self) -> int:
        return len(self.msd)


def _resolve_mode(network: NetworkModel, mode: str | None) -> str:
    """``mode``, else the network's own, as a ``WEIGHT_MODES`` name; "stationary" spells "constant"."""
    if mode is None:
        mode = network.weights.mode
    elif mode == "stationary":
        mode = "constant"
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown simulation mode '{mode}'")
    if mode == "random_walk" and network.weights.r_eta is None:
        raise ValueError("random_walk mode requires the network to carry r_eta")
    if mode == "rotation" and network.weights.omega is None:
        raise ValueError("rotation mode requires the network to carry omega")
    return mode


def _colouring(factors: np.ndarray):
    """The map taking row p of z's last two axes to sum_m z[..., p, m] conj(F[p, q, m]).

    It overwrites z and returns it. When every factor F[p] is a scaled
    identity s_p I, checked once here, it scales row p by conj(s_p);
    otherwise it is a batched matmul.
    """
    scale = factors[:, 0, 0]
    if np.array_equal(factors, scale[:, None, None] * np.eye(factors.shape[-1])):
        scale = scale.conj()[:, None]
        return lambda z: np.multiply(z, scale, out=z)
    rows = factors.conj().swapaxes(-1, -2)

    def colour(z):
        z[...] = (z[..., None, :] @ rows)[..., 0, :]
        return z

    return colour


class _Sampler:
    """Window-sized noise draws for a chunk of runs, per-stream bulk draws.

    Each kind of draw has one (runs, t) + shape buffer, sized by the first
    window and refilled in place by every later one. A window's draws are
    views into these buffers and are overwritten by the next window, so a
    chunk holds one window of noise however many windows it runs.
    """

    def __init__(self, network: NetworkModel, op: StepOperator, mode: str,
                 policy: RngPolicy, runs: list[int], adaptive: bool):
        n, m = op.n, op.m
        self.op = op
        self.mode = mode
        self.m = m
        self.colour_u = _colouring(psd_factor(network.nodes.r_u))
        self.sig_v = np.sqrt(network.nodes.sigma_v2)
        ln = network.link_noise
        self.need_w = op.need_v_w and bool(np.any(ln.r_w))
        self.need_psi = (op.need_v_psi_static or adaptive) and bool(np.any(ln.r_psi))
        self.need_d = op.c_cross and bool(np.any(ln.sigma_d2))
        self.need_u_link = op.c_cross and bool(np.any(ln.r_u_link))
        self.colour_w = _colouring(psd_factor(ln.r_w))
        self.colour_psi = _colouring(psd_factor(ln.r_psi))
        self.colour_u_link = _colouring(psd_factor(ln.r_u_link))
        self.sig_d = np.sqrt(ln.sigma_d2)
        self.chol_eta = (psd_factor(network.weights.r_eta)
                         if mode == "random_walk" else None)
        self.gens = []
        for run in runs:
            g = {
                "u": [policy.stream(run, "u", k) for k in range(n)],
                "v": [policy.stream(run, "v", k) for k in range(n)],
            }
            if mode == "random_walk":
                g["eta"] = policy.stream(run, "eta")
            for source, needed in (("w", self.need_w), ("psi", self.need_psi),
                                   ("d", self.need_d), ("u_link", self.need_u_link)):
                if needed:
                    g[source] = [policy.stream(run, source, k) for k in range(n)]
            self.gens.append(g)
        self.buffers = {}

    def _buffer(self, key: str, t: int, tail: tuple) -> np.ndarray:
        """The first ``t`` iterations of the (runs, t) + ``tail`` buffer for ``key``."""
        buf = self.buffers.get(key)
        if buf is None or buf.shape[1] < t:
            buf = self.buffers[key] = np.empty((len(self.gens), t) + tail, dtype=complex)
        return buf[:, :t]

    def _draw_links(self, source: str, key: str, t: int, tail: tuple) -> np.ndarray:
        """Standard draws of shape (runs, t, L) + tail; node k's stream fills its in-links."""
        starts = self.op.links.starts
        z = self._buffer(key, t, (len(self.op.src),) + tail)
        for i, g in enumerate(self.gens):
            for k, gen in enumerate(g[source]):
                lo, hi = starts[k], starts[k + 1]
                if hi > lo:
                    crandn(gen, out=z[i, :, lo:hi])
        return z

    def window(self, t: int) -> dict:
        """Draw all noise for the next ``t`` iterations of this chunk."""
        n = self.op.n
        zu = self._buffer("u", t, (n, self.m))
        zv = self._buffer("v", t, (n,))
        for i, g in enumerate(self.gens):
            for k in range(n):
                crandn(g["u"][k], out=zu[i, :, k])
                crandn(g["v"][k], out=zv[i, :, k])
        out = {
            "u": self.colour_u(zu),
            "v": np.multiply(zv, self.sig_v, out=zv),
        }
        if self.mode == "random_walk":
            zeta = self._buffer("zeta", t, (self.m,))
            for i, g in enumerate(self.gens):
                crandn(g["eta"], out=zeta[i])
            out["eta"] = np.einsum("rtm,pm->rtp", zeta, self.chol_eta.conj(),
                                   out=self._buffer("eta", t, (self.m,)))
        vec = (self.m,)
        if self.need_w:
            out["v_w"] = self.colour_w(self._draw_links("w", "v_w", t, vec))
        if self.need_psi:
            out["v_psi"] = self.colour_psi(self._draw_links("psi", "v_psi", t, vec))
        if self.need_d:
            z = self._draw_links("d", "v_d", t, ())
            out["v_d"] = np.multiply(z, self.sig_d, out=z)
        if self.need_u_link:
            out["v_u"] = self.colour_u_link(self._draw_links("u_link", "v_u", t, vec))
        return out


def _simulate_chunk(network, op, mode, options, policy, runs, iterations):
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

    # w_seen[:, 0] holds the estimates entering a block, w_seen[:, j + 1] those
    # after its step j, and true_seen[:, j] the target of step j
    w_seen = np.empty((r, BLOCK + 1, n, m), dtype=complex)
    w_seen[:, 0] = state.w
    true_seen = np.empty((r, BLOCK, m), dtype=complex)

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < iterations:
            t_win = min(WINDOW, iterations - done)
            draws = sampler.window(t_win)
            for t in range(t_win):
                if mode == "random_walk":
                    w_true = w_true + draws["eta"][:, t]
                elif mode == "rotation":
                    w_true = w_true * phase
                data = StepData(w_true=w_true, **{key: x[:, t] for key, x in draws.items()
                                                  if key != "eta"})
                state = diffusion_step(state, op, data)
                j = t % BLOCK
                w_seen[:, j + 1] = state.w
                true_seen[:, j] = w_true
                if j + 1 < BLOCK and t + 1 < t_win:
                    continue
                # the block's metrics, each reduced over the same axes as one
                # iteration's would be, so the curves do not depend on BLOCK
                b, lo, hi = j + 1, done + t - j, done + t + 1
                target = true_seen[:, :b, None, :]
                u = draws["u"][:, t - j:t + 1]
                emse[:, lo:hi] = np.mean(
                    np.abs(np.einsum("rtkm,rtkm->rtk", u, target - w_seen[:, :b])) ** 2, axis=2)
                err = target - w_seen[:, 1:b + 1]
                err2 = np.sum(np.abs(err) ** 2, axis=-1)
                msd[:, lo:hi] = np.mean(err2, axis=2)
                node_max = np.max(err2, axis=2)
                bad |= np.any(~np.isfinite(node_max) | (node_max > DIVERGENCE_THRESHOLD), axis=1)
                if err_traj is not None:
                    err_traj[:, lo:hi] = err
                if wbar is not None:
                    wbar[:, lo:hi] = np.mean(w_seen[:, 1:b + 1], axis=2)
                    wtrue_traj[:, lo:hi] = true_seen[:, :b]
                w_seen[:, 0] = state.w
            done += t_win
    return {"msd": msd, "emse": emse, "bad": bad, "err": err_traj,
            "wbar": wbar, "wtrue": wtrue_traj}


def run_monte_carlo(network: NetworkModel, matrices: CombinationMatrices,
                    options: SimulationOptions, runs: int, iterations: int,
                    rng_policy: RngPolicy) -> LearningCurve:
    """Average ``runs`` independent realizations over ``iterations`` steps.

    Runs are simulated in fixed-size chunks (vectorized across the chunk) and
    reduced in run order, so results do not depend on chunking or threads.
    Runs whose error leaves the divergence threshold are excluded from all
    averages and counted.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if options.adaptive_slot not in (None, "a2"):
        raise ValueError("adaptive_slot must be None or 'a2'")
    for name in ("chunk_size", "threads"):
        if getattr(options, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    mode = _resolve_mode(network, options.mode)
    op = StepOperator(network, matrices)
    n, m = op.n, op.m

    chunks = [list(range(lo, min(lo + options.chunk_size, runs)))
              for lo in range(0, runs, options.chunk_size)]
    jobs = (lambda ch: _simulate_chunk(network, op, mode, options, rng_policy, ch, iterations))
    if options.threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=options.threads) as pool:
            results = pool.map(jobs, chunks)
            return _reduce(list(results), runs, iterations, n, m, options)
    return _reduce([jobs(ch) for ch in chunks], runs, iterations, n, m, options)


def _reduce(results, runs, iterations, n, m, options) -> LearningCurve:
    msd_all = np.concatenate([r["msd"] for r in results])
    emse_all = np.concatenate([r["emse"] for r in results])
    bad = np.concatenate([r["bad"] for r in results])
    valid = ~bad
    n_valid = int(valid.sum())
    if n_valid == 0:
        nanrow = np.full(iterations, np.nan)
        return LearningCurve(msd=nanrow, emse=nanrow.copy(), runs=runs,
                             divergent_runs=runs)
    msd = msd_all[valid].mean(axis=0)
    emse = emse_all[valid].mean(axis=0)

    def valid_rows(key):
        """The non-divergent runs' recordings in run order; a sum over axis 0
        adds them run by run, so it does not depend on the chunking."""
        return np.concatenate([r[key][~r["bad"]] for r in results])

    mean_error = mean_error_stderr = None
    if options.record_mean_error:
        err = valid_rows("err")
        sum_err = err.sum(axis=0)
        sum_sq = (np.abs(err) ** 2).sum(axis=0)
        mean = sum_err / n_valid
        if n_valid > 1:
            var = (sum_sq - np.abs(sum_err) ** 2 / n_valid) / (n_valid - 1)
            stderr = np.sqrt(np.clip(var, 0.0, None) / n_valid)
        else:
            stderr = np.full((iterations, n, m), np.inf)
        mean_error = mean.reshape(iterations, n * m)
        mean_error_stderr = stderr.reshape(iterations, n * m)

    avg_estimate = avg_target = None
    if options.record_trajectory:
        avg_estimate = valid_rows("wbar").sum(axis=0) / n_valid
        avg_target = valid_rows("wtrue").sum(axis=0) / n_valid

    return LearningCurve(msd=msd, emse=emse, runs=runs,
                         divergent_runs=runs - n_valid,
                         mean_error=mean_error,
                         mean_error_stderr=mean_error_stderr,
                         avg_estimate=avg_estimate, avg_target=avg_target)


def steady_state_level(values: np.ndarray, rho_b: float | None = None,
                       fraction: float = 0.2, tc_factor: float = 5.0) -> float:
    """Average of the trailing ``fraction`` of a learning curve.

    If the mean-transition spectral radius is supplied, the averaging window
    must start after ``tc_factor`` times the slowest time constant
    1/(1 - rho_b); otherwise the curve is judged too short to have settled.
    """
    values = np.asarray(values, dtype=float)
    iters = len(values)
    start = int(np.ceil((1.0 - fraction) * iters))
    if rho_b is not None:
        if rho_b >= 1.0:
            raise ValueError("steady state undefined: mean recursion is unstable")
        needed = tc_factor / (1.0 - rho_b)
        if start < needed:
            raise ValueError(
                f"curve too short for steady state: window starts at {start}, "
                f"needs at least {needed:.0f} iterations of settling"
            )
    return float(values[start:].mean())


# ---------------------------------------------------------------------------
# CSV output


def curve_to_csv(curve: LearningCurve, path) -> None:
    """Columns: iter, msd_db, emse_db, msd_linear, emse_linear, divergent_runs."""
    msd_db, emse_db = curve.msd_db, curve.emse_db
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "msd_db", "emse_db", "msd_linear", "emse_linear",
                         "divergent_runs"])
        for i in range(curve.iterations):
            writer.writerow([i, repr(float(msd_db[i])), repr(float(emse_db[i])),
                             repr(float(curve.msd[i])), repr(float(curve.emse[i])),
                             curve.divergent_runs])


def trajectory_to_csv(curve: LearningCurve, path) -> None:
    """Network-average estimate next to the true target, per coordinate."""
    if curve.avg_estimate is None:
        raise ValueError("curve was recorded without trajectories")
    m = curve.avg_estimate.shape[1]
    header = ["iter"]
    for j in range(1, m + 1):
        header += [f"est_re_{j}", f"est_im_{j}"]
    for j in range(1, m + 1):
        header += [f"true_re_{j}", f"true_im_{j}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(curve.iterations):
            row = [i]
            for j in range(m):
                row += [repr(float(curve.avg_estimate[i, j].real)),
                        repr(float(curve.avg_estimate[i, j].imag))]
            for j in range(m):
                row += [repr(float(curve.avg_target[i, j].real)),
                        repr(float(curve.avg_target[i, j].imag))]
            writer.writerow(row)
