"""Monte-Carlo engine for diffusion adaptation with noisy information exchange.

Each iteration of the simulated recursion runs three steps per node:
combine neighbor estimates received over noisy links, adapt against shared
(measurement, regressor) pairs received over noisy links, then combine the
neighbors' intermediate estimates received over noisy links. Self links are
perfect; the four exchange-noise sources (estimates, intermediate estimates,
measurements, regressors) act only on cross links.

Reproducibility contract: every (run, noise source) pair owns an independent
RNG stream derived from the master seed. Curves are bit-identical for a fixed
master seed whatever the thread count, ``chunk_size`` or the length of the
noise windows, over which the curves are also reduced. Every run's curves and
recordings are allocated once, each chunk writes its own runs' rows in place,
and the rows are reduced one run at a time in run-index order. Each complex
normal takes its real part, then its imaginary part, from its stream, so a
window's draws continue the stream exactly as one longer draw would, and a
window is as long as the chunk's noise and history buffers fit in
``WINDOW_BYTES``.

The sampler (``_Sampler``) draws every noise source through one table, one
draw per (run, source) and window, coloured by the source's covariance factors.
A static combine's link noise is drawn as each receiver's weighted sum, so a
static rule draws O(runs N M) noise per iteration; the adaptive rule and data
sharing read each link's noise. Either way a chunk holds O(WINDOW_BYTES) of it,
unless one iteration's noise alone exceeds that.

``diffusion_step`` is the single implementation of the recursion. It accepts
arbitrary leading batch dimensions on the state, so the Monte-Carlo driver
vectorizes across runs by calling it on stacked states. A static combine is
one real matrix product by A^T over the node axis, O(N^2 M) per run; the
adaptive rule and data sharing gather over the L directed links, scale per
link and sum over each receiver's in-links, O(L M).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .linalg import crandn, db10, node_product, psd_factor
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

WINDOW_BYTES = 1 << 20  # a chunk's noise and history buffers per window; output-neutral
DIVERGENCE_THRESHOLD = 1e12  # squared node error above which a run counts as divergent


@dataclass(frozen=True)
class RngPolicy:
    """Deterministic stream derivation from a single master seed.

    Stream (run, source) is seeded by
    SeedSequence(master_seed, spawn_key=(run, source_id)).
    Sources are "u" and "v" (one slot per node), "eta" (the target's
    random-walk increments, one slot) and the link sources "w", "psi", "d",
    "u_link" (one slot per link in canonical link order or, for a static
    combine's "w" and "psi", one slot per receiver for its in-links' weighted
    sum).
    """

    master_seed: int

    def stream(self, run: int, source: str) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(run, _SOURCE_IDS[source]))
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
    v_w : (..., N, M) each receiver's own draw of its noise sum sum_l a1_lk v_lk.
    v_psi : the same receiver sums over A2, (..., N, M), for a static second
    combine; per link, (..., L, M), for the adaptive rule.
    v_u : (..., L, M) and v_d : (..., L) per-link noise on shared regressors
    and measurements, in canonical link order. None means zero.
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
            adaptive = AdaptiveArrays(nu=nu, gamma2_self=np.ones(batch + (n_nodes,)),
                                      gamma2_link=np.ones(batch + (n_links,)))
        return cls(w=w, adaptive=adaptive)


# ---------------------------------------------------------------------------
# the recursion


class StepOperator:
    """The weights of one network/matrices pair, built once per simulation.

    ``a1_t`` and ``a2_t`` are A1^T and A2^T as contiguous real arrays, so a
    static combine is one real matrix product over the node axis. ``a*_link``
    and ``c_link`` (mu_k c_lk) are the entries on the directed cross links, in
    canonical link order: the sampler sizes the static combines' noise sums
    from ``a*_link``, and data sharing weighs each link's pair by ``c_link``.
    """

    def __init__(self, network: NetworkModel, matrices: CombinationMatrices):
        self.links = links = network.topology.link_table()
        self.n, self.m = network.n_nodes, network.m_dim
        self.src, self.dst = links.src, links.dst
        mu = network.nodes.mu
        a1, a2 = matrices.a1, matrices.a2
        self.a1_identity, self.a2_identity = (np.array_equal(a, np.eye(self.n)) for a in (a1, a2))
        self.a1_t, self.a2_t = (np.ascontiguousarray(a.T, dtype=float) for a in (a1, a2))
        self.a1_link, self.a2_link = a1[self.src, self.dst], a2[self.src, self.dst]
        self.c_link = mu[self.dst] * matrices.c[self.src, self.dst] + 0j
        self.c_cross = bool(np.any(self.c_link))
        self.mu_c_diag = mu * np.diag(matrices.c)

    def received(self, x: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """What each link delivers: the sender's row of ``x`` plus the link noise."""
        sent = np.take(x, self.src, axis=-2)
        return sent if noise is None else sent + noise


def _static_combine(a_t: np.ndarray, x: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """A^T x over the node axis, plus the receivers' noise sums (None for zero); numpy makes
    one dgemm call per run, so a run's bits do not depend on the batch."""
    out = node_product(a_t, x)
    if noise is not None:
        out += noise
    return out


def diffusion_step(state: DiffusionState, operator: StepOperator,
                   data: StepData) -> DiffusionState:
    """Advance the three-step recursion by one iteration.

    Runs combine (received estimates), adapt (received data pairs), combine
    (received intermediate estimates). A static combine is the product A^T x
    plus the receivers' noise sums from ``data``, O(N^2 M) per run. When
    ``state.adaptive`` is set the second combine uses online inverse-variance
    weights updated from the received intermediate estimates; it and data
    sharing gather over the links, scale per link and sum over each
    receiver's in-links, O(L M). Returns the new w, phi, psi and adaptive
    state.
    """
    op = operator
    w = state.w
    u = data.u

    phi = w if op.a1_identity else _static_combine(op.a1_t, w, data.v_w)

    e_self = data.v + np.einsum("...km,...km->...k", u, data.w_true[..., None, :] - phi)
    psi = np.multiply(u.conj(), (op.mu_c_diag * e_self)[..., None])
    psi += phi
    if op.c_cross:
        d = np.einsum("...km,...m->...k", u, data.w_true) + data.v
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
        inv_s, inv_l = 1.0 / g2s, 1.0 / g2l
        den = inv_s + op.links.segment_sum(inv_l)
        # complex, as the products below would cast them
        a_self = (inv_s / den).astype(complex)
        a_link = (inv_l / np.take(den, op.dst, axis=-1)).astype(complex)
        w_new = a_self[..., None] * psi + op.links.segment_sum(a_link[..., None] * psi_recv,
                                                               axis=-2)
        new_ad = AdaptiveArrays(nu=ad.nu, gamma2_self=g2s, gamma2_link=g2l,
                                a_self=a_self, a_link=a_link)
        return DiffusionState(w=w_new, phi=phi, psi=psi, adaptive=new_ad)

    w_new = psi if op.a2_identity else _static_combine(op.a2_t, psi, data.v_psi)
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
    identity s_p I, checked once here, it scales row p by conj(s_p), repeated
    along the row so one inner loop runs over both axes; else a batched matmul.
    """
    scale = factors[:, 0, 0]
    if np.array_equal(factors, scale[:, None, None] * np.eye(factors.shape[-1])):
        scale = np.repeat(scale.conj()[:, None], factors.shape[-1], axis=1)
        return lambda z: np.multiply(z, scale, out=z)
    rows = factors.conj().swapaxes(-1, -2)

    def colour(z):
        z[...] = (z[..., None, :] @ rows)[..., 0, :]
        return z

    return colour


class _Sampler:
    """Window-sized noise draws for a chunk of runs, from one table of sources.

    A source (stream, key, slots, tail, cov) is in the table when the network
    and combine give it noise to carry; cov holds each slot's covariance (1x1
    for a scalar source). In every window, each run's stream for the source
    fills that run's whole (t, slots) + tail row of the buffer for ``key``
    with one draw, coloured in place by each slot's covariance factor. A node
    source has one slot per node, the random walk one slot, and a per-link
    source one slot per link. A static combine uses its link noise only
    through each receiver's sum sum_l a_lk v_lk, a circular Gaussian of
    covariance sum_l |a_lk|^2 R_lk, so that source is a node source of that
    covariance; only the adaptive ``v_psi`` and data sharing's ``v_d`` and
    ``v_u`` are per link. ``length`` is the window: the most iterations whose
    noise, and whose history rows in ``_simulate_chunk`` (estimates, gaps and
    targets), fit in ``WINDOW_BYTES``, and at least one. Buffers are sized by
    the first window and refilled in place, so a chunk holds one window of
    noise however many windows it runs.
    """

    def __init__(self, network: NetworkModel, op: StepOperator, mode: str,
                 policy: RngPolicy, runs: list[int], adaptive: bool):
        self.op = op
        ln, vec = network.link_noise, (op.m,)
        nodes, links = op.n, len(op.src)

        def summed(a_link, r):
            """The covariance of each receiver's sum_l a_lk v_lk, v_lk of covariance r[l]."""
            return op.links.segment_sum(np.abs(a_link[:, None, None]) ** 2 * r, axis=0)

        table = (
            ("u", "u", nodes, vec, network.nodes.r_u),
            ("v", "v", nodes, (), network.nodes.sigma_v2[:, None, None]),
            mode == "random_walk" and ("eta", "eta", 1, vec, network.weights.r_eta[None]),
            np.any(op.a1_link) and np.any(ln.r_w) and (
                "w", "v_w", nodes, vec, summed(op.a1_link, ln.r_w)),
            (adaptive or np.any(op.a2_link)) and np.any(ln.r_psi) and (
                ("psi", "v_psi", links, vec, ln.r_psi) if adaptive
                else ("psi", "v_psi", nodes, vec, summed(op.a2_link, ln.r_psi))),
            op.c_cross and np.any(ln.sigma_d2) and (
                "d", "v_d", links, (), ln.sigma_d2[:, None, None]),
            op.c_cross and np.any(ln.r_u_link) and ("u_link", "v_u", links, vec, ln.r_u_link),
        )
        self.sources = [(stream, key, slots, tail, _colouring(psd_factor(cov)))
                        for stream, key, slots, tail, cov in filter(None, table)]
        self.gens = [{stream: policy.stream(run, stream) for stream, *_ in self.sources}
                     for run in runs]
        history = 2 * nodes * op.m + op.m  # _simulate_chunk's w_seen, gap and true_seen rows
        step = 16 * len(runs) * (history + sum(slots * math.prod(tail)
                                               for _, _, slots, tail, _ in self.sources))
        self.length = max(1, WINDOW_BYTES // step)
        self.buffers = {}

    def _draw(self, t: int, stream: str, key: str, slots: int, tail: tuple, colour) -> np.ndarray:
        """One source's draws for the next ``t`` iterations, one per run, coloured in place."""
        buf = self.buffers.get(key)
        if buf is None or buf.shape[1] < t:
            buf = self.buffers[key] = np.empty((len(self.gens), t, slots) + tail, dtype=complex)
        z = buf[:, :t]
        for g, row in zip(self.gens, z):
            crandn(g[stream], out=row)
        colour(z if tail else z[..., None])
        return z

    def window(self, t: int) -> dict:
        """Draw all noise for the next ``t`` iterations of this chunk."""
        return {source[1]: self._draw(t, *source) for source in self.sources}


def _simulate_chunk(network, op, mode, options, policy, runs, records):
    """Simulate ``runs`` and write each run's curves and recordings into its row of ``records``.

    ``records`` holds this chunk's rows of ``run_monte_carlo``'s per-run arrays: "msd" and
    "emse" (runs, iterations); "bad", the divergence flags, False on entry; and,
    when recorded, "err" (runs, iterations, N, M), "wbar" and "wtrue" (runs, iterations, M).
    Each noise window is stepped, then its metrics and recordings are reduced at once,
    over the same axes as one iteration's, so they do not depend on the window length.
    """
    n, m = op.n, op.m
    r, iterations = records["msd"].shape
    sampler = _Sampler(network, op, mode, policy, runs,
                       adaptive=options.adaptive_slot is not None)
    nu = options.nu if options.adaptive_slot is not None else None
    state = DiffusionState.initial(n, m, batch=(r,), adaptive_nu=nu,
                                   n_links=len(op.src))
    w_true = np.tile(np.asarray(network.weights.w0, dtype=complex), (r, 1))
    if mode == "rotation":
        phase = np.exp(1j * network.weights.omega)

    # history rows, counted in the sampler's budget: estimates after each step, targets, gaps
    rows = min(sampler.length, iterations)
    w_seen, gap = (np.empty((r, rows, n, m), dtype=complex) for _ in range(2))
    true_seen = np.empty((r, rows, m), dtype=complex)

    def subtract(true, w, out):
        """``true`` minus ``w`` into ``out``, one coordinate at a time: subtracting the
        broadcast targets at once runs numpy's innermost loop over M alone."""
        for c in range(m):
            np.subtract(true[..., None, c], w[..., c], out=out[..., c])
        return out

    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < iterations:
            t_win = min(sampler.length, iterations - done)
            draws = sampler.window(t_win)
            w_in = state.w
            for t in range(t_win):
                if mode == "random_walk":
                    w_true = w_true + draws["eta"][:, t, 0]
                elif mode == "rotation":
                    w_true = w_true * phase
                data = StepData(w_true=w_true, **{key: x[:, t] for key, x in draws.items()
                                                  if key != "eta"})
                state = diffusion_step(state, op, data)
                w_seen[:, t] = state.w
                true_seen[:, t] = w_true
            win, g, truth, after = (slice(done, done + t_win), gap[:, :t_win],
                                    true_seen[:, :t_win], w_seen[:, :t_win])
            # a step's EMSE is on the estimates entering it
            subtract(truth[:, :1], w_in[:, None], g[:, :1])
            subtract(truth[:, 1:], after[:, :-1], g[:, 1:])
            records["emse"][:, win] = np.mean(
                np.abs(np.einsum("rtkm,rtkm->rtk", draws["u"], g)) ** 2, axis=2)
            err = subtract(truth, after, g)
            # adding the squared moduli in order is what a sum over the last axis does
            err2 = np.abs(err[..., 0]) ** 2
            for c in range(1, m):
                err2 += np.abs(err[..., c]) ** 2
            records["msd"][:, win] = np.mean(err2, axis=2)
            node_max = np.max(err2, axis=2)
            records["bad"] |= np.any(~(node_max <= DIVERGENCE_THRESHOLD), axis=1)  # above, or NaN
            if "err" in records:
                records["err"][:, win] = err
            if "wbar" in records:
                records["wbar"][:, win] = np.mean(after, axis=2)
                records["wtrue"][:, win] = truth
            done += t_win


def run_monte_carlo(network: NetworkModel, matrices: CombinationMatrices,
                    options: SimulationOptions, runs: int, iterations: int,
                    rng_policy: RngPolicy) -> LearningCurve:
    """Average ``runs`` independent realizations over ``iterations`` steps.

    Every run's curves and recordings are allocated once, before the first
    chunk, so that a run too large to hold fails at once. Runs are simulated in
    fixed-size chunks (vectorized across the chunk), each writing its own rows
    in place. The non-divergent runs' rows are then added one run at a time, in
    run order, so results do not depend on chunking or threads. Runs whose
    error leaves the divergence threshold are excluded from all averages and
    counted.
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
    records = {"msd": np.empty((runs, iterations)), "emse": np.empty((runs, iterations)),
               "bad": np.zeros(runs, dtype=bool)}
    if options.record_mean_error:
        records["err"] = np.empty((runs, iterations, op.n, op.m), dtype=complex)
    if options.record_trajectory:
        records["wbar"], records["wtrue"] = (np.empty((runs, iterations, op.m), dtype=complex)
                                             for _ in range(2))
    starts = range(0, runs, options.chunk_size)

    def job(lo):
        """The chunk of runs from ``lo``, written into its rows of ``records``."""
        rows = slice(lo, min(lo + options.chunk_size, runs))
        _simulate_chunk(network, op, mode, options, rng_policy, list(range(runs)[rows]),
                        {key: record[rows] for key, record in records.items()})

    if options.threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so a cold import skips it

        with ThreadPoolExecutor(max_workers=options.threads) as pool:
            list(pool.map(job, starts))
    else:
        for lo in starts:
            job(lo)

    kept = np.flatnonzero(~records["bad"])
    n_valid = len(kept)
    if n_valid == 0:
        nanrow = np.full(iterations, np.nan)
        return LearningCurve(msd=nanrow, emse=nanrow.copy(), runs=runs,
                             divergent_runs=runs)

    def total(key, f=lambda row: row):
        """The kept runs' rows of ``records[key]``, each through ``f``, added one run at a
        time in run order from zero: the additions a sum over axis 0 makes, with no copy."""
        acc = 0
        for i in kept:
            acc += f(records[key][i])
        return acc

    sums = {key: total(key) for key in records if key != "bad"}
    curve = LearningCurve(msd=sums["msd"] / n_valid, emse=sums["emse"] / n_valid, runs=runs,
                          divergent_runs=runs - n_valid)
    if options.record_trajectory:
        curve.avg_estimate, curve.avg_target = sums["wbar"] / n_valid, sums["wtrue"] / n_valid
    if options.record_mean_error:
        sum_err, sum_sq = sums["err"], total("err", lambda row: np.abs(row) ** 2)
        if n_valid > 1:
            var = (sum_sq - np.abs(sum_err) ** 2 / n_valid) / (n_valid - 1)
            stderr = np.sqrt(np.clip(var, 0.0, None) / n_valid)
        else:
            stderr = np.full(sum_err.shape, np.inf)
        curve.mean_error = (sum_err / n_valid).reshape(iterations, -1)
        curve.mean_error_stderr = stderr.reshape(iterations, -1)
    return curve


def steady_state_level(values: np.ndarray, rho_b: float | None = None,
                       fraction: float = 0.2, tc_factor: float = 5.0) -> float:
    """Average of the trailing ``fraction`` of a learning curve.

    If the mean-transition spectral radius is supplied, the averaging window
    must start after ``tc_factor`` times the slowest time constant
    1/(1 - rho_b); otherwise the curve is judged too short to have settled.
    """
    values = np.asarray(values, dtype=float)
    iters = len(values)
    start = min(int(np.ceil((1.0 - fraction) * iters)), iters - 1)  # at least the last one
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter"] + [f"{kind}_{part}_{j}" for kind in ("est", "true")
                                    for j in range(1, m + 1) for part in ("re", "im")])
        for i, row in enumerate(np.concatenate([curve.avg_estimate, curve.avg_target], axis=1)):
            writer.writerow([i] + [repr(float(part)) for z in row for part in (z.real, z.imag)])
