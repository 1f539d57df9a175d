"""Network description for diffusion adaptation with noisy information exchange.

A network bundles four things: an undirected connected topology whose
neighborhoods include the node itself, per-node signal statistics (regressor
covariance, measurement-noise variance, step-size), per-directed-link noise
statistics for the four exchanged quantities (estimates, intermediate
estimates, measurements, regressors), and the trajectory of the true weight
vector being estimated (constant, random walk, or phase rotation).

Link noise lives only on cross links: a node reads its own data perfectly, so
the (k, k) entries of every link-noise statistic are structurally zero. Link
statistics are stored as arrays aligned with the canonical directed-link
order, which :meth:`Topology.link_table` defines once for every module.

External JSON files use 1-based node indices and [re, im] pairs for complex
numbers; in memory everything is 0-based ndarray data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import crandn, hermitize

__all__ = [
    "Topology",
    "LinkTable",
    "NodeProfile",
    "LinkNoiseProfile",
    "CombinationMatrices",
    "WeightTrajectory",
    "NetworkModel",
    "ValidationReport",
    "VarianceRanges",
    "validate",
    "validate_matrices",
    "random_network",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

HERMITIAN_TOL = 1e-10
PSD_FLOOR = -1e-10
STOCHASTIC_TOL = 1e-8

WEIGHT_MODES = ("constant", "random_walk", "rotation")


@dataclass(frozen=True)
class LinkTable:
    """Directed cross links (sender src[p] -> receiver dst[p]) in canonical order.

    Receivers ascend and, within a receiver, senders ascend, so the in-links
    of node k occupy positions starts[k]:starts[k + 1]. ``slot`` is the (N, N)
    lookup slot[l, k] = p of link l -> k, -1 where there is no cross link.
    Iterating yields the (l, k) pairs.
    """

    src: np.ndarray
    dst: np.ndarray
    starts: np.ndarray
    slot: np.ndarray

    def __len__(self) -> int:
        return len(self.src)

    def __iter__(self):
        return zip(self.src.tolist(), self.dst.tolist())

    def segment_sum(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        """Sum ``values`` over each receiver's in-links along the link ``axis``.

        That axis becomes a node axis, zero at nodes without in-links; the
        other axes, leading batch axes included, pass through.
        """
        heads, fed = self._heads
        if fed is None:
            return np.add.reduceat(values, heads, axis=axis)
        # reduceat returns values[start] for an empty segment and rejects start == L
        moved = np.moveaxis(values, axis, 0)
        out = np.zeros((len(fed),) + moved.shape[1:], dtype=values.dtype)
        out[fed] = np.add.reduceat(moved, heads, axis=0)
        return np.moveaxis(out, 0, axis)

    @cached_property
    def _heads(self):
        """First in-link of each fed receiver, and the fed mask (None if all are fed)."""
        fed = self.starts[:-1] < self.starts[1:]
        return self.starts[:-1][fed], None if fed.all() else fed


@dataclass
class Topology:
    """Undirected connectivity with implicit self-loops.

    ``adjacency`` is a boolean (N, N) matrix, symmetric with a True diagonal.
    Neighborhood of node k = {l : adjacency[l, k]} and always contains k.
    """

    n_nodes: int
    adjacency: np.ndarray

    @classmethod
    def from_edges(cls, n_nodes: int, edges) -> "Topology":
        """Build from a list of undirected cross pairs (0-based)."""
        adj = np.eye(n_nodes, dtype=bool)
        for l, k in edges:
            if not (0 <= l < n_nodes and 0 <= k < n_nodes):
                raise ValueError(f"edge ({l}, {k}) names a node outside 0..{n_nodes - 1}")
            adj[l, k] = True
            adj[k, l] = True
        return cls(n_nodes=n_nodes, adjacency=adj)

    def neighbors(self, k: int) -> np.ndarray:
        """Sorted neighborhood of node k, including k itself."""
        return np.flatnonzero(self.adjacency[:, k])

    def degree(self, k: int) -> int:
        """Neighborhood size |N_k|, counting the node itself."""
        return int(np.count_nonzero(self.adjacency[:, k]))

    def cross_edges(self):
        """Undirected cross pairs (l, k) with l < k."""
        n = self.n_nodes
        return [(l, k) for k in range(n) for l in range(k) if self.adjacency[l, k]]

    def is_connected(self) -> bool:
        n = self.n_nodes
        if n == 0:
            return False
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            k = stack.pop()
            for l in np.flatnonzero(self.adjacency[:, k]):
                if not seen[l]:
                    seen[l] = True
                    stack.append(int(l))
        return bool(seen.all())

    def link_table(self) -> LinkTable:
        """The canonical directed cross links; self links carry no noise and are excluded.

        Built on every call, so it follows in-place edits of ``adjacency``.
        """
        n = self.n_nodes
        dst, src = np.nonzero(self.adjacency.T & ~np.eye(n, dtype=bool))
        slot = np.full((n, n), -1)
        slot[src, dst] = np.arange(len(src))
        return LinkTable(src=src, dst=dst, starts=np.searchsorted(dst, np.arange(n + 1)), slot=slot)


@dataclass
class NodeProfile:
    """Per-node signal statistics and step-sizes.

    r_u : (N, M, M) complex PSD regressor covariances.
    sigma_v2 : (N,) nonnegative measurement-noise variances.
    mu : (N,) positive step-sizes.
    """

    m_dim: int
    r_u: np.ndarray
    sigma_v2: np.ndarray
    mu: np.ndarray


@dataclass
class LinkNoiseProfile:
    """Noise statistics for the four exchanged quantities, one row per link.

    Arrays align with :meth:`Topology.link_table`: r_w and r_psi are (L, M, M)
    covariances of the noise added to exchanged estimates and intermediate
    estimates, sigma_d2 is the (L,) variance on exchanged measurements, and
    r_u_link is the (L, M, M) covariance of the noise on exchanged regressors.
    """

    r_w: np.ndarray
    sigma_d2: np.ndarray
    r_u_link: np.ndarray
    r_psi: np.ndarray

    @classmethod
    def zeros(cls, n_links: int, m_dim: int) -> "LinkNoiseProfile":
        return cls(
            r_w=np.zeros((n_links, m_dim, m_dim), dtype=complex),
            sigma_d2=np.zeros(n_links),
            r_u_link=np.zeros((n_links, m_dim, m_dim), dtype=complex),
            r_psi=np.zeros((n_links, m_dim, m_dim), dtype=complex),
        )


@dataclass
class CombinationMatrices:
    """The (A1, C, A2) triple steering the three-step diffusion recursion.

    A1 and A2 are left stochastic (columns sum to one); C is right stochastic
    (rows sum to one). Entries are zero off the neighborhood sparsity pattern.
    """

    a1: np.ndarray
    c: np.ndarray
    a2: np.ndarray

    @classmethod
    def identity(cls, n_nodes: int) -> "CombinationMatrices":
        i = np.eye(n_nodes)
        return cls(a1=i.copy(), c=i.copy(), a2=i.copy())


@dataclass
class WeightTrajectory:
    """True weight-vector trajectory.

    mode "constant": fixed at w0. mode "random_walk": w0 plus i.i.d.
    zero-mean increments with covariance r_eta. mode "rotation": every entry
    multiplied by exp(j*omega) per iteration, starting from w0.
    """

    mode: str
    w0: np.ndarray
    r_eta: np.ndarray | None = None
    omega: float | None = None


@dataclass
class NetworkModel:
    topology: Topology
    nodes: NodeProfile
    link_noise: LinkNoiseProfile
    weights: WeightTrajectory

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @property
    def m_dim(self) -> int:
        return self.nodes.m_dim

    @property
    def links(self) -> list[tuple[int, int]]:
        return list(self.topology.link_table())


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(self.violations)


def _check_cov(report, label, mats, where=None) -> None:
    """Report each non-Hermitian or non-PSD matrix of the (K, M, M) stack ``mats``.

    ``where(i)`` names matrix i in front of ``label``; without it the label
    alone names a single matrix. Both tests are relative to the matrix scale.
    """
    mats = np.asarray(mats, dtype=complex)
    herm = (np.linalg.norm(mats - mats.conj().swapaxes(1, 2), axis=(1, 2))
            / np.maximum(np.linalg.norm(mats, axis=(1, 2)), 1.0))
    eig = np.linalg.eigvalsh(hermitize(mats))
    floor = eig[:, 0] / np.maximum(eig[:, -1], 1.0)
    for i in range(len(mats)):
        name = f"{where(i)} {label}" if where else label
        if herm[i] > HERMITIAN_TOL:
            report.add(f"{name} is not Hermitian")
        elif floor[i] < PSD_FLOOR:
            report.add(f"{name} is not positive semi-definite")


def _check_finite(report, label, values, where=None) -> bool:
    """Report NaN/inf entries of ``values``; ``where`` names the bad rows.

    Returns True when every entry is finite.
    """
    values = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=tuple(range(1, values.ndim))))
    if bad.size:
        report.add(f"{label} is not finite" + (f" for {where(bad)}" if where else ""))
    return not bad.size


def validate(network: NetworkModel, matrices: CombinationMatrices | None = None) -> ValidationReport:
    """Check every structural invariant; returns a report, never raises.

    Messages use 1-based node indices. Passing ``matrices`` additionally
    checks stochasticity and the neighborhood sparsity pattern; the CLI calls
    :func:`validate_matrices` instead, and perfbench's set-up probe passes them.
    """
    rep = ValidationReport()
    topo = network.topology
    n = topo.n_nodes
    m = network.nodes.m_dim

    adj = topo.adjacency
    if adj.shape != (n, n):
        rep.add(f"adjacency has shape {adj.shape}, expected ({n}, {n})")
        return rep
    if not np.array_equal(adj, adj.T):
        rep.add("adjacency is not symmetric")
    if not np.all(np.diag(adj)):
        missing = np.flatnonzero(~np.diag(adj)) + 1
        rep.add(f"nodes {missing.tolist()} are missing self-loops")
    if not topo.is_connected():
        rep.add("topology is not connected")

    prof = network.nodes

    def nodes(bad):
        return f"nodes {(bad + 1).tolist()}"

    if prof.r_u.shape != (n, m, m):
        rep.add(f"r_u has shape {prof.r_u.shape}, expected ({n}, {m}, {m})")
    elif _check_finite(rep, "r_u", prof.r_u, nodes):
        _check_cov(rep, "regressor covariance", prof.r_u, lambda k: f"node {k + 1}")
    if prof.sigma_v2.shape != (n,):
        rep.add(f"sigma_v2 has shape {prof.sigma_v2.shape}, expected ({n},)")
    elif _check_finite(rep, "sigma_v2", prof.sigma_v2, nodes) and np.any(prof.sigma_v2 < 0):
        bad = np.flatnonzero(prof.sigma_v2 < 0) + 1
        rep.add(f"nodes {bad.tolist()} have negative measurement-noise variance")
    if prof.mu.shape != (n,):
        rep.add(f"mu has shape {prof.mu.shape}, expected ({n},)")
    elif _check_finite(rep, "mu", prof.mu, nodes) and np.any(prof.mu <= 0):
        bad = np.flatnonzero(prof.mu <= 0) + 1
        rep.add(f"nodes {bad.tolist()} have non-positive step-size")

    links = topo.link_table()
    ln = network.link_noise
    n_links = len(links)
    shapes = {
        "r_w": (n_links, m, m),
        "sigma_d2": (n_links,),
        "r_u_link": (n_links, m, m),
        "r_psi": (n_links, m, m),
    }

    def link(p):
        return f"{links.src[p] + 1}->{links.dst[p] + 1}"

    def link_names(bad):
        return "links " + ", ".join(map(link, bad))

    link_noise_ok = True
    for name, want in shapes.items():
        got = getattr(ln, name).shape
        if got != want:
            rep.add(f"link_noise.{name} has shape {got}, expected {want}")
            link_noise_ok = False
        elif not _check_finite(rep, f"link_noise.{name}", getattr(ln, name), link_names):
            link_noise_ok = False
    if link_noise_ok:
        for label, mats in (("estimate-noise", ln.r_w), ("intermediate-noise", ln.r_psi),
                            ("regressor-noise", ln.r_u_link)):
            _check_cov(rep, f"{label} covariance", mats, lambda p: f"link {link(p)}")
        if np.any(ln.sigma_d2 < 0):
            rep.add("negative measurement link-noise variance")

    w = network.weights
    if w.mode not in WEIGHT_MODES:
        rep.add(f"unknown weight mode '{w.mode}'")
    if np.asarray(w.w0).shape != (m,):
        rep.add(f"w0 has shape {np.asarray(w.w0).shape}, expected ({m},)")
    else:
        _check_finite(rep, "w0", [w.w0])
    # r_eta and omega are checked whenever present: a scenario may force their mode
    if w.mode == "random_walk" and w.r_eta is None:
        rep.add("random_walk mode requires r_eta")
    elif w.r_eta is not None and np.asarray(w.r_eta).shape != (m, m):
        rep.add(f"r_eta has shape {np.asarray(w.r_eta).shape}, expected ({m}, {m})")
    elif w.r_eta is not None and _check_finite(rep, "r_eta", [w.r_eta]):
        _check_cov(rep, "r_eta", [w.r_eta])
    if w.mode == "rotation" and w.omega is None:
        rep.add("rotation mode requires omega")
    elif w.omega is not None:
        _check_finite(rep, "omega", [w.omega])

    if matrices is not None:
        rep.violations += validate_matrices(topo, matrices).violations
    return rep


def validate_matrices(topology: Topology, matrices: CombinationMatrices) -> ValidationReport:
    """Check stochasticity and the neighborhood sparsity pattern of (A1, C, A2)."""
    rep = ValidationReport()
    n = topology.n_nodes
    off_pattern = ~topology.adjacency
    for name, mat, axis in (("A1", matrices.a1, 0), ("C", matrices.c, 1), ("A2", matrices.a2, 0)):
        if mat.shape != (n, n):
            rep.add(f"{name} has shape {mat.shape}, expected ({n}, {n})")
            continue
        if not _check_finite(rep, name, mat):
            continue
        if np.any(mat < 0):
            rep.add(f"{name} has negative entries")
        sums = mat.sum(axis=axis)
        kind = "column" if axis == 0 else "row"
        for idx in np.flatnonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL):
            rep.add(f"{name} {kind} {idx + 1} sums to {sums[idx]:.4f}")
        if np.any(mat[off_pattern] != 0):
            rep.add(f"{name} has nonzero entries outside the neighborhood pattern")
    return rep


# ---------------------------------------------------------------------------
# random generation


@dataclass(frozen=True)
class VarianceRanges:
    """Uniform sampling ranges for randomly generated network profiles.

    regressor_style "isotropic" draws R_u = sigma_u^2 I with sigma_u^2 in
    ``sigma_u2``; "trace_normalized" draws a random PSD matrix scaled to unit
    trace (``sigma_u2`` then ignored). Link-noise covariances are isotropic
    with variances drawn from the matching range.
    """

    sigma_u2: tuple[float, float] = (0.5, 2.0)
    sigma_v2: tuple[float, float] = (0.01, 0.1)
    sigma_w2: tuple[float, float] = (0.0, 0.0)
    sigma_d2: tuple[float, float] = (0.0, 0.0)
    sigma_u_link2: tuple[float, float] = (0.0, 0.0)
    sigma_psi2: tuple[float, float] = (0.0, 0.0)
    mu: tuple[float, float] = (0.01, 0.01)
    regressor_style: str = "isotropic"


def _uniform(gen, rng_pair, size=None):
    lo, hi = rng_pair
    if lo == hi:
        return np.full(size, float(lo)) if size is not None else float(lo)
    return gen.uniform(lo, hi, size=size)


def random_connected_topology(gen: np.random.Generator, n_nodes: int, connectivity: float,
                              max_tries: int = 200) -> Topology:
    """Erdos-Renyi draw retried until connected."""
    if n_nodes == 1:
        return Topology.from_edges(1, [])
    for _ in range(max_tries):
        mask = gen.random((n_nodes, n_nodes)) < connectivity
        upper = np.triu(mask, k=1)
        adj = upper | upper.T | np.eye(n_nodes, dtype=bool)
        topo = Topology(n_nodes, adj)
        if topo.is_connected():
            return topo
    raise RuntimeError(
        f"no connected topology found in {max_tries} draws (n={n_nodes}, p={connectivity})"
    )


def random_network(seed: int, n_nodes: int, m_dim: int, connectivity: float,
                   variance_ranges: VarianceRanges | None = None) -> NetworkModel:
    """Generate a connected network with randomly drawn profiles.

    Deterministic in ``seed``. The true weight vector is drawn circular
    Gaussian and the trajectory mode is "constant"; callers wanting tracking
    replace the weights block.
    """
    vr = variance_ranges or VarianceRanges()
    gen = np.random.default_rng(seed)
    topo = random_connected_topology(gen, n_nodes, connectivity)

    if vr.regressor_style == "isotropic":
        s2 = _uniform(gen, vr.sigma_u2, n_nodes)
        r_u = s2[:, None, None] * np.eye(m_dim)[None, :, :].astype(complex)
    elif vr.regressor_style == "trace_normalized":
        r_u = np.empty((n_nodes, m_dim, m_dim), dtype=complex)
        for k in range(n_nodes):
            g = crandn(gen, (m_dim, 2 * m_dim))
            cov = g @ g.conj().T
            r_u[k] = cov / np.trace(cov).real
    else:
        raise ValueError(f"unknown regressor_style '{vr.regressor_style}'")

    nodes = NodeProfile(
        m_dim=m_dim,
        r_u=r_u,
        sigma_v2=_uniform(gen, vr.sigma_v2, n_nodes),
        mu=_uniform(gen, vr.mu, n_nodes),
    )

    n_links = len(topo.link_table())
    eye = np.eye(m_dim, dtype=complex)
    ln = LinkNoiseProfile(
        r_w=_uniform(gen, vr.sigma_w2, n_links)[:, None, None] * eye,
        sigma_d2=_uniform(gen, vr.sigma_d2, n_links),
        r_u_link=_uniform(gen, vr.sigma_u_link2, n_links)[:, None, None] * eye,
        r_psi=_uniform(gen, vr.sigma_psi2, n_links)[:, None, None] * eye,
    )

    weights = WeightTrajectory(mode="constant", w0=crandn(gen, (m_dim,)))
    return NetworkModel(topology=topo, nodes=nodes, link_noise=ln, weights=weights)


# ---------------------------------------------------------------------------
# JSON serialization (1-based indices, complex numbers as [re, im] pairs)


def _complex_to_pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def network_to_dict(network: NetworkModel) -> dict:
    topo = network.topology
    m = network.m_dim
    ln = network.link_noise

    link_entries = []
    for p, (l, k) in enumerate(topo.link_table()):
        if (np.any(ln.r_w[p]) or ln.sigma_d2[p] != 0
                or np.any(ln.r_u_link[p]) or np.any(ln.r_psi[p])):
            link_entries.append({
                "from": l + 1,
                "to": k + 1,
                "r_w": _complex_to_pairs(ln.r_w[p]),
                "sigma_d2": float(ln.sigma_d2[p]),
                "r_u_link": _complex_to_pairs(ln.r_u_link[p]),
                "r_psi": _complex_to_pairs(ln.r_psi[p]),
            })

    w = network.weights
    weights: dict = {"mode": w.mode, "w0": _complex_to_pairs(w.w0)}
    if w.r_eta is not None:
        weights["r_eta"] = _complex_to_pairs(w.r_eta)
    if w.omega is not None:
        weights["omega"] = float(w.omega)

    return {
        "n_nodes": topo.n_nodes,
        "m_dim": m,
        "edges": [[l + 1, k + 1] for l, k in topo.cross_edges()],
        "nodes": [
            {
                "mu": float(network.nodes.mu[k]),
                "sigma_v2": float(network.nodes.sigma_v2[k]),
                "r_u": _complex_to_pairs(network.nodes.r_u[k]),
            }
            for k in range(topo.n_nodes)
        ],
        "links": link_entries,
        "weights": weights,
    }


def _whole(value, what: str, least: int | None = None) -> int:
    """``value`` as an int; a ValueError naming ``what`` unless it is a whole number >= ``least``.

    Booleans and strings are refused by kind, even when they would convert.
    """
    try:
        number = None if isinstance(value, (bool, np.bool_, str)) else float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or not number.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if least is not None and number < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return int(number)


_NUMBER_TYPES = (int, float)  # what JSON numbers load as; bool is excluded by type


def _real(value, what: str) -> float:
    """``value`` as a float; a ValueError naming ``what`` unless it is a JSON number."""
    if type(value) not in _NUMBER_TYPES:
        raise ValueError(f"{what} must be a number, got {value!r:.60}")
    return float(value)


def _complex(pairs, what: str, *shape: int) -> np.ndarray:
    """[re, im] number pairs as a complex array of ``shape``; else a ValueError naming ``what``."""
    size = math.prod(shape)
    try:
        flat = [re + 1j * im for re, im in pairs
                if type(re) in _NUMBER_TYPES and type(im) in _NUMBER_TYPES]
        ok = len(flat) == len(pairs) == size
    except (TypeError, ValueError):  # not a sequence of pairs
        ok = False
    if not ok:
        raise ValueError(f"{what} must be {size} [re, im] pairs of numbers, got {pairs!r:.60}")
    return np.array(flat, dtype=complex).reshape(shape)


def network_from_dict(data: dict) -> NetworkModel:
    n = _whole(data["n_nodes"], "n_nodes", least=1)
    m = _whole(data["m_dim"], "m_dim", least=1)

    def endpoints(entry, l, k):
        l, k = _whole(l, f"{entry} endpoint"), _whole(k, f"{entry} endpoint")
        if not (1 <= l <= n and 1 <= k <= n):
            raise ValueError(f"{entry} names a node outside 1..{n}")
        return l - 1, k - 1

    topo = Topology.from_edges(n, [endpoints(f"edge [{l}, {k}]", l, k) for l, k in data["edges"]])

    node_entries = data["nodes"]
    if len(node_entries) != n:
        raise ValueError(f"expected {n} node entries, got {len(node_entries)}")
    rows = list(enumerate(node_entries, 1))
    nodes = NodeProfile(
        m_dim=m,
        r_u=np.stack([_complex(e["r_u"], f"node {k} r_u", m, m) for k, e in rows]),
        sigma_v2=np.array([_real(e["sigma_v2"], f"node {k} sigma_v2") for k, e in rows]),
        mu=np.array([_real(e["mu"], f"node {k} mu") for k, e in rows]),
    )

    links = topo.link_table()
    ln = LinkNoiseProfile.zeros(len(links), m)
    for entry in data.get("links", []):
        l, k = entry["from"], entry["to"]
        l, k = endpoints(f"link entry {l}->{k}", l, k)
        p, what = links.slot[l, k], f"link entry {l + 1}->{k + 1}"
        if p < 0:
            raise ValueError(f"{what} is not an edge of the topology")
        ln.r_w[p] = _complex(entry["r_w"], f"{what} r_w", m, m)
        ln.sigma_d2[p] = _real(entry["sigma_d2"], f"{what} sigma_d2")
        ln.r_u_link[p] = _complex(entry["r_u_link"], f"{what} r_u_link", m, m)
        ln.r_psi[p] = _complex(entry["r_psi"], f"{what} r_psi", m, m)

    wd = data["weights"]
    mode = wd["mode"]
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode '{mode}'")
    weights = WeightTrajectory(
        mode=mode,
        w0=_complex(wd["w0"], "weights.w0", m),
        r_eta=(_complex(wd["r_eta"], "weights.r_eta", m, m)
               if mode == "random_walk" or "r_eta" in wd else None),
        omega=_real(wd["omega"], "weights.omega") if mode == "rotation" or "omega" in wd else None,
    )
    return NetworkModel(topology=topo, nodes=nodes, link_noise=ln, weights=weights)


def save_network(network: NetworkModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(network), fh, indent=2)
        fh.write("\n")


def load_network(path) -> NetworkModel:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
