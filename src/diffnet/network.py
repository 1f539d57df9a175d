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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

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

# Per-entry fields in file order, each with its number of M-sized axes: 0 is a
# JSON number, 1 or 2 a flat list of [re, im] pairs.
_NODE_FIELDS = {"mu": 0, "sigma_v2": 0, "r_u": 2}
_LINK_FIELDS = {"r_w": 2, "sigma_d2": 0, "r_u_link": 2, "r_psi": 2}
_TARGET_FIELDS = {"w0": 1, "r_eta": 2, "omega": 0}
_NETWORK_KEYS = ("n_nodes", "m_dim", "edges", "nodes", "links", "weights")


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
        """Build from undirected cross pairs (0-based): a list of pairs or a (K, 2) array."""
        edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        outside = ((edges < 0) | (edges >= n_nodes)).any(axis=1)
        if outside.any():
            l, k = edges[outside.argmax()]
            raise ValueError(f"edge ({l}, {k}) names a node outside 0..{n_nodes - 1}")
        adj = np.eye(n_nodes, dtype=bool)
        adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = True
        return cls(n_nodes=n_nodes, adjacency=adj)

    def cross_edges(self):
        """Undirected cross pairs (l, k) with l < k."""
        return [(l, k) for k in range(self.n_nodes) for l in range(k) if self.adjacency[l, k]]

    def is_connected(self) -> bool:
        """Whether every node is reached from node 0 along adjacency[l, k] from k to l."""
        seen = np.arange(self.n_nodes) == 0
        while (grown := seen | self.adjacency[:, seen].any(axis=1)).sum() > seen.sum():
            seen = grown  # each sweep adds every neighbor of the nodes seen so far
        return bool(seen.size and seen.all())

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
        return cls(**{name: np.zeros((n_links,) + (m_dim,) * axes, dtype=complex if axes else float)
                      for name, axes in _LINK_FIELDS.items()})


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
        return "\n".join(self.violations) if self.violations else "ok"


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
    for i in np.flatnonzero((herm > HERMITIAN_TOL) | (floor < PSD_FLOOR)):
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
    n, m = topo.n_nodes, network.nodes.m_dim

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

    def link(p):
        return f"{links.src[p] + 1}->{links.dst[p] + 1}"

    def link_names(bad):
        return "links " + ", ".join(map(link, bad))

    link_noise_ok = True
    for name, axes in _LINK_FIELDS.items():
        got, want = getattr(ln, name).shape, (len(links),) + (m,) * axes
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


def _uniform(gen, span, size: int) -> np.ndarray:
    lo, hi = span
    return np.full(size, float(lo)) if lo == hi else gen.uniform(lo, hi, size=size)


def random_connected_topology(gen: np.random.Generator, n_nodes: int, connectivity: float,
                              max_tries: int = 200) -> Topology:
    """Erdos-Renyi draw retried until connected."""
    if n_nodes == 1:
        return Topology.from_edges(1, [])
    for _ in range(max_tries):
        upper = np.triu(gen.random((n_nodes, n_nodes)) < connectivity, k=1)
        topo = Topology(n_nodes, upper | upper.T | np.eye(n_nodes, dtype=bool))
        if topo.is_connected():
            return topo
    raise RuntimeError(f"no connected topology found in {max_tries} draws "
                       f"(n={n_nodes}, p={connectivity})")


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
        r_u = _uniform(gen, vr.sigma_u2, n_nodes)[:, None, None] * np.eye(m_dim, dtype=complex)
    elif vr.regressor_style == "trace_normalized":
        g = crandn(gen, (n_nodes, m_dim, 2 * m_dim))  # the draws of one node after another
        cov = g @ g.conj().swapaxes(1, 2)
        r_u = cov / np.trace(cov, axis1=1, axis2=2).real[:, None, None]
    else:
        raise ValueError(f"unknown regressor_style '{vr.regressor_style}'")

    nodes = NodeProfile(m_dim=m_dim, r_u=r_u, sigma_v2=_uniform(gen, vr.sigma_v2, n_nodes),
                        mu=_uniform(gen, vr.mu, n_nodes))

    n_links = len(topo.link_table())
    eye = np.eye(m_dim, dtype=complex)
    ln = LinkNoiseProfile(r_w=_uniform(gen, vr.sigma_w2, n_links)[:, None, None] * eye,
                          sigma_d2=_uniform(gen, vr.sigma_d2, n_links),
                          r_u_link=_uniform(gen, vr.sigma_u_link2, n_links)[:, None, None] * eye,
                          r_psi=_uniform(gen, vr.sigma_psi2, n_links)[:, None, None] * eye)

    weights = WeightTrajectory(mode="constant", w0=crandn(gen, (m_dim,)))
    return NetworkModel(topology=topo, nodes=nodes, link_noise=ln, weights=weights)


# ---------------------------------------------------------------------------
# JSON serialization (1-based indices, complex numbers as [re, im] pairs)


def _to_json(value):
    """A float, or the [re, im] pairs of a complex array in row-major order."""
    if np.ndim(value) == 0:
        return float(value)
    return [[float(z.real), float(z.imag)] for z in np.asarray(value, dtype=complex).reshape(-1)]


def network_to_dict(network: NetworkModel) -> dict:
    topo, nodes, ln, w = network.topology, network.nodes, network.link_noise, network.weights
    link_entries = []
    for p, (l, k) in enumerate(topo.link_table()):
        row = {name: getattr(ln, name)[p] for name in _LINK_FIELDS}
        if any(np.any(value) for value in row.values()):
            link_entries.append({"from": l + 1, "to": k + 1,
                                 **{name: _to_json(value) for name, value in row.items()}})
    return {
        "n_nodes": topo.n_nodes,
        "m_dim": network.m_dim,
        "edges": [[l + 1, k + 1] for l, k in topo.cross_edges()],
        "nodes": [{name: _to_json(getattr(nodes, name)[k]) for name in _NODE_FIELDS}
                  for k in range(topo.n_nodes)],
        "links": link_entries,
        "weights": {"mode": w.mode, **{name: _to_json(getattr(w, name)) for name in _TARGET_FIELDS
                                       if getattr(w, name) is not None}},
    }


def _object(value, what: str, keys, required=()) -> dict:
    """``value`` if it is a JSON object with keys among ``keys`` and every key of ``required``.

    Otherwise a ValueError names ``what`` and the unknown or missing key.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r:.60}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown {what} key {key!r}; expected one of {', '.join(keys)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} is missing {key!r}")
    return value


def _list(value, what: str, kind: str, item_ok=None) -> list:
    """``value`` if it is a JSON list whose items pass ``item_ok``; else a ValueError
    saying that ``what`` must be a list of ``kind``, with the offending value."""
    if isinstance(value, list):
        bad = [item for item in value if item_ok and not item_ok(item)]
    else:
        bad = [value]
    if bad:
        raise ValueError(f"{what} must be a list of {kind}, got {bad[0]!r:.60}")
    return value


_NUMBER_TYPES = frozenset((int, float))  # what JSON numbers load as; bool is excluded by type


def _whole(value, what: str, least: int | None = None) -> int:
    """``value`` as an int; a ValueError naming ``what`` unless it is a whole number >= ``least``
    that :func:`_numbers` passes, so booleans and strings are refused by kind."""
    number = _numbers([value])
    if number is None or not number[0].is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if least is not None and number[0] < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return int(number[0])


def _numbers(values, m: int = 1, axes: int = 0):
    """K values as a float (K,) array, or complex (K, M, ...) from M**axes [re, im] pairs each;
    None unless every number is a JSON number that a float holds, in lists of those lengths."""
    flat = values
    for length in (m ** axes, 2) if axes else ():  # each value's pairs, then each pair's parts
        if not ({list}.issuperset(map(type, flat)) and {length}.issuperset(map(len, flat))):
            return None
        flat = list(chain.from_iterable(flat))
    if not _NUMBER_TYPES.issuperset(map(type, flat)):
        return None
    try:
        array = np.array(flat, dtype=float)
    except OverflowError:
        return None
    return array.view(complex).reshape(len(values), *(m,) * axes) if axes else array


def _columns(entries: list, fields: dict, m: int):
    """The ``fields`` of all ``entries`` by :func:`_numbers`; None if a key or a value fails."""
    if not all(isinstance(entry, dict) and len(entry) == len(fields) for entry in entries):
        return None
    try:
        arrays = [_numbers(list(map(itemgetter(name), entries)), m, axes)
                  for name, axes in fields.items()]
    except KeyError:  # an entry lacks one of the fields, so it has another key instead
        return None
    return None if any(array is None for array in arrays) else arrays


def network_from_dict(data: dict) -> NetworkModel:
    """Read a network, each field of all node or all link entries in one conversion. On a
    fault the same checks run entry by entry in file order, and the first one raises."""
    _object(data, "network", _NETWORK_KEYS, ("n_nodes", "m_dim", "edges", "nodes", "weights"))
    n = _whole(data["n_nodes"], "n_nodes", least=1)
    m = _whole(data["m_dim"], "m_dim", least=1)
    node_entries = _list(data["nodes"], "nodes", "node entries")
    if len(node_entries) != n:
        raise ValueError(f"expected {n} node entries, got {len(node_entries)}")
    edges = _list(data["edges"], "edges", "[from, to] pairs",
                  lambda edge: isinstance(edge, list) and len(edge) == 2)

    def nodes_of(ends):  # [from, to] numbers as 0-based ints; None unless each is whole in 1..n
        whole = ends is not None and ((ends == np.trunc(ends)) & (1 <= ends) & (ends <= n)).all()
        return ends.astype(int).reshape(-1, 2) - 1 if whole else None

    def endpoints(entry, l, k):  # the check of nodes_of for one pair; a fault raises
        l, k = _whole(l, f"{entry} endpoint"), _whole(k, f"{entry} endpoint")
        if not (1 <= l <= n and 1 <= k <= n):
            raise ValueError(f"{entry} names a node outside 1..{n}")
        return l - 1, k - 1

    def fields(entry, what, names):  # one entry's values in file order; the first refused raises
        values = {name: _numbers([entry[name]], m, axes) for name, axes in names.items()}
        for name, axes in names.items():
            if values[name] is None:
                kind = f"{m ** axes} [re, im] pairs of numbers" if axes else "a number"
                raise ValueError(f"{what}{name} must be {kind}, got {entry[name]!r:.60}")
        return {name: value[0] if names[name] else float(value[0]) for name, value in values.items()}

    index = nodes_of(_numbers(list(chain.from_iterable(edges))))
    if index is None:
        for l, k in edges:
            endpoints(f"edge [{l}, {k}]", l, k)
    topo = Topology.from_edges(n, index)

    columns = _columns(node_entries, _NODE_FIELDS, m)
    if columns is None:
        for k, entry in enumerate(node_entries, 1):
            _object(entry, f"node {k}", _NODE_FIELDS, _NODE_FIELDS)
            fields(entry, f"node {k} ", _NODE_FIELDS)
    nodes = NodeProfile(m_dim=m, **dict(zip(_NODE_FIELDS, columns)))

    links = topo.link_table()
    ln = LinkNoiseProfile.zeros(len(links), m)
    link_keys = {"from": 0, "to": 0, **_LINK_FIELDS}
    link_entries = _list(data.get("links", []), "links", "link entries")
    columns = _columns(link_entries, link_keys, m)
    index = nodes_of(None if columns is None else np.stack(columns[:2], axis=1))
    rows = None if index is None else links.slot[index[:, 0], index[:, 1]]
    if rows is None or (rows < 0).any() or len(set(rows.tolist())) < len(rows):
        placed = set()
        for i, entry in enumerate(link_entries, 1):
            _object(entry, f"link entry #{i}", link_keys, ("from", "to"))
            l, k = entry["from"], entry["to"]
            l, k = endpoints(f"link entry {l}->{k}", l, k)
            p, what = links.slot[l, k], f"link entry {l + 1}->{k + 1}"
            if p < 0 or p in placed:
                fault = "is given twice" if p in placed else "is not an edge of the topology"
                raise ValueError(f"{what} {fault}")
            placed.add(p)
            fields(_object(entry, what, link_keys, _LINK_FIELDS), what + " ", _LINK_FIELDS)
    for name, column in zip(_LINK_FIELDS, columns[2:]):
        getattr(ln, name)[rows] = column

    wd = _object(data["weights"], "weights", ("mode", *_TARGET_FIELDS), ("mode", "w0"))
    mode = wd["mode"]
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode '{mode}'")
    own = {"random_walk": ("r_eta",), "rotation": ("omega",)}.get(mode, ())
    _object(wd, "weights", ("mode", *_TARGET_FIELDS), own)  # r_eta and omega in their own mode
    given = {name: axes for name, axes in _TARGET_FIELDS.items() if name in wd}
    weights = WeightTrajectory(mode=mode, **fields(wd, "weights.", given))
    return NetworkModel(topology=topo, nodes=nodes, link_noise=ln, weights=weights)


def save_network(network: NetworkModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(network), fh, indent=2)
        fh.write("\n")


def load_network(path) -> NetworkModel:
    with open(path) as fh:
        return network_from_dict(json.load(fh))
