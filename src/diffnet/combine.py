"""Combination-weight rules for the diffusion recursion.

Static rules (Metropolis, uniform, relative-variance) build left-stochastic
matrices whose column k carries the weights node k assigns to its neighbors.
The relative-variance rule is the closed-form minimizer of the per-node
weighted sum  sum_l a_lk^2 gamma_lk^2  over the probability simplex, where
gamma_lk^2 aggregates the noise power node k inherits from neighbor l.

The adaptive rule tracks gamma_lk^2 online from received intermediate
estimates with a forgetting factor and renormalizes every iteration; it is
defined for the post-adaptation combine slot (the one that merges exchanged
intermediate estimates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    CombinationMatrices,
    LinkNoiseProfile,
    NetworkModel,
    NodeProfile,
    Topology,
)

__all__ = [
    "metropolis",
    "uniform",
    "relative_variance",
    "relative_variance_gamma2",
    "weights_from_gamma2",
    "AdaptiveWeightState",
    "adaptive_update",
    "RULE_NAMES",
    "matrices_from_rules",
]

RULE_NAMES = ("metropolis", "uniform", "relative_variance", "adaptive", "identity")


def metropolis(topology: Topology) -> np.ndarray:
    """Metropolis weights: 1/max(|N_k|, |N_l|) on cross links, rest on self."""
    n = topology.n_nodes
    deg = np.array([topology.degree(k) for k in range(n)])
    a = np.zeros((n, n))
    for k in range(n):
        for l in topology.neighbors(k):
            if l != k:
                a[l, k] = 1.0 / max(deg[k], deg[l])
        a[k, k] = 1.0 - a[:, k].sum()
    return a


def uniform(topology: Topology) -> np.ndarray:
    """Uniform averaging over the neighborhood, self included."""
    n = topology.n_nodes
    a = np.zeros((n, n))
    for k in range(n):
        nbrs = topology.neighbors(k)
        a[nbrs, k] = 1.0 / len(nbrs)
    return a


def relative_variance_gamma2(topology: Topology, nodes: NodeProfile,
                             link_noise: LinkNoiseProfile) -> np.ndarray:
    """Noise-power profile gamma_lk^2 on the neighborhood pattern.

    Self entries carry the node's own gradient-noise power
    mu_k^2 sigma_vk^2 tr(R_uk); cross entries add the sender's gradient noise
    and the trace of the link noise on exchanged intermediate estimates.
    Entries outside the neighborhood are 0 and must not be consulted.
    """
    own = (nodes.mu ** 2) * nodes.sigma_v2 * np.einsum("kmm->k", nodes.r_u).real
    links = topology.link_table()
    gamma2 = np.diag(own)
    gamma2[links.src, links.dst] = own[links.src] + np.trace(link_noise.r_psi, axis1=1, axis2=2).real
    return gamma2


def weights_from_gamma2(topology: Topology, gamma2: np.ndarray) -> np.ndarray:
    """Column-wise inverse-variance weights over each neighborhood.

    Zero-variance entries take the limit: the weight splits uniformly over
    the zero entries and everything else gets 0.
    """
    n = topology.n_nodes
    a = np.zeros((n, n))
    for k in range(n):
        nbrs = topology.neighbors(k)
        g = gamma2[nbrs, k]
        zero = g == 0.0
        if zero.any():
            a[nbrs[zero], k] = 1.0 / zero.sum()
        else:
            inv = 1.0 / g
            a[nbrs, k] = inv / inv.sum()
    return a


def relative_variance(topology: Topology, nodes: NodeProfile,
                      link_noise: LinkNoiseProfile) -> np.ndarray:
    """Relative-variance combination weights (inverse noise power, normalized)."""
    return weights_from_gamma2(topology, relative_variance_gamma2(topology, nodes, link_noise))


# ---------------------------------------------------------------------------
# adaptive rule


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
    nbrs = topology.neighbors(k)
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
# rule selectors (scenario configs name rules as strings)


def _load_matrix_file(path, n: int) -> np.ndarray:
    import json

    with open(path) as fh:
        mat = np.array(json.load(fh), dtype=float)
    if mat.shape != (n, n):
        raise ValueError(f"matrix file {path} has shape {mat.shape}, expected ({n}, {n})")
    return mat


def matrices_from_rules(network: NetworkModel, rules: dict, base_dir=None) -> tuple[CombinationMatrices, bool]:
    """Resolve {"a1": ..., "c": ..., "a2": ...} selector strings.

    Selectors: "identity", "uniform", "metropolis", "relative_variance",
    "adaptive" (a2 slot only; slot starts uniform and adapts online), or
    "file:<path>" (JSON N x N array, resolved against ``base_dir``).
    For the data-sharing slot c, "uniform" means each sender splits evenly
    over its neighborhood (row-stochastic); "relative_variance" is not
    defined for c. Returns the matrices and whether a2 adapts online.
    """
    import os

    topo = network.topology
    n = topo.n_nodes
    adaptive = False
    out = {}
    for slot in ("a1", "c", "a2"):
        sel = rules.get(slot, "identity")
        if sel == "identity":
            out[slot] = np.eye(n)
        elif sel == "metropolis":
            out[slot] = metropolis(topo)
        elif sel == "uniform":
            out[slot] = uniform(topo).T if slot == "c" else uniform(topo)
        elif sel == "relative_variance":
            if slot == "c":
                raise ValueError("relative_variance is not defined for the data-sharing slot c")
            out[slot] = relative_variance(topo, network.nodes, network.link_noise)
        elif sel == "adaptive":
            if slot != "a2":
                raise ValueError("the adaptive rule applies to the a2 slot only")
            adaptive = True
            out[slot] = uniform(topo)
        elif isinstance(sel, str) and sel.startswith("file:"):
            path = sel[len("file:"):]
            if base_dir is not None and not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            out[slot] = _load_matrix_file(path, n)
        else:
            raise ValueError(f"unknown combination rule '{sel}' for slot {slot}")
    return CombinationMatrices(a1=out["a1"], c=out["c"], a2=out["a2"]), adaptive
