"""Combination-weight rules for the diffusion recursion.

Static rules (Metropolis, uniform, relative-variance) build left-stochastic
matrices whose column k carries the weights node k assigns to its neighbors.
The relative-variance rule is the closed-form minimizer of the per-node
weighted sum  sum_l a_lk^2 gamma_lk^2  over the probability simplex, where
gamma_lk^2 aggregates the noise power node k inherits from neighbor l.

The adaptive rule tracks gamma_lk^2 online from received intermediate
estimates with a forgetting factor and renormalizes every iteration; it is
defined for the post-adaptation combine slot (the one that merges exchanged
intermediate estimates). Here it only selects that slot; the online update
runs inside :func:`diffnet.simulate.diffusion_step`, batched over runs.
"""

from __future__ import annotations

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
    "matrices_from_rules",
]


def metropolis(topology: Topology) -> np.ndarray:
    """Metropolis weights: 1/max(|N_k|, |N_l|) on cross links, rest on self."""
    links = topology.link_table()
    deg = topology.adjacency.sum(axis=0)
    a = np.zeros(topology.adjacency.shape)
    a[links.src, links.dst] = 1.0 / np.maximum(deg[links.src], deg[links.dst])
    np.fill_diagonal(a, 1.0 - a.sum(axis=0))
    return a


def uniform(topology: Topology) -> np.ndarray:
    """Uniform averaging over the neighborhood, self included."""
    return topology.adjacency / topology.adjacency.sum(axis=0)


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
    adj = topology.adjacency
    zero = adj & (gamma2 == 0.0)
    inv = np.divide(1.0, gamma2, out=np.zeros(adj.shape), where=adj & ~zero)
    w = np.where(zero.any(axis=0), zero, inv)
    return w / w.sum(axis=0)


def relative_variance(topology: Topology, nodes: NodeProfile,
                      link_noise: LinkNoiseProfile) -> np.ndarray:
    """Relative-variance combination weights (inverse noise power, normalized)."""
    return weights_from_gamma2(topology, relative_variance_gamma2(topology, nodes, link_noise))


# ---------------------------------------------------------------------------
# rule selectors (scenario configs name rules as strings)


def _load_matrix_file(path, n: int) -> np.ndarray:
    import json

    with open(path) as fh:
        mat = np.array(json.load(fh), dtype=object)
    # exact types, so that booleans and strings are refused rather than converted
    if mat.ndim != 2 or any(type(x) not in (int, float) for x in mat.flat):
        raise ValueError(f"matrix file {path} must hold a JSON array of rows of numbers")
    if mat.shape != (n, n):
        raise ValueError(f"matrix file {path} has shape {mat.shape}, expected ({n}, {n})")
    return mat.astype(float)


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
