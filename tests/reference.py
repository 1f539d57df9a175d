"""Per-node reference versions of engine internals, kept as test oracles.

The engine runs the adaptive combination rule batched over runs and links
inside ``diffnet.simulate.diffusion_step``. The node-at-a-time version here
is what the engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from diffnet.network import Topology


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
