"""Diffusion LMS over networks with noisy information exchange.

Simulation (Monte-Carlo learning curves) and closed-form analysis (stability,
bias, steady-state MSD/EMSE, tracking) of distributed adaptation where nodes
exchange estimates, intermediate estimates, and raw data over noisy links.
"""

from .combine import uniform
from .network import CombinationMatrices, VarianceRanges, random_network
from .simulate import RngPolicy, SimulationOptions, run_monte_carlo, steady_state_level
from .theory import network_metrics

__version__ = "0.1.0"
