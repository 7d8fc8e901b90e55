"""Exact moment computations for generalized q-gaussian structures built
from symmetric independent copies, with brute-force and stochastic oracles.
"""

from .qpoly import Q, QPoly
from .partitions import Partition12, crossing_number, enumerate_pair_singleton
from .qfock import FockConfig, FockVector, q_inner, vacuum_moment

__all__ = [
    "Q", "QPoly", "Partition12", "crossing_number",
    "enumerate_pair_singleton",
    "FockConfig", "FockVector", "q_inner", "vacuum_moment",
]

__version__ = "0.1.0"
