"""Machine models for the paper's systems.

Parameters are public specifications: Jaguar was a 2.33 Pflops Cray XT5
with 224,256 cores (AMD Istanbul, 2.6 GHz) on a SeaStar2+ 3D torus
(~5 us MPI latency, ~2 GB/s per-node injection bandwidth); Longhorn
paired 512 NVIDIA FX 5800 GPUs with Nehalem quad-cores over QDR
InfiniBand (~2 us, ~3.2 GB/s effective).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """Alpha-beta-gamma description of a distributed machine."""

    name: str
    total_cores: int
    flops_per_core: float  # peak double-precision flop/s per core
    alpha: float  # point-to-point message latency (s)
    beta: float  # seconds per byte (inverse effective bandwidth)
    collective_factor: float = 1.0  # multiplier on log2(P) tree depth

    def allreduce_cost(self, P: int, bytes_: float) -> float:
        """Tree reduction + broadcast."""
        import math

        depth = max(math.log2(max(P, 2)), 1.0) * self.collective_factor
        return 2.0 * depth * (self.alpha + self.beta * bytes_)

    def allgather_cost(self, P: int, bytes_per_rank: float) -> float:
        """Recursive-doubling allgather: log P rounds, P*b total volume."""
        import math

        depth = max(math.log2(max(P, 2)), 1.0) * self.collective_factor
        return depth * self.alpha + self.beta * P * bytes_per_rank

    def exchange_cost(self, messages_per_rank: float, bytes_per_rank: float) -> float:
        """Sparse neighbor exchange (posted sends/recvs overlap)."""
        return self.alpha * messages_per_rank + self.beta * bytes_per_rank


JAGUAR_XT5 = MachineModel(
    name="Jaguar Cray XT5 (ORNL)",
    total_cores=224_256,
    flops_per_core=2.33e15 / 224_256,
    alpha=5e-6,
    beta=1.0 / 2.0e9,
)

LONGHORN_GPU = MachineModel(
    name="TACC Longhorn (FX 5800 GPUs)",
    total_cores=512,
    flops_per_core=78e9,  # single-precision-effective per GPU for dG
    alpha=2e-6,
    beta=1.0 / 3.2e9,
)

# The PCIe transfer bandwidth used for the Fig. 10 transfer column.
PCIE_BYTES_PER_SECOND = 3.0e9
