"""Area and power models for design-space exploration.

The paper synthesizes multipliers, adders, buses, arbiters, and
scratchpads in 28 nm RTL and fits bus cost to a linear and arbiter cost
to a quadratic regression (Section 5.2). We embed constants with the
same functional forms, calibrated so that an Eyeriss-class design
(168 PEs, ~200 KB of SRAM, modest NoC) lands near the paper's
16 mm^2 / 450 mW budget. Absolute values are placeholders; every DSE
conclusion reproduced from the paper depends only on the relative
trade-off between PEs, SRAM, and NoC bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.accelerator import Accelerator


@dataclass(frozen=True)
class AreaModel:
    """Area (mm^2) and power (mW) as functions of the configuration.

    Functional forms:

    - PEs: linear (MAC + control + register overhead);
    - SRAM: linear in capacity;
    - bus: linear in ``bandwidth * num_pes`` (wire dominated);
    - arbiter: quadratic in ``num_pes`` (matrix arbiter), linear in
      bandwidth.
    """

    pe_area: float = 0.04            # mm^2 per PE (MAC + control + regs)
    sram_area_per_kb: float = 0.05   # mm^2 per KB (L1 and L2 alike)
    bus_area_coeff: float = 2.0e-5   # mm^2 per (element/cycle * PE)
    arbiter_area_coeff: float = 1.0e-7  # mm^2 per PE^2 per (element/cycle)

    pe_power: float = 1.2            # mW per PE (dynamic + leakage @1GHz)
    sram_power_per_kb: float = 0.5   # mW per KB
    bus_power_coeff: float = 1.0e-3  # mW per (element/cycle * PE)
    arbiter_power_coeff: float = 5.0e-6  # mW per PE^2 per (element/cycle)

    def area(self, accelerator: Accelerator) -> float:
        """Total area in mm^2; buffers must be concrete (not None)."""
        l1_size, l2_size = _buffer_sizes(accelerator)
        return self.area_of(accelerator.num_pes, accelerator.noc.bandwidth, l1_size, l2_size)

    def power(self, accelerator: Accelerator) -> float:
        """Total power in mW; buffers must be concrete (not None)."""
        l1_size, l2_size = _buffer_sizes(accelerator)
        return self.power_of(accelerator.num_pes, accelerator.noc.bandwidth, l1_size, l2_size)

    def area_of(self, pes: int, bandwidth: int, l1_size: int, l2_size: int) -> float:
        """Area in mm^2 of ``pes`` PEs with ``l1_size`` bytes each, an
        ``l2_size``-byte L2 and a ``bandwidth``-wide NoC."""
        l1_kb = l1_size / 1024.0
        l2_kb = l2_size / 1024.0
        return (
            self.pe_area * pes
            + self.sram_area_per_kb * (l1_kb * pes + l2_kb)
            + self.bus_area_coeff * bandwidth * pes
            + self.arbiter_area_coeff * bandwidth * pes * pes
        )

    def power_of(self, pes: int, bandwidth: int, l1_size: int, l2_size: int) -> float:
        """Power in mW of the design :meth:`area_of` prices."""
        l1_kb = l1_size / 1024.0
        l2_kb = l2_size / 1024.0
        return (
            self.pe_power * pes
            + self.sram_power_per_kb * (l1_kb * pes + l2_kb)
            + self.bus_power_coeff * bandwidth * pes
            + self.arbiter_power_coeff * bandwidth * pes * pes
        )

    def min_area(self, num_pes: int, bandwidth: int) -> float:
        """Lower bound on area for any design with these PEs/bandwidth.

        Used by the DSE to prune whole subspaces (buffers only add area,
        so zero-buffer area bounds every point in the subspace).
        """
        return (
            self.pe_area * num_pes
            + self.bus_area_coeff * bandwidth * num_pes
            + self.arbiter_area_coeff * bandwidth * num_pes * num_pes
        )

    def min_power(self, num_pes: int, bandwidth: int) -> float:
        """Lower bound on power, mirroring :meth:`min_area`."""
        return (
            self.pe_power * num_pes
            + self.bus_power_coeff * bandwidth * num_pes
            + self.arbiter_power_coeff * bandwidth * num_pes * num_pes
        )


def _buffer_sizes(accelerator: Accelerator) -> "tuple[int, int]":
    if accelerator.l1_size is None or accelerator.l2_size is None:
        raise ValueError(
            "area/power need concrete buffer sizes; size the accelerator "
            "from the analysis' buffer requirements first"
        )
    return accelerator.l1_size, accelerator.l2_size


#: The default model used by the DSE unless a caller overrides it.
DEFAULT_AREA_MODEL = AreaModel()
