"""Machine catalog: the paper's Table II plus calibration data.

Vendor peak numbers and HPCG results are the published values quoted in
the paper.  ``measured_tflops_dp`` is the paper's own Table III
measurement of WarpX per device, used to calibrate the achieved-memory-
bandwidth fraction of each architecture (PIC is memory-bound, so the
achieved bandwidth fraction is the one free parameter per machine).
Everything else the model produces is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Machine:
    """One machine of the paper's Table II."""

    name: str
    compute_hardware: str
    n_nodes: int
    devices_per_node: int
    #: vendor peak TFlop/s per device, double / single precision
    peak_tflops_dp: float
    peak_tflops_sp: float
    #: memory bandwidth per device [TByte/s]
    mem_tb_per_s: float
    #: published full-machine HPCG result [PFlop/s] (None: not yet available)
    hpcg_pflops: Optional[float]
    hpcg_nodes: Optional[int]
    #: injection bandwidth per node [GByte/s] and per-message latency [s]
    net_gb_per_s: float
    net_latency: float
    #: paper Table III: measured WarpX DP TFlop/s per device (calibration)
    measured_tflops_dp: float
    #: nodes actually available / used in the paper's largest runs
    max_nodes_used: int
    #: relative scalar (unvectorized) throughput for CPU machines: the
    #: A64FX baseline achieved only a few percent SIMD utilisation
    scalar_efficiency: float = 1.0

    def bw_fraction(self, arithmetic_intensity_dp: float) -> float:
        """Achieved fraction of vendor memory bandwidth, from calibration.

        With PIC memory-bound, measured Flop/s = AI * BW_achieved, so the
        single calibrated parameter is BW_achieved / BW_vendor.
        """
        achieved_tb = self.measured_tflops_dp / arithmetic_intensity_dp
        frac = achieved_tb / self.mem_tb_per_s
        return min(frac, 1.0)


MACHINES: Dict[str, Machine] = {
    "frontier": Machine(
        name="Frontier",
        compute_hardware="MI250X",
        n_nodes=9472,
        devices_per_node=4,
        peak_tflops_dp=47.9,
        peak_tflops_sp=95.7,
        mem_tb_per_s=3.3,
        hpcg_pflops=None,
        hpcg_nodes=None,
        net_gb_per_s=100.0,
        net_latency=2.0e-6,
        measured_tflops_dp=1.58,
        max_nodes_used=9316,
    ),
    "fugaku": Machine(
        name="Fugaku",
        compute_hardware="A64FX",
        n_nodes=158976,
        devices_per_node=1,
        peak_tflops_dp=3.38,
        peak_tflops_sp=6.76,
        mem_tb_per_s=1.0,
        hpcg_pflops=16.0,
        hpcg_nodes=158976,
        net_gb_per_s=40.8,
        net_latency=1.0e-6,
        # the generic (non-tuned) code path: Table III reports 0.037 TF/s;
        # the A64FX-optimized path reaches 0.12 TF/s in MP mode
        measured_tflops_dp=0.037,
        max_nodes_used=152064,
        scalar_efficiency=0.31,  # 0.037 / 0.12: unvectorized vs tuned
    ),
    "summit": Machine(
        name="Summit",
        compute_hardware="V100 SXM2 (16GB)",
        n_nodes=4608,
        devices_per_node=6,
        peak_tflops_dp=7.5,
        peak_tflops_sp=15.0,
        mem_tb_per_s=0.9,
        hpcg_pflops=2.93,
        hpcg_nodes=4608,
        net_gb_per_s=25.0,
        net_latency=3.0e-6,
        measured_tflops_dp=0.62,
        max_nodes_used=4608,
    ),
    "perlmutter": Machine(
        name="Perlmutter",
        compute_hardware="A100 SXM2 (40GB)",
        n_nodes=1526,
        devices_per_node=4,
        peak_tflops_dp=9.7,
        peak_tflops_sp=19.5,
        mem_tb_per_s=1.6,
        hpcg_pflops=1.91,
        hpcg_nodes=1424,
        net_gb_per_s=25.0,  # Slingshot 10 at the time of the paper's runs
        net_latency=2.0e-6,
        measured_tflops_dp=1.26,
        max_nodes_used=1100,
    ),
}

#: the paper's Fig. 5 end-point weak-scaling efficiencies, used to
#: calibrate each machine's collective-overhead coefficient
WEAK_SCALING_ANCHORS: Dict[str, Dict[str, float]] = {
    "frontier": {"nodes": 8576, "efficiency": 0.80},
    "fugaku": {"nodes": 152064, "efficiency": 0.84},
    "summit": {"nodes": 4263, "efficiency": 0.74},
    "perlmutter": {"nodes": 1088, "efficiency": 0.62},
}


def get_machine(name: str) -> Machine:
    key = name.lower()
    if key not in MACHINES:
        raise ConfigurationError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        )
    return MACHINES[key]
