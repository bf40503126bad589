"""ConTutto reproduction: an FPGA memory-buffer prototyping platform for a
POWER8-class server, rebuilt as a discrete-event simulated software twin.

The paper (Sukhwani et al., MICRO-50 2017) plugs an FPGA card into the DMI
memory channel of a POWER8 server in place of the Centaur buffer ASIC, then
uses it to (1) vary latency to memory under real applications, (2) attach
STT-MRAM and NVDIMM-N to the memory bus, and (3) accelerate kernels next to
memory.  This package implements the whole platform in Python — the DMI
protocol with CRC/replay/training, both buffer designs, the memory devices,
the firmware boot path, the storage stack, and the accelerators — and
regenerates every table and figure of the evaluation.

Quickstart::

    from repro import CardSpec, ContuttoSystem
    from repro.units import GIB

    system = ContuttoSystem.build([
        CardSpec(slot=0, kind="contutto", capacity_per_dimm=4 * GIB),
    ])
    print(system.measure_latency_ns("contutto"), "ns")

See ``examples/`` and ``benchmarks/`` for the paper's experiments.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: public name -> the module it is imported from on first access (PEP 562),
#: so ``import repro`` alone loads no simulation code
_EXPORTS = {
    "CampaignJob": ".campaign",
    "CampaignRunner": ".campaign",
    "CardSpec": ".core",
    "ContuttoSystem": ".core",
    "FaultController": ".faults",
    "FaultPlan": ".faults",
    "FaultSpec": ".faults",
    "ResilienceReport": ".faults",
    "ResultCache": ".campaign",
    "ResultTable": ".core",
    "ScenarioMatrix": ".campaign",
    "run_ber_sweep": ".faults.experiments",
    "run_fig6": ".core",
    "run_fig7": ".core",
    "run_fig8": ".core",
    "run_fio_matrix": ".core",
    "run_nvdimm_drill": ".faults.experiments",
    "run_table1": ".core",
    "run_table2": ".core",
    "run_table3": ".core",
    "run_table4": ".core",
    "run_table5": ".core.acceleration",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
