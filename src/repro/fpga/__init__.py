"""ConTutto FPGA logic: timing closure, MBS, Avalon, resources, the buffer."""

from .._lazy import lazy_exports

#: public name -> submodule imported on first access (PEP 562)
_EXPORTS = {
    "ACCEL_BLOCK_COSTS": ".resources",
    "AvalonBus": ".avalon",
    "AvalonPort": ".avalon",
    "BASE_BLOCK_COSTS": ".resources",
    "BlockCost": ".resources",
    "CYCLES_PER_POSITION": ".latency_knob",
    "CardToCardLink": ".pcie_link",
    "CommandEngine": ".command_engine",
    "ConTuttoBuffer": ".contutto",
    "DesignResources": ".resources",
    "ENGINES_PER_WRITE_PORT": ".command_engine",
    "EnginePool": ".command_engine",
    "FpgaDevice": ".resources",
    "FpgaTimingConfig": ".timing",
    "INITIAL_TIMING": ".timing",
    "LINK_CHUNK_BYTES": ".pcie_link",
    "LatencyKnob": ".latency_knob",
    "MAX_POSITION": ".latency_knob",
    "MbsLogic": ".mbs",
    "NUM_DIMM_SLOTS": ".contutto",
    "NUM_ENGINES": ".command_engine",
    "RmwAlu": ".alu",
    "SHIPPING_TIMING": ".timing",
    "STRATIX_V_A9": ".resources",
    "TCAM_BLOCK_COST": ".tcam",
    "TcamEntry": ".tcam",
    "TernaryCam": ".tcam",
    "TimingClosure": ".timing",
    "base_design_resources": ".resources",
    "conditional_swap": ".alu",
    "max_store": ".alu",
    "merge_partial": ".alu",
    "min_store": ".alu",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
