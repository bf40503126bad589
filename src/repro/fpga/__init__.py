"""ConTutto FPGA logic: timing closure, MBS, Avalon, resources, the buffer."""

from .alu import (
    RmwAlu,
    conditional_swap,
    max_store,
    merge_partial,
    min_store,
)
from .avalon import AvalonBus, AvalonPort
from .command_engine import (
    ENGINES_PER_WRITE_PORT,
    NUM_ENGINES,
    CommandEngine,
    EnginePool,
)
from .contutto import NUM_DIMM_SLOTS, ConTuttoBuffer
from .latency_knob import CYCLES_PER_POSITION, MAX_POSITION, LatencyKnob
from .mbs import MbsLogic
from .pcie_link import LINK_CHUNK_BYTES, CardToCardLink
from .tcam import TCAM_BLOCK_COST, TcamEntry, TernaryCam
from .resources import (
    ACCEL_BLOCK_COSTS,
    BASE_BLOCK_COSTS,
    STRATIX_V_A9,
    BlockCost,
    DesignResources,
    FpgaDevice,
    base_design_resources,
)
from .timing import (
    INITIAL_TIMING,
    SHIPPING_TIMING,
    FpgaTimingConfig,
    TimingClosure,
)

__all__ = [
    "ACCEL_BLOCK_COSTS",
    "AvalonBus",
    "AvalonPort",
    "BASE_BLOCK_COSTS",
    "BlockCost",
    "CardToCardLink",
    "CommandEngine",
    "LINK_CHUNK_BYTES",
    "TCAM_BLOCK_COST",
    "TcamEntry",
    "TernaryCam",
    "ConTuttoBuffer",
    "CYCLES_PER_POSITION",
    "DesignResources",
    "ENGINES_PER_WRITE_PORT",
    "EnginePool",
    "FpgaDevice",
    "FpgaTimingConfig",
    "INITIAL_TIMING",
    "LatencyKnob",
    "MAX_POSITION",
    "MbsLogic",
    "NUM_DIMM_SLOTS",
    "NUM_ENGINES",
    "RmwAlu",
    "SHIPPING_TIMING",
    "STRATIX_V_A9",
    "TimingClosure",
    "base_design_resources",
    "conditional_swap",
    "max_store",
    "merge_partial",
    "min_store",
]
