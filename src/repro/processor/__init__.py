"""POWER8 host side: socket, host memory controller, memory map, CPU model."""

from .cpu_model import CpuModel, WorkloadProfile
from .host_mc import HostMemoryController
from .memmap import (
    MIN_DMI_REGION_BYTES,
    TOP_OF_MAP,
    MemoryMap,
    MemoryRegion,
)
from .power8 import (
    NUM_DMI_CHANNELS,
    ChannelSlot,
    Power8Socket,
    SocketConfig,
)

__all__ = [
    "ChannelSlot",
    "CpuModel",
    "HostMemoryController",
    "MIN_DMI_REGION_BYTES",
    "MemoryMap",
    "MemoryRegion",
    "NUM_DMI_CHANNELS",
    "Power8Socket",
    "SocketConfig",
    "TOP_OF_MAP",
    "WorkloadProfile",
]
